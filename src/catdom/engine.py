"""Sequential mechanism execution.

``run_csam`` plays out a picking order against a profile, one pick per round,
with per-agent behaviors:

* optimistic agents assume every currently available item stays available and
  pick the designated category's component of their best bundle consistent
  with their earlier picks,
* pessimistic agents evaluate each candidate item by the worst consistent
  available bundle that contains it and pick the candidate whose worst case
  is best,
* scripted agents follow a fixed item list (one item per category, in the
  order their categories come up).

An agent's consistency state is a Python-int bitset over her ranking
positions: bit ``r`` is set while ``order[r]`` agrees with her own picks and
uses only items still available in her open categories. ``run_csam`` keeps
one per agent, all bits set at the start. When agent j takes item d of
category c, j keeps only the positions holding d
(``Preference.position_masks``) and every other agent loses them. One pick
kernel reads the state: the optimistic pick is the lowest set bit; the
pessimistic comparison takes the highest set bit per candidate item, and the
candidate whose worst bit is lowest wins. After the last round each bitset
has one bit left, the agent's bundle. The public choice functions build the
bitset from scratch (``_consistency_mask``) and call the same kernel.

The returned trace records, per round, the available item set of the round's
category and (for pessimistic rounds) the candidate-to-worst-bundle
comparison that justified the pick.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .domain import (
    Allocation,
    Bundle,
    Preference,
    Profile,
    ValidationError,
    bundle_table,
    validate_allocation,
)
from .orders import PickingOrder


class ExecutionError(RuntimeError):
    """A scripted pick could not be executed."""


class Behavior:
    pass


@dataclass(frozen=True)
class Optimistic(Behavior):
    pass


@dataclass(frozen=True)
class Pessimistic(Behavior):
    pass


@dataclass(frozen=True)
class Scripted(Behavior):
    """Fixed picks, one item per category in the agent's category suborder."""

    picks: tuple[int, ...]


OPTIMISTIC = Optimistic()
PESSIMISTIC = Pessimistic()


@dataclass(frozen=True)
class RoundRecord:
    t: int
    agent: int
    category: int
    item: int
    available: tuple[int, ...]
    comparison: Mapping[int, Bundle] | None = None

    def to_json(self) -> dict:
        doc = {
            "t": self.t,
            "agent": self.agent,
            "category": self.category,
            "item": self.item,
            "available": list(self.available),
        }
        if self.comparison is not None:
            doc["comparison"] = {str(d): list(b) for d, b in sorted(self.comparison.items())}
        return doc


@dataclass(frozen=True)
class ExecutionTrace:
    rounds: tuple[RoundRecord, ...]
    message_count: int


def message_count(trace: ExecutionTrace) -> int:
    return trace.message_count


def _consistency_mask(
    pref: Preference,
    picks: Mapping[int, int],
    available: Mapping[int, set[int]],
    open_category: int | None = None,
) -> int:
    """Bitset over ranking positions, built from scratch: bit ``r`` is set
    when ``pref.order[r]`` agrees with the agent's own picks and uses only
    available items in her open categories. ``open_category`` is held to its
    available items even when picked."""
    mask = (1 << pref.shape.bundle_count) - 1
    for i, by_item in enumerate(pref.position_masks, 1):
        items = (picks[i],) if i != open_category and i in picks else available[i]
        allowed = [bits for d, bits in enumerate(by_item, 1) if d in items]
        if len(allowed) < len(by_item):
            mask &= functools.reduce(operator.or_, allowed, 0)
    return mask


def _pick(
    pref: Preference, table: Sequence[Bundle], cons: int, category: int, pessimistic: bool
) -> tuple[int, dict[int, Bundle] | None]:
    """The pick kernel: the item taken in ``category`` and, for a pessimistic
    agent, the comparison behind it. ``cons`` is the agent's consistency
    bitset with ``category`` held to its available items; ``table`` is the
    shape's ``bundle_table``."""
    indices = pref.indices
    if not pessimistic:
        if not cons:
            raise ValidationError("no consistent available bundle; available sets exhausted")
        # the lowest set bit is the best consistent bundle
        return table[indices[(cons & -cons).bit_length() - 1]][category - 1], None
    comparison: dict[int, Bundle] = {}
    item = least = 0
    for d, bits in enumerate(pref.position_masks[category - 1], 1):
        # the highest set bit is the candidate's worst consistent bundle
        worst = (cons & bits).bit_length()
        if worst:
            comparison[d] = table[indices[worst - 1]]
            # distinct candidates have distinct worst bundles: a unique argmin
            if not least or worst < least:
                item, least = d, worst
    if not comparison:
        raise ValidationError(f"category {category} has no available items")
    return item, comparison


def optimistic_choice(
    pref: Preference,
    picks: Mapping[int, int],
    available: Mapping[int, set[int]],
    category: int,
) -> int:
    """Component of the best consistent available bundle in ``category``."""
    mask = _consistency_mask(pref, picks, available)
    return _pick(pref, bundle_table(pref.shape), mask, category, False)[0]


def pessimistic_comparison(
    pref: Preference,
    picks: Mapping[int, int],
    available: Mapping[int, set[int]],
    category: int,
) -> dict[int, Bundle]:
    """Worst consistent available bundle per candidate item of ``category``."""
    mask = _consistency_mask(pref, picks, available, category)
    return _pick(pref, bundle_table(pref.shape), mask, category, True)[1]


def pessimistic_choice(
    pref: Preference,
    picks: Mapping[int, int],
    available: Mapping[int, set[int]],
    category: int,
) -> int:
    """The candidate of ``category`` whose worst consistent bundle is best."""
    mask = _consistency_mask(pref, picks, available, category)
    return _pick(pref, bundle_table(pref.shape), mask, category, True)[0]


def _check_behaviors(shape, behaviors: Sequence[Behavior]) -> tuple[Behavior, ...]:
    bs = tuple(behaviors)
    if len(bs) != shape.n:
        raise ValidationError(f"{len(bs)} behaviors given, expected one per agent ({shape.n})")
    for j, b in enumerate(bs, 1):
        if isinstance(b, Scripted):
            if not all(type(x) is int for x in b.picks):
                raise ValidationError(f"agent {j} script picks {b.picks!r} are not all integers")
            if len(b.picks) != shape.p:
                raise ValidationError(
                    f"agent {j} script lists {len(b.picks)} picks, expected {shape.p}"
                )
        elif not isinstance(b, (Optimistic, Pessimistic)):
            raise ValidationError(f"agent {j} has unknown behavior {b!r}")
    return bs


def _play(
    order: PickingOrder, profile: Profile, behaviors: tuple[Behavior, ...]
) -> Iterator[tuple[RoundRecord, list[int]]]:
    """Play checked inputs round by round. Yields each round's record and the
    running consistency bitsets after it, ``cons[j - 1]`` for agent ``j``
    (one list, updated in place)."""
    shape = order.shape
    table, prefs = bundle_table(shape), profile.preferences
    masks = [pref.position_masks for pref in prefs]
    cons = [(1 << shape.bundle_count) - 1] * shape.n
    # each category's remaining items, kept sorted
    available = [list(shape.agents()) for _ in shape.categories()]
    made = [0] * shape.n
    for t, (j, i) in enumerate(order.rounds, 1):
        a, c = j - 1, i - 1
        behavior = behaviors[a]
        avail_here = tuple(available[c])
        comparison = None
        if isinstance(behavior, Scripted):
            item = behavior.picks[made[a]]
            if item not in avail_here:
                raise ExecutionError(
                    f"round {t}: scripted item {item} of category {i} is not available "
                    f"(remaining {available[c]})"
                )
        else:
            pessimistic = isinstance(behavior, Pessimistic)
            item, comparison = _pick(prefs[a], table, cons[a], i, pessimistic)
        available[c].remove(item)
        made[a] += 1
        # the taker keeps only bundles with the item, everyone else loses them
        for b, by_agent in enumerate(masks):
            bits = by_agent[c][item - 1]
            cons[b] = cons[b] & bits if b == a else cons[b] & ~bits
        yield RoundRecord(t, j, i, item, avail_here, comparison), cons


def run_csam(
    order: PickingOrder,
    profile: Profile,
    behaviors: Sequence[Behavior],
) -> tuple[Allocation, ExecutionTrace]:
    """Play the order out round by round; returns the allocation and trace.

    Message accounting: the order is announced to each of the n agents once,
    and each of the n*p picks is broadcast to all n agents, hence
    (1 + n*p) * n messages total.
    """
    shape = order.shape
    if profile.shape != shape:
        raise ValidationError(f"profile shape {profile.shape} does not match order shape {shape}")
    records: list[RoundRecord] = []
    for record, cons in _play(order, profile, _check_behaviors(shape, behaviors)):
        records.append(record)
    # every agent has picked in every category: one consistent bundle is left
    table, prefs = bundle_table(shape), profile.preferences
    allocation = Allocation(
        {j: table[prefs[j - 1].indices[cons[j - 1].bit_length() - 1]] for j in shape.agents()}
    )
    check = validate_allocation(shape, allocation)
    if not check.ok:
        raise AssertionError(f"engine produced an invalid allocation: {check.detail}")
    trace = ExecutionTrace(tuple(records), (1 + shape.n * shape.p) * shape.n)
    return allocation, trace


def _serial_picks(
    agent_order: Sequence[int], profile: Profile, worst_first: bool = False
) -> Allocation:
    """Each agent, in order, takes the first bundle of her ranking (read from
    the bottom when ``worst_first``) that shares no item with the bundles
    already taken."""
    taken: dict[int, set[int]] = {i: set() for i in profile.shape.categories()}
    bundles: dict[int, Bundle] = {}
    for j in agent_order:
        ranking = profile.pref(j).order
        for bundle in reversed(ranking) if worst_first else ranking:
            if all(comp not in taken[i] for i, comp in enumerate(bundle, 1)):
                bundles[j] = bundle
                for i, comp in enumerate(bundle, 1):
                    taken[i].add(comp)
                break
        else:
            raise AssertionError("no compatible bundle left; inputs must be inconsistent")
    return Allocation(bundles)


def direct_serial_dictatorship(agent_order: Sequence[int], profile: Profile) -> Allocation:
    """Whole-bundle serial dictatorship: each agent, in order, takes her best
    bundle compatible with the items already gone."""
    shape = profile.shape
    if sorted(agent_order) != list(shape.agents()):
        raise ValidationError(f"agent order {agent_order} is not a permutation of 1..{shape.n}")
    return _serial_picks(agent_order, profile)
