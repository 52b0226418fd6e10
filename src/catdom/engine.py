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
uses only items still available in her open categories. One play
(``_play``) keeps one per agent, all bits set at the start, and builds every
agent's position masks in one call (``build_position_masks``). When agent j
takes item d of category c, j keeps only the positions holding d and every
other agent loses them. The bitsets are the play's only record of what is
left: an item of a category still open for an agent is available exactly
when her bitset meets its position mask. One pick kernel reads the state
and returns raw data: the optimistic pick is the lowest set bit; the
pessimistic pick takes the highest set bit per candidate item, its worst
bit length, and the candidate whose worst bit is lowest wins. After the
last round each bitset has one bit left, the agent's bundle, and its bit
length is her rank. The public choice functions build the bitset from
scratch (``_consistency_mask``) and call the same kernel.

``run_csam`` turns the play into a trace: per round, the available items of
the round's category and, for a pessimistic pick, the comparison behind it.
``_realized_ranks`` plays without a trace and returns the ranks only, for
the Mallows study.

Whole-bundle serial dictatorship has one scan, ``_serial_picks``, behind
``direct_serial_dictatorship`` and every serial dictatorship of ``axioms``:
each agent walks her bundle indices and takes the first bundle whose item
bits (``domain._item_bits``, one int per bundle) miss the bits already
taken.
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
    _REPR,
    _check_permutation,
    _item_bits,
    build_position_masks,
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
# the sincere behaviors by their CLI and study token
_BEHAVIORS = {"opt": OPTIMISTIC, "pess": PESSIMISTIC}


@dataclass(frozen=True)
class RoundRecord:
    """One round of a play: who picked which item of which category. A
    ``run_csam`` record also holds the items the category still had and,
    for a pessimistic pick, the comparison behind it; an equilibrium path
    (``spne.solve_spne``) holds neither."""

    t: int
    agent: int
    category: int
    item: int
    available: tuple[int, ...] | None = None
    comparison: Mapping[int, Bundle] | None = None

    def to_json(self) -> dict:
        doc = {"t": self.t, "agent": self.agent, "category": self.category, "item": self.item}
        if self.available is not None:
            doc["available"] = list(self.available)
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
) -> tuple[int, dict[int, int] | None]:
    """The pick kernel: the item taken in ``category`` and, for a pessimistic
    agent, each candidate's worst bit length (the 1-based ranking position of
    its worst consistent bundle). ``cons`` is the agent's consistency bitset
    with ``category`` held to its available items; ``table`` is the shape's
    ``bundle_table``."""
    if not pessimistic:
        if not cons:
            raise ValidationError("no consistent available bundle; available sets exhausted")
        # the lowest set bit is the best consistent bundle
        return table[pref.indices[(cons & -cons).bit_length() - 1]][category - 1], None
    worst: dict[int, int] = {}
    item = least = 0
    for d, bits in enumerate(pref.position_masks[category - 1], 1):
        # the highest set bit is the candidate's worst consistent bundle
        length = (cons & bits).bit_length()
        if length:
            worst[d] = length
            # distinct candidates have distinct worst bundles: a unique argmin
            if not least or length < least:
                item, least = d, length
    if not worst:
        raise ValidationError(f"category {category} has no available items")
    return item, worst


def _comparison(
    pref: Preference, table: Sequence[Bundle], worst: Mapping[int, int]
) -> dict[int, Bundle]:
    """The kernel's worst bit lengths as candidate-to-worst-bundle pairs."""
    return {d: table[pref.indices[length - 1]] for d, length in worst.items()}


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
    table = bundle_table(pref.shape)
    return _comparison(pref, table, _pick(pref, table, mask, category, True)[1])


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
    """The one check of a behavior list: one behavior per agent, each
    optimistic, pessimistic or a script of one int per category."""
    bs = tuple(behaviors)
    if len(bs) != shape.n:
        raise ValidationError(f"{len(bs)} behaviors given, expected {shape.n}")
    for j, b in enumerate(bs, 1):
        if isinstance(b, Scripted):
            if not all(type(x) is int for x in b.picks):
                raise ValidationError(
                    f"agent {j} script picks {_REPR.repr(b.picks)} are not all integers"
                )
            if len(b.picks) != shape.p:
                raise ValidationError(
                    f"agent {j} script lists {len(b.picks)} picks, expected {shape.p}"
                )
        elif not isinstance(b, (Optimistic, Pessimistic)):
            raise ValidationError(f"agent {j} has unknown behavior {b!r}")
    return bs


def _play(
    order: PickingOrder, profile: Profile, behaviors: tuple[Behavior, ...]
) -> Iterator[tuple[int, dict[int, int] | None, list[int]]]:
    """Play checked inputs round by round. Yields, per round, the item taken,
    the kernel's worst bit lengths for a pessimistic pick (None otherwise),
    and the running consistency bitsets after the round, ``cons[j - 1]`` for
    agent ``j`` (one list, updated in place). Builds every agent's position
    masks in one call first. A scripted item is on the table exactly when
    the picker's bitset meets its mask: its category is open for her, and
    each of her other open categories still holds an item."""
    shape = order.shape
    n, table, prefs = shape.n, bundle_table(shape), profile.preferences
    build_position_masks(prefs)
    # by_category[c][a]: agent a + 1's masks of the items of category c + 1
    by_category = list(zip(*(pref.position_masks for pref in prefs)))
    scripts = [iter(b.picks) if isinstance(b, Scripted) else None for b in behaviors]
    pessimistic = [isinstance(b, Pessimistic) for b in behaviors]
    cons = [(1 << shape.bundle_count) - 1] * n
    for t, (j, i) in enumerate(order.rounds, 1):
        a, c = j - 1, i - 1
        script, row = scripts[a], by_category[c]
        worst = None
        if script is not None:
            item = next(script)
            if not (1 <= item <= n and cons[a] & row[a][item - 1]):
                left = [d for d, bits in enumerate(row[a], 1) if cons[a] & bits]
                raise ExecutionError(
                    f"round {t}: scripted item {item} of category {i} is not available "
                    f"(remaining {left})"
                )
        else:
            item, worst = _pick(prefs[a], table, cons[a], i, pessimistic[a])
        # the taker keeps only bundles with the item, everyone else loses them
        d = item - 1
        keep = cons[a] & row[a][d]
        for k in range(n):
            cons[k] &= ~row[k][d]
        cons[a] = keep
        yield item, worst, cons


def _bundles(shape, prefs: Sequence[Preference], cons: Sequence[int]) -> list[Bundle]:
    """The one bundle left in each agent's final bitset, agent 1 first,
    checked to partition every category."""
    table = bundle_table(shape)
    bundles = [table[pref.indices[bits.bit_length() - 1]] for pref, bits in zip(prefs, cons)]
    # table bundles are well formed, so distinct items per category is validity
    if any(len(set(items)) < shape.n for items in zip(*bundles)):
        check = validate_allocation(shape, Allocation(dict(enumerate(bundles, 1))))
        raise AssertionError(f"engine produced an invalid allocation: {check.detail}")
    return bundles


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
    table, prefs = bundle_table(shape), profile.preferences
    left = [list(shape.agents()) for _ in shape.categories()]
    records: list[RoundRecord] = []
    play = _play(order, profile, _check_behaviors(shape, behaviors))
    for t, ((j, i), (item, worst, cons)) in enumerate(zip(order.rounds, play), 1):
        comparison = None if worst is None else _comparison(prefs[j - 1], table, worst)
        records.append(RoundRecord(t, j, i, item, tuple(left[i - 1]), comparison))
        left[i - 1].remove(item)
    # every agent has picked in every category: one consistent bundle is left
    allocation = Allocation(dict(enumerate(_bundles(shape, prefs, cons), 1)))
    trace = ExecutionTrace(tuple(records), (1 + shape.n * shape.p) * shape.n)
    return allocation, trace


def _realized_ranks(
    order: PickingOrder, profile: Profile, behaviors: tuple[Behavior, ...]
) -> list[int]:
    """``run_csam`` on checked inputs without a trace: each agent's rank of
    her bundle, the bit length of her final bitset."""
    for _, _, cons in _play(order, profile, behaviors):
        pass
    _bundles(order.shape, profile.preferences, cons)
    return [bits.bit_length() for bits in cons]


def _serial_picks(
    agent_order: Sequence[int], profile: Profile, worst_first: bool = False
) -> Allocation:
    """Each agent, in order, takes the first bundle of her ranking (read from
    the bottom when ``worst_first``) whose item bits miss those of the
    bundles already taken. The agent order is not checked: pass a
    permutation of 1..n."""
    shape = profile.shape
    table, bits = bundle_table(shape), _item_bits(shape)
    taken = 0
    bundles: dict[int, Bundle] = {}
    for j in agent_order:
        indices = profile.preferences[j - 1].indices
        for idx in reversed(indices) if worst_first else indices:
            if not bits[idx] & taken:
                taken |= bits[idx]
                bundles[j] = table[idx]
                break
        else:
            raise AssertionError("no compatible bundle left; inputs must be inconsistent")
    return Allocation(bundles)


def direct_serial_dictatorship(agent_order: Sequence[int], profile: Profile) -> Allocation:
    """Whole-bundle serial dictatorship: each agent, in order, takes her best
    bundle compatible with the items already gone."""
    shape = profile.shape
    _check_permutation(agent_order, shape.n, "agent order ")
    return _serial_picks(agent_order, profile)
