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

Picks read a per-round consistency mask over the agent's ranking positions,
a Python-int bitset: the AND over categories of the positions of each
category's allowed items (``Preference.position_masks``). The optimistic pick
is the lowest set bit; the pessimistic comparison takes the highest set bit
per candidate item.

The returned trace records, per round, the available item set of the round's
category and (for pessimistic rounds) the candidate-to-worst-bundle
comparison that justified the pick.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

from .domain import (
    Allocation,
    Bundle,
    Preference,
    Profile,
    ValidationError,
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
    """Bitset over ranking positions: bit ``r`` is set when ``pref.order[r]``
    agrees with the agent's own picks and uses only available items in her
    open categories. ``open_category`` is held to its available items even
    when picked."""
    mask = (1 << pref.shape.bundle_count) - 1
    for i, by_item in enumerate(pref.position_masks, 1):
        items = (picks[i],) if i != open_category and i in picks else available[i]
        allowed = [bits for d, bits in enumerate(by_item, 1) if d in items]
        if len(allowed) < len(by_item):
            mask &= functools.reduce(operator.or_, allowed, 0)
    return mask


def optimistic_choice(
    pref: Preference,
    picks: Mapping[int, int],
    available: Mapping[int, set[int]],
    category: int,
) -> int:
    """Component of the best consistent available bundle in ``category``."""
    mask = _consistency_mask(pref, picks, available)
    if not mask:
        raise ValidationError("no consistent available bundle; available sets exhausted")
    # the lowest set bit is the best consistent bundle
    return pref.order[(mask & -mask).bit_length() - 1][category - 1]


def pessimistic_comparison(
    pref: Preference,
    picks: Mapping[int, int],
    available: Mapping[int, set[int]],
    category: int,
) -> dict[int, Bundle]:
    """Worst consistent available bundle per candidate item of ``category``."""
    mask = _consistency_mask(pref, picks, available, category)
    out: dict[int, Bundle] = {}
    for d, bits in enumerate(pref.position_masks[category - 1], 1):
        hits = mask & bits
        if hits:
            # the highest set bit is the candidate's worst consistent bundle
            out[d] = pref.order[hits.bit_length() - 1]
    if not out:
        raise ValidationError(f"category {category} has no available items")
    return out


def _least_worst(pref: Preference, comparison: Mapping[int, Bundle]) -> int:
    # distinct candidates force distinct worst bundles, so the argmin is unique
    return min(comparison, key=lambda d: pref.rank_of(comparison[d]))


def pessimistic_choice(
    pref: Preference,
    picks: Mapping[int, int],
    available: Mapping[int, set[int]],
    category: int,
) -> int:
    return _least_worst(pref, pessimistic_comparison(pref, picks, available, category))


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
    behaviors = _check_behaviors(shape, behaviors)

    available: dict[int, set[int]] = {i: set(shape.agents()) for i in shape.categories()}
    picks: dict[int, dict[int, int]] = {j: {} for j in shape.agents()}
    records: list[RoundRecord] = []

    for t, (j, i) in enumerate(order.rounds, 1):
        behavior = behaviors[j - 1]
        avail_here = tuple(sorted(available[i]))
        comparison = None
        if isinstance(behavior, Optimistic):
            item = optimistic_choice(profile.pref(j), picks[j], available, i)
        elif isinstance(behavior, Pessimistic):
            comparison = pessimistic_comparison(profile.pref(j), picks[j], available, i)
            item = _least_worst(profile.pref(j), comparison)
        else:
            item = behavior.picks[len(picks[j])]
            if item not in available[i]:
                raise ExecutionError(
                    f"round {t}: scripted item {item} of category {i} is not available "
                    f"(remaining {sorted(available[i])})"
                )
        records.append(RoundRecord(t, j, i, item, avail_here, comparison))
        available[i].remove(item)
        picks[j][i] = item

    allocation = Allocation(
        {j: tuple(picks[j][i] for i in shape.categories()) for j in shape.agents()}
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
