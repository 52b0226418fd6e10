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

The returned trace records, per round, the available item set of the round's
category and (for pessimistic rounds) the candidate-to-worst-bundle
comparison that justified the pick.
"""

from __future__ import annotations

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


def _consistent(bundle: Bundle, picks: dict[int, int], available: dict[int, set[int]]) -> bool:
    # consistent = agrees with own past picks and uses only available items
    # in categories still open for this agent
    for i, comp in enumerate(bundle, 1):
        own = picks.get(i)
        if own is not None:
            if own != comp:
                return False
        elif comp not in available[i]:
            return False
    return True


def optimistic_choice(
    pref: Preference,
    picks: Mapping[int, int],
    available: Mapping[int, set[int]],
    category: int,
) -> int:
    """Component of the best consistent available bundle in ``category``."""
    picks = dict(picks)
    available = {i: set(s) for i, s in available.items()}
    for bundle in pref.order:
        if _consistent(bundle, picks, available):
            return bundle[category - 1]
    raise ValidationError("no consistent available bundle; available sets exhausted")


def pessimistic_comparison(
    pref: Preference,
    picks: Mapping[int, int],
    available: Mapping[int, set[int]],
    category: int,
) -> dict[int, Bundle]:
    """Worst consistent available bundle per candidate item of ``category``."""
    base = dict(picks)
    avail = {i: set(s) for i, s in available.items()}
    out: dict[int, Bundle] = {}
    for d in sorted(avail[category]):
        base[category] = d
        for bundle in reversed(pref.order):
            if _consistent(bundle, base, avail):
                out[d] = bundle
                break
    if not out:
        raise ValidationError(f"category {category} has no available items")
    return out


def pessimistic_choice(
    pref: Preference,
    picks: Mapping[int, int],
    available: Mapping[int, set[int]],
    category: int,
) -> int:
    comparison = pessimistic_comparison(pref, picks, available, category)
    # distinct candidates force distinct worst bundles, so the argmin is unique
    return min(comparison, key=lambda d: pref.rank_of(comparison[d]))


def _check_behaviors(shape, behaviors: Sequence[Behavior]) -> tuple[Behavior, ...]:
    bs = tuple(behaviors)
    if len(bs) != shape.n:
        raise ValidationError(f"{len(bs)} behaviors given, expected one per agent ({shape.n})")
    for j, b in enumerate(bs, 1):
        if isinstance(b, Scripted):
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
            item = min(comparison, key=lambda d: profile.pref(j).rank_of(comparison[d]))
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
