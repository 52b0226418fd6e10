"""Subgame-perfect equilibrium play of a picking order.

Full-information backward induction over the extensive-form game where each
round's agent chooses any available item of the round's category. Strict
preferences make the equilibrium outcome unique: two choices at the same node
give the chooser different final bundles (they differ in that category), so
argmin ties cannot occur.

The game is solved one level at a time, from the last round back to the
first. Round t's choice is a digit: the chosen item's rank among the items
its category still holds, with radix ``n - k`` once ``k`` of them are gone. A
state entering round t is the mixed-radix number of the digits chosen before
it, so level t holds exactly the product of the earlier radices;
``state_space_size`` sums those products, and every state is solved once. A
category's digits are the Lehmer code of the sequence of its items, so the
leaf level (each agent's final bundle index after every complete play) is a
sum of one lexicographic permutation table per category, laid onto that
category's round axes. Each level back keeps, for every state, the child the
round's agent ranks best.

The state cap bounds the arrays as well as the work: the last pick of every
category has radix 1, so the leaf level is no larger than the last decision
level, and the cap is checked against the state count before any array is
built. Bundle indices are stored in the narrowest unsigned dtype that holds
``n**p - 1``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .domain import Allocation, CapacityError, Profile, ValidationError, _invalid, bundle_table
from .engine import RoundRecord
from .orders import PickingOrder, pickers_in_category

DEFAULT_STATE_CAP = 10_000_000


def _radices(order: PickingOrder):
    """Each round's radix: the number of items its category still holds."""
    left = [order.shape.n] * (order.shape.p + 1)
    for _, category in order.rounds:
        yield left[category]
        left[category] -= 1


def _solve_levels(order: PickingOrder, profile: Profile) -> np.ndarray:
    """Each agent's equilibrium bundle index, by backward induction over the
    levels of the game."""
    shape, rounds, n = order.shape, order.rounds, order.shape.n
    width = np.min_scalar_type(shape.bundle_count - 1)
    # rounds with one item left offer no choice and add no axis
    axes = [(t, radix) for t, radix in enumerate(_radices(order)) if radix > 1]
    perms = itertools.chain.from_iterable(itertools.permutations(range(n)))
    lehmer = np.fromiter(perms, width, math.factorial(n) * n).reshape(-1, n)
    leaf = np.zeros([radix for _, radix in axes] + [n], width)
    for category in shape.categories():
        pickers = pickers_in_category(order, category)
        items = lehmer[:, np.argsort(pickers)] * n ** (shape.p - category)
        leaf += items.reshape([r if rounds[t][1] == category else 1 for t, r in axes] + [n])
    ranks = np.argsort([pref.indices for pref in profile.preferences], axis=1).astype(width)
    level = leaf.reshape(-1, n)
    for t, radix in reversed(axes):
        agent = rounds[t][0] - 1
        children = level.reshape(-1, radix, n)
        best = ranks[agent][children[:, :, agent]].argmin(axis=1)
        level = children[np.arange(len(best)), best]
    return level[0]


def solve_spne(
    order: PickingOrder,
    profile: Profile,
    state_cap: int = DEFAULT_STATE_CAP,
    collect_trace: bool = False,
) -> tuple[Allocation, tuple[RoundRecord, ...] | None]:
    """Equilibrium allocation (and optionally the equilibrium path, one
    ``RoundRecord`` per round without ``available``).

    Refuses with CapacityError, before solving, when the game has more than
    ``state_cap`` decision states; the result is exact, never truncated.
    """
    shape = order.shape
    if profile.shape != shape:
        raise ValidationError("profile shape does not match order shape")
    if not (type(state_cap) is int and state_cap >= 1):
        raise _invalid("state cap must be at least 1 state", state_cap)
    if state_space_size(order) - 1 > state_cap:
        raise CapacityError(f"equilibrium solving exceeded the state cap of {state_cap} states")

    table = bundle_table(shape)
    final = [table[i] for i in _solve_levels(order, profile).tolist()]
    allocation = Allocation({j: final[j - 1] for j in shape.agents()})

    if not collect_trace:
        return allocation, None
    return allocation, tuple(
        RoundRecord(t, agent, category, final[agent - 1][category - 1])
        for t, (agent, category) in enumerate(order.rounds, 1)
    )


def state_space_size(order: PickingOrder) -> int:
    """Number of distinct reachable decision states plus one terminal class:
    the states entering each round, the product of the earlier rounds'
    radices, summed over the rounds."""
    states = level = 1
    for radix in _radices(order):
        states += level
        level *= radix
    return states
