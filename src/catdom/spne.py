"""Subgame-perfect equilibrium play of a picking order.

Full-information backward induction over the extensive-form game where each
round's agent chooses any available item of the round's category. Strict
preferences make the equilibrium outcome unique: two choices at the same node
give the chooser different final bundles (they differ in that category), so
argmax ties cannot occur.

States are canonical: the per-agent partial pick matrix determines the round
number and all availability. The rounds are fixed, so each round fills one
known (agent, category) cell and a state is reached along one path only;
nothing is memoized. The solver visits every reachable state once, and
``state_space_size`` counts them in closed form: entering a round, the agents
who have picked in a category hold distinct items there, every such
assignment is reachable, and categories are independent, so a category's
(k+1)-th pick multiplies the number of states by ``n - k``. The state cap is
checked against that count before solving.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import Allocation, Bundle, CapacityError, Profile, ValidationError
from .orders import PickingOrder

DEFAULT_STATE_CAP = 10_000_000

# picks-state: tuple over agents of tuple over categories, 0 = not picked yet
State = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SpneRound:
    t: int
    agent: int
    category: int
    item: int


def _available(state: State, shape, category: int) -> list[int]:
    gone = {row[category - 1] for row in state}
    return [d for d in range(1, shape.n + 1) if d not in gone]


def _level_sizes(order: PickingOrder):
    """Number of reachable decision states entering each round, in order."""
    n = order.shape.n
    picked = [0] * (order.shape.p + 1)
    level = 1
    for _, category in order.rounds:
        yield level
        level *= n - picked[category]
        picked[category] += 1


def solve_spne(
    order: PickingOrder,
    profile: Profile,
    state_cap: int = DEFAULT_STATE_CAP,
    collect_trace: bool = False,
) -> tuple[Allocation, tuple[SpneRound, ...] | None]:
    """Equilibrium allocation (and optionally the equilibrium path).

    Refuses with CapacityError, before solving, when the walk would visit
    more than ``state_cap`` decision states; the result is exact, never
    truncated.
    """
    shape = order.shape
    if profile.shape != shape:
        raise ValidationError("profile shape does not match order shape")
    if not (type(state_cap) is int and state_cap >= 1):
        raise ValidationError(f"state cap must be at least 1 state, got {state_cap!r}")
    states = 0
    for level in _level_sizes(order):
        states += level
        if states > state_cap:
            raise CapacityError(
                f"equilibrium solving exceeded the state cap of {state_cap} states"
            )
    rounds = order.rounds
    total = len(rounds)
    prefs = [profile.pref(j) for j in shape.agents()]

    def solve(t: int, state: State) -> tuple[Bundle, ...]:
        if t > total:
            return state
        agent, category = rounds[t - 1]
        best_outcome = None
        best_rank = None
        for d in _available(state, shape, category):
            row = list(state[agent - 1])
            row[category - 1] = d
            child = state[: agent - 1] + (tuple(row),) + state[agent:]
            outcome = solve(t + 1, child)
            rank = prefs[agent - 1].rank_of(outcome[agent - 1])
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_outcome = outcome
        if best_outcome is None:
            raise AssertionError(f"round {t}: category {category} has no available item")
        return best_outcome

    if shape.n == 1:
        # the lone agent gets the lone bundle; the walk would recurse p deep
        final = ((1,) * shape.p,)
    else:
        final = solve(1, tuple((0,) * shape.p for _ in shape.agents()))
    allocation = Allocation({j: final[j - 1] for j in shape.agents()})

    trace = None
    if collect_trace:
        trace = tuple(
            SpneRound(t, agent, category, final[agent - 1][category - 1])
            for t, (agent, category) in enumerate(rounds, 1)
        )
    return allocation, trace


def state_space_size(order: PickingOrder) -> int:
    """Number of distinct reachable decision states plus one terminal class."""
    return 1 + sum(_level_sizes(order))
