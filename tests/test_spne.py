import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import catdom as cd

from test_orders import seeded_order


def brute_spne(order, profile):
    """Minimax backward induction without memoization, tracking explicit
    availability sets. Exponential; only for tiny instances."""
    shape = order.shape
    rounds = order.rounds

    def rec(t, avail, picks):
        if t > len(rounds):
            return {
                j: tuple(picks[j][i] for i in shape.categories())
                for j in shape.agents()
            }
        j, c = rounds[t - 1]
        best = None
        for d in sorted(avail[c]):
            avail2 = {i: set(s) for i, s in avail.items()}
            avail2[c].remove(d)
            picks2 = {a: dict(m) for a, m in picks.items()}
            picks2[j][c] = d
            outcome = rec(t + 1, avail2, picks2)
            rank = profile.pref(j).rank_of(outcome[j])
            if best is None or rank < best[0]:
                best = (rank, outcome)
        return best[1]

    avail0 = {i: set(shape.agents()) for i in shape.categories()}
    picks0 = {j: {} for j in shape.agents()}
    return rec(1, avail0, picks0)


def _available(state, shape, category):
    gone = {row[category - 1] for row in state}
    return [d for d in range(1, shape.n + 1) if d not in gone]


def recursive_spne(order, profile):
    """The state-by-state recursive solver the level solver replaced: a pick
    state is the per-agent partial pick matrix (0 = not picked yet), and each
    round's agent keeps the child outcome it ranks best."""
    shape = order.shape
    rounds = order.rounds
    prefs = [profile.pref(j) for j in shape.agents()]

    def solve(t, state):
        if t > len(rounds):
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

    final = solve(1, tuple((0,) * shape.p for _ in shape.agents()))
    return {j: final[j - 1] for j in shape.agents()}


def uniform_profile(shape, seed):
    rng = np.random.default_rng(seed)
    return cd.Profile(shape, [cd.uniform_preference(shape, rng) for _ in shape.agents()])


def brute_state_count(order):
    """Distinct pick-states reachable at the start of any round, plus one
    class for the full allocations."""
    shape = order.shape
    states = {tuple((0,) * shape.p for _ in shape.agents())}
    seen = set(states)
    for (j, c) in order.rounds[:-1]:
        nxt = set()
        for state in states:
            taken = {row[c - 1] for row in state}
            for d in shape.agents():
                if d in taken:
                    continue
                row = list(state[j - 1])
                row[c - 1] = d
                nxt.add(state[: j - 1] + (tuple(row),) + state[j:])
        states = nxt
        seen |= nxt
    return len(seen) + 1


class TestGameRegression:
    def test_equilibrium_allocation(self, game_order_2x2, game_profile_2x2):
        alloc, _ = cd.solve_spne(game_order_2x2, game_profile_2x2)
        assert dict(alloc.bundles) == {1: (1, 1), 2: (2, 2)}
        ranks = [game_profile_2x2.pref(j).rank_of(alloc[j]) for j in (1, 2)]
        assert ranks == [3, 3]

    def test_trace_consistent(self, game_order_2x2, game_profile_2x2):
        alloc, trace = cd.solve_spne(game_order_2x2, game_profile_2x2, collect_trace=True)
        assert [r.t for r in trace] == [1, 2, 3, 4]
        for record in trace:
            assert record.item == alloc[record.agent][record.category - 1]
        assert [(r.agent, r.category) for r in trace] == list(game_order_2x2.rounds)

    @pytest.mark.parametrize(
        "order",
        [cd.serial_dictatorship_order([1], 3), cd.balanced_order([1, 2], 2),
         cd.balanced_order([1, 2, 3], 4)],
        ids=["sd-1x3", "balanced-2x2", "balanced-3x4"],
    )
    def test_trace_holds_round_records(self, order):
        # one record type for run --trace and spne --trace
        n, p = order.shape.n, order.shape.p
        alloc, trace = cd.solve_spne(order, uniform_profile(order.shape, 0), collect_trace=True)
        assert len(trace) == n * p
        for record, (agent, category) in zip(trace, order.rounds):
            assert type(record) is cd.RoundRecord
            assert record.available is None and record.comparison is None
            assert record.to_json() == {
                "t": record.t, "agent": agent, "category": category,
                "item": alloc[agent][category - 1],
            }
            assert list(record.to_json()) == ["t", "agent", "category", "item"]

    def test_no_trace_by_default(self, game_order_2x2, game_profile_2x2):
        _, trace = cd.solve_spne(game_order_2x2, game_profile_2x2)
        assert trace is None


@st.composite
def spne_instance(draw):
    n, p = draw(
        st.sampled_from([(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (4, 2), (2, 4), (3, 3)])
    )
    shape = cd.DomainShape(n, p)
    bundles = list(shape.bundles())
    prefs = [
        cd.Preference(shape, draw(st.permutations(bundles)))
        for _ in shape.agents()
    ]
    pairs = [(j, i) for j in shape.agents() for i in shape.categories()]
    rounds = tuple(draw(st.permutations(pairs)))
    return cd.PickingOrder(shape, rounds), cd.Profile(shape, prefs)


class TestAgainstBruteForce:
    @settings(max_examples=120, deadline=None)
    @given(spne_instance())
    def test_matches_unmemoized_recursion(self, instance):
        order, profile = instance
        alloc, _ = cd.solve_spne(order, profile)
        expected = brute_spne(order, profile)
        assert dict(alloc.bundles) == expected
        assert recursive_spne(order, profile) == expected

    @pytest.mark.parametrize("n, p", [(3, 3), (4, 2), (2, 4)])
    def test_matches_unmemoized_recursion_seeded(self, n, p):
        shape = cd.DomainShape(n, p)
        for seed in range(3):
            profile = uniform_profile(shape, seed)
            order = seeded_order(n, p, seed)
            alloc, _ = cd.solve_spne(order, profile)
            assert dict(alloc.bundles) == brute_spne(order, profile)

    @pytest.mark.parametrize("n, p", [(3, 4), (4, 3)])
    def test_matches_recursive_oracle_seeded(self, n, p):
        shape = cd.DomainShape(n, p)
        for seed in range(3):
            profile = uniform_profile(shape, seed)
            order = seeded_order(n, p, seed)
            alloc, _ = cd.solve_spne(order, profile)
            assert dict(alloc.bundles) == recursive_spne(order, profile)

    @pytest.mark.parametrize(
        "order",
        [cd.balanced_order([1, 2, 3, 4], 4), seeded_order(6, 2, 0)],
        ids=["balanced-4x4", "seeded-6x2"],
    )
    def test_matches_recursive_oracle_large(self, order):
        # 591,426 and 1,444,538 states: the oracle takes seconds at these sizes
        profile = uniform_profile(order.shape, 0)
        alloc, _ = cd.solve_spne(order, profile)
        assert dict(alloc.bundles) == recursive_spne(order, profile)

    def test_exhaustive_two_by_one(self):
        shape = cd.DomainShape(2, 1)
        order = cd.PickingOrder(shape, ((1, 1), (2, 1)))
        bundles = list(shape.bundles())
        for perm1 in itertools.permutations(bundles):
            for perm2 in itertools.permutations(bundles):
                profile = cd.Profile(
                    shape, [cd.Preference(shape, perm1), cd.Preference(shape, perm2)]
                )
                alloc, _ = cd.solve_spne(order, profile)
                # the first mover takes her preferred item outright
                assert alloc[1] == perm1[0]


class TestOneAgent:
    def test_deep_game(self):
        # 1500 rounds: a recursive walk would pass Python's recursion limit
        shape = cd.DomainShape(1, 1500)
        order = cd.serial_dictatorship_order([1], 1500)
        profile = cd.Profile(shape, [cd.Preference(shape, [(1,) * 1500])])
        alloc, trace = cd.solve_spne(order, profile, collect_trace=True)
        assert alloc[1] == (1,) * 1500
        assert [(r.t, r.category, r.item) for r in trace] == [
            (t, t, 1) for t in range(1, 1501)
        ]
        assert cd.state_space_size(order) == 1501

    def test_cap_still_applies(self):
        shape = cd.DomainShape(1, 3)
        order = cd.serial_dictatorship_order([1], 3)
        profile = cd.Profile(shape, [cd.Preference(shape, [(1, 1, 1)])])
        assert cd.solve_spne(order, profile, state_cap=3)[0][1] == (1, 1, 1)
        with pytest.raises(cd.CapacityError):
            cd.solve_spne(order, profile, state_cap=2)


class TestStateSpace:
    def test_pinned_sizes(self):
        one = cd.PickingOrder(cd.DomainShape(1, 1), ((1, 1),))
        assert cd.state_space_size(one) == 2
        two = cd.PickingOrder(cd.DomainShape(2, 1), ((1, 1), (2, 1)))
        assert cd.state_space_size(two) == 4

    @settings(max_examples=60, deadline=None)
    @given(spne_instance())
    def test_matches_brute_enumeration(self, instance):
        order, _ = instance
        assert cd.state_space_size(order) == brute_state_count(order)

    @pytest.mark.parametrize("n, p", [(3, 3), (4, 2), (2, 4), (3, 4), (4, 3)])
    def test_matches_brute_enumeration_seeded(self, n, p):
        for seed in range(3):
            order = seeded_order(n, p, seed)
            assert cd.state_space_size(order) == brute_state_count(order)

    def test_cap_threshold_is_the_state_count(self):
        # the cap counts the decision states the solver visits: 2590 here
        order = cd.balanced_order([1, 2, 3], 4)
        assert cd.state_space_size(order) - 1 == 2590
        profile = cd.Profile(
            order.shape,
            [cd.uniform_preference(order.shape, np.random.default_rng(k)) for k in range(3)],
        )
        expected, _ = cd.solve_spne(order, profile)
        assert cd.solve_spne(order, profile, state_cap=2590)[0] == expected
        with pytest.raises(cd.CapacityError, match="state cap of 2589 states"):
            cd.solve_spne(order, profile, state_cap=2589)

    def test_capacity_refusal(self):
        # the cap is checked before any level array is built: the 6x2 leaf
        # level alone holds 518,400 x 6 bundle indices, about 3 MB
        order = cd.balanced_order(list(range(1, 7)), 2)
        profile = uniform_profile(order.shape, 0)
        states = cd.state_space_size(order) - 1
        tracemalloc.start()
        try:
            with pytest.raises(cd.CapacityError, match=f"state cap of {states - 1} states"):
                cd.solve_spne(order, profile, state_cap=states - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_memory_ceiling(self):
        # bundle indices in the narrowest dtype: an int64 leaf level alone
        # would be 25 MB here
        order = cd.balanced_order(list(range(1, 7)), 2)
        profile = uniform_profile(order.shape, 0)
        tracemalloc.start()
        try:
            cd.solve_spne(order, profile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 10**6

    @pytest.mark.parametrize("cap", [0, -1, 1e9])
    def test_state_cap_below_one_is_bad_input(self, game_order_2x2, game_profile_2x2, cap):
        with pytest.raises(cd.ValidationError, match="state cap must be at least 1 state"):
            cd.solve_spne(game_order_2x2, game_profile_2x2, state_cap=cap)

    def test_shape_mismatch(self, game_order_2x2, profile_3x2):
        with pytest.raises(cd.ValidationError):
            cd.solve_spne(game_order_2x2, profile_3x2)

    def test_round_without_items_raises(self, monkeypatch, game_order_2x2, game_profile_2x2):
        # the oracle's own guard: the level solver has no per-state item list
        monkeypatch.setitem(globals(), "_available", lambda state, shape, category: [])
        with pytest.raises(AssertionError, match="no available item"):
            recursive_spne(game_order_2x2, game_profile_2x2)
