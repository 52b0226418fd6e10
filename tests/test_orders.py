import hashlib
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import catdom as cd
from catdom.adversarial import _remaining

from conftest import MIXED_ORDER_3X2_ROUNDS, SHAPE_3X2


def brute_slack(order, agent, category):
    """Availability when the agent picks: one plus the number of later
    pickers in the same category."""
    own = order.round_of(agent, category)
    later = sum(
        1
        for (j, i) in order.rounds
        if i == category and order.round_of(j, i) > own
    )
    return 1 + later


def brute_uninterrupted(order, agent):
    """Smallest position m in the agent's category sequence such that no
    pick of category sub[l-1] happens strictly between the agent's m-th and
    l-th rounds, for every l > m."""
    p = order.shape.p
    sub = order.analytics.suborder(agent)
    rounds = [order.round_of(agent, c) for c in sub]
    for m in range(1, p + 1):
        clean = True
        for l in range(m + 1, p + 1):
            lo, hi = rounds[m - 1], rounds[l - 1]
            for t in range(lo + 1, hi):
                if order.rounds[t - 1][1] == sub[l - 1]:
                    clean = False
        if clean:
            return m
    raise AssertionError("m = p is always admissible")


def reference_analyze_order(order):
    """Per-category analytics: slacks and predecessor rounds from a scan of
    each category's pickers, the uninterrupted index from those by the
    O(p**2) loop ``analyze_order`` ran before its backward suffix-max scan:
    position m works when, for every later position l, nobody picks from
    category sub[l] strictly between the agent's rounds m and l."""
    shape = order.shape
    n, p = shape.n, shape.p

    suborders = {j: () for j in shape.agents()}
    own_round = {j: [] for j in shape.agents()}
    for t, (j, i) in enumerate(order.rounds, 1):
        suborders[j] += (i,)
        own_round[j].append(t)

    slacks = {}
    for i in shape.categories():
        seq = cd.pickers_in_category(order, i)
        for pos, j in enumerate(seq):
            slacks[(j, i)] = n - pos

    pred_round = {}
    for i in shape.categories():
        seq = cd.pickers_in_category(order, i)
        prev = 0
        for j in seq:
            pred_round[(j, i)] = prev
            prev = order.round_of(j, i)

    uninterrupted = {}
    for j in shape.agents():
        sub = suborders[j]
        rounds_j = own_round[j]
        k_value = p
        for m in range(1, p + 1):
            ok = True
            for l in range(m + 1, p + 1):
                if pred_round[(j, sub[l - 1])] > rounds_j[m - 1]:
                    ok = False
                    break
            if ok:
                k_value = m
                break
        uninterrupted[j] = k_value

    return cd.OrderAnalytics(shape, suborders, slacks, uninterrupted)


# every shape with n * p <= 12, one agent and one category included
SHAPES_UP_TO_12 = [(n, p) for n in range(1, 13) for p in range(1, 12 // n + 1)]


def seeded_order(n, p, seed):
    rng = random.Random(seed)
    pairs = [(j, i) for j in range(1, n + 1) for i in range(1, p + 1)]
    rng.shuffle(pairs)
    return cd.PickingOrder(cd.DomainShape(n, p), pairs)


@st.composite
def order_strategy(draw, max_n=3, max_p=3):
    n = draw(st.integers(1, max_n))
    p = draw(st.integers(1, max_p))
    pairs = [(j, i) for j in range(1, n + 1) for i in range(1, p + 1)]
    rounds = draw(st.permutations(pairs))
    return cd.PickingOrder(cd.DomainShape(n, p), tuple(rounds))


NOT_A_PAIR_2X1 = "is not an (agent, category) pair of a 2x1 domain"


class TestPickingOrder:
    def test_round_lookup(self):
        order = cd.PickingOrder(SHAPE_3X2, MIXED_ORDER_3X2_ROUNDS)
        assert order.round_of(3, 2) == 4
        # (round, category) pairs in pick sequence
        assert order.rounds_of_agent(2) == [(2, 2), (5, 1)]

    def test_rejects_duplicate_round(self):
        rounds = ((1, 1), (1, 1), (2, 2), (2, 1), (1, 2), (3, 1))
        with pytest.raises(cd.ValidationError):
            cd.PickingOrder(SHAPE_3X2, rounds)

    @pytest.mark.parametrize(
        "rounds",
        [
            [[1.7, 1], [2, 1.2]],  # int() would truncate these to a valid order
            [[True, 1], [2, 1]],
            [[1], [2, 1]],
            [["a", 1], [2, 1]],
            [1, 2],
        ],
    )
    def test_rejects_non_int_pairs(self, rounds):
        with pytest.raises(cd.ValidationError):
            cd.PickingOrder(cd.DomainShape(2, 1), rounds)

    def test_rejects_missing_pair(self):
        rounds = MIXED_ORDER_3X2_ROUNDS[:-1]
        with pytest.raises(cd.ValidationError):
            cd.PickingOrder(SHAPE_3X2, rounds)

    @pytest.mark.parametrize(
        "rounds, message",
        [
            (5, "order rounds must be pairs, got 5"),
            ([(1, 1), (1, 1)], "order round 2 repeats the pair (1, 1)"),
            ([(1, 1)], "order has no round for the pair (2, 1)"),
            ([], "order has no round for the pair (1, 1)"),
            ([(2, 1), (3, 1)], f"order round 2 {NOT_A_PAIR_2X1}: (3, 1)"),
            ([(True, 1), (2, 1)], f"order round 1 {NOT_A_PAIR_2X1}: (True, 1)"),
            ([(1, 1), (2, 1), (1, 1)], "order round 3 repeats the pair (1, 1)"),
            ([(1, 1), 7], f"order round 2 {NOT_A_PAIR_2X1}: 7"),
        ],
    )
    def test_first_bad_entry_named(self, rounds, message):
        with pytest.raises(cd.ValidationError, match=f"^{re.escape(message)}$"):
            cd.PickingOrder(cd.DomainShape(2, 1), rounds)

    @pytest.mark.parametrize(
        "entry", [(10**5000, 1), list(range(10**5)), "ab" * 10**5, [[[[[[1]]]]], 1], {1: 2}]
    )
    def test_bad_entry_printed_short(self, entry):
        with pytest.raises(cd.ValidationError) as info:
            cd.PickingOrder(cd.DomainShape(2, 1), [(1, 1), entry])
        message = str(info.value)
        assert message.startswith(f"order round 2 {NOT_A_PAIR_2X1}: ")
        assert len(message) < 150

    def test_rounds_from_a_generator(self):
        order = cd.PickingOrder(SHAPE_3X2, (pair for pair in MIXED_ORDER_3X2_ROUNDS))
        assert order == cd.PickingOrder(SHAPE_3X2, MIXED_ORDER_3X2_ROUNDS)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([(1, 1), (2, 1), (1, 3), (2, 2), (3, 2)]), st.data())
    def test_names_what_the_pair_loop_names(self, dims, data):
        shape = cd.DomainShape(*dims)
        n, p = dims
        pairs = [(j, i) for j in range(1, n + 1) for i in range(1, p + 1)]
        entry = st.one_of(
            st.sampled_from(pairs),
            st.tuples(st.integers(0, n + 1), st.integers(0, p + 1)),
            st.sampled_from([(True, 1), (1, 1.0), (1,), (1, 1, 1), None]),
        )
        rounds = data.draw(
            st.one_of(
                st.permutations(pairs),
                # a permutation cut short: pairs left out, none repeated
                st.permutations(pairs).flatmap(
                    lambda perm: st.integers(0, len(perm) - 1).map(lambda k: perm[:k])
                ),
                st.lists(entry, min_size=max(len(pairs) - 1, 0), max_size=len(pairs) + 1),
            )
        )
        # the oracle: entries in list order, then the first pair left out
        seen, message = [], None
        for t, e in enumerate(rounds, 1):
            if not (
                isinstance(e, tuple) and len(e) == 2 and all(type(x) is int for x in e)
                and e in pairs
            ):
                message = (
                    f"order round {t} is not an (agent, category) pair of a {n}x{p} domain: {e!r}"
                )
                break
            if e in seen:
                message = f"order round {t} repeats the pair {e}"
                break
            seen.append(e)
        else:
            missing = [pair for pair in pairs if pair not in seen]
            if missing:
                message = f"order has no round for the pair {missing[0]}"
        if message is None:
            assert cd.PickingOrder(shape, rounds).rounds == tuple(rounds)
        else:
            with pytest.raises(cd.ValidationError, match=f"^{re.escape(message)}$"):
                cd.PickingOrder(shape, rounds)

    @pytest.mark.parametrize("agent, category", [(True, 1), (1, 1.0), (1.0, True), (4, 1), ([1], 1)])
    def test_round_of_takes_plain_ints_only(self, mixed_order_3x2, agent, category):
        # True and 1.0 hash like 1 and would find agent 1's round
        with pytest.raises(cd.ValidationError, match=f"no round for agent {re.escape(repr(agent))}, category"):
            mixed_order_3x2.round_of(agent, category)

    @pytest.mark.parametrize("agent", [0, 4, 9, True, 2.0])
    def test_rounds_of_agent_rejects_unknown_agents(self, mixed_order_3x2, agent):
        # an unknown agent would otherwise get an empty list
        with pytest.raises(cd.ValidationError, match=f"agent {agent!r} outside 1..3"):
            mixed_order_3x2.rounds_of_agent(agent)

    def test_equality_hash_and_repr(self, mixed_order_3x2):
        same = cd.PickingOrder(SHAPE_3X2, [list(r) for r in MIXED_ORDER_3X2_ROUNDS])
        assert same == mixed_order_3x2 and hash(same) == hash(mixed_order_3x2)
        assert mixed_order_3x2 != cd.serial_dictatorship_order([1, 2, 3], 2)
        assert mixed_order_3x2 != MIXED_ORDER_3X2_ROUNDS
        assert repr(mixed_order_3x2) == f"PickingOrder({MIXED_ORDER_3X2_ROUNDS})"


class TestOrderFamilies:
    def test_serial_dictatorship_rounds(self):
        order = cd.serial_dictatorship_order([2, 1], 2)
        assert order.rounds == ((2, 1), (2, 2), (1, 1), (1, 2))

    def test_balanced_rounds(self):
        order = cd.balanced_order([1, 2, 3], 2)
        assert order.rounds == ((1, 1), (2, 1), (3, 1), (3, 2), (2, 2), (1, 2))

    def test_balanced_four_categories(self):
        order = cd.balanced_order([1, 2], 4)
        assert order.rounds == (
            (1, 1), (2, 1), (2, 2), (1, 2), (1, 3), (2, 3), (2, 4), (1, 4),
        )

    def test_balanced_rejects_odd_p(self):
        with pytest.raises(cd.ValidationError):
            cd.balanced_order([1, 2], 3)

    def test_balanced_slack_pairs_sum(self):
        # forward then reversed phases give every agent slacks q and n+1-q
        for n, p in [(2, 2), (3, 2), (4, 4)]:
            order = cd.balanced_order(list(range(1, n + 1)), p)
            an = order.analytics
            for j in range(1, n + 1):
                sub = an.suborder(j)
                for r in range(0, p, 2):
                    pair = an.slack(j, sub[r]) + an.slack(j, sub[r + 1])
                    assert pair == n + 1

    def test_interrupter_rounds(self):
        order = cd.interrupter_order(3, 4)
        assert order.rounds == (
            (1, 1), (2, 1), (2, 2), (1, 2), (1, 3), (2, 3),
            (3, 1), (3, 2), (3, 3), (3, 4), (2, 4), (1, 4),
        )

    def test_interrupter_needs_two_agents(self):
        with pytest.raises(cd.ValidationError):
            cd.interrupter_order(1, 2)

    @pytest.mark.parametrize("n", [2.0, True, "3", None])
    def test_interrupter_rejects_non_int_n(self, n):
        with pytest.raises(cd.ValidationError, match=f"got n={n!r}"):
            cd.interrupter_order(n, 2)

    @pytest.mark.parametrize("family", [cd.serial_dictatorship_order, cd.balanced_order])
    @pytest.mark.parametrize("agent_order", [[True, 2], [1, 2.0], [1, "2"], [1, 1]])
    def test_families_reject_non_permutations(self, family, agent_order):
        # sorted([True, 2]) == [1, 2], so a sort alone would accept True
        with pytest.raises(cd.ValidationError, match="is not a permutation of 1..2"):
            family(agent_order, 2)


class TestAnalytics:
    def test_serial_dictatorship_values(self):
        order = cd.serial_dictatorship_order([1, 2, 3], 3)
        an = order.analytics
        for j in (1, 2, 3):
            assert an.suborder(j) == (1, 2, 3)
            assert an.uninterrupted_index(j) == 1
            for i in (1, 2, 3):
                assert an.slack(j, i) == 3 - j + 1

    def test_mixed_order_values(self, mixed_order_3x2):
        an = mixed_order_3x2.analytics
        assert an.suborder(1) == (1, 2)
        assert an.suborder(2) == (2, 1)
        assert an.suborder(3) == (1, 2)
        assert (an.slack(1, 1), an.slack(1, 2)) == (3, 1)
        assert (an.slack(2, 1), an.slack(2, 2)) == (1, 3)
        assert (an.slack(3, 1), an.slack(3, 2)) == (2, 2)
        assert an.uninterrupted_index(1) == 2
        assert an.uninterrupted_index(2) == 2
        assert an.uninterrupted_index(3) == 1

    def test_slack_multiset_per_category(self):
        order = cd.balanced_order([1, 2, 3], 2)
        an = order.analytics
        for i in (1, 2):
            values = sorted(an.slack(j, i) for j in (1, 2, 3))
            assert values == [1, 2, 3]

    @settings(max_examples=120)
    @given(order_strategy())
    def test_slack_matches_brute_force(self, order):
        an = order.analytics
        for j in order.shape.agents():
            for i in order.shape.categories():
                assert an.slack(j, i) == brute_slack(order, j, i)

    @settings(max_examples=120)
    @given(order_strategy())
    def test_uninterrupted_matches_brute_force(self, order):
        an = order.analytics
        for j in order.shape.agents():
            assert an.uninterrupted_index(j) == brute_uninterrupted(order, j)

    @settings(max_examples=200)
    @given(order_strategy(max_n=4, max_p=4))
    def test_matches_reference(self, order):
        assert cd.analyze_order(order) == reference_analyze_order(order)

    @pytest.mark.parametrize(
        "n, p",
        sorted({
            *SHAPES_UP_TO_12, (5, 3), (2, 12), (3, 8), (4, 6), (6, 4), (12, 2),
            (2, 16), (16, 2), (1, 40), (40, 1),
        }),
    )
    def test_matches_reference_seeded(self, n, p):
        for seed in range(40):
            order = seeded_order(n, p, seed)
            assert cd.analyze_order(order) == reference_analyze_order(order)

    @settings(max_examples=200)
    @given(order_strategy(max_n=4, max_p=4))
    def test_pass_matches_brute_force(self, order):
        an = cd.analyze_order(order)
        for j in order.shape.agents():
            assert an.suborder(j) == tuple(i for _, i in order.rounds_of_agent(j))
            for i in order.shape.categories():
                assert an.slack(j, i) == brute_slack(order, j, i)
            assert an.uninterrupted_index(j) == brute_uninterrupted(order, j)

    @settings(max_examples=60)
    @given(order_strategy())
    def test_slack_total_is_fixed(self, order):
        n, p = order.shape.n, order.shape.p
        an = order.analytics
        total = sum(
            an.slack(j, i)
            for j in order.shape.agents()
            for i in order.shape.categories()
        )
        assert total == p * n * (n + 1) // 2


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestGoldenAnalytics:
    """Analytics and mixed-behavior reports of 50 seeded random orders per
    shape, pinned by digest; the CLI pins cover structured orders only."""

    ANALYTICS = {
        (3, 4): "99ab807b6c421d73bd343b87d2b4e6c6b145c4d1a5944610936d00b844e5b9d0",
        (4, 3): "3912865b2797b0bab817bfbea22849b19f8b990fdb9d83108fa436798c671ad3",
    }
    # agents alternate opt, pess, opt, ...
    REPORTS = {
        (3, 4): "9d39a62fd27e8f8d95d399285e8732957cd5d1c9898a16f31f45de2967dcbd36",
        (4, 3): "500b103f5e0b14abbe4ecce421a489237a6fb33de129c995c613c16a314fccd6",
    }

    @pytest.mark.parametrize("shape", sorted(ANALYTICS))
    def test_analytics_pinned(self, shape):
        docs = []
        for seed in range(50):
            order = seeded_order(*shape, seed)
            an = cd.analyze_order(order)
            docs.append([
                [list(an.suborder(j)), [an.slack(j, i) for i in an.suborder(j)],
                 an.uninterrupted_index(j)]
                for j in order.shape.agents()
            ])
        assert _digest(docs) == self.ANALYTICS[shape]

    @pytest.mark.parametrize("shape", sorted(REPORTS))
    def test_reports_pinned(self, shape):
        n = shape[0]
        mix = [cd.OPTIMISTIC if j % 2 else cd.PESSIMISTIC for j in range(1, n + 1)]
        docs = [
            cd.worst_case_report(seeded_order(*shape, seed), mix).to_json()
            for seed in range(50)
        ]
        assert _digest(docs) == self.REPORTS[shape]


class TestRemainingSets:
    def test_mixed_order_category_one(self, mixed_order_3x2):
        # category 1 picks happen at rounds 1 (agent 1), 3 (agent 3), 5 (agent 2)
        assert _remaining(mixed_order_3x2, 1, 1) == (1, 2, 3)
        assert _remaining(mixed_order_3x2, 1, 2) == (2, 3)
        assert _remaining(mixed_order_3x2, 1, 4) == (2,)
        assert _remaining(mixed_order_3x2, 1, 6) == ()
        assert _remaining(mixed_order_3x2, 2, 3) == (1, 3)


class TestPredecessors:
    def test_pickers_in_category(self, mixed_order_3x2):
        assert cd.pickers_in_category(mixed_order_3x2, 1) == (1, 3, 2)
        assert cd.pickers_in_category(mixed_order_3x2, 2) == (2, 3, 1)

    def test_predecessor_is_cyclic(self, mixed_order_3x2):
        assert cd.predecessor_in_category(mixed_order_3x2, 1, 3) == 1
        assert cd.predecessor_in_category(mixed_order_3x2, 1, 2) == 3
        # the first picker wraps around to the last one
        assert cd.predecessor_in_category(mixed_order_3x2, 1, 1) == 2

    @pytest.mark.parametrize("category", [0, 3, True, 1.0])
    def test_pickers_reject_bad_category(self, mixed_order_3x2, category):
        with pytest.raises(cd.ValidationError, match=f"category {category!r} outside 1..2"):
            cd.pickers_in_category(mixed_order_3x2, category)

    @pytest.mark.parametrize("category, agent, bad", [(1, 7, "agent 7"), (1, True, "agent True"),
                                                     (3, 1, "category 3")])
    def test_predecessor_rejects_bad_agent_or_category(self, mixed_order_3x2, category, agent, bad):
        with pytest.raises(cd.ValidationError, match=f"{bad} outside"):
            cd.predecessor_in_category(mixed_order_3x2, category, agent)


class TestAnalyticsLookups:
    """Lookups outside the order's agents and categories name the bad key."""

    def test_suborder(self, mixed_order_3x2):
        with pytest.raises(cd.ValidationError, match="no agent 4 in a 3x2 order"):
            mixed_order_3x2.analytics.suborder(4)

    def test_slack(self, mixed_order_3x2):
        with pytest.raises(cd.ValidationError, match=r"no \(agent, category\) pair \(1, 3\)"):
            mixed_order_3x2.analytics.slack(1, 3)
        with pytest.raises(cd.ValidationError, match=r"pair \(0, 1\) in a 3x2 order"):
            mixed_order_3x2.analytics.slack(0, 1)

    def test_uninterrupted_index(self, mixed_order_3x2):
        with pytest.raises(cd.ValidationError, match="no agent 0 in a 3x2 order"):
            mixed_order_3x2.analytics.uninterrupted_index(0)


class TestAnalyticsPlainInts:
    """True and 1.0 hash like 1: every lookup, and the bounds read through
    them, takes plain ints only."""

    @pytest.mark.parametrize("agent", [True, 1.0, (1,)])
    def test_suborder(self, mixed_order_3x2, agent):
        with pytest.raises(cd.ValidationError, match=f"no agent {re.escape(repr(agent))} in"):
            mixed_order_3x2.analytics.suborder(agent)

    @pytest.mark.parametrize("agent, category", [(True, 1), (1, 1.0), (1.0, 2), ([1], 1)])
    def test_slack(self, mixed_order_3x2, agent, category):
        with pytest.raises(cd.ValidationError, match=r"no \(agent, category\) pair"):
            mixed_order_3x2.analytics.slack(agent, category)

    @pytest.mark.parametrize("agent", [True, 1.0])
    def test_uninterrupted_index(self, mixed_order_3x2, agent):
        with pytest.raises(cd.ValidationError, match=f"no agent {agent!r} in"):
            mixed_order_3x2.analytics.uninterrupted_index(agent)

    @pytest.mark.parametrize(
        "bound", [cd.optimistic_bound, cd.pessimistic_bound, cd.strategic_bound]
    )
    @pytest.mark.parametrize("agent", [True, 1.0])
    def test_bounds(self, mixed_order_3x2, bound, agent):
        with pytest.raises(cd.ValidationError):
            bound(mixed_order_3x2.analytics, agent)


class TestOrderJson:
    def test_roundtrip(self, mixed_order_3x2):
        doc = cd.order_to_json(mixed_order_3x2)
        back = cd.order_from_json(json.loads(json.dumps(doc)))
        assert back.rounds == mixed_order_3x2.rounds
        assert back.shape == mixed_order_3x2.shape

    def test_exhaustive_orders_all_valid(self):
        shape = cd.DomainShape(2, 2)
        pairs = [(j, i) for j in (1, 2) for i in (1, 2)]
        count = 0
        for rounds in itertools.permutations(pairs):
            cd.PickingOrder(shape, rounds)
            count += 1
        assert count == 24
