import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

import catdom as cd

from test_orders import order_strategy


def _slack_products_by_recursion(order: cd.PickingOrder) -> dict[int, int]:
    """Backward recursion cross-check: walking rounds from last to first and
    multiplying each agent's factor in at her own rounds must reproduce the
    full slack products used by strategic_bound."""
    analytics = order.analytics
    acc = {j: 1 for j in order.shape.agents()}
    for t in range(len(order.rounds), 0, -1):
        j, i = order.rounds[t - 1]
        acc[j] *= analytics.slack(j, i)
    return acc


class TestFormulas:
    def test_mixed_order(self, mixed_order_3x2):
        an = mixed_order_3x2.analytics
        assert cd.optimistic_bound(an, 1) == 9
        assert cd.optimistic_bound(an, 2) == 9
        assert cd.optimistic_bound(an, 3) == 6
        assert cd.pessimistic_bound(an, 3) == 7
        assert cd.strategic_bound(an, 1) == 7
        assert cd.strategic_bound(an, 2) == 7
        assert cd.strategic_bound(an, 3) == 6

    def test_serial_dictatorship(self):
        an = cd.serial_dictatorship_order([1, 2, 3], 2).analytics
        assert [cd.optimistic_bound(an, j) for j in (1, 2, 3)] == [1, 6, 9]
        assert [cd.pessimistic_bound(an, j) for j in (1, 2, 3)] == [5, 7, 9]
        assert [cd.strategic_bound(an, j) for j in (1, 2, 3)] == [1, 6, 9]

    @settings(max_examples=80)
    @given(order_strategy())
    def test_strategic_product_recursion_agrees(self, order):
        an = order.analytics
        products = _slack_products_by_recursion(order)
        for j in order.shape.agents():
            assert cd.strategic_bound(an, j) == order.shape.bundle_count + 1 - products[j]

    @settings(max_examples=80)
    @given(order_strategy())
    def test_bound_orderings(self, order):
        # the optimistic bound never beats the strategic one, and every bound
        # stays inside [1, n**p]
        an = order.analytics
        top = order.shape.bundle_count
        for j in order.shape.agents():
            opt = cd.optimistic_bound(an, j)
            pess = cd.pessimistic_bound(an, j)
            strat = cd.strategic_bound(an, j)
            assert 1 <= strat <= opt <= top
            assert 1 <= pess <= top


class TestReport:
    def test_mixed_report(self, mixed_order_3x2):
        behaviors = [cd.OPTIMISTIC, cd.OPTIMISTIC, cd.PESSIMISTIC]
        report = cd.worst_case_report(mixed_order_3x2, behaviors)
        assert [e.bound for e in report.entries] == [9, 9, 7]
        assert [e.behavior for e in report.entries] == ["opt", "opt", "pess"]
        assert report.utilitarian == 25
        assert report.egalitarian == 9
        assert report.bound(3) == 7

    def test_scripted_rejected(self, mixed_order_3x2):
        behaviors = [cd.Scripted((1, 1)), cd.OPTIMISTIC, cd.OPTIMISTIC]
        with pytest.raises(cd.ValidationError):
            cd.worst_case_report(mixed_order_3x2, behaviors)

    def test_json_shape(self, mixed_order_3x2):
        behaviors = [cd.OPTIMISTIC, cd.OPTIMISTIC, cd.PESSIMISTIC]
        doc = cd.worst_case_report(mixed_order_3x2, behaviors).to_json()
        assert doc["utilitarian"] == 25
        assert doc["agents"][2] == {"agent": 3, "behavior": "pess", "bound": 7}


class TestClosedForms:
    def test_sd_utilitarian_small_values(self):
        assert cd.sd_optimistic_utilitarian(2, 2) == 5
        assert cd.sd_optimistic_utilitarian(3, 2) == 16

    def test_sd_utilitarian_equals_report_sum(self):
        for n in (2, 3, 4):
            for p in (1, 2, 3):
                order = cd.serial_dictatorship_order(list(range(1, n + 1)), p)
                report = cd.worst_case_report(order, [cd.OPTIMISTIC] * n)
                assert report.utilitarian == cd.sd_optimistic_utilitarian(n, p)

    def test_all_optimistic_witness_serial(self):
        an = cd.serial_dictatorship_order([1, 2, 3], 2).analytics
        assert cd.all_optimistic_witness(an) == 3
        assert cd.optimistic_bound(an, 3) == 9

    @settings(max_examples=100)
    @given(order_strategy())
    def test_all_optimistic_witness_exists(self, order):
        an = order.analytics
        j = cd.all_optimistic_witness(an)
        assert cd.optimistic_bound(an, j) == order.shape.bundle_count


def exhaustive_best_order(n, p, behaviors, objective):
    """Unpruned reference: score every permutation of the rounds."""
    shape = cd.DomainShape(n, p)
    pairs = [(j, i) for j in shape.agents() for i in shape.categories()]
    best = None
    for rounds in itertools.permutations(pairs):
        order = cd.PickingOrder(shape, rounds)
        report = cd.worst_case_report(order, behaviors)
        score = report.utilitarian if objective == "utilitarian" else report.egalitarian
        if best is None or score < best[0] or (score == best[0] and rounds < best[1]):
            best = (score, rounds)
    return best


class TestSearch:
    @pytest.mark.parametrize("objective", ["utilitarian", "egalitarian"])
    def test_exhaustive_matches_reference(self, objective):
        behaviors = [cd.OPTIMISTIC, cd.PESSIMISTIC]
        result = cd.search_orders(2, 2, behaviors, objective=objective)
        score, _ = exhaustive_best_order(2, 2, behaviors, objective)
        assert result.score == score
        # pruning keeps only relabeling representatives, so the returned
        # order must tie the reference and be a valid instance of the score
        report = cd.worst_case_report(result.order, behaviors)
        objective_value = (
            report.utilitarian if objective == "utilitarian" else report.egalitarian
        )
        assert objective_value == score

    def test_pruned_exhaustive_lex_smallest_uniform(self):
        # with a uniform behavior class the representative orders cover every
        # score, and ties resolve to the lexicographically smallest rounds
        behaviors = [cd.PESSIMISTIC, cd.PESSIMISTIC]
        result = cd.search_orders(2, 2, behaviors, objective="egalitarian")
        score, rounds = exhaustive_best_order(2, 2, behaviors, "egalitarian")
        assert result.score == score
        assert result.order.rounds == rounds

    def test_budget_refusal(self):
        with pytest.raises(cd.CapacityError):
            cd.search_orders(3, 3, [cd.OPTIMISTIC] * 3, budget=100)

    def test_refusal_never_forms_the_factorial(self):
        # (1 * 3000)! has over 9000 digits, more than int formatting allows
        with pytest.raises(cd.CapacityError, match="more than 200000 orders"):
            cd.search_orders(1, 3000, [cd.OPTIMISTIC])

    def test_budget_threshold_is_the_order_count(self):
        # 2x2 has 4! = 24 orders: a budget of 24 runs, 23 refuses
        assert cd.search_orders(2, 2, [cd.OPTIMISTIC] * 2, budget=24).evaluated > 0
        with pytest.raises(cd.CapacityError, match="more than 23 orders"):
            cd.search_orders(2, 2, [cd.OPTIMISTIC] * 2, budget=23)

    def test_random_mode_seeded(self):
        behaviors = [cd.OPTIMISTIC] * 3
        a = cd.search_orders(3, 2, behaviors, mode="random", seed=11, budget=300)
        b = cd.search_orders(3, 2, behaviors, mode="random", seed=11, budget=300)
        assert a.order.rounds == b.order.rounds
        assert a.score == b.score
        assert a.evaluated == 300

    def test_unknown_mode_rejected(self):
        with pytest.raises(cd.ValidationError):
            cd.search_orders(2, 2, [cd.OPTIMISTIC] * 2, mode="simulated-annealing")

    @pytest.mark.parametrize("budget", [0, -1])
    def test_random_mode_needs_a_draw(self, budget):
        with pytest.raises(cd.ValidationError):
            cd.search_orders(2, 2, [cd.OPTIMISTIC] * 2, mode="random", budget=budget)

    @pytest.mark.parametrize("budget", [0, -1, 24.0])
    def test_exhaustive_budget_below_one_is_bad_input(self, budget):
        with pytest.raises(cd.ValidationError, match="budget of at least 1 order"):
            cd.search_orders(2, 2, [cd.OPTIMISTIC] * 2, budget=budget)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
    def test_random_mode_rejects_bad_seed(self, seed):
        with pytest.raises(cd.ValidationError, match="seed must be a non-negative integer"):
            cd.search_orders(2, 2, [cd.OPTIMISTIC] * 2, mode="random", seed=seed, budget=5)


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestGoldenSearch:
    """Search results (best rounds, score, ``evaluated``) pinned by digest.

    A change to any digest here is a change to the enumeration order, the
    tie-break, the random order stream or the scoring, and is recorded in
    CHANGES.md."""

    EXHAUSTIVE = {
        (2, 2, "opt", "utilitarian"): (
            5, 12, "ab226e00cc7a72eb5706205563a2430bfb37e6fd33a8e8e06b6224cef79b3bb6",
        ),
        (2, 2, "opt", "egalitarian"): (
            4, 12, "dcef4b25035d124211435f2b85b2eae3673b977e4a0da4f7315b14be0b7333a5",
        ),
        (2, 2, "pess", "utilitarian"): (
            6, 12, "8e20ea3a8e610a38985e2d9d551a73061c9b54925786eb89a0d8bfcded8f52f3",
        ),
        (2, 2, "pess", "egalitarian"): (
            3, 12, "912bea139cabdf5414274e4d0d1aafea3e211e68895f5fb846093644dd074cc0",
        ),
        (2, 3, "opt", "utilitarian"): (
            9, 360, "c370eb853acba3bb030aa00a10cef5a4c8fb680c9f6aa38c9e81ce3f04486d2f",
        ),
        (2, 3, "opt", "egalitarian"): (
            8, 360, "2a5d4fab2206df2b0ef8cd71eccb73bfb01b9ba5022bb8b411d0f83bdaadf3c6",
        ),
        (2, 3, "pess", "utilitarian"): (
            13, 360, "1475f74acdb0bb0245e80d206f47444ea30ac8799a479329e35f9bd61147b458",
        ),
        (2, 3, "pess", "egalitarian"): (
            7, 360, "13b0e34b0df032dd41560025c150bf8bdb988d23c72bcc339a39eb62622e3bfa",
        ),
    }
    RANDOM_3X3 = {
        0: "3e3f2bc216b628791ffc8cc7340a29e89fbfdf561624a8b0e99cdf26c34d03b1",
        1: "4877bfb8b2d751705eb443388c5f4c8bfbec15a96b6002a6a472a48cc9e70b86",
        2: "c6c5180657d44a1b2a6a4c2bc1fcd1091c8207fc470b75362638d1ab621bae96",
        3: "c2c15a6c0c1c462e2777886145485c4481b7a11131e78a60e9cb2ec088904d8c",
    }

    @staticmethod
    def _doc(result):
        return [[list(r) for r in result.order.rounds], result.score, result.evaluated]

    @pytest.mark.parametrize("case", sorted(EXHAUSTIVE))
    def test_exhaustive_pinned(self, case):
        n, p, behavior, objective = case
        score, evaluated, digest = self.EXHAUSTIVE[case]
        behaviors = [cd.OPTIMISTIC if behavior == "opt" else cd.PESSIMISTIC] * n
        result = cd.search_orders(n, p, behaviors, objective=objective)
        assert (result.score, result.evaluated) == (score, evaluated)
        assert _digest(self._doc(result)) == digest

    @pytest.mark.parametrize("seed", sorted(RANDOM_3X3))
    def test_random_pinned(self, seed):
        behaviors = [cd.OPTIMISTIC, cd.OPTIMISTIC, cd.PESSIMISTIC]
        result = cd.search_orders(3, 3, behaviors, mode="random", seed=seed, budget=300)
        assert (result.score, result.evaluated) == (25, 300)
        assert _digest(self._doc(result)) == self.RANDOM_3X3[seed]


class TestInterrupterAudit:
    def test_small_audit_fields(self):
        audit = cd.audit_interrupter_order(2, 2)
        assert audit.order.rounds == ((1, 1), (2, 1), (2, 2), (1, 2))
        assert audit.witness_checked
        # candidates: n**p + 1 - (1 + n*p/2) = 2 and n**p + 1 - 2**p = 1
        assert audit.candidate_majority == 2
        assert audit.candidate_interrupter == 1

    def test_audit_json(self):
        doc = cd.audit_interrupter_order(2, 2).to_json()
        assert doc["witness_checked"] is True
        assert "verified" in doc
