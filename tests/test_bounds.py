import hashlib
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import catdom as cd
from catdom.bounds import _block_bounds, _canonical_rows, _permutation_blocks

from test_orders import (
    SHAPES_UP_TO_12,
    order_strategy,
    reference_analyze_order,
    seeded_order,
)


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

    @pytest.mark.parametrize("bound", [cd.optimistic_bound, cd.pessimistic_bound,
                                       cd.strategic_bound])
    @pytest.mark.parametrize("agent", [0, 4])
    def test_bounds_reject_bad_agent(self, mixed_order_3x2, bound, agent):
        with pytest.raises(cd.ValidationError, match=rf"agent.*\b{agent}\b"):
            bound(mixed_order_3x2.analytics, agent)

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

    @pytest.mark.parametrize("agent", [0, -1, 4, True, 1.5])
    def test_bound_takes_plain_agents_only(self, mixed_order_3x2, agent):
        # 0 and -1 would index the entries from the end
        report = cd.worst_case_report(mixed_order_3x2, [cd.OPTIMISTIC] * 3)
        with pytest.raises(cd.ValidationError, match=f"agent {agent!r} outside 1..3"):
            report.bound(agent)

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


def oracle_bounds(order, behaviors):
    """Per-agent worst-case ranks by the closed forms over
    ``reference_analyze_order``: per-order scoring as ``worst_case_report``
    and ``search_orders`` did it before they read one order pass."""
    return _closed_forms(reference_analyze_order(order), behaviors)


def _closed_forms(an, behaviors):
    shape = an.shape
    top = shape.bundle_count
    bounds = []
    for j, b in enumerate(behaviors, 1):
        if isinstance(b, cd.Optimistic):
            sub = an.suborder(j)
            start = an.uninterrupted_index(j)
            tail = math.prod(an.slack(j, sub[l - 1]) for l in range(start, shape.p + 1))
            bounds.append(top + 1 - tail)
        else:
            bounds.append(top - sum(an.slack(j, i) - 1 for i in shape.categories()))
    return bounds


def oracle_table(n, p):
    """Every order of an n x p shape, in lexicographic order, with each
    agent's optimistic and pessimistic oracle bound."""
    shape = cd.DomainShape(n, p)
    pairs = [(j, i) for j in shape.agents() for i in shape.categories()]
    table = []
    for rounds in itertools.permutations(pairs):
        an = reference_analyze_order(cd.PickingOrder(shape, rounds))
        table.append((rounds, _closed_forms(an, [cd.OPTIMISTIC] * n),
                      _closed_forms(an, [cd.PESSIMISTIC] * n)))
    return table


def _objective(bounds, objective):
    return sum(bounds) if objective == "utilitarian" else max(bounds)


def best_in_table(table, behaviors, objective):
    """Lowest (score, rounds) over every order of an ``oracle_table``."""
    optimists = [isinstance(b, cd.Optimistic) for b in behaviors]
    best = None
    for rounds, opt, pess in table:
        bounds = [o if flag else q for flag, o, q in zip(optimists, opt, pess)]
        candidate = (_objective(bounds, objective), rounds)
        if best is None or candidate < best:
            best = candidate
    return best


def exhaustive_best_order(n, p, behaviors, objective):
    """Unpruned reference: score every permutation of the rounds."""
    return best_in_table(oracle_table(n, p), behaviors, objective)


def random_search_oracle(n, p, behaviors, objective, seed, budget):
    """Random search scoring one ``PickingOrder`` per draw by the oracle,
    drawing each permutation of a list argument, as it did before."""
    shape = cd.DomainShape(n, p)
    pairs = [(j, i) for j in shape.agents() for i in shape.categories()]
    rng = np.random.default_rng(seed)
    arr = list(range(len(pairs)))
    best = None
    for _ in range(budget):
        rounds = tuple(pairs[i] for i in rng.permutation(arr))
        order = cd.PickingOrder(shape, rounds)
        candidate = (_objective(oracle_bounds(order, behaviors), objective), rounds)
        if best is None or candidate < best:
            best = candidate
    return best


def _canonical_under_relabeling(rounds, class_of) -> bool:
    """Whether the agents of each behavior class first appear in ascending
    label order: the per-order filter exhaustive search ran before
    ``bounds._canonical_rows``. That representative is lex-minimal in its
    orbit (the orders are complete, so every label of each class appears)."""
    seen: dict[int, list[int]] = {}
    for j, _ in rounds:
        cls = class_of[j]
        bucket = seen.setdefault(cls, [])
        if j not in bucket:
            if bucket and bucket[-1] > j:
                return False
            bucket.append(j)
    return True


def _mixes(n):
    return [list(mix) for mix in itertools.product([cd.OPTIMISTIC, cd.PESSIMISTIC], repeat=n)]


def _named_mixes(n):
    """All optimistic, all pessimistic, and alternating from an optimist."""
    alternating = [cd.OPTIMISTIC if j % 2 else cd.PESSIMISTIC for j in range(1, n + 1)]
    return [[cd.OPTIMISTIC] * n, [cd.PESSIMISTIC] * n, alternating]


class TestKernelOracle:
    """The order kernel against the dict-based analytics, the O(p**2)
    uninterrupted-index loop and the per-order scoring it replaced."""

    @pytest.mark.parametrize("n, p", SHAPES_UP_TO_12 + [(2, 16), (1, 40)])
    def test_report_matches_oracle(self, n, p):
        for seed in range(5):
            order = seeded_order(n, p, seed)
            an = cd.analyze_order(order)
            opt = oracle_bounds(order, [cd.OPTIMISTIC] * n)
            pess = oracle_bounds(order, [cd.PESSIMISTIC] * n)
            assert [cd.optimistic_bound(an, j) for j in order.shape.agents()] == opt
            assert [cd.pessimistic_bound(an, j) for j in order.shape.agents()] == pess
            for mix in _mixes(n):
                report = cd.worst_case_report(order, mix)
                want = [o if b is cd.OPTIMISTIC else q for b, o, q in zip(mix, opt, pess)]
                assert [e.bound for e in report.entries] == want
                assert [e.agent for e in report.entries] == list(order.shape.agents())
                assert [e.behavior for e in report.entries] == [
                    "opt" if b is cd.OPTIMISTIC else "pess" for b in mix
                ]
                assert (report.utilitarian, report.egalitarian) == (sum(want), max(want))

    @pytest.mark.parametrize(
        "n, p", [(n, p) for n in range(1, 7) for p in range(1, 6 // n + 1)] + [(4, 2), (2, 4)]
    )
    def test_exhaustive_matches_unpruned_oracle(self, n, p):
        table = oracle_table(n, p)
        for mix in _mixes(n) if n * p <= 6 else _named_mixes(n):
            # relabeling within a behavior class acts freely on orders
            classes = math.prod(math.factorial(mix.count(b)) for b in set(mix))
            for objective in ("utilitarian", "egalitarian"):
                result = cd.search_orders(n, p, mix, objective=objective)
                assert (result.score, result.order.rounds) == best_in_table(table, mix, objective)
                assert result.evaluated == math.factorial(n * p) // classes

    @pytest.mark.parametrize("n, p", [(1, 4), (2, 3), (3, 2), (3, 3), (4, 1), (4, 3)])
    def test_random_matches_oracle(self, n, p):
        for mix in _named_mixes(n):
            for objective in ("utilitarian", "egalitarian"):
                for seed in range(3):
                    result = cd.search_orders(
                        n, p, mix, objective=objective, mode="random", seed=seed, budget=150
                    )
                    want = random_search_oracle(n, p, mix, objective, seed, 150)
                    assert (result.score, result.order.rounds) == want
                    assert result.evaluated == 150


def _rows(orders):
    """Orders as ``bounds._block_bounds`` rows of pair indices."""
    return np.array(
        [[(j - 1) * order.shape.p + i - 1 for j, i in order.rounds] for order in orders]
    )


class TestBlockScorer:
    """The block scorer, the vectorised relabeling filter and the block loop
    against the oracle bounds, the per-order filter and the per-draw oracle
    search."""

    @pytest.mark.parametrize("n, p", SHAPES_UP_TO_12 + [(2, 16), (12, 1), (1, 40)])
    def test_block_bounds_match_order_pass(self, n, p):
        orders = [seeded_order(n, p, seed) for seed in range(5)]
        for mix in _named_mixes(n):
            optimists = [b is cd.OPTIMISTIC for b in mix]
            got = _block_bounds(n, p, _rows(orders), optimists)
            assert got.tolist() == [oracle_bounds(order, mix) for order in orders]

    @pytest.mark.parametrize("size", range(1, 8))
    def test_permutation_blocks_are_every_permutation_in_order(self, size):
        want = list(itertools.permutations(range(size)))
        for per_block in (1, 2, 5, 6, 24, 10**6):
            blocks = list(_permutation_blocks(size, per_block))
            assert all(len(block) <= per_block for block in blocks)
            assert [tuple(row) for block in blocks for row in block.tolist()] == want

    @pytest.mark.parametrize("n, p", [(n, p) for n in range(1, 8) for p in range(1, 7 // n + 1)])
    def test_canonical_rows_match_per_order_filter(self, n, p):
        shape = cd.DomainShape(n, p)
        pairs = [(j, i) for j in shape.agents() for i in shape.categories()]
        rows = np.array(list(itertools.permutations(range(n * p))))
        for mix in _mixes(n) if n < 5 else _named_mixes(n):
            optimists = [b is cd.OPTIMISTIC for b in mix]
            class_of = dict(enumerate(optimists, 1))
            want = [
                list(row) for row in rows
                if _canonical_under_relabeling([pairs[k] for k in row], class_of)
            ]
            assert _canonical_rows(rows, p, optimists).tolist() == want

    @pytest.mark.parametrize("n, p", [(2, 3), (3, 2), (3, 3), (1, 5)])
    def test_small_blocks_match_oracle(self, monkeypatch, n, p):
        # 5 to 9 orders a block: budgets span several blocks and end in a
        # ragged one, and exhaustive ties cross block edges
        monkeypatch.setattr("catdom.bounds._BLOCK", 45)
        table = oracle_table(n, p) if n * p <= 6 else None
        for mix in _named_mixes(n):
            for objective in ("utilitarian", "egalitarian"):
                for seed, budget in ((0, 23), (1, 1), (2, 31)):
                    result = cd.search_orders(
                        n, p, mix, objective=objective, mode="random", seed=seed, budget=budget
                    )
                    want = random_search_oracle(n, p, mix, objective, seed, budget)
                    assert (result.score, result.order.rounds, result.evaluated) == (*want, budget)
                if table is not None:
                    result = cd.search_orders(n, p, mix, objective=objective)
                    assert (result.score, result.order.rounds) == best_in_table(table, mix, objective)

    @pytest.mark.parametrize("n, p, budget", [(1, 3000, 50), (3, 3, 200_000)])
    def test_search_memory_is_bounded(self, n, p, budget):
        # a (B, n*p, p) one-hot at 1x3000, or one block of a 200,000-order
        # budget at 3x3, would be well over 100 MiB; the blocks peak near 10
        tracemalloc.start()
        try:
            cd.search_orders(n, p, [cd.OPTIMISTIC] * n, mode="random", seed=0, budget=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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

    def test_random_mode_needs_a_seed(self):
        # an unseeded draw could not be reproduced; exhaustive mode reads no seed
        with pytest.raises(cd.ValidationError, match="random search needs an explicit seed"):
            cd.search_orders(3, 3, [cd.OPTIMISTIC] * 3, mode="random", budget=20)
        assert cd.search_orders(2, 2, [cd.OPTIMISTIC] * 2, seed=None).evaluated > 0

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

    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            ({}, cd.ValidationError, "scripted agents have no order-level worst-case guarantee"),
            ({"mode": "random", "seed": 1, "budget": 3}, cd.ValidationError, "scripted agents"),
            ({"objective": "fair"}, cd.ValidationError, "unknown objective 'fair'"),
            ({"mode": "annealing"}, cd.ValidationError, "unknown search mode 'annealing'"),
            ({"budget": 0}, cd.ValidationError, "exhaustive search needs a budget"),
            ({"budget": 23}, cd.ValidationError, "scripted agents"),
            ({"mode": "random", "seed": -1}, cd.ValidationError, "seed must be"),
        ],
    )
    def test_behaviors_checked_last(self, kwargs, error, message):
        # every other input check comes first, as when the first candidate's
        # report rejected the behaviors; the capacity refusal comes after, so
        # bad input is bad input at every shape
        behaviors = [cd.Scripted((1, 1)), cd.OPTIMISTIC]
        with pytest.raises(error, match=message):
            cd.search_orders(2, 2, behaviors, **kwargs)

    @pytest.mark.parametrize(
        "behaviors, message",
        [
            ([object(), cd.Scripted((1, 1))], "agent 1 has unknown behavior"),
            ([cd.OPTIMISTIC, "opt"], "agent 2 has unknown behavior 'opt'"),
            ([cd.PESSIMISTIC, cd.Scripted((1, 1))], "scripted agents"),
            ([cd.Scripted((1, 1))], "1 behaviors given, expected 2"),
        ],
    )
    def test_first_bad_behavior_named(self, behaviors, message):
        order = cd.serial_dictatorship_order([1, 2], 2)
        for call in (
            lambda: cd.search_orders(2, 2, behaviors),
            lambda: cd.search_orders(2, 2, behaviors, mode="random", seed=0, budget=2),
            lambda: cd.worst_case_report(order, behaviors),
        ):
            with pytest.raises(cd.ValidationError, match=message):
                call()

    @staticmethod
    def entry_points(behaviors):
        """Every library call that takes a 2x2 behavior list: the engine's
        play and each bounds entry point built on it."""
        order = cd.serial_dictatorship_order([1, 2], 2)
        pref = cd.Preference.from_indices(order.shape, range(4))
        profile = cd.Profile(order.shape, [pref, pref])
        return {
            "run_csam": lambda: cd.run_csam(order, profile, behaviors),
            "worst_case_report": lambda: cd.worst_case_report(order, behaviors),
            "worst_case_profile": lambda: cd.worst_case_profile(order, behaviors),
            "exhaustive": lambda: cd.search_orders(2, 2, behaviors),
            "random": lambda: cd.search_orders(2, 2, behaviors, mode="random", seed=0, budget=2),
        }

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_one_count_message_everywhere(self, count):
        # run_csam said "expected one per agent (2)"; bounds had its own copy
        message = f"{count} behaviors given, expected 2"
        for call in self.entry_points([cd.OPTIMISTIC] * count).values():
            with pytest.raises(cd.ValidationError, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.parametrize(
        "behaviors, message",
        [
            ([cd.Scripted((1,)), cd.OPTIMISTIC], "agent 1 script lists 1 picks, expected 2"),
            (
                [cd.Scripted((1.5, 1)), cd.OPTIMISTIC],
                "agent 1 script picks (1.5, 1) are not all integers",
            ),
            ([cd.OPTIMISTIC, cd.Scripted((1, 2, 1))], "agent 2 script lists 3 picks, expected 2"),
            # a bad behavior after a well-formed script is named before the refusal
            ([cd.Scripted((1, 1)), "pess"], "agent 2 has unknown behavior 'pess'"),
        ],
    )
    def test_engine_check_comes_before_the_scripted_refusal(self, behaviors, message):
        # bounds used to refuse any script as scripted, malformed or not
        for call in self.entry_points(behaviors).values():
            with pytest.raises(cd.ValidationError, match=f"^{re.escape(message)}$"):
                call()

    def test_well_formed_script_refused_by_bounds_only(self):
        calls = self.entry_points([cd.Scripted((1, 1)), cd.OPTIMISTIC])
        calls.pop("run_csam")()  # a well-formed script plays
        for call in calls.values():
            with pytest.raises(cd.ValidationError, match="^scripted agents have no order-level"):
                call()


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
    # mixed behavior classes: the relabeling filter keeps whole classes apart
    EXHAUSTIVE_MIXED = {
        (2, 3, "opt,pess", "utilitarian"): (
            9, 720, "f5849aa8d994c375ec3fb048f8aa577b9078b13e6d7914f544c51e411db14060",
        ),
        (2, 3, "opt,pess", "egalitarian"): (
            7, 720, "3cd8259bef6877a520d08f732387870cb826c7722d6f52e57cdc6b5b7c8a4d61",
        ),
        (3, 2, "opt,opt,pess", "utilitarian"): (
            16, 360, "1c33a65f69b9c1e1954403dc742bc3dadb84787c3e526f5d5cb51465435b663c",
        ),
        (3, 2, "opt,opt,pess", "egalitarian"): (
            8, 360, "d907cf979e41654cfed007716b4c036e0a47ea7a8e09e57fc890f4daf88e8549",
        ),
    }
    # random 3x3 opt,opt,pess at a budget of 1000 orders
    RANDOM_MIXED = {
        ("utilitarian", 0): (48, "b88d96acb6f4165d21eeeb6d1538d262bdefa07bba33459d809d3089d52901cd"),
        ("utilitarian", 1): (48, "96e240a60a33b7bc183321c68b741afa5a63f47c6b308625c3b7f5e4bda411fb"),
        ("utilitarian", 2): (48, "aa5a3c7235b33d5e8c730764463c852f844745bfb4e577b5c28f7ed34c99b5fd"),
        ("utilitarian", 3): (48, "17aaf4e1faece5e39926ab5a2baef0abbe0bd382010d6d8947b2a81ef55bae79"),
        ("egalitarian", 0): (25, "f8ac5767637031b1c4929beaf94e5be516c099b463f725dc895f437de3cd872f"),
        ("egalitarian", 1): (25, "f970b70258e40ef6eaaf8e9a38b5a3460ec97737dee73967848d8a70d4d1b320"),
        ("egalitarian", 2): (25, "2a5e0533a9092a15c97dfe26017b3e3d7fe157ff30c4dcc097fdc96511da037d"),
        ("egalitarian", 3): (25, "d00741ac45e4da7f172d4cc8ae830295617303e2a748816a6b195aa72cb73b2a"),
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

    @pytest.mark.parametrize("case", sorted(EXHAUSTIVE_MIXED))
    def test_exhaustive_mixed_pinned(self, case):
        n, p, mix, objective = case
        score, evaluated, digest = self.EXHAUSTIVE_MIXED[case]
        behaviors = [cd.OPTIMISTIC if b == "opt" else cd.PESSIMISTIC for b in mix.split(",")]
        result = cd.search_orders(n, p, behaviors, objective=objective)
        assert (result.score, result.evaluated) == (score, evaluated)
        assert _digest(self._doc(result)) == digest

    @pytest.mark.parametrize("case", sorted(RANDOM_MIXED))
    def test_random_mixed_pinned(self, case):
        objective, seed = case
        score, digest = self.RANDOM_MIXED[case]
        behaviors = [cd.OPTIMISTIC, cd.OPTIMISTIC, cd.PESSIMISTIC]
        result = cd.search_orders(
            3, 3, behaviors, objective=objective, mode="random", seed=seed, budget=1000
        )
        assert (result.score, result.evaluated) == (score, 1000)
        assert _digest(self._doc(result)) == digest


class TestInterrupterAudit:
    """The interrupter order with agents 1..n-1 optimistic and agent n
    pessimistic, against two closed forms sometimes conjectured for it:
    ``n**p + 1 - (1 + n*p/2)`` for the majority and ``n**p + 1 - 2**p`` for
    the interrupter."""

    def test_small_audit_fields(self):
        order = cd.interrupter_order(2, 2)
        assert order.rounds == ((1, 1), (2, 1), (2, 2), (1, 2))
        behaviors = [cd.OPTIMISTIC, cd.PESSIMISTIC]
        report = cd.worst_case_report(order, behaviors)
        # raises ConstructionError unless its replay puts every agent on her bound
        cd.worst_case_profile(order, behaviors)
        assert [e.bound for e in report.entries] == [4, 3]
        n, p = 2, 2
        assert (n**p + 1 - (1 + n * p // 2), n**p + 1 - 2**p) == (2, 1)
