"""End-to-end acceptance checks: one test per numbered requirement, each
printing a single summary line. Frozen expected values come from hand
derivations and from the brute-force oracles in the sibling test modules;
timing ceilings are asserted directly."""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

import catdom as cd
from catdom.axioms import (
    Exhaustive,
    Sampled,
    apply_category_permutation,
    bossy_conditional_sd,
    check_all,
    check_category_wise_neutrality,
    check_non_bossiness,
    check_pareto_optimality,
    check_strategy_proofness,
    non_neutral_conditional_sd,
    sd_direct,
    welfare_maximizer,
    worst_pick_sd,
)
from catdom.mallows import ExperimentConfig, run_experiment

from conftest import (
    GAME_ORDER_2X2_ROUNDS,
    GAME_PROFILE_2X2_ROWS,
    MIXED_BEHAVIORS_3X2,
    MIXED_ORDER_3X2_ROUNDS,
    PROFILE_3X2_ROWS,
    SHAPE_2X2,
    SHAPE_3X2,
    WELFARE_PROFILE_2X2_ROWS,
    mallows_pmf,
    profile_of,
)


def note(line):
    print(f"\n[acceptance] {line}")


def all_orders(shape):
    pairs = [(j, i) for j in shape.agents() for i in shape.categories()]
    for rounds in itertools.permutations(pairs):
        yield cd.PickingOrder(shape, rounds)


def all_profiles(shape):
    bundles = list(shape.bundles())
    rankings = [cd.Preference(shape, perm) for perm in itertools.permutations(bundles)]
    for combo in itertools.product(rankings, repeat=shape.n):
        yield cd.Profile(shape, list(combo))


def test_c01_serial_dictatorship_regression():
    profile = profile_of(SHAPE_3X2, PROFILE_3X2_ROWS)
    order = cd.serial_dictatorship_order([1, 2, 3], 2)
    behaviors = [cd.OPTIMISTIC] * 3

    alloc, trace = cd.run_csam(order, profile, behaviors)
    assert dict(alloc.bundles) == {1: (1, 2), 2: (2, 1), 3: (3, 3)}
    assert cd.utilitarian_rank(profile, alloc) == 11
    assert cd.egalitarian_rank(profile, alloc) == 7
    assert trace.message_count == 21
    direct = cd.direct_serial_dictatorship([1, 2, 3], profile)
    assert dict(direct.bundles) == dict(alloc.bundles)

    timings = []
    for _ in range(10):
        start = time.perf_counter()
        cd.run_csam(order, profile, behaviors)
        timings.append(time.perf_counter() - start)
    fastest = min(timings)
    assert fastest < 0.001
    note(f"c01 serial dictatorship regression: allocation 12/21/33, {fastest * 1e6:.0f} us/run")


def test_c02_mixed_behavior_trace_regression():
    profile = profile_of(SHAPE_3X2, PROFILE_3X2_ROWS)
    order = cd.PickingOrder(SHAPE_3X2, MIXED_ORDER_3X2_ROUNDS)
    alloc, trace = cd.run_csam(order, profile, MIXED_BEHAVIORS_3X2)
    assert dict(alloc.bundles) == {1: (1, 1), 2: (2, 2), 3: (3, 3)}
    round3 = trace.rounds[2]
    assert (round3.agent, round3.category, round3.item) == (3, 1, 3)
    assert round3.comparison == {2: (2, 3), 3: (3, 1)}
    note("c02 mixed-behavior regression: allocation 11/22/33, round-3 comparison 2->23 3->31")


def test_c03_order_analytics_regression():
    sd = cd.serial_dictatorship_order([1, 2, 3], 3)
    an = sd.analytics
    for j in (1, 2, 3):
        assert an.suborder(j) == (1, 2, 3)
        assert an.uninterrupted_index(j) == 1
        for i in (1, 2, 3):
            assert an.slack(j, i) == {1: 3, 2: 2, 3: 1}[j]

    mixed = cd.PickingOrder(SHAPE_3X2, MIXED_ORDER_3X2_ROUNDS)
    man = mixed.analytics
    assert man.suborder(1) == (1, 2)
    assert (man.slack(1, 1), man.slack(1, 2)) == (3, 1)
    assert man.uninterrupted_index(1) == 2
    assert man.suborder(2) == (2, 1)
    assert (man.slack(2, 1), man.slack(2, 2)) == (1, 3)
    assert man.uninterrupted_index(2) == 2
    assert man.suborder(3) == (1, 2)
    assert (man.slack(3, 1), man.slack(3, 2)) == (2, 2)
    assert man.uninterrupted_index(3) == 1
    note("c03 order analytics regression: both pinned orders reproduce all values")


def test_c04_equilibrium_regression():
    profile = profile_of(SHAPE_2X2, GAME_PROFILE_2X2_ROWS)
    order = cd.PickingOrder(SHAPE_2X2, GAME_ORDER_2X2_ROUNDS)
    alloc, _ = cd.solve_spne(order, profile)
    assert dict(alloc.bundles) == {1: (1, 1), 2: (2, 2)}
    an = order.analytics
    for j in (1, 2):
        assert profile.pref(j).rank_of(alloc[j]) == 3
        assert cd.strategic_bound(an, j) == 3
    note("c04 equilibrium regression: allocation 11/22 at ranks 3/3 = strategic bounds")


def test_c05_bound_soundness_exhaustive():
    start = time.perf_counter()
    mixes = [
        (cd.OPTIMISTIC, cd.OPTIMISTIC),
        (cd.OPTIMISTIC, cd.PESSIMISTIC),
        (cd.PESSIMISTIC, cd.OPTIMISTIC),
        (cd.PESSIMISTIC, cd.PESSIMISTIC),
    ]
    runs = 0
    for order in all_orders(SHAPE_2X2):
        reports = [cd.worst_case_report(order, mix) for mix in mixes]
        for profile in all_profiles(SHAPE_2X2):
            for mix, report in zip(mixes, reports):
                alloc, _ = cd.run_csam(order, profile, mix)
                runs += 1
                for j in (1, 2):
                    assert profile.pref(j).rank_of(alloc[j]) <= report.bound(j)
    elapsed = time.perf_counter() - start
    assert runs == 24 * 576 * 4 == 55_296
    assert elapsed < 60.0
    note(f"c05 bound soundness: {runs} exhaustive runs, zero violations, {elapsed:.1f}s")


def test_c06_tight_witnesses_random():
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    checked = 0
    while checked < 220:
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 4))
        shape = cd.DomainShape(n, p)
        pairs = [(j, i) for j in shape.agents() for i in shape.categories()]
        rounds = tuple(pairs[k] for k in rng.permutation(len(pairs)))
        order = cd.PickingOrder(shape, rounds)
        behaviors = [
            cd.OPTIMISTIC if rng.integers(2) else cd.PESSIMISTIC for _ in range(n)
        ]
        profile = cd.worst_case_profile(order, behaviors)
        report = cd.worst_case_report(order, behaviors)
        alloc, _ = cd.run_csam(order, profile, behaviors)
        for j in shape.agents():
            assert profile.pref(j).rank_of(alloc[j]) == report.bound(j)
        near = cd.near_optimal_allocation(order, profile)
        assert cd.validate_allocation(shape, near).ok
        ranks = sorted(profile.pref(j).rank_of(near[j]) for j in shape.agents())
        assert ranks[: n - 1] == [1] * (n - 1)
        assert ranks[-1] <= 2
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    note(f"c06 tight witnesses: {checked} random instances, all bounds met exactly, {elapsed:.1f}s")


def test_c07_sd_utilitarian_closed_form():
    order = cd.serial_dictatorship_order([1, 2], 2)
    worst = 0
    for profile in all_profiles(SHAPE_2X2):
        alloc, _ = cd.run_csam(order, profile, [cd.OPTIMISTIC] * 2)
        worst = max(worst, cd.utilitarian_rank(profile, alloc))
    assert worst == cd.sd_optimistic_utilitarian(2, 2) == 5

    # no picking order beats the serial dictatorship on worst-case utilitarian
    # rank when everyone is optimistic
    best_over_orders = None
    for other in all_orders(SHAPE_2X2):
        other_worst = 0
        for profile in all_profiles(SHAPE_2X2):
            alloc, _ = cd.run_csam(other, profile, [cd.OPTIMISTIC] * 2)
            other_worst = max(other_worst, cd.utilitarian_rank(profile, alloc))
        if best_over_orders is None or other_worst < best_over_orders:
            best_over_orders = other_worst
    assert best_over_orders == 5

    report = cd.worst_case_report(
        cd.serial_dictatorship_order([1, 2, 3], 2), [cd.OPTIMISTIC] * 3
    )
    assert report.utilitarian == cd.sd_optimistic_utilitarian(3, 2) == 16
    note("c07 serial-dictatorship utilitarian form: 5 at 2x2 (optimal across orders), 16 at 3x2")


def test_c08_all_optimistic_egalitarian_is_worst():
    start = time.perf_counter()
    shapes = [
        (n, p)
        for n in range(1, 9)
        for p in range(1, 9)
        if n * p <= 8
    ]
    orders_seen = 0
    spot_checked = 0
    for n, p in shapes:
        shape = cd.DomainShape(n, p)
        top = shape.bundle_count
        behaviors = [cd.OPTIMISTIC] * n
        for order in all_orders(shape):
            an = order.analytics
            witness = cd.all_optimistic_witness(an)
            assert cd.optimistic_bound(an, witness) == top
            orders_seen += 1
            if orders_seen % 509 == 0:
                profile = cd.worst_case_profile(order, behaviors)
                alloc, _ = cd.run_csam(order, profile, behaviors)
                assert max(
                    profile.pref(j).rank_of(alloc[j]) for j in shape.agents()
                ) == top
                spot_checked += 1
    elapsed = time.perf_counter() - start
    assert orders_seen == sum(math.factorial(n * p) for n, p in shapes)
    note(
        f"c08 all-optimistic egalitarian: witness agent in all {orders_seen} orders, "
        f"{spot_checked} attainment spot checks, {elapsed:.1f}s"
    )


def test_c09_balanced_pessimistic_egalitarian():
    for n in (2, 3, 4):
        for p in (2, 4):
            order = cd.balanced_order(list(range(1, n + 1)), p)
            report = cd.worst_case_report(order, [cd.PESSIMISTIC] * n)
            assert report.egalitarian == n**p - (n - 1) * p // 2

    result = cd.search_orders(3, 2, [cd.PESSIMISTIC] * 3, objective="egalitarian")
    assert result.score == 7
    note("c09 balanced pessimistic egalitarian: formula holds on grid, exhaustive optimum 7 at 3x2")


def test_c10_strategic_bounds():
    start = time.perf_counter()
    profiles = list(all_profiles(SHAPE_2X2))
    for order in all_orders(SHAPE_2X2):
        an = order.analytics
        bounds = {j: cd.strategic_bound(an, j) for j in (1, 2)}
        for profile in profiles:
            alloc, _ = cd.solve_spne(order, profile)
            for j in (1, 2):
                assert profile.pref(j).rank_of(alloc[j]) <= bounds[j]

    for p in range(1, 7):
        shape = cd.DomainShape(2, p)
        pairs = [(j, i) for j in (1, 2) for i in range(1, p + 1)]
        rounds = tuple(sorted(pairs, key=lambda pair: (pair[1], pair[0])))
        order = cd.PickingOrder(shape, rounds)
        profile = cd.strategic_worst_profile(order)
        alloc, _ = cd.solve_spne(order, profile)
        an = order.analytics
        for j in (1, 2):
            assert profile.pref(j).rank_of(alloc[j]) == cd.strategic_bound(an, j)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    note(f"c10 strategic bounds: exhaustive soundness at 2x2, tight witnesses p=1..6, {elapsed:.1f}s")


def test_c11_axiom_matrix():
    start = time.perf_counter()
    want = {
        "sd": {
            "strategy-proofness": True,
            "non-bossiness": True,
            "category-wise-neutrality": True,
            "pareto-optimality": True,
        },
        "welfare": {
            "strategy-proofness": False,
            "non-bossiness": True,
            "category-wise-neutrality": True,
        },
        "bossy": {
            "strategy-proofness": True,
            "category-wise-neutrality": True,
        },
        "nonneutral": {
            "strategy-proofness": True,
            "non-bossiness": True,
        },
    }
    mechanisms = {
        "sd": sd_direct([1, 2]),
        "welfare": welfare_maximizer(),
        "bossy": bossy_conditional_sd(),
        "nonneutral": non_neutral_conditional_sd(),
    }
    for name, expectations in want.items():
        verdicts = {
            v.axiom: v for v in check_all(mechanisms[name], SHAPE_2X2, Exhaustive())
        }
        for axiom, expected in expectations.items():
            assert verdicts[axiom].passed is expected, (name, axiom)

    sp = check_strategy_proofness(welfare_maximizer(), SHAPE_2X2, Exhaustive())
    cx = sp.counterexample
    true_pref = cx.profile.pref(cx.agent)
    assert true_pref.rank_of(cx.alternative[cx.agent]) < true_pref.rank_of(
        cx.baseline[cx.agent]
    )

    po = check_pareto_optimality(worst_pick_sd([1, 2]), SHAPE_2X2, Exhaustive())
    assert po.passed is False

    alloc = welfare_maximizer().apply(profile_of(SHAPE_2X2, WELFARE_PROFILE_2X2_ROWS))
    assert dict(alloc.bundles) == {1: (1, 2), 2: (2, 1)}

    # with two agents a deviation can never move someone else's bundle while
    # fixing the deviator's, and a report-driven switch between the two
    # dictator orders would break strategy-proofness, so the two engineered
    # failures only exist from three agents up; seeded sampling exhibits both
    shape3 = cd.DomainShape(3, 2)
    nb = check_non_bossiness(bossy_conditional_sd(), shape3, Sampled(count=2000, seed=0))
    assert nb.passed is False
    bcx = nb.counterexample
    mech = bossy_conditional_sd()
    base = mech.apply(bcx.profile)
    deviated = cd.Profile(
        shape3,
        [bcx.deviation if j == bcx.agent else bcx.profile.pref(j) for j in (1, 2, 3)],
    )
    alt = mech.apply(deviated)
    assert alt[bcx.agent] == base[bcx.agent]
    assert alt.bundles != base.bundles

    cwn = check_category_wise_neutrality(
        non_neutral_conditional_sd(), shape3, Sampled(count=2000, seed=0)
    )
    assert cwn.passed is False
    ncx = cwn.counterexample
    nmech = non_neutral_conditional_sd()
    lhs = nmech.apply(
        apply_category_permutation(ncx.profile, ncx.category, ncx.permutation)
    )
    rhs = apply_category_permutation(
        nmech.apply(ncx.profile), ncx.category, ncx.permutation
    )
    assert lhs.bundles != rhs.bundles
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    note(f"c11 axiom matrix: exhaustive 2x2 grid plus seeded 3x2 failures replayed, {elapsed:.1f}s")


def test_c12_mallows_sampler_exactness():
    shape = cd.DomainShape(2, 2)
    bundles = list(shape.bundles())
    reference = cd.Preference(shape, bundles)
    rankings = [cd.Preference(shape, perm) for perm in itertools.permutations(bundles)]
    draws = 100_000

    for phi in (0.1, 0.5, 1.0):
        params = cd.MallowsParams(reference, phi)
        total = sum(mallows_pmf(params, r) for r in rankings)
        assert total == pytest.approx(1.0)

        rng = np.random.default_rng(7)
        counts = {}
        for _ in range(draws):
            s = cd.sample_mallows(params, rng)
            counts[s] = counts.get(s, 0) + 1

        for ranking in rankings:
            want = mallows_pmf(params, ranking)
            got = counts.get(ranking, 0) / draws
            se = math.sqrt(want * (1 - want) / draws)
            assert abs(got - want) <= 3 * se, (phi, ranking.order)

        if phi == 1.0:
            observed = np.array([counts.get(r, 0) for r in rankings])
            expected = np.full(len(rankings), draws / len(rankings))
            result = stats.chisquare(observed, expected)
            assert result.pvalue > 0.01
            note(
                f"c12 Mallows exactness: 3 dispersions within 3 SE on {draws} draws, "
                f"uniform chi-square p={result.pvalue:.3f}"
            )


def test_c13_expected_rank_study():
    start = time.perf_counter()
    config = ExperimentConfig(
        p=2,
        n_values=tuple(range(2, 9)),
        phis=(0.5,),
        samples=2000,
        seed=20260814,
    )
    results = run_experiment(config)
    by_n = {}
    for row in results:
        by_n.setdefault(row.n, []).append(row)

    for n, rows in sorted(by_n.items()):
        assert len(rows) == 4
        util_best = min(rows, key=lambda r: r.mean_utilitarian)
        assert (util_best.mechanism, util_best.behavior) == ("sd", "opt")
        for other in rows:
            if other is util_best:
                continue
            assert (
                util_best.mean_utilitarian + util_best.ci_utilitarian
                < other.mean_utilitarian - other.ci_utilitarian
            ), ("utilitarian overlap", n, other.mechanism, other.behavior)

        egal_best = min(rows, key=lambda r: r.mean_egalitarian)
        assert (egal_best.mechanism, egal_best.behavior) == ("balanced", "pess")
        for other in rows:
            if other is egal_best:
                continue
            assert (
                egal_best.mean_egalitarian + egal_best.ci_egalitarian
                < other.mean_egalitarian - other.ci_egalitarian
            ), ("egalitarian overlap", n, other.mechanism, other.behavior)

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    note(
        "c13 expected-rank study: sd/opt best utilitarian and balanced/pess best "
        f"egalitarian with separated 95% CIs for n=2..8, {elapsed:.0f}s"
    )


def test_c14_interrupter_audit_flags_divergence():
    n, p = 3, 4
    order = cd.interrupter_order(n, p)
    behaviors = [cd.OPTIMISTIC] * (n - 1) + [cd.PESSIMISTIC]
    bounds = [e.bound for e in cd.worst_case_report(order, behaviors).entries]
    assert bounds == [81, 80, 79]
    # the witness replay puts every agent exactly on her bound
    profile = cd.worst_case_profile(order, behaviors)
    allocation, _ = cd.run_csam(order, profile, behaviors)
    assert [profile.pref(j).rank_of(allocation[j]) for j in range(1, n + 1)] == bounds
    # closed forms sometimes conjectured for the majority and the interrupter
    candidate_majority = n**p + 1 - (1 + n * p // 2)
    candidate_interrupter = n**p + 1 - 2**p
    assert (candidate_majority, candidate_interrupter) == (75, 66)
    assert all(bound != candidate_majority for bound in bounds[:-1])
    assert bounds[-1] != candidate_interrupter
    note(
        "c14 interrupter audit: analyzer worst cases 81/80/79 witness-confirmed, "
        "candidate forms 75/66 flagged unverified"
    )
