import hashlib
import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import catdom as cd
from catdom import axioms, engine
from catdom.axioms import (
    Exhaustive,
    Sampled,
    _first_dominating,
    all_allocations,
    all_rankings,
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
from catdom.cli import main
from catdom.engine import _serial_picks

from conftest import SHAPE_2X2, pref_of


SHAPE_3X2 = cd.DomainShape(3, 2)


def constant_mechanism(allocation):
    return cd.DirectMechanism("constant", lambda profile: allocation)


# The tuple-bundle paths the index paths replaced, kept as their oracles.


def tuple_serial_picks(agent_order, profile, worst_first=False):
    """Each agent, in order, takes the first bundle of her ranking (read from
    the bottom when ``worst_first``) that shares no item with the bundles
    already taken."""
    taken = {i: set() for i in profile.shape.categories()}
    bundles = {}
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
    return cd.Allocation(bundles)


def tuple_permute_bundle(bundle, category, perm):
    item = bundle[category - 1]
    return bundle[: category - 1] + (perm[item - 1],) + bundle[category:]


def tuple_relabel(obj, category, perm):
    """``apply_category_permutation`` on preferences, profiles and
    allocations, one bundle tuple at a time."""
    if isinstance(obj, cd.Preference):
        return cd.Preference(obj.shape, [tuple_permute_bundle(b, category, perm) for b in obj.order])
    if isinstance(obj, cd.Profile):
        return cd.Profile(obj.shape, [tuple_relabel(p, category, perm) for p in obj.preferences])
    return cd.Allocation({j: tuple_permute_bundle(b, category, perm) for j, b in obj.items()})


def checked_relabel(pref, category, perm):
    """The fully checked relabeling: ``from_indices`` over ``_relabel_map``."""
    relabel = axioms._relabel_map(pref.shape, category, perm)
    return cd.Preference.from_indices(pref.shape, [relabel[idx] for idx in pref.indices])


def dominates(profile, alt, base):
    strict = False
    for j in profile.shape.agents():
        ra = profile.pref(j).rank_of(alt[j])
        rb = profile.pref(j).rank_of(base[j])
        if ra > rb:
            return False
        if ra < rb:
            strict = True
    return strict


def first_dominating(profile, base):
    """Position of the first allocation that dominates ``base``, or None."""
    allocations = all_allocations(profile.shape)
    return next((k for k, alt in enumerate(allocations) if dominates(profile, alt, base)), None)


@st.composite
def profiles(draw, max_n=3, max_p=2):
    shape = cd.DomainShape(draw(st.integers(1, max_n)), draw(st.integers(1, max_p)))
    bundles = list(shape.bundles())
    return cd.Profile(
        shape, [cd.Preference(shape, draw(st.permutations(bundles))) for _ in shape.agents()]
    )


def bossy_tail(profile, _first):
    """Agents 2..n, ascending when agent 1's second-ranked bundle shares its
    first component with her top, else descending: the bossy fixture's tail
    order, kept as the oracle of ``axioms._conditional_sd``."""
    shape = profile.shape
    if shape.bundle_count < 2:
        return list(shape.agents())[1:]
    top = profile.pref(1).top()
    second = profile.pref(1).bundle_at(2)
    ascending = second[0] == top[0]
    rest = list(shape.agents())[1:]
    return rest if ascending else list(reversed(rest))


def non_neutral_tail(profile, first):
    """Agents 2..n, ascending when agent 1 gets the all-ones bundle, else
    descending: the non-neutral fixture's tail order, likewise."""
    shape = profile.shape
    ascending = first == (1,) * shape.p
    rest = list(shape.agents())[1:]
    return rest if ascending else list(reversed(rest))


def fraction_welfare(profile):
    """The welfare maximizer's allocation under its ``Fraction`` scores: an
    agent's i-th ranked bundle scores (n**p - i) * (1 + (1/(2*n**p))**j), j
    the agent index. Raises on a tie."""
    shape = profile.shape
    m = shape.bundle_count
    weights = {j: 1 + Fraction(1, 2 * m) ** j for j in shape.agents()}
    best = best_score = None
    tie = False
    for allocation in all_allocations(shape):
        score = sum(
            (m - profile.pref(j).rank_of(allocation[j])) * weights[j] for j in shape.agents()
        )
        if best_score is None or score > best_score:
            best, best_score, tie = allocation, score, False
        elif score == best_score:
            tie = True
    if best is None or tie:
        raise AssertionError("perturbed welfare scores must have a unique maximum")
    return best


def bundle_rankings(shape):
    """Every ranking, built from the permutations of the bundle tuples."""
    return tuple(cd.Preference(shape, perm) for perm in itertools.permutations(shape.bundles()))


def seeded_profile(n, p, seed):
    shape = cd.DomainShape(n, p)
    rng = np.random.default_rng(seed)
    return cd.Profile(shape, [cd.uniform_preference(shape, rng) for _ in shape.agents()])


LARGER_SHAPES = [(4, 2), (3, 3), (2, 4)]


def check_serial_scan(profile, agent_order):
    for worst_first in (False, True):
        got = _serial_picks(agent_order, profile, worst_first)
        want = tuple_serial_picks(agent_order, profile, worst_first)
        assert list(got.items()) == list(want.items())


def check_relabel(profile):
    shape = profile.shape
    for category in shape.categories():
        for perm in itertools.permutations(shape.agents()):
            for pref in profile.preferences:
                got = apply_category_permutation(pref, category, perm)
                assert got.indices == tuple_relabel(pref, category, perm).indices


def check_first_dominating(profile, bases):
    for base in bases:
        assert _first_dominating(profile, base) == first_dominating(profile, base)


class TestIndexPathOracles:
    """The index paths of the audits against the tuple paths they replaced."""

    @settings(max_examples=80, deadline=None)
    @given(profiles(), st.data())
    def test_serial_scan(self, profile, data):
        agents = list(profile.shape.agents())
        check_serial_scan(profile, agents)
        check_serial_scan(profile, data.draw(st.permutations(agents)))

    @settings(max_examples=60, deadline=None)
    @given(profiles())
    def test_relabel(self, profile):
        check_relabel(profile)

    @settings(max_examples=60, deadline=None)
    @given(profiles())
    def test_first_dominating(self, profile):
        # every feasible allocation as the outcome, dominated or not
        check_first_dominating(profile, all_allocations(profile.shape))

    @pytest.mark.parametrize("n, p", LARGER_SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_larger_shapes(self, n, p, seed):
        profile = seeded_profile(n, p, seed)
        agents = list(profile.shape.agents())
        check_serial_scan(profile, agents)
        check_serial_scan(profile, agents[::-1])
        check_relabel(profile)
        allocations = all_allocations(profile.shape)
        picks = np.random.default_rng(seed).choice(len(allocations), 8, replace=False)
        bases = [
            tuple_serial_picks(agents, profile),
            tuple_serial_picks(agents[::-1], profile, worst_first=True),
            *(allocations[k] for k in picks.tolist()),
        ]
        check_first_dominating(profile, bases)

    @pytest.mark.parametrize("n, p", [(4, 2), (2, 4)])
    @pytest.mark.parametrize("seed", range(3))
    def test_first_dominating_on_reference_outcomes(self, n, p, seed):
        profile = seeded_profile(n, p, 100 + seed)
        shape = profile.shape
        agents = list(shape.agents())
        allocations = all_allocations(shape)
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(allocations), min(8, len(allocations)), replace=False)
        mechanisms = [
            sd_direct(agents),
            sd_direct(agents[::-1]),
            sd_direct(rng.permutation(agents).tolist()),
            worst_pick_sd(agents),
            worst_pick_sd(agents[::-1]),
            bossy_conditional_sd(),
            non_neutral_conditional_sd(),
            welfare_maximizer(),
            constant_mechanism(allocations[int(picks[0])]),
        ]
        bases = [mechanism.apply(profile) for mechanism in mechanisms]
        check_first_dominating(profile, bases + [allocations[k] for k in picks.tolist()])
        # the serial dictatorships are Pareto optimal, the worst picks not
        assert [_first_dominating(profile, base) for base in bases[:3]] == [None] * 3
        assert _first_dominating(profile, bases[3]) is not None

    CHECK_ALL_CASES = {
        "worst-pick-4x2": (lambda: worst_pick_sd([1, 2, 3, 4]), cd.DomainShape(4, 2), 300),
        "bossy-3x2": (bossy_conditional_sd, SHAPE_3X2, 300),
        "nonneutral-3x2": (non_neutral_conditional_sd, SHAPE_3X2, 300),
        "sd-2x4": (lambda: sd_direct([2, 1]), cd.DomainShape(2, 4), 100),
    }

    @pytest.mark.parametrize("name", sorted(CHECK_ALL_CASES))
    def test_check_all_matches_tuple_paths(self, name, monkeypatch):
        make, shape, count = self.CHECK_ALL_CASES[name]
        mode = Sampled(count=count, seed=11)
        got = [v.to_json() for v in check_all(make(), shape, mode)]
        for module in (axioms, engine):
            monkeypatch.setattr(module, "_serial_picks", tuple_serial_picks)
        monkeypatch.setattr(axioms, "_first_dominating", first_dominating)
        # the neutrality audit relabels the profile and the outcome itself
        monkeypatch.setattr(axioms, "_relabeled", tuple_relabel)
        monkeypatch.setattr(axioms, "_permute_bundle", tuple_permute_bundle)
        want = [v.to_json() for v in check_all(make(), shape, mode)]
        assert got == want
        if name == "worst-pick-4x2":
            assert [d["passed"] for d in got][3] is False


class TestTrustedBuilds:
    """The rankings the audits build unchecked (``Preference._build``)
    against the fully checked path, and the checks that stay."""

    # None: every ranking of the shape; else that many seeded draws, checked
    @pytest.mark.parametrize(
        "n, p, count", [(2, 2, None), (3, 2, 200), (4, 3, 20), (3, 5, 10), (2, 12, 4)]
    )
    def test_relabeled_matches_checked_path(self, n, p, count):
        shape = cd.DomainShape(n, p)
        if count is None:
            rows = itertools.permutations(range(shape.bundle_count))
        else:
            rng = np.random.default_rng([n, p])
            rows = (rng.permutation(shape.bundle_count).tolist() for _ in range(count))
        prefs = [cd.Preference.from_indices(shape, row) for row in rows]
        for category in shape.categories():
            for perm in itertools.permutations(shape.agents()):
                got = [axioms._relabeled(pref, category, perm) for pref in prefs]
                want = [checked_relabel(pref, category, perm) for pref in prefs]
                assert got == want
                assert [pref.order for pref in got] == [pref.order for pref in want]

    def test_sampled_neutrality_still_checks_the_relabeled_outcome(self):
        # a sampled case applies the mechanism to the drawn profile, then to
        # its relabeling; only the second outcome is infeasible
        seen = []

        def fn(profile):
            seen.append(profile)
            if len(seen) == 1:
                return _serial_picks([1, 2, 3], profile)
            return cd.Allocation({j: (1, 1) for j in SHAPE_3X2.agents()})

        mechanism = cd.DirectMechanism("infeasible-when-relabeled", fn)
        with pytest.raises(AssertionError, match="broke feasibility"):
            check_category_wise_neutrality(mechanism, SHAPE_3X2, Sampled(count=20, seed=0))
        assert len(seen) == 2
        relabelings = [
            apply_category_permutation(seen[0], category, perm)
            for category in SHAPE_3X2.categories()
            for perm in itertools.permutations(SHAPE_3X2.agents())
            if perm != (1, 2, 3)
        ]
        assert seen[1] in relabelings


class TestSampledStreams:
    @pytest.mark.parametrize("n, p", [(1, 1), (2, 2), (3, 2), (2, 3), (4, 6)])
    @pytest.mark.parametrize("seed", range(3))
    def test_relabelings_draw_as_permutation(self, n, p, seed):
        # oracle: each draw's profile, category and permutation(n) + 1, as
        # numpy's permutation draws them; identity draws yield no case
        shape = cd.DomainShape(n, p)
        identity = tuple(shape.agents())
        mode = Sampled(count=8, seed=seed)
        oracle = np.random.default_rng(seed)
        want = []
        for _ in range(mode.count):
            rows = [tuple(oracle.permutation(shape.bundle_count).tolist()) for _ in identity]
            category = int(oracle.integers(1, p + 1))
            perm = tuple((oracle.permutation(n) + 1).tolist())
            if perm != identity:
                want.append((rows, category, perm))
        got = []

        def record(profile, category, perm, outcome):
            got.append(([pref.indices for pref in profile.preferences], category, perm))

        mechanism = sd_direct(list(identity))
        cases = axioms._relabelings(mechanism, shape)
        axioms._audit([("record", record)], mechanism, shape, mode, (), cases)
        assert got == want


# The streams before ``axioms._audit`` became the only profile walk, kept as
# the oracle of the walk and its per-profile cases: a profile generator, one
# stream per audit (the exhaustive deviations with their own index product,
# each sampled stream with its own generator, one Pareto case per
# (profile, allocation) pair), and the one-pass audit.


def stream_profiles(shape, mode, rng):
    if isinstance(mode, Sampled):
        for _ in range(mode.count):
            yield cd.Profile(shape, [cd.uniform_preference(shape, rng) for _ in shape.agents()])
        return
    for prefs in itertools.product(all_rankings(shape), repeat=shape.n):
        yield cd.Profile(shape, prefs)


def stream_deviations(mechanism, shape, mode):
    if isinstance(mode, Sampled):
        rng = np.random.default_rng(mode.seed)
        for profile in stream_profiles(shape, mode, rng):
            j = int(rng.integers(1, shape.n + 1))
            deviation = cd.uniform_preference(shape, rng)
            reports = profile.preferences
            misreport = cd.Profile(shape, reports[: j - 1] + (deviation,) + reports[j:])
            yield profile, j, deviation, mechanism.apply(profile), mechanism.apply(misreport)
        return
    rankings = all_rankings(shape)
    outcomes = {}

    def outcome(idx):
        if idx not in outcomes:
            outcomes[idx] = mechanism.apply(cd.Profile(shape, [rankings[i] for i in idx]))
        return outcomes[idx]

    for idx in itertools.product(range(len(rankings)), repeat=shape.n):
        profile = cd.Profile(shape, [rankings[i] for i in idx])
        base = outcome(idx)
        for j in shape.agents():
            for dev, deviation in enumerate(rankings):
                if dev != idx[j - 1]:
                    yield profile, j, deviation, base, outcome(idx[: j - 1] + (dev,) + idx[j:])


def stream_relabelings(mechanism, shape, mode):
    identity = tuple(shape.agents())
    if isinstance(mode, Sampled):
        rng = np.random.default_rng(mode.seed)
        for profile in stream_profiles(shape, mode, rng):
            category = int(rng.integers(1, shape.p + 1))
            shuffled = list(identity)
            rng.shuffle(shuffled)
            perm = tuple(shuffled)
            if perm != identity:
                yield profile, category, perm, mechanism.apply(profile)
        return
    for profile in stream_profiles(shape, mode, None):
        outcome = mechanism.apply(profile)
        for category in shape.categories():
            for perm in itertools.permutations(identity):
                if perm != identity:
                    yield profile, category, perm, outcome


def stream_pareto(mechanism, shape, mode):
    sampled = isinstance(mode, Sampled)
    rng = np.random.default_rng(mode.seed) if sampled else None
    for profile in stream_profiles(shape, mode, rng):
        base = mechanism.apply(profile)
        first = _first_dominating(profile, base)
        if sampled:
            yield profile, base, first
            continue
        for k in range(len(all_allocations(shape))):
            yield profile, base, first if k == first else None


def stream_audit(axioms_, mechanism, shape, mode, per_profile, cases):
    if isinstance(mode, Exhaustive):
        profiles = axioms._factorial_factors(shape.bundle_count, shape.n)
        if cd.domain._exceeds(mode.budget, itertools.chain(per_profile, profiles)):
            raise cd.CapacityError(
                f"exhaustive {axioms_[0][0]} over shape {shape.n}x{shape.p} needs more than "
                f"{mode.budget} checks, the budget"
            )
    checked = [0] * len(axioms_)
    found = [None] * len(axioms_)
    for case in cases:
        for k, (_, violation) in enumerate(axioms_):
            if found[k] is None:
                checked[k] += 1
                found[k] = violation(*case)
        if all(found):
            break
    if isinstance(mode, Exhaustive):
        coverage = "exhaustive"
    else:
        coverage = f"sampled(count={mode.count}, seed={mode.seed})"
    return [
        axioms.AxiomVerdict(axiom, mechanism.name, cx is None, coverage, count, cx)
        for (axiom, _), count, cx in zip(axioms_, checked, found)
    ]


def stream_deviation_audit(mechanism, shape, mode):
    cost = itertools.chain((shape.n,), axioms._factorial_factors(shape.bundle_count))
    cases = stream_deviations(mechanism, shape, mode)
    predicates = [axioms._STRATEGY_PROOFNESS, axioms._NON_BOSSINESS]
    return stream_audit(predicates, mechanism, shape, mode, cost, cases)


def stream_neutrality_audit(mechanism, shape, mode):
    axiom = "category-wise-neutrality"

    def violation(profile, category, perm, outcome):
        lhs = mechanism.apply(apply_category_permutation(profile, category, perm))
        rhs = apply_category_permutation(outcome, category, perm)
        if lhs.bundles != rhs.bundles and rhs.bundles != {
            j: tuple(b) for j, b in lhs.bundles.items()
        }:
            return axioms.Counterexample(axiom, profile, lhs, rhs, category=category, permutation=perm)
        return None

    cost = itertools.chain((shape.p,), axioms._factorial_factors(shape.n))
    cases = stream_relabelings(mechanism, shape, mode)
    return stream_audit([(axiom, violation)], mechanism, shape, mode, cost, cases)


def stream_pareto_audit(mechanism, shape, mode):
    allocations = all_allocations(shape)

    def violation(profile, base, first):
        if first is None:
            return None
        return axioms.Counterexample("pareto-optimality", profile, base, allocations[first])

    cases = stream_pareto(mechanism, shape, mode)
    axiom = [("pareto-optimality", violation)]
    return stream_audit(axiom, mechanism, shape, mode, (len(allocations),), cases)


def stream_check_all(mechanism, shape, mode):
    """``check_all`` over the oracle streams."""
    if isinstance(mode, Sampled):
        all_allocations(shape)
    return [
        *stream_deviation_audit(mechanism, shape, mode),
        *stream_neutrality_audit(mechanism, shape, mode),
        *stream_pareto_audit(mechanism, shape, mode),
    ]


# every fixture mechanism, made for a shape
FIXTURES = {
    "sd": lambda shape: sd_direct(list(shape.agents())),
    "welfare": lambda shape: welfare_maximizer(),
    "bossy": lambda shape: bossy_conditional_sd(),
    "nonneutral": lambda shape: non_neutral_conditional_sd(),
    "worst-pick": lambda shape: worst_pick_sd(list(shape.agents())),
    "constant": lambda shape: constant_mechanism(all_allocations(shape)[-1]),
}


class TestStreamOracle:
    """``check_all`` over the one walk against the streams it replaced."""

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    @pytest.mark.parametrize("n, p", [(2, 2), (2, 1), (3, 1), (1, 3)])
    def test_exhaustive(self, n, p, name):
        shape = cd.DomainShape(n, p)
        mechanism = FIXTURES[name](shape)
        got = [v.to_json() for v in check_all(mechanism, shape, Exhaustive())]
        assert got == [v.to_json() for v in stream_check_all(mechanism, shape, Exhaustive())]

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n, p", [(3, 2), (2, 3)])
    def test_sampled(self, n, p, seed, name):
        shape = cd.DomainShape(n, p)
        mechanism = FIXTURES[name](shape)
        mode = Sampled(count=200, seed=seed)
        got = [v.to_json() for v in check_all(mechanism, shape, mode)]
        assert got == [v.to_json() for v in stream_check_all(mechanism, shape, mode)]

    def test_exhaustive_pareto_yields_once_per_profile(self, monkeypatch):
        # one case per 2x2 profile, weighing the 4 allocations it checks
        weights = []
        audit = axioms._audit

        def counting(axioms_, mechanism, shape, mode, per_profile, cases):
            def counted(*args):
                for weight, case in cases(*args):
                    weights.append(weight)
                    yield weight, case

            return audit(axioms_, mechanism, shape, mode, per_profile, counted)

        monkeypatch.setattr(axioms, "_audit", counting)
        verdict = check_pareto_optimality(sd_direct([1, 2]), SHAPE_2X2, Exhaustive())
        assert (verdict.passed, verdict.checked) == (True, 2304)
        assert weights == [4] * 576


def csam_direct(rounds, behavior):
    """The 2x2 CSAM that plays the order ``rounds`` with both agents of one
    behavior, as a direct mechanism."""
    order = cd.PickingOrder(SHAPE_2X2, rounds)
    behaviors = [behavior] * 2
    return cd.DirectMechanism(
        f"csam{list(rounds)}", lambda profile: cd.run_csam(order, profile, behaviors)[0]
    )


SD_ROUNDS = ((1, 1), (1, 2), (2, 1), (2, 2))


class TestCsamAudits:
    """Exhaustive 2x2 audits of CSAMs, the mechanisms the paper
    characterizes: the serial-dictatorship order played optimistically is
    the serial dictatorship and passes every axiom; played pessimistically,
    or interleaved, it can be manipulated and is not Pareto optimal."""

    CASES = {
        "sd-optimistic": (SD_ROUNDS, cd.OPTIMISTIC, [True] * 4, [26496, 26496, 1152, 2304]),
        "sd-pessimistic": (
            SD_ROUNDS, cd.PESSIMISTIC, [False, True, True, False], [3313, 26496, 1152, 301],
        ),
        "interleaved-optimistic": (
            ((1, 1), (2, 2), (2, 1), (1, 2)),
            cd.OPTIMISTIC,
            [False, True, True, False],
            [2496, 26496, 1152, 195],
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_check_all_pinned(self, name):
        rounds, behavior, passed, checked = self.CASES[name]
        verdicts = check_all(csam_direct(rounds, behavior), SHAPE_2X2, Exhaustive())
        assert [v.passed for v in verdicts] == passed
        assert [v.checked for v in verdicts] == checked

    def test_optimistic_sd_order_is_the_serial_dictatorship(self):
        csam, sd = csam_direct(SD_ROUNDS, cd.OPTIMISTIC), sd_direct([1, 2])
        profiles = [
            cd.Profile(SHAPE_2X2, prefs)
            for prefs in itertools.product(all_rankings(SHAPE_2X2), repeat=2)
        ]
        assert len(profiles) == 576
        for profile in profiles:
            assert csam.apply(profile).bundles == sd.apply(profile).bundles


class TestEnumeration:
    def test_all_rankings_count_and_order(self):
        rankings = all_rankings(SHAPE_2X2)
        assert len(rankings) == 24
        assert rankings[0].order == ((1, 1), (1, 2), (2, 1), (2, 2))
        assert len({r.order for r in rankings}) == 24

    @pytest.mark.parametrize("n, p", [(2, 1), (2, 2), (3, 1), (1, 3), (2, 3)])
    def test_all_rankings_match_bundle_permutations(self, n, p):
        shape = cd.DomainShape(n, p)
        assert all_rankings(shape) == bundle_rankings(shape)

    def test_all_rankings_capacity(self):
        with pytest.raises(cd.CapacityError):
            all_rankings(cd.DomainShape(2, 5))  # 32! rankings

    def test_all_rankings_capacity_never_forms_the_count(self):
        # (2**14)! has over 60000 digits, past what int-to-str conversion allows
        with pytest.raises(cd.CapacityError, match="more than 1000000 rankings"):
            all_rankings(cd.DomainShape(2, 14))

    def test_all_allocations_capacity_never_forms_the_count(self):
        with pytest.raises(cd.CapacityError, match="more than 1000000 allocations"):
            all_allocations(cd.DomainShape(1000, 2))

    def test_all_allocations(self):
        allocations = all_allocations(SHAPE_2X2)
        assert len(allocations) == 4
        for alloc in allocations:
            assert cd.validate_allocation(SHAPE_2X2, alloc).ok

    @pytest.mark.parametrize("enumeration", [all_rankings, all_allocations])
    def test_enumeration_cache_is_bounded(self, enumeration):
        for p in range(1, 10):
            enumeration(cd.DomainShape(1, p))
        assert enumeration.cache_info().currsize <= 8


class TestCategoryPermutation:
    def test_preference_relabeling(self):
        pref = pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        swapped = apply_category_permutation(pref, 1, (2, 1))
        assert swapped.order == ((1, 1), (2, 1), (1, 2), (2, 2))

    def test_involution(self):
        pref = pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        twice = apply_category_permutation(
            apply_category_permutation(pref, 2, (2, 1)), 2, (2, 1)
        )
        assert twice == pref

    def test_allocation_relabeling(self):
        alloc = cd.Allocation({1: (1, 2), 2: (2, 1)})
        moved = apply_category_permutation(alloc, 1, (2, 1))
        assert dict(moved.bundles) == {1: (2, 2), 2: (1, 1)}

    def test_profile_relabeling_commutes_with_sd(self, welfare_profile_2x2):
        # serial dictatorship is category-wise neutral, so relabeling first
        # or applying first must agree
        mech = sd_direct([1, 2])
        for category in (1, 2):
            for perm in itertools.permutations((1, 2)):
                relabeled = apply_category_permutation(
                    welfare_profile_2x2, category, perm
                )
                lhs = mech.apply(relabeled)
                rhs = apply_category_permutation(
                    mech.apply(welfare_profile_2x2), category, perm
                )
                assert lhs.bundles == rhs.bundles

    def test_identity_permutation_required_valid(self):
        pref = pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        with pytest.raises(cd.ValidationError):
            apply_category_permutation(pref, 1, (1, 1))

    @pytest.mark.parametrize(
        "obj, category, perm, message",
        [
            # each of these used to return a wrong relabeling or end in IndexError
            ((1, 2), 0, (2, 1), "category 0 outside 1..2"),
            ((1, 2), 3, (2, 1), "category 3 outside 1..2"),
            ((1, 2), 1, (1, 1), r"\(1, 1\) is not a permutation of 1..2"),
            (cd.Allocation({1: (1, 2), 2: (2, 1)}), 1, (3, 1), r"\(3, 1\) is not a permutation of 1..2"),
            (cd.Allocation({1: (1, 2), 2: (2, 1)}), 3, (2, 1), "category 3 outside 1..2"),
            ((1, 2), 1, (True, 2), r"\(True, 2\) is not a permutation of 1..2"),
            ((1, 2), True, (2, 1), "category True outside 1..2"),
            ((3, 1), 1, (2, 1), r"bundle \(3, 1\) holds item 3 outside 1..2"),
            ((0, 1), 1, (2, 1), r"bundle \(0, 1\) holds item 0 outside 1..2"),
            ([1, 2], 1, (2, 1), "cannot permute object of type list"),
            ({1: (1, 2)}, 1, (2, 1), "cannot permute object of type dict"),
            # items that are not plain ints, True included
            (([0], 1), 1, (2, 1), r"bundle \(\[0\], 1\) holds item \[0\] outside 1..2"),
            (("x", 1), 1, (2, 1), r"bundle \('x', 1\) holds item 'x' outside 1..2"),
            ((True, 1), 1, (2, 1), r"bundle \(True, 1\) holds item True outside 1..2"),
            (
                cd.Allocation({1: ("1", 2), 2: (2, 1)}),
                1,
                (2, 1),
                r"bundle \('1', 2\) holds item '1' outside 1..2",
            ),
            # a bundle that is not a sequence raised TypeError
            (cd.Allocation({1: 5, 2: (1, 1)}), 1, (2, 1), "agent 1 holds malformed bundle 5"),
            (cd.Allocation({1: (1, 2), 2: None}), 1, (2, 1), "agent 2 holds malformed bundle None"),
        ],
    )
    def test_bad_arguments_rejected(self, obj, category, perm, message):
        with pytest.raises(cd.ValidationError, match=message):
            apply_category_permutation(obj, category, perm)

    @pytest.mark.parametrize("category, perm", [(0, (2, 1)), (3, (2, 1)), (1, (1, 1)), (1, (3, 1))])
    def test_preference_arguments_use_the_same_wording(self, category, perm):
        pref = pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        with pytest.raises(cd.ValidationError) as bundle_error:
            apply_category_permutation((2, 1), category, perm)
        # a profile's relabeling is built unchecked, after the same check
        for obj in (pref, cd.Profile(SHAPE_2X2, [pref, pref])):
            with pytest.raises(cd.ValidationError) as preference_error:
                apply_category_permutation(obj, category, perm)
            assert str(preference_error.value) == str(bundle_error.value)

    def test_bundle_relabeling(self):
        assert apply_category_permutation((1, 2, 3), 3, (3, 1, 2)) == (1, 2, 2)
        assert apply_category_permutation((1, 2), 1, (2, 1)) == (2, 2)


class TestMechanisms:
    def test_sd_direct_matches_engine(self, profile_3x2):
        mech = sd_direct([2, 1, 3])
        got = mech.apply(profile_3x2)
        want = cd.direct_serial_dictatorship([2, 1, 3], profile_3x2)
        assert got.bundles == want.bundles

    @pytest.mark.parametrize(
        "order, message",
        [
            ([1, 1], r"agent order \(1, 1\) is not a permutation of 1..2"),
            ([1, 2, 3], r"agent order \(1, 2, 3\) is not a permutation of 1..2"),
        ],
    )
    def test_sd_direct_rejects_a_bad_agent_order(self, order, message, welfare_profile_2x2):
        with pytest.raises(cd.ValidationError, match=message):
            sd_direct(order).apply(welfare_profile_2x2)

    @pytest.mark.parametrize("order", [[1, 1], [2], [1, 3], [1, 2, 3]])
    def test_worst_pick_sd_rejects_a_bad_agent_order(self, order, welfare_profile_2x2):
        message = rf"agent order \({', '.join(map(str, order))},?\) is not a permutation of 1..2"
        with pytest.raises(cd.ValidationError, match=message):
            worst_pick_sd(order).apply(welfare_profile_2x2)

    @pytest.mark.parametrize("n, p", [(1, 3), (2, 2), (3, 2), (4, 2)])
    def test_conditional_sds_match_tail_oracles(self, n, p):
        for seed in range(20):
            profile = seeded_profile(n, p, seed)
            first = profile.pref(1).top()
            for make, tail in (
                (bossy_conditional_sd, bossy_tail),
                (non_neutral_conditional_sd, non_neutral_tail),
            ):
                want = tuple_serial_picks([1, *tail(profile, first)], profile)
                assert make().apply(profile).bundles == want.bundles, (n, p, seed)

    @pytest.mark.parametrize("p", [1, 3])
    def test_bossy_sd_with_one_agent(self, p):
        # one bundle: agent 1 has no second-ranked bundle to read
        shape = cd.DomainShape(1, p)
        profile = cd.Profile(shape, [cd.Preference.from_indices(shape, [0])])
        assert dict(bossy_conditional_sd().apply(profile).bundles) == {1: (1,) * p}

    def test_welfare_maximizer_fixture_allocation(self, welfare_profile_2x2):
        alloc = welfare_maximizer().apply(welfare_profile_2x2)
        assert dict(alloc.bundles) == {1: (1, 2), 2: (2, 1)}

    @pytest.mark.parametrize("allocations", [(), "tie"])
    def test_welfare_maximizer_needs_unique_maximum(
        self, monkeypatch, welfare_profile_2x2, allocations
    ):
        if allocations == "tie":
            alloc = cd.Allocation({1: (1, 2), 2: (2, 1)})
            allocations = (alloc, alloc)
        monkeypatch.setattr("catdom.axioms.all_allocations", lambda shape: allocations)
        with pytest.raises(AssertionError, match="unique maximum"):
            welfare_maximizer().apply(welfare_profile_2x2)

    @pytest.mark.parametrize(
        "n, p, seeds",
        [(2, 2, None), (3, 1, None), (3, 2, range(200)), (2, 3, range(200))],
    )
    def test_welfare_maximizer_matches_fraction_scores(self, n, p, seeds):
        # every profile of the small shapes, 200 seeded ones of the others
        shape = cd.DomainShape(n, p)
        if seeds is None:
            every = itertools.product(all_rankings(shape), repeat=n)
            cases = (cd.Profile(shape, prefs) for prefs in every)
        else:
            cases = (seeded_profile(n, p, seed) for seed in seeds)
        mech = welfare_maximizer()
        count = 0
        for profile in cases:
            assert mech.apply(profile).bundles == fraction_welfare(profile).bundles
            count += 1
        assert count == (len(all_rankings(shape)) ** n if seeds is None else len(seeds))

    def test_welfare_maximizer_is_deterministic(self, welfare_profile_2x2):
        mech = welfare_maximizer()
        first = mech.apply(welfare_profile_2x2)
        second = mech.apply(welfare_profile_2x2)
        assert first.bundles == second.bundles

    def test_constant_mechanism_ignores_reports(self, welfare_profile_2x2, game_profile_2x2):
        target = cd.Allocation({1: (1, 2), 2: (2, 1)})
        mech = constant_mechanism(target)
        assert mech.apply(welfare_profile_2x2).bundles == target.bundles
        assert mech.apply(game_profile_2x2).bundles == target.bundles

    def test_broken_mechanism_caught(self):
        bad = cd.DirectMechanism(
            "broken", lambda profile: cd.Allocation({1: (1, 1), 2: (1, 1)})
        )
        prefs = [pref_of(SHAPE_2X2, ["11", "12", "21", "22"])] * 2
        with pytest.raises(AssertionError):
            bad.apply(cd.Profile(SHAPE_2X2, prefs))

    @pytest.mark.parametrize(
        "bundles, detail",
        [
            ({1: [1, 2], 2: (True, 1)}, r"agent 2 holds malformed bundle \(True, 1\)"),
            ({1: (1, 2), 2: (2, 2)}, "item 2 of category 2 assigned to agents 1 and 2"),
            ({1: (1, 2), 2: (2, 3)}, r"agent 2 holds malformed bundle \(2, 3\)"),
            ({1: (1, 2)}, r"agents \[1\] do not match 1..2"),
            ({1: (1.5, 1), 2: (2, 2)}, r"agent 1 holds malformed bundle \(1.5, 1\)"),
        ],
    )
    def test_infeasible_outcome_message(self, bundles, detail, welfare_profile_2x2):
        mech = constant_mechanism(cd.Allocation(bundles))
        with pytest.raises(AssertionError, match=f"mechanism constant broke feasibility: {detail}"):
            check_all(mech, SHAPE_2X2, Sampled(count=5, seed=0))
        with pytest.raises(AssertionError, match=f"mechanism constant broke feasibility: {detail}"):
            mech.apply(welfare_profile_2x2)


class TestNonCanonicalOutcomes:
    """A mechanism may return bundles that ``validate_allocation`` accepts but
    that are not the shape's bundle tuples: lists of plain ints. The audits
    read them through the same bundle lookup as ``rank_of``, so their
    verdicts are the ones the tuple paths gave. Items such as ``True`` or
    ``np.int64(1)`` make an outcome infeasible, so every audit stops at the
    first profile with ``DirectMechanism.apply``'s error."""

    LIST = cd.Allocation({1: [1, 2], 2: (2, 1)})
    TRUE = cd.Allocation({1: (True, 2), 2: (2, 1)})
    NUMPY = cd.Allocation({1: (np.int64(1), 2), 2: (2, 1)})
    MODES = {"exhaustive": Exhaustive(), "sampled": Sampled(count=50, seed=3)}
    INFEASIBLE = "mechanism constant broke feasibility: agent 1 holds malformed bundle {}"

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("allocation", [LIST], ids=["list"])
    @pytest.mark.parametrize("check", [check_strategy_proofness, check_non_bossiness])
    def test_deviation_audits_pass(self, check, allocation, mode):
        verdict = check(constant_mechanism(allocation), SHAPE_2X2, self.MODES[mode])
        assert verdict.passed
        assert verdict.checked == (26496 if mode == "exhaustive" else 50)

    @pytest.mark.parametrize(
        "mode, checked, alternative",
        [
            ("exhaustive", 5, {"1": [1, 1], "2": [2, 2]}),
            ("sampled", 1, {"1": [2, 1], "2": [1, 2]}),
        ],
    )
    def test_pareto_reads_list_bundles(self, mode, checked, alternative):
        mech = constant_mechanism(self.LIST)
        verdict = check_pareto_optimality(mech, SHAPE_2X2, self.MODES[mode])
        assert not verdict.passed
        assert verdict.checked == checked
        assert verdict.to_json()["counterexample"]["alternative"]["bundles"] == alternative

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_pareto_rejects_true_items(self, mode):
        mech = constant_mechanism(self.TRUE)
        with pytest.raises(AssertionError, match=self.INFEASIBLE.format(r"\(True, 2\)")):
            check_pareto_optimality(mech, SHAPE_2X2, self.MODES[mode])

    @pytest.mark.parametrize(
        "check", [check_strategy_proofness, check_non_bossiness, check_pareto_optimality]
    )
    @pytest.mark.parametrize(
        "allocation, shown",
        [(TRUE, r"\(True, 2\)"), (NUMPY, r"\(np.int64\(1\), 2\)")],
        ids=["true", "numpy"],
    )
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_infeasible_items_raise(self, mode, allocation, shown, check):
        # each audit stops at its first profile with the mechanism's error
        report = cd.validate_allocation(SHAPE_2X2, allocation)
        assert not report.ok
        assert report.detail == f"agent 1 holds malformed bundle {allocation[1]}"
        profiles = []  # every profile the mechanism is applied to
        mech = cd.DirectMechanism("constant", lambda p: profiles.append(p) or allocation)
        with pytest.raises(AssertionError, match=self.INFEASIBLE.format(shown)):
            check(mech, SHAPE_2X2, self.MODES[mode])
        assert len(profiles) == 1

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_neutrality_reads_list_bundles(self, mode):
        as_list, as_tuple = (
            check_category_wise_neutrality(
                constant_mechanism(allocation), SHAPE_2X2, self.MODES[mode]
            ).to_json()
            for allocation in (self.LIST, cd.Allocation({1: (1, 2), 2: (2, 1)}))
        )
        assert not as_list["passed"]
        assert as_list["checked"] == 1
        assert as_list == as_tuple

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_neutral_mechanism_with_list_bundles_passes(self, mode):
        sd = sd_direct([1, 2])
        listed = cd.DirectMechanism(
            sd.name,
            lambda profile: cd.Allocation(
                {j: list(b) for j, b in sd.apply(profile).bundles.items()}
            ),
        )
        verdict = check_category_wise_neutrality(listed, SHAPE_2X2, self.MODES[mode])
        assert verdict.passed
        assert verdict == check_category_wise_neutrality(sd, SHAPE_2X2, self.MODES[mode])

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_neutrality_with_true_items(self, mode):
        mech = constant_mechanism(self.TRUE)
        with pytest.raises(AssertionError, match=self.INFEASIBLE.format(r"\(True, 2\)")):
            check_category_wise_neutrality(mech, SHAPE_2X2, self.MODES[mode])


class TestExhaustiveVerdicts:
    def test_serial_dictatorship_passes_everything(self):
        verdicts = check_all(sd_direct([1, 2]), SHAPE_2X2, Exhaustive())
        assert all(v.passed for v in verdicts)
        assert {v.axiom for v in verdicts} == {
            "strategy-proofness",
            "non-bossiness",
            "category-wise-neutrality",
            "pareto-optimality",
        }
        assert all(v.coverage == "exhaustive" for v in verdicts)

    def test_welfare_maximizer_manipulable(self):
        verdict = check_strategy_proofness(welfare_maximizer(), SHAPE_2X2, Exhaustive())
        assert not verdict.passed
        cx = verdict.counterexample
        true_pref = cx.profile.pref(cx.agent)
        assert true_pref.rank_of(cx.alternative[cx.agent]) < true_pref.rank_of(
            cx.baseline[cx.agent]
        )

    def test_worst_pick_fails_pareto(self):
        verdict = check_pareto_optimality(worst_pick_sd([1, 2]), SHAPE_2X2, Exhaustive())
        assert not verdict.passed
        cx = verdict.counterexample
        # the alternative dominates: nobody worse off, someone strictly better
        deltas = [
            cx.profile.pref(j).rank_of(cx.baseline[j])
            - cx.profile.pref(j).rank_of(cx.alternative[j])
            for j in (1, 2)
        ]
        assert min(deltas) >= 0 and max(deltas) > 0

    def test_constant_mechanism_fails_neutrality(self):
        mech = constant_mechanism(cd.Allocation({1: (1, 2), 2: (2, 1)}))
        verdict = check_category_wise_neutrality(mech, SHAPE_2X2, Exhaustive())
        assert not verdict.passed

    def test_budget_refusal(self):
        with pytest.raises(cd.CapacityError):
            check_strategy_proofness(sd_direct([1, 2]), SHAPE_2X2, Exhaustive(budget=10))

    @pytest.mark.parametrize("budget", [0, -1, 2.5, True])
    def test_budget_below_one_is_bad_input(self, budget):
        with pytest.raises(cd.ValidationError, match="budget of at least 1 check"):
            Exhaustive(budget=budget)

    def test_check_all_applies_the_mechanism_once_per_profile_and_walk(self):
        applied = []

        def counting(profile):
            applied.append(profile)
            return sd_direct([1, 2]).fn(profile)

        verdicts = check_all(cd.DirectMechanism("counting", counting), SHAPE_2X2, Exhaustive())
        assert all(v.passed for v in verdicts)
        # 576 profiles: one application each in the shared deviation walk and
        # in the Pareto audit, three in the neutrality audit (the profile and
        # its one relabeling in each of two categories)
        assert len(applied) == 576 + 3 * 576 + 576 == 2880


class TestAuditModes:
    @pytest.mark.parametrize("mode", [None, "exhaustive", Exhaustive, {"count": 5, "seed": 0}])
    @pytest.mark.parametrize(
        "check",
        [
            check_strategy_proofness,
            check_non_bossiness,
            check_category_wise_neutrality,
            check_pareto_optimality,
            check_all,
        ],
    )
    def test_unknown_mode_refused_before_any_profile(self, check, mode):
        # each of these raised AttributeError on the missing seed
        applied = []

        def counting(profile):
            applied.append(profile)
            return sd_direct([1, 2]).fn(profile)

        mechanism = cd.DirectMechanism("counting", counting)
        with pytest.raises(cd.ValidationError, match="audit mode must be Exhaustive or Sampled"):
            check(mechanism, SHAPE_2X2, mode)
        assert applied == []


class TestSampledVerdicts:
    @pytest.mark.parametrize("count", [0, -1, 2.5, True])
    def test_sampled_mode_needs_a_count(self, count):
        # a count of 0 used to pass every axiom after zero checks
        with pytest.raises(cd.ValidationError, match="count of at least 1"):
            Sampled(count=count, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_sampled_mode_rejects_bad_seed(self, seed):
        with pytest.raises(cd.ValidationError, match="seed must be a non-negative integer"):
            Sampled(count=5, seed=seed)

    def test_sampled_pareto_guard_runs_before_any_audit(self):
        # (10!)**1 allocations exceed the enumeration cap; no audit may start
        applied = []

        def counting(profile):
            applied.append(profile)
            return sd_direct(list(profile.shape.agents())).fn(profile)

        mechanism = cd.DirectMechanism("counting", counting)
        with pytest.raises(cd.CapacityError, match="more than 1000000 allocations"):
            check_all(mechanism, cd.DomainShape(10, 1), Sampled(count=5, seed=0))
        assert applied == []

    def test_sampled_pareto_memory_at_2x16(self):
        # 65,536 bundles and allocations: per-(agent, bundle) bitsets over
        # the allocations would hold 1 GiB; the row scan holds O(A * n)
        shape = cd.DomainShape(2, 16)
        allocations = all_allocations(shape)  # cached by the enumeration, not the audit
        axioms._allocation_rows.cache_clear()
        try:
            for mechanism in (sd_direct([1, 2]), worst_pick_sd([2, 1])):
                tracemalloc.start()
                try:
                    verdict = check_pareto_optimality(mechanism, shape, Sampled(count=1, seed=5))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 64 * 2**20
                rng = np.random.default_rng(5)
                prefs = [cd.uniform_preference(shape, rng) for _ in shape.agents()]
                base = mechanism.apply(cd.Profile(shape, prefs))
                first = first_dominating(cd.Profile(shape, prefs), base)
                assert verdict.passed is (first is None)
                if first is not None:
                    assert verdict.counterexample.alternative == allocations[first]
        finally:
            axioms._allocation_rows.cache_clear()
            all_allocations.cache_clear()

    def test_bossy_fixture_bosses_at_three_agents(self):
        verdict = check_non_bossiness(
            bossy_conditional_sd(), SHAPE_3X2, Sampled(count=2000, seed=0)
        )
        assert not verdict.passed
        cx = verdict.counterexample
        mech = bossy_conditional_sd()
        base = mech.apply(cx.profile)
        deviated = cd.Profile(
            SHAPE_3X2,
            [
                cx.deviation if j == cx.agent else cx.profile.pref(j)
                for j in (1, 2, 3)
            ],
        )
        alt = mech.apply(deviated)
        assert alt[cx.agent] == base[cx.agent]
        assert alt.bundles != base.bundles

    def test_non_neutral_fixture_label_sensitive(self):
        verdict = check_category_wise_neutrality(
            non_neutral_conditional_sd(), SHAPE_3X2, Sampled(count=2000, seed=0)
        )
        assert not verdict.passed
        cx = verdict.counterexample
        mech = non_neutral_conditional_sd()
        relabeled = apply_category_permutation(cx.profile, cx.category, cx.permutation)
        lhs = mech.apply(relabeled)
        rhs = apply_category_permutation(
            mech.apply(cx.profile), cx.category, cx.permutation
        )
        assert lhs.bundles == cx.baseline.bundles
        assert rhs.bundles == cx.alternative.bundles
        assert lhs.bundles != rhs.bundles

    def test_sampled_runs_are_reproducible(self):
        a = check_strategy_proofness(
            welfare_maximizer(), SHAPE_2X2, Sampled(count=300, seed=5)
        )
        b = check_strategy_proofness(
            welfare_maximizer(), SHAPE_2X2, Sampled(count=300, seed=5)
        )
        assert a.passed == b.passed
        assert a.checked == b.checked
        if not a.passed:
            assert a.counterexample.profile.pref(1) == b.counterexample.profile.pref(1)

    def test_verdict_json_replayable(self):
        verdict = check_non_bossiness(
            bossy_conditional_sd(), SHAPE_3X2, Sampled(count=2000, seed=0)
        )
        doc = verdict.to_json()
        assert doc["axiom"] == "non-bossiness"
        assert doc["passed"] is False
        back = cd.profile_from_json(doc["counterexample"]["profile"])
        assert back.pref(1) == verdict.counterexample.profile.pref(1)


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestGoldenVerdicts:
    """Full verdict documents pinned by digest, with the per-axiom outcome
    and ``checked`` count spelled out so a change shows where it happened.

    A change to any digest here is a change to a seeded stream, an
    enumeration order or a counterexample, and is recorded in CHANGES.md."""

    CASES = {
        "sd": (
            lambda: sd_direct([1, 2]),
            SHAPE_2X2,
            Exhaustive(),
            [True, True, True, True],
            [26496, 26496, 1152, 2304],
            "6ceb6fea93bbedcd82718ec50175102ac34d330e326e6625e458c2f0cf3dca29",
        ),
        "welfare": (
            welfare_maximizer,
            SHAPE_2X2,
            Exhaustive(),
            [False, True, True, True],
            [25, 26496, 1152, 2304],
            "73940a4df347edd2ce8a810a0404ab32aed793900864c83fc65c4e496cd6e177",
        ),
        "bossy": (
            bossy_conditional_sd,
            SHAPE_2X2,
            Exhaustive(),
            [True, True, True, True],
            [26496, 26496, 1152, 2304],
            "3f066096a17496c349b2955b8fbfe209ff08effd047bb6e19f180a1eaa75c461",
        ),
        "nonneutral": (
            non_neutral_conditional_sd,
            SHAPE_2X2,
            Exhaustive(),
            [True, True, True, True],
            [26496, 26496, 1152, 2304],
            "c54362c0f01e905d5b6c99c4965ede889ea186f8badb574eaedb87f6c8646358",
        ),
        "worst-pick": (
            lambda: worst_pick_sd([1, 2]),
            SHAPE_2X2,
            Exhaustive(),
            [False, True, True, False],
            [1, 26496, 1152, 27],
            "460f066fa791d35df5a5ac7c5fa7c9f88948f5fe0dd5b90a76be4f86951e6890",
        ),
        "bossy-3x2-sampled": (
            bossy_conditional_sd,
            SHAPE_3X2,
            Sampled(count=2000, seed=0),
            [True, False, True, True],
            [2000, 112, 1652, 2000],
            "adfd964218a86a1bbc627f5643f9552e5dadb600923aa5b3bc23a845fbfd023f",
        ),
        "nonneutral-3x2-sampled": (
            non_neutral_conditional_sd,
            SHAPE_3X2,
            Sampled(count=2000, seed=0),
            [True, True, False, True],
            [2000, 2000, 29, 2000],
            "c83aa60bc8c26afaf28e873051e2eaeacacc164eeeb2b8f342ad14fc4e1af1cb",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_check_all_pinned(self, name):
        make, shape, mode, passed, checked, digest = self.CASES[name]
        docs = [v.to_json() for v in check_all(make(), shape, mode)]
        assert [d["passed"] for d in docs] == passed
        assert [d["checked"] for d in docs] == checked
        assert _digest(docs) == digest

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_shared_walk_matches_single_axiom_checks(self, name):
        # check_all audits the first two axioms in one walk; each check run
        # on its own is the reference
        make, shape, mode = self.CASES[name][:3]
        shared = [v.to_json() for v in check_all(make(), shape, mode)[:2]]
        alone = [
            check(make(), shape, mode).to_json()
            for check in (check_strategy_proofness, check_non_bossiness)
        ]
        assert shared == alone

    def test_cli_default_pinned(self, capsys):
        assert main(["check-axioms", "--mechanism", "sd", "--n", "2", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "85a765a77691a5dc02dc6703e1f695c06d9f3200abf916482192f92a6e704779"
        )
