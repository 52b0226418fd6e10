import hashlib
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import catdom as cd
from catdom import mallows
from catdom.mallows import (
    CSV_HEADER,
    DEFAULT_GRID,
    ExperimentConfig,
    MechanismConfig,
    _cell_stats,
    results_to_csv,
    run_experiment,
)

from conftest import batched_draw, kendall_tau, mallows_pmf, profile_views, views_by_value


def line_shape(m):
    return cd.DomainShape(m, 1)


def pref_from_items(shape, items):
    return cd.Preference(shape, [(d,) for d in items])


def rim_oracle(params, rng):
    """Repeated insertion with a searched weight table: per element, the
    cumulative weights phi**0 + ... + phi**r are searched for one scaled
    uniform and the element goes r places above the bottom. The weights of
    element k are the first k entries of one running sum (an accumulate adds
    in order, so each prefix equals its own cumsum bit for bit)."""
    ref = params.reference.order
    m = len(ref)
    u = rng.random(m)
    weights = np.cumsum(params.phi ** np.arange(m))
    out = []
    for k in range(1, m + 1):
        cw = weights[:k]
        r = int(np.searchsorted(cw, u[k - 1] * cw[-1], side="right"))
        out.insert(k - 1 - r, ref[k - 1])
    return cd.Preference(params.reference.shape, out)


def list_insert_draw(params, count, rng):
    """The sampler's insertion step with ``list.insert``: the same slots as
    ``batched_draw`` from one ``rng.random((count, m))``, each row's bundle
    indices inserted into a list, one list of indices per draw."""
    below = np.arange(params.reference.shape.bundle_count, dtype=float)
    x = rng.random((count, len(below)))
    if params.phi == 1:
        r = np.floor(x * (below + 1))
    else:
        log_phi = math.log(params.phi)
        r = np.floor(np.log1p(x * np.expm1((below + 1) * log_phi)) / log_phi)
    slots = np.maximum(below - r, 0).astype(np.intp)
    draws = []
    for row in slots:
        out = []
        for index, slot in zip(params.reference.indices, row.tolist()):
            out.insert(slot, index)
        draws.append(out)
    return draws


def draw_prefs(params, count, rng):
    """``batched_draw``'s block as preferences, each row through the checked
    path."""
    ref = params.reference
    block = batched_draw(ref.indices, params.phi, count, rng)
    return [cd.Preference.from_indices(ref.shape, row) for row in block.tolist()]


def mean_ci_oracle(values):
    """One cell's mean and 95% CI half-width from 1-D numpy reductions."""
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    ci = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return mean, ci


def brute_tau(first, second):
    """Count discordant pairs directly."""
    bundles = list(first.shape.bundles())
    count = 0
    for a, b in itertools.combinations(bundles, 2):
        fa, fb = first.rank_of(a), first.rank_of(b)
        sa, sb = second.rank_of(a), second.rank_of(b)
        if (fa - fb) * (sa - sb) < 0:
            count += 1
    return count


class TestKendallTau:
    def test_identity_and_reversal(self):
        shape = line_shape(4)
        ref = pref_from_items(shape, [1, 2, 3, 4])
        rev = pref_from_items(shape, [4, 3, 2, 1])
        assert kendall_tau(ref, ref) == 0
        assert kendall_tau(ref, rev) == 6
        assert kendall_tau(rev, ref) == 6

    @settings(max_examples=100)
    @given(st.integers(2, 5), st.data())
    def test_matches_pair_counting(self, m, data):
        shape = line_shape(m)
        items = list(range(1, m + 1))
        first = pref_from_items(shape, data.draw(st.permutations(items)))
        second = pref_from_items(shape, data.draw(st.permutations(items)))
        assert kendall_tau(first, second) == brute_tau(first, second)

    def test_reads_indices_only(self):
        shape = cd.DomainShape(2, 3)
        first = cd.Preference.from_indices(shape, [3, 1, 4, 0, 5, 2, 7, 6])
        second = cd.Preference.from_indices(shape, range(8))
        assert kendall_tau(first, second) == 8
        # neither ranking's bundle order is built
        assert first._order is None and second._order is None

    def test_shape_mismatch(self):
        a = pref_from_items(line_shape(2), [1, 2])
        b = pref_from_items(line_shape(3), [1, 2, 3])
        with pytest.raises(cd.ValidationError):
            kendall_tau(a, b)


class TestPmf:
    def test_three_element_table(self):
        shape = line_shape(3)
        ref = pref_from_items(shape, [1, 2, 3])
        params = cd.MallowsParams(ref, 0.5)
        # normalizer (1)(1 + 1/2)(1 + 1/2 + 1/4) = 21/8
        table = {
            (1, 2, 3): 8 / 21,
            (1, 3, 2): 4 / 21,
            (2, 1, 3): 4 / 21,
            (2, 3, 1): 2 / 21,
            (3, 1, 2): 2 / 21,
            (3, 2, 1): 1 / 21,
        }
        for items, want in table.items():
            ranking = pref_from_items(shape, items)
            assert mallows_pmf(params, ranking) == pytest.approx(want)

    @pytest.mark.parametrize("n, p", [(2, 2), (3, 1), (2, 3)])
    @pytest.mark.parametrize("phi", [0.1, 0.5, 0.9, 1.0])
    def test_matches_exact_normalizer(self, n, p, phi):
        # the normalizer summed term by term in exact arithmetic
        shape = cd.DomainShape(n, p)
        exact = Fraction(phi)
        z = math.prod(
            sum(exact**r for r in range(k)) for k in range(1, shape.bundle_count + 1)
        )
        ref = cd.uniform_preference(shape, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for _ in range(5):
            ranking = cd.uniform_preference(shape, rng)
            want = exact ** kendall_tau(ranking, ref) / z
            got = mallows_pmf(cd.MallowsParams(ref, phi), ranking)
            assert got == pytest.approx(float(want), rel=1e-12)

    def test_uniform_at_phi_one(self):
        shape = cd.DomainShape(2, 2)
        ref = cd.Preference(shape, list(shape.bundles()))
        params = cd.MallowsParams(ref, 1.0)
        for perm in itertools.permutations(list(shape.bundles())):
            ranking = cd.Preference(shape, perm)
            assert mallows_pmf(params, ranking) == pytest.approx(1 / 24)

    @pytest.mark.parametrize("phi", [0.1, 0.5, 0.9, 1.0])
    def test_total_mass(self, phi):
        shape = cd.DomainShape(2, 2)
        ref = cd.Preference(shape, list(shape.bundles()))
        params = cd.MallowsParams(ref, phi)
        total = sum(
            mallows_pmf(params, cd.Preference(shape, perm))
            for perm in itertools.permutations(list(shape.bundles()))
        )
        assert total == pytest.approx(1.0)

    def test_phi_range_checked(self):
        shape = line_shape(2)
        ref = pref_from_items(shape, [1, 2])
        with pytest.raises(cd.ValidationError):
            cd.MallowsParams(ref, 0.0)
        with pytest.raises(cd.ValidationError):
            cd.MallowsParams(ref, 1.5)

    @pytest.mark.parametrize("phi", ["0.5", True, None, 0.5j, [0.5]])
    def test_phi_must_be_real(self, phi):
        # the same check as ExperimentConfig's phis
        ref = pref_from_items(line_shape(2), [1, 2])
        with pytest.raises(cd.ValidationError, match="dispersion phi must be a real number"):
            cd.MallowsParams(ref, phi)

    @pytest.mark.parametrize("reference", ["abc", None, ((1,), (2,)), [1, 0]])
    def test_reference_must_be_a_preference(self, reference):
        # "abc" used to be accepted, and sample_mallows on it ended in AttributeError
        with pytest.raises(cd.ValidationError, match="reference must be a Preference"):
            cd.MallowsParams(reference, 0.5)

    @pytest.mark.parametrize("phi", [np.float64(0.5), 1, 0.25])
    def test_real_phis_accepted(self, phi):
        ref = pref_from_items(line_shape(2), [1, 2])
        assert cd.MallowsParams(ref, phi).phi == phi


class TestSampler:
    def test_seeded_reproducibility(self):
        shape = cd.DomainShape(2, 2)
        ref = cd.Preference(shape, list(shape.bundles()))
        params = cd.MallowsParams(ref, 0.5)
        a = [cd.sample_mallows(params, np.random.default_rng(3)) for _ in range(5)]
        b = [cd.sample_mallows(params, np.random.default_rng(3)) for _ in range(5)]
        assert a == b

    def test_draws_are_valid_rankings(self):
        shape = cd.DomainShape(3, 1)
        ref = cd.Preference(shape, list(shape.bundles()))
        params = cd.MallowsParams(ref, 0.7)
        rng = np.random.default_rng(9)
        for _ in range(50):
            ranking = cd.sample_mallows(params, rng)
            assert isinstance(ranking, cd.Preference)
            assert sorted(ranking.order) == sorted(ref.order)

    def test_concentrates_near_reference(self):
        shape = line_shape(4)
        ref = pref_from_items(shape, [1, 2, 3, 4])
        params = cd.MallowsParams(ref, 0.1)
        rng = np.random.default_rng(123)
        hits = sum(cd.sample_mallows(params, rng) == ref for _ in range(500))
        # pmf of the reference itself is about 0.73 at phi = 0.1
        assert hits > 300

    def test_empirical_matches_pmf_loosely(self):
        shape = line_shape(3)
        ref = pref_from_items(shape, [1, 2, 3])
        params = cd.MallowsParams(ref, 0.5)
        rng = np.random.default_rng(77)
        m = 20_000
        counts = {}
        for _ in range(m):
            s = cd.sample_mallows(params, rng)
            counts[s] = counts.get(s, 0) + 1
        for items in itertools.permutations([1, 2, 3]):
            ranking = pref_from_items(shape, items)
            want = mallows_pmf(params, ranking)
            got = counts.get(ranking, 0) / m
            se = math.sqrt(want * (1 - want) / m)
            assert abs(got - want) < 4 * se

    ORACLE_PHIS = (0.1, 0.5, 0.9, 0.99, 1.0)

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (8, 2), (3, 4), (4, 4), (2, 6)])
    def test_matches_rim_oracle(self, n, p):
        shape = cd.DomainShape(n, p)
        for seed in range(200):
            ref = cd.uniform_preference(shape, np.random.default_rng([seed, 1]))
            for phi in self.ORACLE_PHIS:
                params = cd.MallowsParams(ref, phi)
                rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                assert cd.sample_mallows(params, rng) == rim_oracle(params, oracle_rng), (
                    seed,
                    phi,
                )
                assert rng.random() == oracle_rng.random()

    def test_matches_rim_oracle_4x6(self):
        shape = cd.DomainShape(4, 6)
        for seed in range(20):
            ref = cd.uniform_preference(shape, np.random.default_rng([seed, 1]))
            params = cd.MallowsParams(ref, self.ORACLE_PHIS[seed % len(self.ORACLE_PHIS)])
            draw = cd.sample_mallows(params, np.random.default_rng(seed))
            assert draw == rim_oracle(params, np.random.default_rng(seed)), seed

    @pytest.mark.parametrize("phi", [0.5, 0.99, 1.0])
    def test_extreme_uniforms(self, phi):
        # u = 0 leaves every element at the bottom; u just below 1 sends every
        # element to the top, also where rounding puts the offset at k (at
        # phi = 0.99 it does for k = 9, 18, 26, ...)
        class Constant:
            def __init__(self, u):
                self.u = u

            def random(self, size):
                return np.full(size, self.u)

        shape = cd.DomainShape(2, 5)
        ref = cd.uniform_preference(shape, np.random.default_rng(5))
        params = cd.MallowsParams(ref, phi)
        assert cd.sample_mallows(params, Constant(0.0)) == ref
        top = cd.sample_mallows(params, Constant(np.nextafter(1.0, 0.0)))
        assert top.order == ref.order[::-1]

    DRAW_PHIS = (0.1, 0.5, 0.99, 1.0)

    @pytest.mark.parametrize("n,p", [(1, 3), (2, 2), (3, 2), (8, 2), (3, 4), (2, 6), (4, 4)])
    def test_batched_draw_matches_successive_draws(self, n, p):
        shape = cd.DomainShape(n, p)
        for seed in range(25):
            ref = cd.uniform_preference(shape, np.random.default_rng([seed, 2]))
            for phi in self.DRAW_PHIS:
                params = cd.MallowsParams(ref, phi)
                count = 1 + seed % 5
                batch_rng, single_rng, oracle_rng = (np.random.default_rng(seed) for _ in range(3))
                batch = draw_prefs(params, count, batch_rng)
                assert batch == [cd.sample_mallows(params, single_rng) for _ in range(count)]
                assert batch == [rim_oracle(params, oracle_rng) for _ in range(count)]
                state = batch_rng.bit_generator.state
                assert state == single_rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_batched_draw_matches_successive_draws_4x6(self):
        shape = cd.DomainShape(4, 6)
        for seed in range(4):
            ref = cd.uniform_preference(shape, np.random.default_rng([seed, 2]))
            params = cd.MallowsParams(ref, self.DRAW_PHIS[seed])
            batch_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            batch = draw_prefs(params, 4, batch_rng)
            assert batch == [rim_oracle(params, oracle_rng) for _ in range(4)], seed
            assert batch_rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("phi", [0.5, 0.99, 1.0])
    def test_batched_draw_rows_with_extreme_uniforms(self, phi):
        # rows of 0, of just below 1 (where rounding puts offsets at k) and of
        # one half, drawn together and one at a time
        class Rows:
            def __init__(self, rows):
                self.rows = rows

            def random(self, size):
                assert size == self.rows.shape
                return self.rows.copy()

        shape = cd.DomainShape(2, 5)
        ref = cd.uniform_preference(shape, np.random.default_rng(5))
        params = cd.MallowsParams(ref, phi)
        levels = (0.0, np.nextafter(1.0, 0.0), 0.5, np.nextafter(1.0, 0.0))
        rows = np.array([np.full(shape.bundle_count, u) for u in levels])
        batch = draw_prefs(params, len(levels), Rows(rows))
        assert batch == [cd.sample_mallows(params, Rows(rows[i : i + 1])) for i in range(4)]
        assert batch[0] == ref
        assert batch[1].order == batch[3].order == ref.order[::-1]

    DRAW_ORACLE_PHIS = (1e-6, 0.3, 0.5, 1.0)

    def check_draw_against_list_insert(self, params, count, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        block = batched_draw(params.reference.indices, params.phi, count, rng)
        assert block.shape == (count, params.reference.shape.bundle_count)
        assert block.dtype.kind == "u"
        assert block.tolist() == list_insert_draw(params, count, oracle_rng)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from(DRAW_ORACLE_PHIS),
        st.sampled_from((1, 4)),
        st.integers(0, 2**32 - 1),
    )
    def test_draw_matches_list_insert(self, n, p, phi, count, seed):
        shape = cd.DomainShape(n, p)
        ref = cd.uniform_preference(shape, np.random.default_rng([seed, 3]))
        self.check_draw_against_list_insert(cd.MallowsParams(ref, phi), count, seed)

    @pytest.mark.parametrize("n,p", [(4, 6), (2, 12)])
    def test_draw_matches_list_insert_4096_bundles(self, n, p):
        shape = cd.DomainShape(n, p)
        for seed, phi in enumerate(self.DRAW_ORACLE_PHIS):
            ref = cd.uniform_preference(shape, np.random.default_rng([seed, 3]))
            for count in (1, 4):
                self.check_draw_against_list_insert(cd.MallowsParams(ref, phi), count, seed)

    # the rows of a draw are built unchecked: each must be a permutation of
    # its reference, and equal to the checked build of its indices
    UNCHECKED_PHIS = (1e-6, 0.5, 1.0)

    @pytest.mark.parametrize("n,p", [(4, 6), (2, 12)])
    def test_draw_rows_are_permutations_of_the_reference(self, n, p):
        shape = cd.DomainShape(n, p)
        for seed, phi in enumerate(self.UNCHECKED_PHIS):
            ref = cd.uniform_preference(shape, np.random.default_rng([seed, 4]))
            block = batched_draw(ref.indices, phi, 4, np.random.default_rng(seed))
            for row in block.tolist():
                assert sorted(row) == sorted(ref.indices), (seed, phi)

    @pytest.mark.parametrize("n,p", [(4, 6), (2, 12)])
    def test_sample_mallows_matches_checked_path(self, n, p):
        shape = cd.DomainShape(n, p)
        for seed, phi in enumerate(self.UNCHECKED_PHIS):
            ref = cd.uniform_preference(shape, np.random.default_rng([seed, 5]))
            rng = np.random.default_rng(seed)
            for _ in range(2):
                draw = cd.sample_mallows(cd.MallowsParams(ref, phi), rng)
                assert type(draw.indices) is tuple
                assert set(map(type, draw.indices)) == {int}
                assert draw == cd.Preference.from_indices(shape, draw.indices), (seed, phi)

    def test_oracle_prefix_weights_equal_per_element_cumsum(self):
        for phi in self.ORACLE_PHIS:
            weights = np.cumsum(phi ** np.arange(300))
            for k in (1, 2, 17, 150, 300):
                assert np.array_equal(weights[:k], np.cumsum(phi ** np.arange(k)))

    def test_uniform_preference_seeded(self):
        shape = cd.DomainShape(3, 2)
        a = cd.uniform_preference(shape, np.random.default_rng(4))
        b = cd.uniform_preference(shape, np.random.default_rng(4))
        assert a == b
        assert sorted(a.order) == list(shape.bundles())

    @pytest.mark.parametrize("n, p", [(1, 1), (2, 2), (3, 2), (2, 3), (4, 6)])
    @pytest.mark.parametrize("seed", range(4))
    def test_uniform_preference_draws_as_permutation(self, n, p, seed):
        # the list shuffle keeps numpy's permutation stream: the same rankings,
        # and the generator left where permutation leaves it
        shape = cd.DomainShape(n, p)
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = cd.uniform_preference(shape, rng).indices
            assert list(got) == oracle.permutation(shape.bundle_count).tolist()
        assert rng.random() == oracle.random()

    @pytest.mark.parametrize("n, p", [(2, 14), (3, 8), (5, 5), (10, 4)])
    def test_uniform_preference_matches_checked_path(self, n, p):
        # a shuffled range built unchecked equals the checked build of its
        # indices, and numpy's permutation from an identically seeded
        # generator, at shapes past the property tests'
        shape = cd.DomainShape(n, p)
        rng, oracle = np.random.default_rng([n, p]), np.random.default_rng([n, p])
        for _ in range(3):
            pref = cd.uniform_preference(shape, rng)
            checked = cd.Preference.from_indices(shape, pref.indices)
            assert pref == checked
            assert pref.order == checked.order
            assert list(pref.indices) == oracle.permutation(shape.bundle_count).tolist()


class TestExperiment:
    def test_default_grid(self):
        assert len(DEFAULT_GRID) == 4
        assert DEFAULT_GRID[0] == MechanismConfig("sd", "opt")

    def test_config_validation(self):
        with pytest.raises(cd.ValidationError):
            MechanismConfig("roundrobin", "opt")
        with pytest.raises(cd.ValidationError):
            MechanismConfig("sd", "greedy")
        with pytest.raises(cd.ValidationError):
            ExperimentConfig(p=2, n_values=(2,), phis=(), samples=10, seed=1)
        with pytest.raises(cd.ValidationError):
            ExperimentConfig(p=2, n_values=(2,), phis=(1.2,), samples=10, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_config_rejects_bad_seed(self, seed):
        with pytest.raises(cd.ValidationError, match="seed must be a non-negative integer"):
            ExperimentConfig(p=2, n_values=(2,), phis=(0.5,), samples=3, seed=seed)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("samples", 2.5, "samples must be an integer, got 2.5"),
            ("samples", True, "samples must be an integer, got True"),
            ("p", 2.0, "shape dimensions must be integers, got 2, 2.0"),
            ("p", True, "shape dimensions must be integers, got 2, True"),
            ("phis", (True,), "dispersion phi must be a real number, got True"),
            ("phis", ("0.5",), "dispersion phi must be a real number, got '0.5'"),
            ("phis", (0.5j,), "dispersion phi must be a real number, got 0.5j"),
            ("phis", (None,), "dispersion phi must be a real number, got None"),
            ("mechanisms", ("sd",), "mechanisms must be MechanismConfig entries, got 'sd'"),
            ("n_values", 3, "n_values must be a sequence, got 3"),
            ("check_bounds", "no", "check_bounds must be a bool, got 'no'"),
            ("phis", 0.5, "phis must be a sequence, got 0.5"),
            ("n_values", "23", "n_values must be a sequence, got '23'"),
            ("mechanisms", DEFAULT_GRID[0], "mechanisms must be a sequence, got MechanismConfig"),
        ],
    )
    def test_config_rejects_bad_types(self, field, value, message):
        args = dict(p=2, n_values=(2,), phis=(0.5,), samples=2, seed=0)
        args[field] = value
        with pytest.raises(cd.ValidationError, match=re.escape(message)):
            ExperimentConfig(**args)

    def test_config_accepts_real_phis(self):
        config = ExperimentConfig(
            p=2, n_values=(2,), phis=(np.float64(0.5), 1), samples=2, seed=0
        )
        assert len(cd.run_experiment(config)) == 4 * 2

    def test_config_checks_every_shape(self):
        # 1001**2 bundles: refused when the config is built, before any draw
        with pytest.raises(cd.CapacityError):
            ExperimentConfig(p=2, n_values=(3, 1001), phis=(0.5,), samples=4, seed=0)

    def test_repeated_n_values_get_their_own_rows(self):
        # cells are keyed by grid position: the first n=2 block is the n=(2,)
        # run, the second continues the replicate index as after n=3
        def rows(n_values):
            config = ExperimentConfig(
                p=2, n_values=n_values, phis=(0.5, 1.0), samples=6, seed=1
            )
            return run_experiment(config)

        alone, repeated, after_three = rows((2,)), rows((2, 2)), rows((3, 2))
        k = 2  # phis per n position
        assert len(repeated) == 2 * len(alone)
        for m in range(len(DEFAULT_GRID)):
            block = repeated[2 * k * m : 2 * k * (m + 1)]
            assert block[:k] == alone[k * m : k * (m + 1)]
            assert block[k:] == after_three[2 * k * m + k : 2 * k * (m + 1)]
            assert all(r.n == 2 for r in block)
            assert block[:k] != block[k:]

    def test_reproducible_and_complete(self):
        config = ExperimentConfig(
            p=2, n_values=(2, 3), phis=(0.5, 1.0), samples=30, seed=42
        )
        first = run_experiment(config)
        second = run_experiment(config)
        assert first == second
        assert len(first) == len(DEFAULT_GRID) * 2 * 2
        cells = {(r.mechanism, r.behavior, r.n, r.phi) for r in first}
        assert len(cells) == len(first)

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 4), (4, 6)])
    def test_reference_uses_the_stream_as_uniform_preference(self, monkeypatch, n, p):
        # each replicate's reference, with its stream's state when it was
        # drawn, and the uniforms the block holds before its slots are taken
        references, blocks = [], []
        uniform, slots = mallows.uniform_preference, mallows._slots

        def recording_uniform(shape, rng):
            state = rng.bit_generator.state
            references.append((state, uniform(shape, rng)))
            return references[-1][1]

        def recording_slots(x, phi):
            blocks.append(x.copy())
            slots(x, phi)

        monkeypatch.setattr(mallows, "uniform_preference", recording_uniform)
        monkeypatch.setattr(mallows, "_slots", recording_slots)
        config = ExperimentConfig(p=p, n_values=(n,), phis=(0.5,), samples=2, seed=11)
        run_experiment(config)
        shape = cd.DomainShape(n, p)
        m = shape.bundle_count
        assert len(references) == 2
        [uniforms] = blocks  # both replicates in one block
        assert uniforms.shape == (2 * n, m)
        for index, (state, reference) in enumerate(references):
            # drawn first on the replicate's stream, default_rng([11, index])
            rng = np.random.default_rng([11, index])
            assert state == rng.bit_generator.state
            assert reference.indices == cd.uniform_preference(shape, rng).indices
            # the rng state after the reference is unchanged: the uniforms
            # are its next draws
            want = rng.random((n, m))
            assert np.array_equal(uniforms[index * n : (index + 1) * n], want)

    @pytest.mark.parametrize("phi", TestSampler.UNCHECKED_PHIS)
    def test_replicate_plays_the_checked_build_of_its_draw(self, monkeypatch, phi):
        # two 4x6 replicates in one block: every mechanism plays the block's
        # views, in which replicate r's agents hold the checked build of
        # rows r * n to r * n + n - 1 of the block _place returned, their
        # rankings and their position masks
        blocks, played = [], []
        place, realized_ranks = mallows._place, mallows._realized_ranks

        def recording_place(slots, references):
            blocks.append(place(slots, references))
            return blocks[-1]

        def recording_ranks(order, views, behaviors):
            played.append(views)
            return realized_ranks(order, views, behaviors)

        monkeypatch.setattr(mallows, "_place", recording_place)
        monkeypatch.setattr(mallows, "_realized_ranks", recording_ranks)
        config = ExperimentConfig(p=6, n_values=(4,), phis=(phi,), samples=2, seed=13)
        run_experiment(config)
        shape = cd.DomainShape(4, 6)
        [block] = blocks
        want = [cd.Preference.from_indices(shape, row) for row in block.tolist()]
        assert len(played) == len(DEFAULT_GRID)
        for masks, indices in played:
            assert [len(rankings) for rankings in indices] == [2] * 4
            for r, a in itertools.product(range(2), range(4)):
                pref = want[r * 4 + a]
                assert tuple(indices[a][r]) == pref.indices
                assert set(map(type, indices[a][r])) == {int}
                assert [by_replicate[r][a] for by_replicate in masks] == list(pref.position_masks)

    @pytest.mark.parametrize(
        "n,p,samples,rows",
        [(2, 2, 4, 6), (4, 2, 5, None), (3, 4, 3, None), (4, 6, 3, None)],
    )
    def test_study_plays_the_views_of_its_draws(self, monkeypatch, n, p, samples, rows):
        # each block's views, as every mechanism plays them, hold by value
        # those of the block's rows built one Preference per draw, masked by
        # the per-preference oracle and laid out profile by profile, with
        # the same ranks; at 2x2 a 6-row cap makes blocks of three replicates,
        # one of which holds replicates of both phis
        if rows is not None:
            monkeypatch.setattr(mallows, "_STUDY_ROWS", rows)
        blocks, played = [], []
        study_block, realized_ranks = mallows._study_block, mallows._realized_ranks

        def recording_block(*args):
            blocks.append(study_block(*args))
            return blocks[-1]

        def recording_ranks(order, views, behaviors):
            ranks = realized_ranks(order, views, behaviors)
            played.append((len(blocks) - 1, order, behaviors, views, ranks))
            return ranks

        monkeypatch.setattr(mallows, "_study_block", recording_block)
        monkeypatch.setattr(mallows, "_realized_ranks", recording_ranks)
        config = ExperimentConfig(p=p, n_values=(n,), phis=(0.3, 1.0), samples=samples, seed=23)
        run_experiment(config)
        shape = cd.DomainShape(n, p)
        assert sum(len(block) for block in blocks) == 2 * samples * n
        if rows is not None:
            assert len(blocks) == 3 and samples % (rows // n)
        assert len(played) == len(blocks) * len(DEFAULT_GRID)
        for b, order, behaviors, views, ranks in played:
            prefs = [cd.Preference.from_indices(shape, row) for row in blocks[b].tolist()]
            want = profile_views([prefs[r : r + n] for r in range(0, len(prefs), n)])
            assert views_by_value(views) == want
            assert {type(x) for rankings in views[1] for row in rankings for x in row} == {int}
            assert ranks == realized_ranks(order, want, behaviors)

    def test_large_cell_memory_is_bounded(self):
        # 24 replicates of 4x6 drawn in one block held about 27 MiB of
        # uniforms, slots and rankings; blocks under the cap, each played
        # from views of its index block, peak near 4.5
        config = ExperimentConfig(p=6, n_values=(4,), phis=(0.5,), samples=24, seed=3)
        assert mallows._STUDY_BLOCK < 24 * 4 * 4096
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_small_shape_block_memory_is_bounded(self):
        # at 2x2 the element cap alone let one block hold all 8192
        # replicates, 16384 rankings with their masks, which peaked near
        # 10 MB; under the row cap the blocks peak near 4.5
        config = ExperimentConfig(p=2, n_values=(2,), phis=(0.5,), samples=8192, seed=3)
        assert mallows._STUDY_ROWS < 8192 * 2 <= mallows._STUDY_BLOCK // 4
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    @pytest.mark.parametrize(
        "n,p,samples,lo,hi",
        [
            (2, 2, 3, 0, 9), (2, 2, 3, 4, 8), (2, 2, 4, 1, 11),
            (3, 4, 2, 3, 4), (1, 4, 5, 4, 6), (4, 3, 1, 0, 3),
        ],
    )
    def test_study_block_rows_are_each_replicates_draw(self, n, p, samples, lo, hi):
        # the study's block, each phi's rows slotted as one slice and every
        # row placed around its own replicate's reference, is row by row
        # what batched_draw gives on each replicate's stream after its
        # reference, the permutation uniform_preference draws
        phis = (1e-6, 0.5, 1.0)
        config = ExperimentConfig(p=p, n_values=(n,), phis=phis, samples=samples, seed=19)
        shape = cd.DomainShape(n, p)
        m = shape.bundle_count
        first = 2 * len(phis) * samples  # as for the third shape of a study
        block = mallows._study_block(config, shape, first, lo, hi)
        assert block.shape == ((hi - lo) * n, m)
        for k in range(lo, hi):
            rng = np.random.default_rng([19, first + k])
            reference = rng.permutation(m).tolist()
            want = batched_draw(reference, phis[k // samples], n, rng)
            assert want.dtype == block.dtype
            assert np.array_equal(block[(k - lo) * n : (k - lo + 1) * n], want)

    def test_bound_assertion_mode(self):
        config = ExperimentConfig(
            p=2,
            n_values=(3,),
            phis=(0.5,),
            samples=25,
            seed=8,
            check_bounds=True,
        )
        run_experiment(config)

    def test_empty_mechanism_grid_rejected(self):
        # refused when the config is built, before any profile is drawn
        with pytest.raises(cd.ValidationError, match="experiment grid is empty"):
            ExperimentConfig(p=2, n_values=(2,), phis=(0.5,), samples=3, seed=1, mechanisms=())

    def test_single_sample_has_zero_ci(self):
        config = ExperimentConfig(p=2, n_values=(2,), phis=(1.0,), samples=1, seed=3)
        for row in run_experiment(config):
            assert row.ci_utilitarian == 0.0
            assert row.ci_egalitarian == 0.0

    @pytest.mark.parametrize("size", [*range(1, 40), 64, 100, 128, 129, 200, 257, 1000])
    def test_cell_stats_match_per_cell_reductions(self, size):
        rng = np.random.default_rng(size)
        for high in (3, 70, 5000):
            rows = rng.integers(1, high, size=(9, size)).tolist()
            means, cis = _cell_stats(np.array(rows, dtype=float))
            assert list(zip(means, cis)) == [mean_ci_oracle(row) for row in rows]

    def test_csv_layout(self):
        config = ExperimentConfig(p=2, n_values=(2,), phis=(0.5,), samples=5, seed=2)
        text = results_to_csv(run_experiment(config))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert (
            CSV_HEADER
            == "mechanism,behavior,n,p,phi,samples,seed,mean_utilitarian,"
            "ci_utilitarian,mean_egalitarian,ci_egalitarian"
        )
        assert len(lines) == 1 + 4
        first_row = lines[1].split(",")
        assert len(first_row) == 11
        assert first_row[0] in {"sd", "balanced"}
        assert first_row[1] in {"opt", "pess"}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenStreams:
    """Seeded sampler and experiment outputs pinned byte for byte: a change
    to any random stream fails here and has to be a recorded decision."""

    def test_experiment_2x2_3x2(self):
        config = ExperimentConfig(
            p=2, n_values=(2, 3), phis=(0.5, 1.0), samples=30, seed=42
        )
        assert _sha256(results_to_csv(run_experiment(config))) == (
            "b351307bc2f63555c5253200832509eb29584c9f3ffbdcf6fe2e1dfbb7fa07c6"
        )

    def test_experiment_4x6(self):
        config = ExperimentConfig(p=6, n_values=(4,), phis=(0.5, 1.0), samples=1, seed=7)
        assert _sha256(results_to_csv(run_experiment(config))) == (
            "6028f9df805e7b95c124f15994a4e211e844eef177e401e42f6e887d10836fdb"
        )

    def test_experiment_4x6_across_blocks(self):
        # 36 replicates of 4x6 in blocks of several under the cap, one of
        # which holds replicates of both phis
        per_block = mallows._STUDY_BLOCK // (4 * 4096)
        assert 1 < per_block < 36 and 18 % per_block
        config = ExperimentConfig(p=6, n_values=(4,), phis=(0.3, 1.0), samples=18, seed=17)
        assert _sha256(results_to_csv(run_experiment(config))) == (
            "8817baeea57051524ec965742502147440717e30b9811a608721928860755612"
        )

    def test_experiment_one_sample(self):
        config = ExperimentConfig(
            p=4, n_values=(2, 3, 4), phis=(0.2, 0.7, 1.0), samples=1, seed=5
        )
        assert _sha256(results_to_csv(run_experiment(config))) == (
            "aaca88301fa98f5041d62ae2dfa3fddced716f3a0ed9b6c8039297a66c5fb008"
        )

    def test_experiment_200_samples(self):
        # cells past numpy's 128-element pairwise-summation block
        config = ExperimentConfig(p=2, n_values=(2, 4), phis=(0.3, 1.0), samples=200, seed=11)
        assert _sha256(results_to_csv(run_experiment(config))) == (
            "7b681079534b853f2f348d2b9f8498b4c96c0ba861d98f85ae08a40ced9e1830"
        )

    def test_sampler_orders_3x4(self):
        shape = cd.DomainShape(3, 4)
        lines = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            ref = cd.uniform_preference(shape, rng)
            lines.append(repr(ref.order))
            for phi in (0.3, 0.8, 1.0):
                lines.append(repr(cd.sample_mallows(cd.MallowsParams(ref, phi), rng).order))
        assert _sha256("\n".join(lines)) == (
            "3d92ce7fb2e561a92caffb65fa8de6453699467787df94681b036130c7657117"
        )


# The study's expectations at 2x2, exactly: (family, behavior) to the
# expected utilitarian and egalitarian realized rank, per phi.
EXACT_2X2 = {
    Fraction(1, 2): {
        ("sd", "opt"): (Fraction(17156, 4725), Fraction(12431, 4725)),
        ("sd", "pess"): (Fraction(18731, 4725), Fraction(25681, 9450)),
        ("balanced", "opt"): (Fraction(719, 189), Fraction(23159, 9450)),
        ("balanced", "pess"): (Fraction(17912, 4725), Fraction(2234, 945)),
    },
    Fraction(1): {
        ("sd", "opt"): (Fraction(7, 2), Fraction(5, 2)),
        ("sd", "pess"): (Fraction(23, 6), Fraction(31, 12)),
        ("balanced", "opt"): (Fraction(11, 3), Fraction(85, 36)),
        ("balanced", "pess"): (Fraction(11, 3), Fraction(41, 18)),
    },
}


# written out, so the oracle does not take its grid from the code it checks
DEFAULT_GRID_TOKENS = (("sd", "opt"), ("sd", "pess"), ("balanced", "opt"), ("balanced", "pess"))


def exact_study_2x2(phi):
    """Each default-grid mechanism's expected utilitarian and egalitarian
    realized rank at 2x2 under the study's population, by enumeration: the
    reference uniform over the 24 rankings, each of the 576 profiles
    weighted by the product of its two rankings' Mallows probabilities
    around it, phi**d / Z with a ``Fraction`` phi, and played by
    ``run_csam``."""
    shape = cd.DomainShape(2, 2)
    rankings = [cd.Preference(shape, perm) for perm in itertools.permutations(shape.bundles())]
    weights = []
    for reference in rankings:
        row = [phi ** kendall_tau(ranking, reference) for ranking in rankings]
        total = sum(row)
        weights.append([w / total for w in row])
    pairs = list(itertools.product(range(len(rankings)), repeat=2))
    prob = [sum(row[a] * row[b] for row in weights) / len(rankings) for a, b in pairs]
    assert sum(prob) == 1
    out = {}
    for family, behavior in DEFAULT_GRID_TOKENS:
        order = (cd.serial_dictatorship_order if family == "sd" else cd.balanced_order)([1, 2], 2)
        behaviors = [cd.OPTIMISTIC if behavior == "opt" else cd.PESSIMISTIC] * 2
        util = egal = Fraction(0)
        for weight, (a, b) in zip(prob, pairs):
            prefs = (rankings[a], rankings[b])
            allocation, _ = cd.run_csam(order, cd.Profile(shape, prefs), behaviors)
            ranks = [pref.rank_of(allocation[j]) for j, pref in enumerate(prefs, 1)]
            util += weight * sum(ranks)
            egal += weight * max(ranks)
        out[(family, behavior)] = (util, egal)
    return out


class TestExactExpectation:
    @pytest.mark.parametrize("phi", list(EXACT_2X2))
    def test_exact_2x2_expectations(self, phi):
        assert exact_study_2x2(phi) == EXACT_2X2[phi]

    def test_study_estimates_the_exact_expectations(self):
        # 16 statistics, each |z| <= 3.42: a two-sided 1% family-wise level
        # under a Bonferroni split (0.01 / 16 per statistic). Seeds 1 to 30
        # all passed, the largest |z| 3.04; seed 1 is the first of them.
        phis = (0.5, 1.0)
        config = ExperimentConfig(p=2, n_values=(2,), phis=phis, samples=4000, seed=1)
        results = run_experiment(config)
        assert len(results) == 8
        for r in results:
            util, egal = EXACT_2X2[Fraction(r.phi)][(r.mechanism, r.behavior)]
            for mean, ci, exact in (
                (r.mean_utilitarian, r.ci_utilitarian, util),
                (r.mean_egalitarian, r.ci_egalitarian, egal),
            ):
                z = (mean - float(exact)) / (ci / 1.96)
                assert abs(z) <= 3.42, (r, float(exact), z)
