import hashlib
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import catdom as cd
from catdom import domain, mallows
from catdom.mallows import (
    CSV_HEADER,
    DEFAULT_GRID,
    ExperimentConfig,
    MechanismConfig,
    _cell_stats,
    _draw,
    results_to_csv,
    run_experiment,
)


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
    ``_draw`` from one ``rng.random((count, m))``, each row's bundle indices
    inserted into a list, one list of indices per draw."""
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
    """``_draw``'s block as preferences, through the sampler's own check."""
    ref = params.reference
    return cd.Preference._from_rows(ref.shape, _draw(ref.indices, params.phi, count, rng))


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
        assert cd.kendall_tau(ref, ref) == 0
        assert cd.kendall_tau(ref, rev) == 6
        assert cd.kendall_tau(rev, ref) == 6

    @settings(max_examples=100)
    @given(st.integers(2, 5), st.data())
    def test_matches_pair_counting(self, m, data):
        shape = line_shape(m)
        items = list(range(1, m + 1))
        first = pref_from_items(shape, data.draw(st.permutations(items)))
        second = pref_from_items(shape, data.draw(st.permutations(items)))
        assert cd.kendall_tau(first, second) == brute_tau(first, second)

    def test_shape_mismatch(self):
        a = pref_from_items(line_shape(2), [1, 2])
        b = pref_from_items(line_shape(3), [1, 2, 3])
        with pytest.raises(cd.ValidationError):
            cd.kendall_tau(a, b)


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
            assert cd.mallows_pmf(params, ranking) == pytest.approx(want)

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
            want = exact ** cd.kendall_tau(ranking, ref) / z
            got = cd.mallows_pmf(cd.MallowsParams(ref, phi), ranking)
            assert got == pytest.approx(float(want), rel=1e-12)

    def test_uniform_at_phi_one(self):
        shape = cd.DomainShape(2, 2)
        ref = cd.Preference(shape, list(shape.bundles()))
        params = cd.MallowsParams(ref, 1.0)
        for perm in itertools.permutations(list(shape.bundles())):
            ranking = cd.Preference(shape, perm)
            assert cd.mallows_pmf(params, ranking) == pytest.approx(1 / 24)

    @pytest.mark.parametrize("phi", [0.1, 0.5, 0.9, 1.0])
    def test_total_mass(self, phi):
        shape = cd.DomainShape(2, 2)
        ref = cd.Preference(shape, list(shape.bundles()))
        params = cd.MallowsParams(ref, phi)
        total = sum(
            cd.mallows_pmf(params, cd.Preference(shape, perm))
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
            want = cd.mallows_pmf(params, ranking)
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
        block = _draw(params.reference.indices, params.phi, count, rng)
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

    @pytest.mark.parametrize("phi", [0.5, 1.0])
    def test_draw_from_a_repeated_index_is_refused(self, phi):
        # _draw does not check its reference; the block check refuses the rows
        shape = cd.DomainShape(2, 2)
        block = _draw([0, 1, 1, 3], phi, 3, np.random.default_rng(0))
        bundle = domain.bundle_table(shape)[1]
        with pytest.raises(cd.ValidationError, match=re.escape(f"bundle {bundle} appears twice")):
            cd.Preference.from_indices(shape, [0, 1, 1, 3])
        with pytest.raises(cd.ValidationError, match=re.escape(f"bundle {bundle} appears twice")):
            cd.Preference._from_rows(shape, block)

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
        # each replicate's reference and the rng state after it, as _draw sees them
        seen = []

        def recording_draw(reference, phi, count, rng):
            seen.append((list(reference), rng.bit_generator.state))
            return _draw(reference, phi, count, rng)

        monkeypatch.setattr(mallows, "_draw", recording_draw)
        config = ExperimentConfig(p=p, n_values=(n,), phis=(0.5,), samples=2, seed=11)
        run_experiment(config)
        assert len(seen) == 2
        shape = cd.DomainShape(n, p)
        for index, (reference, state) in enumerate(seen):
            rng = np.random.default_rng([11, index])
            assert reference == list(cd.uniform_preference(shape, rng).indices)
            after = np.random.default_rng()
            after.bit_generator.state = state
            assert after.random() == rng.random()

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
