import copy
import dataclasses
import gc
import itertools
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import catdom as cd
from catdom import adversarial, axioms, bounds, domain, engine, mallows, orders, spne
from catdom.domain import CAPACITY_LIMIT, AllocationCheck, build_position_masks
from catdom.mallows import _draw

from conftest import SHAPE_2X2, SHAPE_3X2, pref_of


class TestDomainShape:
    def test_bundle_count(self):
        assert SHAPE_3X2.bundle_count == 9
        assert cd.DomainShape(2, 3).bundle_count == 8
        assert cd.DomainShape(1, 1).bundle_count == 1

    def test_bundles_ascending(self):
        assert list(SHAPE_2X2.bundles()) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_agents_and_categories(self):
        assert list(SHAPE_3X2.agents()) == [1, 2, 3]
        assert list(SHAPE_3X2.categories()) == [1, 2]

    @pytest.mark.parametrize("n,p", [(0, 1), (1, 0), (-2, 3)])
    def test_rejects_nonpositive(self, n, p):
        with pytest.raises(cd.ValidationError):
            cd.DomainShape(n, p)

    @pytest.mark.parametrize("n,p", [(True, 2), (2, True), (2.0, 2)])
    def test_rejects_non_int_dimensions(self, n, p):
        with pytest.raises(cd.ValidationError, match="shape dimensions must be integers"):
            cd.DomainShape(n, p)

    def test_rejects_huge_bundle_space(self):
        with pytest.raises(cd.CapacityError):
            cd.DomainShape(10, 7)  # 10**7 > CAPACITY_LIMIT
        assert 10 ** 7 > CAPACITY_LIMIT

    def test_capacity_guard_runs_before_the_power(self):
        # 10**6 ** 10**6 has six million digits; the guard stops after two factors
        with pytest.raises(cd.CapacityError):
            cd.DomainShape(10**6, 10**6)
        assert cd.DomainShape(1, 10**6).bundle_count == 1

    @pytest.mark.parametrize("n, p", [(2, 2**70), (1, CAPACITY_LIMIT + 1)])
    def test_rejects_too_many_categories(self, n, p):
        # 2**70 overflowed itertools.repeat in the guard, and with n == 1 any
        # p passed: a later build of p rounds or components ran out of memory
        with pytest.raises(cd.CapacityError, match="categories exceed the capacity limit"):
            cd.DomainShape(n, p)

    def test_validate_bundle(self):
        SHAPE_2X2.validate_bundle((2, 1))
        with pytest.raises(cd.ValidationError):
            SHAPE_2X2.validate_bundle((2, 3))
        with pytest.raises(cd.ValidationError):
            SHAPE_2X2.validate_bundle((1, 1, 1))


def clear_shape_caches():
    """Empty every ``lru_cache`` of the package, the per-shape ones included."""
    for module in (adversarial, axioms, bounds, domain, engine, mallows, orders, spne):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


class TestShapeRegistry:
    """One live ``DomainShape`` per valid ``(n, p)``, compared by identity."""

    def test_equal_dimensions_give_one_object(self):
        assert cd.DomainShape(3, 2) is cd.DomainShape(3, 2)
        assert cd.DomainShape(n=3, p=2) is SHAPE_3X2
        assert cd.DomainShape(2, 3) is not SHAPE_3X2

    def test_hash_and_dict_keys(self):
        shape = cd.DomainShape(3, 2)
        assert shape == SHAPE_3X2 and hash(shape) == hash(SHAPE_3X2)
        table = {SHAPE_3X2: "3x2", SHAPE_2X2: "2x2"}
        assert table[cd.DomainShape(3, 2)] == "3x2"
        assert table[cd.DomainShape(2, 2)] == "2x2"
        assert cd.DomainShape(2, 3) not in table

    @pytest.mark.parametrize(
        "clone",
        [
            lambda s: pickle.loads(pickle.dumps(s)),
            copy.copy,
            copy.deepcopy,
            dataclasses.replace,
            lambda s: copy.deepcopy([s, {"shape": s}])[1]["shape"],
        ],
        ids=["pickle", "copy", "deepcopy", "replace", "deepcopy-nested"],
    )
    def test_copies_are_the_registered_object(self, clone):
        assert clone(SHAPE_3X2) is SHAPE_3X2

    def test_replace_with_changes(self):
        assert dataclasses.replace(SHAPE_3X2, p=3) is cd.DomainShape(3, 3)
        with pytest.raises(cd.ValidationError, match="need n >= 1"):
            dataclasses.replace(SHAPE_3X2, n=0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SHAPE_3X2.n = 4
        assert SHAPE_3X2.n == 3

    @pytest.mark.parametrize(
        "n, p, error, message",
        [
            (True, 2, cd.ValidationError, r"shape dimensions must be integers, got True, 2"),
            (2.0, 2, cd.ValidationError, r"shape dimensions must be integers, got 2.0, 2"),
            (np.int64(2), 2, cd.ValidationError, r"shape dimensions must be integers, got np"),
            ([2], 2, cd.ValidationError, r"shape dimensions must be integers, got \[2\], 2"),
            (0, 1, cd.ValidationError, r"shape \(0, 1\) invalid: need n >= 1 and p >= 1"),
            (10, 7, cd.CapacityError, r"bundle space 10\*\*7 exceeds the capacity limit"),
        ],
    )
    def test_invalid_shapes_raise_and_register_nothing(self, n, p, error, message):
        held = [cd.DomainShape(1, 2), cd.DomainShape(2, 2)]  # what True and 2.0 hash like
        before = dict(domain._SHAPES)
        with pytest.raises(error, match=message):
            cd.DomainShape(n, p)
        after = dict(domain._SHAPES)
        assert after.keys() <= before.keys()
        assert all(after[key] is before[key] for key in after)
        assert all(type(s.n) is int and type(s.p) is int for s in after.values())
        assert [cd.DomainShape(1, 2), cd.DomainShape(2, 2)] == held

    def test_unreferenced_shape_leaves_the_registry(self):
        shape = cd.DomainShape(7, 2)
        pref = cd.Preference.from_indices(shape, range(shape.bundle_count)[::-1])
        assert pref.position_masks and domain._item_bits(shape)
        cd.validate_allocation(shape, cd.Allocation({j: (j, j) for j in shape.agents()}))
        del shape, pref
        gc.collect()
        assert (7, 2) in domain._SHAPES  # the per-shape caches still hold it
        clear_shape_caches()
        gc.collect()
        assert (7, 2) not in domain._SHAPES
        assert cd.DomainShape(7, 2).bundle_count == 49


class TestEncoding:
    def test_known_codes(self):
        # mixed radix, 0-based: (2, 1) in a 3x2 domain is 1*3 + 0
        assert cd.encode_bundle(SHAPE_3X2, (2, 1)) == 3
        assert cd.decode_bundle(SHAPE_3X2, 3) == (2, 1)
        assert cd.encode_bundle(SHAPE_3X2, (1, 1)) == 0
        assert cd.encode_bundle(SHAPE_3X2, (3, 3)) == 8

    def test_matches_enumeration_order(self):
        for idx, bundle in enumerate(SHAPE_3X2.bundles()):
            assert cd.encode_bundle(SHAPE_3X2, bundle) == idx
            assert cd.decode_bundle(SHAPE_3X2, idx) == bundle

    @given(st.integers(1, 5), st.integers(1, 4), st.data())
    def test_roundtrip(self, n, p, data):
        shape = cd.DomainShape(n, p)
        code = data.draw(st.integers(0, shape.bundle_count - 1))
        assert cd.encode_bundle(shape, cd.decode_bundle(shape, code)) == code

    def test_decode_out_of_range(self):
        with pytest.raises(cd.ValidationError):
            cd.decode_bundle(SHAPE_2X2, 4)
        with pytest.raises(cd.ValidationError):
            cd.decode_bundle(SHAPE_2X2, -1)

    @pytest.mark.parametrize("index", [1.5, True, np.int64(1)])
    def test_decode_rejects_non_int_index(self, index):
        message = re.escape(f"bundle index {index!r} outside 0..3")
        with pytest.raises(cd.ValidationError, match=message):
            cd.decode_bundle(SHAPE_2X2, index)


def element_loop_build(shape, indices):
    """Check a ranking of bundle indices one element at a time, naming the
    first entry that is not an index or repeats one, then a wrong length."""
    count = shape.bundle_count
    seen = [False] * count
    listed = []
    for idx in indices:
        if not (type(idx) is int and 0 <= idx < count):
            raise cd.ValidationError(f"bundle index {idx!r} outside 0..{count - 1}")
        if seen[idx]:
            raise cd.ValidationError(
                f"bundle {cd.decode_bundle(shape, idx)} appears twice in preference"
            )
        seen[idx] = True
        listed.append(idx)
    if len(listed) != count:
        raise cd.ValidationError(f"preference lists {len(listed)} bundles, expected all {count}")
    return tuple(listed)


def bundle_loop_build(shape, bundles):
    """Check a ranking of bundles one bundle at a time, written from the
    definition: a wrong length first, then, in list order, the first bundle
    that is not one of the shape's (a wrong component count, or an item that
    is not a plain int in 1..n) or that repeats an earlier one."""
    bundles = [tuple(b) for b in bundles]
    count = shape.bundle_count
    if len(bundles) != count:
        raise cd.ValidationError(f"preference lists {len(bundles)} bundles, expected all {count}")
    seen = []
    for b in bundles:
        if len(b) != shape.p:
            raise cd.ValidationError(f"bundle {b} has {len(b)} components, expected {shape.p}")
        for item in b:
            if not (type(item) is int and 1 <= item <= shape.n):
                raise cd.ValidationError(f"bundle {b} holds item {item!r} outside 1..{shape.n}")
        if b in seen:
            raise cd.ValidationError(f"bundle {b} appears twice in preference")
        seen.append(b)
    return tuple(sorted(shape.bundles()).index(b) for b in bundles)


class TestPreference:
    def test_rank_of_and_bundle_at(self):
        pref = pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        assert pref.rank_of((2, 1)) == 1
        assert pref.rank_of((1, 2)) == 4
        assert pref.top() == (2, 1)
        for rank in range(1, 5):
            assert pref.rank_of(pref.bundle_at(rank)) == rank

    @pytest.mark.parametrize("rank", [0, 5, 1.5, True, "1"])
    def test_bundle_at_takes_plain_ranks_only(self, rank):
        pref = pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        with pytest.raises(cd.ValidationError, match=f"rank {rank!r} outside 1..4"):
            pref.bundle_at(rank)

    @pytest.mark.parametrize("agent", [0, 3, 1.5, True, None])
    def test_profile_pref_takes_plain_agents_only(self, agent):
        pref = pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        profile = cd.Profile(SHAPE_2X2, [pref, pref])
        with pytest.raises(cd.ValidationError, match=f"agent {agent!r} outside 1..2"):
            profile.pref(agent)

    def test_rejects_duplicates(self):
        with pytest.raises(cd.ValidationError):
            pref_of(SHAPE_2X2, ["21", "11", "21", "12"])

    def test_rejects_wrong_length(self):
        with pytest.raises(cd.ValidationError):
            pref_of(SHAPE_2X2, ["21", "11", "22"])

    def test_rejects_foreign_bundle(self):
        with pytest.raises(cd.ValidationError):
            cd.Preference(SHAPE_2X2, [(1, 1), (1, 2), (2, 1), (2, 3)])

    @pytest.mark.parametrize(
        "bad,message",
        [
            # equal and hash-equal to the canonical (1, 1), still not int items
            ((1.0, 1), "bundle (1.0, 1) holds item 1.0 outside 1..2"),
            ((np.int64(1), 1), "bundle (np.int64(1), 1) holds item np.int64(1) outside 1..2"),
            (([1], 1), "bundle ([1], 1) holds item [1] outside 1..2"),
            ((1, 1, 1), "bundle (1, 1, 1) has 3 components, expected 2"),
            ((True, 1), "bundle (True, 1) holds item True outside 1..2"),
        ],
    )
    def test_rejects_non_int_items(self, bad, message):
        with pytest.raises(cd.ValidationError, match=re.escape(message)):
            cd.Preference(SHAPE_2X2, [bad, (1, 2), (2, 1), (2, 2)])

    @pytest.mark.parametrize(
        "bad,message",
        [
            ((1.0, 1), "bundle (1.0, 1) holds item 1.0 outside 1..2"),
            ((True, 1), "bundle (True, 1) holds item True outside 1..2"),
            ((np.int64(1), 1), "bundle (np.int64(1), 1) holds item np.int64(1) outside 1..2"),
            ((1, 1, 1), "bundle (1, 1, 1) has 3 components, expected 2"),
            ((1, 3), "bundle (1, 3) holds item 3 outside 1..2"),
        ],
    )
    def test_rank_of_rejects(self, bad, message):
        pref = pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        with pytest.raises(cd.ValidationError, match=re.escape(message)):
            pref.rank_of(bad)

    def test_rank_of_accepts_any_int_sequence(self):
        pref = pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        assert pref.rank_of([1, 2]) == 4
        assert pref.rank_of((1, 2)) == 4

    def test_from_indices(self):
        pref = cd.Preference.from_indices(SHAPE_2X2, [2, 0, 3, 1])
        assert pref == pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        assert pref.order == ((2, 1), (1, 1), (2, 2), (1, 2))
        assert pref.rank_of((2, 2)) == 3

    @pytest.mark.parametrize(
        "indices,message",
        [
            ([2, 0, 2, 1], "bundle (2, 1) appears twice in preference"),
            ([2, 0, 3], "preference lists 3 bundles, expected all 4"),
            ([2, 0, 3, 1, 0], "bundle (1, 1) appears twice in preference"),
            ([2, -4, 3, 1], "bundle index -4 outside 0..3"),
            ([2, 0, 3, -1], "bundle index -1 outside 0..3"),
            ([2, 0, 4, 1], "bundle index 4 outside 0..3"),
            ([2, True, 3, 0], "bundle index True outside 0..3"),
            ([2, 0, 3, 1.0], "bundle index 1.0 outside 0..3"),
            ([2, 0, 3, np.int64(1)], "bundle index np.int64(1) outside 0..3"),
        ],
    )
    def test_from_indices_rejects_non_permutations(self, indices, message):
        with pytest.raises(cd.ValidationError, match=re.escape(message)):
            cd.Preference.from_indices(SHAPE_2X2, indices)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([(1, 3), (2, 2), (3, 2)]), st.data())
    def test_from_indices_names_what_the_element_loop_names(self, shape_dims, data):
        shape = cd.DomainShape(*shape_dims)
        count = shape.bundle_count
        entry = st.one_of(
            st.integers(-2, count + 1), st.sampled_from([True, False, 1.0, np.int64(0)])
        )
        indices = data.draw(
            st.one_of(
                st.permutations(range(count)).map(list),
                st.lists(entry, min_size=count - 1, max_size=count + 1),
            )
        )
        try:
            want = element_loop_build(shape, indices)
        except cd.ValidationError as exc:
            with pytest.raises(cd.ValidationError, match=re.escape(str(exc))):
                cd.Preference.from_indices(shape, indices)
        else:
            assert cd.Preference.from_indices(shape, indices).indices == want

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([(1, 3), (2, 1), (2, 2), (3, 2)]), st.data())
    def test_constructor_names_what_the_bundle_loop_names(self, shape_dims, data):
        shape = cd.DomainShape(*shape_dims)
        n, p, count = shape.n, shape.p, shape.bundle_count
        item = st.one_of(
            st.integers(0, n + 1), st.sampled_from([True, 1.0, np.int64(1), "1", None])
        )
        bundle = st.one_of(
            st.sampled_from(list(shape.bundles())),
            st.lists(item, min_size=max(p - 1, 0), max_size=p + 1).map(tuple),
        )
        bundles = data.draw(
            st.one_of(
                st.permutations(list(shape.bundles())),
                st.lists(bundle, min_size=count - 1, max_size=count + 1),
                # one bundle of a permutation replaced, so a bad bundle and
                # a repeat can meet in either order
                st.tuples(
                    st.permutations(list(shape.bundles())),
                    st.integers(0, count - 1),
                    bundle,
                ).map(lambda t: [*t[0][: t[1]], t[2], *t[0][t[1] + 1 :]]),
            )
        )
        try:
            want = bundle_loop_build(shape, bundles)
        except cd.ValidationError as exc:
            with pytest.raises(cd.ValidationError, match=f"^{re.escape(str(exc))}$"):
                cd.Preference(shape, bundles)
        else:
            assert cd.Preference(shape, bundles).indices == want

    def test_from_indices_rejects_non_permutations_4x6(self):
        shape = cd.DomainShape(4, 6)
        table = domain.bundle_table(shape)
        base = np.random.default_rng(6).permutation(shape.bundle_count).tolist()
        one = base.index(1)

        def put(pos, value):
            seq = list(base)
            seq[pos] = value
            return seq

        for indices, message in [
            (put(4095, base[17]), f"bundle {table[base[17]]} appears twice in preference"),
            (put(4095, 4096), "bundle index 4096 outside 0..4095"),
            (put(4095, -1), "bundle index -1 outside 0..4095"),
            (put(one, True), "bundle index True outside 0..4095"),
            (put(one, np.int64(1)), "bundle index np.int64(1) outside 0..4095"),
            (put(one, 1.0), "bundle index 1.0 outside 0..4095"),
            (base[:-1], "preference lists 4095 bundles, expected all 4096"),
            (base + [base[0]], f"bundle {table[base[0]]} appears twice in preference"),
            (put(2000, True)[:-1], "bundle index True outside 0..4095"),
        ]:
            with pytest.raises(cd.ValidationError, match=re.escape(message)):
                cd.Preference.from_indices(shape, indices)

    @pytest.mark.parametrize("n,p", [(3, 4), (4, 6)])
    def test_rank_of_sampled_preferences(self, n, p):
        shape = cd.DomainShape(n, p)
        table = domain.bundle_table(shape)
        ref = cd.uniform_preference(shape, np.random.default_rng(n))
        block = _draw(ref.indices, 0.5, 3, np.random.default_rng(p))
        prefs = [ref, *cd.Preference._from_rows(shape, block)]
        for pref in prefs:
            assert [pref.rank_of(table[idx]) for idx in pref.indices] == list(
                range(1, shape.bundle_count + 1)
            )

    def test_first_problem_in_list_order_is_named(self):
        # a repeat before a foreign bundle is reported as the repeat
        with pytest.raises(cd.ValidationError, match=re.escape("bundle (1, 1) appears twice")):
            cd.Preference(SHAPE_2X2, [(1, 1), (1, 1), (2, 3), (2, 2)])
        with pytest.raises(cd.ValidationError, match=re.escape("holds item 3 outside")):
            cd.Preference(SHAPE_2X2, [(1, 1), (2, 3), (1, 1), (2, 2)])

    def test_rejects_items_in_place_of_bundles(self):
        with pytest.raises(cd.ValidationError, match="preference must list bundles"):
            cd.Preference(SHAPE_2X2, [1, 2, 3, 4])

    def test_indices_follow_the_order(self):
        pref = pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        assert pref.indices == (2, 0, 3, 1)
        assert [cd.decode_bundle(SHAPE_2X2, i) for i in pref.indices] == list(pref.order)

    def test_position_masks(self):
        pref = pref_of(SHAPE_3X2, ["12", "21", "32", "33", "31", "22", "23", "13", "11"])
        for c in range(2):
            for d in range(1, 4):
                bits = pref.position_masks[c][d - 1]
                want = {r for r, b in enumerate(pref.order) if b[c] == d}
                assert {r for r in range(9) if bits >> r & 1} == want

    def test_equality_and_hash(self):
        a = pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        b = pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        c = pref_of(SHAPE_2X2, ["11", "21", "22", "12"])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_repr_shows_the_top_three_bundles(self):
        pref = pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        assert repr(pref) == "Preference(2x2: 21 > 11 > 22 > ...)"


class TestProfile:
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_rejects_wrong_number_of_preferences(self, count):
        pref = pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        with pytest.raises(cd.ValidationError, match=f"profile holds {count} preferences, expected 2"):
            cd.Profile(SHAPE_2X2, [pref] * count)

    def test_rejects_a_preference_of_another_shape(self):
        pref = pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        other = pref_of(cd.DomainShape(2, 1), ["2", "1"])
        message = f"agent 2 preference shaped {other.shape}, expected {SHAPE_2X2}"
        with pytest.raises(cd.ValidationError, match=re.escape(message)):
            cd.Profile(SHAPE_2X2, [pref, other])

    def test_equality_and_hash(self):
        a = pref_of(SHAPE_2X2, ["21", "11", "22", "12"])
        b = pref_of(SHAPE_2X2, ["11", "21", "22", "12"])
        first = cd.Profile(SHAPE_2X2, [a, b])
        second = cd.Profile(SHAPE_2X2, [pref_of(SHAPE_2X2, ["21", "11", "22", "12"]), b])
        assert first == second and hash(first) == hash(second)
        assert first != cd.Profile(SHAPE_2X2, [b, a])
        assert first != (a, b)


def position_masks_oracle(pref):
    """Per-preference numpy build of ``position_masks``: the item digits
    peeled off the bundle indices one category at a time, last category
    first, each item's one-hot row packed to bytes, bit r first."""
    n = pref.shape.n
    index = np.array(pref.indices)
    items = np.arange(n)[:, None]
    by_category = []
    for _ in range(pref.shape.p):
        packed = np.packbits(index % n == items, axis=1, bitorder="little")
        index //= n
        by_category.append(tuple(int.from_bytes(row.tobytes(), "little") for row in packed))
    return tuple(reversed(by_category))


MASK_SHAPES = [(1, 3), (4, 2), (3, 4), (4, 6), (2, 12), (12, 2)]


def uniform_prefs(shape, count, seed):
    rng = np.random.default_rng([seed, shape.n, shape.p])
    return [cd.uniform_preference(shape, rng) for _ in range(count)]


class TestPositionMasks:
    @pytest.mark.parametrize("n,p", MASK_SHAPES)
    def test_batched_build_matches_oracle(self, n, p):
        shape = cd.DomainShape(n, p)
        for seed in range(3):
            prefs = uniform_prefs(shape, n, seed)
            build_position_masks(prefs)
            for pref in prefs:
                assert pref.position_masks == position_masks_oracle(pref), (n, p, seed)

    @pytest.mark.parametrize("n,p", MASK_SHAPES)
    def test_single_preference_matches_oracle(self, n, p):
        # the property builds through the same function, for [self]
        for pref in uniform_prefs(cd.DomainShape(n, p), 2, 7):
            assert pref.position_masks == position_masks_oracle(pref)

    @pytest.mark.parametrize("n,p", [(4, 2), (3, 4), (12, 2)])
    def test_profiles_with_masks_already_built(self, n, p):
        # as in a deviation profile: one agent's preference replaced, the
        # others built by an earlier run, one preference listed twice
        shape = cd.DomainShape(n, p)
        base = uniform_prefs(shape, n, 1)
        build_position_masks(base)
        built = [pref.position_masks for pref in base]
        fresh = uniform_prefs(shape, 2, 2)
        deviation = [fresh[0], *base[1:-1], fresh[1], fresh[1]]
        build_position_masks(deviation)
        for pref, masks in zip(base, built):
            assert pref.position_masks is masks
        for pref in fresh:
            assert pref.position_masks == position_masks_oracle(pref)

    @pytest.mark.parametrize("block", [1, 3 * 3 * 81])
    def test_blocks_of_preferences(self, monkeypatch, block):
        # one preference per block, then three (3 items x 81 bundles each)
        monkeypatch.setattr(domain, "_MASK_BLOCK", block)
        prefs = uniform_prefs(cd.DomainShape(3, 4), 7, 3)
        build_position_masks(prefs)
        for pref in prefs:
            assert pref.position_masks == position_masks_oracle(pref)

    # the Mallows study's shapes, and the wide benchmark's
    DRAW_SHAPES = [(4, 2), (8, 2), (3, 4), (4, 4), (4, 6)]

    def check_masks_from_draw(self, shape, seed):
        """A replicate's draw with its masks filled from the draw's block,
        against the same rankings rebuilt and masked from their tuples."""
        ref = cd.uniform_preference(shape, np.random.default_rng([seed, 1]))
        block = _draw(ref.indices, 0.5, shape.n, np.random.default_rng(seed))
        drawn = cd.Preference._from_rows(shape, block)
        domain._fill_masks(drawn, block)
        # the same block as a native index gives the same masks
        native = cd.Preference._from_rows(shape, block)
        domain._fill_masks(native, block.astype(np.intp))
        assert block.dtype == np.uintc
        rebuilt = [cd.Preference.from_indices(shape, pref.indices) for pref in drawn]
        build_position_masks(rebuilt)
        for pref, intp, tuples in zip(drawn, native, rebuilt):
            want = position_masks_oracle(pref)
            assert pref._masks == intp._masks == tuples._masks == want, (shape, seed)

    @pytest.mark.parametrize("n,p", DRAW_SHAPES)
    def test_masks_from_the_draw_block(self, n, p):
        for seed in range(3):
            self.check_masks_from_draw(cd.DomainShape(n, p), seed)

    @pytest.mark.parametrize("per_chunk", [1, 3])
    @pytest.mark.parametrize("n,p", DRAW_SHAPES)
    def test_masks_from_the_draw_block_in_chunks(self, monkeypatch, n, p, per_chunk):
        shape = cd.DomainShape(n, p)
        monkeypatch.setattr(domain, "_MASK_BLOCK", per_chunk * n * shape.bundle_count)
        self.check_masks_from_draw(shape, 5)

    def test_sample_mallows_keeps_masks_lazy(self):
        shape = cd.DomainShape(3, 4)
        ref = cd.uniform_preference(shape, np.random.default_rng(2))
        pref = cd.sample_mallows(cd.MallowsParams(ref, 0.5), np.random.default_rng(3))
        assert pref._masks is None
        assert pref.position_masks == position_masks_oracle(pref)


def first_row_error(shape, rows):
    """The message ``from_indices`` raises on the first row of ``rows`` it
    rejects, or None."""
    for row in rows.tolist():
        try:
            cd.Preference.from_indices(shape, row)
        except cd.ValidationError as exc:
            return str(exc)
    return None


def permutation_rows(shape, count, seed, dtype=np.uint32):
    rng = np.random.default_rng([seed, shape.n, shape.p])
    return np.array([rng.permutation(shape.bundle_count) for _ in range(count)], dtype)


def put(rows, row, pos, value):
    out = rows.copy()
    out[row, pos] = value
    return out


# bad blocks built from three valid rows: the narrow, wide and float cases
# spoil every row; the others spoil row 1, and row 2 in another way where the
# width allows, so the message must be row 1's
BAD_BLOCKS = {
    "repeat": lambda r, m: put(put(r, 1, m - 1, r[1, 0]), 2, 0, m),
    "index m": lambda r, m: put(put(r, 1, 0, m), 2, m - 1, r[2, 0]),
    "narrow": lambda r, m: r[:, :-1],
    "wide": lambda r, m: np.hstack([r, r[:, :1]]),
    "signed -1": lambda r, m: put(put(r.astype(np.int64), 1, 0, -1), 2, 0, m),
    "float": lambda r, m: r.astype(float),
}


class TestFromRows:
    """``Preference._from_rows`` checks a block at once; it must accept and
    refuse exactly what ``from_indices`` does row by row."""

    @pytest.mark.parametrize("n,p", [(1, 1), (2, 2), (3, 4), (4, 6)])
    def test_valid_blocks(self, n, p):
        shape = cd.DomainShape(n, p)
        for count in (1, 4):
            rows = permutation_rows(shape, count, count)
            prefs = cd.Preference._from_rows(shape, rows)
            assert prefs == [cd.Preference.from_indices(shape, row) for row in rows.tolist()]
            for pref in prefs:
                assert type(pref.indices) is tuple
                assert set(map(type, pref.indices)) == {int}
                assert pref._masks is None and pref._order is None and pref._rank is None

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.int64])
    def test_other_integer_blocks(self, dtype):
        # signed blocks are checked row by row, and accepted as from_indices accepts
        shape = cd.DomainShape(3, 2)
        rows = permutation_rows(shape, 3, 1, dtype)
        want = [cd.Preference.from_indices(shape, row) for row in rows.tolist()]
        assert cd.Preference._from_rows(shape, rows) == want

    def test_rows_of_a_narrow_type_cannot_pass(self):
        # 512 bundle indices do not fit uint8: the values wrap, and rows repeat
        shape = cd.DomainShape(2, 9)
        rows = permutation_rows(shape, 2, 4, np.int64).astype(np.uint8)
        with pytest.raises(cd.ValidationError, match="appears twice"):
            cd.Preference._from_rows(shape, rows)

    @pytest.mark.parametrize("case", sorted(BAD_BLOCKS))
    @pytest.mark.parametrize("n,p", [(1, 1), (2, 2), (3, 4), (4, 6)])
    def test_bad_blocks_name_the_first_offender(self, n, p, case):
        shape = cd.DomainShape(n, p)
        m = shape.bundle_count
        rows = BAD_BLOCKS[case](permutation_rows(shape, 3, 2), m)
        message = first_row_error(shape, rows)
        assert message is not None
        with pytest.raises(cd.ValidationError) as info:
            cd.Preference._from_rows(shape, rows)
        assert str(info.value) == message


class TestAllocation:
    def test_valid(self):
        alloc = cd.Allocation({1: (1, 2), 2: (2, 1)})
        check = cd.validate_allocation(SHAPE_2X2, alloc)
        assert check.ok

    def test_detects_duplicate_item(self):
        alloc = cd.Allocation({1: (1, 2), 2: (1, 1)})
        check = cd.validate_allocation(SHAPE_2X2, alloc)
        assert not check.ok
        assert check.category == 1
        assert check.item == 1

    def test_detects_wrong_agents(self):
        alloc = cd.Allocation({1: (1, 2), 3: (2, 1)})
        assert not cd.validate_allocation(SHAPE_2X2, alloc).ok

    @pytest.mark.parametrize("bundle", [[1] * 100_000, (1, [0] * 100_000)], ids=["long", "item"])
    def test_malformed_bundle_named_in_one_short_line(self, bundle):
        # a 100,000-component bundle gave a 300,031-character detail
        check = cd.validate_allocation(SHAPE_2X2, cd.Allocation({1: bundle, 2: (2, 1)}))
        assert check.detail.startswith("agent 1 holds malformed bundle ")
        assert len(check.detail) < 200

    @pytest.mark.parametrize(
        "call",
        [
            lambda profile: cd.direct_serial_dictatorship(list(range(2, 100_002)), profile),
            lambda profile: axioms.sd_direct(["x" * 100_000, 1, 2]).apply(profile),
            lambda profile: axioms.apply_category_permutation(profile, 1, [[0] * 100_000] * 3),
        ],
        ids=["order", "long-entry", "permutation"],
    )
    def test_bad_permutation_named_in_one_short_line(self, profile_3x2, call):
        with pytest.raises(cd.ValidationError, match="is not a permutation of 1..3") as refusal:
            call(profile_3x2)
        assert len(str(refusal.value)) < 200

    def test_welfare_ranks(self, profile_3x2):
        alloc = cd.Allocation({1: (1, 2), 2: (2, 1), 3: (3, 3)})
        assert cd.utilitarian_rank(profile_3x2, alloc) == 11
        assert cd.egalitarian_rank(profile_3x2, alloc) == 7

    def test_welfare_rejects_bad_allocation(self, profile_3x2):
        alloc = cd.Allocation({1: (1, 2), 2: (1, 2), 3: (3, 3)})
        with pytest.raises(cd.ValidationError):
            cd.utilitarian_rank(profile_3x2, alloc)

    def test_every_exhaustive_allocation_is_valid(self):
        # every pair of per-category permutations induces a valid allocation
        items = [1, 2]
        count = 0
        for perm1 in itertools.permutations(items):
            for perm2 in itertools.permutations(items):
                alloc = cd.Allocation(
                    {j: (perm1[j - 1], perm2[j - 1]) for j in (1, 2)}
                )
                assert cd.validate_allocation(SHAPE_2X2, alloc).ok
                count += 1
        assert count == 4


def reference_validate_allocation(shape, allocation):
    """``validate_allocation`` before its one-pass bit check: the full
    element-by-element check, kept as its oracle. Items are plain ints only,
    as in ``rank_of``: bool and numpy integer items make a bundle
    malformed."""
    bundles = allocation.bundles
    if bundles.keys() != set(shape.agents()):
        return AllocationCheck(False, f"agents {sorted(bundles)} do not match 1..{shape.n}")
    n = shape.n
    rows = list(map(bundles.__getitem__, shape.agents()))
    for j, b in enumerate(rows, 1):
        if len(b) != shape.p or not all(type(x) is int and 1 <= x <= n for x in b):
            return AllocationCheck(False, f"agent {j} holds malformed bundle {b}")
    for i, items in enumerate(zip(*rows), 1):
        if len(set(items)) == n:
            continue
        seen = {}
        for j, item in enumerate(items, 1):
            if item in seen:
                return AllocationCheck(
                    False,
                    f"item {item} of category {i} assigned to agents {seen[item]} and {j}",
                    category=i,
                    item=item,
                )
            seen[item] = j
    return AllocationCheck(True)


def check_against_reference(shape, allocation):
    got = cd.validate_allocation(shape, allocation)
    want = reference_validate_allocation(shape, allocation)
    assert (got.ok, got.detail, got.category, got.item) == (
        want.ok,
        want.detail,
        want.category,
        want.item,
    )
    assert type(got.item) is type(want.item)
    return got


# the forms an item may take: the plain int, or a stand-in that is not one
ITEM_FORMS = {
    "int": lambda x, n: x,
    "float": lambda x, n: float(x),
    "true": lambda x, n: True,
    "numpy": lambda x, n: np.int64(x),
    "zero": lambda x, n: 0,
    "above": lambda x, n: n + 1,
}


@st.composite
def malformed_allocations(draw):
    """An allocation built from one item permutation per category, then
    bent: repeated items, items in other forms, list, short and long
    bundles, and missing or extra agents."""
    shape = cd.DomainShape(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    n, p = shape.n, shape.p
    columns = [draw(st.permutations(range(1, n + 1))) for _ in range(p)]
    rows = [list(row) for row in zip(*columns)]
    for c in range(p):
        if draw(st.booleans()):
            src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[dst][c] = rows[src][c]
    forms = st.sampled_from(sorted(ITEM_FORMS)) if draw(st.booleans()) else st.just("int")
    bundles = {}
    for j, row in enumerate(rows, 1):
        items = [ITEM_FORMS[draw(forms)](x, n) for x in row]
        length = draw(st.sampled_from(["exact", "exact", "short", "long"]))
        if length == "short":
            items = items[:-1]
        elif length == "long":
            items.append(1)
        bundles[j] = items if draw(st.integers(0, 4)) == 0 else tuple(items)
    if draw(st.integers(0, 3)) == 0:
        del bundles[draw(st.integers(1, n))]
    if draw(st.integers(0, 3)) == 0:
        bundles[draw(st.sampled_from([0, n + 1]))] = (1,) * p
    return shape, cd.Allocation(bundles)


class TestAllocationOracle:
    """``validate_allocation`` against the full check it short-cuts."""

    @pytest.mark.parametrize("n, p", [(2, 2), (3, 2), (2, 3)])
    def test_every_assignment_of_bundles(self, n, p):
        shape = cd.DomainShape(n, p)
        table = domain.bundle_table(shape)
        valid = 0
        for combo in itertools.product(table, repeat=n):
            for bundles in (combo, [tuple(list(b)) for b in combo]):
                allocation = cd.Allocation(dict(enumerate(bundles, 1)))
                valid += check_against_reference(shape, allocation).ok
        # the feasible allocations, each met as shape tuples and as copies
        assert valid == 2 * len(cd.all_allocations(shape))

    @settings(max_examples=400, deadline=None)
    @given(malformed_allocations())
    def test_malformed_allocations(self, case):
        check_against_reference(*case)

    @pytest.mark.parametrize(
        "bundles, ok",
        [
            ({1: [1, 2], 2: (2, 1)}, True),
            ({1: (True, 2), 2: (2, 1)}, False),
            ({1: (np.int64(1), 2), 2: (2, 1)}, False),
            ({1: (1.0, 2), 2: (2, 1)}, False),
            ({1: (1, 2), 2: (2, 1), 3: (1, 1)}, False),
            ({1: (1, 2), 3: (2, 1)}, False),
        ],
    )
    def test_non_canonical_forms(self, bundles, ok):
        assert check_against_reference(SHAPE_2X2, cd.Allocation(bundles)).ok is ok


class TestJson:
    def test_profile_roundtrip(self, profile_3x2):
        doc = cd.profile_to_json(profile_3x2)
        text = json.dumps(doc)
        back = cd.profile_from_json(json.loads(text))
        assert back.shape == profile_3x2.shape
        for j in (1, 2, 3):
            assert back.pref(j) == profile_3x2.pref(j)

    def test_profile_error_names_agent(self):
        doc = {
            "n": 2,
            "p": 1,
            "preferences": [[[1], [2]], [[1], [1]]],
        }
        with pytest.raises(cd.ValidationError, match="agent 2"):
            cd.profile_from_json(doc)

    @pytest.mark.parametrize(
        "preferences",
        [None, {"1": []}, [], [[[1], [2]]], [[[1], [2]], [[2], [1]], [[1], [2]]]],
    )
    def test_profile_needs_a_preference_list_per_agent(self, preferences):
        doc = {"n": 2, "p": 1}
        if preferences is not None:
            doc["preferences"] = preferences
        with pytest.raises(cd.ValidationError, match="profile needs a 'preferences' list of length 2"):
            cd.profile_from_json(doc)

    def test_allocation_roundtrip(self):
        alloc = cd.Allocation({1: (1, 2), 2: (2, 1)})
        back = cd.allocation_from_json(SHAPE_2X2, cd.allocation_to_json(alloc))
        assert dict(back.bundles) == dict(alloc.bundles)

    @pytest.mark.parametrize("data", [{}, {"bundles": [[1, 2], [2, 1]]}, {"bundles": None}])
    def test_allocation_needs_a_bundles_mapping(self, data):
        with pytest.raises(cd.ValidationError, match="allocation needs a 'bundles' mapping"):
            cd.allocation_from_json(SHAPE_2X2, data)

    @pytest.mark.parametrize("key", ["01", "1_0", " 2 ", "+2", True, 2.0])
    def test_allocation_agent_key_is_not_coerced(self, key):
        data = {"bundles": {"1": [1, 2], key: [2, 1]}}
        with pytest.raises(cd.ValidationError, match=re.escape(f"agent key {key!r} is not an integer")):
            cd.allocation_from_json(SHAPE_2X2, data)

    def test_allocation_agent_listed_twice(self):
        data = {"bundles": {1: [1, 2], "1": [2, 1]}}
        with pytest.raises(cd.ValidationError, match="allocation lists agent 1 twice"):
            cd.allocation_from_json(SHAPE_2X2, data)

    @pytest.mark.parametrize("data", [[], [["bundles", {}]], "bundles", None])
    def test_allocation_document_must_be_a_mapping(self, data):
        with pytest.raises(cd.ValidationError, match="allocation needs a .bundles. mapping"):
            cd.allocation_from_json(SHAPE_2X2, data)

    @pytest.mark.parametrize(
        "data",
        [
            {"bundles": {"9" * 300_000: [1, 2]}},
            {"bundles": {"1": [1] * 100_000}},
            {"bundles": {"1": [1, [0] * 100_000]}},
        ],
        ids=["key", "bundle", "item"],
    )
    def test_long_allocation_named_in_one_short_line(self, data):
        with pytest.raises(cd.ValidationError) as refusal:
            cd.allocation_from_json(SHAPE_2X2, data)
        assert len(str(refusal.value)) < 200

    def test_allocation_int_keys(self):
        back = cd.allocation_from_json(SHAPE_2X2, {"bundles": {1: [1, 2], "2": [2, 1]}})
        assert dict(back.bundles) == {1: (1, 2), 2: (2, 1)}

    @pytest.mark.parametrize("key", ["one", "1.5", None])
    def test_allocation_agent_keys_must_be_integers(self, key):
        data = {"bundles": {"1": [1, 2], key: [2, 1]}}
        with pytest.raises(cd.ValidationError, match=re.escape(f"agent key {key!r} is not an integer")):
            cd.allocation_from_json(SHAPE_2X2, data)
