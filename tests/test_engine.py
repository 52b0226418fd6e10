import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import catdom as cd
from catdom import engine

from conftest import (
    MIXED_BEHAVIORS_3X2, SHAPE_2X2, SHAPE_3X2, pref_of, profile_views, views_by_value,
)


def reference_run(order, profile, kinds, comparisons=None):
    """Protocol re-implementation used as an oracle: tracks full availability
    and recomputes each pick by scanning the preference list directly.

    ``kinds`` holds per agent "opt", "pess", a tuple of scripted picks, or a
    ``random.Random`` that picks uniformly among the available items. When
    ``comparisons`` is a list, every round appends its pessimistic comparison
    (None for other agents)."""
    shape = order.shape
    avail = {i: set(shape.agents()) for i in shape.categories()}
    picks = {j: {} for j in shape.agents()}

    def feasible(j, bundle):
        for i in shape.categories():
            if i in picks[j]:
                if bundle[i - 1] != picks[j][i]:
                    return False
            elif bundle[i - 1] not in avail[i]:
                return False
        return True

    for (j, c) in order.rounds:
        pref = profile.pref(j)
        kind = kinds[j - 1]
        comparison = None
        if kind == "opt":
            item = None
            for rank in range(1, shape.bundle_count + 1):
                bundle = pref.bundle_at(rank)
                if feasible(j, bundle):
                    item = bundle[c - 1]
                    break
        elif kind == "pess":
            item, item_rank = None, None
            comparison = {}
            for d in sorted(avail[c]):
                worst = None
                for rank in range(shape.bundle_count, 0, -1):
                    bundle = pref.bundle_at(rank)
                    if bundle[c - 1] == d and feasible(j, bundle):
                        worst = rank
                        break
                comparison[d] = pref.bundle_at(worst)
                if item_rank is None or worst < item_rank:
                    item, item_rank = d, worst
        elif isinstance(kind, tuple):
            item = kind[len(picks[j])]
        else:
            item = kind.choice(sorted(avail[c]))
        if comparisons is not None:
            comparisons.append(comparison)
        picks[j][c] = item
        avail[c].remove(item)
    return cd.Allocation(
        {j: tuple(picks[j][i] for i in shape.categories()) for j in shape.agents()}
    )


def consistent(bundle, picks, available):
    """A bundle agrees with the agent's own picks and uses only available
    items in her open categories."""
    for i, comp in enumerate(bundle, 1):
        own = picks.get(i)
        if own is not None:
            if own != comp:
                return False
        elif comp not in available[i]:
            return False
    return True


def scan_optimistic(pref, picks, available, category):
    """Optimistic pick by a top-down scan of the ranking."""
    for bundle in pref.order:
        if consistent(bundle, picks, available):
            return bundle[category - 1]
    raise cd.ValidationError("no consistent available bundle")


def scan_pessimistic(pref, picks, available, category):
    """Pessimistic comparison by a bottom-up scan per candidate; the
    candidate overrides any own pick in ``category``."""
    out = {}
    for d in sorted(available[category]):
        base = {**picks, category: d}
        for bundle in reversed(pref.order):
            if consistent(bundle, base, available):
                out[d] = bundle
                break
    if not out:
        raise cd.ValidationError(f"category {category} has no available items")
    return out


@st.composite
def instance_strategy(draw, max_n=3, max_p=2):
    n = draw(st.integers(1, max_n))
    p = draw(st.integers(1, max_p))
    shape = cd.DomainShape(n, p)
    bundles = list(shape.bundles())
    prefs = [
        cd.Preference(shape, draw(st.permutations(bundles)))
        for _ in shape.agents()
    ]
    pairs = [(j, i) for j in shape.agents() for i in shape.categories()]
    rounds = tuple(draw(st.permutations(pairs)))
    kinds = tuple(draw(st.sampled_from(["opt", "pess"])) for _ in shape.agents())
    return cd.PickingOrder(shape, rounds), cd.Profile(shape, prefs), kinds


def as_behaviors(kinds):
    return [cd.OPTIMISTIC if k == "opt" else cd.PESSIMISTIC for k in kinds]


class TestMixedRun:
    def test_allocation_and_trace(self, mixed_order_3x2, profile_3x2):
        alloc, trace = cd.run_csam(mixed_order_3x2, profile_3x2, MIXED_BEHAVIORS_3X2)
        assert dict(alloc.bundles) == {1: (1, 1), 2: (2, 2), 3: (3, 3)}
        picks = [(r.t, r.agent, r.category, r.item) for r in trace.rounds]
        assert picks == [
            (1, 1, 1, 1),
            (2, 2, 2, 2),
            (3, 3, 1, 3),
            (4, 3, 2, 3),
            (5, 2, 1, 2),
            (6, 1, 2, 1),
        ]

    def test_round_three_comparison(self, mixed_order_3x2, profile_3x2):
        _, trace = cd.run_csam(mixed_order_3x2, profile_3x2, MIXED_BEHAVIORS_3X2)
        round3 = trace.rounds[2]
        assert round3.available == (2, 3)
        assert round3.comparison == {2: (2, 3), 3: (3, 1)}

    def test_optimistic_rounds_have_no_comparison(self, mixed_order_3x2, profile_3x2):
        _, trace = cd.run_csam(mixed_order_3x2, profile_3x2, MIXED_BEHAVIORS_3X2)
        assert trace.rounds[0].comparison is None
        assert trace.rounds[1].comparison is None

    def test_message_count(self, mixed_order_3x2, profile_3x2):
        _, trace = cd.run_csam(mixed_order_3x2, profile_3x2, MIXED_BEHAVIORS_3X2)
        assert trace.message_count == (1 + 3 * 2) * 3 == 21


class TestChoiceOracles:
    @settings(max_examples=150, deadline=None)
    @given(instance_strategy())
    def test_run_matches_reference(self, instance):
        order, profile, kinds = instance
        alloc, _ = cd.run_csam(order, profile, as_behaviors(kinds))
        expected = reference_run(order, profile, kinds)
        assert dict(alloc.bundles) == dict(expected.bundles)

    def test_pessimistic_comparison_values(self):
        # one category, three items: candidate 2 leaves worst bundle (2,),
        # candidate 3 leaves (3,); the agent prefers the latter
        shape = cd.DomainShape(3, 1)
        pref = cd.Preference(shape, [(1,), (3,), (2,)])
        comparison = cd.pessimistic_comparison(
            pref, picks={}, available={1: {2, 3}}, category=1
        )
        assert comparison == {2: (2,), 3: (3,)}
        choice = cd.pessimistic_choice(pref, picks={}, available={1: {2, 3}}, category=1)
        assert choice == 3


CHOICES = [cd.optimistic_choice, cd.pessimistic_choice, cd.pessimistic_comparison]


class TestChoiceCategory:
    # a 2x2 ranking with nothing picked and every item available
    ROWS = ["12", "11", "22", "21"]
    AVAILABLE = {1: {1, 2}, 2: {1, 2}}

    @pytest.mark.parametrize("choose", CHOICES)
    @pytest.mark.parametrize("category", [0, -1, 3, True, 1.0])
    def test_refuses_a_category_outside_the_shape(self, choose, category):
        # refused before any mask is read, so none is built
        pref = pref_of(SHAPE_2X2, self.ROWS)
        message = f"category {category!r} outside 1..2"
        with pytest.raises(cd.ValidationError, match=re.escape(message)):
            choose(pref, {}, self.AVAILABLE, category)
        assert pref._masks is None

    def test_answers_for_the_category_given(self):
        pref = pref_of(SHAPE_2X2, self.ROWS)
        picks, available = {}, self.AVAILABLE
        assert [cd.optimistic_choice(pref, picks, available, i) for i in (1, 2)] == [1, 2]
        assert [cd.pessimistic_choice(pref, picks, available, i) for i in (1, 2)] == [1, 2]
        assert cd.pessimistic_comparison(pref, picks, available, 1) == {1: (1, 1), 2: (2, 1)}
        assert cd.pessimistic_comparison(pref, picks, available, 2) == {1: (2, 1), 2: (2, 2)}


class TestMaskCache:
    def test_run_csam_builds_each_preferences_masks_once(
        self, monkeypatch, mixed_order_3x2, profile_3x2
    ):
        # a play of preferences that already hold masks builds none (c05
        # plays each ranking it builds in many profiles)
        calls = []
        fill = cd.domain._fill_masks

        def counting_fill(shape, index):
            calls.append(len(index))
            return fill(shape, index)

        monkeypatch.setattr(cd.domain, "_fill_masks", counting_fill)
        prefs = profile_3x2.preferences
        cd.run_csam(mixed_order_3x2, profile_3x2, MIXED_BEHAVIORS_3X2)
        assert calls == [1, 1, 1]
        built = [pref.position_masks for pref in prefs]
        assert all(pref.position_masks is masks for pref, masks in zip(prefs, built))
        cd.run_csam(mixed_order_3x2, profile_3x2, MIXED_BEHAVIORS_3X2)
        assert calls == [1, 1, 1]
        # one fresh preference in a profile of built ones: one call
        fresh = cd.Preference.from_indices(SHAPE_3X2, reversed(prefs[0].indices))
        deviation = cd.Profile(SHAPE_3X2, [fresh, *prefs[1:]])
        cd.run_csam(mixed_order_3x2, deviation, MIXED_BEHAVIORS_3X2)
        assert calls == [1, 1, 1, 1]
        assert all(pref.position_masks is masks for pref, masks in zip(prefs, built))


LARGER_SHAPES = [(4, 3), (3, 4), (4, 4), (2, 6)]


def script_kinds(order, profile, kinds, rng):
    """Replace each "script" kind with the picks of an agent that chose
    uniformly among the available items, in the order she picked."""
    chosen = reference_run(order, profile, [rng if k == "script" else k for k in kinds])
    return [
        tuple(chosen[j][i - 1] for a, i in order.rounds if a == j) if k == "script" else k
        for j, k in enumerate(kinds, 1)
    ]


def seeded_instance(n, p, seed):
    """Random profile and order with opt, pess and scripted agents. Scripts
    replay the picks of agents that chose uniformly among available items."""
    rng = random.Random(seed)
    shape = cd.DomainShape(n, p)
    bundles = list(shape.bundles())
    prefs = []
    for _ in shape.agents():
        rng.shuffle(bundles)
        prefs.append(cd.Preference(shape, bundles))
    profile = cd.Profile(shape, prefs)
    pairs = [(j, i) for j in shape.agents() for i in shape.categories()]
    rng.shuffle(pairs)
    order = cd.PickingOrder(shape, pairs)
    kinds = [("opt", "pess", "script")[(j + seed) % 3] for j in range(n)]
    return order, profile, script_kinds(order, profile, kinds, rng)


def kind_behaviors(kinds):
    return [cd.Scripted(k) if isinstance(k, tuple) else as_behaviors([k])[0] for k in kinds]


class TestLargerShapes:
    @pytest.mark.parametrize("n,p", LARGER_SHAPES)
    def test_run_matches_reference(self, n, p):
        for seed in range(10):
            order, profile, kinds = seeded_instance(n, p, seed)
            alloc, trace = cd.run_csam(order, profile, kind_behaviors(kinds))
            comparisons = []
            expected = reference_run(order, profile, kinds, comparisons)
            assert dict(alloc.bundles) == dict(expected.bundles), (n, p, seed)
            assert [r.comparison for r in trace.rounds] == comparisons, (n, p, seed)

    @pytest.mark.parametrize("n,p", LARGER_SHAPES + [(3, 2), (1, 3)])
    def test_choices_match_scans_on_partial_states(self, n, p):
        rng = random.Random(100 * n + p)
        shape = cd.DomainShape(n, p)
        bundles = list(shape.bundles())
        for _ in range(80):
            rng.shuffle(bundles)
            pref = cd.Preference(shape, bundles)
            category = rng.randint(1, p)
            picks = {i: rng.randint(1, n) for i in shape.categories() if rng.random() < 0.4}
            if rng.random() < 0.5:
                # the target category already picked: the candidate overrides it
                picks[category] = rng.randint(1, n)
            # now and then an empty category, so both choices must refuse
            available = {
                i: set(rng.sample(range(1, n + 1), rng.randint(rng.random() > 0.05, n)))
                for i in shape.categories()
            }
            state = (dict(picks), {i: set(s) for i, s in available.items()})
            for choose, scan in (
                (cd.optimistic_choice, scan_optimistic),
                (cd.pessimistic_comparison, scan_pessimistic),
            ):
                try:
                    want = scan(pref, picks, available, category)
                except cd.ValidationError:
                    with pytest.raises(cd.ValidationError):
                        choose(pref, picks, available, category)
                    continue
                assert choose(pref, picks, available, category) == want
                if scan is scan_pessimistic:
                    least = min(want, key=lambda d: pref.rank_of(want[d]))
                    assert cd.pessimistic_choice(pref, picks, available, category) == least
            assert (picks, available) == state


def views_of(profiles):
    """``engine._views`` of a block of profiles, from their preferences'
    indices and masks by category, as ``run_csam`` builds a block of one."""
    prefs = [pref for profile in profiles for pref in profile.preferences]
    masks = list(zip(*(pref.position_masks for pref in prefs)))
    return engine._views([pref.indices for pref in prefs], masks, prefs[0].shape.n)


def play_one(order, profile, behaviors, comparisons=True):
    """``engine._play`` on a block of one profile, as per-round ``(item,
    worst, cons)`` triples of that profile."""
    play = engine._play(order, views_of([profile]), behaviors, comparisons)
    for [item], [worst], [cons] in play:
        yield item, worst, cons


def check_running_state(order, profile, kinds):
    """Play through ``engine._play``, asserting after every round that each
    agent's running bitset equals the from-scratch rebuild
    ``_consistency_mask``; then that the picks, the comparisons and the
    allocation equal ``reference_run``'s and ``run_csam``'s."""
    shape = order.shape
    picks = {j: {} for j in shape.agents()}
    available = {i: set(shape.agents()) for i in shape.categories()}
    rounds = []
    play = play_one(order, profile, tuple(kind_behaviors(kinds)))
    for (j, i), (item, worst, cons) in zip(order.rounds, play):
        rounds.append((j, i, item, tuple(sorted(available[i])), worst))
        picks[j][i] = item
        available[i].remove(item)
        for a in shape.agents():
            want = engine._consistency_mask(profile.pref(a), picks[a], available)
            assert cons[a - 1] == want, (len(rounds), a)
    # one bit per agent is left: her bundle
    assert all(c & (c - 1) == 0 for c in cons)
    comparisons = []
    expected = reference_run(order, profile, kinds, comparisons)
    alloc, trace = cd.run_csam(order, profile, kind_behaviors(kinds))
    assert dict(alloc.bundles) == dict(expected.bundles)
    assert [r.comparison for r in trace.rounds] == comparisons
    assert [(r.agent, r.category, r.item, r.available) for r in trace.rounds] == [
        r[:4] for r in rounds
    ]
    for (j, _, _, _, worst), comparison in zip(rounds, comparisons):
        if comparison is None:
            assert worst is None
        else:
            # each candidate's worst bit length is its worst bundle's rank
            pref = profile.pref(j)
            assert worst == {d: pref.rank_of(b) for d, b in comparison.items()}


@st.composite
def mixed_instance_strategy(draw, max_n=4, max_p=4):
    """Up to 4x4, each agent optimistic, pessimistic or scripted."""
    order, profile, _ = draw(instance_strategy(max_n, max_p))
    kinds = [draw(st.sampled_from(["opt", "pess", "script"])) for _ in order.shape.agents()]
    return order, profile, script_kinds(order, profile, kinds, draw(st.randoms()))


class TestRunningState:
    @settings(max_examples=100, deadline=None)
    @given(mixed_instance_strategy())
    def test_matches_rebuild_every_round(self, instance):
        check_running_state(*instance)

    @pytest.mark.parametrize("n,p,seeds", [(4, 6, range(3)), (12, 2, range(4))])
    def test_larger_games(self, n, p, seeds):
        for seed in seeds:
            check_running_state(*seeded_instance(n, p, seed))


def eager_play(order, profile, behaviors):
    """One profile's play with every agent's bitset updated at every pick,
    the picker's included, and every pessimistic pick's worst bit lengths:
    the oracle for ``engine._play``, which plays a block of profiles round
    by round and updates only the agents who pick the round's category
    later."""
    shape = order.shape
    n, table, prefs = shape.n, cd.domain.bundle_table(shape), profile.preferences
    by_category = list(zip(*(pref.position_masks for pref in prefs)))
    scripts = [iter(b.picks) if isinstance(b, cd.Scripted) else None for b in behaviors]
    pessimistic = [isinstance(b, cd.Pessimistic) for b in behaviors]
    cons = [(1 << shape.bundle_count) - 1] * n
    for t, (j, i) in enumerate(order.rounds, 1):
        a, c = j - 1, i - 1
        script, row = scripts[a], by_category[c]
        worst = None
        if script is not None:
            item = next(script)
            if not (1 <= item <= n and cons[a] & row[a][item - 1]):
                left = [d for d, bits in enumerate(row[a], 1) if cons[a] & bits]
                raise cd.ExecutionError(
                    f"round {t}: scripted item {item} of category {i} is not available "
                    f"(remaining {left})"
                )
        else:
            worst = {} if pessimistic[a] else None
            item = engine._pick(prefs[a].indices, row[a], table, cons[a], i, pessimistic[a], worst)
        d = item - 1
        keep = cons[a] & row[a][d]
        for k in range(n):
            cons[k] &= ~row[k][d]
        cons[a] = keep
        yield item, worst, cons


def play_rounds(play):
    """Each round's item, worst bit lengths and a copy of every bitset, and
    the message of the refusal that ended the play, or None."""
    rounds = []
    try:
        for item, worst, cons in play:
            rounds.append((item, worst, list(cons)))
    except cd.ExecutionError as exc:
        return rounds, str(exc)
    return rounds, None


def check_play_against_eager(order, profiles, kinds, comparisons=True):
    """``engine._play`` on a block of ``profiles`` equals ``eager_play`` on
    each of them, round by round: every item, every pessimistic pick's worst
    bit lengths when ``comparisons`` is set (None otherwise), and every
    bitset after every round. A block stops at the first round a profile
    refuses, with the refusal of the first such profile in the block;
    returns it, or None."""
    behaviors = tuple(kind_behaviors(kinds))
    eager = [play_rounds(eager_play(order, profile, behaviors)) for profile in profiles]
    refused = [(len(rounds), b) for b, (rounds, refusal) in enumerate(eager) if refusal]
    stop, first = min(refused, default=(len(order.rounds), None))
    views = views_of(profiles)
    played, refusal = [], None
    try:
        for items, worst, cons in engine._play(order, views, behaviors, comparisons):
            played.append((list(items), list(worst), [list(state) for state in cons]))
    except cd.ExecutionError as exc:
        refusal = str(exc)
    assert refusal == (None if first is None else eager[first][1])
    assert len(played) == stop
    for t, (items, worst, cons) in enumerate(played):
        for b, (rounds, _) in enumerate(eager):
            item, eager_worst, eager_cons = rounds[t]
            assert (items[b], cons[b]) == (item, eager_cons), (t + 1, b)
            assert worst[b] == (eager_worst if comparisons else None), (t + 1, b)
    return refusal


def spoil_script(kinds, rng):
    """The kinds with one pick of one script replaced by an item that may be
    taken already, or by one outside 1..n, which is never available."""
    scripted = [j for j, k in enumerate(kinds) if isinstance(k, tuple)]
    if not scripted:
        return kinds
    j = rng.choice(scripted)
    picks = list(kinds[j])
    n = len(kinds)
    picks[rng.randrange(len(picks))] = rng.choice([0, n + 1, *range(1, n + 1)])
    return [tuple(picks) if a == j else k for a, k in enumerate(kinds)]


def block_of(profile, kinds, size, rng, feasible=False):
    """``profile`` and ``size - 1`` more of its shape. Each other profile
    redraws either the scripted agents' rankings only, so it plays the same
    picks and every script stays feasible, or every ranking, so a script
    may be refused in it. With ``feasible`` set and some agent scripted,
    every other profile redraws the scripted rankings only."""
    shape = profile.shape
    bundles = list(shape.bundles())
    keep = feasible and any(isinstance(kind, tuple) for kind in kinds)
    block = [profile]
    for _ in range(size - 1):
        every = not keep and rng.random() < 0.5
        prefs = []
        for pref, kind in zip(profile.preferences, kinds):
            if every or isinstance(kind, tuple):
                rng.shuffle(bundles)
                pref = cd.Preference(shape, bundles)
            prefs.append(pref)
        block.append(cd.Profile(shape, prefs))
    return block


class TestLazyPlay:
    @settings(max_examples=150, deadline=None)
    @given(
        mixed_instance_strategy(),
        st.sampled_from([1, 2, 7]),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_matches_eager_play(self, instance, size, comparisons, rng):
        order, profile, kinds = instance
        block = block_of(profile, kinds, size, rng)
        check_play_against_eager(order, block, kinds, comparisons)
        check_play_against_eager(order, block, spoil_script(kinds, rng), comparisons)

    @pytest.mark.parametrize(
        "n,p,seeds",
        [
            pytest.param(n, p, seeds, id=f"{n}-{p}")
            for n, p, seeds in [
                (6, 2, 12), (4, 3, 12), (3, 4, 12), (2, 6, 12), (4, 6, 3), (12, 2, 4)
            ]
        ],
    )
    def test_matches_eager_play_larger(self, n, p, seeds):
        refusals = 0
        for seed in range(seeds):
            rng, comparisons = random.Random(seed), seed % 2 == 1
            order, profile, kinds = seeded_instance(n, p, seed)
            for size in (1, 2, 7):
                block = block_of(profile, kinds, size, rng, feasible=True)
                assert check_play_against_eager(order, block, kinds, comparisons) is None
                block = block_of(profile, kinds, size, rng)
                spoiled = spoil_script(kinds, rng)
                refusals += check_play_against_eager(order, block, spoiled, comparisons) is not None
        # some spoiled script reached the "not available" refusal
        assert refusals

    def test_later_pickers(self, mixed_order_3x2):
        # rounds (1,1) (2,2) (3,1) (3,2) (2,1) (1,2), agents 0-based
        assert mixed_order_3x2._later_pickers == ((2, 1), (2, 0), (1,), (0,), (), ())

    def test_script_refused_in_a_later_profile(self, mixed_order_3x2, profile_3x2):
        # agent 3 replays her picks (3, 3) of the first profile; in the
        # second, agent 1 ranks (3, 3) first and takes item 3 of category 1
        # in round 1, so the block stops at round 3 with the second
        # profile's refusal
        _, trace = cd.run_csam(mixed_order_3x2, profile_3x2, MIXED_BEHAVIORS_3X2)
        script = tuple(r.item for r in trace.rounds if r.agent == 3)
        assert script == (3, 3)
        shape = profile_3x2.shape
        first = cd.Preference(shape, reversed(list(shape.bundles())))
        other = cd.Profile(shape, [first, *profile_3x2.preferences[1:]])
        refusal = check_play_against_eager(
            mixed_order_3x2, [profile_3x2, other], ["opt", "opt", script]
        )
        assert refusal == (
            "round 3: scripted item 3 of category 1 is not available (remaining [1, 2])"
        )


def check_realized_ranks(order, profiles, kinds):
    """``engine._realized_ranks`` on a block of ``profiles`` equals
    ``rank_of`` on ``run_csam``'s allocation, profile by profile and agent
    by agent."""
    behaviors = tuple(kind_behaviors(kinds))
    ranks = []
    for profile in profiles:
        alloc, _ = cd.run_csam(order, profile, behaviors)
        ranks.append([profile.pref(j).rank_of(alloc[j]) for j in order.shape.agents()])
    views = views_of(profiles)
    assert engine._realized_ranks(order, views, behaviors) == ranks


class TestRealizedRanks:
    @settings(max_examples=100, deadline=None)
    @given(
        mixed_instance_strategy(), st.sampled_from([1, 2, 7]), st.randoms(use_true_random=False)
    )
    def test_bit_lengths_are_ranks(self, instance, size, rng):
        order, profile, kinds = instance
        check_realized_ranks(order, block_of(profile, kinds, size, rng, feasible=True), kinds)

    @pytest.mark.parametrize("n,p,seeds", [(4, 6, range(3)), (12, 2, range(4))])
    def test_larger_games(self, n, p, seeds):
        for seed in seeds:
            order, profile, kinds = seeded_instance(n, p, seed)
            block = block_of(profile, kinds, 2, random.Random(seed), feasible=True)
            check_realized_ranks(order, block, kinds)


class TestViews:
    @settings(max_examples=50, deadline=None)
    @given(
        mixed_instance_strategy(), st.sampled_from([1, 2, 7]), st.randoms(use_true_random=False)
    )
    def test_matches_the_per_profile_transpose(self, instance, size, rng):
        # each category's per-draw masks, cut n rows per profile, and the
        # per-draw rankings hold, by value, the oracle's masks and rankings
        # of each profile's preferences
        _, profile, kinds = instance
        profiles = block_of(profile, kinds, size, rng)
        views = views_by_value(views_of(profiles))
        assert views == profile_views([prof.preferences for prof in profiles])


class TestHeldCheck:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.data())
    def test_refuses_exactly_what_validate_allocation_refuses(self, n, p, data):
        # each agent's final bitset keeps ranking position 0, her drawn bundle
        shape = cd.DomainShape(n, p)
        table = cd.domain.bundle_table(shape)
        held = data.draw(st.lists(st.integers(0, shape.bundle_count - 1), min_size=n, max_size=n))
        allocation = cd.Allocation({j: table[idx] for j, idx in enumerate(held, 1)})
        check = cd.validate_allocation(shape, allocation)
        rankings, cons = [(idx,) for idx in held], [1] * n
        if check.ok:
            assert engine._held(shape, rankings, cons) == held
        else:
            with pytest.raises(AssertionError, match=re.escape(check.detail)):
                engine._held(shape, rankings, cons)


class TestScripted:
    def test_replay_reproduces_allocation(self, mixed_order_3x2, profile_3x2):
        alloc, trace = cd.run_csam(mixed_order_3x2, profile_3x2, MIXED_BEHAVIORS_3X2)
        scripts = []
        for j in (1, 2, 3):
            scripts.append(
                cd.Scripted([r.item for r in trace.rounds if r.agent == j])
            )
        replay, _ = cd.run_csam(mixed_order_3x2, profile_3x2, scripts)
        assert dict(replay.bundles) == dict(alloc.bundles)

    def test_unavailable_item_rejected(self):
        shape = cd.DomainShape(2, 1)
        order = cd.PickingOrder(shape, ((1, 1), (2, 1)))
        prefs = [cd.Preference(shape, [(1,), (2,)]) for _ in (1, 2)]
        profile = cd.Profile(shape, prefs)
        # a taken item and items outside 1..n are refused with one message
        for picks, t, left in [
            ((1, 1), 2, [2]), ((1, 0), 2, [2]), ((1, 3), 2, [2]), ((1, -1), 2, [2]),
            ((0, 1), 1, [1, 2]), ((3, 1), 1, [1, 2]), ((-1, 1), 1, [1, 2]),
        ]:
            behaviors = [cd.Scripted([item]) for item in picks]
            message = f"round {t}: scripted item {picks[t - 1]} of category 1 is not available"
            with pytest.raises(cd.ExecutionError, match=re.escape(f"{message} (remaining {left})")):
                cd.run_csam(order, profile, behaviors)

    @pytest.mark.parametrize("picks", [(1.7, 1), (True, 1)])
    def test_script_items_must_be_ints(self, mixed_order_3x2, profile_3x2, picks):
        behaviors = [cd.Scripted(picks), cd.OPTIMISTIC, cd.OPTIMISTIC]
        with pytest.raises(cd.ValidationError, match="not all integers"):
            cd.run_csam(mixed_order_3x2, profile_3x2, behaviors)

    def test_script_length_checked(self, mixed_order_3x2, profile_3x2):
        behaviors = [cd.Scripted([1]), cd.OPTIMISTIC, cd.OPTIMISTIC]
        with pytest.raises(cd.ValidationError):
            cd.run_csam(mixed_order_3x2, profile_3x2, behaviors)


class TestSerialDictatorship:
    def test_direct_equals_sequential(self, profile_3x2):
        for agent_order in itertools.permutations((1, 2, 3)):
            order = cd.serial_dictatorship_order(agent_order, 2)
            alloc, _ = cd.run_csam(order, profile_3x2, [cd.OPTIMISTIC] * 3)
            direct = cd.direct_serial_dictatorship(agent_order, profile_3x2)
            assert dict(direct.bundles) == dict(alloc.bundles)

    def test_first_dictator_gets_top(self, profile_3x2):
        direct = cd.direct_serial_dictatorship([2, 3, 1], profile_3x2)
        assert direct[2] == profile_3x2.pref(2).top()

    def test_known_outcome(self, profile_3x2):
        direct = cd.direct_serial_dictatorship([1, 2, 3], profile_3x2)
        assert dict(direct.bundles) == {1: (1, 2), 2: (2, 1), 3: (3, 3)}

    @pytest.mark.parametrize("agent_order", [[True, 2, 3], [1, 2, 3.0], [1, 2], [1, 2, "3"]])
    def test_rejects_non_permutations(self, profile_3x2, agent_order):
        # sorted([True, 2, 3]) == [1, 2, 3], so a sort alone would accept True
        with pytest.raises(cd.ValidationError, match="is not a permutation of 1..3"):
            cd.direct_serial_dictatorship(agent_order, profile_3x2)


class TestBehaviorValidation:
    def test_wrong_behavior_count(self, mixed_order_3x2, profile_3x2):
        with pytest.raises(cd.ValidationError):
            cd.run_csam(mixed_order_3x2, profile_3x2, [cd.OPTIMISTIC] * 2)

    @pytest.mark.parametrize("behavior", ["opt", None, cd.Behavior(), cd.Optimistic])
    def test_rejects_objects_that_are_not_behaviors(self, mixed_order_3x2, profile_3x2, behavior):
        behaviors = [cd.OPTIMISTIC, behavior, cd.PESSIMISTIC]
        message = f"agent 2 has unknown behavior {behavior!r}"
        with pytest.raises(cd.ValidationError, match=re.escape(message)):
            cd.run_csam(mixed_order_3x2, profile_3x2, behaviors)

    def test_profile_shape_mismatch(self, mixed_order_3x2):
        shape = cd.DomainShape(2, 2)
        prefs = [
            pref_of(shape, ["11", "12", "21", "22"]),
            pref_of(shape, ["11", "12", "21", "22"]),
        ]
        profile = cd.Profile(shape, prefs)
        with pytest.raises(cd.ValidationError):
            cd.run_csam(mixed_order_3x2, profile, [cd.OPTIMISTIC] * 2)
