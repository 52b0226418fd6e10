import hashlib
import itertools
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import catdom as cd
from catdom.adversarial import _strategic_rec
from catdom.cli import main

from conftest import MIXED_BEHAVIORS_3X2


def realized_ranks(order, profile, behaviors):
    alloc, _ = cd.run_csam(order, profile, behaviors)
    return {j: profile.pref(j).rank_of(alloc[j]) for j in order.shape.agents()}


class TestMixedWitness:
    def test_pessimistic_agent_ranking_pinned(self, mixed_order_3x2):
        profile = cd.worst_case_profile(mixed_order_3x2, MIXED_BEHAVIORS_3X2)
        expected = ["13", "11", "12", "21", "22", "32", "33", "31", "23"]
        got = [
            "".join(map(str, profile.pref(3).bundle_at(r)))
            for r in range(1, 10)
        ]
        assert got == expected

    def test_bounds_attained_exactly(self, mixed_order_3x2):
        profile = cd.worst_case_profile(mixed_order_3x2, MIXED_BEHAVIORS_3X2)
        report = cd.worst_case_report(mixed_order_3x2, MIXED_BEHAVIORS_3X2)
        ranks = realized_ranks(mixed_order_3x2, profile, MIXED_BEHAVIORS_3X2)
        assert ranks == {1: 9, 2: 9, 3: 7}
        for j in (1, 2, 3):
            assert ranks[j] == report.bound(j)

    def test_everyone_replays_own_items(self, mixed_order_3x2):
        profile = cd.worst_case_profile(mixed_order_3x2, MIXED_BEHAVIORS_3X2)
        alloc, trace = cd.run_csam(mixed_order_3x2, profile, MIXED_BEHAVIORS_3X2)
        for record in trace.rounds:
            assert record.item == record.agent
        assert dict(alloc.bundles) == {1: (1, 1), 2: (2, 2), 3: (3, 3)}

    def test_near_optimal_pinned(self, mixed_order_3x2):
        profile = cd.worst_case_profile(mixed_order_3x2, MIXED_BEHAVIORS_3X2)
        near = cd.near_optimal_allocation(mixed_order_3x2, profile)
        assert dict(near.bundles) == {1: (2, 1), 2: (3, 2), 3: (1, 3)}
        ranks = [profile.pref(j).rank_of(near[j]) for j in (1, 2, 3)]
        assert ranks == [2, 1, 1]

    def test_pin_tops(self, mixed_order_3x2):
        profile = cd.worst_case_profile(mixed_order_3x2, MIXED_BEHAVIORS_3X2)
        # non-first pickers of category 1 rank their predecessor bundle first
        assert profile.pref(2).top() == (3, 2)
        assert profile.pref(3).top() == (1, 3)
        # the first picker keeps the swap bundle second
        assert profile.pref(1).bundle_at(2) == (2, 1)


@st.composite
def witness_instance(draw, max_n=4, max_p=3):
    n = draw(st.integers(1, max_n))
    p = draw(st.integers(1, max_p))
    shape = cd.DomainShape(n, p)
    pairs = [(j, i) for j in shape.agents() for i in shape.categories()]
    rounds = tuple(draw(st.permutations(pairs)))
    kinds = tuple(draw(st.sampled_from(["opt", "pess"])) for _ in shape.agents())
    behaviors = [cd.OPTIMISTIC if k == "opt" else cd.PESSIMISTIC for k in kinds]
    return cd.PickingOrder(shape, rounds), behaviors


class TestWitnessProperty:
    @settings(max_examples=120, deadline=None)
    @given(witness_instance())
    def test_every_bound_attained(self, instance):
        order, behaviors = instance
        profile = cd.worst_case_profile(order, behaviors)
        report = cd.worst_case_report(order, behaviors)
        ranks = realized_ranks(order, profile, behaviors)
        for j in order.shape.agents():
            assert ranks[j] == report.bound(j)

    @settings(max_examples=120, deadline=None)
    @given(witness_instance())
    def test_near_optimal_condition(self, instance):
        order, behaviors = instance
        n = order.shape.n
        profile = cd.worst_case_profile(order, behaviors)
        near = cd.near_optimal_allocation(order, profile)
        assert cd.validate_allocation(order.shape, near).ok
        ranks = sorted(profile.pref(j).rank_of(near[j]) for j in order.shape.agents())
        assert ranks[-1] <= 2
        assert ranks[: n - 1] == [1] * (n - 1)


class TestGoldenWitness:
    """Witness profiles pinned by digest of their JSON document; a change
    to any digest is a change to the construction and is recorded in
    CHANGES.md."""

    CASES = {
        "balanced-4x4": (
            lambda: cd.balanced_order([1, 2, 3, 4], 4),
            (cd.OPTIMISTIC, cd.PESSIMISTIC, cd.OPTIMISTIC, cd.PESSIMISTIC),
            "46cbe0901a0af1c9eaf85b99aea7aa137d3c54ad3aef669285ed7b219981e4df",
        ),
        "interrupter-3x4": (
            lambda: cd.interrupter_order(3, 4),
            (cd.OPTIMISTIC, cd.OPTIMISTIC, cd.PESSIMISTIC),
            "08cb4d13754e775e565c53caac87e61b93af3777eb0cc759c846a53af7915a9f",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_profile_pinned(self, name):
        make, behaviors, digest = self.CASES[name]
        doc = cd.profile_to_json(cd.worst_case_profile(make(), behaviors))
        assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest


class TestNearOptimalValidation:
    def test_rejects_unsupportive_profile(self, mixed_order_3x2):
        shape = mixed_order_3x2.shape
        ascending = cd.Preference(shape, list(shape.bundles()))
        profile = cd.Profile(shape, [ascending] * 3)
        with pytest.raises(cd.ConstructionError):
            cd.near_optimal_allocation(mixed_order_3x2, profile)


class TestEdgeShapes:
    def test_single_agent(self):
        shape = cd.DomainShape(1, 3)
        order = cd.PickingOrder(shape, ((1, 2), (1, 1), (1, 3)))
        profile = cd.worst_case_profile(order, [cd.OPTIMISTIC])
        alloc, _ = cd.run_csam(order, profile, [cd.OPTIMISTIC])
        assert alloc[1] == (1, 1, 1)
        assert profile.pref(1).rank_of((1, 1, 1)) == 1

    def test_single_category_pessimists(self):
        shape = cd.DomainShape(4, 1)
        order = cd.PickingOrder(shape, ((2, 1), (4, 1), (1, 1), (3, 1)))
        behaviors = [cd.PESSIMISTIC] * 4
        profile = cd.worst_case_profile(order, behaviors)
        report = cd.worst_case_report(order, behaviors)
        ranks = realized_ranks(order, profile, behaviors)
        for j in (1, 2, 3, 4):
            assert ranks[j] == report.bound(j)

    def test_behavior_count_checked(self, mixed_order_3x2):
        with pytest.raises(cd.ValidationError):
            cd.worst_case_profile(mixed_order_3x2, [cd.OPTIMISTIC] * 2)

    def test_scripted_rejected(self, mixed_order_3x2):
        behaviors = [cd.Scripted((1, 1)), cd.OPTIMISTIC, cd.OPTIMISTIC]
        with pytest.raises(cd.ValidationError, match="scripted agents have no order-level"):
            cd.worst_case_profile(mixed_order_3x2, behaviors)


def counted(monkeypatch, *names):
    """Count the calls of each named ``catdom`` function, wrapped at every
    module binding that holds it."""
    calls = dict.fromkeys(names, 0)
    modules = [m for k, m in sys.modules.items() if k == "catdom" or k.startswith("catdom.")]
    for name in names:
        original = getattr(cd, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


class TestOneReplay:
    """Each witness is built, replayed and checked once per request."""

    def test_worst_case_cli(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "order.json"
        path.write_text(json.dumps(cd.order_to_json(cd.balanced_order([1, 2, 3, 4], 4))))
        calls = counted(monkeypatch, "run_csam", "near_optimal_allocation")
        assert main(["worst-case", "--order", str(path), "--behaviors", "opt,pess,opt,pess"]) == 0
        assert json.loads(capsys.readouterr().out)["realized"]["ranks"] == {
            "1": 256, "2": 250, "3": 254, "4": 250,
        }
        assert calls == {"run_csam": 1, "near_optimal_allocation": 1}

    def test_interrupter_audit(self, monkeypatch):
        calls = counted(monkeypatch, "run_csam")
        assert cd.audit_interrupter_order(3, 4).witness_checked is True
        assert calls == {"run_csam": 1}


def loop_strategic_rec(rounds):
    """The strategic splice written out per agent and per part, kept as the
    oracle of ``adversarial._strategic_rec``."""
    cats = sorted({i for _, i in rounds})
    j_star, i_star = rounds[0]
    other = 3 - j_star
    if len(cats) == 1:
        ranking = [(1,), (2,)]
        return {1: list(ranking), 2: list(ranking)}, {j_star: (1,), other: (2,)}

    reduced = tuple((j, i) for j, i in rounds if i != i_star)
    sub_rankings, sub_spne = loop_strategic_rec(reduced)
    pos = cats.index(i_star)

    def ext(bundle, item):
        return bundle[:pos] + (item,) + bundle[pos:]

    rankings = {}
    for agent in (1, 2):
        seq = sub_rankings[agent]
        pivot = seq.index(sub_spne[agent])
        top, bottom = seq[:pivot], seq[pivot + 1 :]
        b = sub_spne[agent]
        if agent == j_star:
            rankings[agent] = (
                [ext(d, 1) for d in top]
                + [ext(d, 2) for d in top]
                + [ext(b, 1), ext(b, 2)]
                + [ext(d, 1) for d in bottom]
                + [ext(d, 2) for d in bottom]
            )
        else:
            rankings[agent] = (
                [ext(d, 1) for d in top]
                + [ext(b, 1)]
                + [ext(d, 1) for d in bottom]
                + [ext(d, 2) for d in top]
                + [ext(b, 2)]
                + [ext(d, 2) for d in bottom]
            )
    spne = {j_star: ext(sub_spne[j_star], 1), other: ext(sub_spne[other], 2)}
    return rankings, spne


def two_agent_orders(p):
    """Every 2 x p order for p <= 3, else 20 seeded ones."""
    pairs = [(j, i) for j in (1, 2) for i in range(1, p + 1)]
    if p <= 3:
        return list(itertools.permutations(pairs))
    rng = np.random.default_rng(p)
    return [tuple(pairs[k] for k in rng.permutation(len(pairs))) for _ in range(20)]


class TestStrategicWitness:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_splice_matches_loop_oracle(self, p):
        for rounds in two_agent_orders(p):
            assert _strategic_rec(rounds) == loop_strategic_rec(rounds), rounds

    def test_game_order_rankings(self, game_order_2x2):
        profile = cd.strategic_worst_profile(game_order_2x2)
        r1 = [profile.pref(1).bundle_at(r) for r in range(1, 5)]
        r2 = [profile.pref(2).bundle_at(r) for r in range(1, 5)]
        assert r1 == [(1, 1), (2, 1), (1, 2), (2, 2)]
        assert r2 == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_game_order_equilibrium_hits_bound(self, game_order_2x2):
        profile = cd.strategic_worst_profile(game_order_2x2)
        alloc, _ = cd.solve_spne(game_order_2x2, profile)
        assert dict(alloc.bundles) == {1: (1, 2), 2: (2, 1)}
        an = game_order_2x2.analytics
        for j in (1, 2):
            assert profile.pref(j).rank_of(alloc[j]) == cd.strategic_bound(an, j)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_tight_across_category_counts(self, p):
        shape = cd.DomainShape(2, p)
        pairs = [(j, i) for j in (1, 2) for i in range(1, p + 1)]
        # interleave the agents to keep both slack products nontrivial
        rounds = tuple(sorted(pairs, key=lambda pair: (pair[1], pair[0])))
        order = cd.PickingOrder(shape, rounds)
        profile = cd.strategic_worst_profile(order)
        alloc, _ = cd.solve_spne(order, profile)
        an = order.analytics
        for j in (1, 2):
            assert profile.pref(j).rank_of(alloc[j]) == cd.strategic_bound(an, j)

    def test_requires_two_agents(self):
        order = cd.serial_dictatorship_order([1, 2, 3], 2)
        with pytest.raises(cd.ValidationError):
            cd.strategic_worst_profile(order)
