"""Axiom audits for direct allocation mechanisms on categorized domains.

A direct mechanism maps a full preference profile to an allocation. Four
axioms are audited: strategy-proofness, non-bossiness, category-wise
neutrality and Pareto optimality. Each axiom is a predicate over cases; one
function, ``_audit``, is the only walk over the profiles. In ``Exhaustive``
mode it walks every profile of a small shape in ranking-index order, after
the early-exit guard ``domain._exceeds`` has refused any audit whose check
count is over the budget; the same guard caps ``all_rankings`` and
``all_allocations``. In ``Sampled`` mode it makes ``count`` uniform draws
from one generator seeded with ``seed``. Per profile, an audit's case
function yields that profile's cases, each with a weight, the number of
checks it counts; a sampled case function draws from the same generator
right after the profile. ``_audit`` runs one or more predicates over the
cases, adds each case's weight to each predicate's count up to the first
case it turns into a counterexample, and reports that case in a replayable
form.

The case functions:

* ``_deviations`` makes ``(profile, agent, deviation, baseline,
  alternative)`` cases: the outcomes before and after one agent misreports,
  the exhaustive ones memoized by walk position. Strategy-proofness and
  non-bossiness are predicates over them, and ``check_all`` audits both in
  one shared walk.
* ``_relabelings`` makes ``(profile, category, permutation, outcome)``
  cases for category-wise neutrality.
* Pareto optimality makes one case per profile: its outcome and the first
  feasible allocation that dominates it. An exhaustive case weighs the
  allocations it checked, all of them or those up to the dominating one.

The cases work on bundle indices. The serial dictatorships below run the
engine's one index scan (``engine._serial_picks``). A relabeled ranking maps
its bundle indices through an index map memoized per shape, category and
permutation (``_relabel_map``). The Pareto audit holds the feasible
allocations as cached rows of bundle indices (``_allocation_rows``), takes
per agent the set of bundles her ranking puts at or above her own, narrows
the rows one agent at a time to those whose bundle for her lies in her set,
and reports the first row left other than the outcome's own
(``_first_dominating``).

Caller input is checked once, where it enters. The rankings, misreports and
relabelings an audit builds itself are permutations by construction, so they
go straight to ``Preference._build`` (``all_rankings``,
``mallows.uniform_preference``, ``_relabeled``), as do the Mallows draws
(``mallows.sample_mallows`` and the study's profiles);
``Preference.from_indices`` is for indices a caller gives. The categories and
permutations an audit draws are not checked again either, while
``apply_category_permutation`` checks its caller's. A mechanism is caller code, so ``DirectMechanism.apply``
checks every allocation it returns.

Category-wise neutrality: relabeling the items of one category commutes with
the mechanism. Non-bossiness: no agent can change someone else's bundle by a
misreport that keeps her own bundle fixed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .domain import (
    Allocation,
    Bundle,
    CapacityError,
    DomainShape,
    Preference,
    Profile,
    ValidationError,
    _REPR,
    _bundle_index,
    _bundle_lookup,
    _check_category,
    _check_permutation,
    _check_seed,
    _exceeds,
    _invalid,
    allocation_to_json,
    bundle_table,
    profile_to_json,
    validate_allocation,
)
from .engine import _serial_picks, direct_serial_dictatorship
from .mallows import uniform_preference


@dataclass(frozen=True)
class DirectMechanism:
    name: str
    fn: Callable[[Profile], Allocation]

    def apply(self, profile: Profile) -> Allocation:
        allocation = self.fn(profile)
        check = validate_allocation(profile.shape, allocation)
        if not check.ok:
            raise AssertionError(f"mechanism {self.name} broke feasibility: {check.detail}")
        return allocation


@dataclass(frozen=True)
class Exhaustive:
    budget: int = 10_000_000

    def __post_init__(self) -> None:
        if not (type(self.budget) is int and self.budget >= 1):
            raise _invalid("exhaustive mode needs a budget of at least 1 check", self.budget)


@dataclass(frozen=True)
class Sampled:
    count: int
    seed: int

    def __post_init__(self) -> None:
        if not (type(self.count) is int and self.count >= 1):
            raise _invalid("sampled mode needs a count of at least 1", self.count)
        _check_seed(self.seed)


Mode = Exhaustive | Sampled

# a profile's cases, given the profile, its walk position and the sampled
# mode's generator (None when exhaustive), as (weight, predicate args) pairs
_Cases = Callable[[Profile, int, np.random.Generator | None], Iterator[tuple[int, tuple]]]


@dataclass(frozen=True)
class Counterexample:
    kind: str
    profile: Profile
    baseline: Allocation
    alternative: Allocation
    agent: int | None = None
    deviation: Preference | None = None
    category: int | None = None
    permutation: tuple[int, ...] | None = None


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    mechanism: str
    passed: bool
    coverage: str
    checked: int
    counterexample: Counterexample | None = None

    def to_json(self) -> dict:
        doc = {
            "axiom": self.axiom,
            "mechanism": self.mechanism,
            "passed": self.passed,
            "coverage": self.coverage,
            "checked": self.checked,
        }
        if self.counterexample is not None:
            ce = self.counterexample
            doc["counterexample"] = {
                "kind": ce.kind,
                "agent": ce.agent,
                "category": ce.category,
                "permutation": list(ce.permutation) if ce.permutation else None,
                "profile": profile_to_json(ce.profile),
                "baseline": allocation_to_json(ce.baseline),
                "alternative": allocation_to_json(ce.alternative),
                "deviation": (
                    [list(b) for b in ce.deviation.order] if ce.deviation else None
                ),
            }
        return doc


def _factorial_factors(k: int, power: int = 1) -> Iterator[int]:
    """Factors whose product is ``factorial(k) ** power``."""
    return itertools.chain.from_iterable(itertools.repeat(range(2, k + 1), power))


@lru_cache(maxsize=8)
def all_rankings(shape: DomainShape) -> tuple[Preference, ...]:
    """Every strict ranking of the bundle space, in lexicographic order."""
    if _exceeds(1_000_000, _factorial_factors(shape.bundle_count)):
        raise CapacityError(
            f"shape {shape.n}x{shape.p} has more than 1000000 rankings to materialize; "
            "use sampled mode"
        )
    # bundle_table lists bundles in index order, so index permutations come
    # in the same lexicographic order as bundle permutations
    perms = itertools.permutations(range(shape.bundle_count))
    return tuple(Preference.__new__(Preference)._build(shape, perm) for perm in perms)


@lru_cache(maxsize=8)
def all_allocations(shape: DomainShape) -> tuple[Allocation, ...]:
    """Every feasible allocation: one item permutation per category."""
    if _exceeds(1_000_000, _factorial_factors(shape.n, shape.p)):
        raise CapacityError(
            f"shape {shape.n}x{shape.p} has more than 1000000 allocations to materialize"
        )
    perms = list(itertools.permutations(range(1, shape.n + 1)))
    # combo holds one item permutation per category; agent j's bundle takes
    # the j-th item of each
    return tuple(
        Allocation(dict(zip(shape.agents(), zip(*combo))))
        for combo in itertools.product(perms, repeat=shape.p)
    )


def apply_category_permutation(obj, category: int, permutation: Sequence[int]):
    """Relabel the items of one category (item d becomes permutation[d-1]).

    Accepts a Bundle, Preference, Profile, or Allocation and returns the same
    kind. A bare bundle takes p from its length and n from the
    permutation's; an allocation takes p from its shortest bundle and n from
    its agent count.
    """
    perm = tuple(permutation)
    if isinstance(obj, (Preference, Profile)):
        _check_perm(obj.shape.n, obj.shape.p, category, perm)
        return _relabeled(obj, category, perm)
    if isinstance(obj, Allocation):
        bundles = obj.bundles
        _check_perm(len(bundles), min(map(len, bundles.values()), default=0), category, perm)
        return Allocation({j: _permute_bundle(b, category, perm) for j, b in bundles.items()})
    if isinstance(obj, tuple):
        _check_perm(len(perm), len(obj), category, perm)
        return _permute_bundle(obj, category, perm)
    raise ValidationError(f"cannot permute object of type {type(obj).__name__}")


def _check_perm(n: int, p: int, category, perm: tuple) -> None:
    _check_category(category, p)
    _check_permutation(perm, n)


def _permute_bundle(bundle: Bundle, category: int, perm: tuple[int, ...]) -> Bundle:
    """``bundle`` (a tuple or a list) as a tuple with its ``category`` item,
    a plain int, relabeled by ``perm``, a checked permutation of
    1..len(perm)."""
    bundle = tuple(bundle)
    item = bundle[category - 1]
    if not (type(item) is int and 1 <= item <= len(perm)):
        raise ValidationError(
            f"bundle {_REPR.repr(bundle)} holds item {_REPR.repr(item)} outside 1..{len(perm)}"
        )
    return bundle[: category - 1] + (perm[item - 1],) + bundle[category:]


def _profile(shape: DomainShape, preferences: tuple[Preference, ...]) -> Profile:
    """A profile of rankings an audit built at ``shape`` itself (a walk
    position, a misreport, a relabeling), so ``Profile``'s caller check is
    skipped."""
    return Profile.__new__(Profile)._build(shape, preferences)


def _relabeled(obj: Preference | Profile, category: int, perm: tuple) -> Preference | Profile:
    """``obj``, a checked preference or profile, with the items of
    ``category`` relabeled by ``perm``, a checked permutation. A ranking's
    bundle indices mapped through ``_relabel_map`` are a permutation of them
    again, so each relabeled ranking is built unchecked."""
    if isinstance(obj, Profile):
        prefs = tuple(_relabeled(pref, category, perm) for pref in obj.preferences)
        return _profile(obj.shape, prefs)
    relabel = _relabel_map(obj.shape, category, perm).__getitem__
    return Preference.__new__(Preference)._build(obj.shape, tuple(map(relabel, obj.indices)))


@lru_cache(maxsize=32)
def _relabel_map(shape: DomainShape, category: int, perm: tuple[int, ...]) -> tuple[int, ...]:
    """``map[idx]``: the bundle index that bundle index ``idx`` becomes when
    the items of ``category`` are relabeled by ``perm``. The indices are
    mixed-radix, so in ``range(n**p)`` shaped ``(-1, n, weight)`` the middle
    axis is the digit of ``category``, of weight ``n**(p - category)``."""
    n, weight = shape.n, shape.n ** (shape.p - category)
    blocks = np.arange(shape.bundle_count).reshape(-1, n, weight)
    return tuple(blocks[:, np.array(perm) - 1].ravel().tolist())


def _audit(
    axioms: Sequence[tuple[str, Callable[..., Counterexample | None]]],
    mechanism: DirectMechanism,
    shape: DomainShape,
    mode: Mode,
    per_profile: Iterable[int],
    cases: _Cases,
) -> list[AxiomVerdict]:
    """One verdict per ``(axiom, violation)`` pair from one walk over the
    profiles: every profile in ranking-index order (``Exhaustive``), or
    ``mode.count`` uniform draws from one generator seeded with ``mode.seed``
    (``Sampled``).

    ``cases(profile, k, rng)`` yields the cases of the walk's ``k``-th
    profile as ``(weight, args)``; in sampled mode it draws from ``rng``
    right after the profile, and in exhaustive mode ``rng`` is None. Each
    axiom adds a case's weight, the number of checks it counts, to its
    ``checked`` until its ``violation(*args)`` returns a counterexample, and
    then checks no further case; the walk ends when every axiom has a
    counterexample or the profiles run out. An exhaustive audit is refused,
    naming the first axiom, before its first case when the number of
    profiles times the product of ``per_profile`` (the checks per profile)
    is over the budget.
    """
    if isinstance(mode, Exhaustive):
        profiles = _factorial_factors(shape.bundle_count, shape.n)
        if _exceeds(mode.budget, itertools.chain(per_profile, profiles)):
            raise CapacityError(
                f"exhaustive {axioms[0][0]} over shape {shape.n}x{shape.p} needs more than "
                f"{mode.budget} checks, the budget"
            )
        rng, coverage = None, "exhaustive"
        walk = map(partial(_profile, shape), itertools.product(all_rankings(shape), repeat=shape.n))
    else:
        rng = np.random.default_rng(mode.seed)
        coverage = f"sampled(count={mode.count}, seed={mode.seed})"
        walk = (
            _profile(shape, tuple(uniform_preference(shape, rng) for _ in shape.agents()))
            for _ in range(mode.count)
        )
    checked = [0] * len(axioms)
    found: list[Counterexample | None] = [None] * len(axioms)
    stream = itertools.chain.from_iterable(cases(profile, k, rng) for k, profile in enumerate(walk))
    for weight, args in stream:
        for i, (_, violation) in enumerate(axioms):
            if found[i] is None:
                checked[i] += weight
                found[i] = violation(*args)
        if all(found):
            break
    return [
        AxiomVerdict(axiom, mechanism.name, cx is None, coverage, count, cx)
        for (axiom, _), count, cx in zip(axioms, checked, found)
    ]


def _deviations(mechanism: DirectMechanism, shape: DomainShape) -> _Cases:
    """Per profile, the ``(profile, agent, deviation, baseline, alternative)``
    cases: the mechanism's outcome on the truthful profile and on the profile
    with the agent's report replaced by the deviation.

    Exhaustive: every agent and other ranking. The outcomes are memoized by
    walk position: agent ``j``'s ranking index is the position's digit of
    place value ``R**(n - j)``, R the number of rankings, so her misreport
    moves the position by a multiple of that stride. Sampled: an agent and a
    uniform misreport, which may equal the truthful ranking.
    """
    outcomes: dict[int, Allocation] = {}

    def cases(profile, k, rng):
        reports = profile.preferences
        if rng is not None:
            j = int(rng.integers(1, shape.n + 1))
            deviation = uniform_preference(shape, rng)
            misreport = _profile(shape, reports[: j - 1] + (deviation,) + reports[j:])
            yield 1, (profile, j, deviation, mechanism.apply(profile), mechanism.apply(misreport))
            return
        if k not in outcomes:
            outcomes[k] = mechanism.apply(profile)
        base = outcomes[k]
        rankings = all_rankings(shape)
        for j in shape.agents():
            stride = len(rankings) ** (shape.n - j)
            own = k // stride % len(rankings)
            for dev, deviation in enumerate(rankings):
                if dev == own:
                    continue
                key = k + (dev - own) * stride
                if key not in outcomes:
                    misreport = _profile(shape, reports[: j - 1] + (deviation,) + reports[j:])
                    outcomes[key] = mechanism.apply(misreport)
                yield 1, (profile, j, deviation, base, outcomes[key])

    return cases


def _relabelings(mechanism: DirectMechanism, shape: DomainShape) -> _Cases:
    """Per profile, the ``(profile, category, permutation, outcome)`` cases,
    where ``outcome`` is the mechanism's allocation for the profile before
    relabeling.

    Exhaustive: every category and non-identity permutation. Sampled: a
    category and a uniform permutation; an identity draw yields no case.
    """
    identity = tuple(shape.agents())

    def cases(profile, k, rng):
        if rng is None:
            outcome = mechanism.apply(profile)
            for category in shape.categories():
                for perm in itertools.permutations(identity):
                    if perm != identity:
                        yield 1, (profile, category, perm, outcome)
            return
        category = int(rng.integers(1, shape.p + 1))
        shuffled = list(identity)
        rng.shuffle(shuffled)  # the same draws and swaps as rng.permutation(shape.n)
        perm = tuple(shuffled)
        if perm != identity:
            yield 1, (profile, category, perm, mechanism.apply(profile))

    return cases


def _manipulation(profile, j, deviation, base, alt) -> Counterexample | None:
    """The misreport strictly improves the deviator's own bundle."""
    truth = profile.pref(j)
    if alt[j] != base[j] and truth.rank_of(alt[j]) < truth.rank_of(base[j]):
        return Counterexample("strategy-proofness", profile, base, alt, agent=j, deviation=deviation)
    return None


def _bossing(profile, j, deviation, base, alt) -> Counterexample | None:
    """The misreport keeps the deviator's bundle but changes the allocation."""
    if alt[j] == base[j] and alt.bundles != base.bundles:
        return Counterexample("non-bossiness", profile, base, alt, agent=j, deviation=deviation)
    return None


_STRATEGY_PROOFNESS = ("strategy-proofness", _manipulation)
_NON_BOSSINESS = ("non-bossiness", _bossing)


def _deviation_audit(
    mechanism: DirectMechanism, shape: DomainShape, mode: Mode, *axioms
) -> list[AxiomVerdict]:
    # n agents times (n**p)! rankings each, the truthful one included
    cost = itertools.chain((shape.n,), _factorial_factors(shape.bundle_count))
    return _audit(axioms, mechanism, shape, mode, cost, _deviations(mechanism, shape))


def check_strategy_proofness(
    mechanism: DirectMechanism, shape: DomainShape, mode: Mode = Exhaustive()
) -> AxiomVerdict:
    """No agent can strictly improve her own bundle by misreporting."""
    return _deviation_audit(mechanism, shape, mode, _STRATEGY_PROOFNESS)[0]


def check_non_bossiness(
    mechanism: DirectMechanism, shape: DomainShape, mode: Mode = Exhaustive()
) -> AxiomVerdict:
    """A misreport that leaves the deviator's bundle unchanged must leave the
    whole allocation unchanged."""
    return _deviation_audit(mechanism, shape, mode, _NON_BOSSINESS)[0]


def check_category_wise_neutrality(
    mechanism: DirectMechanism, shape: DomainShape, mode: Mode = Exhaustive()
) -> AxiomVerdict:
    """Relabeling one category's items commutes with the mechanism."""
    axiom = "category-wise-neutrality"

    def violation(profile, category, perm, outcome):
        # the audit drew the category and permutation, and apply checked the
        # outcome: relabel both without checking them again
        lhs = mechanism.apply(_relabeled(profile, category, perm))
        rhs = Allocation({j: _permute_bundle(b, category, perm) for j, b in outcome.items()})
        # rhs holds tuples, and a mechanism may return list bundles
        if lhs.bundles != rhs.bundles and rhs.bundles != {
            j: tuple(b) for j, b in lhs.bundles.items()
        }:
            return Counterexample(
                axiom, profile, lhs, rhs, category=category, permutation=perm
            )
        return None

    # p categories times n! permutations, the identity included
    cost = itertools.chain((shape.p,), _factorial_factors(shape.n))
    cases = _relabelings(mechanism, shape)
    return _audit([(axiom, violation)], mechanism, shape, mode, cost, cases)[0]


@lru_cache(maxsize=8)
def _allocation_rows(shape: DomainShape) -> tuple[tuple[int, ...], ...]:
    """``rows[k][j - 1]``: the bundle index that allocation ``k`` of
    ``all_allocations(shape)`` gives agent ``j``."""
    lookup = _bundle_lookup(shape)
    return tuple(
        tuple(lookup[allocation[j]] for j in shape.agents()) for allocation in all_allocations(shape)
    )


def _first_dominating(profile: Profile, base: Allocation) -> int | None:
    """Position in ``all_allocations`` of the first allocation that Pareto
    dominates ``base``, or None.

    Agent ``j`` weakly prefers exactly the bundles of her ranking down to her
    own in ``base``. Since rankings are strict, the allocations that make
    nobody worse off and somebody better off are the rows inside every
    agent's set other than ``base``'s own. The row positions are narrowed
    one agent at a time, keeping those whose bundle for that agent lies in
    her set, and the first survivor other than ``base``'s row is returned."""
    shape = profile.shape
    lookup, table = _bundle_lookup(shape), bundle_table(shape)
    own = tuple(_bundle_index(shape, lookup, table, base[j]) for j in shape.agents())
    rows = _allocation_rows(shape)
    keep = range(len(rows))
    for j, (pref, idx) in enumerate(zip(profile.preferences, own)):
        ranking = pref.indices
        weak = set(ranking[: ranking.index(idx) + 1])
        keep = [k for k in keep if rows[k][j] in weak]
    return next((k for k in keep if rows[k] != own), None)


def check_pareto_optimality(
    mechanism: DirectMechanism, shape: DomainShape, mode: Mode = Exhaustive()
) -> AxiomVerdict:
    """No feasible allocation weakly improves every agent and strictly
    improves at least one."""
    axiom = "pareto-optimality"
    allocations = all_allocations(shape)

    def violation(profile, base, first):
        if first is None:
            return None
        return Counterexample(axiom, profile, base, allocations[first])

    def cases(profile, k, rng):
        base = mechanism.apply(profile)
        first = _first_dominating(profile, base)
        # an exhaustive case counts (profile, allocation) pairs, up to the
        # first dominating allocation
        pairs = len(allocations) if first is None else first + 1
        yield (pairs if rng is None else 1), (profile, base, first)

    cost = (len(allocations),)
    return _audit([(axiom, violation)], mechanism, shape, mode, cost, cases)[0]


def check_all(mechanism: DirectMechanism, shape: DomainShape, mode: Mode) -> list[AxiomVerdict]:
    if isinstance(mode, Sampled):
        # the sampled Pareto audit still needs every allocation: refuse up front
        all_allocations(shape)
    return [
        *_deviation_audit(mechanism, shape, mode, _STRATEGY_PROOFNESS, _NON_BOSSINESS),
        check_category_wise_neutrality(mechanism, shape, mode),
        check_pareto_optimality(mechanism, shape, mode),
    ]


# Reference mechanisms


def sd_direct(agent_order: Sequence[int]) -> DirectMechanism:
    """Whole-bundle serial dictatorship in a fixed agent order."""
    order = tuple(agent_order)
    return DirectMechanism(
        f"sd{list(order)}", lambda profile: direct_serial_dictatorship(order, profile)
    )


def welfare_maximizer() -> DirectMechanism:
    """Exact weighted-welfare maximizer.

    An agent's i-th ranked bundle scores (n**p - i) * (1 + (1/(2*n**p))**j)
    where j is the agent index; the perturbation makes every profile's
    maximizer unique (checked) while preserving the utilitarian flavor.
    Scores are kept as exact ints, each scaled by ``(2*n**p)**n``, which
    changes neither the maximum nor a tie. Strategy-proofness fails for it,
    which is the role it plays in tests.
    """

    def fn(profile: Profile) -> Allocation:
        shape = profile.shape
        m, n, prefs = shape.bundle_count, shape.n, profile.preferences
        # agent j's weight 1 + (1/(2m))**j, scaled by (2m)**n
        agents = [(j, prefs[j - 1], (2 * m) ** n + (2 * m) ** (n - j)) for j in shape.agents()]
        allocations = all_allocations(shape)
        scores = [
            sum((m - pref.rank_of(allocation[j])) * weight for j, pref, weight in agents)
            for allocation in allocations
        ]
        best = max(scores, default=None)
        if best is None or scores.count(best) > 1:
            raise AssertionError("perturbed welfare scores must have a unique maximum")
        return allocations[scores.index(best)]

    return DirectMechanism("welfare-max", fn)


def _conditional_sd(name: str, ascending) -> DirectMechanism:
    """Serial dictatorship led by agent 1, who gets her top bundle; the others
    follow in order 2..n when ``ascending(profile, that bundle)``, else in
    order n..2."""

    def fn(profile: Profile) -> Allocation:
        n = profile.shape.n
        top = profile.preferences[0].top()
        rest = range(2, n + 1) if ascending(profile, top) else range(n, 1, -1)
        return _serial_picks([1, *rest], profile)

    return DirectMechanism(name, fn)


def bossy_conditional_sd() -> DirectMechanism:
    """Serial dictatorship whose tail order flips on a payoff-irrelevant
    feature of agent 1's report: if the first component of her second-ranked
    bundle matches her top's, the others pick in ascending order, else
    descending. Strategy-proof but bossy (for three or more agents)."""

    def ascending(profile: Profile, top: Bundle) -> bool:
        # one agent has one bundle and no second one
        return profile.shape.n == 1 or profile.preferences[0].bundle_at(2)[0] == top[0]

    return _conditional_sd("bossy-sd", ascending)


def non_neutral_conditional_sd() -> DirectMechanism:
    """Serial dictatorship whose tail order flips on whether agent 1 receives
    the all-ones bundle, an item-label-dependent condition that breaks
    category-wise neutrality (for three or more agents)."""
    return _conditional_sd("nonneutral-sd", lambda profile, top: top == (1,) * profile.shape.p)


def worst_pick_sd(agent_order: Sequence[int]) -> DirectMechanism:
    """Each dictator takes her worst still-compatible bundle; violates Pareto
    optimality on purpose (test fixture). The agent order is checked against
    the profile's ``n`` on each application, as ``sd_direct``'s is."""
    order = tuple(agent_order)

    def fn(profile: Profile) -> Allocation:
        _check_permutation(order, profile.shape.n, "agent order ")
        return _serial_picks(order, profile, worst_first=True)

    return DirectMechanism(f"worst-pick-sd{list(order)}", fn)
