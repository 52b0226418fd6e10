"""Constructive worst-case profiles for sequential picking.

``worst_case_profile`` builds, for a picking order and per-agent
optimistic/pessimistic behaviors, one profile on which every agent
simultaneously realizes her worst-case rank bound exactly. One private pass,
``_witness``, takes the bounds from ``bounds.worst_case_report``, builds the
rankings, replays the profile once and builds ``near_optimal_allocation``
once; it raises ``ConstructionError`` if any agent ends up off her bound.
The ``worst-case`` CLI reads all of it from that one pass.

Construction sketch (writing ``own`` for agent j's all-j bundle, i.e. item j
in every category, and ``almost-j`` bundles for bundles equal to ``own``
except in one category):

* The replay is the identity: every agent picks item j in every category.
  Under that replay, item q of category e disappears exactly at the round
  where agent q picks from category e, which makes availability of every
  bundle a pure function of the order.
* Each agent's ranking has three parts: a few pinned almost-j bundles on top,
  then all unconstrained bundles in ascending bundle-index order, then a
  bottom block containing ``own`` and everything the order can force on her.
  The bottom block is sized so that ``own`` sits exactly at the agent's bound.
* Optimistic agents: the block is the product set "item j in suborder
  positions before the uninterrupted index K, any still-obtainable item in
  positions at and after K". At her early rounds (positions before K) some
  pinned almost-j bundle is still fully available and steers her to item j;
  the pins are chosen so that each dies (one of its items is taken by someone
  else) before the round where it could steer her wrong. From position K on,
  every consistent available bundle already lies in the block, whose top
  element is ``own``.
* Pessimistic agents: the block holds ``own`` plus one almost-j bundle per
  (suborder position l, still-obtainable item d != j), stacked so that later
  positions rank higher and, within a position, items ascend. At her round in
  position l, every rival item's worst consistent bundle is its position-l
  bundle, while item j's worst consistent bundle sits strictly higher, so she
  picks j.
* The top pin of every agent except the round-1 agent is the almost-j bundle
  holding the item of her cyclic predecessor in the first round's category
  (``_near``, which both ranking builders read); giving every agent that
  bundle is a valid allocation (``near_optimal_allocation``) in which all
  agents except the round-1 agent get their rank-1 bundle and the round-1
  agent gets rank 1 or 2.

``strategic_worst_profile`` does the analogous job for two fully strategic
agents (n = 2): a recursive profile on which the unique subgame-perfect
equilibrium gives both agents exactly their strategic bound.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .bounds import RankBoundReport, worst_case_report
from .domain import (
    Allocation,
    Bundle,
    DomainShape,
    Preference,
    Profile,
    ValidationError,
    _bundle_lookup,
    bundle_table,
    validate_allocation,
)
from .engine import Behavior, run_csam
from .orders import (
    PickingOrder,
    pickers_in_category,
    predecessor_in_category,
)


class ConstructionError(RuntimeError):
    """The witness construction produced an inconsistent ranking."""


def _almost(own: Bundle, category: int, item: int) -> Bundle:
    return own[: category - 1] + (item,) + own[category:]


def _ranking(
    shape: DomainShape, agent: int, top: list[Bundle], bottom: list[Bundle]
) -> list[Bundle]:
    """``top``, then every other bundle in bundle-table order, then ``bottom``:
    a permutation of the bundle space, since a bundle placed twice is refused
    and the ranking builders place only bundles of the shape. Every witness
    ranking comes from here, so ``_witness`` builds them unchecked."""
    placed = set(top) | set(bottom)
    if len(placed) != len(top) + len(bottom):
        raise ConstructionError(f"agent {agent}: a bundle is placed twice in her ranking")
    return top + [b for b in bundle_table(shape) if b not in placed] + bottom


def _death_round(order: PickingOrder, agent: int, pin: Bundle) -> int:
    """Round at which a pinned almost-j bundle stops being fully available
    under the identity replay (its foreign item gets taken)."""
    for i, comp in enumerate(pin, 1):
        if comp != agent:
            return order.round_of(comp, i)
    raise AssertionError("pin equals the agent's own bundle")


def _remaining(order: PickingOrder, category: int, round_: int) -> tuple[int, ...]:
    """Agents, ascending, whose pick in ``category`` comes at ``round_`` or
    later: under the identity replay, the items of ``category`` still
    available entering ``round_``."""
    return tuple(q for q in order.shape.agents() if order.round_of(q, category) >= round_)


def _best_cover(order: PickingOrder, agent: int, after_round: int) -> Bundle:
    """Almost-j pin alive past ``after_round`` that can never misdirect.

    Valid covers are pairs (q, e) where agent q picks category e at a round r
    with after_round < r < (agent's own round in e): the pin dies at r, which
    is before the agent's own e-round, so whenever it is alive it steers the
    agent to item j. Minimality of the uninterrupted index guarantees such a
    pair exists when one is requested. The latest-dying cover is chosen.
    """
    own = (agent,) * order.shape.p
    best: tuple[int, Bundle] | None = None
    for e in order.shape.categories():
        own_round = order.round_of(agent, e)
        for q in order.shape.agents():
            if q == agent:
                continue
            r = order.round_of(q, e)
            if after_round < r < own_round and (best is None or r > best[0]):
                best = (r, _almost(own, e, q))
    if best is None:
        raise ConstructionError(
            f"agent {agent}: no cover pin available past round {after_round}"
        )
    return best[1]


def _near(order: PickingOrder, agent: int) -> Bundle:
    """The agent's near-optimal pin: her own bundle with the item of her
    cyclic predecessor in the first round's category."""
    i1 = order.rounds[0][1]
    return _almost((agent,) * order.shape.p, i1, predecessor_in_category(order, i1, agent))


def _optimist_ranking(order: PickingOrder, agent: int) -> list[Bundle]:
    shape = order.shape
    analytics = order.analytics
    j1, i1 = order.rounds[0]
    sub = analytics.suborder(agent)
    big_k = analytics.uninterrupted_index(agent)
    own = (agent,) * shape.p
    if shape.n == 1:
        return _ranking(shape, agent, [own], [])
    near = _near(order, agent)

    if agent == j1 and big_k == 1:
        # the agent leads every category: the block is the whole space and the
        # bound is 1; rank own first and the near-optimal bundle second
        return _ranking(shape, agent, [own, near], [])

    per_category: dict[int, tuple[int, ...]] = {}
    for l, cat in enumerate(sub, 1):
        if l < big_k:
            per_category[cat] = (agent,)
        else:
            per_category[cat] = _remaining(order, cat, order.round_of(agent, cat))
    block = set(
        itertools.product(*(per_category[i] for i in shape.categories()))
    )

    pins: list[Bundle] = []
    if agent != j1:
        pins.append(near)
    if big_k > 1:
        guard_round = order.round_of(agent, sub[big_k - 2])
        c = sub[big_k - 1]
        first_in_c = pickers_in_category(order, c)[0]
        if c != i1 and first_in_c != agent:
            pins.append(_almost(own, c, predecessor_in_category(order, c, agent)))
        if agent == j1:
            if not pins:
                pins.append(_best_cover(order, agent, guard_round))
            pins.append(near)
        helpers = [b for b in pins if b != near or agent != j1]
        if not any(_death_round(order, agent, b) > guard_round for b in helpers):
            pins.append(_best_cover(order, agent, guard_round))

    return _ranking(shape, agent, list(dict.fromkeys(pins)), [own] + sorted(block - {own}))


def _pessimist_ranking(order: PickingOrder, agent: int) -> list[Bundle]:
    shape = order.shape
    j1, i1 = order.rounds[0]
    own = (agent,) * shape.p
    if shape.n == 1:
        return _ranking(shape, agent, [own], [])

    # one tier per suborder position: almost-j bundles over the items of that
    # position's category still obtainable at the agent's own round there
    tiers = []
    for cat in order.analytics.suborder(agent):
        left = _remaining(order, cat, order.round_of(agent, cat))
        tiers.append([_almost(own, cat, d) for d in left if d != agent])

    def stacked(skip: Bundle | None = None) -> list[Bundle]:
        out = [own]
        for tier in reversed(tiers):
            out.extend(b for b in tier if b != skip)
        return out

    near = _near(order, agent)
    if agent != j1:
        return _ranking(shape, agent, [near], stacked())

    if shape.p == 1:
        # near is itself a block bundle here; own must take rank 1 (the bound
        # is 1), so near settles for rank 2
        block_list = stacked(skip=near)
        return _ranking(shape, agent, [block_list[0], near], block_list[1:])

    # swap: pin near on top, and anchor its candidate item with the all-foreign
    # bundle at the very bottom so the round-1 comparison still favors item j
    return _ranking(shape, agent, [near], stacked(skip=near) + [(near[i1 - 1],) * shape.p])


def worst_case_profile(order: PickingOrder, behaviors: Sequence[Behavior]) -> Profile:
    """Profile on which every agent simultaneously hits her rank bound.

    Validates its own output by replay before returning; a failure raises
    ConstructionError rather than returning a near-miss.
    """
    return _witness(order, behaviors)[0]


def _witness(
    order: PickingOrder, behaviors: Sequence[Behavior]
) -> tuple[Profile, Allocation, Allocation, RankBoundReport]:
    """The witness profile, its replayed allocation, its near-optimal
    allocation and the bounds it realizes, each built once.

    Raises ConstructionError unless the replay is the identity replay the
    rankings are built for, with every agent taking her own item in every
    category and landing exactly on her bound."""
    report = worst_case_report(order, behaviors)
    shape = order.shape
    rankings = (
        (_optimist_ranking if e.behavior == "opt" else _pessimist_ranking)(order, e.agent)
        for e in report.entries
    )
    lookup = _bundle_lookup(shape)
    prefs = [
        Preference.__new__(Preference)._build(shape, tuple(map(lookup.__getitem__, r)))
        for r in rankings
    ]
    profile = Profile(shape, prefs)
    allocation, _ = run_csam(order, profile, behaviors)
    for j in shape.agents():
        own, bound = (j,) * shape.p, report.bound(j)
        realized = profile.pref(j).rank_of(allocation[j])
        if allocation[j] != own or realized != bound:
            raise ConstructionError(
                f"agent {j} realized {allocation[j]} at rank {realized}, "
                f"expected {own} at rank {bound}"
            )
    return profile, allocation, near_optimal_allocation(order, profile), report


def near_optimal_allocation(order: PickingOrder, profile: Profile) -> Allocation:
    """Allocation giving every agent her pinned almost-own bundle in the first
    round's category: rank 1 for everyone except possibly the round-1 agent,
    who gets rank 1 or 2.

    Expects a profile built by worst_case_profile for the same order.
    """
    shape = order.shape
    if profile.shape != shape:
        raise ValidationError("profile shape does not match order shape")
    j1 = order.rounds[0][0]
    allocation = Allocation({j: _near(order, j) for j in shape.agents()})
    check = validate_allocation(shape, allocation)
    if not check.ok:
        raise ConstructionError(f"near-optimal allocation invalid: {check.detail}")
    for j in shape.agents():
        rank = profile.pref(j).rank_of(allocation[j])
        limit = 2 if j == j1 else 1
        if rank > limit:
            raise ConstructionError(
                f"near-optimal bundle of agent {j} sits at rank {rank}, expected <= {limit}"
            )
    return allocation


def strategic_worst_profile(order: PickingOrder) -> Profile:
    """Two-agent profile whose unique subgame-perfect equilibrium puts both
    agents exactly at their strategic bound.

    Built by recursion on the first round: remove the first round's category,
    build a tight profile for the reduced order, then splice the removed
    category back so that the round-1 agent takes item 1 there, the other
    agent item 2, and both equilibrium bundles drop by exactly the factor the
    extra category contributes to the bound.
    """
    shape = order.shape
    if shape.n != 2:
        raise ValidationError(
            f"strategic witnesses are constructed for two agents, got n={shape.n}"
        )
    rankings, _ = _strategic_rec(order.rounds)
    return Profile(shape, [Preference(shape, rankings[j]) for j in (1, 2)])


def _strategic_rec(rounds) -> tuple[dict[int, list[Bundle]], dict[int, Bundle]]:
    cats = sorted({i for _, i in rounds})
    j_star, i_star = rounds[0]
    other = 3 - j_star
    if len(cats) == 1:
        ranking = [(1,), (2,)]
        return {1: list(ranking), 2: list(ranking)}, {j_star: (1,), other: (2,)}

    reduced = tuple((j, i) for j, i in rounds if i != i_star)
    sub_rankings, sub_spne = _strategic_rec(reduced)
    pos = cats.index(i_star)

    def ext(bundle: Bundle, item: int) -> Bundle:
        return bundle[:pos] + (item,) + bundle[pos:]

    def spliced(*parts: list[Bundle]) -> list[Bundle]:
        """Each part extended by item 1, then the same part by item 2."""
        return [ext(d, item) for part in parts for item in (1, 2) for d in part]

    # the other agent's ranking is the reduced one with item 1, then with
    # item 2; the round-1 agent's splits around her equilibrium bundle
    seq = sub_rankings[j_star]
    pivot = seq.index(sub_spne[j_star])
    rankings = {
        j_star: spliced(seq[:pivot], seq[pivot : pivot + 1], seq[pivot + 1 :]),
        other: spliced(sub_rankings[other]),
    }
    spne = {j_star: ext(sub_spne[j_star], 1), other: ext(sub_spne[other], 2)}
    return rankings, spne
