"""Sequential mechanism execution.

``run_csam`` plays out a picking order against a profile, one pick per round,
with per-agent behaviors:

* optimistic agents assume every currently available item stays available and
  pick the designated category's component of their best bundle consistent
  with their earlier picks,
* pessimistic agents evaluate each candidate item by the worst consistent
  available bundle that contains it and pick the candidate whose worst case
  is best,
* scripted agents follow a fixed item list (one item per category, in the
  order their categories come up).

An agent's consistency state is a Python-int bitset over her ranking
positions: bit ``r`` is set while ``order[r]`` agrees with her own picks and
uses only items still available in her open categories. One play loop
(``_play``) plays a block of profiles on one order and behavior list, from
their per-category mask views (``_views``, cut once per block from per-draw
index rows and their masks by category, ``domain._fill_masks``'s layout,
and shared by every order and behavior list played on it). It keeps one
bitset per agent and profile, all bits set at the start, and runs round by
round: the round's picker, category, later pickers and behavior are read
once, then the pick kernel runs on each profile. When agent j takes item d
of category c, j keeps only the positions holding d, and each agent who
picks c in a later round (``PickingOrder._later_pickers``) loses them. The
agents who picked c earlier need no update: each kept only the positions holding
her own item e of c, and e != d, since her pick took e off every other
bitset, so none of her positions holds d (a bundle has one item per
category). That is n(n-1)/2 updates per category in place of n**2, and
every bitset after every round is what updating all n would give. The
bitsets are the play's only record of what is left: an item of a category
still open for an agent is available exactly when her bitset meets its
position mask. One pick kernel (``_pick``) reads the state and returns the
item: the optimistic pick is the lowest set bit; the pessimistic pick
takes the highest set bit per candidate item, its worst bit length, and
the candidate whose worst bit is lowest wins, and it records the worst
bit lengths only for a caller that asks. After the last round each bitset
has one bit left, the agent's bundle, and its bit length is her rank. The
public choice functions check the category, build the bitset from
scratch (``_consistency_mask``) and call the same kernel.

``run_csam`` plays a block of one profile and turns it into a trace: per
round, the available items of the round's category and, for a pessimistic
pick, the comparison behind it. ``_realized_ranks`` plays a block without a
trace and returns the ranks only, for the Mallows study.

Whole-bundle serial dictatorship has one scan, ``_serial_picks``, behind
``direct_serial_dictatorship`` and every serial dictatorship of ``axioms``:
each agent walks her bundle indices and takes the first bundle whose item
bits (``domain._item_bits``, one int per bundle) miss the bits already
taken.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .domain import (
    Allocation,
    Bundle,
    Preference,
    Profile,
    ValidationError,
    _REPR,
    _check_category,
    _check_permutation,
    _item_bits,
    bundle_table,
    validate_allocation,
)
from .orders import PickingOrder


class ExecutionError(RuntimeError):
    """A scripted pick could not be executed."""


class Behavior:
    pass


@dataclass(frozen=True)
class Optimistic(Behavior):
    pass


@dataclass(frozen=True)
class Pessimistic(Behavior):
    pass


@dataclass(frozen=True)
class Scripted(Behavior):
    """Fixed picks, one item per category in the agent's category suborder."""

    picks: tuple[int, ...]


OPTIMISTIC = Optimistic()
PESSIMISTIC = Pessimistic()
# the sincere behaviors by their CLI and study token
_BEHAVIORS = {"opt": OPTIMISTIC, "pess": PESSIMISTIC}


@dataclass(frozen=True)
class RoundRecord:
    """One round of a play: who picked which item of which category. A
    ``run_csam`` record also holds the items the category still had and,
    for a pessimistic pick, the comparison behind it; an equilibrium path
    (``spne.solve_spne``) holds neither."""

    t: int
    agent: int
    category: int
    item: int
    available: tuple[int, ...] | None = None
    comparison: Mapping[int, Bundle] | None = None

    def to_json(self) -> dict:
        doc = {"t": self.t, "agent": self.agent, "category": self.category, "item": self.item}
        if self.available is not None:
            doc["available"] = list(self.available)
        if self.comparison is not None:
            doc["comparison"] = {str(d): list(b) for d, b in sorted(self.comparison.items())}
        return doc


@dataclass(frozen=True)
class ExecutionTrace:
    rounds: tuple[RoundRecord, ...]
    message_count: int


def _consistency_mask(
    pref: Preference,
    picks: Mapping[int, int],
    available: Mapping[int, set[int]],
    open_category: int | None = None,
) -> int:
    """Bitset over ranking positions, built from scratch: bit ``r`` is set
    when ``pref.order[r]`` agrees with the agent's own picks and uses only
    available items in her open categories. ``open_category`` is held to its
    available items even when picked."""
    mask = (1 << pref.shape.bundle_count) - 1
    for i, by_item in enumerate(pref.position_masks, 1):
        items = (picks[i],) if i != open_category and i in picks else available[i]
        allowed = [bits for d, bits in enumerate(by_item, 1) if d in items]
        if len(allowed) < len(by_item):
            mask &= functools.reduce(operator.or_, allowed, 0)
    return mask


def _pick(
    indices: Sequence[int], masks: Sequence[int], table: Sequence[Bundle], cons: int,
    category: int, pessimistic: bool, worst: dict[int, int] | None = None,
) -> int:
    """The pick kernel: the item taken in ``category`` by an agent whose
    ranking is ``indices`` and whose masks of the category's items are
    ``masks``. ``cons`` is her consistency bitset with ``category`` held to
    its available items; ``table`` is the shape's ``bundle_table``. A
    pessimistic pick fills ``worst``, when given, with each candidate's
    worst bit length (the 1-based ranking position of its worst consistent
    bundle)."""
    if not pessimistic:
        if not cons:
            raise ValidationError("no consistent available bundle; available sets exhausted")
        # the lowest set bit is the best consistent bundle
        return table[indices[(cons & -cons).bit_length() - 1]][category - 1]
    item = least = d = 0
    for bits in masks:
        d += 1
        # the highest set bit is the candidate's worst consistent bundle
        length = (cons & bits).bit_length()
        if length:
            if worst is not None:
                worst[d] = length
            # distinct candidates have distinct worst bundles: a unique argmin
            if not least or length < least:
                item, least = d, length
    if not item:
        raise ValidationError(f"category {category} has no available items")
    return item


def _comparison(
    pref: Preference, table: Sequence[Bundle], worst: Mapping[int, int]
) -> dict[int, Bundle]:
    """The kernel's worst bit lengths as candidate-to-worst-bundle pairs."""
    return {d: table[pref.indices[length - 1]] for d, length in worst.items()}


def optimistic_choice(
    pref: Preference,
    picks: Mapping[int, int],
    available: Mapping[int, set[int]],
    category: int,
) -> int:
    """Component of the best consistent available bundle in ``category``."""
    _check_category(category, pref.shape.p)
    mask = _consistency_mask(pref, picks, available)
    masks = pref.position_masks[category - 1]
    return _pick(pref.indices, masks, bundle_table(pref.shape), mask, category, False)


def pessimistic_comparison(
    pref: Preference,
    picks: Mapping[int, int],
    available: Mapping[int, set[int]],
    category: int,
) -> dict[int, Bundle]:
    """Worst consistent available bundle per candidate item of ``category``."""
    _check_category(category, pref.shape.p)
    mask = _consistency_mask(pref, picks, available, category)
    table, worst = bundle_table(pref.shape), {}
    _pick(pref.indices, pref.position_masks[category - 1], table, mask, category, True, worst)
    return _comparison(pref, table, worst)


def pessimistic_choice(
    pref: Preference,
    picks: Mapping[int, int],
    available: Mapping[int, set[int]],
    category: int,
) -> int:
    """The candidate of ``category`` whose worst consistent bundle is best."""
    _check_category(category, pref.shape.p)
    mask = _consistency_mask(pref, picks, available, category)
    masks = pref.position_masks[category - 1]
    return _pick(pref.indices, masks, bundle_table(pref.shape), mask, category, True)


def _check_behaviors(shape, behaviors: Sequence[Behavior]) -> tuple[Behavior, ...]:
    """The one check of a behavior list: one behavior per agent, each
    optimistic, pessimistic or a script of one int per category."""
    bs = tuple(behaviors)
    if len(bs) != shape.n:
        raise ValidationError(f"{len(bs)} behaviors given, expected {shape.n}")
    for j, b in enumerate(bs, 1):
        if isinstance(b, Scripted):
            if not all(type(x) is int for x in b.picks):
                raise ValidationError(
                    f"agent {j} script picks {_REPR.repr(b.picks)} are not all integers"
                )
            if len(b.picks) != shape.p:
                raise ValidationError(
                    f"agent {j} script lists {len(b.picks)} picks, expected {shape.p}"
                )
        elif not isinstance(b, (Optimistic, Pessimistic)):
            raise ValidationError(f"agent {j} has unknown behavior {_REPR.repr(b)}")
    return bs


def _views(
    indices: Sequence[Sequence[int]], masks: Sequence[Sequence[Sequence[int]]], n: int
) -> tuple[list, list]:
    """A block of checked profiles as ``_play`` reads them, from per-draw
    index rows and their masks by category (``domain._fill_masks``'s
    layout: ``masks[c][r]`` holds draw ``r``'s masks of the items of
    category ``c + 1``), n draws per profile, agent 1 first. Each
    category's rows are cut into profiles: ``masks[c][b][a]`` holds agent
    ``a + 1``'s masks in profile ``b``, and ``indices[a][b]`` her ranking
    there."""
    cut = [[rows[r : r + n] for r in range(0, len(rows), n)] for rows in masks]
    return cut, [indices[a::n] for a in range(n)]


def _play(
    order: PickingOrder, views: tuple[list, list], behaviors: tuple[Behavior, ...],
    comparisons: bool = False,
) -> Iterator[tuple[list[int], list[dict[int, int] | None], list[list[int]]]]:
    """Play checked inputs round by round on a block of profiles, given by
    their ``_views``, all with the same order and behaviors. Yields, per
    round, the item taken in each profile, each profile's worst bit lengths
    of the pick when ``comparisons`` is set and the picker is pessimistic
    (None otherwise), and the running consistency bitsets after the round,
    ``cons[b][j - 1]`` for agent ``j`` in profile ``b``, updated in place.
    The round's picker, category, later pickers and behavior are read once
    per round, then the pick kernel runs on each profile. A scripted item is
    on the table exactly when the picker's bitset meets its mask: its
    category is open for her, and each of her other open categories still
    holds an item. A script refused in any profile ends the play at that
    round, with the first such profile's remaining items."""
    masks, indices = views
    shape = order.shape
    n, table, size = shape.n, bundle_table(shape), len(indices[0])
    scripts = [iter(b.picks) if isinstance(b, Scripted) else None for b in behaviors]
    pessimistic = [isinstance(b, Pessimistic) for b in behaviors]
    cons = [[(1 << shape.bundle_count) - 1] * n for _ in range(size)]
    nothing = [None] * size
    for t, ((j, i), later) in enumerate(zip(order.rounds, order._later_pickers), 1):
        a = j - 1
        script, pess = scripts[a], pessimistic[a]
        worst = [{} for _ in nothing] if comparisons and pess else nothing
        item = None if script is None else next(script)
        items = []
        for row, state, ranking, into in zip(masks[i - 1], cons, indices[a], worst):
            mine, bits = row[a], state[a]
            if script is None:
                item = _pick(ranking, mine, table, bits, i, pess, into)
            elif not (1 <= item <= n and bits & mine[item - 1]):
                left = [d for d, m in enumerate(mine, 1) if bits & m]
                raise ExecutionError(
                    f"round {t}: scripted item {_REPR.repr(item)} of category {i} is not available "
                    f"(remaining {left})"
                )
            items.append(item)
            # the taker keeps only bundles with the item, the category's
            # later pickers lose them (its earlier pickers hold none of them)
            d = item - 1
            state[a] = bits & mine[d]
            for k in later:
                state[k] &= ~row[k][d]
        yield items, worst, cons


def _held(shape, indices: Sequence[Sequence[int]], cons: Sequence[int]) -> list[int]:
    """The index of the one bundle left in each agent's final bitset, agent
    1 first, ``indices[j - 1]`` agent j's ranking, checked to partition
    every category."""
    held = [ranking[bits.bit_length() - 1] for ranking, bits in zip(indices, cons)]
    # a bundle sets one item bit per category, so n bundles partition every
    # category exactly when their item bits add up to all n*p bits: a
    # shared item would carry
    bits = _item_bits(shape)
    if sum([bits[idx] for idx in held]) != (1 << shape.n * shape.p) - 1:
        table = bundle_table(shape)
        check = validate_allocation(shape, Allocation({j: table[x] for j, x in enumerate(held, 1)}))
        raise AssertionError(f"engine produced an invalid allocation: {check.detail}")
    return held


def run_csam(
    order: PickingOrder,
    profile: Profile,
    behaviors: Sequence[Behavior],
) -> tuple[Allocation, ExecutionTrace]:
    """Play the order out round by round; returns the allocation and trace.

    Message accounting: the order is announced to each of the n agents once,
    and each of the n*p picks is broadcast to all n agents, hence
    (1 + n*p) * n messages total.
    """
    shape = order.shape
    if profile.shape != shape:
        raise ValidationError(f"profile shape {profile.shape} does not match order shape {shape}")
    table, prefs = bundle_table(shape), profile.preferences
    left = [list(shape.agents()) for _ in shape.categories()]
    records: list[RoundRecord] = []
    # each preference's masks, built on first use and kept, by category
    indices = [pref.indices for pref in prefs]
    views = _views(indices, list(zip(*(pref.position_masks for pref in prefs))), shape.n)
    # a block of one profile, with the comparisons behind pessimistic picks
    play = _play(order, views, _check_behaviors(shape, behaviors), True)
    for t, ((j, i), ([item], [worst], [cons])) in enumerate(zip(order.rounds, play), 1):
        comparison = None if worst is None else _comparison(prefs[j - 1], table, worst)
        records.append(RoundRecord(t, j, i, item, tuple(left[i - 1]), comparison))
        left[i - 1].remove(item)
    # every agent has picked in every category: one consistent bundle is left
    held = _held(shape, indices, cons)
    allocation = Allocation({j: table[idx] for j, idx in enumerate(held, 1)})
    return allocation, ExecutionTrace(tuple(records), (1 + shape.n * shape.p) * shape.n)


def _realized_ranks(
    order: PickingOrder, views: tuple[list, list], behaviors: tuple[Behavior, ...]
) -> list[list[int]]:
    """``run_csam`` on a block of checked profiles, their ``_views``, without
    a trace: per profile, each agent's rank of her bundle, the bit length of
    her final bitset."""
    for _, _, cons in _play(order, views, behaviors):
        pass
    for rankings, state in zip(zip(*views[1]), cons):
        _held(order.shape, rankings, state)
    return [[bits.bit_length() for bits in state] for state in cons]


def _serial_picks(
    agent_order: Sequence[int], profile: Profile, worst_first: bool = False
) -> Allocation:
    """Each agent, in order, takes the first bundle of her ranking (read from
    the bottom when ``worst_first``) whose item bits miss those of the
    bundles already taken. The agent order is not checked: pass a
    permutation of 1..n."""
    shape = profile.shape
    table, bits = bundle_table(shape), _item_bits(shape)
    taken = 0
    bundles: dict[int, Bundle] = {}
    for j in agent_order:
        indices = profile.preferences[j - 1].indices
        for idx in reversed(indices) if worst_first else indices:
            if not bits[idx] & taken:
                taken |= bits[idx]
                bundles[j] = table[idx]
                break
        else:
            raise AssertionError("no compatible bundle left; inputs must be inconsistent")
    return Allocation(bundles)


def direct_serial_dictatorship(agent_order: Sequence[int], profile: Profile) -> Allocation:
    """Whole-bundle serial dictatorship: each agent, in order, takes her best
    bundle compatible with the items already gone."""
    shape = profile.shape
    _check_permutation(agent_order, shape.n, "agent order ")
    return _serial_picks(agent_order, profile)
