"""Picking orders for sequential category-by-category allocation.

An order fixes, for each of the ``n*p`` rounds, which agent picks from which
category; every (agent, category) pair occurs exactly once. Everything the
bound and witness machinery downstream needs is a function of the order
alone:

* each agent's category suborder (the sequence her categories come up in),
* the slack ``k`` of each pick (1 plus the number of later picks in the same
  category, i.e. how many items are still on the table including hers),
* the uninterrupted index ``K``: the earliest position in her suborder after
  which no other agent's pick can invalidate availability reasoning between
  her own rounds (see ``analyze_order``).

One private pass over the rounds (``_order_pass``) is the only analytics
path: it lists each agent's picks in suborder with their slacks and the round
of each pick's in-category predecessor, and one backward suffix-max scan over
those picks (``_uninterrupted_index``) gives the uninterrupted index in O(p)
per agent. ``analyze_order`` builds ``OrderAnalytics`` from it, and
``bounds.worst_case_report`` scores an order straight from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .domain import DomainShape, ValidationError

Round = tuple[int, int]


class PickingOrder:
    """A permutation of all (agent, category) pairs; rounds are 1-based."""

    __slots__ = ("shape", "rounds", "_round_of", "__dict__")

    def __init__(self, shape: DomainShape, rounds: Iterable[Sequence[int]]):
        try:
            seq = tuple((a, c) for a, c in rounds)
        except (TypeError, ValueError):
            raise ValidationError(f"order rounds must be pairs, got {rounds!r}") from None
        expected = {(j, i) for j in shape.agents() for i in shape.categories()}
        if (
            not all(type(a) is int and type(c) is int for a, c in seq)
            or len(seq) != len(expected)
            or set(seq) != expected
        ):
            raise ValidationError(
                f"order must list every (agent, category) pair of a {shape.n}x{shape.p} "
                f"domain exactly once, got {seq}"
            )
        self.shape = shape
        self.rounds = seq
        self._round_of = {pair: t for t, pair in enumerate(seq, 1)}

    def round_of(self, agent: int, category: int) -> int:
        try:
            return self._round_of[(agent, category)]
        except KeyError:
            raise ValidationError(f"no round for agent {agent}, category {category}") from None

    def rounds_of_agent(self, agent: int) -> list[tuple[int, int]]:
        """(round, category) pairs for one agent, in round order."""
        return [(t, i) for t, (j, i) in enumerate(self.rounds, 1) if j == agent]

    @cached_property
    def analytics(self) -> "OrderAnalytics":
        return analyze_order(self)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PickingOrder)
            and self.shape == other.shape
            and self.rounds == other.rounds
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.rounds))

    def __repr__(self) -> str:
        return f"PickingOrder({self.rounds})"


def serial_dictatorship_order(agent_order: Sequence[int], p: int) -> PickingOrder:
    """Each agent, in the given order, picks from categories 1..p back to back."""
    n = len(agent_order)
    shape = DomainShape(n, p)
    if sorted(agent_order) != list(range(1, n + 1)):
        raise ValidationError(f"agent order {agent_order} is not a permutation of 1..{n}")
    rounds = [(j, i) for j in agent_order for i in shape.categories()]
    return PickingOrder(shape, rounds)


def balanced_order(agent_order: Sequence[int], p: int) -> PickingOrder:
    """Category phases with alternating agent direction.

    Phase ``i`` assigns category ``i`` to all agents: in the given order for
    odd phases, reversed for even phases. Every agent's slacks then pair up to
    ``n + 1`` across consecutive phases, which requires an even ``p``.
    """
    n = len(agent_order)
    if sorted(agent_order) != list(range(1, n + 1)):
        raise ValidationError(f"agent order {agent_order} is not a permutation of 1..{n}")
    if p % 2:
        raise ValidationError(f"balanced orders need an even number of categories, got p={p}")
    shape = DomainShape(n, p)
    rounds = []
    for i in shape.categories():
        phase = agent_order if i % 2 else list(reversed(agent_order))
        rounds.extend((j, i) for j in phase)
    return PickingOrder(shape, rounds)


def interrupter_order(n: int, p: int) -> PickingOrder:
    """Balanced order over agents 1..n-1 with agent n's picks inserted as one
    block immediately before the final n-1 rounds.

    The inserted agent picks all categories back to back while the others'
    final picks are still pending, which is the pattern that rewards giving
    the interrupter a pessimistic stance in mixed-behavior comparisons.
    """
    if n < 2:
        raise ValidationError(f"interrupter orders need at least two agents, got n={n}")
    base = balanced_order(list(range(1, n)), p).rounds
    block = [(n, i) for i in range(1, p + 1)]
    cut = len(base) - (n - 1)
    rounds = list(base[:cut]) + block + list(base[cut:])
    return PickingOrder(DomainShape(n, p), rounds)


@dataclass(frozen=True)
class OrderAnalytics:
    """Per-agent order statistics; see module docstring for definitions."""

    shape: DomainShape
    suborders: Mapping[int, tuple[int, ...]]
    slacks: Mapping[tuple[int, int], int]
    uninterrupted: Mapping[int, int]

    def suborder(self, agent: int) -> tuple[int, ...]:
        return self.suborders[agent]

    def slack(self, agent: int, category: int) -> int:
        return self.slacks[(agent, category)]

    def uninterrupted_index(self, agent: int) -> int:
        return self.uninterrupted[agent]


def pickers_in_category(order: PickingOrder, category: int) -> tuple[int, ...]:
    """Agents picking from one category, in round order."""
    if category not in order.shape.categories():
        raise ValidationError(f"category {category} outside 1..{order.shape.p}")
    return tuple(j for j, i in order.rounds if i == category)


def predecessor_in_category(order: PickingOrder, category: int, agent: int) -> int:
    """The agent picking from ``category`` immediately before ``agent``; cyclic,
    so the first picker's predecessor is the last picker."""
    seq = pickers_in_category(order, category)
    return seq[seq.index(agent) - 1]


Pick = tuple[int, int, int, int]


def _order_pass(n: int, p: int, rounds: Iterable[Round]) -> list[list[Pick]]:
    """One walk over the rounds of an ``n`` x ``p`` order.

    Returns each agent's picks (agent ``j`` at index ``j - 1``) in her
    suborder, each as ``(round, category, slack, pred)``: ``slack`` is the
    number of items of the category still on the table, hers included, and
    ``pred`` the round of the category's previous pick (0 for its first
    picker). The rounds are not checked: pass those of a ``PickingOrder`` or
    a permutation of its pairs."""
    picks: list[list[Pick]] = [[] for _ in range(n)]
    left = [n] * (p + 1)
    latest = [0] * (p + 1)
    for t, (j, i) in enumerate(rounds, 1):
        picks[j - 1].append((t, i, left[i], latest[i]))
        left[i] -= 1
        latest[i] = t
    return picks


def _uninterrupted_index(picks: Sequence[Pick]) -> int:
    """The uninterrupted index of one agent's picks from ``_order_pass``: the
    smallest suborder position m such that no later position's category is
    picked by anyone between her m-th round and that position's own round,
    i.e. every later ``pred`` is before her m-th round.

    One backward scan keeps the latest ``pred`` of the positions after m
    (a suffix maximum), so the index costs O(p), not O(p**2)."""
    index = len(picks)
    reach = 0
    for m in range(len(picks) - 1, -1, -1):
        t, _, _, pred = picks[m]
        if reach < t:
            index = m + 1
        if pred > reach:
            reach = pred
    return index


def analyze_order(order: PickingOrder) -> OrderAnalytics:
    shape = order.shape
    suborders: dict[int, tuple[int, ...]] = {}
    slacks: dict[tuple[int, int], int] = {}
    uninterrupted: dict[int, int] = {}
    for j, own in enumerate(_order_pass(shape.n, shape.p, order.rounds), 1):
        suborders[j] = tuple(i for _, i, _, _ in own)
        for _, i, slack, _ in own:
            slacks[(j, i)] = slack
        uninterrupted[j] = _uninterrupted_index(own)
    return OrderAnalytics(shape, suborders, slacks, uninterrupted)


def order_to_json(order: PickingOrder) -> dict:
    return {
        "n": order.shape.n,
        "p": order.shape.p,
        "rounds": [list(r) for r in order.rounds],
    }


def order_from_json(data: Mapping) -> PickingOrder:
    try:
        shape = DomainShape(data["n"], data["p"])
        rounds = data["rounds"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"order document missing field: {exc}") from None
    if not isinstance(rounds, list):
        raise ValidationError("order 'rounds' must be a list of [agent, category] pairs")
    return PickingOrder(shape, rounds)
