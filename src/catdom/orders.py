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

One private numpy kernel (``_order_arrays``) computes all three for a block
of orders given as rows of pair indices: two stable sorts of each row, by
category and by agent, and one reversed running maximum over each agent's
predecessor rounds for the uninterrupted index. ``analyze_order`` builds
``OrderAnalytics`` from a one-row block, and ``bounds.search_orders`` scores
its candidate blocks from the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .domain import DomainShape, ValidationError, _REPR, _check_permutation, _shape_from_json


class PickingOrder:
    """A permutation of all (agent, category) pairs; rounds are 1-based."""

    __slots__ = ("shape", "rounds", "_round_of", "__dict__")

    def __init__(self, shape: DomainShape, rounds: Iterable[Sequence[int]]):
        try:
            entries = tuple(rounds)
        except TypeError:
            raise ValidationError(f"order rounds must be pairs, got {_REPR.repr(rounds)}") from None
        expected = {(j, i) for j in shape.agents() for i in shape.categories()}
        # in list order, the first entry that is no pair of the shape or
        # repeats one is named, with its round; then the first pair left out
        round_of: dict[tuple[int, int], int] = {}
        for t, entry in enumerate(entries, 1):
            try:
                a, c = entry
            except (TypeError, ValueError):
                a = c = None
            if not (type(a) is int and type(c) is int and (a, c) in expected):
                raise ValidationError(
                    f"order round {t} is not an (agent, category) pair of a "
                    f"{shape.n}x{shape.p} domain: {_REPR.repr(entry)}"
                )
            # the pair's first round, if it has one already
            if round_of.setdefault((a, c), t) != t:
                raise ValidationError(f"order round {t} repeats the pair {(a, c)}")
        if len(round_of) < len(expected):
            missing = min(expected.difference(round_of))
            raise ValidationError(f"order has no round for the pair {missing}")
        self.shape = shape
        self.rounds = tuple(round_of)
        self._round_of = round_of

    def round_of(self, agent: int, category: int) -> int:
        if type(agent) is int and type(category) is int and (agent, category) in self._round_of:
            return self._round_of[agent, category]
        raise ValidationError(f"no round for agent {agent!r}, category {category!r}")

    def rounds_of_agent(self, agent: int) -> list[tuple[int, int]]:
        """(round, category) pairs for one agent, in round order."""
        if not (type(agent) is int and 1 <= agent <= self.shape.n):
            raise ValidationError(f"agent {agent!r} outside 1..{self.shape.n}")
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
    _check_permutation(agent_order, n, "agent order ")
    rounds = [(j, i) for j in agent_order for i in shape.categories()]
    return PickingOrder(shape, rounds)


def balanced_order(agent_order: Sequence[int], p: int) -> PickingOrder:
    """Category phases with alternating agent direction.

    Phase ``i`` assigns category ``i`` to all agents: in the given order for
    odd phases, reversed for even phases. Every agent's slacks then pair up to
    ``n + 1`` across consecutive phases, which requires an even ``p``.
    """
    n = len(agent_order)
    _check_permutation(agent_order, n, "agent order ")
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
    if type(n) is not int or n < 2:
        raise ValidationError(f"interrupter orders need at least two agents, got n={n!r}")
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

    def _get(self, table: Mapping, key, what: str):
        # plain ints only: True or 1.0 would find the entry of 1
        if all(type(k) is int for k in (key if type(key) is tuple else (key,))) and key in table:
            return table[key]
        raise ValidationError(f"no {what} {key!r} in a {self.shape.n}x{self.shape.p} order")

    def suborder(self, agent: int) -> tuple[int, ...]:
        return self._get(self.suborders, agent, "agent")

    def slack(self, agent: int, category: int) -> int:
        return self._get(self.slacks, (agent, category), "(agent, category) pair")

    def uninterrupted_index(self, agent: int) -> int:
        return self._get(self.uninterrupted, agent, "agent")


def pickers_in_category(order: PickingOrder, category: int) -> tuple[int, ...]:
    """Agents picking from one category, in round order."""
    if not (type(category) is int and 1 <= category <= order.shape.p):
        raise ValidationError(f"category {category!r} outside 1..{order.shape.p}")
    return tuple(j for j, i in order.rounds if i == category)


def predecessor_in_category(order: PickingOrder, category: int, agent: int) -> int:
    """The agent picking from ``category`` immediately before ``agent``; cyclic,
    so the first picker's predecessor is the last picker."""
    seq = pickers_in_category(order, category)
    if not (type(agent) is int and 1 <= agent <= order.shape.n):
        raise ValidationError(f"agent {agent!r} outside 1..{order.shape.n}")
    return seq[seq.index(agent) - 1]


def _order_arrays(n: int, p: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The analytics of every order of a block of ``n`` x ``p`` orders.

    Row b of ``rows`` lists order b's rounds as pair indices
    ``(agent - 1) * p + (category - 1)``. Returns ``(categories, slacks,
    start)``: each agent's picks in suborder as two ``(B, n, p)`` arrays, of
    1-based categories and of slacks, and the ``(B, n)`` 0-based uninterrupted
    index. The rows are not checked: pass permutations of ``range(n * p)``.
    The cost is one stable sort of each row by category and one by agent."""
    blocks, size = rows.shape
    at = np.arange(blocks)[:, None]
    agent, category = np.divmod(rows, p)
    # each category's picks in round order: the round at place q of it is a
    # pick from category q // n with slack n - q % n, and the round before it
    # (place q - 1, 1-based) is its pred, or 0 for the category's first pick
    by_category = np.argsort(category, axis=1, kind="stable")
    place = np.empty_like(rows)
    place[at, by_category] = np.arange(size)
    # each agent's picks in suborder
    by_agent = np.argsort(agent, axis=1, kind="stable")
    place = place[at, by_agent].reshape(blocks, n, p)
    picked, rank = np.divmod(place, n)
    pred = np.where(rank > 0, by_category[at[:, :, None], place - 1] + 1, 0)
    # the uninterrupted index is the first position m whose preds from m on
    # all come before her m-th round, by_agent + 1 (her own pred always does)
    later = np.maximum.accumulate(pred[:, :, ::-1], axis=2)[:, :, ::-1]
    start = np.argmax(later <= by_agent.reshape(blocks, n, p), axis=2)
    return picked + 1, n - rank, start


def analyze_order(order: PickingOrder) -> OrderAnalytics:
    shape = order.shape
    p = shape.p
    row = np.array([[(j - 1) * p + i - 1 for j, i in order.rounds]])
    categories, slacks, start = (array[0].tolist() for array in _order_arrays(shape.n, p, row))
    suborders = {j: tuple(sub) for j, sub in enumerate(categories, 1)}
    slack_of = {
        (j, i): k
        for j, (sub, ks) in enumerate(zip(categories, slacks), 1)
        for i, k in zip(sub, ks)
    }
    uninterrupted = {j: m + 1 for j, m in enumerate(start, 1)}
    return OrderAnalytics(shape, suborders, slack_of, uninterrupted)


def order_to_json(order: PickingOrder) -> dict:
    return {
        "n": order.shape.n,
        "p": order.shape.p,
        "rounds": [list(r) for r in order.rounds],
    }


def order_from_json(data: Mapping) -> PickingOrder:
    shape = _shape_from_json(data)
    rounds = data.get("rounds")
    if not isinstance(rounds, list):
        raise ValidationError("order 'rounds' must be a list of [agent, category] pairs")
    return PickingOrder(shape, rounds)
