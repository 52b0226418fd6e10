"""Worst-case rank guarantees computable from the picking order alone.

For an agent with category suborder ``sub``, per-category slacks ``k`` and
uninterrupted index ``K`` (see ``orders.analyze_order``):

* an optimistic agent never ends up below rank
  ``n**p + 1 - prod(k[sub[l]] for l in K..p)``,
* a pessimistic agent never ends up below rank
  ``n**p - sum(k[i] - 1 for all i)``,
* an agent playing a subgame-perfect equilibrium never ends up below rank
  ``n**p + 1 - prod(k[i] for all i)``.

All three are tight: the adversarial module constructs profiles realizing
them exactly, reading the bounds from ``worst_case_report`` (this module
imports nothing from it). ``search_orders`` optimizes these guarantees over
orders.

The per-agent suborders, slacks and uninterrupted indices come from one
kernel, ``orders._order_arrays``. ``worst_case_report`` reads them through
``PickingOrder.analytics``; ``search_orders`` scores its candidates in blocks
of orders with the same closed forms over the kernel's arrays
(``_block_bounds``), and builds a ``PickingOrder`` only for the best one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .domain import CapacityError, DomainShape, ValidationError, _REPR, _check_seed, _exceeds
from .engine import Behavior, Optimistic, Scripted, _check_behaviors
from .orders import OrderAnalytics, PickingOrder, _order_arrays


def optimistic_bound(analytics: OrderAnalytics, agent: int) -> int:
    tail = analytics.suborder(agent)[analytics.uninterrupted_index(agent) - 1 :]
    return analytics.shape.bundle_count + 1 - math.prod(analytics.slack(agent, i) for i in tail)


def pessimistic_bound(analytics: OrderAnalytics, agent: int) -> int:
    shape = analytics.shape
    total = sum(analytics.slack(agent, i) for i in shape.categories())
    return shape.bundle_count + shape.p - total


def strategic_bound(analytics: OrderAnalytics, agent: int) -> int:
    shape = analytics.shape
    full = math.prod(analytics.slack(agent, i) for i in shape.categories())
    return shape.bundle_count + 1 - full


def _optimists(shape: DomainShape, behaviors: Sequence[Behavior]) -> list[bool]:
    """Whether each agent is optimistic (else pessimistic), from behaviors
    the engine's check accepts; the only two with an order-level guarantee."""
    bs = _check_behaviors(shape, behaviors)
    if any(isinstance(b, Scripted) for b in bs):
        raise ValidationError("scripted agents have no order-level worst-case guarantee")
    return [isinstance(b, Optimistic) for b in bs]


@dataclass(frozen=True)
class AgentBound:
    agent: int
    behavior: str
    bound: int


@dataclass(frozen=True)
class RankBoundReport:
    shape: DomainShape
    entries: tuple[AgentBound, ...]
    utilitarian: int
    egalitarian: int

    def bound(self, agent: int) -> int:
        if not (type(agent) is int and 1 <= agent <= len(self.entries)):
            raise ValidationError(f"agent {_REPR.repr(agent)} outside 1..{len(self.entries)}")
        return self.entries[agent - 1].bound

    def to_json(self) -> dict:
        return {
            "n": self.shape.n,
            "p": self.shape.p,
            "agents": [
                {"agent": e.agent, "behavior": e.behavior, "bound": e.bound}
                for e in self.entries
            ],
            "utilitarian": self.utilitarian,
            "egalitarian": self.egalitarian,
        }


def worst_case_report(order: PickingOrder, behaviors: Sequence[Behavior]) -> RankBoundReport:
    """Per-agent tight worst-case ranks plus their sum and max."""
    shape = order.shape
    analytics = order.analytics
    entries = tuple(
        AgentBound(j, "opt", optimistic_bound(analytics, j))
        if optimist
        else AgentBound(j, "pess", pessimistic_bound(analytics, j))
        for j, optimist in enumerate(_optimists(shape, behaviors), 1)
    )
    bounds = [e.bound for e in entries]
    return RankBoundReport(shape, entries, sum(bounds), max(bounds))


def sd_optimistic_utilitarian(n: int, p: int) -> int:
    """Closed-form worst-case utilitarian rank of serial dictatorship with all
    agents optimistic: n * (n**p + 1) - sum(j**p for j in 1..n)."""
    DomainShape(n, p)
    return n * (n**p + 1) - sum(j**p for j in range(1, n + 1))


def all_optimistic_witness(analytics: OrderAnalytics) -> int:
    """Some agent always has slack 1 in every suborder position at or past her
    uninterrupted index, so her optimistic bound degenerates to n**p. Returns
    the smallest such agent."""
    for j in analytics.shape.agents():
        # the bound is n**p + 1 - prod(tail slacks), each slack at least 1
        if optimistic_bound(analytics, j) == analytics.shape.bundle_count:
            return j
    raise AssertionError("no degenerate agent found; analytics must be inconsistent")


@dataclass(frozen=True)
class SearchResult:
    order: PickingOrder
    score: int
    evaluated: int


# pair indices per scoring block of ``search_orders`` (_BLOCK // (n*p)
# orders, at least one): each of a block's arrays stays near half a MiB
_BLOCK = 1 << 16


def _block_bounds(n: int, p: int, rows: np.ndarray, optimists: Sequence[bool]) -> np.ndarray:
    """Each agent's tight worst-case rank under every order of a block of
    ``orders._order_arrays`` rows. Returns a ``(B, n)`` int64 array;
    ``DomainShape`` caps ``n**p`` at 10**6, so even a sum of n ranks fits."""
    _, slacks, start = _order_arrays(n, p, rows)
    top = n**p
    tail = np.where(np.arange(p) >= start[:, :, None], slacks, 1).prod(axis=2)
    return np.where(optimists, top + 1 - tail, top + p - slacks.sum(axis=2))


def _permutation_blocks(size: int, per_block: int) -> Iterator[np.ndarray]:
    """Every permutation of ``range(size)`` in lexicographic order, in blocks
    of r! rows, r the largest with r! <= ``per_block`` (at least 1). A block
    is one prefix of the first size - r entries followed by every ordering
    of the remaining r, built from one shared table of the orderings of
    ``range(r)``."""
    r = 1
    while r < size and math.factorial(r + 1) <= per_block:
        r += 1
    perms = itertools.chain.from_iterable(itertools.permutations(range(r)))
    table = np.fromiter(perms, np.intp, math.factorial(r) * r).reshape(-1, r)
    for prefix in itertools.permutations(range(size), size - r):
        block = np.empty((len(table), size), dtype=np.intp)
        block[:, : size - r] = prefix
        block[:, size - r :] = np.setdiff1d(np.arange(size), prefix)[table]
        yield block


def _canonical_rows(rows: np.ndarray, p: int, optimists: Sequence[bool]) -> np.ndarray:
    """The rows (orders as in ``_block_bounds``) in which, within each
    behavior class, the agents' first rounds ascend with their labels: the
    lex-smallest order of each orbit under relabeling agents of a class."""
    blocks, size = rows.shape
    rounds = np.empty_like(rows)
    rounds[np.arange(blocks)[:, None], rows] = np.arange(size)
    first = rounds.reshape(blocks, len(optimists), p).min(axis=2)
    # agents grouped by class, by label within it
    agents = np.argsort(optimists, kind="stable")
    classes = np.asarray(optimists)[agents]
    same = classes[1:] == classes[:-1]
    ascending = np.diff(first[:, agents], axis=1) > 0
    return rows[(ascending | ~same).all(axis=1)]


def search_orders(
    n: int,
    p: int,
    behaviors: Sequence[Behavior],
    objective: str = "egalitarian",
    mode: str = "exhaustive",
    seed: int | None = None,
    budget: int = 200_000,
) -> SearchResult:
    """Minimize a worst-case objective over picking orders.

    Exhaustive mode enumerates all (n*p)! orders (refusing when that exceeds
    the budget), pruned by agent relabeling within equal-behavior classes;
    ties go to the lexicographically smallest round sequence. Random mode
    needs a seed (exhaustive mode ignores it) and draws ``budget`` orders
    from the seeded generator: a block at a time through ``rng.permuted``,
    which draws the same rows as one ``rng.permutation(n*p)`` per order.

    Candidates are scored in blocks of at most ``_BLOCK // (n*p)`` orders by
    ``_block_bounds``, with no ``PickingOrder``, analytics or report built
    for them: they are permutations of the full (agent, category) pair list,
    so the order check could never fail on them. Only the best order is
    built, and so checked, as a ``PickingOrder``.
    """
    shape = DomainShape(n, p)
    if objective not in ("utilitarian", "egalitarian"):
        raise ValidationError(f"unknown objective {_REPR.repr(objective)}")
    if seed is not None:
        _check_seed(seed)
    pairs = [(j, i) for j in shape.agents() for i in shape.categories()]
    size = len(pairs)
    per_block = max(1, _BLOCK // size)

    if mode not in ("exhaustive", "random"):
        raise ValidationError(f"unknown search mode {_REPR.repr(mode)}")
    if not (type(budget) is int and budget >= 1):
        raise ValidationError(
            f"{mode} search needs a budget of at least 1 order, got {_REPR.repr(budget)}"
        )
    if mode == "random" and seed is None:
        raise ValidationError("random search needs an explicit seed")
    optimists = _optimists(shape, behaviors)

    if mode == "exhaustive":
        if _exceeds(budget, range(2, size + 1)):
            raise CapacityError(
                f"exhaustive search over shape {n}x{p} needs more than {budget} orders, "
                "the budget; raise the budget or use random mode"
            )
        blocks = (
            _canonical_rows(rows, p, optimists)
            for rows in _permutation_blocks(size, per_block)
        )
    else:
        rng = np.random.default_rng(seed)
        blocks = (
            rng.permuted(np.tile(np.arange(size), (min(per_block, budget - done), 1)), axis=1)
            for done in range(0, budget, per_block)
        )

    best: tuple[int, tuple[int, ...]] | None = None
    evaluated = 0
    for rows in blocks:
        if not len(rows):
            continue
        bounds = _block_bounds(n, p, rows, optimists)
        values = bounds.sum(axis=1) if objective == "utilitarian" else bounds.max(axis=1)
        low = values.min()
        ties = rows[values == low]
        row = ties[np.lexsort(ties.T[::-1])[0]]
        evaluated += len(rows)
        # pair indices order like the (agent, category) pairs they stand for
        candidate = (int(low), tuple(row.tolist()))
        if best is None or candidate < best:
            best = candidate

    return SearchResult(PickingOrder(shape, map(pairs.__getitem__, best[1])), best[0], evaluated)
