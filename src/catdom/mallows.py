"""Mallows-model preference sampling and expected-rank experiments.

The Mallows distribution over rankings of the bundle space weights a ranking
V by phi**kendall_tau(V, W) for a reference ranking W and dispersion
0 < phi <= 1 (phi = 1 is uniform). Sampling uses repeated insertion: walking
W from best to worst, the k-th element is inserted r positions above the
bottom of the partial ranking with probability proportional to phi**r, which
adds exactly r discordant pairs. The offsets have a closed-form inverse CDF,
so one vectorised step draws all of them, for as many draws as are asked
for at once (``_draw``), and no weight table is kept. Each draw inserts
bundle indices into one row of an unsigned index block; the block is checked
as a whole and gives the rankings (``Preference._from_rows``), and in the
study also their position masks.

``run_experiment`` estimates expected utilitarian and egalitarian realized
ranks for sequential mechanisms under profiles drawn from a shared Mallows
population (one uniform reference permutation per replicate, one batched
draw for all agents, the same profile fed to every mechanism configuration,
each played without a trace).
"""

from __future__ import annotations

import math
import numbers
from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .bounds import worst_case_report
from .domain import (
    CapacityError,
    DomainShape,
    Preference,
    Profile,
    ValidationError,
    _check_seed,
    _fill_masks,
)
from .engine import _BEHAVIORS, _realized_ranks
from .orders import balanced_order, serial_dictatorship_order

# the order families by their study token
_FAMILIES = {"sd": serial_dictatorship_order, "balanced": balanced_order}


def kendall_tau(first: Preference, second: Preference) -> int:
    """Number of bundle pairs the two rankings order oppositely."""
    if first.shape != second.shape:
        raise ValidationError("rankings live on different shapes")
    pos = {bundle: i for i, bundle in enumerate(second.order)}
    seq = [pos[b] for b in first.order]
    return _count_inversions(seq)


def _count_inversions(seq: list[int]) -> int:
    if len(seq) < 2:
        return 0
    mid = len(seq) // 2
    left, right = seq[:mid], seq[mid:]
    count = _count_inversions(left) + _count_inversions(right)
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
            count += len(left) - i
    seq[:] = merged + left[i:] + right[j:]
    return count


def _check_phi(phi) -> None:
    """Reject a dispersion that is not a real number in (0, 1], and bools."""
    if not isinstance(phi, numbers.Real) or isinstance(phi, bool):
        raise ValidationError(f"dispersion phi must be a real number, got {phi!r}")
    if not (0 < phi <= 1):
        raise ValidationError(f"dispersion phi must lie in (0, 1], got {phi}")


@dataclass(frozen=True)
class MallowsParams:
    reference: Preference
    phi: float

    def __post_init__(self) -> None:
        if not isinstance(self.reference, Preference):
            raise ValidationError(f"Mallows reference must be a Preference, got {self.reference!r}")
        _check_phi(self.phi)


def sample_mallows(params: MallowsParams, rng: np.random.Generator) -> Preference:
    """One repeated-insertion draw (Doignon, Pekec & Regenwetter 2004)."""
    reference = params.reference
    return Preference._from_rows(reference.shape, _draw(reference.indices, params.phi, 1, rng))[0]


def _draw(reference: Sequence[int], phi: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent repeated-insertion draws around the reference
    ranking's bundle indices, from one ``rng.random((count, m))``, row by
    row the same numbers as ``count`` calls of ``rng.random(m)``, as a
    ``(count, m)`` unsigned block of bundle indices, one draw per row, most
    preferred first. The reference is not checked: a row of a reference
    that is not a permutation is not one either, and ``_from_rows`` refuses
    it.

    The k-th reference element goes r places above the bottom of the partial
    ranking, where P(r) is proportional to phi**r on 0..k-1: a truncated
    geometric offset, drawn from one uniform u by its inverse CDF,
    r = floor(log(1 - u (1 - phi**k)) / log(phi)), or floor(u k) at phi = 1.
    ``expm1`` forms ``phi**k - 1`` without a power per element."""
    m = len(reference)
    below = np.arange(m, dtype=float)  # k - 1
    # r, then the slot k - 1 - r, computed in place in the uniforms' array
    x = rng.random((count, m))
    if phi == 1:
        np.multiply(x, below + 1, out=x)
    else:
        log_phi = math.log(phi)
        np.multiply(x, np.expm1((below + 1) * log_phi), out=x)
        np.log1p(x, out=x)
        np.divide(x, log_phi, out=x)
    np.floor(x, out=x)
    np.subtract(below, x, out=x)
    # r reaches k only by rounding, when u lies within an ulp or so of 1
    slots = np.maximum(x, 0, out=x).astype(np.intp)
    # bundle indices stay below CAPACITY_LIMIT, so fit an unsigned int
    block = np.empty((count, m), np.uintc)
    for row, out in zip(slots, block):
        placed = array("I")
        # one insert per reference element, driven from C by the deque
        deque(map(placed.insert, row.tolist(), reference), 0)
        out[:] = np.frombuffer(placed, np.uintc)
    return block


def mallows_pmf(params: MallowsParams, ranking: Preference) -> float:
    """Exact probability of one ranking; the normalizer has the closed form
    prod_k (1 + phi + ... + phi**(k-1)), each factor (phi**k - 1) / (phi - 1)
    formed with ``expm1`` as in ``_draw`` (k at phi = 1)."""
    m = params.reference.shape.bundle_count
    log_phi = math.log(params.phi)
    z = math.prod(
        math.expm1(k * log_phi) / math.expm1(log_phi) if log_phi else float(k)
        for k in range(1, m + 1)
    )
    return params.phi ** kendall_tau(ranking, params.reference) / z


def uniform_preference(shape: DomainShape, rng: np.random.Generator) -> Preference:
    """One uniformly random ranking of the bundle space."""
    # a list shuffle makes the same swaps, from the same draws, as
    # rng.permutation, without the array and its conversion
    indices = list(range(shape.bundle_count))
    rng.shuffle(indices)
    return Preference.from_indices(shape, indices)


@dataclass(frozen=True)
class MechanismConfig:
    order_family: str  # a key of _FAMILIES
    behavior: str  # a key of engine._BEHAVIORS

    def __post_init__(self) -> None:
        # a non-string (a list is unhashable) is no token either
        if not (isinstance(self.order_family, str) and self.order_family in _FAMILIES):
            raise ValidationError(f"unknown order family {self.order_family!r}")
        if not (isinstance(self.behavior, str) and self.behavior in _BEHAVIORS):
            raise ValidationError(f"unknown behavior {self.behavior!r}")


DEFAULT_GRID = (
    MechanismConfig("sd", "opt"),
    MechanismConfig("sd", "pess"),
    MechanismConfig("balanced", "opt"),
    MechanismConfig("balanced", "pess"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    p: int
    n_values: Sequence[int]
    phis: tuple[float, ...]
    samples: int
    seed: int
    mechanisms: tuple[MechanismConfig, ...] = DEFAULT_GRID
    check_bounds: bool = False

    def __post_init__(self) -> None:
        if type(self.samples) is not int:
            raise ValidationError(f"samples must be an integer, got {self.samples!r}")
        if self.samples < 1:
            raise ValidationError("need at least one sample per cell")
        for name in ("n_values", "phis", "mechanisms"):
            axis = getattr(self, name)
            if not isinstance(axis, Sequence) or isinstance(axis, str):
                raise ValidationError(f"{name} must be a sequence, got {axis!r}")
        if not self.n_values or not self.phis or not self.mechanisms:
            raise ValidationError("experiment grid is empty")
        for phi in self.phis:
            _check_phi(phi)
        for cfg in self.mechanisms:
            if not isinstance(cfg, MechanismConfig):
                raise ValidationError(f"mechanisms must be MechanismConfig entries, got {cfg!r}")
        if type(self.check_bounds) is not bool:
            raise ValidationError(f"check_bounds must be a bool, got {self.check_bounds!r}")
        _check_seed(self.seed)
        for n in self.n_values:  # every shape's capacity guard, before any draw
            DomainShape(n, self.p)


@dataclass(frozen=True)
class ExperimentResult:
    mechanism: str
    behavior: str
    n: int
    p: int
    phi: float
    samples: int
    seed: int
    mean_utilitarian: float
    ci_utilitarian: float
    mean_egalitarian: float
    ci_egalitarian: float


_COLUMNS = tuple(f.name for f in fields(ExperimentResult))
CSV_HEADER = ",".join(_COLUMNS)


def _cell_stats(rows: np.ndarray) -> tuple[list[float], list[float]]:
    """Mean and 95% normal CI half-width (1.96 s / sqrt(k), 0.0 for k = 1)
    of each row of a C-contiguous float64 ``(rows, k)`` array. One row-wise
    numpy reduction per statistic sums each contiguous row in the same
    pairwise order as a 1-D reduction, so the figures are those of per-row
    ``mean`` and ``std(ddof=1)``, bit for bit."""
    size = rows.shape[1]
    means = rows.mean(axis=1).tolist()
    if size < 2:
        return means, [0.0] * len(means)
    root = math.sqrt(size)
    return means, [1.96 * sd / root for sd in rows.std(axis=1, ddof=1).tolist()]


def run_experiment(config: ExperimentConfig) -> list[ExperimentResult]:
    """Monte Carlo estimate of expected realized ranks per grid cell.

    Replicate streams are np.random.default_rng([seed, index]) with a global
    replicate index enumerating the (n, phi, replicate) grid, so any cell can
    be reproduced in isolation. Results run over mechanisms, then n, then
    phi, one per grid position, so a repeated n or phi gets its own rows.
    """
    grid = (len(config.mechanisms), len(config.n_values), len(config.phis))
    # the utilitarian and egalitarian rank of every play, by grid position;
    # numpy refuses an array it cannot hold before any draw is made
    try:
        totals = np.empty((*grid, 2, config.samples))
    except (MemoryError, ValueError) as exc:
        raise CapacityError(f"{config.samples} samples per cell are too many: {exc}") from None
    index = 0
    for n_idx, n in enumerate(config.n_values):
        shape = DomainShape(n, config.p)
        plays = []
        for cfg in config.mechanisms:
            order = _FAMILIES[cfg.order_family](list(shape.agents()), config.p)
            behaviors = (_BEHAVIORS[cfg.behavior],) * n
            report = worst_case_report(order, behaviors) if config.check_bounds else None
            plays.append((order, behaviors, report))
        for phi_idx, phi in enumerate(config.phis):
            for rep in range(config.samples):
                rng = np.random.default_rng([config.seed, index])
                index += 1
                # uniform_preference's permutation, with no Preference built
                block = _draw(rng.permutation(shape.bundle_count).tolist(), phi, n, rng)
                prefs = Preference._from_rows(shape, block)
                _fill_masks(prefs, block)  # from the draw's block, not from the tuples
                profile = Profile(shape, prefs)
                for c_idx, (order, behaviors, report) in enumerate(plays):
                    ranks = _realized_ranks(order, profile, behaviors)
                    if report is not None:
                        for j, rank in enumerate(ranks, 1):
                            if rank > report.bound(j):
                                raise AssertionError(
                                    f"realized rank {rank} exceeds the bound "
                                    f"{report.bound(j)} for agent {j}"
                                )
                    totals[c_idx, n_idx, phi_idx, :, rep] = sum(ranks), max(ranks)

    # rows alternate utilitarian and egalitarian, cell by cell
    means, cis = _cell_stats(totals.reshape(-1, config.samples))
    results = []
    for row, (c_idx, n_idx, phi_idx) in enumerate(np.ndindex(grid)):
        cfg = config.mechanisms[c_idx]
        results.append(
            ExperimentResult(
                cfg.order_family, cfg.behavior, config.n_values[n_idx], config.p,
                config.phis[phi_idx], config.samples, config.seed,
                means[2 * row], cis[2 * row], means[2 * row + 1], cis[2 * row + 1],
            )
        )
    return results


def results_to_csv(results: Sequence[ExperimentResult]) -> str:
    rows = (",".join(str(getattr(r, name)) for name in _COLUMNS) for r in results)
    return "\n".join([CSV_HEADER, *rows]) + "\n"
