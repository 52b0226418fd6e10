"""Mallows-model preference sampling and expected-rank experiments.

The Mallows distribution over rankings of the bundle space weights a ranking
V by phi**d(V, W), d the Kendall tau distance (the number of bundle pairs
the two order oppositely), for a reference ranking W and dispersion
0 < phi <= 1 (phi = 1 is uniform). Sampling uses repeated insertion: walking
W from best to worst, the k-th element is inserted r positions above the
bottom of the partial ranking with probability proportional to phi**r, which
adds exactly r discordant pairs. The offsets have a closed-form inverse CDF,
so one vectorised step turns a whole block of uniforms into insertion slots
(``_slots``), and no weight table is kept. One placement loop (``_place``)
inserts each row's reference bundle indices at its slots, into one row of an
unsigned index block. Every row is a permutation of its reference's indices
by construction, so ``sample_mallows`` makes its row a ranking through
``Preference._build`` unchecked, and the study plays its rows where they
lie, with no ``Preference``, tuple or list per draw: each ranking is a slice
of one ``memoryview`` of the block, and the block gives the rankings'
position masks.

``run_experiment`` estimates expected utilitarian and egalitarian realized
ranks for sequential mechanisms under profiles drawn from a shared Mallows
population (one ``uniform_preference`` reference per replicate, one draw per
agent, the same profile fed to every mechanism configuration, each played
without a trace). Each replicate keeps its own stream, but the study draws
and plays in blocks (``_study_block``): per shape, as many replicates as
fit in ``_STUDY_BLOCK`` uniforms and ``_STUDY_ROWS`` draws, across phis,
one at least, with one slot pass per phi, one placement loop and one mask
build (``domain._fill_masks``). The block's views (``engine._views``, from
its row slices and their masks) are built once, and each mechanism plays
the whole block round by round (``engine._realized_ranks``).
"""

from __future__ import annotations

import math
import numbers
from array import array
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields

import numpy as np

from .bounds import worst_case_report
from .domain import (
    CapacityError,
    DomainShape,
    Preference,
    ValidationError,
    _REPR,
    _check_seed,
    _fill_masks,
    _invalid,
)
from .engine import _BEHAVIORS, _realized_ranks, _views
from .orders import balanced_order, serial_dictatorship_order

# the order families by their study token
_FAMILIES = {"sd": serial_dictatorship_order, "balanced": balanced_order}

# Largest block of uniforms ``run_experiment`` draws at once, in elements
# and in draws: a block holds whole replicates, n draws of m uniforms each,
# at least one. Every draw gets a row view and its masks, so at small m,
# where the element cap alone lets a block hold 65536 / m draws, the row
# cap bounds them.
_STUDY_BLOCK = 1 << 16
_STUDY_ROWS = 1 << 12


def _check_phi(phi) -> None:
    """Reject a dispersion that is not a real number in (0, 1], and bools."""
    if not isinstance(phi, numbers.Real) or isinstance(phi, bool):
        raise _invalid("dispersion phi must be a real number", phi)
    if not (0 < phi <= 1):
        raise _invalid("dispersion phi must lie in (0, 1]", phi)


@dataclass(frozen=True)
class MallowsParams:
    reference: Preference
    phi: float

    def __post_init__(self) -> None:
        if not isinstance(self.reference, Preference):
            raise _invalid("Mallows reference must be a Preference", self.reference)
        _check_phi(self.phi)


def sample_mallows(params: MallowsParams, rng: np.random.Generator) -> Preference:
    """One repeated-insertion draw (Doignon, Pekec & Regenwetter 2004), from
    one ``rng.random((1, m))``. The reference is a checked ranking
    (``MallowsParams`` holds a ``Preference``)."""
    reference = params.reference
    x = rng.random((1, reference.shape.bundle_count))
    _slots(x, params.phi)
    row = _place(x, [reference.indices])[0]
    return Preference.__new__(Preference)._build(reference.shape, tuple(row.tolist()))


def _slots(x: np.ndarray, phi: float) -> None:
    """Turn each row of uniforms ``x``, a ``(rows, m)`` float block, into
    the insertion slots of its draw, in place, one vectorised pass for all
    rows.

    The k-th reference element goes r places above the bottom of the partial
    ranking, where P(r) is proportional to phi**r on 0..k-1: a truncated
    geometric offset, drawn from one uniform u by its inverse CDF,
    r = floor(log(1 - u (1 - phi**k)) / log(phi)), or floor(u k) at phi = 1.
    ``expm1`` forms ``phi**k - 1`` without a power per element. The slot is
    k - 1 - r."""
    below = np.arange(x.shape[1], dtype=float)  # k - 1
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
    np.maximum(x, 0, out=x)


def _place(slots: np.ndarray, references: Iterable[Sequence[int]]) -> np.ndarray:
    """Row ``r`` of ``slots`` inserts the ``r``-th reference's elements, in
    order, at its slots: a ``(rows, m)`` unsigned block of bundle indices,
    most preferred first. ``array.insert`` always inserts, so each row is a
    permutation of its reference, a ranking as it stands."""
    # bundle indices stay below CAPACITY_LIMIT, so fit an unsigned int
    block = array("I")
    for row, reference in zip(slots.astype(np.intp).tolist(), references):
        placed = array("I")
        # one insert per reference element, driven from C by the deque
        deque(map(placed.insert, row, reference), 0)
        block += placed
    return np.frombuffer(block, np.uintc).reshape(slots.shape)


def _study_block(
    config: ExperimentConfig, shape: DomainShape, first: int, lo: int, hi: int
) -> np.ndarray:
    """The draws of a shape's replicates ``lo`` to ``hi - 1`` in the study,
    as a ``(rows, m)`` unsigned block of bundle indices, n rows per
    replicate. The shape's replicates run phi by phi, ``samples`` each, the
    k-th with global index ``first + k`` and stream
    ``default_rng([seed, first + k])``, which draws its reference
    (``uniform_preference``) and then its ``(n, m)`` uniforms. The study
    plays the rows from this block, each a slice of one ``memoryview``
    of it."""
    n, m, samples = shape.n, shape.bundle_count, config.samples
    x = np.empty((hi - lo, n, m))
    refs = []
    for k, out in zip(range(lo, hi), x):
        rng = np.random.default_rng([config.seed, first + k])
        refs.append(uniform_preference(shape, rng).indices)
        rng.random(out=out)
    x = x.reshape(-1, m)
    # the slots of each phi's rows of the block, one pass per phi
    for phi_idx in range(lo // samples, (hi - 1) // samples + 1):
        a = max(lo, phi_idx * samples) - lo
        b = min(hi, (phi_idx + 1) * samples) - lo
        _slots(x[a * n : b * n], config.phis[phi_idx])
    return _place(x, (ref for ref in refs for _ in range(n)))


def uniform_preference(shape: DomainShape, rng: np.random.Generator) -> Preference:
    """One uniformly random ranking of the bundle space. A shuffled
    ``range`` is a permutation by construction, so it goes straight to
    ``Preference._build``, unchecked: ``from_indices`` is for indices a
    caller gives."""
    # a list shuffle makes the same swaps, from the same draws, as
    # Generator.permutation, without the array and its conversion
    indices = list(range(shape.bundle_count))
    rng.shuffle(indices)
    return Preference.__new__(Preference)._build(shape, tuple(indices))


@dataclass(frozen=True)
class MechanismConfig:
    order_family: str  # a key of _FAMILIES
    behavior: str  # a key of engine._BEHAVIORS

    def __post_init__(self) -> None:
        # a non-string (a list is unhashable) is no token either
        if not (isinstance(self.order_family, str) and self.order_family in _FAMILIES):
            raise ValidationError(f"unknown order family {_REPR.repr(self.order_family)}")
        if not (isinstance(self.behavior, str) and self.behavior in _BEHAVIORS):
            raise ValidationError(f"unknown behavior {_REPR.repr(self.behavior)}")


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
            raise _invalid("samples must be an integer", self.samples)
        if self.samples < 1:
            raise ValidationError("need at least one sample per cell")
        for name in ("n_values", "phis", "mechanisms"):
            axis = getattr(self, name)
            if not isinstance(axis, Sequence) or isinstance(axis, str):
                raise _invalid(f"{name} must be a sequence", axis)
        if not self.n_values or not self.phis or not self.mechanisms:
            raise ValidationError("experiment grid is empty")
        for phi in self.phis:
            _check_phi(phi)
        for cfg in self.mechanisms:
            if not isinstance(cfg, MechanismConfig):
                raise _invalid("mechanisms must be MechanismConfig entries", cfg)
        if type(self.check_bounds) is not bool:
            raise _invalid("check_bounds must be a bool", self.check_bounds)
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
    samples = config.samples
    for n_idx, n in enumerate(config.n_values):
        shape = DomainShape(n, config.p)
        m = shape.bundle_count
        # each order family once per shape, in the grid's order
        families = dict.fromkeys(cfg.order_family for cfg in config.mechanisms)
        orders = {f: _FAMILIES[f](list(shape.agents()), config.p) for f in families}
        plays = []
        for cfg in config.mechanisms:
            order, behaviors = orders[cfg.order_family], (_BEHAVIORS[cfg.behavior],) * n
            report = worst_case_report(order, behaviors) if config.check_bounds else None
            plays.append((order, behaviors, report))
        # the shape's replicates run phi by phi, global index first + k for
        # the k-th; a block holds up to ``step`` of them
        first = n_idx * len(config.phis) * samples
        count = len(config.phis) * samples
        step = max(1, min(_STUDY_BLOCK // (n * m), _STUDY_ROWS // n))
        for lo in range(0, count, step):
            hi = min(count, lo + step)
            block = _study_block(config, shape, first, lo, hi)
            # each draw's ranking is a slice of one view of the block (a view
            # per row costs more memory), beside its masks; every
            # replicate's views once, shared by every mechanism
            flat = memoryview(block.reshape(-1))
            rows = [flat[r : r + m] for r in range(0, len(flat), m)]
            views = _views(rows, _fill_masks(shape, block), n)
            for c_idx, (order, behaviors, report) in enumerate(plays):
                for k, ranks in enumerate(_realized_ranks(order, views, behaviors), lo):
                    phi_idx, rep = divmod(k, samples)
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
