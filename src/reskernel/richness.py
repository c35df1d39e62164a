"""Spectral richness of motif sets and the contraction-scale sweep.

Each retained motif is mapped through the discrete Fourier transform; the
resulting complex coefficients, tagged with normalized motif weights, form
a point cloud in the complex plane.  Coverage of a fixed grid over
``[-7, 7]^2`` measures how spectrally rich the kernel is.  Sweeping the
contraction scale ``nu`` toward 1 reveals a sharp rise of coverage for the
cycle reservoir with aperiodic sign couplings, and no such rise for dense
random reservoirs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import coupling as cp
from .errors import ContractViolation
from .motifs import MotifSet, check_threshold_ratio, extract_motifs
from .numerics import dft
from .temporal_kernel import build_from_specs, check_horizon, scale_metric_tensor


@dataclass(frozen=True)
class GridSpec:
    """Square occupancy grid centered at the origin.

    The default covers ``[-7, 7]`` per axis with side-0.05 cells, giving
    280 x 280 = 78400 cells.  Cells are half-open: a point exactly on an
    edge belongs to the higher-index cell.
    """

    half_width: float = 7.0
    cell_side: float = 0.05

    def __post_init__(self):
        if not (self.half_width > 0.0 and self.cell_side > 0.0):
            raise ContractViolation("grid dimensions must be positive")
        # grid_summary keys cell (ix, iy) as ix * cells_per_axis + iy in int64.
        if not (np.isfinite(2.0 * self.half_width / self.cell_side) and self.total_cells < 2**63):
            raise ContractViolation("grid must have fewer than 2**63 cells")
        if self.cells_per_axis < 1:
            raise ContractViolation("grid must contain at least one cell per axis")

    @property
    def cells_per_axis(self) -> int:
        return int(round(2.0 * self.half_width / self.cell_side))

    @property
    def total_cells(self) -> int:
        return self.cells_per_axis**2


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class CoefficientCloud:
    """Fourier coefficients of retained motifs with per-point weights.

    ``points[j]`` is one DFT coefficient; ``weights[j]`` is the normalized
    weight of the motif it came from (weights sum to 1 over motifs, and
    every coefficient of a motif carries that motif's full weight).
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 1 or wts.shape != pts.shape:
            raise ContractViolation("points and weights must be matching 1-dimensional arrays")
        if np.any(wts < 0.0):
            raise ContractViolation("point weights must be non-negative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    def __len__(self) -> int:
        return int(self.points.shape[0])


def coefficient_cloud(motif_set: MotifSet) -> CoefficientCloud:
    """All DFT coefficients of the retained motifs.

    A motif of length ``tau`` contributes ``tau`` points, each carrying the
    motif's weight normalized so the retained weights sum to one.  An empty
    motif set gives an empty cloud.
    """
    if len(motif_set) == 0:
        return CoefficientCloud(points=np.empty(0, dtype=complex), weights=np.empty(0))
    share = motif_set.weights / float(np.sum(motif_set.weights))
    return CoefficientCloud(points=dft(motif_set.vectors).ravel(),
                            weights=np.repeat(share, motif_set.horizon))


@dataclass(frozen=True)
class GridSummary:
    """Occupancy statistics of one cloud on one grid."""

    cells_visited: int
    relative_area: float
    weighted_relative_area: float
    discarded_points: int


def grid_summary(cloud: CoefficientCloud, grid: GridSpec = DEFAULT_GRID) -> GridSummary:
    """Map a cloud onto the grid once and report all occupancy measures.

    Points outside the grid are discarded (and counted).  The weighted
    measure averages point weights within each visited cell and sums the
    averages over the grid.
    """
    n_axis = grid.cells_per_axis
    ix = np.floor((cloud.points.real + grid.half_width) / grid.cell_side).astype(np.int64)
    iy = np.floor((cloud.points.imag + grid.half_width) / grid.cell_side).astype(np.int64)
    inside = (ix >= 0) & (ix < n_axis) & (iy >= 0) & (iy < n_axis)
    discarded = int(np.sum(~inside))
    keys = ix[inside] * n_axis + iy[inside]
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=cloud.weights[inside])
    counts = np.bincount(inverse)
    total = float(grid.total_cells)
    return GridSummary(
        cells_visited=int(unique_keys.shape[0]),
        relative_area=unique_keys.shape[0] / total,
        weighted_relative_area=float(np.sum(sums / counts)) / total,
        discarded_points=discarded,
    )


def default_nu_grid() -> tuple[float, ...]:
    """The sweep grid: 0.90 to 1.00 in steps of 0.005, with the reference
    points 0.96, 0.99, 0.996 and 1.0 always present."""
    values = {round(0.90 + 0.005 * k, 6) for k in range(21)}
    values.update((0.96, 0.99, 0.996, 1.0))
    return tuple(sorted(values))


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of one richness sweep.

    ``trials`` of ``None`` selects the repeat count per configuration
    automatically: 1 when both reservoir and coupling are deterministic,
    30 when exactly one of them is random, 60 when both are.
    ``horizon`` of ``None`` means twice the state dimension.  The settings
    are checked by building the specs they describe (a reservoir per regime
    and ``nu``, a coupling per input kind, the seed) before any sweep work;
    a regime or input kind given twice is rejected, while a repeated ``nu``
    is swept once.
    """

    nu_values: tuple[float, ...] = field(default_factory=default_nu_grid)
    regimes: tuple[str, ...] = (cp.CYCLE_PERMUTATION, cp.RANDOM_IID)
    input_kinds: tuple[str, ...] = ("ones_pi_signs",)
    state_dim: int = 100
    horizon: int | None = None
    period: int | None = None
    threshold_ratio: float = 1e-2
    trials: int | None = None
    base_seed: int = 0
    distribution: str = cp.GAUSSIAN
    normalize_unit: bool = True

    def __post_init__(self):
        if len(self.nu_values) == 0:
            raise ContractViolation("nu grid must not be empty")
        if self.trials is not None:
            cp.check_positive_int(self.trials, "trials")
        if self.horizon is not None:
            check_horizon(self.horizon)
        check_threshold_ratio(self.threshold_ratio)
        for regime in self.regimes:
            for nu in self.nu_values:
                cp.ReservoirSpec(regime, self.state_dim, nu, self.distribution)
        for kind in self.input_kinds:
            cp.coupling_spec(kind, self.state_dim, self.period, self.normalize_unit)
        for axis, names in (("regime", self.regimes), ("input kind", self.input_kinds)):
            if len(set(names)) != len(names):
                raise ContractViolation(f"each {axis} may appear once, got {', '.join(names)}")
        cp.Seed(self.base_seed)


@dataclass(frozen=True)
class RichnessReport:
    """One sweep row: occupancy measures of a single trial."""

    nu: float
    regime: str
    input_kind: str
    trial: int
    n_motifs: int
    cells_visited: int
    relative_area: float
    weighted_relative_area: float
    discarded_points: int
    seed: int


def trial_count(regime: str, input_kind: str) -> int:
    """Repeats for one configuration: 1, 30, or 60 by number of random
    sources."""
    sources = int(regime != cp.CYCLE_PERMUTATION) + int(input_kind in cp.RANDOM_INPUT_KINDS)
    return {0: 1, 1: 30, 2: 60}[sources]


def sweep(config: SweepConfig) -> list[RichnessReport]:
    """Run the richness sweep and return reports in canonical order.

    For every regime and input kind the configured number of trials is run.
    Trial ``t`` builds one tensor, with ``build_from_specs`` at ``nu = 1``
    and seed ``trial_seed(base_seed, t)``, and scales it to every grid value
    of ``nu`` with :func:`scale_metric_tensor`.  ``build_from_specs`` scales
    its own unit-scale tensor the same way, so each row equals the tensor it
    gives at the row's ``nu``, and adding a grid value leaves the other rows
    unchanged.  Coverage is measured on :data:`DEFAULT_GRID`.  Reports are
    sorted by (nu, regime, input_kind, trial).
    """
    nu_values = tuple(sorted(set(config.nu_values)))
    horizon = config.horizon if config.horizon is not None else 2 * config.state_dim
    reports: list[RichnessReport] = []
    for regime in config.regimes:
        unit_spec = cp.ReservoirSpec(regime, config.state_dim, 1.0, config.distribution)
        for kind in config.input_kinds:
            in_spec = cp.coupling_spec(kind, config.state_dim, config.period,
                                       config.normalize_unit)
            for trial in range(config.trials or trial_count(regime, kind)):
                seed = cp.trial_seed(config.base_seed, trial)
                _, _, unit = build_from_specs(unit_spec, in_spec, horizon, seed)
                for nu in nu_values:
                    motif_set = extract_motifs(scale_metric_tensor(unit, nu),
                                               config.threshold_ratio)
                    summary = grid_summary(coefficient_cloud(motif_set))
                    reports.append(RichnessReport(
                        nu=nu,
                        regime=regime,
                        input_kind=kind,
                        trial=trial,
                        n_motifs=len(motif_set),
                        cells_visited=summary.cells_visited,
                        relative_area=summary.relative_area,
                        weighted_relative_area=summary.weighted_relative_area,
                        discarded_points=summary.discarded_points,
                        seed=seed.base,
                    ))
    reports.sort(key=lambda r: (r.nu, r.regime, r.input_kind, r.trial))
    return reports
