"""Spectral richness of motif sets and the contraction-scale sweep.

Each retained motif is mapped through the discrete Fourier transform; the
resulting complex coefficients, tagged with normalized motif weights, form
a point cloud in the complex plane.  Coverage of the fixed grid over
``[-7, 7)^2`` measures how spectrally rich the kernel is.  Sweeping the
contraction scale ``nu`` toward 1 reveals a sharp rise of coverage for the
cycle reservoir with aperiodic sign couplings, and no such rise for dense
random reservoirs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import coupling as cp
from .errors import ContractViolation
from .motifs import MotifSet, check_threshold_ratio, extract_motifs
from .numerics import as_finite_array, as_number_array, check_positive_int, dft
from .temporal_kernel import build_from_specs, scale_metric_tensor


# The occupancy grid: ``[-HALF_WIDTH, HALF_WIDTH)`` per axis in cells of side
# CELL_SIDE, 280 x 280 = 78400 cells.  Cells are half-open: a point exactly on
# an edge belongs to the higher-index cell.
HALF_WIDTH = 7.0
CELL_SIDE = 0.05
CELLS_PER_AXIS = 280


def coefficient_cloud(motif_set: MotifSet) -> tuple[np.ndarray, np.ndarray]:
    """All DFT coefficients of the retained motifs, as ``(points, weights)``.

    ``points[j]`` is one complex coefficient, in motif order; a motif of
    length ``tau`` contributes ``tau`` of them, and ``weights[j]`` is that
    motif's weight normalized so the retained weights sum to one.  An empty
    motif set gives two empty arrays.
    """
    if len(motif_set) == 0:
        return np.empty(0, dtype=complex), np.empty(0)
    share = motif_set.weights / float(np.sum(motif_set.weights))
    return dft(motif_set.vectors).ravel(), np.repeat(share, motif_set.horizon)


@dataclass(frozen=True)
class GridSummary:
    """Occupancy statistics of one cloud on the grid."""

    cells_visited: int
    weighted_relative_area: float
    discarded_points: int

    @property
    def relative_area(self) -> float:
        """The share of the grid's cells that the cloud visits."""
        return self.cells_visited / CELLS_PER_AXIS**2


def grid_summary(points, weights) -> GridSummary:
    """Map a cloud of complex ``points`` with non-negative ``weights``, one
    per point, onto the grid once and report all occupancy measures.

    Both must be finite and 1-D.  Points outside the grid are discarded (and
    counted).  The weighted measure averages point weights within each
    visited cell and sums the averages over the grid.
    """
    pts = as_number_array(points, "cloud points", complex_ok=True)
    re, im = (as_finite_array(part, 1, "cloud points") for part in (pts.real, pts.imag))
    wts = as_finite_array(weights, 1, "cloud weights")
    if wts.shape != re.shape or np.any(wts < 0.0):
        raise ContractViolation("cloud weights must be non-negative, one per point")
    # Test the float cell indices before the int64 cast, which a point far off
    # the grid would overflow; an index that overflows to inf is off the grid.
    with np.errstate(over="ignore"):
        fx = np.floor((re + HALF_WIDTH) / CELL_SIDE)
        fy = np.floor((im + HALF_WIDTH) / CELL_SIDE)
    inside = (fx >= 0) & (fx < CELLS_PER_AXIS) & (fy >= 0) & (fy < CELLS_PER_AXIS)
    discarded = int(np.sum(~inside))
    keys = fx[inside].astype(np.int64) * CELLS_PER_AXIS + fy[inside].astype(np.int64)
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=wts[inside])
    counts = np.bincount(inverse)
    return GridSummary(
        cells_visited=int(unique_keys.shape[0]),
        weighted_relative_area=float(np.sum(sums / counts)) / CELLS_PER_AXIS**2,
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
    is swept once: ``nu_values`` is stored sorted, each value once.  Each of
    the three axes ``nu_values``, ``regimes`` and ``input_kinds`` is a
    non-empty sequence.
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
        for axis in ("nu_values", "regimes", "input_kinds"):
            values = getattr(self, axis)
            if not (isinstance(values, Sequence) and not isinstance(values, str) and values):
                raise ContractViolation(f"{axis} must be a non-empty sequence")
        if self.trials is not None:
            check_positive_int(self.trials, "trials")
        if self.horizon is not None:
            check_positive_int(self.horizon, "horizon")
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
        object.__setattr__(self, "nu_values", tuple(sorted(set(self.nu_values))))


@dataclass(frozen=True, kw_only=True)
class RichnessReport(GridSummary):
    """One sweep row: the grid summary of a single trial's cloud, with the
    labels of that trial as keyword-only fields."""

    nu: float
    regime: str
    input_kind: str
    trial: int
    n_motifs: int
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
    unchanged.  Coverage is measured on the one grid.  Reports are
    sorted by (nu, regime, input_kind, trial).
    """
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
                for nu in config.nu_values:
                    motif_set = extract_motifs(scale_metric_tensor(unit, nu),
                                               config.threshold_ratio)
                    summary = grid_summary(*coefficient_cloud(motif_set))
                    reports.append(RichnessReport(
                        **vars(summary), nu=nu, regime=regime, input_kind=kind,
                        trial=trial, n_motifs=len(motif_set), seed=seed.base))
    reports.sort(key=lambda r: (r.nu, r.regime, r.input_kind, r.trial))
    return reports
