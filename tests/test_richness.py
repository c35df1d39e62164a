"""Coefficient clouds, grid occupancy, and the damping-factor sweep."""

import csv
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

from reskernel import (
    ContractViolation,
    GridSummary,
    MetricTensor,
    MotifSet,
    RichnessReport,
    InputCouplingSpec,
    ReservoirSpec,
    SweepConfig,
    build_from_specs,
    coefficient_cloud,
    default_nu_grid,
    dft,
    extract_motifs,
    grid_summary,
    mix_seed,
    sweep,
    trial_count,
    trial_seed,
)
from reskernel import motifs
from reskernel.richness import CELL_SIDE, CELLS_PER_AXIS, HALF_WIDTH


def _motif_set(vectors, weights):
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    weights = np.asarray(weights, dtype=float)
    spectrum = np.zeros(vectors.shape[1])
    spectrum[:len(weights)] = weights ** 2
    return MotifSet(vectors=vectors, spectrum=spectrum)


# ---------------------------------------------------------------------------
# grid geometry
# ---------------------------------------------------------------------------

def test_default_grid_dimensions():
    assert round(2 * HALF_WIDTH / CELL_SIDE) == CELLS_PER_AXIS == 280


@pytest.mark.parametrize("cell_side, cells", [(0.05, 280), (0.025, 560), (0.1, 140),
                                              (0.2, 70)])
def test_the_default_width_takes_every_cell_side_in_use(cell_side, cells):
    # The cell sides of ROADMAP item 6's study tile the grid's width, and a
    # lattice of their cell centres lies wholly on the grid.
    assert cells * cell_side == pytest.approx(2 * HALF_WIDTH, rel=1e-12)
    centres = -HALF_WIDTH + (np.arange(cells) + 0.5) * cell_side
    points = (centres[:, None] + 1j * centres[None, :]).ravel()
    summary = grid_summary(points, np.ones(points.size))
    assert summary.discarded_points == 0
    assert summary.cells_visited == min(cells, CELLS_PER_AXIS) ** 2


# ---------------------------------------------------------------------------
# coefficient clouds
# ---------------------------------------------------------------------------

def test_single_motif_cloud_carries_unit_weight():
    motifs = _motif_set(np.eye(4)[:1], [2.0])
    points, weights = coefficient_cloud(motifs)
    assert len(points) == 4
    assert np.array_equal(weights, np.ones(4))
    assert np.allclose(points, np.ones(4), atol=1e-12)


def test_equal_weight_motifs_split_the_share():
    motifs = _motif_set(np.eye(4)[:2], [1.5, 1.5])
    points, weights = coefficient_cloud(motifs)
    assert len(points) == 8
    assert np.array_equal(weights, np.full(8, 0.5))


def test_constant_motif_concentrates_at_the_dc_coefficient():
    motifs = _motif_set([np.full(4, 0.5)], [1.0])
    points, _ = coefficient_cloud(motifs)
    assert points[0] == pytest.approx(2.0, abs=1e-12)
    assert np.max(np.abs(points[1:])) < 1e-12


def test_empty_motif_set_gives_empty_cloud():
    empty = extract_motifs(MetricTensor(np.zeros((2, 3))))
    points, weights = coefficient_cloud(empty)
    assert len(points) == len(weights) == 0
    assert grid_summary(points, weights) == grid_summary(points, weights)
    assert grid_summary(points, weights).relative_area == 0.0


def test_cloud_holds_the_per_motif_transforms_in_motif_order():
    _, _, tensor = build_from_specs(ReservoirSpec(regime="random_iid", size=10, nu=0.95),
                                    InputCouplingSpec(kind="gaussian", size=10), 20,
                                    trial_seed(1, 0))
    motifs = extract_motifs(tensor, 1e-3)
    points, weights = coefficient_cloud(motifs)
    share = motifs.weights / np.sum(motifs.weights)
    expected = np.concatenate([dft(vector) for vector in motifs.vectors])
    assert len(motifs) > 1
    assert points.tobytes() == expected.tobytes()
    assert np.array_equal(weights, np.repeat(share, 20))


@pytest.mark.parametrize("n, index", [(199, 0), (200, 100)])
def test_a_real_coefficient_with_negative_rounding_is_binned_at_imaginary_zero(n, index):
    # A real motif's coefficients 0 and n/2 are real.  The FFT can leave a
    # rounding below zero in their imaginary part, large enough to cross the
    # cell edge at 0; the cloud holds an exact zero there, so the point shares
    # its cell with one in the middle of the cell above that edge.
    rows = np.random.default_rng(n).normal(size=(2000, n))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    raw = np.fft.fft(rows.astype(complex))[:, index].imag
    noisy = np.flatnonzero(np.floor((raw + HALF_WIDTH) / CELL_SIDE) < CELLS_PER_AXIS // 2)
    assert noisy.size > 0
    points, _ = coefficient_cloud(_motif_set(rows[noisy[0]], [1.0]))
    point = points[index]
    assert point.imag == 0.0
    middle = complex(point.real, CELL_SIDE / 2)
    assert grid_summary([point, middle], [0.5, 0.5]).cells_visited == 1


def test_cloud_container_validation():
    with pytest.raises(ContractViolation):
        grid_summary(np.zeros(2, dtype=complex), np.array([0.5, -0.5]))
    with pytest.raises(ContractViolation):
        grid_summary(np.zeros(2, dtype=complex), np.array([0.5]))


# ---------------------------------------------------------------------------
# grid occupancy
# ---------------------------------------------------------------------------

def test_grid_summary_counts_cells_and_discards_points_off_the_grid():
    points = np.array([
        -7.0 + 0.0j,     # leftmost column, kept
        -0.5 + 0.5j,     # interior
        -0.5 + 0.5j,     # same cell again
        7.0 + 0.0j,      # right edge, half-open, discarded
        0.0 - 7.5j,      # below the grid, discarded
    ])
    weights = np.array([0.1, 0.3, 0.5, 0.9, 0.9])
    summary = grid_summary(points, weights)
    assert summary.cells_visited == 2
    assert summary.relative_area == 2.0 / 78400.0
    # cell means are 0.1 and (0.3 + 0.5) / 2
    assert summary.weighted_relative_area == pytest.approx(0.5 / 78400.0, rel=1e-12)
    assert summary.discarded_points == 2


def test_a_cloud_entirely_off_the_grid_visits_nothing():
    summary = grid_summary(np.array([7.0 + 0.0j, -8.0 + 0.5j, 0.5 + 7.0j]),
                           np.array([0.2, 0.3, 0.5]))
    assert summary == GridSummary(cells_visited=0, weighted_relative_area=0.0,
                                  discarded_points=3)
    assert summary.relative_area == 0.0
    empty = (np.empty(0, dtype=complex), np.empty(0))
    assert grid_summary(*empty) == GridSummary(0, 0.0, 0)


def test_points_far_off_the_grid_are_discarded_without_a_cast():
    points = np.array([1e300 + 0j, -1e19 + 0j, 0.5 + 0.5j])
    summary = grid_summary(points, [1.0, 1.0, 1.0])
    assert summary.discarded_points == 2
    assert summary.cells_visited == 1
    # An index past the float range is off the grid too.
    edge = grid_summary(np.array([np.finfo(float).max + 0j, 0.5 + 0.5j]), [1.0, 1.0])
    assert (edge.discarded_points, edge.cells_visited) == (1, 1)


def test_cell_boundaries_are_half_open():
    # 0.25 is the lower edge of cell 145 on both axes (-7 + 145 * 0.05), so a
    # point on it and a point just below it land in adjacent cells.
    points = np.array([0.25 + 0.25j, 0.25 - 1e-9 + 0.25j])
    assert grid_summary(points, [1.0, 1.0]).cells_visited == 2


def test_weighted_area_never_exceeds_plain_area():
    rng = np.random.default_rng(11)
    for _ in range(5):
        points = 3.0 * (rng.normal(size=60) + 1j * rng.normal(size=60))
        weights = rng.uniform(0.0, 1.0, size=60)
        summary = grid_summary(points, weights)
        assert summary.weighted_relative_area <= summary.relative_area + 1e-15


# ---------------------------------------------------------------------------
# sweep protocol
# ---------------------------------------------------------------------------

def test_default_nu_grid_contents():
    grid = default_nu_grid()
    assert len(grid) == 22
    assert grid == tuple(sorted(grid))
    for pinned in (0.9, 0.96, 0.99, 0.995, 0.996, 1.0):
        assert pinned in grid


def test_trial_counts_by_regime_and_input():
    assert trial_count("cycle_permutation", "ones_pi_signs") == 1
    assert trial_count("cycle_permutation", "ones_e_signs") == 1
    assert trial_count("cycle_permutation", "gaussian") == 30
    assert trial_count("cycle_permutation", "ones_random_signs") == 30
    assert trial_count("random_iid", "ones_pi_signs") == 30
    assert trial_count("random_iid", "uniform") == 60
    assert trial_count("symmetric_wigner", "gaussian") == 60


def test_sweep_rows_are_sorted_and_seeded_deterministically():
    config = SweepConfig(nu_values=(0.97, 0.9), state_dim=12,
                         regimes=("cycle_permutation", "random_iid"),
                         input_kinds=("ones_pi_signs",), trials=2, base_seed=3)
    first = sweep(config)
    second = sweep(config)
    assert first == second
    assert len(first) == 2 * 2 * 2
    key = [(r.nu, r.regime, r.input_kind, r.trial) for r in first]
    assert key == sorted(key)
    for report in first:
        assert report.seed == mix_seed(3, 0, report.trial).base
        assert isinstance(report, RichnessReport)
        assert report.n_motifs >= 1
        assert 0.0 <= report.weighted_relative_area <= report.relative_area


def test_a_sweep_row_is_its_grid_summary_plus_keyword_only_labels():
    labels = ("nu", "regime", "input_kind", "trial", "n_motifs", "seed")
    assert issubclass(RichnessReport, GridSummary)
    assert RichnessReport.relative_area is GridSummary.relative_area
    assert tuple(RichnessReport.__annotations__) == labels
    measures = tuple(f.name for f in dataclasses.fields(GridSummary))
    fields = dataclasses.fields(RichnessReport)
    assert tuple(f.name for f in fields) == measures + labels
    assert all(f.kw_only for f in fields if f.name in labels)
    config = SweepConfig(nu_values=(0.95,), regimes=("cycle_permutation",), state_dim=6)
    (row,) = sweep(config)
    assert isinstance(row, GridSummary)


def test_sweep_defaults_fill_horizon_and_trial_counts():
    config = SweepConfig(nu_values=(0.95,), state_dim=10,
                         regimes=("cycle_permutation",),
                         input_kinds=("ones_pi_signs", "gaussian"))
    reports = sweep(config)
    by_kind = {}
    for r in reports:
        by_kind.setdefault(r.input_kind, []).append(r)
    assert len(by_kind["ones_pi_signs"]) == 1
    assert len(by_kind["gaussian"]) == 30


def test_sweep_takes_no_grid_parameter():
    assert list(inspect.signature(sweep).parameters) == ["config"]
    assert list(inspect.signature(grid_summary).parameters) == ["points", "weights"]
    with pytest.raises(TypeError):
        sweep(SweepConfig(nu_values=(0.9,), state_dim=4), grid=None)


@pytest.mark.parametrize("regime", ["random_iid", "symmetric_wigner", "cycle_permutation"])
@pytest.mark.parametrize("kind", ["gaussian", "periodic_binary", "ones_pi_signs"])
def test_sweep_rows_equal_one_build_per_nu(regime, kind):
    # Every row is the richness of the tensor that build_from_specs gives
    # for the trial's seed at that nu.
    nu_values = (0.9, 0.97, 1.0)
    config = SweepConfig(nu_values=nu_values, regimes=(regime,), input_kinds=(kind,),
                         state_dim=8, horizon=12, period=4, trials=2, base_seed=5)
    expected = []
    for nu in nu_values:
        for trial in range(2):
            seed = trial_seed(5, trial)
            _, _, tensor = build_from_specs(
                ReservoirSpec(regime=regime, size=8, nu=nu),
                InputCouplingSpec(kind=kind, size=8,
                                  period=4 if kind == "periodic_binary" else None),
                12, seed)
            motif_set = extract_motifs(tensor, 1e-2)
            summary = grid_summary(*coefficient_cloud(motif_set))
            expected.append(RichnessReport(
                nu=nu, regime=regime, input_kind=kind, trial=trial,
                n_motifs=len(motif_set), cells_visited=summary.cells_visited,
                weighted_relative_area=summary.weighted_relative_area,
                discarded_points=summary.discarded_points, seed=seed.base))
    assert sweep(config) == expected


def test_sweep_measures_each_random_draw_once(monkeypatch):
    from reskernel import coupling

    calls = []
    measure = coupling.largest_singular_value

    def counted(matrix):
        calls.append(matrix.shape)
        return measure(matrix)

    monkeypatch.setattr(coupling, "largest_singular_value", counted)
    config = SweepConfig(nu_values=(0.9, 0.95, 1.0), regimes=("random_iid",),
                         input_kinds=("ones_pi_signs",), state_dim=6, trials=2)
    assert len(sweep(config)) == 3 * 2
    assert calls == [(6, 6), (6, 6)]


def test_default_sweep_builds_one_tensor_per_trial(monkeypatch):
    from reskernel import temporal_kernel

    horizons = []
    build = temporal_kernel.build_metric_tensor

    def counted(reservoir, coupling, horizon, **scale):
        horizons.append(horizon)
        return build(reservoir, coupling, horizon, **scale)

    # The sweep builds through build_from_specs, which calls this binding.
    monkeypatch.setattr(temporal_kernel, "build_metric_tensor", counted)
    # The default regimes, input kind, nu grid and trial counts, at a small N.
    reports = sweep(SweepConfig(state_dim=6))
    assert len(reports) == 22 * 31
    assert horizons == [12] * 31


_RANDOM_SWEEP = SweepConfig(regimes=("random_iid",), trials=3)


def test_random_rows_keep_their_counts_when_phi_is_cut(monkeypatch):
    cut = sweep(_RANDOM_SWEEP)
    # The oracle keeps every column of Phi.
    monkeypatch.setattr(motifs, "effective_horizon", lambda phi: phi.shape[1])
    full = sweep(_RANDOM_SWEEP)
    assert len(cut) == len(full) == 22 * 3
    for a, b in zip(cut, full):
        assert (a.nu, a.trial, a.n_motifs, a.cells_visited, a.discarded_points) == \
            (b.nu, b.trial, b.n_motifs, b.cells_visited, b.discarded_points)
        assert abs(a.weighted_relative_area - b.weighted_relative_area) <= 1e-15


def test_random_rows_solve_less_than_the_state_dimension(monkeypatch):
    # A random reservoir's columns fall below rounding after about 55 of
    # them, so no sweep row may go back to the N x N Gram or the tau x tau Q.
    sides = []
    solve = motifs.sym_eig

    def recording(matrix):
        sides.append(matrix.shape[0])
        return solve(matrix)

    monkeypatch.setattr(motifs, "sym_eig", recording)
    sweep(_RANDOM_SWEEP)
    assert len(sides) == 22 * 3
    assert max(sides) < _RANDOM_SWEEP.state_dim


_REFERENCE = Path(__file__).resolve().parent.parent / "benchmarks" / "reference"


def test_cycle_rows_of_the_default_sweep_match_the_benchmark_reference():
    # The benchmark's sweep workload fails a run whose cycle rows move more
    # than 1e-9 from this file; the counts must match exactly.
    with open(_REFERENCE / "sweep_cycle_pi_signs.csv", newline="") as handle:
        reference = {float(row["nu"]): row for row in csv.DictReader(handle)}
    reports = sweep(SweepConfig(regimes=("cycle_permutation",)))
    assert len(reports) == 22
    assert {r.nu for r in reports} == set(reference)
    for report in reports:
        ref = reference[report.nu]
        for name in ("n_motifs", "cells_visited", "discarded_points"):
            assert getattr(report, name) == int(ref[name]), (report.nu, name)
        for name in ("relative_area", "weighted_relative_area"):
            assert abs(getattr(report, name) - float(ref[name])) <= 1e-9, (report.nu, name)


@pytest.mark.parametrize("kwargs", [
    dict(nu_values=()),
    dict(nu_values=(0.0,)),
    dict(nu_values=(0.9,), trials=0),
    dict(nu_values=(0.9,), state_dim=0),
    dict(nu_values=(0.9,), regimes=("hyperbolic",)),
    dict(nu_values=(0.9,), input_kinds=("noise",)),
    dict(nu_values=(0.9,), threshold_ratio=0.0),
    dict(nu_values=(0.9,), threshold_ratio=1.5),
    dict(nu_values=(0.9,), horizon=0),
    dict(nu_values=(0.9,), input_kinds=("periodic_binary",)),
    dict(nu_values=(0.9,), input_kinds=("periodic_bipolar",), state_dim=10, period=3),
    dict(nu_values=(0.9,), base_seed=-1),
    dict(nu_values=(0.9,), distribution="cauchy"),
    dict(nu_values=(0.9,), regimes=("cycle_permutation", "cycle_permutation")),
    dict(nu_values=(0.9,), input_kinds=("ones_pi_signs", "gaussian", "ones_pi_signs")),
])
def test_sweep_config_validation(kwargs):
    with pytest.raises(ContractViolation):
        SweepConfig(**kwargs)


def test_a_sweep_config_stores_its_grid_sorted_with_each_value_once():
    config = SweepConfig(nu_values=[0.97, 0.9, 0.97, 1.0, 0.9], state_dim=4)
    assert config.nu_values == (0.9, 0.97, 1.0)
    assert config == SweepConfig(nu_values=(0.9, 0.97, 1.0), state_dim=4)


@pytest.mark.parametrize("axis", ["nu_values", "regimes", "input_kinds"])
@pytest.mark.parametrize("bad", [None, 0.9, (), "random_iid"], ids=["None", "scalar", "empty",
                                                                      "str"])
def test_each_sweep_axis_is_a_non_empty_sequence(axis, bad):
    with pytest.raises(ContractViolation, match=f"^{axis} must be a non-empty sequence$"):
        SweepConfig(**{axis: bad})


def test_area_is_insensitive_to_the_aperiodic_input_choice():
    # Sign patterns from pi, from e, and from coin flips give areas within a
    # 25% relative spread on the cycle reservoir.
    config = SweepConfig(
        nu_values=(0.96, 0.99),
        regimes=("cycle_permutation",),
        input_kinds=("ones_pi_signs", "ones_e_signs", "ones_random_signs"),
        state_dim=100,
    )
    reports = sweep(config)
    for nu in (0.96, 0.99):
        means = []
        for kind in config.input_kinds:
            rows = [r.relative_area for r in reports
                    if r.nu == nu and r.input_kind == kind]
            means.append(float(np.mean(rows)))
        spread = (max(means) - min(means)) / float(np.mean(means))
        assert spread <= 0.25, (nu, means)
