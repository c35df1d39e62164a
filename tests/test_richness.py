"""Coefficient clouds, grid occupancy, and the damping-factor sweep."""

import csv
import inspect
from pathlib import Path

import numpy as np
import pytest

from reskernel import (
    ContractViolation,
    CoefficientCloud,
    GridSpec,
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
    grid = GridSpec()
    assert grid.half_width == 7.0
    assert grid.cell_side == 0.05
    assert grid.cells_per_axis == 280
    assert grid.total_cells == 78400


@pytest.mark.parametrize("kwargs", [
    dict(half_width=0.0, cell_side=0.05),
    dict(half_width=7.0, cell_side=0.0),
    dict(half_width=7.0, cell_side=-1.0),
    dict(half_width=0.01, cell_side=0.05),
    dict(half_width=float("inf"), cell_side=0.05),
    dict(half_width=1e308, cell_side=1e-10),
    dict(half_width=1e6, cell_side=1e-6),  # 2e12 cells per axis: int64 keys would wrap
    dict(half_width=1e300, cell_side=1e-5),  # finite, but far past int64 keys
])
def test_grid_spec_rejects_degenerate_geometry(kwargs):
    with pytest.raises(ContractViolation):
        GridSpec(**kwargs)


# ---------------------------------------------------------------------------
# coefficient clouds
# ---------------------------------------------------------------------------

def test_single_motif_cloud_carries_unit_weight():
    motifs = _motif_set(np.eye(4)[:1], [2.0])
    cloud = coefficient_cloud(motifs)
    assert len(cloud) == 4
    assert np.array_equal(cloud.weights, np.ones(4))
    assert np.allclose(cloud.points, np.ones(4), atol=1e-12)


def test_equal_weight_motifs_split_the_share():
    motifs = _motif_set(np.eye(4)[:2], [1.5, 1.5])
    cloud = coefficient_cloud(motifs)
    assert len(cloud) == 8
    assert np.array_equal(cloud.weights, np.full(8, 0.5))


def test_constant_motif_concentrates_at_the_dc_coefficient():
    motifs = _motif_set([np.full(4, 0.5)], [1.0])
    cloud = coefficient_cloud(motifs)
    assert cloud.points[0] == pytest.approx(2.0, abs=1e-12)
    assert np.max(np.abs(cloud.points[1:])) < 1e-12


def test_empty_motif_set_gives_empty_cloud():
    empty = extract_motifs(MetricTensor(np.zeros((3, 3)), state_dim=2))
    cloud = coefficient_cloud(empty)
    assert len(cloud) == 0
    assert grid_summary(cloud) == grid_summary(cloud)
    assert grid_summary(cloud).relative_area == 0.0


def test_cloud_holds_the_per_motif_transforms_in_motif_order():
    _, _, tensor = build_from_specs(ReservoirSpec(regime="random_iid", size=10, nu=0.95),
                                    InputCouplingSpec(kind="gaussian", size=10), 20,
                                    trial_seed(1, 0))
    motifs = extract_motifs(tensor, 1e-3)
    cloud = coefficient_cloud(motifs)
    share = motifs.weights / np.sum(motifs.weights)
    expected = np.concatenate([dft(vector) for vector in motifs.vectors])
    assert len(motifs) > 1
    assert cloud.points.tobytes() == expected.tobytes()
    assert np.array_equal(cloud.weights, np.repeat(share, 20))


def test_cloud_container_validation():
    with pytest.raises(ContractViolation):
        CoefficientCloud(points=np.zeros(2, dtype=complex),
                         weights=np.array([0.5, -0.5]))
    with pytest.raises(ContractViolation):
        CoefficientCloud(points=np.zeros(2, dtype=complex),
                         weights=np.array([0.5]))


# ---------------------------------------------------------------------------
# grid occupancy
# ---------------------------------------------------------------------------

def test_grid_summary_counts_cells_and_discards_on_a_hand_grid():
    grid = GridSpec(half_width=1.0, cell_side=0.25)
    assert grid.total_cells == 64
    points = np.array([
        -1.0 + 0.0j,     # leftmost column, kept
        -0.5 + 0.5j,     # interior
        -0.5 + 0.5j,     # same cell again
        1.0 + 0.0j,      # right edge, half-open, discarded
        0.0 - 1.5j,      # below the grid, discarded
    ])
    weights = np.array([0.1, 0.3, 0.5, 0.9, 0.9])
    summary = grid_summary(CoefficientCloud(points=points, weights=weights), grid)
    assert summary.cells_visited == 2
    assert summary.relative_area == pytest.approx(2.0 / 64.0, abs=0.0)
    # cell means are 0.1 and (0.3 + 0.5) / 2
    assert summary.weighted_relative_area == pytest.approx(0.5 / 64.0, rel=1e-12)
    assert summary.discarded_points == 2


def test_a_cloud_entirely_off_the_grid_visits_nothing():
    grid = GridSpec(half_width=1.0, cell_side=0.25)
    outside = CoefficientCloud(points=np.array([1.0 + 0.0j, -2.0 + 0.5j, 0.5 + 1.0j]),
                               weights=np.array([0.2, 0.3, 0.5]))
    summary = grid_summary(outside, grid)
    assert summary == GridSummary(cells_visited=0, relative_area=0.0,
                                  weighted_relative_area=0.0, discarded_points=3)
    empty = CoefficientCloud(points=np.empty(0, dtype=complex), weights=np.empty(0))
    assert grid_summary(empty, grid) == GridSummary(0, 0.0, 0.0, 0)


def test_cell_boundaries_are_half_open():
    grid = GridSpec(half_width=1.0, cell_side=0.25)
    on_boundary = CoefficientCloud(points=np.array([0.25 + 0.25j]),
                                   weights=np.array([1.0]))
    inside = grid_summary(on_boundary, grid)
    assert inside.cells_visited == 1
    shifted = CoefficientCloud(points=np.array([0.25 - 1e-9 + 0.25j]),
                               weights=np.array([1.0]))
    other = grid_summary(shifted, grid)
    assert other.cells_visited == 1
    # the two points land in horizontally adjacent cells
    assert inside.relative_area == other.relative_area


def test_weighted_area_never_exceeds_plain_area():
    rng = np.random.default_rng(11)
    for _ in range(5):
        points = 3.0 * (rng.normal(size=60) + 1j * rng.normal(size=60))
        weights = rng.uniform(0.0, 1.0, size=60)
        cloud = CoefficientCloud(points=points, weights=weights)
        summary = grid_summary(cloud)
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
    with pytest.raises(TypeError):
        sweep(SweepConfig(nu_values=(0.9,), state_dim=4), grid=GridSpec())


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
            summary = grid_summary(coefficient_cloud(motif_set))
            expected.append(RichnessReport(
                nu=nu, regime=regime, input_kind=kind, trial=trial,
                n_motifs=len(motif_set), cells_visited=summary.cells_visited,
                relative_area=summary.relative_area,
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

    def counted(reservoir, coupling, horizon):
        horizons.append(horizon)
        return build(reservoir, coupling, horizon)

    # The sweep builds through build_from_specs, which calls this binding.
    monkeypatch.setattr(temporal_kernel, "build_metric_tensor", counted)
    # The default regimes, input kind, nu grid and trial counts, at a small N.
    reports = sweep(SweepConfig(state_dim=6))
    assert len(reports) == 22 * 31
    assert horizons == [12] * 31


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
