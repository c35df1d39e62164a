"""Command-line interface: outputs, config handling, and exit codes."""

import argparse
import io
import json
import os
import stat
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reskernel import (
    ContractViolation,
    PsdViolationError,
    TimeSeries,
    build_from_specs,
    extract_motifs,
    kernel_eval,
)
from reskernel import _io
from reskernel import cli
from reskernel import coupling as cp

_REPO = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines]


# ---------------------------------------------------------------------------
# motifs
# ---------------------------------------------------------------------------

def test_motifs_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(capsys, "motifs", "--regime", "cycle",
                              "--input", "pi-signs", "--N", "12", "--tau", "24",
                              "--out", str(out))
    assert code == 0
    assert "retained" in stdout
    rows = read_rows(out / "motifs.csv")
    assert rows[0][:2] == ["index", "weight"]
    assert rows[0][2] == "m_1" and rows[0][-1] == "m_24"
    weights = read_rows(out / "weights.csv")
    assert weights[0] == ["index", "weight"]
    assert len(weights) == 25  # full spectrum, one row per horizon step
    assert sorted(p.name for p in out.iterdir()) == ["motifs.csv", "weights.csv"]


def test_motifs_multi_trial_aggregates(tmp_path, capsys):
    out = tmp_path / "agg"
    code, _, _ = run_cli(capsys, "motifs", "--regime", "random", "--N", "8",
                         "--tau", "16", "--trials", "3", "--out", str(out))
    assert code == 0
    rows = read_rows(out / "weights_mean_std.csv")
    assert rows[0] == ["index", "weight_mean", "weight_std"]
    assert len(rows) == 17
    means = np.array([float(r[1]) for r in rows[1:]])
    stds = np.array([float(r[2]) for r in rows[1:]])
    assert np.all(means >= 0.0) and np.all(stds >= 0.0)


def test_motifs_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code, _, _ = run_cli(capsys, "motifs", "--regime", "random", "--N", "10",
                             "--tau", "20", "--seed", "5", "--out", str(out))
        assert code == 0
    for name in ("motifs.csv", "weights.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_csv_files_use_lf_and_full_precision(tmp_path, capsys):
    out = tmp_path / "fmt"
    code, _, _ = run_cli(capsys, "motifs", "--regime", "random", "--N", "7",
                         "--tau", "14", "--out", str(out))
    assert code == 0
    raw = (out / "weights.csv").read_bytes()
    assert b"\r" not in raw
    top = read_rows(out / "weights.csv")[1][1]
    # %.17g strings round-trip to the exact stored double
    assert _io.fmt_float(float(top)) == top


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("# comment line\nregime = cycle\ninput = pi-signs\n"
                    "N = 12\ntau = 12\nout = {}\n".format(tmp_path / "c1"))
    code, stdout, _ = run_cli(capsys, "motifs", "--config", str(conf))
    assert code == 0
    assert "of 12 motifs" in stdout
    code, stdout, _ = run_cli(capsys, "motifs", "--config", str(conf),
                              "--tau", "14", "--out", str(tmp_path / "c2"))
    assert code == 0
    assert "of 14 motifs" in stdout


def test_config_file_parses_booleans(tmp_path, capsys):
    conf = tmp_path / "norm.conf"
    conf.write_text("normalize = false\nregime = cycle\ninput = periodic-binary\n"
                    "period = 3\nN = 6\ntau = 6\n")
    out = tmp_path / "n1"
    code, _, _ = run_cli(capsys, "motifs", "--config", str(conf),
                         "--out", str(out))
    assert code == 0


@pytest.mark.parametrize("content", [
    "mystery = 3\n",
    "N = not_a_number\n",
    "N = 4\nN = 5\n",
    "just a line without equals\n",
])
def test_bad_config_files_exit_with_usage_error(tmp_path, capsys, content):
    conf = tmp_path / "bad.conf"
    conf.write_text(content)
    code, _, stderr = run_cli(capsys, "motifs", "--config", str(conf),
                              "--out", str(tmp_path / "x"))
    assert code == 1
    assert "error" in stderr.lower()


def test_parse_config_file_details(tmp_path):
    conf = tmp_path / "kv.conf"
    conf.write_text("a = 1  # trailing comment\n\n  b=2\n")
    assert _io.parse_config_file(conf) == {"a": "1", "b": "2"}
    with pytest.raises(ContractViolation):
        _io.parse_config_file(tmp_path / "missing.conf")


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_random_regime_writes_comparison(tmp_path, capsys):
    out = tmp_path / "pred"
    code, stdout, _ = run_cli(capsys, "predict", "--regime", "random",
                              "--N", "40", "--nu", "0.9", "--tau", "80",
                              "--out", str(out))
    assert code == 0
    assert "min alignment" in stdout
    rows = read_rows(out / "comparison.csv")
    assert rows[0] == ["index", "cluster", "predicted_weight",
                       "empirical_weight", "weight_rel_error", "alignment"]
    assert len(rows) > 1
    assert (out / "predicted_motifs.csv").exists()
    assert (out / "predicted_weights.csv").exists()


def test_predict_periodic_cycle_matches_closed_form(tmp_path, capsys):
    out = tmp_path / "per"
    code, _, _ = run_cli(capsys, "predict", "--regime", "cycle",
                         "--input", "periodic-binary", "--period", "2",
                         "--N", "8", "--nu", "0.9", "--ell", "2",
                         "--out", str(out))
    assert code == 0
    rows = read_rows(out / "predicted_weights.csv")
    weights = [float(r[1]) for r in rows[1:]]
    factor = (1.0 - 0.9 ** 32) / (1.0 - 0.9 ** 4)
    expected = [np.sqrt(factor), 0.9 * np.sqrt(factor)]
    assert weights == pytest.approx(expected, rel=1e-12)
    comparison = read_rows(out / "comparison.csv")
    alignments = [float(r[-1]) for r in comparison[1:]]
    assert min(alignments) >= 1.0 - 1e-8


def test_predict_symmetric_regime_reports_reconstruction(tmp_path, capsys):
    out = tmp_path / "sym"
    code, stdout, _ = run_cli(capsys, "predict", "--regime", "symmetric",
                              "--N", "10", "--nu", "0.9", "--tau", "20",
                              "--out", str(out))
    assert code == 0
    assert "reconstruction" in stdout
    rows = read_rows(out / "reconstruction.csv")
    assert rows[0] == ["max_abs_residual", "tensor_max_abs", "relative_residual"]
    assert float(rows[1][2]) < 1e-9
    assert not (out / "comparison.csv").exists()


def test_symmetric_predicted_weights_share_the_motif_scale(tmp_path, capsys):
    model = ["--regime", "symmetric", "--N", "6", "--nu", "0.8", "--tau", "12"]
    assert run_cli(capsys, "predict", *model, "--out", str(tmp_path / "p"))[0] == 0
    assert run_cli(capsys, "motifs", *model, "--out", str(tmp_path / "m"))[0] == 0
    predicted = np.array([float(r[1]) for r in
                          read_rows(tmp_path / "p" / "predicted_weights.csv")[1:]])
    extracted = np.array([float(r[1]) for r in read_rows(tmp_path / "m" / "weights.csv")[1:]])
    # Both sums of squares are the trace of the tensor.
    assert np.sum(predicted ** 2) == pytest.approx(np.sum(extracted ** 2), rel=1e-12)


def test_predict_cycle_requires_whole_copies(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "predict", "--regime", "cycle",
                              "--N", "4", "--tau", "10",
                              "--out", str(tmp_path / "x"))
    assert code == 1
    assert "multiple of N" in stderr


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_csv_layout_and_aggregate_rows(tmp_path, capsys):
    out = tmp_path / "sweep"
    code, stdout, _ = run_cli(capsys, "sweep", "--nu-grid", "0.9:0.05:1.0",
                              "--regime", "cycle", "--input", "pi-signs",
                              "--N", "16", "--out", str(out))
    assert code == 0
    rows = read_rows(out / "sweep.csv")
    assert rows[0] == ["nu", "regime", "input_kind", "trial", "n_motifs",
                       "cells_visited", "relative_area",
                       "weighted_relative_area", "discarded_points"]
    trials = [r for r in rows[1:] if r[3] not in ("mean", "std")]
    means = [r for r in rows[1:] if r[3] == "mean"]
    stds = [r for r in rows[1:] if r[3] == "std"]
    assert len(trials) == 3 and len(means) == 3 and len(stds) == 3
    assert [r[0] for r in trials] == ["0.90000000000000002", "0.94999999999999996", "1"]
    for trial_row, mean_row in zip(trials, means):
        assert trial_row[6] == mean_row[6]  # single trial: mean equals the row
    for std_row in stds:
        assert float(std_row[6]) == 0.0


def test_sweep_defaults_cover_cycle_and_random(tmp_path, capsys):
    out = tmp_path / "defaults"
    code, _, _ = run_cli(capsys, "sweep", "--nu-grid", "0.96:0.01:0.96",
                         "--N", "10", "--tau", "20", "--out", str(out))
    assert code == 0
    rows = read_rows(out / "sweep.csv")[1:]
    regimes = {r[1] for r in rows}
    assert regimes == {"cycle_permutation", "random_iid"}
    cycle_trials = [r for r in rows
                    if r[1] == "cycle_permutation" and r[3] not in ("mean", "std")]
    random_trials = [r for r in rows
                     if r[1] == "random_iid" and r[3] not in ("mean", "std")]
    assert len(cycle_trials) == 1
    assert len(random_trials) == 30


def test_sweep_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code, _, _ = run_cli(capsys, "sweep", "--nu-grid", "0.95:0.01:0.97",
                             "--regime", "cycle", "--input", "e-signs",
                             "--N", "12", "--out", str(out))
        assert code == 0
        outs.append((out / "sweep.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_horizon_follows_ell_as_motifs_does(tmp_path, capsys):
    outputs = []
    for horizon in (["--ell", "3"], ["--tau", "30"]):
        out = tmp_path / horizon[0].lstrip("-")
        code, _, stderr = run_cli(capsys, "sweep", "--regimes", "cycle", "--inputs",
                                  "pi-signs", "--N", "10", *horizon,
                                  "--nu-grid", "0.9:0.1:0.9", "--out", str(out))
        assert code == 0, stderr
        outputs.append((out / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("grid", ["0.9:0:1.0", "a:b:c", "0.9:0.05", "1.0:0.1:0.5", "",
                                  "nan:0.1:1.0", "0.9:inf:1.0", "0.9:0.1:inf",
                                  "0.9:1e-12:1.0", "1e300:1:1e300"])
def test_sweep_rejects_malformed_nu_grids(tmp_path, capsys, grid):
    code, _, stderr = run_cli(capsys, "sweep", "--nu-grid", grid,
                              "--N", "6", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "nu-grid" in stderr


def test_sweep_rejects_unknown_regime_alias(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "sweep", "--nu-grid", "0.9:0.1:0.9",
                              "--regimes", "cycle,weird",
                              "--N", "6", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "unknown regime" in stderr


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_prints_one_line_per_property(tmp_path, capsys, monkeypatch):
    # The benchmark's verify check parses these lines with its own pattern.
    monkeypatch.syspath_prepend(str(_REPO / "benchmarks"))
    from workloads import _VERIFY_LINE

    code, stdout, _ = run_cli(capsys, "verify", "--configs", "4",
                              "--spectrum-configs", "3",
                              "--containment-trials", "2",
                              "--out", str(tmp_path / "v"))
    assert code == 0
    lines = [l for l in stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 4
    assert all(l.startswith("PASS") for l in lines)
    parsed = [m.groups() for m in map(_VERIFY_LINE.match, stdout.splitlines()) if m]
    assert [status for status, _, _ in parsed] == ["PASS"] * 4
    assert [int(n) for _, _, n in parsed] == [4 * 2, 3, 3, 2]


def test_verify_negative_control_fails_and_dumps_replay(tmp_path, capsys):
    out = tmp_path / "neg"
    code, stdout, _ = run_cli(capsys, "verify", "--configs", "3",
                              "--spectrum-configs", "3",
                              "--containment-trials", "2",
                              "--inject-asymmetry", "--out", str(out))
    assert code == 2
    assert "FAIL" in stdout
    dumps = list(out.glob("verify_failure_*.json"))
    assert dumps
    replay = json.loads(dumps[0].read_text())
    assert "property" in replay and "seed" in replay


@pytest.fixture(params=[0o022, 0o027])
def umask(request):
    old = os.umask(request.param)
    yield request.param
    os.umask(old)


def test_output_files_get_the_mode_the_umask_allows(umask, tmp_path, capsys):
    expected = 0o666 & ~umask
    out = tmp_path / "modes"
    assert run_cli(capsys, "motifs", "--N", "4", "--tau", "8", "--out", str(out))[0] == 0
    assert stat.S_IMODE((out / "motifs.csv").stat().st_mode) == expected
    code, _, _ = run_cli(capsys, "verify", "--configs", "1", "--spectrum-configs", "1",
                         "--containment-trials", "1", "--inject-asymmetry",
                         "--out", str(out))
    assert code == 2
    dumps = list(out.glob("verify_failure_*.json"))
    assert dumps
    assert all(stat.S_IMODE(d.stat().st_mode) == expected for d in dumps)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def _write_series(path, values):
    path.write_text("".join(f"{v}\n" for v in values))


def test_kernel_command_matches_library_evaluation(tmp_path, capsys):
    u_file = tmp_path / "u.txt"
    v_file = tmp_path / "v.txt"
    _write_series(u_file, [1.0, -0.5, 0.25])
    _write_series(v_file, [0.5, 0.5, -1.0])
    out = tmp_path / "k"
    code, stdout, _ = run_cli(capsys, "kernel", str(u_file), str(v_file),
                              "--regime", "cycle", "--input", "pi-signs",
                              "--N", "3", "--nu", "0.8", "--seed", "9",
                              "--offset", "1.0", "--degree", "2",
                              "--out", str(out))
    assert code == 0
    rows = read_rows(out / "kernel.csv")
    values = {r[0]: float(r[1]) for r in rows[1:]}
    _, _, tensor = build_from_specs(
        cp.ReservoirSpec(regime="cycle_permutation", size=3, nu=0.8),
        cp.InputCouplingSpec(kind="ones_pi_signs", size=3), 3, cp.mix_seed(9, 0, 0))
    expected = kernel_eval(tensor, TimeSeries(np.array([1.0, -0.5, 0.25])),
                           TimeSeries(np.array([0.5, 0.5, -1.0])))
    assert values["kernel"] == expected
    assert values["kernel_poly"] == (expected + 1.0) ** 2
    assert "kernel =" in stdout


def test_kernel_readout_combines_supports(tmp_path, capsys):
    u_file = tmp_path / "u.txt"
    v_file = tmp_path / "v.txt"
    s_file = tmp_path / "s.txt"
    _write_series(u_file, [1.0, 0.0])
    _write_series(v_file, [0.0, 1.0])
    _write_series(s_file, [2.0, -1.0])
    out = tmp_path / "kr"
    code, _, _ = run_cli(capsys, "kernel", str(u_file), str(v_file),
                         "--regime", "cycle", "--input", "pi-signs",
                         "--N", "2", "--nu", "0.8",
                         "--support", str(s_file), "--coeff", "2.0",
                         "--bias", "0.5", "--out", str(out))
    assert code == 0
    rows = read_rows(out / "kernel.csv")
    values = {r[0]: float(r[1]) for r in rows[1:]}
    assert "readout" in values


def test_kernel_rejects_mismatched_horizons(tmp_path, capsys):
    u_file = tmp_path / "u.txt"
    v_file = tmp_path / "v.txt"
    _write_series(u_file, [1.0, 2.0])
    _write_series(v_file, [1.0])
    code, _, stderr = run_cli(capsys, "kernel", str(u_file), str(v_file),
                              "--N", "2", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "horizons differ" in stderr


def test_kernel_rejects_half_given_polynomial(tmp_path, capsys):
    u_file = tmp_path / "u.txt"
    _write_series(u_file, [1.0, 2.0])
    code, _, stderr = run_cli(capsys, "kernel", str(u_file), str(u_file),
                              "--N", "2", "--offset", "1.0",
                              "--out", str(tmp_path / "x"))
    assert code == 1
    assert "together" in stderr


def test_kernel_rejects_support_without_coefficient(tmp_path, capsys):
    u_file = tmp_path / "u.txt"
    _write_series(u_file, [1.0, 2.0])
    code, _, stderr = run_cli(capsys, "kernel", str(u_file), str(u_file),
                              "--N", "2", "--support", str(u_file),
                              "--out", str(tmp_path / "x"))
    assert code == 1
    assert "--coeff" in stderr


def test_kernel_reports_malformed_series_with_line_number(tmp_path, capsys):
    u_file = tmp_path / "u.txt"
    u_file.write_text("1.0\nnot_a_number\n")
    code, _, stderr = run_cli(capsys, "kernel", str(u_file), str(u_file),
                              "--N", "2", "--out", str(tmp_path / "x"))
    assert code == 1
    assert ":2:" in stderr


_NOT_UTF8 = b"\xff\xfe\x00bad\n"


@pytest.mark.parametrize("command", ["motifs", "kernel"])
def test_a_file_that_is_not_utf8_is_a_usage_failure(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(_NOT_UTF8)
    good = tmp_path / "u.txt"
    _write_series(good, [1.0, 2.0])
    argv = (["motifs", "--N", "4", "--config", str(bad)] if command == "motifs"
            else ["kernel", str(bad), str(good), "--N", "2"])
    out = tmp_path / "out"
    code, _, stderr = run_cli(capsys, *argv, "--out", str(out))
    assert code == 1
    assert stderr.startswith("error: cannot read ")
    assert not out.exists()


@pytest.mark.parametrize("samples, extra", [
    ([1.0, 2.0], ["--offset", "1e10", "--degree", "100"]),  # the power overflows
    ([1e200, 1e200], []),  # the quadratic form overflows
])
def test_a_kernel_value_that_is_not_finite_is_a_usage_failure(tmp_path, capsys, samples,
                                                              extra):
    u_file = tmp_path / "u.txt"
    _write_series(u_file, samples)
    out = tmp_path / "out"
    code, _, stderr = run_cli(capsys, "kernel", str(u_file), str(u_file), "--N", "2",
                              *extra, "--out", str(out))
    assert code == 1
    assert stderr.startswith("error: ") and "not finite" in stderr
    assert not (out / "kernel.csv").exists()


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=120), st.sampled_from(["motifs", "kernel"]))
def test_arbitrary_input_file_bytes_never_raise(tmp_path_factory, data, command):
    """Whatever bytes an input file holds, the CLI exits 0 or 1 without a traceback."""
    work = tmp_path_factory.mktemp("bytes")
    raw = work / "input"
    raw.write_bytes(data)
    v_file = work / "v.txt"
    _write_series(v_file, [0.5])
    argv = (["motifs", "--N", "4", "--tau", "8", "--trials", "1", "--config", str(raw)]
            if command == "motifs" else ["kernel", str(raw), str(v_file), "--N", "4"])
    with warnings.catch_warnings(), redirect_stdout(io.StringIO()), \
            redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        code = cli.main(argv + ["--out", str(work / "out")])
    assert code in (0, 1)


def test_kernel_missing_file_is_a_usage_failure(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "kernel", str(tmp_path / "absent.txt"),
                              str(tmp_path / "absent.txt"),
                              "--out", str(tmp_path / "x"))
    assert code == 1
    assert "cannot read" in stderr


# ---------------------------------------------------------------------------
# shared behaviour
# ---------------------------------------------------------------------------

def test_unknown_flags_and_missing_command_fail_cleanly(tmp_path, capsys):
    assert run_cli(capsys, "motifs", "--frobnicate")[0] == 1
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "motifs", "--N", "not_an_int")[0] == 1


def test_numerical_failures_map_to_exit_three(tmp_path, capsys, monkeypatch):
    def explode(tensor, threshold_ratio):
        raise PsdViolationError("metric tensor spectrum", -1.0, -1e-9)

    monkeypatch.setattr(cli, "extract_motifs", explode)
    code, _, stderr = run_cli(capsys, "motifs", "--N", "4", "--tau", "8",
                              "--out", str(tmp_path / "x"))
    assert code == 3
    assert "numerical failure" in stderr


def test_abbreviated_flags_are_not_expanded(tmp_path, capsys):
    out = tmp_path / "x"
    code, _, stderr = run_cli(capsys, "sweep", "--nu", "0.9:0.1:1.0", "--N", "4",
                              "--out", str(out))
    assert code == 1
    assert "unrecognized arguments" in stderr
    assert not out.exists()


# Errors that a command meets before its first file and before it draws a
# reservoir, so ``--out`` must not appear; ``{u}`` names a two-sample series
# file and ``{short}`` a one-sample one.
_EARLY_USAGE_ERRORS = {
    "sweep nu grid": ["sweep", "--nu-grid", "a:b:c"],
    "sweep regimes": ["sweep", "--regimes", "cycle,weird"],
    "sweep inputs": ["sweep", "--inputs", "weird"],
    "sweep repeated regime": ["sweep", "--regimes", "cycle,cycle_permutation"],
    "sweep repeated input kind": ["sweep", "--inputs", "pi-signs,pi-signs", "--N", "4",
                                  "--nu-grid", "0.9:0.1:1.0"],
    "sweep trials": ["sweep", "--trials", "0", "--nu-grid", "0.9:0.1:0.9"],
    "sweep threshold": ["sweep", "--threshold", "0"],
    "sweep period not dividing N": ["sweep", "--regimes", "cycle", "--inputs",
                                    "periodic-binary", "--period", "3", "--N", "10",
                                    "--nu-grid", "0.9:0.1:0.9"],
    "sweep periodic kind without a period": ["sweep", "--regimes", "random", "--inputs",
                                             "pi-signs,periodic-binary"],
    "motifs trials": ["motifs", "--trials", "0"],
    "motifs N": ["motifs", "--N", "0"],
    "motifs tau": ["motifs", "--N", "4", "--tau", "0"],
    "motifs threshold": ["motifs", "--N", "4", "--threshold", "2"],
    "motifs threshold at N 600": ["motifs", "--N", "600", "--threshold", "2"],
    "motifs tau at the default N": ["motifs", "--tau", "0"],
    "motifs period not dividing N": ["motifs", "--input", "periodic-binary", "--period", "3",
                                     "--N", "10"],
    "predict cycle horizon": ["predict", "--regime", "cycle", "--N", "4", "--tau", "6"],
    "predict cycle N": ["predict", "--regime", "cycle", "--N", "0"],
    "predict nu": ["predict", "--N", "4", "--nu", "1.5"],
    "predict ell": ["predict", "--ell", "0"],
    "kernel horizons": ["kernel", "{u}", "{short}", "--N", "2"],
    "kernel offset without degree": ["kernel", "{u}", "{u}", "--N", "2", "--offset", "1"],
    "kernel support without coeff": ["kernel", "{u}", "{u}", "--N", "2", "--support", "{u}"],
    "kernel coeff without support": ["kernel", "{u}", "{u}", "--N", "2", "--coeff", "2.0"],
    "verify configs": ["verify", "--configs", "0"],
    "verify spectrum configs": ["verify", "--spectrum-configs", "0"],
    "verify containment trials": ["verify", "--containment-trials", "0"],
    "verify negative seed": ["verify", "--seed", "-1"],
    "verify seed past 64 bits": ["verify", "--seed", "18446744073709551616"],
}


@pytest.mark.parametrize("case", sorted(_EARLY_USAGE_ERRORS))
def test_usage_errors_leave_no_output_directory(tmp_path, capsys, monkeypatch, case):
    def no_draw(*args):
        raise AssertionError("a reservoir was drawn before the usage error")

    monkeypatch.setattr(cp, "draw_reservoir", no_draw)
    _write_series(tmp_path / "u.txt", [1.0, 2.0])
    _write_series(tmp_path / "short.txt", [1.0])
    argv = [arg.format(u=tmp_path / "u.txt", short=tmp_path / "short.txt")
            for arg in _EARLY_USAGE_ERRORS[case]]
    out = tmp_path / "out"
    code, _, stderr = run_cli(capsys, *argv, "--out", str(out))
    assert code == 1, stderr
    assert stderr.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["motifs", "verify"])
def test_unwritable_output_directory_is_a_usage_failure(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["--N", "4"] if command == "motifs" else []
    code, _, stderr = run_cli(capsys, command, *argv, "--out", str(blocker / "sub"))
    assert code == 1
    assert stderr.startswith("error: cannot write ")


@pytest.mark.parametrize("command", ["motifs", "verify"])
def test_an_output_path_with_a_nul_byte_is_a_usage_failure(tmp_path, capsys, command):
    config = tmp_path / "nul.conf"
    config.write_bytes(b"out = " + str(tmp_path).encode() + b"/a\x00b\nN = 4\n")
    code, _, stderr = run_cli(capsys, command, "--config", str(config))
    assert code == 1
    assert stderr.startswith("error: cannot write ") and "null byte" in stderr


def _generic_motifs_csv(vectors, weights, path):
    """The motif file through write_csv's per-cell formatting."""
    horizon = vectors.shape[1] if vectors.shape[0] else 0
    header = ["index", "weight"] + [f"m_{j}" for j in range(1, horizon + 1)]
    _io.write_csv(path, header, ([i + 1, float(weights[i])] + [float(c) for c in vectors[i]]
                                 for i in range(vectors.shape[0])))


@pytest.mark.parametrize("vectors, weights", [
    (np.array([[-0.0, 5e-324, 1e300, -1e300], [1.0, -2.0, 3.0, 2.0**53],
               [0.1, -1e-300, 1e17, 123456789012345678.0]]), np.array([4.0, 1e-17, 0.5])),
    (np.zeros((0, 5)), np.zeros(0)),
])
def test_motif_writer_bytes_equal_the_generic_csv_path(tmp_path, vectors, weights):
    _io.write_motifs_csv(vectors, weights, tmp_path / "fast.csv")
    _generic_motifs_csv(vectors, weights, tmp_path / "generic.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "generic.csv").read_bytes()


@pytest.mark.parametrize("rows", [
    [],
    [["1", "0.10000000000000001"]],
    [[str(i), f"{i / 7:.17g}", "cycle"] for i in range(1000)],
])
def test_csv_writer_bytes_are_the_joined_lines(tmp_path, rows):
    path = tmp_path / "t.csv"
    _io.write_csv(path, ["index", "value"], iter(rows))
    lines = ["index,value"] + [",".join(row) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_csv_writer_formats_ints_and_floats_exactly(tmp_path):
    _io.write_csv(tmp_path / "t.csv", ["index", "value"], [[1, 0.1], [np.int64(2), -0.0]])
    assert (tmp_path / "t.csv").read_bytes() == b"index,value\n1,0.10000000000000001\n2,-0\n"


def test_an_empty_motif_file_is_its_header(tmp_path):
    _io.write_motifs_csv(np.zeros((0, 5)), np.zeros(0), tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_bytes() == b"index,weight\n"


def _two_rows_then_a_failure():
    yield [1, 0.5]
    yield [2, 0.25]
    raise RuntimeError("row source failed")


def test_a_failure_mid_stream_leaves_nothing_behind(tmp_path):
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"old\n")
    for target in (tmp_path / "fresh.csv", kept, tmp_path / "new" / "fresh.csv"):
        with pytest.raises(RuntimeError, match="row source failed"):
            _io.write_csv(target, ["index", "weight"], _two_rows_then_a_failure())
    assert kept.read_bytes() == b"old\n"
    # The parent is made before the first row is written, so a new one may
    # stay behind, but empty.
    assert [p.name for p in tmp_path.rglob("*") if not p.is_dir()] == ["kept.csv"]


def test_a_motif_file_is_streamed_not_joined(tmp_path):
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(200, 2000))
    weights = np.sort(rng.random(200))[::-1]
    path = tmp_path / "motifs.csv"
    tracemalloc.start()
    try:
        _io.write_motifs_csv(vectors, weights, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 8


def test_time_series_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(77)
    series = TimeSeries(rng.normal(size=9))
    path = tmp_path / "ts.txt"
    path.write_text("".join(_io.fmt_float(v) + "\n" for v in series.values))
    back = _io.read_time_series(path)
    assert np.array_equal(back.values, series.values)


def test_out_directory_contains_no_temp_leftovers(tmp_path, capsys):
    out = tmp_path / "clean"
    code, _, _ = run_cli(capsys, "motifs", "--regime", "cycle", "--input",
                         "pi-signs", "--N", "8", "--tau", "16",
                         "--out", str(out))
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["motifs.csv", "weights.csv"]


# ---------------------------------------------------------------------------
# option table: flags, config keys and edge cases
# ---------------------------------------------------------------------------

_REGIME_ALIASES = ("cycle", "random", "symmetric")
_INPUT_ALIASES = ("e-signs", "gaussian", "ones-random-signs", "periodic-binary",
                  "periodic-bipolar", "pi-signs", "uniform")

# Option string -> (value type, default, choices); a type of None marks a
# switch that takes no value.
_MODEL_FLAGS = {
    "--regime": ("str", None, _REGIME_ALIASES),
    "--input": ("str", None, _INPUT_ALIASES),
    "--dist": ("str", None, ("gaussian", "rademacher", "uniform")),
    "--N": ("int", None, None),
    "--nu": ("float", None, None),
    "--tau": ("int", None, None),
    "--ell": ("int", None, None),
    "--period": ("int", None, None),
    "--seed": ("int", None, None),
    "--threshold": ("float", None, None),
    "--trials": ("int", None, None),
    "--out": ("str", None, None),
    "--config": ("str", None, None),
    "--no-unit-norm": (None, False, None),
}


def _model_flags_except(*dropped):
    return {flag: spec for flag, spec in _MODEL_FLAGS.items() if flag not in dropped}


_PARSER_SNAPSHOT = {
    "motifs": dict(_MODEL_FLAGS),
    "predict": _model_flags_except("--trials"),
    "sweep": {
        **_model_flags_except("--nu"),
        "--nu-grid": ("str", None, None),
        "--regimes": ("str", None, None),
        "--inputs": ("str", None, None),
    },
    "verify": {
        **{flag: _MODEL_FLAGS[flag] for flag in ("--seed", "--out", "--config")},
        "--configs": ("int", 100, None),
        "--spectrum-configs": ("int", 60, None),
        "--containment-trials": ("int", 50, None),
        "--inject-asymmetry": (None, False, None),
    },
    "kernel": {
        **_model_flags_except("--tau", "--ell", "--threshold", "--trials"),
        "u_file": ("str", None, None),
        "v_file": ("str", None, None),
        "--offset": ("float", None, None),
        "--degree": ("int", None, None),
        "--support": ("str", None, None),
        "--coeff": ("float", None, None),
        "--bias": ("float", 0.0, None),
    },
}


def _subparser_options(name):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {}
    for action in sub.choices[name]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        assert len(action.option_strings) <= 1
        key = action.option_strings[0] if action.option_strings else action.dest
        value_type = None if action.nargs == 0 else (action.type or str).__name__
        choices = tuple(action.choices) if action.choices else None
        options[key] = (value_type, action.default, choices)
    return options


@pytest.mark.parametrize("command", sorted(_PARSER_SNAPSHOT))
def test_parser_options_match_the_snapshot(command):
    assert _subparser_options(command) == _PARSER_SNAPSHOT[command]


# A model flag that a command never reads is not on its parser.
_DROPPED_FLAGS = [(command, flag) for command, options in sorted(_PARSER_SNAPSHOT.items())
                  for flag in _MODEL_FLAGS if flag not in options]
_FLAG_VALUES = {"--regime": "cycle", "--input": "pi-signs", "--dist": "uniform",
                "--N": "4", "--nu": "0.9", "--tau": "8", "--ell": "2", "--period": "2",
                "--threshold": "0.1", "--trials": "2", "--no-unit-norm": None}


def test_commands_take_51_model_flags_and_drop_17():
    assert sum(len(spec.commands) for spec in cli._KEYS.values()) == 51
    assert len(_DROPPED_FLAGS) == 17


@pytest.mark.parametrize("command, flag", _DROPPED_FLAGS)
def test_flags_a_command_never_reads_are_usage_errors(tmp_path, capsys, command, flag):
    files = [str(tmp_path / "u.txt"), str(tmp_path / "v.txt")] if command == "kernel" else []
    value = _FLAG_VALUES[flag]
    argv = [command, *files, flag, *([value] if value is not None else []),
            "--out", str(tmp_path / "x")]
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 1
    assert stderr.startswith("error: ")


def _readme_config_keys():
    readme = (_REPO / "README.md").read_text()
    section = readme.split("### Config files", 1)[1].split("###", 1)[0]
    listing = section.split("Keys are the long flag names (", 1)[1].split(")", 1)[0]
    return [key.strip("` \n") for key in listing.split(",")]


def test_every_readme_config_key_is_accepted(tmp_path, capsys):
    values = {
        "regime": "cycle", "input": "pi-signs", "dist": "uniform", "N": "4",
        "nu": "0.9", "tau": "8", "ell": "2", "period": "2", "seed": "3",
        "threshold": "0.01", "trials": "1", "out": str(tmp_path / "out"),
        "normalize": "false", "nu_grid": "0.9:0.05:1.0", "regimes": "cycle",
        "inputs": "pi-signs",
    }
    keys = _readme_config_keys()
    assert sorted(keys) == sorted(values)
    conf = tmp_path / "all.conf"
    conf.write_text("".join(f"{key} = {values[key]}\n" for key in keys))
    for command in ("motifs", "predict", "sweep"):
        code, _, stderr = run_cli(capsys, command, "--config", str(conf))
        assert code == 0, stderr
    rows = read_rows(tmp_path / "out" / "sweep.csv")
    assert len(rows) == 1 + 3 * 3  # three nu values: one trial, a mean and a std row


# Each shipped config with the command it is run through; the README shows
# the first line that three of these runs print.
_CONFIG_RUNS = [
    ("cycle_pi_motifs", "motifs", [], None),
    ("markovian_motifs", "motifs", [], "retained 7 of 200 motifs (threshold 0.01)"),
    ("markovian_sign_variants", "motifs", [], None),
    ("periodic_collapse", "motifs", [], "retained 10 of 200 motifs (threshold 0.01)"),
    ("periodic_collapse", "predict", [],
     "compared 10 motifs: min alignment 0.99999999999999989, max weight rel error 4.53"),
    ("phase_transition_sweep", "sweep", ["--nu-grid", "0.99:0.01:1.0"], None),
    ("symmetric_components", "predict", [], None),
]


def test_every_shipped_config_has_a_smoke_run():
    shipped = sorted(p.stem for p in (_REPO / "configs").glob("*.conf"))
    assert sorted({name for name, *_ in _CONFIG_RUNS}) == shipped


@pytest.mark.parametrize("name, command, extra, first_line", _CONFIG_RUNS)
def test_shipped_configs_run_as_the_readme_shows(tmp_path, capsys, name, command,
                                                 extra, first_line):
    config = _REPO / "configs" / f"{name}.conf"
    code, stdout, stderr = run_cli(capsys, command, "--config", str(config), *extra,
                                   "--out", str(tmp_path / "out"))
    assert code == 0, stderr
    if first_line is not None:
        assert stdout.splitlines()[0].startswith(first_line)
        assert first_line in (_REPO / "README.md").read_text()


@pytest.mark.parametrize("argv, warns", [
    (["motifs", "--N", "1", "--regime", "random"], False),
    (["motifs", "--N", "1", "--regime", "symmetric"], False),
    (["motifs", "--N", "1", "--regime", "cycle"], False),
    (["motifs", "--regime", "cycle", "--input", "pi-signs", "--N", "4", "--nu", "1",
      "--tau", "400"], False),
    (["motifs", "--N", "10", "--tau", "5"], True),
    (["motifs", "--N", "6", "--threshold", "1e-300"], False),
    (["motifs", "--regime", "cycle", "--input", "pi-signs", "--N", "300"], False),
])
def test_edge_cases_run_cleanly(tmp_path, capsys, argv, warns):
    argv = argv + ["--out", str(tmp_path / "edge")]
    if warns:
        with pytest.warns(UserWarning, match="below the state dimension"):
            code, _, stderr = run_cli(capsys, *argv)
    else:
        code, _, stderr = run_cli(capsys, *argv)
    assert code == 0, stderr
    assert (tmp_path / "edge" / "motifs.csv").exists()


def test_kernel_on_an_empty_series_file_is_a_usage_failure(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, stderr = run_cli(capsys, "kernel", str(empty), str(empty),
                              "--out", str(tmp_path / "x"))
    assert code == 1
    assert "holds no samples" in stderr


# ---------------------------------------------------------------------------
# seed rule: trial t of base seed s is drawn from mix_seed(s, 0, t)
# ---------------------------------------------------------------------------

def test_kernel_and_motifs_draw_the_same_random_reservoir(tmp_path, capsys):
    u_file = tmp_path / "u.txt"
    v_file = tmp_path / "v.txt"
    _write_series(u_file, [1.0, -0.5, 0.25])
    _write_series(v_file, [0.5, 0.5, -1.0])
    model = ["--regime", "random", "--input", "gaussian", "--N", "3", "--seed", "5"]
    code, _, _ = run_cli(capsys, "kernel", str(u_file), str(v_file), *model,
                         "--out", str(tmp_path / "k"))
    assert code == 0
    code, _, _ = run_cli(capsys, "motifs", *model, "--tau", "3",
                         "--out", str(tmp_path / "m"))
    assert code == 0
    _, _, tensor = build_from_specs(
        cp.ReservoirSpec(regime="random_iid", size=3, nu=0.995),
        cp.InputCouplingSpec(kind="gaussian", size=3), 3, cp.mix_seed(5, 0, 0))
    expected = kernel_eval(tensor, TimeSeries(np.array([1.0, -0.5, 0.25])),
                           TimeSeries(np.array([0.5, 0.5, -1.0])))
    kernel_rows = read_rows(tmp_path / "k" / "kernel.csv")
    assert kernel_rows[1] == ["kernel", _io.fmt_float(expected)]
    weights = [float(r[1]) for r in read_rows(tmp_path / "m" / "weights.csv")[1:]]
    assert weights == list(np.sqrt(extract_motifs(tensor).spectrum))


def test_sweep_trials_keep_their_draw_when_the_nu_grid_grows(tmp_path, capsys):
    rows = {}
    for grid in ("0.95:0.02:0.97", "0.95:0.01:0.97"):
        out = tmp_path / grid.replace(":", "_")
        code, _, _ = run_cli(capsys, "sweep", "--regimes", "random", "--trials", "3",
                             "--N", "8", "--nu-grid", grid, "--out", str(out))
        assert code == 0
        rows[grid] = [r for r in read_rows(out / "sweep.csv")[1:]
                      if float(r[0]) in (0.95, 0.97)]
    coarse, fine = rows.values()
    assert len(coarse) == 2 * (3 + 2)
    assert coarse == fine
