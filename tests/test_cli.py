"""Command-line interface: outputs, config handling, and exit codes."""

import argparse
import io
import json
import os
import stat
import subprocess
import sys
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


@pytest.mark.parametrize("content, message", [
    ("normalize = maybe\n", "config value for 'normalize' is not a valid bool: 'maybe'"),
    ("regime = hyperbolic\n", "config value for 'regime' must be one of cycle, random, "
                              "symmetric: 'hyperbolic'"),
    (" = 3\n", ":1: empty key or value"),
    ("N =\n", ":1: empty key or value"),
])
def test_a_bad_config_value_is_named_in_the_error(tmp_path, capsys, content, message):
    conf = tmp_path / "bad.conf"
    conf.write_text(content)
    code, _, stderr = run_cli(capsys, "motifs", "--config", str(conf),
                              "--out", str(tmp_path / "x"))
    assert code == 1
    assert stderr.startswith("error: ") and stderr.rstrip().endswith(message)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("word, flags", [("true", []), ("Yes", []), ("1", []),
                                         ("false", ["--no-unit-norm"]),
                                         ("NO", ["--no-unit-norm"]),
                                         ("0", ["--no-unit-norm"])])
def test_a_config_bool_word_means_what_its_flag_means(tmp_path, capsys, word, flags):
    conf = tmp_path / "bool.conf"
    conf.write_text(f"normalize = {word}\n")
    argv = ["motifs", "--regime", "random", "--N", "4", "--tau", "8"]
    assert run_cli(capsys, *argv, "--config", str(conf), "--out", str(tmp_path / "a"))[0] == 0
    assert run_cli(capsys, *argv, *flags, "--out", str(tmp_path / "b"))[0] == 0
    for name in ("motifs.csv", "weights.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_parse_config_file_details(tmp_path):
    conf = tmp_path / "kv.conf"
    conf.write_text("a = 1  # trailing comment\n\n  b=2\n")
    assert _io.parse_config_file(conf) == {"a": "1", "b": "2"}
    with pytest.raises(ContractViolation):
        _io.parse_config_file(tmp_path / "missing.conf")


_BOM = b"\xef\xbb\xbf"


def test_config_and_series_files_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # The same files with and without a UTF-8 byte-order mark give the same
    # parse and byte-identical outputs.
    outputs = []
    for mark in (b"", _BOM):
        work = tmp_path / ("bom" if mark else "plain")
        work.mkdir()
        conf, series = work / "run.conf", work / "u.txt"
        conf.write_bytes(mark + b"regime = cycle\ninput = pi-signs\nN = 6\ntau = 6\n")
        series.write_bytes(mark + b"1.0\n-0.5\n")
        assert _io.parse_config_file(conf) == {"regime": "cycle", "input": "pi-signs",
                                               "N": "6", "tau": "6"}
        assert np.array_equal(_io.read_time_series(series).values, [1.0, -0.5])
        for argv in (["motifs", "--config", str(conf)],
                     ["kernel", str(series), str(series), "--N", "2"]):
            code, _, stderr = run_cli(capsys, *argv, "--out", str(work / argv[0]))
            assert (code, stderr) == (0, "")
        outputs.append({p.relative_to(work): p.read_bytes()
                        for p in sorted(work.glob("*/*.csv"))})
    assert outputs[0] and outputs[0] == outputs[1]


def test_a_file_with_a_byte_order_mark_that_is_not_utf8_keeps_the_codec_message(tmp_path):
    for read in (_io.parse_config_file, _io.read_time_series):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(_BOM + b"1.0\n\xff\n")
        with pytest.raises(ContractViolation, match="'utf-8' codec can't decode"):
            read(bad)


def test_a_decode_error_counts_its_position_from_the_first_byte(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(_BOM + b"1.0\n\xff")  # the 0xff byte is at file offset 7
    for read in (_io.parse_config_file, _io.read_time_series):
        with pytest.raises(ContractViolation, match="position 7"):
            read(bad)


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
                         "--N", "8", "--nu", "0.9", "--tau", "16",
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


@pytest.mark.parametrize("regime, extractions", [("symmetric", 0), ("random", 1), ("cycle", 1)])
def test_predict_extracts_motifs_only_to_compare_them(tmp_path, capsys, monkeypatch, regime,
                                                      extractions):
    calls = []
    extract = cli.extract_motifs

    def counted(tensor, threshold_ratio):
        calls.append(threshold_ratio)
        return extract(tensor, threshold_ratio)

    monkeypatch.setattr(cli, "extract_motifs", counted)
    code, _, stderr = run_cli(capsys, "predict", "--regime", regime, "--N", "6", "--tau", "12",
                              "--out", str(tmp_path / "p"))
    assert code == 0, stderr
    assert len(calls) == extractions


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


@pytest.mark.parametrize("regimes", ["", ",", "cycle,"])
def test_an_empty_regime_name_is_an_unknown_regime(tmp_path, capsys, regimes):
    code, _, stderr = run_cli(capsys, "sweep", "--nu-grid", "0.9:0.1:0.9",
                              "--regimes", regimes, "--N", "6", "--out", str(tmp_path / "x"))
    assert (code, stderr) == (1, "error: unknown regime ''\n")


@pytest.mark.parametrize("n", ["0", "-2"])
@pytest.mark.parametrize("command", ["sweep", "motifs", "predict"])
def test_a_bad_reservoir_size_is_named_before_the_horizon_it_sets(tmp_path, capsys,
                                                                   command, n):
    out = tmp_path / "x"
    code, stdout, stderr = run_cli(capsys, command, "--N", n, "--out", str(out))
    assert (code, stdout) == (1, "")
    assert stderr == "error: reservoir size must be a positive integer\n"
    assert not out.exists()


def test_sweep_reports_the_grid_it_swept(tmp_path, capsys):
    # Rounding to 9 places folds the five grid points into one value, swept once.
    code, stdout, _ = run_cli(capsys, "sweep", "--N", "4", "--regimes", "cycle",
                              "--nu-grid", "0.9:1e-10:0.9000000005",
                              "--out", str(tmp_path / "x"))
    assert code == 0
    assert stdout.splitlines()[0] == "swept 1 nu values, 1 regimes, 1 input kinds: 1 trial rows"


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


def test_verify_negative_control_reports_pinned_lines(tmp_path, capsys):
    """The tampered suites at seed 0 keep every figure of their report."""
    out = tmp_path / "neg"
    code, stdout, _ = run_cli(capsys, "verify", "--configs", "3",
                              "--spectrum-configs", "3",
                              "--containment-trials", "2",
                              "--inject-asymmetry", "--seed", "0", "--out", str(out))
    assert code == 2
    assert sorted(p.name for p in out.iterdir()) == [
        "verify_failure_kernel-state_equivalence.json",
        "verify_failure_tensor_symmetry_positive_spectrum_rank_bound.json",
    ]
    assert [line for line in stdout.splitlines() if line[:5] in ("PASS ", "FAIL ")] == [
        "FAIL kernel-state equivalence: 6 checked, worst error/tolerance ratio 2.180e+06",
        "FAIL tensor symmetry, positive spectrum, rank bound: 3 checked, "
        "worst asymmetry 1.000e-03, worst relative negativity 0.000e+00",
        "PASS entrywise decay envelope: 3 checked, worst envelope excess -1.000e-09",
        "PASS initial-state error containment: 2 checked, worst containment margin "
        "3.431e-04 (bounds [-3.431e-04, 3.431e-04])",
    ]


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


@pytest.mark.parametrize("sample", ["nan", "-inf", "1e400"])
def test_kernel_reports_a_non_finite_sample_with_line_number(tmp_path, capsys, sample):
    u_file = tmp_path / "u.txt"
    u_file.write_text(f"1.0\n{sample}\n")
    code, _, stderr = run_cli(capsys, "kernel", str(u_file), str(u_file),
                              "--N", "2", "--out", str(tmp_path / "x"))
    assert code == 1
    assert stderr == f"error: {u_file}:2: not a finite real number: {sample!r}\n"


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


def test_an_overflowing_readout_history_prints_one_error_line(tmp_path, capsys):
    one, big = tmp_path / "one.txt", tmp_path / "big.txt"
    _write_series(one, [1.0, 1.0])
    _write_series(big, [1e200, 1e200])
    out = tmp_path / "out"
    code, _, stderr = run_cli(capsys, "kernel", str(one), str(one), "--N", "2",
                              "--support", str(big), "--coeff", "1e200", "--out", str(out))
    assert code == 1
    assert stderr == "error: readout combined history contains non-finite entries\n"
    assert not out.exists()


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


def test_a_bad_degree_is_rejected_before_the_tensor_is_built(tmp_path, capsys):
    # A horizon of 2 below N = 4 would warn if the tensor were built first.
    u_file = tmp_path / "u.txt"
    _write_series(u_file, [1.0, 2.0])
    out = tmp_path / "out"
    code, _, stderr = run_cli(capsys, "kernel", str(u_file), str(u_file), "--N", "4",
                              "--regime", "random", "--degree", "0", "--offset", "1",
                              "--out", str(out))
    assert code == 1
    assert stderr == "error: degree must be a positive integer\n"
    assert not out.exists()


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
    "kernel horizons": ["kernel", "{u}", "{short}", "--N", "2"],
    "kernel offset without degree": ["kernel", "{u}", "{u}", "--N", "2", "--offset", "1"],
    "kernel offset": ["kernel", "{u}", "{u}", "--N", "2", "--offset", "inf", "--degree", "2"],
    "kernel support without coeff": ["kernel", "{u}", "{u}", "--N", "2", "--support", "{u}"],
    "kernel coeff without support": ["kernel", "{u}", "{u}", "--N", "2", "--coeff", "2.0"],
    "kernel bias without support": ["kernel", "{u}", "{u}", "--N", "2", "--bias", "5"],
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


def _per_cell_csv(path, header, *columns):
    """A table through write_csv's per-cell formatting, as the weight and
    comparison files were once written: an integer column's cells by ``str``,
    a float column's by ``fmt_float``."""
    _io.write_csv(path, header, ([cell for column in columns
                                  for cell in np.atleast_1d(column[i]).tolist()]
                                 for i in range(len(columns[0]))))


def _motif_table(vectors, weights):
    """The header and columns of a motif file."""
    header = ["index", "weight"] + [f"m_{j}" for j in range(1, vectors.shape[1] + 1)]
    return header, (np.arange(1, vectors.shape[0] + 1), weights, vectors)


# Rows of 102 fields: whole rows per block, and a last block part full.
_ROWS_PER_BLOCK = _io._BLOCK_FIELDS // 102


@pytest.mark.parametrize("header, columns", [
    _motif_table(np.array([[-0.0, 5e-324, 1e300, -1e300], [1.0, -2.0, 3.0, 2.0**53],
                           [0.1, -1e-300, 1e17, 123456789012345678.0]]),
                 np.array([4.0, 1e-17, 0.5])),
    _motif_table(np.zeros((0, 5)), np.zeros(0)),
    # predict_cycle returns a transposed view
    _motif_table(np.random.default_rng(3).normal(size=(9, 5)).T,
                 np.array([3.0, 2.0, 1.0, 0.5, 0.25])),
    # predict_random's kind of vectors: mostly zeros
    _motif_table(np.eye(3, 7), np.ones(3)),
    # one row longer than a block, written in pieces
    _motif_table(np.random.default_rng(4).normal(size=(2, 10_000)), np.array([1.0, -0.0])),
    _motif_table(np.random.default_rng(6).normal(size=(2 * _ROWS_PER_BLOCK + 5, 100)),
                 np.random.default_rng(7).random(2 * _ROWS_PER_BLOCK + 5)),
    # weights.csv: an integer index beside a tail of exact zeros
    (["index", "weight"], (np.arange(1, 7), np.array([3.5, 1.25, 1e-9, 4e-17, 0.0, 0.0]))),
    # comparison.csv: integer index and cluster columns, and the inf weight
    # error of a zero predicted weight
    (["index", "cluster", "predicted_weight", "empirical_weight", "weight_rel_error",
      "alignment"],
     (np.arange(1, 5), np.array([0, 1, 1, 2], dtype=np.int64), np.array([2.0, 1.0, 1.0, 0.0]),
      np.array([2.0, 0.99999999999999989, 1.0, 1e-12]), np.array([0.0, 1.1e-16, 0.0, np.inf]),
      np.array([1.0, 0.99999999999999978, 0.99999999999999978, 0.5]))),
    # reconstruction.csv: one row of scalars
    (["max_abs_residual", "tensor_max_abs", "relative_residual"],
     ([3.552713678800501e-15], [12.5], [2.842170943040401e-16])),
    # a table of no rows is its header
    (["index", "weight_mean", "weight_std"], (np.arange(1, 1), np.zeros(0), np.zeros(0))),
    # two 2-D columns that make one row longer than a block
    (["index"] + [f"c_{j}" for j in range(3000)],
     (np.arange(1, 4), np.random.default_rng(10).normal(size=(3, 1500)),
      np.random.default_rng(11).normal(size=(3, 1500)))),
])
def test_table_writer_bytes_equal_the_generic_csv_path(tmp_path, header, columns):
    _io.write_table(tmp_path / "fast.csv", header, *columns)
    _per_cell_csv(tmp_path / "generic.csv", header, *columns)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "generic.csv").read_bytes()
    if header[2:3] == ["m_1"]:  # a motif table, which write_motifs_csv labels itself
        _io.write_motifs_csv(columns[2], columns[1], tmp_path / "motifs.csv")
        assert (tmp_path / "motifs.csv").read_bytes() == (tmp_path / "fast.csv").read_bytes()


@pytest.mark.parametrize("columns", [
    (np.arange(1, 3), np.array([True, False])),
    (np.arange(1, 3), np.array(["0.5", "0.25"])),
    (np.arange(1, 3), [0.5, "0.25"]),
])
def test_a_flag_or_text_column_is_not_a_table_column(tmp_path, columns):
    path = tmp_path / "t.csv"
    with pytest.raises(ContractViolation, match="^table column must be an array of real numbers$"):
        _io.write_table(path, ["index", "weight"], *columns)
    assert not path.exists()


@pytest.mark.parametrize("header, columns", [
    (["index", "weight"], (np.arange(1, 3), np.zeros(3))),  # row counts differ
    (["index"], (np.arange(1, 3), np.zeros(2))),  # a column with no header field
    (["a", "b"], (np.zeros((2, 2, 1)),)),  # 3-D
    (["a"], (np.float64(1.0),)),  # 0-D
    ([], ()),  # no columns
])
def test_a_table_of_ragged_or_unlabelled_columns_is_refused(tmp_path, header, columns):
    with pytest.raises(ContractViolation, match="^a table needs 1-D or 2-D columns"):
        _io.write_table(tmp_path / "t.csv", header, *columns)


def test_zeros_take_the_block_formatters_fast_path(tmp_path, monkeypatch):
    def no_call(x):
        raise AssertionError(f"fmt_float called on {x!r}")

    monkeypatch.setattr(_io, "fmt_float", no_call)
    _io.write_motifs_csv(np.eye(3, 7), np.array([1.0, -0.0, 0.0]), tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_bytes().splitlines()[1:] == [
        b"1,1,1,0,0,0,0,0,0", b"2,-0,0,1,0,0,0,0,0", b"3,0,0,0,1,0,0,0,0"]


def _assert_formats_like_fmt_float(values):
    """fmt_block's text of ``values``, in blocks of 10,000, equals fmt_float's."""
    values = np.asarray(values, dtype=np.float64).ravel()
    for start in range(0, values.size, 10_000):
        chunk = values[start:start + 10_000]
        got = _io.fmt_block(chunk.reshape(1, -1))
        want = ",".join(map(_io.fmt_float, chunk.tolist())) + "\n"
        if got != want:
            wrong = [(v, g, w) for v, g, w in zip(chunk.tolist(), got.split(","),
                                                   want.split(",")) if g != w]
            raise AssertionError(f"(value, fmt_block, fmt_float): {wrong[:5]}")


def _random_bit_patterns():
    bits = np.random.default_rng(2010).integers(0, 2**64, size=1_010_000, dtype=np.uint64)
    finite = bits.view(np.float64)[np.isfinite(bits.view(np.float64))][:1_000_000]
    assert finite.size == 1_000_000 and (finite < 0).any() and (finite > 0).any()
    return finite


def _powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    around = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    return np.concatenate([around, -around])


def _edges():
    rng = np.random.default_rng(8)
    tiny = np.finfo(np.float64).tiny
    subnormals = rng.integers(1, 2**52, size=1000).astype(np.uint64).view(np.float64)
    big = np.finfo(np.float64).max
    return np.concatenate([subnormals, -subnormals, [5e-324, -5e-324, tiny, -tiny,
                           np.nextafter(tiny, 0.0), 0.0, -0.0, big, -big,
                           np.nan, np.inf, -np.inf]])


def _ties():
    """Doubles whose exact value is halfway between two 17-digit decimals:
    n + 1/4 and n + 3/4 with 16 integer digits and n + 1/8 and n + 3/8 with
    15, where the power of ten is exact, and every small odd multiple of a
    power of two, among them ties where it is not (3 * 2**-25)."""
    rng = np.random.default_rng(9)
    n16 = rng.integers(10**15, 2**51, size=2000).astype(np.float64)
    n15 = rng.integers(10**14, 2**49, size=2000).astype(np.float64)
    odd_multiples = np.ldexp(np.arange(1.0, 64.0, 2.0)[:, None], np.arange(-1074, 1000))
    return np.concatenate([n16 + 0.25, n16 + 0.75, n15 + 0.125, n15 + 0.375,
                           odd_multiples.ravel()])


def _integers():
    near_2_53 = np.arange(2**53 - 2000, 2**53 + 2000, dtype=np.float64)
    near_1e17 = 1e17 + 16.0 * np.arange(-1000, 1000)
    return np.concatenate([near_2_53, near_1e17, -near_1e17, [99999999999999999.0]])


@pytest.mark.parametrize("values", [_random_bit_patterns, _powers_of_ten, _edges, _ties,
                                    _integers], ids=lambda make: make.__name__.strip("_"))
def test_block_formatter_bytes_equal_fmt_float(values):
    _assert_formats_like_fmt_float(values())


def test_block_formatter_breaks_an_exact_tie_to_even():
    assert _io.fmt_block(np.array([[891166954282328.4, 99999999999999999.0]])) == (
        "891166954282328.38,1e+17\n")


def test_block_formatter_ends_each_row_with_the_row_end():
    block = np.array([[1.5, -2.0], [0.0, 1e-5]])
    assert _io.fmt_block(block) == "1.5,-2\n0,1.0000000000000001e-05\n"
    assert _io.fmt_block(block, ",") == "1.5,-2,0,1.0000000000000001e-05,"


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
    assert (tmp_path / "m.csv").read_bytes() == b"index,weight,m_1,m_2,m_3,m_4,m_5\n"


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


def test_predict_holds_phi_and_the_motifs_and_three_square_arrays(tmp_path, capsys):
    n, tau = 300, 600
    argv = ["predict", "--regime", "cycle", "--N", str(n), "--tau", str(tau),
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0  # fills the lazy tables of the CSV writer
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.startswith("compared 300 motifs")
    square, phi = 8 * n * n, 8 * n * tau
    motifs = phi  # all N motifs are retained
    # The peak is MotifSet's orthonormality check: Phi, the motifs, and c = 3
    # arrays of motifs x motifs (their Gram, I and the difference).  The other
    # stages hold Phi and four N x N arrays (a sym_eig of the Gram holds it and
    # three more), Phi and the motifs twice while their signs are fixed, or
    # the motifs and four N x N arrays.  Keeping the reservoir or the tensor to
    # the end adds N x N or Phi; 0.5 N^2 covers the vectors of length tau and
    # the command's own objects.
    assert peak < phi + motifs + 3.5 * square


def test_predict_symmetric_holds_phi_and_the_components_and_three_tau_square_arrays(
        tmp_path, capsys):
    n, tau = 100, 1200
    argv = ["predict", "--regime", "symmetric", "--input", "gaussian", "--N", str(n),
            "--nu", "0.9", "--tau", str(tau), "--seed", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 0  # fills the lazy tables of the CSV writer
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.startswith("symmetric regime")
    square, phi = 8 * tau * tau, 8 * n * tau
    components = phi  # N components of length tau
    # The peak is Q's Gram while the rebuild is alive: Phi, the components and
    # c = 3 tau x tau arrays (the rebuild, the Gram, and the transpose numpy
    # copies to average them).  The residual and the scale are then taken in
    # the rebuild's buffer.  Forming rebuild - Q and its abs as new arrays
    # reads 4.2 tau x tau arrays; 0.25 tau^2 covers the vectors of length tau
    # and the command's own objects.
    assert peak < phi + components + 3.25 * square


def test_time_series_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(77)
    series = TimeSeries(rng.normal(size=9))
    path = tmp_path / "ts.txt"
    path.write_text("".join(_io.fmt_float(v) + "\n" for v in series.values))
    back = _io.read_time_series(path)
    assert np.array_equal(back.values, series.values)


def test_blank_lines_in_a_time_series_file_are_skipped(tmp_path):
    path = tmp_path / "ts.txt"
    path.write_text("\n1.5\n   \n\n-2\n\n")
    assert np.array_equal(_io.read_time_series(path).values, [1.5, -2.0])


@pytest.mark.parametrize("flag", [True, np.bool_(False)])
def test_a_flag_is_not_a_csv_cell(tmp_path, flag):
    path = tmp_path / "flags.csv"
    with pytest.raises(ContractViolation, match="^boolean cells are not part of any file format$"):
        _io.write_csv(path, ["a", "b"], [[1, flag]])
    assert not path.exists()


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
        **_model_flags_except("--tau", "--threshold", "--trials"),
        "u_file": ("str", None, None),
        "v_file": ("str", None, None),
        "--offset": ("float", None, None),
        "--degree": ("int", None, None),
        "--support": ("str", None, None),
        "--coeff": ("float", None, None),
        "--bias": ("float", None, None),
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


# A model flag that a command never reads is not on its parser; --ell is on none.
_DROPPED_FLAGS = [(command, flag) for command, options in sorted(_PARSER_SNAPSHOT.items())
                  for flag in (*_MODEL_FLAGS, "--ell") if flag not in options]
_FLAG_VALUES = {"--regime": "cycle", "--input": "pi-signs", "--dist": "uniform",
                "--N": "4", "--nu": "0.9", "--tau": "8", "--ell": "2", "--period": "2",
                "--threshold": "0.1", "--trials": "2", "--no-unit-norm": None}


def test_commands_take_48_model_flags_and_drop_15():
    assert sum(len(spec.commands) for spec in cli._KEYS.values()) == 48
    assert len([flag for _, flag in _DROPPED_FLAGS if flag != "--ell"]) == 15


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
        "nu": "0.9", "tau": "8", "period": "2", "seed": "3",
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
     "compared 10 motifs: min alignment 1, max weight rel error 3.03"),
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


# ---------------------------------------------------------------------------
# fresh processes: warning lines and BLAS thread counts
# ---------------------------------------------------------------------------

_SRC = Path(cli.__file__).resolve().parents[1]


def _python(cwd, *args, **env):
    """Run ``python args`` in ``cwd`` in a fresh process that imports this
    reskernel, with Python's default warning filters and ``env`` added."""
    environ = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    environ.update(PYTHONPATH=str(_SRC), **env)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=environ, capture_output=True,
                          text=True, timeout=300)


def test_importing_the_package_builds_no_formatter_table(tmp_path):
    result = _python(tmp_path, "-c", "import sys, reskernel; from reskernel import _io; "
                     "print(_io._fmt_tables.cache_info().currsize, 'fractions' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 False\n"


def test_a_library_warning_prints_as_one_line(tmp_path):
    result = _python(tmp_path, "-m", "reskernel.cli", "motifs", "--N", "3", "--tau", "2",
                     "--trials", "2", "--out", "out")
    assert result.returncode == 0
    assert result.stderr == ("warning: horizon 2 is below the state dimension 3; "
                             "the kernel cannot resolve the full state space\n")
    assert result.stdout.startswith("retained 2 of 2 motifs")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "motifs.csv", "weights.csv", "weights_mean_std.csv"]


def test_main_leaves_the_warning_format_as_it_found_it(tmp_path, capsys):
    before = warnings.formatwarning
    with pytest.warns(UserWarning, match="below the state dimension"):
        code, _, _ = run_cli(capsys, "motifs", "--N", "3", "--tau", "2",
                             "--out", str(tmp_path / "m"))
    assert code == 0
    assert warnings.formatwarning is before


# The reproducibility contract across BLAS thread counts (see README.md): the
# integer and text columns are equal, and floats agree within this tolerance
# relative to max(1, |value|).  The widest measured gap, 2.1e-9, is in the
# tail of a random reservoir's weights.csv, square roots of eigenvalues at
# rounding level, which the motifs run below writes.
THREAD_RTOL = 1e-8
_EXACT_COLUMNS = {"index", "regime", "input_kind", "trial", "n_motifs", "cells_visited",
                  "discarded_points"}


def test_outputs_keep_the_contract_across_blas_thread_counts(tmp_path):
    script = ("import sys; from reskernel import cli; sys.exit("
              "cli.main(['sweep', '--nu-grid', '0.95:0.025:1.0', '--trials', '3', "
              "'--out', 'sweep']) or cli.main(['motifs', '--config', sys.argv[1], "
              "'--trials', '3', '--out', 'motifs']))")
    runs = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads_{threads}"
        cwd.mkdir()
        result = _python(cwd, "-c", script, str(_REPO / "configs" / "markovian_motifs.conf"),
                         OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        assert result.returncode == 0, result.stderr
        runs.append(cwd)
    names = sorted(p.relative_to(runs[0]) for p in runs[0].rglob("*.csv"))
    assert [str(n) for n in names] == ["motifs/motifs.csv", "motifs/weights.csv",
                                       "motifs/weights_mean_std.csv", "sweep/sweep.csv"]
    assert names == sorted(p.relative_to(runs[1]) for p in runs[1].rglob("*.csv"))
    for name in names:
        one, two = (read_rows(run / name) for run in runs)
        assert one[0] == two[0] and len(one) == len(two) > 1
        for row_one, row_two in zip(one[1:], two[1:]):
            assert len(row_one) == len(row_two)
            for column, a, b in zip(one[0], row_one, row_two):
                if column in _EXACT_COLUMNS:
                    assert a == b, (name, column)
                else:
                    assert abs(float(a) - float(b)) <= THREAD_RTOL * max(1.0, abs(float(a)))
