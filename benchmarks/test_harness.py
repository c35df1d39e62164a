"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import calibrate
import job
import run
import spans
import workloads
from spans import Span, Tracer, self_times_ns

import reskernel
from reskernel import richness

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_subtracts_the_part_children_cover():
    tree = [
        Span("root", 0, 100, -1, "r"),
        Span("a", 10, 40, 0, "r"),
        Span("a.inner", 15, 25, 1, "r"),
        Span("b", 50, 70, 0, "r"),
        Span("c", 60, 80, 0, "r"),  # overlaps b: the shared 10 count once
        Span("other", 200, 230, -1, "s"),
    ]
    assert self_times_ns(tree) == [100 - 30 - 30, 30 - 10, 10, 20, 20, 30]


def _layer_functions():
    for module_name, funcs in spans.LAYERS.items():
        module = importlib.import_module(f"reskernel.{module_name}")
        for func in funcs:
            yield module, func


def _bindings():
    """Every (module, attribute) in reskernel bound to a traced function."""
    originals = {id(getattr(m, f)) for m, f in _layer_functions()}
    return {(name, attr): value
            for name, module in sorted(sys.modules.items())
            if name == "reskernel" or name.startswith("reskernel.")
            for attr, value in vars(module).items() if id(value) in originals}


def test_tracer_wraps_every_binding_records_nesting_and_restores():
    before = _bindings()
    assert ("reskernel.cli", "extract_motifs") in before
    assert ("reskernel.richness", "extract_motifs") in before
    config = richness.SweepConfig(nu_values=(0.9, 0.95), regimes=("cycle_permutation",),
                                  state_dim=6)
    with Tracer("t") as tracer:
        for (name, attr), original in before.items():
            wrapped = getattr(sys.modules[name], attr)
            assert wrapped is not original and wrapped.__wrapped__ is original
        reskernel.sweep(config)
    assert _bindings() == before
    recorded = [s for s in tracer.spans if s is not None]
    by_name = {s.name: s for s in recorded}
    assert recorded[0].name == "richness.sweep" and recorded[0].parent == -1
    eig = by_name["numerics.sym_eig"]
    assert recorded[eig.parent].name == "motifs.extract_motifs"
    metrics = tracer.layer_metrics()
    assert metrics["motifs.extract_motifs.calls"] == 2
    assert metrics["numerics.sym_eig.max_n"] == 12
    assert round(metrics["trace.layer_self_s"] * 1e9) == sum(
        s.end_ns - s.start_ns for s in recorded if s.parent == -1)


def _probe_workload(seen: list) -> workloads.Workload:
    def run_probe(state):
        seen.append(all(hasattr(getattr(m, f), "__wrapped__") for m, f in _layer_functions()))
        seen.append(hasattr(reskernel.cli.extract_motifs, "__wrapped__"))
        return {}

    return workloads.Workload("probe", "", lambda seed, out: {}, run_probe,
                              lambda state, outcome: workloads.Check(True, 1, ""))


def test_untraced_run_calls_the_original_functions(tmp_path):
    seen: list = []
    plain = job.run_rep(_probe_workload(seen), 0, tmp_path, job._now_ns(), trace=False)
    traced = job.run_rep(_probe_workload(seen), 0, tmp_path, job._now_ns(), trace=True)
    assert plain["ok"] and traced["ok"] and "layers" not in plain
    assert seen == [False, False, True, True]
    assert not any(hasattr(getattr(m, f), "__wrapped__") for m, f in _layer_functions())


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert spec["paths"] == ["benchmarks"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = Tracer("names").layer_metrics()
    reps = [{"ok": True, "traced": False, "job_s": 1.0, "speed": 1.0},
            {"ok": True, "traced": True, "job_s": 1.0, "speed": 1.0, "layers": layers}]
    per_layer = run.per_layer(reps)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name) for name in per_layer}
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]


def test_every_workload_has_a_calibration_kernel():
    assert set(calibrate.KERNELS) == set(workloads.WORKLOADS)


def _verify_workload(*extra: str) -> workloads.Workload:
    return workloads._cli_workload(
        "verify-small", "",
        lambda seed: ["verify", "--seed", str(seed), "--configs", "4",
                      "--spectrum-configs", "4", "--containment-trials", "2", *extra],
        workloads.check_verify)


def test_injected_asymmetry_fails_every_repetition(tmp_path):
    clean = job.run_rep(_verify_workload(), 3, tmp_path / "clean", job._now_ns(), trace=False)
    assert clean["ok"] and clean["items"] == 4 * 2 + 4 + 4 + 2
    reps = [job.run_rep(_verify_workload("--inject-asymmetry"), seed, tmp_path / str(seed),
                        job._now_ns(), trace=False) | {"traced": False}
            for seed in (3, 4)]
    metrics, lines = run.report("verify", 3, False, {"reps": reps, "setups": [],
                                                     "seconds": 0.0}, {})
    assert metrics == {}
    assert "  error_rate 1 ratio (2 of 2 repetitions failed)" in lines


def test_checkout_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
