"""The four benchmark workloads: their inputs, the job, and the output check.

Every workload makes its inputs from the benchmark seed, which reaches the
program only as ``--seed`` or as generated input arrays.  Jobs look up
``reskernel`` functions through their modules at call time, so that a
traced run sees the wrappers and an untraced run the original functions.

Why these four (measured shares at the seed commit are in README.md):

* ``sweep`` is many small problems: 682 tensors at N = 100, dominated by
  the eigensolver and the singular-value rescale of random reservoirs.  It
  is the only workload that runs ``richness`` and the rescale.
* ``large_cycle`` is one large problem (N = 1000, tau = 2000): the tensor
  build, two large eigendecompositions and a 46 MB CSV write.  It has no
  rescale and no grid.
* ``verify`` is many tiny tensors of random size, and the only workload
  where the Python loop of state simulation dominates.
* ``readout`` is the read path of ``temporal_kernel``: one tensor build,
  then 200 readout queries of 100 kernel evaluations each.  A change to
  how ``Q`` is stored can speed up the build and slow this workload.
"""

from __future__ import annotations

import csv
import io
import math
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Check:
    ok: bool
    items: int
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable  # (seed, out_dir) -> state
    run: Callable  # (state) -> outcome
    check: Callable  # (state, outcome) -> Check


# --- CLI workloads -----------------------------------------------------------

def _run_cli(state: dict) -> dict:
    from reskernel import cli

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(list(state["argv"]))
    return {"code": code, "stdout": buffer.getvalue()}


def _cli_workload(name, why, argv: Callable, check: Callable) -> Workload:
    def prepare(seed: int, out: Path) -> dict:
        return {"argv": argv(seed) + ["--out", str(out)], "out": out, "seed": seed}

    def checked(state, outcome) -> Check:
        if outcome["code"] != 0:
            return Check(False, 0, f"exit code {outcome['code']}")
        return check(state, outcome)

    return Workload(name, why, prepare, _run_cli, checked)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


SWEEP_TRIAL_ROWS = 682
SWEEP_TOL = 1e-9
_SWEEP_FIELDS = ("n_motifs", "cells_visited", "relative_area", "weighted_relative_area",
                 "discarded_points")


def load_sweep_reference() -> dict:
    """Stored cycle rows of the default sweep, keyed by the float value of nu.

    The cycle reservoir with pi-sign coupling draws no random numbers, so
    these rows are the same for every seed and every correct code route.
    """
    rows = _read_rows(REFERENCE_DIR / "sweep_cycle_pi_signs.csv")
    return {float(row["nu"]): row for row in rows}


def check_sweep(state, outcome) -> Check:
    rows = [r for r in _read_rows(state["out"] / "sweep.csv")
            if r["trial"] not in ("mean", "std")]
    if len(rows) != SWEEP_TRIAL_ROWS:
        return Check(False, len(rows), f"{len(rows)} trial rows, expected {SWEEP_TRIAL_ROWS}")
    reference = load_sweep_reference()
    cycle = {float(r["nu"]): r for r in rows if r["regime"] == "cycle_permutation"}
    if set(cycle) != set(reference):
        return Check(False, len(rows), "cycle rows do not cover the reference nu values")
    for nu, ref in reference.items():
        for field in _SWEEP_FIELDS:
            if abs(float(cycle[nu][field]) - float(ref[field])) > SWEEP_TOL:
                return Check(False, len(rows),
                             f"cycle row nu={nu} {field} {cycle[nu][field]} != {ref[field]}")
    for row in rows:
        areas = [float(row[f]) for f in ("relative_area", "weighted_relative_area")]
        if not all(0.0 <= a <= 1.0 for a in areas) or int(row["n_motifs"]) < 1:
            return Check(False, len(rows), f"implausible row {row}")
    return Check(True, len(rows), f"{len(rows)} trial rows, {len(cycle)} cycle rows "
                                  f"match the reference to {SWEEP_TOL:g}")


COMPARE_TOL = 1e-9


def check_large_cycle(state, outcome) -> Check:
    rows = _read_rows(state["out"] / "comparison.csv")
    if not rows:
        return Check(False, 0, "comparison.csv is empty")
    min_alignment = min(float(r["alignment"]) for r in rows)
    max_error = max(float(r["weight_rel_error"]) for r in rows)
    ok = min_alignment >= 1.0 - COMPARE_TOL and max_error <= COMPARE_TOL
    return Check(ok, len(rows), f"{len(rows)} motifs compared: min alignment "
                                f"{min_alignment!r}, max weight rel error {max_error!r}")


VERIFY_SUITES = 4
_VERIFY_LINE = re.compile(r"^(PASS|FAIL) (.+?): (\d+) checked")


def check_verify(state, outcome) -> Check:
    lines = [m.groups() for m in map(_VERIFY_LINE.match, outcome["stdout"].splitlines()) if m]
    checked = sum(int(n) for _, _, n in lines)
    failed = [name for status, name, _ in lines if status != "PASS"]
    if len(lines) != VERIFY_SUITES or failed:
        return Check(False, checked, f"{len(lines)} suites reported, failed: {failed}")
    return Check(True, checked, f"{len(lines)} suites PASS, {checked} property checks")


# --- readout through the library API -----------------------------------------

READOUT_N = 300
READOUT_TAU = 600
READOUT_NU = 0.99
READOUT_SUPPORTS = 100
READOUT_QUERIES = 200
READOUT_CHECKED = 5
READOUT_RTOL = 1e-10


def prepare_readout(seed: int, out: Path) -> dict:
    from reskernel import coupling as cp
    from reskernel import temporal_kernel as tk

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x7E4D))))
    supports = tuple(tk.TimeSeries(rng.uniform(-1.0, 1.0, READOUT_TAU))
                     for _ in range(READOUT_SUPPORTS))
    model = tk.ReadoutModel(supports=supports,
                            coefficients=rng.standard_normal(READOUT_SUPPORTS),
                            bias=float(rng.standard_normal()))
    queries = [tk.TimeSeries(rng.uniform(-1.0, 1.0, READOUT_TAU))
               for _ in range(READOUT_QUERIES)]
    return {
        "reservoir_spec": cp.ReservoirSpec(regime=cp.CYCLE_PERMUTATION, size=READOUT_N,
                                           nu=READOUT_NU),
        "input_spec": cp.InputCouplingSpec(kind="gaussian", size=READOUT_N),
        "seed": cp.Seed(seed),
        "model": model,
        "queries": queries,
        "checked": sorted(rng.choice(READOUT_QUERIES, READOUT_CHECKED, replace=False)),
    }


def run_readout(state: dict) -> dict:
    import time

    from reskernel import coupling as cp
    from reskernel import temporal_kernel as tk

    reservoir = cp.generate_reservoir(state["reservoir_spec"], state["seed"])
    coupling_vec = cp.generate_input(state["input_spec"], state["seed"])
    tensor = tk.build_metric_tensor(reservoir, coupling_vec, READOUT_TAU)
    values, latencies = [], []
    for query in state["queries"]:
        start = time.perf_counter()
        values.append(tk.readout_eval(state["model"], tensor, query))
        latencies.append(time.perf_counter() - start)
    return {"reservoir": reservoir, "coupling": coupling_vec, "values": values,
            "query_s": latencies}


def check_readout(state, outcome) -> Check:
    """Compare sampled readouts with dot products of simulated states."""
    from reskernel import temporal_kernel as tk

    reservoir, coupling_vec = outcome["reservoir"], outcome["coupling"]
    model = state["model"]
    support_states = [tk.simulate_state(reservoir, coupling_vec, s) for s in model.supports]
    items = len(outcome["values"]) * len(model.supports)
    if len(outcome["values"]) != READOUT_QUERIES:
        return Check(False, items, f"{len(outcome['values'])} readouts returned")
    worst = 0.0
    for index in state["checked"]:
        x = tk.simulate_state(reservoir, coupling_vec, state["queries"][index])
        terms = [beta * float(s @ x) for beta, s in zip(model.coefficients, support_states)]
        reference = model.bias + math.fsum(terms)
        scale = max(1.0, abs(model.bias) + math.fsum(abs(t) for t in terms))
        worst = max(worst, abs(outcome["values"][index] - reference) / scale)
    return Check(worst <= READOUT_RTOL, items,
                 f"{READOUT_CHECKED} sampled readouts within {worst:.2e} relative "
                 f"of simulated states (limit {READOUT_RTOL:g})")


WORKLOADS = {w.name: w for w in (
    _cli_workload(
        "sweep",
        "default richness sweep: 682 small tensors; eigensolver, rescale and richness",
        lambda seed: ["sweep", "--seed", str(seed)],
        check_sweep,
    ),
    _cli_workload(
        "large_cycle",
        "one N=1000, tau=2000 cycle prediction: tensor build, large eigh, CSV output",
        lambda seed: ["predict", "--regime", "cycle", "--input", "gaussian", "--N", "1000",
                      "--nu", "0.995", "--tau", "2000", "--seed", str(seed)],
        check_large_cycle,
    ),
    _cli_workload(
        "verify",
        "property suites at 4x their default counts: tiny tensors, state simulation",
        lambda seed: ["verify", "--seed", str(seed), "--configs", "400",
                      "--spectrum-configs", "240", "--containment-trials", "200"],
        check_verify,
    ),
    Workload(
        "readout",
        "one N=300, tau=600 tensor, then 200 readout queries of 100 kernel evaluations",
        prepare_readout, run_readout, check_readout,
    ),
)}
