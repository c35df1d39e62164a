"""The reskernel benchmark: one workload, repeated in fresh processes.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's job is repeated,
each repetition in a fresh ``job.py`` process with the BLAS thread count
fixed and inputs drawn from a seed derived from ``--seed``, until
``--seconds`` is used up (at least three repetitions).  Every process runs
on one CPU.  Each repetition checks its outputs.  Timings are medians over
repetitions, each scaled to a reference machine speed measured by the
workload's kernel in ``calibrate.py`` just before and just after the
repetition; the raw wall times are printed too.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` untraced and traced repetitions alternate and the result
holds the per-layer metrics of the traced ones, plus the tracing overhead.
Human-readable lines come first, then the machine and run facts; the last
line of standard output is the JSON result.  The exit code is 0 when
every output check passed, 1 when one failed, and 2 when the checkout
holds no ``src/reskernel`` to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS thread: on two cores the default sweep ran about 15% faster with
# one thread than with two, and single-threaded timings spread less.
BLAS_THREADS = "1"
# At least three repetitions, or two plain and two traced ones.
MIN_REPS = 3
MIN_TRACE_REPS = 4
# Set-up is also measured in processes that stop once the inputs are
# ready, so its median rests on more samples than there are repetitions.
SETUP_PROBES = 6
# A job takes under 10 s on two cores; these keep a hung job from holding
# the run past its time limit.
REP_TIMEOUT_S = 60
LAST_START_S = 90
# The reference speed: how long a workload's kernel in calibrate.py takes
# ("job"), and how long calibrate.py takes to start and import numpy
# ("setup").  A repetition's job time is divided by (its kernel's time /
# the reference) and a set-up time by (the start time / the reference),
# which removes the slow drift in the speed of a shared machine from the
# medians.
CAL_REF_S = {"job": 0.3, "setup": 0.15}

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.endswith("_ratio") or last == "layer_coverage":
        return "ratio"
    if last.startswith("bytes"):
        return "B"
    if last.startswith("flops"):
        return "flop"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "reskernel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_facts(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    # The build, not where it is installed.
    blas = {key: value for key, value in blas.items() if "directory" not in key}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env_parent": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_child": {v: BLAS_THREADS for v in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, out: Path, env: dict, *flags: str) -> dict:
    """Run one job.py process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), *flags]
    t0 = _now_ns()
    try:
        done = subprocess.run(cmd + ["--t0", str(t0)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "wall_s": float(REP_TIMEOUT_S),
                "detail": f"timed out after {REP_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    wall_s = (_now_ns() - t0) / 1e9
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-3:]
        return {"ok": False, "wall_s": wall_s,
                "detail": f"job.py exit {done.returncode}: {' | '.join(tail)}"}
    result = json.loads(lines[-1])
    result["wall_s"] = wall_s
    return result


def pin_to_one_cpu() -> int:
    """Run this process and every child on one CPU; return that CPU.

    The speed of the two CPUs of a shared virtual machine drifts apart, so a
    calibration only tracks the speed a job saw when both ran on the same
    CPU.  The parent only waits while a child runs.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibrate(workload: str, env: dict) -> dict:
    """Seconds the workload's kernel and the start of its process take now."""
    done = subprocess.run([sys.executable, str(HERE / "calibrate.py"), workload,
                           "--t0", str(_now_ns())], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S, check=True)
    return json.loads(done.stdout)


def speed(before: dict, after: dict, kind: str) -> float:
    """The mean of two calibrations of ``kind``, relative to the reference speed."""
    return (before[kind] + after[kind]) / (2 * CAL_REF_S[kind])


def rep_seed(seed: int, index: int) -> int:
    """The seed of one repetition.

    Each repetition draws its own inputs, so that a run's median rests on
    several draws: the amount of work of ``verify`` depends on the sizes it
    draws, by several percent from one seed to the next.
    """
    return seed * 1000 + index


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            spans: Path) -> dict:
    """Repeat the workload for about ``seconds``; return every repetition.

    Each repetition, and the batch of set-up probes, gets the speed factors
    measured just before and just after it.  ``setups`` holds (set-up time,
    set-up speed factor) pairs.  The spans of the last traced repetition are
    written to ``spans``.
    """
    env = child_env()
    spawn(workload, seed, work / "warmup", env, "--setup-only")  # fills caches; unmeasured
    start = time.monotonic()
    calibrations = [calibrate(workload, env)]
    reps = []
    setups = []
    while True:
        traced = trace and len(reps) % 2 == 1
        flags = ["--trace", "--spans", str(spans)] if traced else []
        inputs = rep_seed(seed, len(reps))
        rep = spawn(workload, inputs, work / f"rep{len(reps)}", env, *flags)
        calibrations.append(calibrate(workload, env))
        rep["seed"] = inputs
        rep["traced"] = traced
        rep["speed"] = speed(calibrations[-2], calibrations[-1], "job")
        reps.append(rep)
        if "setup_s" in rep:
            setups.append((rep["setup_s"], speed(calibrations[-2], calibrations[-1], "setup")))
        elapsed = time.monotonic() - start
        typical = statistics.median(r.get("wall_s", 0.0) for r in reps)
        enough = len(reps) >= (MIN_TRACE_REPS if trace else MIN_REPS)
        if (enough and elapsed + typical > seconds) or elapsed + typical > LAST_START_S:
            break
    probes = [spawn(workload, seed, work / f"probe{i}", env, "--setup-only")
              for i in range(SETUP_PROBES)]
    calibrations.append(calibrate(workload, env))
    factor = speed(calibrations[-2], calibrations[-1], "setup")
    setups += [(p["setup_s"], factor) for p in probes if "setup_s" in p]
    return {"reps": reps, "setups": setups, "calibrations": calibrations,
            "seconds": time.monotonic() - start}


def end_to_end(reps: list[dict], setups: list[tuple[float, float]]) -> dict:
    return {
        "setup_s": statistics.median(t / factor for t, factor in setups),
        "job_s": statistics.median(r["job_s"] / r["speed"] for r in reps),
        "items_per_s": statistics.median(r["items"] * r["speed"] / r["job_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(reps: list[dict]) -> dict:
    plain = [r["job_s"] / r["speed"] for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    names = traced[0]["layers"]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in names if name != "trace.layer_self_s"}
    out["trace.job_s"] = statistics.median(r["job_s"] for r in traced)
    out["trace.overhead_ratio"] = (statistics.median(r["job_s"] / r["speed"] for r in traced)
                                   / statistics.median(plain))
    out["trace.layer_coverage"] = statistics.median(
        r["layers"]["trace.layer_self_s"] / r["job_s"] for r in traced)
    return out


def report(workload: str, seed: int, trace: bool, run: dict, facts: dict) -> tuple[dict, list]:
    reps = run["reps"]
    failed = [r for r in reps if not r.get("ok")]
    lines = [f"workload {workload}: seed {seed}, {len(reps)} repetitions in "
             f"{run['seconds']:.1f} s, BLAS threads {BLAS_THREADS}, trace {int(trace)}"]
    for i, r in enumerate(reps):
        kind = "traced" if r["traced"] else "plain"
        timing = f"job {r['job_s']:.4f} s" if "job_s" in r else "no timing"
        lines.append(f"  rep {i} ({kind}): {'ok' if r.get('ok') else 'FAILED'}, {timing}: "
                     f"{r.get('detail', '')}")
    lines.append(f"  error_rate {len(failed) / len(reps):.4g} ratio "
                 f"({len(failed)} of {len(reps)} repetitions failed)")
    metrics: dict = {}
    if not failed:
        values = per_layer(reps) if trace else end_to_end(reps, run["setups"])
        units = {n: per_layer_unit(n) for n in values} if trace else END_TO_END_UNITS
        metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
        lines.append(
            f"  raw wall medians: job {statistics.median(r['job_s'] for r in reps):.6g} s, "
            f"set-up {statistics.median(t for t, _ in run['setups']):.6g} s over "
            f"{len(run['setups'])} set-ups; speed factors "
            f"{min(r['speed'] for r in reps):.3g} to {max(r['speed'] for r in reps):.3g}")
        queries = [r["query_s"] for r in reps if "query_s" in r and not r["traced"]]
        if queries:
            # Cut points 10 and 19 of 20 are the 50th and 95th percentiles.
            for name, cut in (("query_p50_ms", 9), ("query_p95_ms", 18)):
                value = statistics.median(
                    1e3 * statistics.quantiles(qs, n=20, method="inclusive")[cut]
                    for qs in queries)
                lines.append(f"  {name} {value:.6g} ms (median over {len(queries)} "
                             f"repetitions of {len(queries[0])} queries each)")
        for name, m in metrics.items():
            lines.append(f"  {name} {m['value']:.6g} {m['unit']}")
    lines.append("facts " + json.dumps(facts, sort_keys=True))
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the
    # running job and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "reskernel" / "__init__.py").is_file():
        print(f"error: no src/reskernel under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    facts = machine_facts(args.seed)
    facts["pinned_cpu"] = pin_to_one_cpu()
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = measure(args.workload, args.seed, args.seconds, trace, work,
                      results_dir / f"{stem}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, lines = report(args.workload, args.seed, trace, run, facts)
    reps = run["reps"]
    failed = sum(1 for r in reps if not r.get("ok"))
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, trace=trace, facts=facts, reps=reps,
                  setups=run["setups"], calibrations=run["calibrations"])
    (results_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
