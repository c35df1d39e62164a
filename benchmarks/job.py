"""One repetition of one workload, in a fresh process.

    python3 benchmarks/job.py --workload NAME --seed N --t0 NS --out DIR [--trace]

``--t0`` is the parent's ``CLOCK_MONOTONIC`` reading, in nanoseconds, taken
just before it started this process, so set-up time counts interpreter
start, ``import reskernel`` and the generation of the workload's inputs.
The job runs after that, traced or not; the output check runs after the
job and after the original functions are restored.  The last line of
standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def setup(workload, seed: int, out: Path, t0_ns: int) -> tuple[dict, float]:
    """Import reskernel and make the inputs; return them and the set-up time."""
    import reskernel  # noqa: F401  (import time is part of set-up)

    state = workload.prepare(seed, out)
    return state, (_now_ns() - t0_ns) / 1e9


def run_rep(workload, seed: int, out: Path, t0_ns: int, trace: bool,
            spans_path: Path | None = None) -> dict:
    """Prepare, run and check one repetition; return its measurements."""
    state, setup_s = setup(workload, seed, out, t0_ns)
    tracer = None
    outcome = None
    error = None
    start = time.perf_counter()
    try:
        if trace:
            with Tracer(run_id=f"{workload.name}-{seed}") as tracer:
                outcome = workload.run(state)
        else:
            outcome = workload.run(state)
    except Exception:  # a crashed job is a failed operation, not a crashed benchmark
        error = traceback.format_exc(limit=3)
    job_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"setup_s": setup_s, "job_s": job_s, "peak_rss_mb": peak_rss_mb}
    if error is None:
        try:
            check = workload.check(state, outcome)
            result.update(ok=check.ok, items=check.items, detail=check.detail)
        except Exception:
            result.update(ok=False, items=0, detail=traceback.format_exc(limit=3))
    else:
        result.update(ok=False, items=0, detail=error)
    if outcome is not None and "query_s" in outcome:
        result["query_s"] = outcome["query_s"]
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if spans_path is not None:
            tracer.write(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time only")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        result = {"setup_s": setup(workload, args.seed, args.out, args.t0)[1]}
    else:
        result = run_rep(workload, args.seed, args.out, args.t0, args.trace, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
