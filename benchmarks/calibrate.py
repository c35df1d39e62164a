"""Machine-speed probes: for each workload, a fixed kernel of the same kind of work.

    python3 benchmarks/calibrate.py WORKLOAD --t0 NS

Prints one JSON object: the seconds the workload's kernel takes (``job``),
and the seconds from ``--t0``, the parent's ``CLOCK_MONOTONIC`` reading in
nanoseconds just before it started this process, until numpy was imported
(``setup``).  Neither touches reskernel, so their times change with the
speed of the machine only.

On a shared two-core virtual machine that speed drifts by 20-40% over
minutes, and not by the same factor for every kind of work: a loop of
600² matrix-vector products can slow while a Python loop does not.  So
each workload has its own kernel, built from the operations that take
most of its time at the seed commit and in about the same shares, and
run.py scales a repetition's job time by that kernel's time measured
around it.  Set-up is mostly interpreter start and the import of numpy,
so its reference is this process's own start.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

_STARTED_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _contraction(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    """A random n x n matrix scaled to spectral norm ``scale``."""
    w = rng.standard_normal((n, n))
    return w * (scale / np.linalg.norm(w, 2))


def _sym_eig(m: np.ndarray) -> None:
    """Eigendecomposition with the sorting and checks of numerics.sym_eig."""
    values, vectors = np.linalg.eigh(m)
    order = np.argsort(-values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    np.max(np.abs(vectors.T @ vectors - np.eye(m.shape[0])))
    np.max(np.abs(m - (vectors * values) @ vectors.T))


def _gram(w: np.ndarray, vec: np.ndarray, horizon: int) -> np.ndarray:
    """The column recurrence and Gram product of build_metric_tensor."""
    phi = np.empty((vec.shape[0], horizon))
    col = vec
    for i in range(horizon):
        phi[:, i] = col
        col = w @ col
    gram = phi.T @ phi
    return np.triu(gram) + np.triu(gram, 1).T


def _simulate(w: np.ndarray, vec: np.ndarray, series: np.ndarray) -> np.ndarray:
    """The per-sample state recursion of simulate_state."""
    x = np.zeros(vec.shape[0])
    for u in series[::-1]:
        x = w @ x + u * vec
    return x


def sweep() -> None:
    """Many N = 100, tau = 200 tensors and their eigensolves, plus rescales."""
    rng = np.random.default_rng(1)
    w = _contraction(rng, 100, 0.95)
    vec = rng.standard_normal(100)
    for _ in range(40):
        _sym_eig(_gram(w, vec, 200))
        _sym_eig(0.5 * (w.T @ w + (w.T @ w).T))


def large_cycle() -> None:
    """A CSV of floats at 17 digits, one large tensor and its eigensolve."""
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((60, 2000))
    "\n".join(",".join(f"{float(c):.17g}" for c in row) for row in rows)
    w = _contraction(rng, 300, 0.99)
    _sym_eig(_gram(w, rng.standard_normal(300), 600))


def verify() -> None:
    """Python-loop state simulation of small reservoirs, and small tensors."""
    rng = np.random.default_rng(3)
    for _ in range(9):
        for n, horizon in ((10, 50), (40, 120), (70, 160), (100, 200)):
            w = _contraction(rng, n, 0.9)
            vec = rng.standard_normal(n)
            for _ in range(6):
                _simulate(w, vec, rng.uniform(-1.0, 1.0, horizon))
            _sym_eig(_gram(w, vec, horizon))


def readout() -> None:
    """Kernel evaluations u^T Q v on a 600 x 600 tensor, as kernel_eval does them."""
    rng = np.random.default_rng(4)
    q = rng.standard_normal((600, 600))
    supports = [rng.standard_normal(600) for _ in range(100)]
    for _ in range(12):
        v = rng.standard_normal(600)
        for u in supports:
            float(0.5 * (u @ (q @ v) + v @ (q @ u)))


KERNELS = {"sweep": sweep, "large_cycle": large_cycle, "verify": verify,
           "readout": readout}


def seconds(name: str) -> float:
    start = time.perf_counter()
    KERNELS[name]()
    return time.perf_counter() - start


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=KERNELS)
    parser.add_argument("--t0", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps({"job": seconds(args.workload), "setup": (_STARTED_NS - args.t0) / 1e9}))
