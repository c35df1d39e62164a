"""The benchmark tracer reads the records this package returns.

``benchmarks/spans.py`` counts bytes and retained motifs from the results
of ``build_metric_tensor`` and ``extract_motifs``.  The benchmark's own
tests are not part of this suite, so this test keeps those counters
working when the records change shape.  It only imports from
``benchmarks/``.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import reskernel as rk

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import spans

    return spans


def test_tracer_counts_bytes_and_retained_motifs_of_a_cycle_build(spans):
    n, tau = 4, 8
    reservoir = rk.generate_reservoir(rk.ReservoirSpec("cycle_permutation", n, 0.9), rk.Seed(0))
    coupling = rk.generate_input(rk.InputCouplingSpec("ones_pi_signs", n), rk.Seed(0))
    with spans.Tracer("test") as tracer:
        tensor = rk.build_metric_tensor(reservoir, coupling, tau)
        motif_set = rk.extract_motifs(tensor)
        rk.predict_cycle(0.9, coupling, tau)
    metrics = tracer.layer_metrics()
    assert metrics["temporal_kernel.build_metric_tensor.calls"] == 1
    assert metrics["temporal_kernel.build_metric_tensor.bytes_computed"] == 8 * (n * tau + tau**2)
    assert metrics["motifs.extract_motifs.calls"] == 1
    assert metrics["motifs.extract_motifs.retained_ratio"] == len(motif_set) / tau
    assert 0 < len(motif_set) <= n
    assert metrics["motifs.predict_cycle.calls"] == 1


def test_tracer_counts_the_points_a_grid_summary_discards(spans):
    # Two of the five points lie off the default [-7, 7]^2 grid.
    points = np.array([0.0, 1.0 + 1.0j, -2.0j, 10.0, -8.0j])
    with spans.Tracer("test") as tracer:
        summary = rk.grid_summary(points, np.full(5, 0.2))
    metrics = tracer.layer_metrics()
    assert summary.discarded_points == 2
    assert metrics["richness.grid_summary.calls"] == 1
    assert metrics["richness.grid_summary.discarded_ratio"] == 0.4


def test_every_traced_name_resolves_in_the_package(spans):
    # A rename or deletion of a traced function must fail here, not first
    # in a traced benchmark run.
    missing = [f"{module}.{name}" for module, names in spans.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"reskernel.{module}"),
                                       name, None))]
    assert missing == []
