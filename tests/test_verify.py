"""Randomized property harness: equivalence, spectrum bounds, containment."""

import json

import numpy as np
import pytest

from reskernel import (
    ContractViolation,
    run_all,
    run_initial_state_error_containment,
    run_kernel_state_equivalence,
    run_spectrum_properties,
)
from reskernel.verify import inject_asymmetry


def test_kernel_state_equivalence_passes_and_counts_pairs():
    result = run_kernel_state_equivalence(n_configs=10)
    assert result.passed, result.detail
    assert result.n_checked == 20
    assert result.worst <= 1.0
    assert result.replay is None


def test_kernel_state_equivalence_is_deterministic():
    a = run_kernel_state_equivalence(n_configs=5)
    b = run_kernel_state_equivalence(n_configs=5)
    assert a == b


def test_kernel_state_equivalence_honors_pair_count():
    result = run_kernel_state_equivalence(n_configs=3, pairs_per_config=4)
    assert result.n_checked == 12


def test_spectrum_properties_pass():
    psd, decay = run_spectrum_properties(n_configs=10)
    assert psd.passed, psd.detail
    assert psd.detail.startswith("worst asymmetry 0.000e+00, worst relative negativity ")
    assert decay.passed, decay.detail
    assert psd.n_checked == 10
    assert decay.n_checked == 10


def test_containment_reports_margin():
    result = run_initial_state_error_containment(trials=4, state_dim=8,
                                                 horizon=40, nu=0.8,
                                                 contraction_rate=0.9)
    assert result.passed, result.detail
    assert result.n_checked == 4
    assert result.worst >= 0.0  # worst margin to either bound stays positive


def test_run_all_aggregates_every_property():
    results = run_all(equivalence_configs=4, spectrum_configs=4,
                      containment_trials=2)
    assert len(results) == 4
    assert len({r.name for r in results}) == 4
    assert all(r.passed for r in results)


@pytest.mark.parametrize("suite", [run_kernel_state_equivalence, run_spectrum_properties,
                                   run_initial_state_error_containment])
@pytest.mark.parametrize("base_seed", [-1, 2**64])
def test_suites_reject_a_base_seed_outside_64_bits(suite, base_seed):
    with pytest.raises(ContractViolation, match="seed base"):
        suite(base_seed=base_seed)


def test_tampered_tensor_fails_equivalence_with_replay():
    result = run_kernel_state_equivalence(n_configs=3, tamper=inject_asymmetry)
    assert not result.passed
    assert result.replay is not None
    # replay records must serialize for the failure dossier
    dumped = json.loads(json.dumps(result.replay))
    assert dumped["property"] == result.name
    assert "seed" in dumped and "nu" in dumped


def test_tampered_tensor_fails_spectrum_checks():
    psd, _ = run_spectrum_properties(n_configs=4, tamper=inject_asymmetry)
    assert not psd.passed
    assert psd.replay is not None


def test_tampered_spectrum_suite_reports_asymmetry_apart_from_negativity():
    sizes = []

    def tamper(matrix):
        sizes.append(matrix.shape[0])
        return inject_asymmetry(matrix)

    psd, _ = run_spectrum_properties(n_configs=6, tamper=tamper)
    assert min(sizes) > 1  # every tensor is tampered by asymmetry alone
    assert not psd.passed
    assert "worst asymmetry 1.000e-03" in psd.detail
    assert "worst relative negativity 1.000e-03" not in psd.detail
    assert "worst relative negativity 0.000e+00" in psd.detail
    assert psd.worst == 0.0


def test_inject_asymmetry_effects():
    two = inject_asymmetry(np.zeros((2, 2)))
    assert two[0, 1] == pytest.approx(1e-3)
    assert two[1, 0] == 0.0
    one = inject_asymmetry(np.zeros((1, 1)))
    assert one[0, 0] == -1.0


@pytest.mark.parametrize("suite, count", [
    (run_kernel_state_equivalence, "n_configs"),
    (run_kernel_state_equivalence, "pairs_per_config"),
    (run_kernel_state_equivalence, "max_state_dim"),
    (run_kernel_state_equivalence, "max_horizon"),
    (run_spectrum_properties, "n_configs"),
    (run_spectrum_properties, "max_state_dim"),
    (run_spectrum_properties, "max_horizon"),
    (run_initial_state_error_containment, "trials"),
    (run_initial_state_error_containment, "state_dim"),
])
@pytest.mark.parametrize("bad", [0, -3, 2.5, True])
def test_suites_reject_a_count_that_is_not_a_positive_integer(suite, count, bad):
    with pytest.raises(ContractViolation, match=count):
        suite(**{count: bad})


def test_tampered_decay_suite_evaluates_every_configuration():
    _, decay = run_spectrum_properties(n_configs=4, tamper=inject_asymmetry)
    assert decay.n_checked == 4
    assert np.isfinite(decay.worst)


def _count_simulations(monkeypatch):
    """Histories per ``simulate_state`` call made by the suites."""
    from reskernel import verify

    calls = []
    simulate = verify.simulate_state

    def counted(reservoir, coupling, series, initial_state=None):
        calls.append(len(series))
        return simulate(reservoir, coupling, series, initial_state)

    monkeypatch.setattr(verify, "simulate_state", counted)
    return calls


def test_equivalence_simulates_each_configuration_in_one_call(monkeypatch):
    calls = _count_simulations(monkeypatch)
    result = run_kernel_state_equivalence(n_configs=5, pairs_per_config=3)
    assert result.passed and result.n_checked == 15
    assert calls == [6] * 5


def test_containment_simulates_each_trial_in_two_calls(monkeypatch):
    calls = _count_simulations(monkeypatch)
    result = run_initial_state_error_containment(trials=3, state_dim=8, horizon=40,
                                                 nu=0.8, contraction_rate=0.9)
    assert result.passed
    assert calls == [2] * 6
