"""Randomized property harness: equivalence, spectrum bounds, containment."""

import dataclasses
import inspect
import json
from types import SimpleNamespace

import numpy as np
import pytest

import reskernel
from reskernel import numerics, verify
from reskernel import (
    ContractViolation,
    PropertyResult,
    PsdViolationError,
    run_initial_state_error_containment,
    run_kernel_state_equivalence,
    run_spectrum_properties,
)
from reskernel.motifs import CLAMP_RTOL, _clamp_spectrum
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


def test_spectrum_properties_pass():
    psd, decay = run_spectrum_properties(n_configs=10)
    assert psd.passed, psd.detail
    assert psd.detail.startswith("worst asymmetry 0.000e+00, worst relative negativity ")
    assert decay.passed, decay.detail
    assert psd.n_checked == 10
    assert decay.n_checked == 10


def test_containment_reports_margin():
    result = run_initial_state_error_containment(trials=4)
    assert result.passed, result.detail
    assert result.n_checked == 4
    assert result.worst >= 0.0  # worst margin to either bound stays positive


def _all_suites(n, tamper=None):
    """The four results of the suites, in the order ``verify`` runs them."""
    return [run_kernel_state_equivalence(n, tamper=tamper),
            *run_spectrum_properties(n, tamper=tamper),
            run_initial_state_error_containment(2)]


def test_run_all_aggregates_every_property():
    results = _all_suites(4)
    assert len(results) == 4
    assert len({r.name for r in results}) == 4
    assert all(r.passed for r in results)


@pytest.mark.parametrize("suite", [run_kernel_state_equivalence, run_spectrum_properties,
                                   run_initial_state_error_containment])
@pytest.mark.parametrize("base_seed", [-1, 2**64])
def test_suites_reject_a_base_seed_outside_64_bits(suite, base_seed):
    with pytest.raises(ContractViolation, match="seed base"):
        suite(1, base_seed=base_seed)


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


@pytest.mark.parametrize("spectrum, positive", [
    ([1.0, -CLAMP_RTOL], True),
    ([1.0, -2e-9], False),
    ([0.0, -1e-300], False),
    ([0.0, 0.0], True),
])
def test_extraction_and_the_spectrum_suite_share_one_psd_rule(monkeypatch, spectrum,
                                                              positive):
    values = np.array(spectrum)
    try:
        _clamp_spectrum(values, "spectrum")
        clamp_accepts = True
    except PsdViolationError:
        clamp_accepts = False
    monkeypatch.setattr(verify, "sym_eig",
                        lambda matrix: SimpleNamespace(eigenvalues=values.copy()))
    psd, _ = run_spectrum_properties(n_configs=1)
    assert clamp_accepts == psd.passed == positive


@pytest.mark.parametrize("tamper", [None, inject_asymmetry])
def test_a_verdict_is_read_from_the_replay(tamper):
    assert "passed" not in [f.name for f in dataclasses.fields(PropertyResult)]
    results = _all_suites(3, tamper)
    assert all(r.passed == (r.replay is None) for r in results)
    assert all(r.passed for r in results) == (tamper is None)


def test_inject_asymmetry_effects():
    two = inject_asymmetry(np.zeros((2, 2)))
    assert two[0, 1] == pytest.approx(1e-3)
    assert two[1, 0] == 0.0
    one = inject_asymmetry(np.zeros((1, 1)))
    assert one[0, 0] == -1.0


@pytest.mark.parametrize("suite, count", [
    (run_kernel_state_equivalence, "n_configs"),
    (run_spectrum_properties, "n_configs"),
    (run_initial_state_error_containment, "trials"),
])
@pytest.mark.parametrize("bad", [0, -3, 2.5, True])
def test_suites_reject_a_count_that_is_not_a_positive_integer(suite, count, bad):
    with pytest.raises(ContractViolation, match=count):
        suite(**{count: bad})


@pytest.mark.parametrize("suite, params", [
    (run_kernel_state_equivalence, ["n_configs", "base_seed", "tamper"]),
    (run_spectrum_properties, ["n_configs", "base_seed", "tamper"]),
    (run_initial_state_error_containment, ["trials", "base_seed"]),
])
def test_sampler_bounds_are_constants_not_suite_parameters(suite, params):
    assert list(inspect.signature(suite).parameters) == params
    with pytest.raises(TypeError):
        suite(1, max_state_dim=10)


def test_the_verify_protocol_is_pinned():
    assert verify.PAIRS_PER_CONFIG == 2
    assert (verify.CONTAINMENT_STATE_DIM, verify.CONTAINMENT_HORIZON, verify.CONTAINMENT_NU,
            verify.CONTAINMENT_CONTRACTION_RATE, verify.CONTAINMENT_SIGNAL_BOUND) == (
        50, 300, 0.9, 0.95, 1.0)
    assert numerics.RANK_RTOL == 1e-10
    assert not hasattr(reskernel, "run_all") and not hasattr(verify, "run_all")


def test_sampled_configurations_stay_within_the_sampler_bounds():
    assert (verify.MAX_STATE_DIM, verify.MAX_HORIZON) == (100, 200)
    rng = np.random.default_rng(0)
    drawn = [verify._sample_config(rng) for _ in range(400)]
    sizes = [res_spec.size for res_spec, _, _ in drawn]
    horizons = [horizon for _, _, horizon in drawn]
    assert 1 <= min(sizes) and max(sizes) <= verify.MAX_STATE_DIM
    assert 1 <= min(horizons) and max(horizons) <= verify.MAX_HORIZON
    # The bounds are reached, so they are the sampler's real ranges.
    assert max(sizes) > 0.9 * verify.MAX_STATE_DIM
    assert max(horizons) > 0.9 * verify.MAX_HORIZON


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
    result = run_kernel_state_equivalence(n_configs=5)
    assert result.passed and result.n_checked == 10
    assert calls == [4] * 5


def test_containment_simulates_each_trial_in_two_calls(monkeypatch):
    calls = _count_simulations(monkeypatch)
    result = run_initial_state_error_containment(trials=3)
    assert result.passed
    assert calls == [2] * 6
