"""Randomized property harness: equivalence, spectrum bounds, containment."""

import dataclasses
import inspect
import json
import tracemalloc

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
from reskernel.coupling import seed_generator
from reskernel.numerics import CLAMP_RTOL, clamp_spectrum
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


def _all_suites(n, tamper=False):
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
    result = run_kernel_state_equivalence(n_configs=3, tamper=True)
    assert not result.passed
    assert result.replay is not None
    # replay records must serialize for the failure dossier
    dumped = json.loads(json.dumps(result.replay))
    assert dumped["property"] == result.name
    assert "seed" in dumped and "nu" in dumped


def test_tampered_tensor_fails_spectrum_checks():
    psd, _ = run_spectrum_properties(n_configs=4, tamper=True)
    assert not psd.passed
    assert psd.replay is not None


def test_tampered_spectrum_suite_reports_asymmetry_apart_from_negativity(monkeypatch):
    sizes = []

    def recording(matrix):
        sizes.append(matrix.shape[0])
        return inject_asymmetry(matrix)

    monkeypatch.setattr(verify, "inject_asymmetry", recording)
    psd, _ = run_spectrum_properties(n_configs=6, tamper=True)
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
        clamp_spectrum(values, "spectrum")
        clamp_accepts = True
    except PsdViolationError:
        clamp_accepts = False
    monkeypatch.setattr(verify, "sym_eigvals", lambda matrix: values.copy())
    psd, _ = run_spectrum_properties(n_configs=1)
    assert clamp_accepts == psd.passed == positive


@pytest.mark.parametrize("tamper", [False, True])
def test_a_verdict_is_read_from_the_replay(tamper):
    assert "passed" not in [f.name for f in dataclasses.fields(PropertyResult)]
    results = _all_suites(3, tamper)
    assert all(r.passed == (r.replay is None) for r in results)
    assert all(r.passed for r in results) == (not tamper)


@pytest.mark.parametrize("suite", [run_kernel_state_equivalence, run_spectrum_properties])
@pytest.mark.parametrize("bad", ["yes", inject_asymmetry, None, 1])
def test_tamper_is_a_flag(suite, bad):
    with pytest.raises(ContractViolation, match="tamper must be a bool"):
        suite(1, tamper=bad)


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
    _, decay = run_spectrum_properties(n_configs=4, tamper=True)
    assert decay.n_checked == 4
    assert np.isfinite(decay.worst)


def test_a_tensor_above_its_envelope_fails_the_decay_suite_alone(monkeypatch):
    # Doubling keeps a tensor symmetric PSD but lifts Q[0, 0] = ||w||^2 over the envelope.
    monkeypatch.setattr(verify, "inject_asymmetry", lambda matrix: 2.0 * matrix)
    psd, decay = run_spectrum_properties(n_configs=3, tamper=True)
    assert psd.passed, psd.detail
    assert not decay.passed
    assert decay.replay["property"] == decay.name
    assert decay.replay["excess"] > 0.0
    assert json.loads(json.dumps(decay.replay)) == decay.replay


def test_an_error_outside_its_bounds_fails_containment_with_a_replay(monkeypatch):
    # Bounds of [1, 1] exclude the first trial's error, which is near zero.
    monkeypatch.setattr(verify, "kernel_error_bounds", lambda params, nu: (1.0, 1.0))
    result = run_initial_state_error_containment(trials=2)
    assert not result.passed
    assert result.worst < -0.9
    replay = result.replay
    assert (replay["property"], replay["lower"], replay["upper"]) == (result.name, 1.0, 1.0)
    assert (replay["state_dim"], replay["nu"], replay["horizon"]) == (
        verify.CONTAINMENT_STATE_DIM, verify.CONTAINMENT_NU, verify.CONTAINMENT_HORIZON)
    assert replay["seed"] == reskernel.mix_seed(0, 19, 0).base


def test_the_spectrum_suite_forms_no_eigenvectors(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    psd, decay = run_spectrum_properties(6)
    assert psd.passed and decay.passed
    assert calls == []


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


def _containment_radius():
    scale = reskernel.minimal_state_scale(verify.CONTAINMENT_SIGNAL_BOUND, 1.0,
                                          verify.CONTAINMENT_NU,
                                          verify.CONTAINMENT_CONTRACTION_RATE)
    return reskernel.initial_state_radius(reskernel.BoundParams(
        verify.CONTAINMENT_SIGNAL_BOUND, 1.0, verify.CONTAINMENT_CONTRACTION_RATE, scale,
        verify.CONTAINMENT_HORIZON))


def _per_trial_containment(t, generate_reservoir=reskernel.generate_reservoir):
    """``(error, scale)`` of containment trial ``t`` at base seed 0, drawn
    and simulated one trial at a time by two ``simulate_state`` calls: the
    reference loop of the batched suite.  ``scale`` is the sum of the norm
    products of the two dot products that form the error."""
    n, horizon, bound = (verify.CONTAINMENT_STATE_DIM, verify.CONTAINMENT_HORIZON,
                         verify.CONTAINMENT_SIGNAL_BOUND)
    seed = reskernel.mix_seed(0, 19, t)
    reservoir = generate_reservoir(reskernel.ReservoirSpec(
        regime="random_iid", size=n, nu=verify.CONTAINMENT_NU), seed)
    coupling_vec = reskernel.generate_input(reskernel.InputCouplingSpec(
        kind="gaussian", size=n, normalize_unit=True), seed)
    rng = seed_generator(seed, 7)
    u, v = (reskernel.TimeSeries(rng.uniform(-bound, bound, horizon)) for _ in range(2))
    direction = rng.standard_normal(n)
    x0 = direction * (_containment_radius() / np.linalg.norm(direction))
    x_u, x_v = reskernel.simulate_state(reservoir, coupling_vec, [u, v], x0).T
    z_u, z_v = reskernel.simulate_state(reservoir, coupling_vec, [u, v]).T
    scale = (np.linalg.norm(x_u) * np.linalg.norm(x_v)
             + np.linalg.norm(z_u) * np.linalg.norm(z_v))
    return float(x_u @ x_v) - float(z_u @ z_v), scale


# The batched and the per-trial recursion do the same arithmetic in other
# product kernels; their errors agree to a few roundings of the dot products'
# scale (measured: at most 2.2e-16 absolute, about 6 eps of the scale).
CONTAINMENT_RTOL = 64 * np.finfo(float).eps


def test_batched_containment_matches_per_trial_simulation_whatever_the_batch(monkeypatch):
    trials = verify.CONTAINMENT_BATCH + 5
    batches = []
    errors = verify._containment_errors

    def recorded(res_spec, in_spec, seeds, radius):
        batches.append(errors(res_spec, in_spec, seeds, radius))
        return batches[-1]

    monkeypatch.setattr(verify, "_containment_errors", recorded)
    result = run_initial_state_error_containment(trials)
    assert [len(b) for b in batches] == [verify.CONTAINMENT_BATCH, 5]
    for t, err in enumerate(np.concatenate(batches)):
        expected, scale = _per_trial_containment(t)
        assert abs(err - expected) <= CONTAINMENT_RTOL * scale, t
    # Each trial's products are the same in any batch, so the result keeps its bits.
    for batch in (1, 7):
        monkeypatch.setattr(verify, "CONTAINMENT_BATCH", batch)
        assert run_initial_state_error_containment(trials) == result
    assert result.passed and result.n_checked == trials and result.worst >= 0.0


def test_a_failure_in_a_later_batch_replays_that_trial(monkeypatch):
    bad = verify.CONTAINMENT_BATCH + 3
    bad_seed = reskernel.mix_seed(0, 19, bad)
    generate = reskernel.generate_reservoir

    def slow_to_decay(spec, seed):
        # An x0 that barely decays drives the error far outside the bounds.
        if seed.base == bad_seed.base:
            return 0.999 * np.eye(spec.size)
        return generate(spec, seed)

    monkeypatch.setattr(verify.cp, "generate_reservoir", slow_to_decay)
    result = run_initial_state_error_containment(2 * verify.CONTAINMENT_BATCH)
    assert not result.passed
    expected, scale = _per_trial_containment(bad, slow_to_decay)
    replay = result.replay
    assert replay["seed"] == bad_seed.base
    assert replay["error"] == pytest.approx(expected, rel=0.0, abs=CONTAINMENT_RTOL * scale)
    assert replay["error"] > replay["upper"]
    assert result.worst == replay["upper"] - replay["error"]
    assert json.loads(json.dumps(replay)) == replay


def _containment_peak(trials):
    tracemalloc.start()
    try:
        run_initial_state_error_containment(trials)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_containment_memory_does_not_grow_with_the_trial_count():
    one_batch = _containment_peak(verify.CONTAINMENT_BATCH)
    four_batches = _containment_peak(4 * verify.CONTAINMENT_BATCH)
    # A batch holds about 1.3 MB; a stack of every trial would add 3 batches.
    assert four_batches <= one_batch + 64 * 1024
