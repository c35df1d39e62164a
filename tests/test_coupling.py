"""Seeding, reservoir generation, and input coupling vectors."""

import numpy as np
import pytest

import oracles
from reskernel import (
    BoundParams,
    ContractViolation,
    InputCouplingSpec,
    MetricTensor,
    ReservoirSpec,
    Seed,
    SweepConfig,
    TimeSeries,
    build_metric_tensor,
    irrational_bits,
    kernel_poly,
    largest_singular_value,
    mix_seed,
    predict_cycle,
    predict_random,
    predict_symmetric,
    run_initial_state_error_containment,
    run_kernel_state_equivalence,
    run_spectrum_properties,
    trial_seed,
)
from reskernel.coupling import (
    ENTRY_DISTRIBUTIONS,
    INPUT_KINDS,
    RESERVOIR_REGIMES,
    coupling_spec,
    draw_reservoir,
    generate_input,
    generate_reservoir,
)


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def test_seed_accepts_full_uint64_range():
    assert Seed(0).base == 0
    assert Seed(2**64 - 1).base == 2**64 - 1


@pytest.mark.parametrize("bad", [-1, 2**64, 1.0, "7", True, None, np.int64(2)])
def test_seed_rejects_out_of_range_and_non_integers(bad):
    with pytest.raises(ContractViolation):
        Seed(bad)


def test_mix_seed_is_deterministic_and_key_sensitive():
    a = mix_seed(42, 1, 2)
    b = mix_seed(42, 1, 2)
    c = mix_seed(42, 2, 1)
    assert a.base == b.base
    assert a.base != c.base
    assert mix_seed(42).base != mix_seed(43).base


def test_mix_seed_rejects_bad_keys():
    with pytest.raises(ContractViolation):
        mix_seed(1, -1)
    with pytest.raises(ContractViolation):
        mix_seed(1, 0.5)
    with pytest.raises(ContractViolation):
        mix_seed(-1)
    for bad in (True, None, np.int64(2)):  # the integer rule of Seed and every count
        with pytest.raises(ContractViolation, match="^seed base must be an integer$"):
            mix_seed(bad, 1)
        with pytest.raises(ContractViolation, match="^mix keys must be non-negative integers$"):
            mix_seed(0, 1, bad)
        with pytest.raises(ContractViolation, match="^mix keys must be non-negative integers$"):
            trial_seed(0, bad)


# ---------------------------------------------------------------------------
# reservoir generation
# ---------------------------------------------------------------------------

def test_cycle_reservoir_is_scaled_shift_permutation():
    spec = ReservoirSpec(regime="cycle_permutation", size=3, nu=0.5)
    w = generate_reservoir(spec, Seed(0))
    expected = np.array([[0.0, 0.0, 0.5],
                         [0.5, 0.0, 0.0],
                         [0.0, 0.5, 0.0]])
    assert np.array_equal(w, expected)


def test_cycle_reservoir_size_one():
    spec = ReservoirSpec(regime="cycle_permutation", size=1, nu=0.25)
    assert np.array_equal(generate_reservoir(spec, Seed(3)), [[0.25]])


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("nu", [0.3, 0.995, 1.0])
def test_cycle_reservoir_is_the_permutation_times_nu_bit_for_bit(n, nu):
    permutation = np.zeros((n, n))
    for i in range(n):
        permutation[(i + 1) % n, i] = 1.0
    spec = ReservoirSpec(regime="cycle_permutation", size=n, nu=nu)
    w = generate_reservoir(spec, Seed(0))
    assert w.dtype == np.float64
    assert w.tobytes() == (permutation * nu).tobytes()


@pytest.mark.parametrize("regime", RESERVOIR_REGIMES)
@pytest.mark.parametrize("distribution", ENTRY_DISTRIBUTIONS)
def test_largest_singular_value_is_rescaled_to_nu(regime, distribution):
    spec = ReservoirSpec(regime=regime, size=17, nu=0.83,
                         distribution=distribution)
    w = generate_reservoir(spec, Seed(11))
    assert largest_singular_value(w) == pytest.approx(0.83, abs=1e-9)


@pytest.mark.parametrize("regime", ["random_iid", "symmetric_wigner"])
def test_a_random_draw_makes_no_eigendecomposition(monkeypatch, regime):
    from reskernel import numerics

    calls = []
    decompose = numerics.sym_eig

    def counted(matrix):
        calls.append(matrix.shape)
        return decompose(matrix)

    monkeypatch.setattr(numerics, "sym_eig", counted)
    _, sigma = draw_reservoir(ReservoirSpec(regime, 20, 0.9), Seed(5))
    assert sigma > 0.0
    assert calls == []


def test_symmetric_reservoir_is_exactly_symmetric():
    spec = ReservoirSpec(regime="symmetric_wigner", size=12, nu=0.9)
    w = generate_reservoir(spec, Seed(4))
    assert np.array_equal(w, w.T)


def test_reservoir_generation_is_deterministic_and_seed_sensitive():
    spec = ReservoirSpec(regime="random_iid", size=8, nu=0.7)
    first = generate_reservoir(spec, Seed(5))
    second = generate_reservoir(spec, Seed(5))
    other = generate_reservoir(spec, Seed(6))
    assert np.array_equal(first, second)
    assert not np.array_equal(first, other)


def test_reservoir_and_input_streams_are_independent():
    # Same base seed must not leak the same draws into both objects.
    res = generate_reservoir(ReservoirSpec(regime="random_iid", size=5, nu=0.5),
                             Seed(123))
    inp = generate_input(InputCouplingSpec(kind="gaussian", size=5,
                                           normalize_unit=False), Seed(123))
    assert not np.array_equal(res[0], inp)
    assert not np.array_equal(res[:, 0], inp)


@pytest.mark.parametrize("kwargs", [
    dict(regime="random_iid", size=0, nu=0.5),
    dict(regime="random_iid", size=3, nu=0.0),
    dict(regime="random_iid", size=3, nu=1.0000001),
    dict(regime="moebius", size=3, nu=0.5),
    dict(regime="random_iid", size=3, nu=0.5, distribution="cauchy"),
])
def test_reservoir_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ContractViolation):
        ReservoirSpec(**kwargs)


@pytest.mark.parametrize("regime, size, distribution", [
    ("moebius", 3, "gaussian"),
    ("cycle_permutation", 0, "gaussian"),
    ("cycle_permutation", 3, "cauchy"),
    ("random_iid", 3, "cauchy"),
])
def test_reservoir_spec_rejects_bad_draw_parameters(regime, size, distribution):
    # The spec is the one place a draw's regime, size and distribution are
    # checked, the cycle's unused distribution included.
    with pytest.raises(ContractViolation):
        ReservoirSpec(regime, size, 0.9, distribution)


# (sha256 prefix of the raw matrix's bytes, float.hex of sigma) per regime
# and distribution at N = 7, seed 11, as the draw gave them when it took
# (regime, size, distribution, seed).
_DRAW_BYTES = {
    ("random_iid", "gaussian"): ("dc48fee546c2f810", "0x1.c9e81c9387b5ap+1"),
    ("random_iid", "rademacher"): ("d0de28dfd2a4abff", "0x1.03dbf005d498dp+2"),
    ("symmetric_wigner", "gaussian"): ("d2e8f78563828364", "0x1.e39c96956557ap+1"),
    ("symmetric_wigner", "rademacher"): ("ee7ebc7ce6a29c6b", "0x1.0fe096a869fabp+2"),
    ("cycle_permutation", "gaussian"): ("d6831bf806f742b6", "0x1.0000000000000p+0"),
    ("cycle_permutation", "rademacher"): ("d6831bf806f742b6", "0x1.0000000000000p+0"),
}


@pytest.mark.parametrize("regime, distribution", sorted(_DRAW_BYTES))
def test_draw_from_a_spec_keeps_the_bytes_of_the_draw(regime, distribution):
    raw, sigma = draw_reservoir(ReservoirSpec(regime, 7, 0.5, distribution), Seed(11))
    assert (oracles.digest(raw), sigma.hex()) == _DRAW_BYTES[regime, distribution]


# sha256 prefix of the bytes of the 25 draws and their singular values (N in
# {1, 2, 7, 50, 200}, seeds 0..4) per random regime and distribution, as the
# rescale gave them when it solved its own eigenvalue problem inline.
_RESERVOIR_DRAW_BYTES = {
    ("random_iid", "gaussian"): "d75d42bbf13e80d1",
    ("random_iid", "rademacher"): "b592997836070fd4",
    ("random_iid", "uniform"): "6c08b274fb3a8b11",
    ("symmetric_wigner", "gaussian"): "4040ce68e04d7dca",
    ("symmetric_wigner", "rademacher"): "b962b3b8b0bbd358",
    ("symmetric_wigner", "uniform"): "0624c767e856ee50",
}


@pytest.mark.parametrize("regime, distribution", sorted(_RESERVOIR_DRAW_BYTES))
def test_random_reservoirs_keep_the_bytes_of_the_draw(regime, distribution):
    arrays = []
    for n in (1, 2, 7, 50, 200):
        for s in range(5):
            raw, sigma = draw_reservoir(ReservoirSpec(regime, n, 0.9, distribution), Seed(s))
            arrays += [raw, np.array([sigma])]
    assert oracles.digest(*arrays) == _RESERVOIR_DRAW_BYTES[regime, distribution]


# sha256 prefix of the bytes of the 80 vectors (N in {1, 7, 100, 1000}, seeds
# 0..19) per random input kind and normalize flag, as the draw gave them when
# each kind had its own sampling branch.
_INPUT_DRAW_BYTES = {
    ("gaussian", False): "f5298c08720a329f",
    ("gaussian", True): "cd02fa18c1f33c57",
    ("uniform", False): "5d05c0d20c39e9a7",
    ("uniform", True): "995788bcd2e74e59",
    ("ones_random_signs", False): "b09ee6f5449692c0",
    ("ones_random_signs", True): "1f5ed3580d37a4ad",
}


@pytest.mark.parametrize("kind, normalize", sorted(_INPUT_DRAW_BYTES))
def test_random_couplings_keep_the_bytes_of_the_draw(kind, normalize):
    vectors = [generate_input(InputCouplingSpec(kind, n, normalize_unit=normalize), Seed(s))
               for n in (1, 7, 100, 1000) for s in range(20)]
    assert oracles.digest(*vectors) == _INPUT_DRAW_BYTES[kind, normalize]


# Every public entry point that takes nu, each with otherwise valid arguments.
_NU_USERS = {
    "ReservoirSpec": lambda nu: ReservoirSpec(regime="cycle_permutation", size=4, nu=nu),
    "predict_random": lambda nu: predict_random(nu, np.ones(4), 8),
    "predict_cycle": lambda nu: predict_cycle(nu, np.full(4, 0.5), 8),
    "SweepConfig": lambda nu: SweepConfig(nu_values=(nu,), state_dim=4),
}


@pytest.mark.parametrize("user", sorted(_NU_USERS))
@pytest.mark.parametrize("nu", [0.0, -0.5, 1.5, np.nan, np.inf])
def test_every_nu_user_rejects_nu_outside_the_unit_interval(user, nu):
    with pytest.raises(ContractViolation, match=r"nu must lie in \(0, 1\]"):
        _NU_USERS[user](nu)


@pytest.mark.parametrize("user", sorted(_NU_USERS))
def test_every_nu_user_accepts_nu_one(user):
    _NU_USERS[user](1.0)


# Every public entry point that checks a count, size or degree, each with
# otherwise valid arguments.
_POSITIVE_INT_USERS = {
    "ReservoirSpec.size": lambda k: ReservoirSpec("cycle_permutation", k, 0.9),
    "InputCouplingSpec.size": lambda k: InputCouplingSpec("gaussian", k),
    "InputCouplingSpec.period": lambda k: InputCouplingSpec("periodic_binary", 4, period=k),
    "irrational_bits.count": lambda k: irrational_bits("pi", k),
    "build_metric_tensor.horizon": lambda k: build_metric_tensor(np.eye(2), np.ones(2), k),
    "predict_random.horizon": lambda k: predict_random(0.9, np.ones(4), k),
    "predict_cycle.horizon": lambda k: predict_cycle(0.9, np.full(2, 0.5), k),
    "kernel_poly.degree": lambda k: kernel_poly(MetricTensor(np.eye(2)), TimeSeries(np.ones(2)),
                                                TimeSeries(np.ones(2)), 0.0, k),
    "SweepConfig.trials": lambda k: SweepConfig(nu_values=(0.9,), trials=k, state_dim=4),
    "SweepConfig.state_dim": lambda k: SweepConfig(nu_values=(0.9,), state_dim=k),
    "SweepConfig.horizon": lambda k: SweepConfig(nu_values=(0.9,), horizon=k, state_dim=4),
    "BoundParams.horizon": lambda k: BoundParams(1.0, 1.0, 0.95, 1e3, k),
    "predict_symmetric.horizon": lambda k: predict_symmetric(np.eye(2), np.ones(2), k),
    "run_kernel_state_equivalence.n_configs": lambda k: run_kernel_state_equivalence(k),
    "run_spectrum_properties.n_configs": lambda k: run_spectrum_properties(k),
    "run_initial_state_error_containment.trials":
        lambda k: run_initial_state_error_containment(k),
}
# Counts that take None: the sweep's for a default, and the period for none.
_OPTIONAL_COUNTS = {"SweepConfig.trials", "SweepConfig.horizon", "InputCouplingSpec.period"}


@pytest.mark.parametrize("user", sorted(_POSITIVE_INT_USERS))
@pytest.mark.parametrize("value", [0, -3, 1.5, 2.0, True, "2", np.int64(2)])
def test_every_count_user_rejects_what_is_not_a_positive_int(user, value):
    with pytest.raises(ContractViolation, match="must be a positive integer"):
        _POSITIVE_INT_USERS[user](value)


@pytest.mark.parametrize("user", sorted(set(_POSITIVE_INT_USERS) - _OPTIONAL_COUNTS))
def test_every_required_count_rejects_none(user):
    with pytest.raises(ContractViolation, match="must be a positive integer"):
        _POSITIVE_INT_USERS[user](None)


@pytest.mark.parametrize("user", sorted(_POSITIVE_INT_USERS))
def test_every_count_user_accepts_a_positive_int(user):
    _POSITIVE_INT_USERS[user](2)


def test_coupling_spec_gives_a_shared_period_to_the_periodic_kinds_only():
    assert coupling_spec("periodic_binary", 6, 3) == InputCouplingSpec("periodic_binary", 6, 3)
    assert coupling_spec("ones_pi_signs", 6, 3) == InputCouplingSpec("ones_pi_signs", 6)
    assert coupling_spec("gaussian", 6, None, False) == InputCouplingSpec(
        "gaussian", 6, normalize_unit=False)
    with pytest.raises(ContractViolation, match="periodic_bipolar requires a period"):
        coupling_spec("periodic_bipolar", 6, None)


def test_reservoir_spec_allows_nu_one():
    spec = ReservoirSpec(regime="cycle_permutation", size=4, nu=1.0)
    w = generate_reservoir(spec, Seed(0))
    assert largest_singular_value(w) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# input couplings
# ---------------------------------------------------------------------------

def test_periodic_binary_pattern_before_normalization():
    spec = InputCouplingSpec(kind="periodic_binary", size=6, period=3,
                             normalize_unit=False)
    assert np.array_equal(generate_input(spec, Seed(0)),
                          [1.0, 0.0, 0.0, 1.0, 0.0, 0.0])


def test_periodic_bipolar_pattern_before_normalization():
    spec = InputCouplingSpec(kind="periodic_bipolar", size=8, period=4,
                             normalize_unit=False)
    assert np.array_equal(generate_input(spec, Seed(0)),
                          [1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0])


def test_pi_sign_vector_matches_tabulated_bits():
    spec = InputCouplingSpec(kind="ones_pi_signs", size=16, normalize_unit=False)
    bits = [0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
    expected = np.array([2.0 * b - 1.0 for b in bits])
    assert np.array_equal(generate_input(spec, Seed(9)), expected)


def test_pi_sign_vector_normalized_exactly():
    spec = InputCouplingSpec(kind="ones_pi_signs", size=4)
    assert np.array_equal(generate_input(spec, Seed(0)),
                          [-0.5, -0.5, 0.5, -0.5])


def test_normalized_couplings_have_unit_norm():
    for kind in INPUT_KINDS:
        period = 4 if kind.startswith("periodic") else None
        spec = InputCouplingSpec(kind=kind, size=12, period=period)
        vec = generate_input(spec, Seed(31))
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12, kind


def test_normalization_preserves_periodicity_exactly():
    for kind in ("periodic_binary", "periodic_bipolar"):
        spec = InputCouplingSpec(kind=kind, size=12, period=3)
        vec = generate_input(spec, Seed(0))
        assert np.array_equal(vec[:3], vec[3:6])
        assert np.array_equal(vec[:3], vec[9:])


def test_irrational_sign_vectors_are_aperiodic():
    for kind in ("ones_pi_signs", "ones_e_signs"):
        spec = InputCouplingSpec(kind=kind, size=100, normalize_unit=False)
        vec = generate_input(spec, Seed(0))
        for p in (1, 2, 4, 5, 10, 20, 25):
            assert np.any(vec[:100 - p] != vec[p:]), (kind, p)


def test_uniform_and_rademacher_ranges():
    uni = generate_input(InputCouplingSpec(kind="uniform", size=200,
                                           normalize_unit=False), Seed(1))
    assert np.all(np.abs(uni) <= 1.0)
    assert np.std(uni) > 0.1
    rad = generate_input(InputCouplingSpec(kind="ones_random_signs", size=200,
                                           normalize_unit=False), Seed(1))
    assert set(np.unique(rad)) == {-1.0, 1.0}


def test_input_generation_is_deterministic_and_seed_sensitive():
    spec = InputCouplingSpec(kind="gaussian", size=16)
    assert np.array_equal(generate_input(spec, Seed(2)),
                          generate_input(spec, Seed(2)))
    assert not np.array_equal(generate_input(spec, Seed(2)),
                              generate_input(spec, Seed(3)))


@pytest.mark.parametrize("kwargs", [
    dict(kind="periodic_binary", size=8),
    dict(kind="periodic_binary", size=8, period=3),
    dict(kind="periodic_binary", size=8, period=0),
    dict(kind="gaussian", size=8, period=2),
    dict(kind="white_noise", size=8),
    dict(kind="gaussian", size=0),
])
def test_input_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ContractViolation):
        InputCouplingSpec(**kwargs)


# ---------------------------------------------------------------------------
# binary digits of pi and e
# ---------------------------------------------------------------------------

def test_irrational_bits_leading_digits():
    assert np.array_equal(irrational_bits("pi", 8), [0, 0, 1, 0, 0, 1, 0, 0])
    assert np.array_equal(irrational_bits("e", 8), [1, 0, 1, 1, 0, 1, 1, 1])
    assert np.array_equal(irrational_bits("pi", 1), [0])


def test_irrational_bits_match_exact_series_expansion():
    # 1024 bits against exact rational arithmetic: the BBP tail after 260
    # terms is below 16**-260 = 2**-1040, and the factorial tail after 200
    # terms is below 2 / 200! < 2**-1200.
    assert list(irrational_bits("pi", 1024)) == oracles.fractional_bits(
        oracles.pi_fraction(terms=260), 1024)
    assert list(irrational_bits("e", 1024)) == oracles.fractional_bits(
        oracles.e_fraction(terms=200), 1024)


@pytest.mark.parametrize("args", [("pi", 0), ("phi", 8), ("pi", 2.5)])
def test_irrational_bits_rejects_bad_requests(args):
    with pytest.raises(ContractViolation):
        irrational_bits(*args)
