"""Eigendecomposition, singular values, transforms, and rank counting."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from reskernel import (
    BoundParams,
    ContractViolation,
    ConvergenceError,
    InputCouplingSpec,
    MetricTensor,
    MotifPrediction,
    MotifSet,
    PsdViolationError,
    ReadoutModel,
    ReservoirSpec,
    Seed,
    SweepConfig,
    TimeSeries,
    build_metric_tensor,
    dft,
    extract_motifs,
    grid_summary,
    kernel_poly,
    largest_singular_value,
    minimal_state_scale,
    numerical_rank,
    predict_cycle,
    predict_random,
    scale_metric_tensor,
    simulate_state,
    sym_eig,
    sym_eigvals,
)
from reskernel.coupling import generate_reservoir
from reskernel.numerics import effective_horizon, fix_signs, symmetric_gram


def _random_symmetric(rng, n):
    g = rng.normal(size=(n, n))
    return 0.5 * (g + g.T)


# ---------------------------------------------------------------------------
# sym_eig
# ---------------------------------------------------------------------------

def test_sym_eig_diagonal_two_by_two():
    decomp = sym_eig(np.diag([2.0, 1.0]))
    assert np.array_equal(decomp.eigenvalues, [2.0, 1.0])
    assert np.array_equal(decomp.eigenvectors, np.eye(2))


def test_sym_eig_swap_matrix_values_and_sign_convention():
    decomp = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(decomp.eigenvalues, [1.0, -1.0], atol=1e-14)
    s = 1.0 / np.sqrt(2.0)
    # Largest-magnitude component of each eigenvector is positive; ties go
    # to the earliest index.
    assert np.allclose(decomp.eigenvectors[:, 0], [s, s], atol=1e-14)
    assert np.allclose(decomp.eigenvectors[:, 1], [s, -s], atol=1e-14)


def test_sym_eig_identity_is_exact():
    decomp = sym_eig(np.eye(3))
    assert np.array_equal(decomp.eigenvalues, np.ones(3))
    assert np.array_equal(decomp.eigenvectors, np.eye(3))


def test_sym_eig_matches_independent_qr_iteration():
    rng = np.random.default_rng(5)
    for _ in range(4):
        a = _random_symmetric(rng, 8)
        scale = np.max(np.abs(a))
        got = sym_eig(a)
        ref_values, ref_vectors = oracles.eig_symmetric(a)
        assert np.max(np.abs(got.eigenvalues - ref_values)) < 1e-8 * scale
        gaps = np.min(np.abs(np.diff(ref_values)))
        if gaps > 1e-6 * scale:
            overlaps = np.abs(np.sum(got.eigenvectors * ref_vectors, axis=0))
            assert np.min(overlaps) > 1.0 - 1e-8


def test_sym_eig_descending_order_and_orthonormal_columns():
    rng = np.random.default_rng(21)
    a = _random_symmetric(rng, 12)
    decomp = sym_eig(a)
    assert np.all(np.diff(decomp.eigenvalues) <= 0.0)
    gram = decomp.eigenvectors.T @ decomp.eigenvectors
    assert np.max(np.abs(gram - np.eye(12))) < 1e-12


def test_sym_eig_is_bit_deterministic():
    rng = np.random.default_rng(9)
    a = _random_symmetric(rng, 10)
    first = sym_eig(a)
    second = sym_eig(a)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**32 - 1))
def test_sym_eig_eigenpair_residual_property(n, seed):
    rng = np.random.default_rng(seed)
    a = _random_symmetric(rng, n)
    decomp = sym_eig(a)
    scale = max(np.max(np.abs(a)), np.finfo(float).tiny)
    residual = a @ decomp.eigenvectors - decomp.eigenvectors * decomp.eigenvalues
    assert np.max(np.abs(residual)) <= 1e-8 * scale


@pytest.mark.parametrize("bad", [
    np.zeros((2, 3)),
    np.zeros((0, 0)),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
    np.array([[1.0, 2.0], [2.001, 1.0]]),
    np.ones(4),
    np.ones((2, 2, 2)),
])
def test_sym_eig_rejects_malformed_input(bad):
    with pytest.raises(ContractViolation):
        sym_eig(bad)


# ---------------------------------------------------------------------------
# sym_eigvals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_sym_eigvals_is_the_descending_spectrum_of_sym_eig(n):
    a = _random_symmetric(np.random.default_rng(n), n)
    values = sym_eigvals(a)
    assert values.shape == (n,)
    assert np.all(np.diff(values) <= 0.0)
    assert np.allclose(values, sym_eig(a).eigenvalues, rtol=0.0,
                       atol=1e-12 * np.max(np.abs(a)))
    assert np.array_equal(values, np.linalg.eigvalsh(a)[::-1])


@pytest.mark.parametrize("bad", [
    np.zeros((2, 3)),
    np.zeros((0, 0)),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
    np.array([[1.0, 2.0], [2.001, 1.0]]),
    np.ones(4),
    np.ones((2, 2, 2)),
])
def test_sym_eigvals_rejects_what_sym_eig_rejects(bad):
    with pytest.raises(ContractViolation) as values_only:
        sym_eigvals(bad)
    with pytest.raises(ContractViolation) as with_vectors:
        sym_eig(bad)
    assert str(values_only.value) == str(with_vectors.value)


@pytest.mark.parametrize("solver, route", [
    ("eigh", sym_eig),
    ("eigvalsh", sym_eigvals),
    ("eigvalsh", largest_singular_value),
])
def test_a_solver_failure_is_a_convergence_error(monkeypatch, solver, route):
    def failing(matrix):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, solver, failing)
    with pytest.raises(ConvergenceError, match="^eigensolver failed: no convergence$"):
        route(np.eye(3))


def _sorted_and_signed(values, vectors):
    """The pairs sym_eig checks: descending, stable within ties, sign-fixed."""
    order = np.argsort(-values, kind="stable")
    return values[order], fix_signs(vectors[:, order])


@pytest.mark.parametrize("n", [6, 200])
def test_eigenvectors_that_are_not_orthonormal_are_a_convergence_error(monkeypatch, n):
    a = _random_symmetric(np.random.default_rng(n), n)
    values, vectors = np.linalg.eigh(a)
    vectors[:, 2] *= 1.001
    monkeypatch.setattr(np.linalg, "eigh", lambda matrix: (values, vectors))
    with pytest.raises(ConvergenceError, match="^eigenvectors lost orthonormality") as err:
        sym_eig(a)
    _, m = _sorted_and_signed(values, vectors)
    assert err.value.residual == float(np.max(np.abs(m.T @ m - np.eye(n))))


@pytest.mark.parametrize("n", [6, 200])
def test_eigenvalues_that_do_not_rebuild_the_input_are_a_convergence_error(monkeypatch, n):
    a = _random_symmetric(np.random.default_rng(n), n)
    values, vectors = np.linalg.eigh(a)
    wrong = values + 0.5  # same order, orthonormal vectors: only the rebuild fails
    monkeypatch.setattr(np.linalg, "eigh", lambda matrix: (wrong, vectors))
    with pytest.raises(ConvergenceError,
                       match="^eigendecomposition does not reconstruct input") as err:
        sym_eig(a)
    w, m = _sorted_and_signed(wrong, vectors)
    assert err.value.residual == float(np.max(np.abs(a - (m * w) @ m.T)))


def test_sym_eig_holds_two_square_arrays_beside_its_input_and_result():
    # Each n x n array stays under the 256 KiB above which numpy reuses a
    # temporary operand by itself, so the count is the one the code makes.
    n = 150
    a = _random_symmetric(np.random.default_rng(4), n)
    sym_eig(a)
    tracemalloc.start()
    try:
        sym_eig(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # k = 3 arrays of 8 n^2 bytes: the returned eigenvectors and two work
    # arrays, which are the solver's eigenvectors while they are reordered,
    # then M^T M - I made in place, then the rebuilt input and its difference
    # from A.  Forming M^T M, I and their difference apart makes k = 4.
    assert peak < 3.25 * 8 * n * n


# ---------------------------------------------------------------------------
# largest_singular_value
# ---------------------------------------------------------------------------

def test_largest_singular_value_diagonal():
    assert largest_singular_value(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-12)


def test_largest_singular_value_of_permutation_and_scaling():
    p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert largest_singular_value(p) == pytest.approx(1.0, abs=1e-12)
    assert largest_singular_value(-2.5 * p) == pytest.approx(2.5, abs=1e-12)


def test_largest_singular_value_matches_svd():
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = rng.normal(size=(7, 7))
        ref = np.linalg.svd(a, compute_uv=False)[0]
        assert largest_singular_value(a) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("shape", [(1, 1), (7, 7), (50, 50), (100, 100), (9, 4), (4, 9)])
def test_largest_singular_value_matches_svd_tightly(shape):
    a = np.random.default_rng(shape[0] * shape[1]).normal(size=shape)
    ref = np.linalg.svd(a, compute_uv=False)[0]
    assert abs(largest_singular_value(a) - ref) <= 1e-12 * ref


def test_largest_singular_value_of_a_zero_matrix_is_exactly_zero():
    assert largest_singular_value(np.zeros((6, 6))) == 0.0


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (40, 90), (90, 40)])
def test_symmetric_gram_is_exactly_symmetric_and_equals_the_product(shape):
    a = np.random.default_rng(17).normal(size=shape)
    gram = symmetric_gram(a)
    assert gram.shape == (shape[1], shape[1])
    assert np.array_equal(gram, gram.T)
    assert np.allclose(gram, a.T @ a, rtol=0.0, atol=1e-12 * np.max(np.abs(a.T @ a)))


def test_largest_singular_value_rejects_nonfinite():
    with pytest.raises(ContractViolation):
        largest_singular_value(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_a_gram_matrix_that_overflows_is_reported_not_returned():
    with pytest.raises(ContractViolation, match="non-finite"):
        largest_singular_value(np.full((2, 2), 1e200))


# ---------------------------------------------------------------------------
# dft
# ---------------------------------------------------------------------------

def test_dft_known_vectors():
    assert np.allclose(dft(np.array([1.0, 0.0, 0.0, 0.0])), np.ones(4), atol=1e-12)
    assert np.allclose(dft(np.array([1.0, 1.0, 1.0, 1.0])),
                       [4.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(dft(np.array([0.0, 1.0, 0.0, 0.0])),
                       [1.0, -1.0j, -1.0, 1.0j], atol=1e-12)


def test_dft_matches_direct_summation():
    rng = np.random.default_rng(2)
    for n in (1, 2, 5, 16):
        v = rng.normal(size=n)
        assert np.max(np.abs(dft(v) - oracles.dft_direct(v))) < 1e-10 * max(1.0, n)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=16))
def test_dft_inverse_round_trip_property(values):
    v = np.array(values)
    back = oracles.inverse_dft_direct(dft(v))
    assert np.max(np.abs(back - v)) <= 1e-10 * max(1.0, np.max(np.abs(v)))


@pytest.mark.parametrize("bad", [np.zeros(0), np.zeros((2, 0)), np.array([1.0, np.nan]),
                                 np.array([[1.0, 2.0], [np.inf, 0.0]]), np.array(1.0)])
def test_dft_rejects_malformed_input(bad):
    with pytest.raises(ContractViolation):
        dft(bad)


@pytest.mark.parametrize("n", [199, 200])
def test_dft_of_real_rows_has_exactly_real_zero_and_half_coefficients(n):
    # The FFT leaves rounding in the imaginary part of entries 0 and n/2 of a
    # real row; dft zeroes exactly those and keeps every other entry's bits.
    rows = np.random.default_rng(n).normal(size=(40, n))
    raw = np.fft.fft(rows.astype(complex))
    real_at = [0, n // 2] if n % 2 == 0 else [0]
    assert np.count_nonzero(raw[:, real_at].imag) > 0
    out = dft(rows)
    assert not np.any(out[:, real_at].imag)
    assert out[:, real_at].real.tobytes() == raw[:, real_at].real.tobytes()
    rest = np.setdiff1d(np.arange(n), real_at)
    assert out[:, rest].tobytes() == raw[:, rest].tobytes()


def test_dft_of_complex_input_keeps_the_fft_bits():
    rng = np.random.default_rng(5)
    real_valued = rng.normal(size=(6, 200)).astype(complex)
    assert np.count_nonzero(np.fft.fft(real_valued)[:, [0, 100]].imag) > 0
    for rows in (real_valued, real_valued + 1j * rng.normal(size=(6, 200))):
        assert dft(rows).tobytes() == np.fft.fft(rows).tobytes()


@pytest.mark.parametrize("k, n", [(1, 1), (1, 7), (5, 16), (12, 12), (8, 200)])
def test_dft_of_a_matrix_transforms_each_row(k, n):
    # One call on a (k, n) array gives the bits of k calls on its rows.  The
    # transposed eigenvector block is laid out like the motif vectors.
    rng = np.random.default_rng(k * 1000 + n)
    a = rng.normal(size=(n, n))
    rows = np.linalg.eigh(a + a.T)[1][:, :k].T
    whole = dft(rows)
    assert whole.shape == (k, n)
    for i in range(k):
        single = dft(rows[i])
        assert whole[i].tobytes() == single.tobytes()
        assert np.max(np.abs(whole[i] - oracles.dft_direct(rows[i]))) < 1e-10 * max(1.0, n)


# ---------------------------------------------------------------------------
# numerical_rank
# ---------------------------------------------------------------------------

def test_numerical_rank_drops_tiny_tail():
    assert numerical_rank(np.array([4.0, 1.0, 1e-14])) == 2


def test_numerical_rank_of_zero_spectrum():
    assert numerical_rank(np.zeros(3)) == 0
    assert numerical_rank(np.zeros(0)) == 0


def test_numerical_rank_full_spectrum():
    assert numerical_rank(np.array([2.0, 1.5, 1.0])) == 3


def test_numerical_rank_rejects_ascending_or_bad_tol():
    with pytest.raises(ContractViolation):
        numerical_rank(np.array([1.0, 2.0]))
    with pytest.raises(ContractViolation):
        numerical_rank(np.array([1.0, np.nan]))


def test_rank_of_periodic_coupling_tensor_equals_period():
    # A 10-periodic coupling on a cycle spans exactly 10 directions, so the
    # tensor spectrum has rank 10 regardless of the state dimension.
    from reskernel import InputCouplingSpec, ReservoirSpec, Seed, build_metric_tensor
    from reskernel.coupling import generate_input, generate_reservoir

    res = generate_reservoir(ReservoirSpec(regime="cycle_permutation", size=20, nu=0.9),
                             Seed(0))
    coup = generate_input(InputCouplingSpec(kind="periodic_binary", size=20, period=10),
                          Seed(0))
    tensor = build_metric_tensor(res, coup, 40)
    spectrum = sym_eig(symmetric_gram(tensor.phi)).eigenvalues
    assert numerical_rank(spectrum) == 10


# ---------------------------------------------------------------------------
# effective_horizon
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rate", [0.25, 0.5, 0.8])
def test_the_effective_horizon_of_a_diagonal_reservoir_is_its_geometric_tail(rate):
    # Column i of Phi is rate^i w, so ||Phi[:, m:]||_F^2 = rate^(2m) ||w||^2 / (1 - rate^2)
    # up to a term rate^(2 tau) below rounding, against eps^2 ||w||^2 for the cut.
    tensor = build_metric_tensor(rate * np.eye(3), np.array([1.0, -2.0, 0.5]), 1000)
    eps = np.finfo(float).eps
    expected = math.ceil(math.log(eps * math.sqrt(1.0 - rate**2)) / math.log(rate))
    assert 0 < expected < tensor.horizon
    assert effective_horizon(tensor.phi) == expected


def test_the_effective_horizon_of_a_slowly_decaying_cycle_is_the_whole_horizon():
    n, tau, nu = 10, 100, 0.9  # nu^tau = 2.7e-5, far above eps
    reservoir = generate_reservoir(ReservoirSpec("cycle_permutation", n, nu), Seed(0))
    tensor = build_metric_tensor(reservoir, np.ones(n), tau)
    assert effective_horizon(tensor.phi) == tau


def test_the_effective_horizon_of_an_all_zero_feature_matrix_is_zero():
    assert effective_horizon(np.zeros((3, 8))) == 0


@pytest.mark.parametrize("bad, message", [
    (np.array([[1.0, np.nan]]), "feature matrix contains non-finite entries"),
    (np.array([[1e200, 1.0]]), "feature matrix contains non-finite entries"),  # squares overflow
    (np.zeros((2, 0)), "feature matrix must be non-empty"),
    (np.ones(3), "feature matrix must be 2-dimensional, got ndim=1"),
])
def test_the_effective_horizon_rejects_a_bad_feature_matrix(bad, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolation, match=f"^{message}$"):
            effective_horizon(bad)


# ---------------------------------------------------------------------------
# error types
# ---------------------------------------------------------------------------

def test_error_hierarchy_and_messages():
    assert issubclass(ContractViolation, ValueError)
    assert issubclass(ConvergenceError, RuntimeError)
    assert issubclass(PsdViolationError, RuntimeError)
    err = ConvergenceError("poorly conditioned", residual=0.5)
    assert "5.000e-01" in str(err)
    assert err.residual == 0.5
    psd = PsdViolationError("spectrum", -1.0, -1e-9)
    assert "below floor" in str(psd)
    assert psd.eigenvalue == -1.0
    assert psd.floor == -1e-9


# ---------------------------------------------------------------------------
# the array contract: every array input is checked finite
# ---------------------------------------------------------------------------

def _state(bad, where):
    arrays = {"reservoir": [[0.5, 0.0], [0.0, 0.5]], "coupling": [1.0, 0.0],
              "initial_state": [0.0, 0.0]}
    arrays[where] = np.array(arrays[where])
    arrays[where].flat[1] = bad
    return simulate_state(arrays["reservoir"], arrays["coupling"], TimeSeries([1.0]),
                          initial_state=arrays["initial_state"])


# One case per array argument: the call with the bad entry, and the name its
# message gives the argument.
_CONTRACT_CASES = [
    pytest.param(lambda bad: TimeSeries([1.0, bad]), "time series", id="TimeSeries.values"),
    pytest.param(lambda bad: MetricTensor(np.array([[1.0, bad]])), "metric tensor",
                 id="MetricTensor.phi"),
    pytest.param(lambda bad: MotifSet([[1.0, bad]], [1.0, 0.0]), "motif vectors",
                 id="MotifSet.vectors"),
    pytest.param(lambda bad: MotifSet([[1.0, 0.0]], [1.0, bad]), "spectrum",
                 id="MotifSet.spectrum"),
    pytest.param(lambda bad: MotifPrediction([[bad, 0.0]], [1.0], True), "predicted vectors",
                 id="MotifPrediction.vectors"),
    pytest.param(lambda bad: MotifPrediction([[1.0, 0.0]], [bad], True), "predicted weights",
                 id="MotifPrediction.weights"),
    pytest.param(lambda bad: ReadoutModel((TimeSeries([1.0]),), [bad]), "readout coefficients",
                 id="ReadoutModel.coefficients"),
    pytest.param(lambda bad: grid_summary(np.array([0.1 + 0.1j, bad]), [0.5, 0.5]),
                 "cloud points", id="grid_summary.points-real"),
    pytest.param(lambda bad: grid_summary(np.array([0.1 + 0.1j, complex(0.0, bad)]),
                                          [0.5, 0.5]),
                 "cloud points", id="grid_summary.points-imaginary"),
    pytest.param(lambda bad: grid_summary(np.array([0.1 + 0.1j, 0.2]), [bad, 1.0]),
                 "cloud weights", id="grid_summary.weights"),
    pytest.param(lambda bad: numerical_rank([1.0, bad]), "eigenvalues",
                 id="numerical_rank.eigenvalues"),
    pytest.param(lambda bad: _state(bad, "reservoir"), "reservoir",
                 id="simulate_state.reservoir"),
    pytest.param(lambda bad: _state(bad, "coupling"), "input coupling",
                 id="simulate_state.coupling"),
    pytest.param(lambda bad: _state(bad, "initial_state"), "initial state",
                 id="simulate_state.initial_state"),
]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call, name", _CONTRACT_CASES)
def test_a_non_finite_array_entry_is_rejected_by_name(call, name, bad):
    with pytest.raises(ContractViolation, match=f"^{name} contains non-finite entries$"):
        call(bad)


# Arrays that hold no real numbers, each of a kind numpy would otherwise
# convert to float: complex, flag, bytes, string, object, ragged.
_NOT_REAL = {
    "complex": np.array([1 + 2j, 3.0]),
    "bool": np.array([True, False]),
    "bytes": [b"1", b"2"],
    "str": ["abc", "1.0"],
    "object": np.array([1, 2], dtype=object),
    "ragged": [[1.0, 2.0], [3.0]],
}


@pytest.mark.parametrize("bad", list(_NOT_REAL.values()), ids=list(_NOT_REAL))
@pytest.mark.parametrize("call, name", [
    pytest.param(lambda bad: TimeSeries(bad), "time series", id="TimeSeries.values"),
    pytest.param(lambda bad: MetricTensor(bad), "metric tensor", id="MetricTensor.phi"),
    pytest.param(lambda bad: grid_summary(np.zeros(2), bad), "cloud weights",
                 id="grid_summary.weights"),
])
def test_an_array_of_anything_but_real_numbers_is_rejected_by_name(call, name, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolation, match=f"^{name} must be an array of real numbers$"):
            call(bad)


_NOT_COMPLEX = {kind: bad for kind, bad in _NOT_REAL.items() if kind != "complex"}


@pytest.mark.parametrize("bad", list(_NOT_COMPLEX.values()), ids=list(_NOT_COMPLEX))
def test_cloud_points_take_only_numbers(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolation,
                           match="^cloud points must be an array of complex numbers$"):
            grid_summary(bad, np.ones(len(bad)))


def test_integer_and_float_arrays_of_any_width_are_stored_as_float64():
    assert MetricTensor(np.eye(2, dtype=np.int32)).phi.dtype == np.float64
    assert TimeSeries(np.array([1, 2], dtype=np.uint8)).values.tolist() == [1.0, 2.0]
    assert TimeSeries(np.array([0.5], dtype=np.float32)).values.dtype == np.float64


# ---------------------------------------------------------------------------
# the scalar contract: every scalar parameter is an integer, a real number or
# a flag by the rules of reskernel.numerics, and keeps its own range.  The
# integer rule's table is _POSITIVE_INT_USERS in test_coupling.py.
# ---------------------------------------------------------------------------

_TENSOR = MetricTensor(np.eye(2))
_SERIES = TimeSeries([1.0, 2.0])
_BOUNDS = dict(signal_bound=1.0, coupling_bound=1.0, contraction_rate=0.95, state_scale=1e3,
               horizon=4)


def _bounds(**changed):
    return BoundParams(**{**_BOUNDS, **changed})


def _minimal(**changed):
    return minimal_state_scale(**{**dict(signal_bound=1.0, coupling_bound=1.0, nu=0.5,
                                         contraction_rate=0.9), **changed})


_NU = r"^nu must lie in \(0, 1\]$"
_THRESHOLD = r"^threshold_ratio must lie in \(0, 1\]$"

# One case per real parameter: the call with the bad value, and its message.
_REAL_CASES = [
    pytest.param(lambda bad: ReservoirSpec("cycle_permutation", 4, bad), _NU,
                 id="ReservoirSpec.nu"),
    pytest.param(lambda bad: SweepConfig(nu_values=(bad,), state_dim=4), _NU,
                 id="SweepConfig.nu_values"),
    pytest.param(lambda bad: predict_random(bad, np.ones(4), 8), _NU, id="predict_random.nu"),
    pytest.param(lambda bad: predict_cycle(bad, np.ones(4), 8), _NU, id="predict_cycle.nu"),
    pytest.param(lambda bad: scale_metric_tensor(_TENSOR, bad), "^nu must be finite$",
                 id="scale_metric_tensor.nu"),
    pytest.param(lambda bad: extract_motifs(_TENSOR, bad), _THRESHOLD,
                 id="extract_motifs.threshold_ratio"),
    pytest.param(lambda bad: SweepConfig(nu_values=(0.9,), state_dim=4, threshold_ratio=bad),
                 _THRESHOLD, id="SweepConfig.threshold_ratio"),
    pytest.param(lambda bad: kernel_poly(_TENSOR, _SERIES, _SERIES, bad, 2),
                 "^offset must be finite$", id="kernel_poly.offset"),
    pytest.param(lambda bad: ReadoutModel((), [], bad), "^bias must be finite$",
                 id="ReadoutModel.bias"),
    *[pytest.param(lambda bad, name=name: _bounds(**{name: bad}),
                   f"^{name} must be positive and finite$", id=f"BoundParams.{name}")
      for name in ("signal_bound", "coupling_bound", "state_scale")],
    pytest.param(lambda bad: _bounds(contraction_rate=bad),
                 r"^contraction_rate must lie in \(0, 1\)$", id="BoundParams.contraction_rate"),
    *[pytest.param(lambda bad, name=name: _minimal(**{name: bad}),
                   f"^{name} must be positive and finite$", id=f"minimal_state_scale.{name}")
      for name in ("signal_bound", "coupling_bound")],
    pytest.param(lambda bad: _minimal(nu=bad), "^need 0 < nu ", id="minimal_state_scale.nu"),
    pytest.param(lambda bad: _minimal(contraction_rate=bad), "< contraction_rate ",
                 id="minimal_state_scale.contraction_rate"),
]


@pytest.mark.parametrize("bad", ["0.5", None, 0.5j, True, np.array([0.5])],
                         ids=["str", "None", "complex", "bool", "array"])
@pytest.mark.parametrize("call, message", _REAL_CASES)
def test_a_real_parameter_takes_only_a_real_number(call, message, bad):
    with pytest.raises(ContractViolation, match=message):
        call(bad)


def test_numpy_reals_and_integers_are_real_numbers():
    assert ReservoirSpec("cycle_permutation", 4, np.float64(0.5)).nu == 0.5
    assert ReservoirSpec("cycle_permutation", 4, np.int64(1)).nu == 1
    assert kernel_poly(_TENSOR, _SERIES, _SERIES, np.float32(1.0), 1) == 6.0


# One case per flag parameter: the call with the bad value, and its message.
_FLAG_CASES = [
    pytest.param(lambda bad: InputCouplingSpec("gaussian", 4, normalize_unit=bad),
                 "^normalize_unit must be a bool$", id="InputCouplingSpec.normalize_unit"),
    pytest.param(lambda bad: SweepConfig(nu_values=(0.9,), state_dim=4, normalize_unit=bad),
                 "^normalize_unit must be a bool$", id="SweepConfig.normalize_unit"),
    pytest.param(lambda bad: MotifPrediction(np.eye(2), [1.0, 0.5], bad),
                 "^orthonormal must be a bool$", id="MotifPrediction.orthonormal"),
]


@pytest.mark.parametrize("bad", ["false", 0, None], ids=["str", "zero", "None"])
@pytest.mark.parametrize("call, message", _FLAG_CASES)
def test_a_flag_parameter_takes_only_a_bool(call, message, bad):
    with pytest.raises(ContractViolation, match=message):
        call(bad)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_python_and_numpy_bools_are_flags(flag):
    assert InputCouplingSpec("gaussian", 4, normalize_unit=flag).normalize_unit == flag
    assert MotifPrediction(np.eye(2), [1.0, 0.5], flag).orthonormal == flag
