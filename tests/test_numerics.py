"""Eigendecomposition, singular values, transforms, and rank counting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from reskernel import (
    ContractViolation,
    ConvergenceError,
    PsdViolationError,
    dft,
    largest_singular_value,
    numerical_rank,
    sym_eig,
)
from reskernel.numerics import symmetric_gram


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
    spectrum = sym_eig(tensor.matrix).eigenvalues
    assert numerical_rank(spectrum) == 10


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
