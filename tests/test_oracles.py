"""The reference routines themselves, checked against hand-computable cases.

If these fail, every cross-check downstream is meaningless, so they come
first and use nothing but pencil-and-paper values.
"""

from fractions import Fraction

import numpy as np
import pytest

import oracles


def test_householder_qr_reconstructs_and_is_orthogonal():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.normal(size=(6, 6))
        q, r = oracles.householder_qr(a)
        assert np.max(np.abs(q @ r - a)) < 1e-12
        assert np.max(np.abs(q.T @ q - np.eye(6))) < 1e-12
        assert np.max(np.abs(np.tril(r, -1))) < 1e-12


def test_eig_symmetric_on_diagonal_matrix():
    values, vectors = oracles.eig_symmetric(np.diag([2.0, 1.0]))
    assert np.allclose(values, [2.0, 1.0], atol=1e-13)
    assert np.allclose(np.abs(vectors), np.eye(2), atol=1e-13)


def test_eig_symmetric_on_swap_matrix():
    values, vectors = oracles.eig_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(values, [1.0, -1.0], atol=1e-13)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(vectors), [[s, s], [s, s]], atol=1e-12)


def test_eig_symmetric_random_reconstruction():
    rng = np.random.default_rng(7)
    for _ in range(6):
        g = rng.normal(size=(8, 8))
        a = 0.5 * (g + g.T)
        values, vectors = oracles.eig_symmetric(a)
        scale = np.max(np.abs(a))
        assert np.max(np.abs(vectors @ np.diag(values) @ vectors.T - a)) < 1e-11 * scale
        assert np.max(np.abs(vectors.T @ vectors - np.eye(8))) < 1e-11
        assert np.all(np.diff(values) <= 1e-13 * scale)


def test_exact_gram_is_taken_on_the_smaller_side_without_rounding():
    assert oracles.exact_gram([[1.0, 2.0, 0.0]]) == [[5]]
    assert oracles.exact_gram([[1.0], [2.0], [0.0]]) == [[5]]
    assert oracles.exact_gram([[0.1, 0.2]]) == [[Fraction(0.1) ** 2 + Fraction(0.2) ** 2]]
    assert oracles.exact_gram([[1.0, 0.0], [1.0, 1.0]]) == [[1, 1], [1, 2]]


def test_count_below_counts_eigenvalues_by_their_pivots():
    diagonal = [[Fraction(3), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(2)]]
    assert [oracles.count_below(diagonal, s) for s in (0.5, 1.5, 2.5, 3.5)] == [0, 1, 2, 3]
    # s = 2 is an eigenvalue: the last pivot is zero, s moves up by one ulp,
    # and the eigenvalue at s counts as below it.
    assert oracles.count_below(diagonal, 2.0) == 2
    # Eigenvalues -1 and 1: s = 0 is no eigenvalue, but a zero leading pivot.
    swap = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert [oracles.count_below(swap, s) for s in (-2.0, 0.0, 2.0)] == [0, 1, 2]


def test_state_by_powers_two_step_by_hand():
    # W = [[0, 0.6], [0.6, 0]], w = (1, 0), samples (3, 5) newest first:
    # x = 5*W@w + 3*w = (3, 3).
    w_mat = np.array([[0.0, 0.6], [0.6, 0.0]])
    w_vec = np.array([1.0, 0.0])
    state = oracles.state_by_powers(w_mat, w_vec, [3.0, 5.0])
    assert np.allclose(state, [3.0, 3.0], atol=1e-15)
    shifted = oracles.state_by_powers(w_mat, w_vec, [3.0, 5.0],
                                      initial_state=[1.0, 2.0])
    # adds W^2 @ x0 = 0.36 * x0
    assert np.allclose(shifted, [3.36, 3.72], atol=1e-15)


def test_metric_tensor_by_powers_scalar_case():
    q = oracles.metric_tensor_by_powers(np.array([[0.5]]), np.array([1.0]), 3)
    expected = np.array([[1.0, 0.5, 0.25],
                         [0.5, 0.25, 0.125],
                         [0.25, 0.125, 0.0625]])
    assert np.allclose(q, expected, atol=1e-15)


def test_dft_direct_known_vectors():
    assert np.allclose(oracles.dft_direct([1.0, 0.0, 0.0, 0.0]),
                       np.ones(4), atol=1e-12)
    assert np.allclose(oracles.dft_direct([1.0, 1.0, 1.0, 1.0]),
                       [4.0, 0.0, 0.0, 0.0], atol=1e-12)
    z = oracles.dft_direct([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(z, [1.0, -1.0j, -1.0, 1.0j], atol=1e-12)


def test_inverse_dft_direct_round_trip():
    rng = np.random.default_rng(3)
    v = rng.normal(size=9)
    back = oracles.inverse_dft_direct(oracles.dft_direct(v))
    assert np.max(np.abs(back - v)) < 1e-12


def test_pi_fraction_matches_float_pi():
    assert abs(float(oracles.pi_fraction()) - np.pi) < 1e-15


def test_e_fraction_matches_float_e():
    assert abs(float(oracles.e_fraction()) - np.e) < 1e-15


def test_fractional_bits_of_simple_rationals():
    from fractions import Fraction
    assert oracles.fractional_bits(Fraction(5, 8), 4) == [1, 0, 1, 0]
    assert oracles.fractional_bits(Fraction(1, 3), 6) == [0, 1, 0, 1, 0, 1]


def test_first_pi_and_e_bits_by_hand():
    # pi - 3 = 0.14159... so doubling gives 0.283, 0.566, 1.13, ...
    pi_bits = oracles.fractional_bits(oracles.pi_fraction(), 4)
    assert pi_bits == [0, 0, 1, 0]
    # e - 2 = 0.71828... so doubling gives 1.43, 0.87, 1.74, ...
    e_bits = oracles.fractional_bits(oracles.e_fraction(), 4)
    assert e_bits == [1, 0, 1, 1]


def test_scalar_motif_weight_small_cases():
    # nu = 0.5, horizon 2: sqrt(1 + 0.25)
    assert oracles.scalar_motif_weight(0.5, 2) == pytest.approx(np.sqrt(1.25),
                                                                rel=1e-15)
    assert oracles.scalar_motif_weight(1.0, 9) == 3.0


def test_periodic_cycle_weight_degenerate_case():
    # horizon equal to the period leaves the bare nu power.
    assert oracles.periodic_cycle_weight(0.9, 3, 5, 5) == pytest.approx(
        0.81, rel=1e-15)
