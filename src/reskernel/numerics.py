"""Dense linear-algebra primitives with pinned ordering and sign conventions.

Everything downstream (motif extraction, spectral predictions, richness
measures) assumes a single eigendecomposition convention, fixed here once:

* eigenvalues sorted in descending order, ties broken by the stable index
  of the underlying solver output;
* each eigenvector scaled so that its largest-magnitude component is
  positive, the lowest index winning ties;
* results are bit-identical for identical inputs on a given platform.

Matrices and vectors are plain numpy arrays (float64, or complex128 for
spectra of discrete Fourier transforms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ConvergenceError

# Absolute tolerance under which an input matrix counts as symmetric.
SYMMETRY_ATOL = 1e-12
# numerical_rank counts the eigenvalues above this share of the largest.
RANK_RTOL = 1e-10

# Post-conditions enforced on every decomposition we hand out.
_ORTHONORMALITY_TOL = 1e-9
_RECONSTRUCTION_RTOL = 1e-8


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization ``A = M diag(values) M^T``.

    Attributes
    ----------
    eigenvalues : (n,) ndarray
        Sorted in descending order.
    eigenvectors : (n, n) ndarray
        Column ``i`` pairs with ``eigenvalues[i]``; columns are orthonormal
        and sign-normalized as documented in the module docstring.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ContractViolation(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.size == 0:
        raise ContractViolation(f"{name} must be non-empty")
    if not np.all(np.isfinite(m)):
        raise ContractViolation(f"{name} contains non-finite entries")
    return m


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """``a`` as a non-empty, 2-D, square, finite matrix: the one square-matrix rule."""
    m = _as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ContractViolation(f"{name} must be square, got shape {m.shape}")
    return m


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # argmax returns the first occurrence, so magnitude ties resolve to the
    # lowest index as required.
    idx = np.argmax(np.abs(vectors), axis=0)
    anchors = vectors[idx, np.arange(vectors.shape[1])]
    flip = anchors < 0.0
    if np.any(flip):
        vectors = vectors.copy()
        vectors[:, flip] *= -1.0
    return vectors


def sym_eig(a) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    a : (n, n) array_like
        Must be symmetric within ``SYMMETRY_ATOL`` absolute deviation.

    Returns
    -------
    EigenDecomposition
        Eigenvalues descending, eigenvectors orthonormal and
        sign-normalized.

    Raises
    ------
    ContractViolation
        If ``a`` is not square or not symmetric within tolerance.
    ConvergenceError
        If the solver fails or the factorization misses the orthonormality
        or reconstruction targets.
    """
    m = as_square_matrix(a)
    asym = float(np.max(np.abs(m - m.T)))
    if asym > SYMMETRY_ATOL:
        raise ContractViolation(
            f"matrix is not symmetric: max |A - A^T| = {asym:.3e} exceeds {SYMMETRY_ATOL:.0e}"
        )
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc

    # eigh returns ascending order; a stable sort on the negated values keeps
    # the solver's index order within tied groups.
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = _fix_signs(vectors[:, order])

    ortho = float(np.max(np.abs(vectors.T @ vectors - np.eye(m.shape[0]))))
    if ortho > _ORTHONORMALITY_TOL:
        raise ConvergenceError("eigenvectors lost orthonormality", residual=ortho)
    scale = float(np.max(np.abs(m)))
    recon = float(np.max(np.abs(m - (vectors * values) @ vectors.T)))
    if recon > _RECONSTRUCTION_RTOL * max(scale, np.finfo(float).tiny):
        raise ConvergenceError("eigendecomposition does not reconstruct input", residual=recon)
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


def symmetric_gram(a: np.ndarray) -> np.ndarray:
    """``A^T A`` made exactly symmetric: the BLAS product is symmetric only up
    to rounding, so it is averaged with its transpose (a no-op on its bits
    where it already is)."""
    gram = a.T @ a
    return 0.5 * (gram + gram.T)


def largest_singular_value(a) -> float:
    """Largest singular value of a real matrix.

    Computed as ``sqrt(max eigenvalue of A^T A)`` from the eigenvalues
    alone: one value is needed, so no eigenvectors are formed and no
    decomposition is checked.  Returns exactly 0.0 for a zero matrix.
    """
    try:
        top = np.linalg.eigvalsh(symmetric_gram(_as_matrix(a)))[-1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    return float(np.sqrt(max(top, 0.0)))


def dft(v) -> np.ndarray:
    """Unnormalized forward discrete Fourier transform along the last axis.

    Entry ``k`` of each row equals ``sum_j v[j] * exp(-2i*pi*j*k/n)``.  A
    ``(k, n)`` array is transformed in one call, with the same bits as
    transforming its rows one at a time.
    """
    arr = np.asarray(v)
    if arr.ndim == 0 or arr.size == 0:
        raise ContractViolation("dft expects a non-empty array of at least one dimension")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation("dft input contains non-finite entries")
    return np.fft.fft(np.asarray(arr, dtype=complex))


def numerical_rank(eigenvalues) -> int:
    """Number of eigenvalues above ``RANK_RTOL * max(largest eigenvalue, 0)``.

    Parameters
    ----------
    eigenvalues : (n,) array_like
        Must already be sorted in descending order.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    if ev.ndim != 1:
        raise ContractViolation("eigenvalues must form a 1-dimensional vector")
    if ev.size == 0:
        return 0
    if not np.all(np.isfinite(ev)):
        raise ContractViolation("eigenvalues contain non-finite entries")
    if np.any(np.diff(ev) > 0.0):
        raise ContractViolation("eigenvalues must be sorted in descending order")
    cut = RANK_RTOL * max(float(ev[0]), 0.0)
    return int(np.sum(ev > cut))
