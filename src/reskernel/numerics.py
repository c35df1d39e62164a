"""Dense linear-algebra primitives with pinned ordering and sign conventions,
and the one home of the input rules: what a valid integer, real number,
flag, array, vector, reservoir pair, spectrum and PSD spectrum is.  Every
array input is checked finite; every scalar parameter is read through
:func:`is_int`, :func:`is_real` or :func:`is_flag`, and each caller keeps
its own range and message.

Everything downstream (motif extraction, spectral predictions, richness
measures) assumes a single eigendecomposition convention, fixed here once:

* eigenvalues sorted in descending order, ties broken by the stable index
  of the underlying solver output;
* each eigenvector scaled so that its largest-magnitude component is
  positive, the lowest index winning ties (:func:`fix_signs`, which a caller
  that forms eigenvectors of its own applies too);
* results are bit-identical for identical inputs on a given platform.

A symmetric eigenproblem has two routes that share one input rule and one
solver-failure error: :func:`sym_eig` for callers that read eigenvectors,
and :func:`sym_eigvals` for those that read only the spectrum.
:func:`effective_horizon` says how many leading columns of a feature matrix
lie above rounding, so an eigenproblem of ``Q`` can be cut to that block.

Matrices and vectors are plain numpy arrays (float64, or complex128 for
spectra of discrete Fourier transforms).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ConvergenceError, PsdViolationError

# Absolute tolerance under which an input matrix counts as symmetric.
SYMMETRY_ATOL = 1e-12
# numerical_rank counts the eigenvalues above this share of the largest.
RANK_RTOL = 1e-10
# Negative eigenvalues within this relative band of the top eigenvalue are
# treated as rounding noise and clamped to zero.
CLAMP_RTOL = 1e-9

# Post-conditions enforced on every decomposition we hand out.
_ORTHONORMALITY_TOL = 1e-9
_RECONSTRUCTION_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
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


def is_int(value) -> bool:
    """The one integer rule: a Python ``int`` that is not a ``bool``.  A numpy
    integer is not one, so every count, seed and seed key is a plain ``int``."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """The one real-number rule: a :class:`numbers.Real` that is not a flag,
    so Python and numpy reals (integers included) both count and a string,
    ``None``, a complex number or an array does not.  ``nan`` and ``inf``
    pass this rule; each caller states its range as an interval test, which
    rejects ``nan``, and ``-inf < x < inf`` where any finite value will do."""
    return isinstance(value, numbers.Real) and not is_flag(value)


def is_flag(value) -> bool:
    """The one flag rule: a ``bool`` or ``np.bool_``, never ``0``, ``1`` or a string."""
    return isinstance(value, (bool, np.bool_))


def check_positive_int(value, name: str) -> None:
    """Reject anything but an integer (:func:`is_int`) of at least 1, with the
    message ``"<name> must be a positive integer"``."""
    if not (is_int(value) and value >= 1):
        raise ContractViolation(f"{name} must be a positive integer")


def as_number_array(a, name: str, complex_ok: bool = False) -> np.ndarray:
    """``a`` as a float array, or a complex one where ``complex_ok``: the one
    rule for what an array holds.  Only integer and float arrays pass, and
    complex ones where ``complex_ok``; flags, strings, bytes, objects and
    ragged nestings raise ``"<name> must be an array of real numbers"`` (or
    ``complex numbers``).  A float64 array passes without a copy."""
    kinds, what = ("iufc", "complex") if complex_ok else ("iuf", "real")
    try:
        arr = np.asarray(a)
    except (ValueError, TypeError) as exc:
        raise ContractViolation(f"{name} must be an array of {what} numbers") from exc
    if arr.dtype.kind not in kinds:
        raise ContractViolation(f"{name} must be an array of {what} numbers")
    return arr.astype(complex if complex_ok else float, copy=False)


def as_finite_array(a, ndim: int, name: str) -> np.ndarray:
    """``a`` as a float array of ``ndim`` dimensions, every entry finite: the one
    array rule, on top of :func:`as_number_array`.  An empty array passes;
    callers check size and length themselves."""
    arr = as_number_array(a, name)
    if arr.ndim != ndim:
        raise ContractViolation(f"{name} must be {ndim}-dimensional, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation(f"{name} contains non-finite entries")
    return arr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """``a`` as a non-empty, 2-D, finite matrix: the one matrix rule."""
    m = as_finite_array(a, 2, name)
    if m.size == 0:
        raise ContractViolation(f"{name} must be non-empty")
    return m


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """``a`` as a non-empty, 2-D, square, finite matrix: the one square-matrix rule."""
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ContractViolation(f"{name} must be square, got shape {m.shape}")
    return m


def as_vector(a, name: str, length: int | None = None) -> np.ndarray:
    """``a`` as a non-empty, 1-D, finite vector, of ``length`` entries if given."""
    v = as_finite_array(a, 1, name)
    if v.size == 0:
        raise ContractViolation(f"{name} must be non-empty")
    if length is not None and v.shape[0] != length:
        raise ContractViolation(f"{name} length {v.shape[0]} is not the state dimension {length}")
    return v


def as_reservoir_pair(reservoir, coupling) -> tuple[np.ndarray, np.ndarray]:
    """The one reservoir-coupling rule: a square reservoir and a coupling of its size."""
    w_mat = as_square_matrix(reservoir, "reservoir")
    return w_mat, as_vector(coupling, "input coupling", w_mat.shape[0])


def as_spectrum(values, name: str) -> np.ndarray:
    """``values`` as a 1-D, finite, descending spectrum: the one spectrum rule."""
    ev = as_finite_array(values, 1, name)
    if np.any(np.diff(ev) > 0.0):
        raise ContractViolation(f"{name} must be sorted in descending order")
    return ev


def asymmetry(m: np.ndarray) -> float:
    """``max |A - A^T|``: a square matrix is symmetric when this is at most ``SYMMETRY_ATOL``."""
    diff = m - m.T
    return float(np.max(np.abs(diff, out=diff)))


def relative_negativity(values: np.ndarray) -> float:
    """How far a descending spectrum falls below zero relative to its top
    (``inf`` under a top that is not positive).  The one PSD rule: a
    spectrum is positive semidefinite when this is at most ``CLAMP_RTOL``."""
    top = max(float(values[0]), 0.0)
    neg = max(0.0, -float(values[-1]))
    return neg / top if top > 0.0 else (0.0 if neg == 0.0 else np.inf)


def clamp_spectrum(values: np.ndarray, what: str) -> np.ndarray:
    """A descending spectrum with its rounding-noise negatives set to zero;
    raises :class:`PsdViolationError`, naming ``what``, when it is not
    positive semidefinite by :func:`relative_negativity`."""
    if relative_negativity(values) > CLAMP_RTOL:
        raise PsdViolationError(f"{what} is not positive semidefinite", float(values[-1]),
                                -CLAMP_RTOL * max(float(values[0]), 0.0))
    return np.where(values < 0.0, 0.0, values)


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """The one sign rule: ``vectors`` with each column scaled by ``+1`` or ``-1``
    so that its largest-magnitude component is positive, the lowest index
    winning ties.  A column that already satisfies it keeps its bits."""
    # argmax returns the first occurrence, so magnitude ties resolve to the lowest
    # index; it reads C-ordered |vectors^T| along its rows and so copies nothing.
    idx = np.argmax(np.abs(vectors.T, order="C"), axis=1)
    anchors = vectors[idx, np.arange(vectors.shape[1])]
    flip = anchors < 0.0
    if np.any(flip):  # one C-ordered copy, as a product with +1.0 or -1.0 is exact
        vectors = np.multiply(vectors, np.where(flip, -1.0, 1.0), order="C")
    return vectors


def _solve_symmetric(a, solver):
    """``(m, solver(m))`` for ``m`` the input as a checked symmetric matrix:
    square, finite and within ``SYMMETRY_ATOL`` of its transpose.  The one
    place a solver failure becomes a :class:`ConvergenceError`."""
    m = as_square_matrix(a)
    asym = asymmetry(m)
    if asym > SYMMETRY_ATOL:
        raise ContractViolation(
            f"matrix is not symmetric: max |A - A^T| = {asym:.3e} exceeds {SYMMETRY_ATOL:.0e}"
        )
    try:
        return m, solver(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc


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
        If ``a`` is not square, not finite or not symmetric within tolerance.
    ConvergenceError
        If the solver fails or the factorization misses the orthonormality
        or reconstruction targets.

    Beside the input and the eigenvectors it holds at most two n x n arrays.
    """
    m, (values, vectors) = _solve_symmetric(a, np.linalg.eigh)

    # eigh returns ascending order; a stable sort on the negated values keeps
    # the solver's index order within tied groups.
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]  # the solver's copy is freed here
    vectors = fix_signs(vectors)

    ortho = vectors.T @ vectors
    ortho.flat[::ortho.shape[0] + 1] -= 1.0  # minus I: its zeros change no bit
    ortho = float(np.max(np.abs(ortho, out=ortho)))
    if ortho > _ORTHONORMALITY_TOL:
        raise ConvergenceError("eigenvectors lost orthonormality", residual=ortho)
    scale = float(np.max(np.abs(m)))
    recon = float(np.max(np.abs(m - (vectors * values) @ vectors.T)))
    if recon > _RECONSTRUCTION_RTOL * max(scale, np.finfo(float).tiny):
        raise ConvergenceError("eigendecomposition does not reconstruct input", residual=recon)
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


def sym_eigvals(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, in descending order, with no
    eigenvectors formed: the route for questions about the spectrum alone.

    The input rules and the solver-failure error are those of
    :func:`sym_eig`; no decomposition is formed, so none is checked.
    """
    _, values = _solve_symmetric(a, np.linalg.eigvalsh)
    return values[::-1]  # eigvalsh returns ascending order


def symmetric_gram(a: np.ndarray) -> np.ndarray:
    """``A^T A`` made exactly symmetric: the BLAS product is symmetric only up
    to rounding, so it is averaged in place with its transpose, which numpy
    copies (a no-op on its bits where it already is)."""
    gram = a.T @ a
    gram += gram.T
    gram *= 0.5
    return gram


def effective_horizon(phi) -> int:
    """The smallest ``m`` such that the Frobenius norm of ``phi[:, m:]`` is at
    most machine epsilon times the largest column norm of ``phi``; 0 for an
    all-zero ``phi``.

    Dropping those columns changes ``Q = Phi^T Phi`` by at most about
    ``2 eps ||Phi||_2^2`` in the 2-norm, the backward error of the
    eigensolver itself, so the eigenpairs of ``Q`` are those of the leading
    m x m block padded with exact zeros.  ``phi`` must be a non-empty, 2-D,
    finite matrix whose squared column norms are finite.
    """
    phi = as_matrix(phi, "feature matrix")
    with np.errstate(over="ignore", invalid="ignore"):  # as_finite_array reports it
        sq_norms = as_finite_array(np.einsum("ij,ij->j", phi, phi), 1, "feature matrix")
        # tail[m] is ||phi[:, m:]||_F^2; summed from the last column, so it never
        # falls toward column 0 and the columns above the cut are a prefix.  A
        # sum that overflows to inf still lies above the cut.
        tail = np.cumsum(sq_norms[::-1])[::-1]
    return int(np.count_nonzero(tail > np.finfo(float).eps ** 2 * np.max(sq_norms)))


def largest_singular_value(a) -> float:
    """Largest singular value of a finite real matrix.

    Computed as ``sqrt(max eigenvalue of A^T A)`` by :func:`sym_eigvals`:
    one value is needed, so no eigenvectors are formed.  Returns exactly
    0.0 for a zero matrix.  A Gram matrix that overflows is reported as
    ContractViolation.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # sym_eigvals reports it
        gram = symmetric_gram(as_matrix(a))
    return float(np.sqrt(max(sym_eigvals(gram)[0], 0.0)))


def dft(v) -> np.ndarray:
    """Unnormalized forward discrete Fourier transform along the last axis.

    Entry ``k`` of each row equals ``sum_j v[j] * exp(-2i*pi*j*k/n)``.  A
    ``(k, n)`` array is transformed in one call, with the same bits as
    transforming its rows one at a time.  For real input, entries 0 and
    ``n/2`` (``n`` even) are real, and their imaginary parts are exactly 0.0:
    the FFT leaves rounding there, whose sign would pick a richness grid cell.
    """
    arr = np.asarray(v)
    if arr.ndim == 0 or arr.size == 0:
        raise ContractViolation("dft expects a non-empty array of at least one dimension")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation("dft input contains non-finite entries")
    out = np.fft.fft(np.asarray(arr, dtype=complex))
    if np.isrealobj(arr):
        n = arr.shape[-1]
        out.imag[..., 0] = 0.0
        if n % 2 == 0:
            out.imag[..., n // 2] = 0.0
    return out


def numerical_rank(eigenvalues) -> int:
    """Number of eigenvalues above ``RANK_RTOL * max(largest eigenvalue, 0)``;
    ``eigenvalues`` must pass :func:`as_spectrum` (1-D, finite, descending)."""
    ev = as_spectrum(eigenvalues, "eigenvalues")
    if ev.size == 0:
        return 0
    cut = RANK_RTOL * max(float(ev[0]), 0.0)
    return int(np.sum(ev > cut))
