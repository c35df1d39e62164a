"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive and self-contained: direct-summation
Fourier transforms, matrix-power state evolution, a hand-rolled shifted QR
eigensolver, exact-rational Grams and eigenvalue counts, and exact-rational
binary expansions.  Nothing imports from
:mod:`reskernel`, so agreement between these routines and the package is a
genuine two-route check rather than a tautology.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# dense linear algebra
# ---------------------------------------------------------------------------

def householder_qr(matrix):
    """QR factorization via Householder reflections.

    Parameters
    ----------
    matrix : array_like
        Real matrix of shape ``(m, n)``.

    Returns
    -------
    q : ndarray
        Orthogonal ``(m, m)`` factor.
    r : ndarray
        Upper-triangular ``(m, n)`` factor with ``q @ r`` equal to the input
        up to rounding.
    """
    a = np.array(matrix, dtype=float)
    m, n = a.shape
    q = np.eye(m)
    for k in range(min(m, n)):
        x = a[k:, k].copy()
        norm_x = math.sqrt(float(np.dot(x, x)))
        if norm_x == 0.0:
            continue
        v = x
        v[0] += math.copysign(norm_x, x[0])
        vnorm2 = float(np.dot(v, v))
        if vnorm2 == 0.0:
            continue
        a[k:, :] -= np.outer(v, (2.0 / vnorm2) * (v @ a[k:, :]))
        q[:, k:] -= np.outer(q[:, k:] @ v, (2.0 / vnorm2) * v)
    return q, a


def _wilkinson_shift(trailing):
    a11 = float(trailing[0, 0])
    a22 = float(trailing[1, 1])
    b = float(trailing[1, 0])
    if b == 0.0:
        return a22
    d = 0.5 * (a11 - a22)
    s = math.copysign(1.0, d) if d != 0.0 else 1.0
    return a22 - s * b * b / (abs(d) + math.hypot(d, b))


def eig_symmetric(matrix, rel_tol=1e-14, max_iterations=100000):
    """Symmetric eigendecomposition by shifted QR iteration with deflation.

    Parameters
    ----------
    matrix : array_like
        Real symmetric matrix.
    rel_tol : float
        Off-diagonal entries below ``rel_tol`` times the largest absolute
        entry of the input count as converged.
    max_iterations : int
        Hard stop on the number of QR steps.

    Returns
    -------
    values : ndarray
        Eigenvalues in descending order.
    vectors : ndarray
        Orthonormal eigenvectors as the columns, aligned with ``values``.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    work = a.copy()
    vectors = np.eye(n)
    scale = max(float(np.max(np.abs(a))), np.finfo(float).tiny)
    tol = rel_tol * scale
    m = n
    iterations = 0
    while m > 1:
        if float(np.max(np.abs(work[m - 1, :m - 1]))) <= tol:
            work[m - 1, :m - 1] = 0.0
            work[:m - 1, m - 1] = 0.0
            m -= 1
            continue
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError("QR iteration stalled")
        mu = _wilkinson_shift(work[m - 2:m, m - 2:m])
        q, r = householder_qr(work[:m, :m] - mu * np.eye(m))
        block = r @ q + mu * np.eye(m)
        work[:m, :m] = 0.5 * (block + block.T)
        vectors[:, :m] = vectors[:, :m] @ q
    values = np.diag(work).copy()
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]


# ---------------------------------------------------------------------------
# exact rational spectra
# ---------------------------------------------------------------------------

def exact_gram(phi):
    """The exact Gram matrix of a float matrix on its smaller side, as rows of
    Fractions: ``Phi Phi^T`` when ``Phi`` has no more rows than columns, else
    ``Phi^T Phi``.  Every float is a dyadic rational, so each entry is exact,
    and both Grams have the same nonzero eigenvalues."""
    rows = [[Fraction(x) for x in row] for row in np.asarray(phi, dtype=float).tolist()]
    if len(rows) > len(rows[0]):
        rows = [list(column) for column in zip(*rows)]
    n = len(rows)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = sum((x * y for x, y in zip(rows[i], rows[j])),
                                          Fraction(0))
    return gram


def count_below(matrix, s):
    """How many eigenvalues of a symmetric matrix of Fractions lie below the
    float ``s``: by Sylvester's law of inertia, the count of negative pivots
    of the exact LDL^T factorization of ``matrix - s I``, taken without
    pivoting.

    A zero pivot means ``s`` is an eigenvalue of a leading block of the
    matrix (of the matrix itself at the last pivot), where the pivots give
    no count.  Then ``s`` moves up by one ulp and the factorization starts
    again, so the count is of the eigenvalues below a float at most one ulp
    above ``s``, and an eigenvalue at ``s`` itself counts as below it.
    """
    n = len(matrix)
    while True:
        shift = Fraction(s)
        work = [[x - shift if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(matrix)]
        below = 0
        for k in range(n):
            pivot = work[k][k]
            if pivot == 0:
                break
            below += pivot < 0
            lead = work[k]
            for i in range(k + 1, n):  # the upper triangle of the Schur complement
                factor = lead[i] / pivot
                if factor:
                    row = work[i]
                    for j in range(i, n):
                        row[j] -= factor * lead[j]
        else:
            return below
        s = math.nextafter(s, math.inf)


# ---------------------------------------------------------------------------
# state evolution by explicit matrix powers
# ---------------------------------------------------------------------------

def state_by_powers(reservoir, coupling, values, initial_state=None):
    """Final state ``W^tau x0 + sum_i u_i W^(i-1) w``.

    ``values`` is ordered most recent sample first, matching the package's
    time-series convention.
    """
    w_mat = np.asarray(reservoir, dtype=float)
    w_vec = np.asarray(coupling, dtype=float)
    tau = len(values)
    state = np.zeros(w_mat.shape[0])
    if initial_state is not None:
        x0 = np.asarray(initial_state, dtype=float)
        state = np.linalg.matrix_power(w_mat, tau) @ x0
    for i, u in enumerate(values):
        state = state + u * (np.linalg.matrix_power(w_mat, i) @ w_vec)
    return state


def metric_tensor_by_powers(reservoir, coupling, horizon):
    """Gram matrix of the power basis ``W^(i-1) w`` for ``i = 1..horizon``."""
    w_mat = np.asarray(reservoir, dtype=float)
    w_vec = np.asarray(coupling, dtype=float)
    basis = np.stack([np.linalg.matrix_power(w_mat, i) @ w_vec
                      for i in range(horizon)])
    return basis @ basis.T


# ---------------------------------------------------------------------------
# direct-summation Fourier transforms
# ---------------------------------------------------------------------------

def dft_direct(values):
    """Unnormalized forward transform by the defining double sum."""
    v = np.asarray(values)
    n = len(v)
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        total = 0.0 + 0.0j
        for t in range(n):
            angle = -2.0 * math.pi * k * t / n
            total += v[t] * complex(math.cos(angle), math.sin(angle))
        out[k] = total
    return out


def inverse_dft_direct(values):
    """Inverse of :func:`dft_direct`, including the ``1/n`` factor."""
    v = np.asarray(values, dtype=complex)
    n = len(v)
    out = np.zeros(n, dtype=complex)
    for t in range(n):
        total = 0.0 + 0.0j
        for k in range(n):
            angle = 2.0 * math.pi * k * t / n
            total += v[k] * complex(math.cos(angle), math.sin(angle))
        out[t] = total / n
    return out


# ---------------------------------------------------------------------------
# exact binary expansions of pi and e
# ---------------------------------------------------------------------------

def pi_fraction(terms=120):
    """Rational approximation of pi from the base-16 digit series.

    The tail after ``terms`` summands is below ``16**-terms``, so the
    approximation fixes about ``4 * terms`` fractional bits.
    """
    total = Fraction(0)
    for k in range(terms):
        total += (Fraction(4, 8 * k + 1) - Fraction(2, 8 * k + 4)
                  - Fraction(1, 8 * k + 5) - Fraction(1, 8 * k + 6)) / 16 ** k
    return total


def e_fraction(terms=100):
    """Rational approximation of e from the factorial series."""
    total = Fraction(0)
    term = Fraction(1)
    for k in range(1, terms + 1):
        total += term
        term /= k
    return total


def fractional_bits(value, count):
    """First ``count`` binary digits after the point of a positive rational."""
    frac = value - int(value)
    bits = []
    for _ in range(count):
        frac *= 2
        bit = int(frac)
        bits.append(bit)
        frac -= bit
    return bits


# ---------------------------------------------------------------------------
# closed forms frozen before the implementation under test existed
# ---------------------------------------------------------------------------

def scalar_motif_weight(nu, horizon):
    """Motif weight of the one-dimensional reservoir with unit coupling."""
    if nu == 1.0:
        return math.sqrt(float(horizon))
    return math.sqrt((1.0 - nu ** (2 * horizon)) / (1.0 - nu ** 2))


def periodic_cycle_weight(nu, index, period, horizon):
    """Retained weight ``nu^(i-1) * sqrt((1-nu^2tau)/(1-nu^2p))``."""
    factor = (1.0 - nu ** (2 * horizon)) / (1.0 - nu ** (2 * period))
    return nu ** (index - 1) * math.sqrt(factor)


# Worked by hand: nu = 0.5, contraction rate 0.75, horizon 2, unit signal and
# coupling bounds, state scale 6.  Decay eta = 2/3, drive 2*6/(1-0.5) = 24,
# lower = -(4/9)*24 = -32/3, upper = (4/9)*(36*(4/9) + 24) = 160/9.
BOUND_CASE = {
    "nu": 0.5,
    "contraction_rate": 0.75,
    "horizon": 2,
    "signal_bound": 1.0,
    "coupling_bound": 1.0,
    "state_scale": 6.0,
    "lower": -32.0 / 3.0,
    "upper": 160.0 / 9.0,
}

# Two tiled copies on a 2-cycle at nu = 0.5: eigenvalue factor
# (1 - 0.5^8) / (1 - 0.5^4) = 0.99609375 / 0.9375 = 1.0625.
CYCLE_TWO_COPIES_FACTOR = 1.0625
CYCLE_TWO_COPIES_WEIGHT_FACTOR = 1.0307764064044151

# Geometric weight ratio of the random-reservoir prediction at nu = 0.995:
# (0.995 / 2) ** 2.
RANDOM_WEIGHT_RATIO_NU995 = 0.24750625


# ---------------------------------------------------------------------------
# bytes pinned across a change of signature
# ---------------------------------------------------------------------------

def digest(*arrays):
    """First 16 hex digits of the sha256 of the arrays' float64 bytes, in
    order: a short pin for outputs that must stay bit for bit the same."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]
