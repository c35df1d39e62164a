"""Temporal motifs: spectral decomposition of the kernel matrix.

The eigenvectors of a metric tensor are time-domain patterns (motifs) and
the square roots of its eigenvalues are their weights; together they give
an explicit finite feature expansion of the kernel.  This module extracts
motifs from a tensor, produces closed-form predictions for the structured
reservoir regimes, and compares empirical against predicted sets.

Predictions come in two flavors.  For the dense random and cycle regimes
the predicted vectors are eigenvector claims and can be compared index by
index; the cycle prediction reads the period of a periodic coupling from
the coupling vector itself.  For symmetric reservoirs the natural
decomposition is a sum of rank-one kernels, one per reservoir eigenvalue;
those component patterns are not mutually orthogonal and therefore are not
eigenvectors of the tensor.  :func:`compare_motifs` refuses such
predictions rather than produce a meaningless score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import check_nu
from .errors import ContractViolation
from .numerics import (as_finite_array, as_reservoir_pair, as_spectrum, as_vector,
                       check_positive_int, clamp_spectrum, effective_horizon, fix_signs,
                       is_flag, is_real, sym_eig, symmetric_gram)
from .temporal_kernel import MetricTensor, TimeSeries

# Relative eigenvalue gap under which predicted motifs count as degenerate
# and are compared as subspaces.
DEGENERACY_RTOL = 1e-8
# Motifs formed as Phi^T u / sqrt(lambda) lose orthonormality in proportion to
# lambda_0 / lambda_k, so the N x N route of extract_motifs keeps only sets whose
# smallest retained eigenvalue is at least this share of the top one.
DUAL_ROUTE_MIN_RATIO = 1e-4

_UNIT_NORM_TOL = 1e-9
_GRAM_TOL = 1e-8


def check_threshold_ratio(threshold_ratio) -> None:
    """Reject a motif retention ratio that is not a real number in (0, 1]."""
    if not (is_real(threshold_ratio) and 0.0 < threshold_ratio <= 1.0):
        raise ContractViolation("threshold_ratio must lie in (0, 1]")


def check_whole_copies(horizon, state_dim: int) -> None:
    """Reject a horizon that is not a positive multiple of ``N = state_dim``."""
    check_positive_int(horizon, "horizon")
    if horizon % state_dim:
        raise ContractViolation(f"horizon {horizon} is not a multiple of N = {state_dim}")


@dataclass(frozen=True, eq=False)
class MotifSet:
    """Retained motifs of one metric tensor.  Every array must be finite.

    Attributes
    ----------
    vectors : (k, tau) ndarray
        Row ``i`` is the i-th motif, unit norm, mutually orthonormal.
    spectrum : (tau,) ndarray
        The full clamped eigenvalue list, descending, including the
        discarded tail; positive for the ``k`` retained motifs and
        non-negative after.  Its length is the horizon ``tau``.
    weights : (k,) ndarray, read-only
        ``np.sqrt(spectrum[:k])``, the square roots of the eigenvalues.
    """

    vectors: np.ndarray
    spectrum: np.ndarray

    def __post_init__(self):
        vec = as_finite_array(self.vectors, 2, "motif vectors")
        spec = as_spectrum(self.spectrum, "spectrum")
        if vec.shape[1] != spec.shape[0]:
            raise ContractViolation("motif length does not match spectrum length")
        if np.any(spec < 0.0) or np.any(spec[:vec.shape[0]] <= 0.0):
            raise ContractViolation("spectrum must be non-negative, "
                                    "and positive for retained motifs")
        if vec.shape[0]:
            norms = np.linalg.norm(vec, axis=1)
            if np.max(np.abs(norms - 1.0)) > _UNIT_NORM_TOL:
                raise ContractViolation("motifs must have unit norm")
            gram = vec @ vec.T
            if np.max(np.abs(gram - np.eye(vec.shape[0]))) > _GRAM_TOL:
                raise ContractViolation("motifs must be mutually orthonormal")
        object.__setattr__(self, "vectors", vec)
        object.__setattr__(self, "spectrum", spec)

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def weights(self) -> np.ndarray:
        return np.sqrt(self.spectrum[:len(self)])

    @property
    def horizon(self) -> int:
        return int(self.spectrum.shape[0])


def _cluster_ends(values: np.ndarray) -> np.ndarray:
    """``ends[i]`` is true when ``values[i + 1]`` falls below the descending
    ``values[i]`` by more than the relative gap ``DEGENERACY_RTOL``: the one
    rule for where a degenerate cluster ends."""
    return values[:-1] - values[1:] > DEGENERACY_RTOL * values[:-1]


def _retained_count(spectrum: np.ndarray, threshold_ratio: float) -> int:
    """How many weights of a clamped descending spectrum reach ``threshold_ratio``
    times the top weight; none under a zero top."""
    omega = np.sqrt(spectrum)
    return int(np.sum(omega >= threshold_ratio * omega[0])) if omega[0] > 0.0 else 0


def extract_motifs(tensor: MetricTensor, threshold_ratio: float = 1e-2) -> MotifSet:
    """Decompose a metric tensor into weighted motifs.

    Eigenvalues in ``[-1e-9 * max, 0)`` are clamped to zero; anything more
    negative raises :class:`PsdViolationError`.  Motifs with weight below
    ``threshold_ratio`` times the top weight are dropped.  An all-zero
    tensor yields an empty motif set, which is a meaningful signal (the
    kernel is identically zero), not an error, and solves no eigenproblem.

    Only the first ``m = numerics.effective_horizon(phi)`` columns of ``Phi``
    lie above rounding, so the eigenpairs are those of ``Q``'s leading
    m x m block, and the motifs and the spectrum are padded with exact
    zeros to length tau.  A ``random_iid`` reservoir's columns decay
    geometrically, so m stays near 55 whatever N and tau; a cycle or
    symmetric one keeps m = tau on every shipped run.

    That block has rank at most N, so when ``N < m`` the eigenpairs come
    from the N x N Gram of ``Phi[:, :m]``: the motifs are
    ``Phi[:, :m]^T u_i / sqrt(lambda_i)`` under :func:`numerics.fix_signs`.
    The m x m block, ``symmetric_gram(Phi[:, :m])`` formed here, is solved
    directly instead when ``m <= N``, when a retained eigenvalue lies within
    ``DEGENERACY_RTOL`` of a neighbour (the first dropped one included), or
    when the smallest retained eigenvalue is below ``DUAL_ROUTE_MIN_RATIO``
    times the top.
    """
    check_threshold_ratio(threshold_ratio)
    n, tau = tensor.state_dim, tensor.horizon
    m = effective_horizon(tensor.phi)
    if m == 0:  # an all-zero Phi: the kernel is identically zero
        return MotifSet(vectors=np.zeros((0, tau)), spectrum=np.zeros(tau))
    head = tensor.phi[:, :m]
    vectors = None
    if n < m:
        eig = sym_eig(symmetric_gram(head.T))
        spectrum = np.concatenate((clamp_spectrum(eig.eigenvalues, "metric tensor"),
                                   np.zeros(tau - n)))
        count = _retained_count(spectrum, threshold_ratio)
        # Inside a degenerate cluster the basis is the eigensolver's choice, and
        # the nu = 1 cycle row of the benchmark reference reads the one LAPACK
        # picks for the tau x tau Q.  The cluster test goes in the change that
        # makes that basis canonical and regenerates the row (ROADMAP item 2).
        if (np.all(_cluster_ends(spectrum[:count + 1]))
                and spectrum[count - 1] >= DUAL_ROUTE_MIN_RATIO * spectrum[0]):
            vectors = fix_signs(head.T @ eig.eigenvectors[:, :count]
                                / np.sqrt(spectrum[:count])).T
    if vectors is None:
        with np.errstate(over="ignore", invalid="ignore"):  # sym_eig reports it
            q = symmetric_gram(head)
        eig = sym_eig(q)
        spectrum = np.concatenate((clamp_spectrum(eig.eigenvalues, "metric tensor"),
                                   np.zeros(tau - m)))
        count = _retained_count(spectrum, threshold_ratio)
        vectors = eig.eigenvectors[:, :count].T
    if m < tau:
        vectors = np.concatenate((vectors, np.zeros((count, tau - m))), axis=1)
    return MotifSet(vectors=vectors, spectrum=spectrum)


def represent(motif_set: MotifSet, series: TimeSeries) -> np.ndarray:
    """Coordinates of a history in the retained motif basis.

    Entry ``i`` is ``weights[i] * <motif_i, series>``; inner products of
    these representation vectors reproduce the kernel up to the truncation
    committed by the retention threshold.
    """
    if series.horizon != motif_set.horizon:
        raise ContractViolation(
            f"history horizon {series.horizon} does not match motif horizon {motif_set.horizon}"
        )
    return motif_set.weights * (motif_set.vectors @ series.values)


@dataclass(frozen=True, eq=False)
class MotifPrediction:
    """Closed-form motif claim for one reservoir regime.

    ``orthonormal``, a flag, distinguishes eigenvector claims (random and
    cycle regimes) from non-orthogonal component decompositions (symmetric
    regime).  Weights are on the motif scale in every regime: the tensor
    is (or, for random reservoirs, approximates) ``sum_i weights[i]**2 *
    outer(vectors[i], vectors[i])``.  ``extras`` carries what the vectors
    and weights do not give back bit for bit: the cycle core's eigenvalues
    and its eigenvalue factor.  The horizon is the length of the rows of
    ``vectors``.  Vectors and weights must be finite.
    """

    vectors: np.ndarray
    weights: np.ndarray
    orthonormal: bool
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        vec = as_finite_array(self.vectors, 2, "predicted vectors")
        wts = as_spectrum(self.weights, "predicted weights")
        if wts.shape != (vec.shape[0],) or np.any(wts < 0.0):
            raise ContractViolation("predicted weights must be non-negative, "
                                    "one per predicted vector")
        if not is_flag(self.orthonormal):
            raise ContractViolation("orthonormal must be a bool")
        object.__setattr__(self, "vectors", vec)
        object.__setattr__(self, "weights", wts)

    def __len__(self) -> int:
        return int(self.weights.shape[0])

    @property
    def horizon(self) -> int:
        return int(self.vectors.shape[1])


def predict_random(nu: float, coupling, horizon: int) -> MotifPrediction:
    """Markovian prediction for dense i.i.d. reservoirs of dimension
    ``N = len(coupling)``.

    Rescaling a large i.i.d. matrix to largest singular value ``nu`` leaves
    it with spectral radius about ``nu / 2``, so repeated application
    shrinks the coupling by that factor per step and the tensor is close to
    diagonal: motif ``i`` (of ``min(N, horizon)``) is the ``i``-th standard
    basis vector (memory of the lone sample ``i`` steps back) with weight
    ``||coupling|| * (nu / 2)**(i - 1)``.

    This is a large-N law: ``nu / 2`` is the large-N ratio of spectral
    radius to largest singular value (the circular law; Geman 1980 for the
    largest singular value).  At ``nu = 0.95`` the mean alignment rises from
    0.9398 at N = 25 to 0.9975 at N = 800 (ROADMAP item 14).  It fails at
    N = 1, where the 1 x 1 reservoir has spectral radius ``nu``: measured at
    seed 0, ``predict --regime random --N 1`` gives min alignment 0.709 and
    max weight rel error 0.411, and 0.725 and 0.379 with ``--nu 0.95``.
    """
    check_positive_int(horizon, "horizon")
    check_nu(nu)
    w_vec = as_vector(coupling, "coupling")
    norm = float(np.linalg.norm(w_vec))
    if not 0.0 < norm < np.inf:
        raise ContractViolation("coupling norm must be positive and finite")
    count = min(w_vec.shape[0], horizon)
    return MotifPrediction(
        vectors=np.eye(count, horizon),
        weights=norm * (nu / 2.0) ** np.arange(count),
        orthonormal=True,
    )


def predict_symmetric(reservoir, coupling, horizon: int) -> MotifPrediction:
    """Component decomposition for symmetric reservoirs.

    Each reservoir eigenpair ``(sigma_a, s_a)`` contributes the geometric
    pattern ``(1, sigma_a, sigma_a^2, ...)`` with magnitude
    ``<s_a, w>^2 * ||pattern||^2``; negative ``sigma_a`` gives an
    alternating-sign pattern.  The sum of these rank-one kernels equals the
    metric tensor exactly, but the patterns are not mutually orthogonal, so
    they must not be read as eigenvector predictions.  Each weight is the
    square root of its magnitude, so the tensor is ``sum_a weights[a]**2 *
    outer(vectors[a], vectors[a])``; ties in magnitude keep eigenvalue order.
    """
    check_positive_int(horizon, "horizon")
    w_mat, w_vec = as_reservoir_pair(reservoir, coupling)
    eig = sym_eig(w_mat)
    projections = eig.eigenvectors.T @ w_vec
    # Row a holds sigma_a^0 .. sigma_a^(horizon-1); 0**0 evaluates to 1.  Powers
    # of finite eigenvalues turn non-finite only by overflowing, which raises.
    with np.errstate(over="raise"):
        try:
            patterns = eig.eigenvalues[:, None] ** np.arange(horizon)[None, :]
            sq_norms = np.sum(patterns**2, axis=1)
        except FloatingPointError:
            raise ContractViolation(
                "reservoir spectral radius too large for this horizon") from None
    magnitudes = projections**2 * sq_norms
    order = np.argsort(-magnitudes, kind="stable")
    return MotifPrediction(
        vectors=(patterns / np.sqrt(sq_norms)[:, None])[order],
        weights=np.sqrt(magnitudes[order]),
        orthonormal=False,
    )


def _cycle_shift_products(vec: np.ndarray) -> np.ndarray:
    """Autocorrelations ``<v, P^m v>`` of a vector under the cycle shift.

    The table is mirrored (``table[m] == table[n - m]`` bit-exactly) so
    matrices indexed with it come out exactly symmetric.
    """
    n = vec.shape[0]
    table = np.empty(n)
    for m in range(n // 2 + 1):
        table[m] = float(np.dot(vec, np.roll(vec, m)))
    for m in range(n // 2 + 1, n):
        table[m] = table[n - m]
    return table


def _predict_cycle_core(block: np.ndarray, nu: float, n_blocks: int,
                        multiplicity: int) -> MotifPrediction:
    """Motifs of a cycle tensor that tiles one block's core ``n_blocks`` times.

    The length-``p`` core ``C[i, j] = nu^(i+j-2) <s, Pbar^(j-i) s>`` (``Pbar``
    the length-``p`` cycle) is diagonalized.  Its eigenvectors, stacked with
    damping ``nu^p`` per tile and normalized, are exact eigenvectors of the
    full tensor, whose eigenvalues are ``multiplicity * factor`` times the
    core's with ``factor = (1 - nu^(2 tau)) / (1 - nu^(2 p))``.
    """
    p = block.shape[0]
    tau = n_blocks * p
    damp = nu ** np.arange(p)
    shift = (np.arange(p)[None, :] - np.arange(p)[:, None]) % p
    eig = sym_eig(np.outer(damp, damp) * _cycle_shift_products(block)[shift])
    values = clamp_spectrum(eig.eigenvalues, "cycle core tensor")
    # -expm1(m log nu) is 1 - nu^m without the cancellation the subtraction
    # suffers as nu -> 1, where log(nu) of the exact nu keeps its relative accuracy.
    log_nu = math.log(nu)
    factor = (float(n_blocks) if nu == 1.0
              else math.expm1(2 * tau * log_nu) / math.expm1(2 * p * log_nu))
    tiles = np.empty((tau, p))
    for b in range(n_blocks):
        tiles[b * p:(b + 1) * p, :] = eig.eigenvectors * nu ** (b * p)
    tiles /= np.linalg.norm(tiles, axis=0)[None, :]
    return MotifPrediction(
        vectors=tiles.T,
        weights=np.sqrt(multiplicity * values * factor),
        orthonormal=True,
        extras={"core_eigenvalues": values, "eigenvalue_factor": factor},
    )


def predict_cycle(nu: float, coupling, horizon: int) -> MotifPrediction:
    """Exact motifs for the scaled cycle reservoir with ``N = len(coupling)``
    units, at a horizon that is a multiple of ``N``.

    The coupling's shortest period ``p`` is read from the vector: the
    smallest divisor of ``N`` under whose cyclic shift it is unchanged, and
    ``N`` itself for an aperiodic coupling.  The coupling is then ``k = N /
    p`` copies of a block of length ``p``, and the spectrum collapses to at
    most ``p`` motifs: the eigenvectors of the length-``p`` core driven by
    the block, tiled ``tau / p`` times with damping ``nu^p`` per tile.  They
    are exact eigenvectors of the full tensor, with the core's eigenvalues
    scaled by ``k * (1 - nu^(2 tau)) / (1 - nu^(2 p))``.  The prediction
    has ``p`` rows, so ``k`` is ``len(coupling) // len(prediction)``.
    """
    check_nu(nu)
    w_vec = as_vector(coupling, "coupling")
    n = w_vec.shape[0]
    check_whole_copies(horizon, n)
    p = next((d for d in range(1, n)
              if n % d == 0 and np.array_equal(w_vec, np.roll(w_vec, d))), n)
    return _predict_cycle_core(w_vec[:p], nu, horizon // p, n // p)


@dataclass(frozen=True, eq=False)
class MotifComparison:
    """Index-by-index agreement between empirical and predicted motifs.

    ``alignments[i]`` is the absolute inner product between empirical and
    predicted motif ``i``; inside a degenerate cluster it is the matching
    cosine of the principal angles between the two spanned subspaces.
    ``cluster_ids`` labels the degenerate groups.
    """

    alignments: np.ndarray
    weight_rel_errors: np.ndarray
    cluster_ids: np.ndarray

    @property
    def n_compared(self) -> int:
        return int(self.alignments.shape[0])

    @property
    def min_alignment(self) -> float:
        return float(np.min(self.alignments))

    @property
    def max_weight_rel_error(self) -> float:
        return float(np.max(self.weight_rel_errors))


def compare_motifs(empirical: MotifSet, predicted: MotifPrediction) -> MotifComparison:
    """Compare retained empirical motifs against an eigenvector prediction.

    Predictions flagged non-orthonormal (symmetric-regime components) are
    rejected: their vectors are not eigenvector claims, so per-index
    alignment would be meaningless.  Predicted eigenvalues within relative
    gap ``DEGENERACY_RTOL`` of each other are handled as one subspace via
    principal angles.
    """
    if not predicted.orthonormal:
        raise ContractViolation(
            "prediction holds non-orthogonal components, not eigenvectors; "
            "per-index comparison is undefined"
        )
    if empirical.horizon != predicted.horizon:
        raise ContractViolation("empirical and predicted horizons differ")
    n = min(len(empirical), len(predicted))
    if n == 0:
        raise ContractViolation("nothing to compare: one of the motif sets is empty")

    pred_values = predicted.weights[:n] ** 2
    cluster_ids = np.concatenate(([0], np.cumsum(_cluster_ends(pred_values)))).astype(np.int64)

    alignments = np.empty(n)
    for cid in range(int(cluster_ids[-1]) + 1):
        idx = np.nonzero(cluster_ids == cid)[0]
        cross = empirical.vectors[idx] @ predicted.vectors[idx].T
        # Singular values of the cross-Gram are the cosines of the principal
        # angles; svd returns them descending, matching the index order.
        alignments[idx] = np.linalg.svd(cross, compute_uv=False)
    alignments = np.minimum(alignments, 1.0)

    emp_w = empirical.weights[:n]
    pred_w = predicted.weights[:n]
    with np.errstate(divide="ignore", invalid="ignore"):
        errors = np.abs(emp_w - pred_w) / pred_w
    errors = np.where(pred_w == 0.0, np.where(emp_w == 0.0, 0.0, np.inf), errors)

    return MotifComparison(
        alignments=alignments,
        weight_rel_errors=errors,
        cluster_ids=cluster_ids,
    )
