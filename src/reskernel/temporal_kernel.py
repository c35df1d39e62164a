"""Linear reservoir dynamics and the temporal kernel they induce.

A linear reservoir with state coupling ``W`` and input coupling ``w``
driven by a scalar signal updates as ``x(t) = W x(t-1) + w u(t)``.  Over a
finite horizon ``tau`` the driven part of the state is linear in the input
history, so inner products of states define a kernel on histories:

    K(u, v) = (Phi u) . (Phi v) = u^T Q v,   Q = Phi^T Phi,

with ``Phi`` the N x tau feature matrix whose columns are ``W^(i-1) w``.
Histories are stored most recent first: ``values[0]`` is the current
sample, ``values[i]`` the sample ``i`` steps in the past.  ``Q`` is
symmetric positive semidefinite with rank at most the state dimension.  A
tensor stores ``Phi``; ``Q`` is formed only where it is read.

The module also provides two-sided bounds on the kernel error committed by
starting the recursion from an unknown bounded initial state instead of
zero; see :func:`kernel_error_bounds`.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import coupling as cp
from .errors import ContractViolation
from .numerics import (as_finite_array, as_matrix, as_reservoir_pair, as_vector,
                       check_positive_int, is_real)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A finite scalar history, most recent sample first.  It compares and
    hashes by identity, as do the other records that hold arrays.  It stores
    a read-only copy of ``values``, so no later write by the caller reaches
    it, or a readout built on it."""

    values: np.ndarray

    def __post_init__(self):
        values = as_vector(self.values, "time series").copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def horizon(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True, eq=False)
class MetricTensor:
    """The horizon-``tau`` kernel of one reservoir, ``K(u, v) = u^T Q v``.

    ``MetricTensor(phi)`` is the kernel of the N x tau feature matrix
    ``phi``, with ``Q = Phi^T Phi``: ``state_dim`` is its row count and
    ``horizon`` its column count.  ``phi`` must be a non-empty, 2-D, finite
    matrix.  Its squared column norms, the diagonal of ``Q``, bound every
    entry of ``Q`` and are checked finite in O(N tau), so a tensor that
    overflows raises ContractViolation before ``Q`` is formed.  A float64
    ``phi`` that owns its data is stored without a copy and marked
    read-only; a view is copied first, so no write to its base reaches the
    tensor.  ``phi`` is all a tensor stores: a reader that needs ``Q``
    forms it with :func:`numerics.symmetric_gram`.  A tensor is immutable,
    so a readout's filter (:func:`readout_eval`) never goes stale, and
    ``dataclasses.replace`` builds a new tensor under the same rules.  One
    case stays open: a view of an owned ``phi`` taken before construction
    still writes into the tensor.
    """

    phi: np.ndarray

    def __post_init__(self):
        phi = as_matrix(self.phi, "metric tensor")
        if phi.base is not None:
            phi = phi.copy()
        with np.errstate(over="ignore", invalid="ignore"):  # as_finite_array reports it
            as_finite_array(np.einsum("ij,ij->j", phi, phi), 1, "metric tensor")
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)

    @property
    def state_dim(self) -> int:
        return int(self.phi.shape[0])

    @property
    def horizon(self) -> int:
        return int(self.phi.shape[1])


def simulate_state(reservoir, coupling, series: TimeSeries | Sequence[TimeSeries],
                   initial_state=None) -> np.ndarray:
    """Run the state recursion over one finite history, or over several
    that share a horizon.

    The oldest sample is consumed first, so after the loop ``values[0]`` is
    the most recent input absorbed into the state.  The drives ``u_t w`` of
    every step are formed up front, then one loop ``x = W x + drive_t``
    advances every history at once, one column each.  A single history
    gives the bits of the plain loop ``x = W @ x + u * w``.

    Parameters
    ----------
    reservoir : (N, N) array_like
    coupling : (N,) array_like
    series : TimeSeries, or a non-empty sequence of them with one horizon
    initial_state : (N,) array_like, optional
        State before the first (oldest) input of every history; defaults
        to zero.

    Returns
    -------
    (N,) ndarray for one ``TimeSeries``, else (N, k) with column ``j`` the
    state of history ``j``
        ``W^tau x_init + sum_i values[i-1] W^(i-1) w``.  A state that
        overflows raises ContractViolation, as in kernel_eval.
    """
    w_mat, w_vec = as_reservoir_pair(reservoir, coupling)
    single = isinstance(series, TimeSeries)
    histories = [series] if single else list(series)
    if not histories:
        raise ContractViolation("at least one history is required")
    if len({h.horizon for h in histories}) > 1:
        raise ContractViolation("histories must share one horizon")
    if initial_state is None:
        x = np.zeros((w_mat.shape[0], len(histories)))
    else:
        x0 = as_vector(initial_state, "initial state", w_mat.shape[0])
        x = np.repeat(x0[:, np.newaxis], len(histories), axis=1)
    # inputs[t, j] is the sample history j feeds in at step t, oldest first.
    inputs = np.stack([h.values[::-1] for h in histories], axis=1)
    drive = inputs[:, np.newaxis, :] * w_vec[:, np.newaxis]
    with np.errstate(over="ignore", invalid="ignore"):  # as_finite_array reports it
        for step in drive:
            x = w_mat @ x
            x += step
    x = as_finite_array(x, 2, "simulated state")
    return x[:, 0] if single else x


def _row_gather(w_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(idx, vals)`` with ``W @ x == vals * x[idx]`` when every row of ``W``
    has at most one nonzero (a weighted permutation such as the cycle);
    ``None`` when some row has two."""
    n = w_mat.shape[0]
    # More than N nonzeros in all is the quick answer for a dense reservoir.
    if np.count_nonzero(w_mat) > n or np.any(np.count_nonzero(w_mat, axis=1) > 1):
        return None
    idx = np.argmax(w_mat != 0.0, axis=1)
    return idx, w_mat[np.arange(n), idx]


def _feature_matrix(w_mat: np.ndarray, w_vec: np.ndarray, horizon: int) -> np.ndarray:
    """The N x tau matrix whose column ``i`` is ``W^i w``, by the recurrence
    ``col_i = W col_(i-1)``.  A reservoir with at most one nonzero per row
    is applied as an index gather, which gives the bits of the
    matrix-vector product in O(N) per column."""
    gather = _row_gather(w_mat)
    phi = np.empty((w_mat.shape[0], horizon))
    col = w_vec.copy()
    phi[:, 0] = col
    for i in range(1, horizon):
        if gather is None:
            col = w_mat @ col
        else:
            # Adding 0.0 turns a product's -0.0 into the +0.0 the matvec sums to.
            col = gather[1] * col[gather[0]] + 0.0
        phi[:, i] = col
    return phi


def build_metric_tensor(reservoir, coupling, horizon: int) -> MetricTensor:
    """The metric tensor of a reservoir over a given horizon.

    The tensor is ``MetricTensor(phi)`` of the N x tau feature matrix whose
    column ``i`` is ``W^i w``.

    A horizon below the state dimension is legal but leaves the kernel
    blind to directions the reservoir can still reach, so it warns.  A
    tensor that overflows raises ContractViolation.
    """
    w_mat, w_vec = as_reservoir_pair(reservoir, coupling)
    check_positive_int(horizon, "horizon")
    n = w_mat.shape[0]
    if horizon < n:
        warnings.warn(
            f"horizon {horizon} is below the state dimension {n}; "
            "the kernel cannot resolve the full state space",
            stacklevel=2,
        )
    with np.errstate(over="ignore", invalid="ignore"):  # MetricTensor reports it
        phi = _feature_matrix(w_mat, w_vec, horizon)
    return MetricTensor(phi)


def scale_metric_tensor(tensor: MetricTensor, nu: float) -> MetricTensor:
    """The tensor of the reservoir ``nu * W``, given the tensor of ``W``.

    Column ``i`` of the feature matrix ``W^i w`` scales by ``nu^i``, so the
    result is ``MetricTensor(phi * d)`` with ``d = nu ** arange(tau)``: O(N
    tau), with no matrix-vector product and no Gram.
    ``nu = 1`` returns the same bits.  ``nu`` is any finite real number; a
    result that overflows raises ContractViolation.
    """
    if not (is_real(nu) and -math.inf < nu < math.inf):
        raise ContractViolation("nu must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # MetricTensor reports it
        phi = tensor.phi * float(nu) ** np.arange(tensor.horizon)
    return MetricTensor(phi)


def build_from_specs(reservoir_spec: cp.ReservoirSpec, coupling_spec: cp.InputCouplingSpec,
                     horizon: int, seed: cp.Seed) -> tuple[np.ndarray, np.ndarray, MetricTensor]:
    """Generate the reservoir and input coupling of ``seed`` and build their
    metric tensor; returns ``(reservoir, coupling, tensor)``.

    The reservoir is :func:`coupling.generate_reservoir`'s, ``raw * (nu /
    sigma)``.  The tensor is built once for the unit-scale draw ``raw * (1 /
    sigma)`` and scaled to ``nu`` by :func:`scale_metric_tensor`, the route
    :func:`richness.sweep` takes for every value of its grid, so each sweep
    row equals this build at its ``nu``.
    """
    raw, sigma = cp.draw_reservoir(reservoir_spec, seed)
    coupling = cp.generate_input(coupling_spec, seed)
    unit = build_metric_tensor(raw * (1.0 / sigma), coupling, horizon)
    return (raw * (reservoir_spec.nu / sigma), coupling,
            scale_metric_tensor(unit, reservoir_spec.nu))


def _finite_value(value, what: str) -> float:
    """The one rule for a kernel output: a finite float, else ContractViolation."""
    value = float(value)
    if not math.isfinite(value):
        raise ContractViolation(f"{what} value is not finite: {value}")
    return value


def _check_horizons(tensor: MetricTensor, *histories: TimeSeries) -> None:
    if any(h.horizon != tensor.horizon for h in histories):
        raise ContractViolation(
            f"history horizons ({', '.join(str(h.horizon) for h in histories)}) do not "
            f"match tensor horizon {tensor.horizon}"
        )


def kernel_eval(tensor: MetricTensor, u: TimeSeries, v: TimeSeries) -> float:
    """Evaluate ``K(u, v) = u^T Q v`` as ``(Phi u) . (Phi v)``, in O(N tau)
    with no tau x tau matrix formed.  A dot product is exactly commutative,
    so swapping the arguments keeps the bits.  A value that is not finite
    raises ContractViolation, as in kernel_poly and readout_eval.
    """
    _check_horizons(tensor, u, v)
    with np.errstate(over="ignore", invalid="ignore"):  # _finite_value reports it
        value = (tensor.phi @ u.values) @ (tensor.phi @ v.values)
    return _finite_value(value, "kernel")


def kernel_poly(tensor: MetricTensor, u: TimeSeries, v: TimeSeries,
                offset: float, degree: int) -> float:
    """Polynomial kernel ``(u^T Q v + offset)^degree`` with integer degree >= 1
    and a finite real offset."""
    check_positive_int(degree, "degree")
    if not (is_real(offset) and -math.inf < offset < math.inf):
        raise ContractViolation("offset must be finite")
    try:
        value = (kernel_eval(tensor, u, v) + offset) ** degree
    except OverflowError:  # a Python float power raises where numpy gives inf
        value = math.inf
    return _finite_value(value, "polynomial kernel")


@dataclass(frozen=True, eq=False)
class ReadoutModel:
    """Kernel readout: coefficients over support histories plus a finite
    real bias.

    ``combined`` is the history ``h = sum_i beta_i u_i``, formed once here;
    it is ``None`` when there are no supports.  The readout on a tensor is
    the linear filter ``r = Q h = Phi^T (Phi h)`` applied to the query, and
    :func:`readout_eval` keeps the filter of the last tensor it was given
    in ``_filter`` as ``(tensor, r)``, so a model holds at most one tensor.
    The model stores a read-only copy of ``coefficients``, as a
    :class:`TimeSeries` does of its values, so ``combined`` never goes stale.
    """

    supports: tuple[TimeSeries, ...]
    coefficients: np.ndarray
    bias: float = 0.0
    combined: TimeSeries | None = field(init=False, repr=False, compare=False)
    _filter: tuple[MetricTensor, np.ndarray] | None = field(
        init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        coeffs = as_finite_array(np.atleast_1d(self.coefficients), 1,
                                 "readout coefficients").copy()
        coeffs.flags.writeable = False
        if len(self.supports) != coeffs.shape[0]:
            raise ContractViolation("one coefficient per support history is required")
        if not (is_real(self.bias) and -math.inf < self.bias < math.inf):
            raise ContractViolation("bias must be finite")
        horizons = {s.horizon for s in self.supports}
        if len(horizons) > 1:
            raise ContractViolation("support histories must share one horizon")
        object.__setattr__(self, "supports", tuple(self.supports))
        object.__setattr__(self, "coefficients", coeffs)
        combined = None
        if self.supports:
            with np.errstate(over="ignore", invalid="ignore"):  # as_vector reports it
                history = coeffs @ np.stack([s.values for s in self.supports])
            combined = TimeSeries(as_vector(history, "readout combined history"))
        object.__setattr__(self, "combined", combined)


def readout_eval(model: ReadoutModel, tensor: MetricTensor, v: TimeSeries) -> float:
    """Evaluate ``sum_i beta_i K(u_i, v) + bias``; no supports means the bias.

    The kernel is bilinear, so the sum is ``K(h, v) + bias = r . v + bias``
    with ``h`` the model's combined history and ``r = Phi^T (Phi h)``.  The
    filter ``r`` is formed once per (model, tensor), in O(N tau), and kept
    on the model until a different tensor comes in; each query then costs
    O(tau), whatever the number of supports.  The result equals the
    per-support sum up to rounding.  A query, and the supports if any,
    must have the tensor's horizon.  A filter or value that is not finite
    raises ContractViolation, as in kernel_eval.
    """
    if model.combined is None:
        _check_horizons(tensor, v)
        return float(model.bias)
    _check_horizons(tensor, model.combined, v)
    memo = model._filter
    if memo is None or memo[0] is not tensor:
        with np.errstate(over="ignore", invalid="ignore"):  # as_finite_array reports it
            r = tensor.phi.T @ (tensor.phi @ model.combined.values)
        memo = (tensor, as_finite_array(r, 1, "readout filter"))
        object.__setattr__(model, "_filter", memo)
    with np.errstate(over="ignore", invalid="ignore"):  # _finite_value reports it
        value = model.bias + memo[1] @ v.values
    return _finite_value(value, "readout")


def _check_positive_real(value, name: str) -> None:
    if not (is_real(value) and 0.0 < value < math.inf):
        raise ContractViolation(f"{name} must be positive and finite")


@dataclass(frozen=True)
class BoundParams:
    """Constants entering the initial-state kernel error bounds.

    Each float is a real number (:func:`numerics.is_real`) in its range.

    Attributes
    ----------
    signal_bound : float
        Upper bound ``U`` on the absolute value of every input sample.
    coupling_bound : float
        Upper bound ``B`` on the norm of the input coupling.
    contraction_rate : float
        Auxiliary rate ``zeta`` in (0, 1); must exceed the reservoir scale.
    state_scale : float
        Constant ``c`` sizing the admissible initial-state ball.
    horizon : int
        History length ``tau``.
    """

    signal_bound: float
    coupling_bound: float
    contraction_rate: float
    state_scale: float
    horizon: int

    def __post_init__(self):
        for name in ("signal_bound", "coupling_bound", "state_scale"):
            _check_positive_real(getattr(self, name), name)
        if not (is_real(self.contraction_rate) and 0.0 < self.contraction_rate < 1.0):
            raise ContractViolation("contraction_rate must lie in (0, 1)")
        check_positive_int(self.horizon, "horizon")


def minimal_state_scale(signal_bound: float, coupling_bound: float,
                        nu: float, contraction_rate: float) -> float:
    """Smallest admissible ``state_scale`` for the error bounds.

    Exposing this as a function lets callers sit exactly on the boundary of
    the precondition without re-deriving it, which keeps the subsequent
    ``c >= minimal`` check consistent in floating point.  The two bounds are
    positive and finite, as in :class:`BoundParams`.
    """
    _check_positive_real(signal_bound, "signal_bound")
    _check_positive_real(coupling_bound, "coupling_bound")
    if not (is_real(nu) and is_real(contraction_rate) and 0.0 < nu < contraction_rate < 1.0):
        raise ContractViolation(f"need 0 < nu {nu} < contraction_rate {contraction_rate} < 1")
    return coupling_bound * signal_bound / ((1.0 - nu) * (1.0 - nu / contraction_rate))


def initial_state_radius(params: BoundParams) -> float:
    """Radius ``c * zeta^(-tau)`` of the admissible initial-state ball,
    capped at 1e150 to keep downstream norms representable."""
    try:
        radius = params.state_scale * params.contraction_rate ** (-params.horizon)
    except OverflowError:
        return 1e150
    return float(min(radius, 1e150))


def kernel_error_bounds(params: BoundParams, nu: float) -> tuple[float, float]:
    """Two-sided bounds on the kernel error from an unknown initial state.

    For a reservoir with largest singular value ``nu`` and any initial
    state of norm at most ``initial_state_radius(params)``, the difference
    between the kernel evaluated from that state and from the zero state
    lies in the closed interval returned here.

    Raises
    ------
    ContractViolation
        If ``nu`` is not in ``(0, contraction_rate)``, or ``state_scale`` is
        below :func:`minimal_state_scale`.
    """
    zeta = params.contraction_rate
    c_min = minimal_state_scale(params.signal_bound, params.coupling_bound, nu, zeta)
    if params.state_scale < c_min:
        raise ContractViolation(
            f"state_scale {params.state_scale} is below the admissible minimum {c_min}"
        )
    eta = nu / zeta
    decay = eta ** params.horizon
    drive = 2.0 * params.state_scale / (1.0 - nu) * params.coupling_bound * params.signal_bound
    lower = -decay * drive
    upper = decay * (params.state_scale ** 2 * decay + drive)
    return float(lower), float(upper)
