"""Linear reservoir dynamics and the temporal kernel they induce.

A linear reservoir with state coupling ``W`` and input coupling ``w``
driven by a scalar signal updates as ``x(t) = W x(t-1) + w u(t)``.  Over a
finite horizon ``tau`` the driven part of the state is linear in the input
history, so inner products of states define a kernel on histories:

    K(u, v) = u^T Q v,   Q[i, j] = w^T (W^T)^(i-1) W^(j-1) w.

Histories are stored most recent first: ``values[0]`` is the current
sample, ``values[i]`` the sample ``i`` steps in the past.  ``Q`` is the
Gram matrix of the columns ``W^(i-1) w`` and is therefore symmetric
positive semidefinite with rank at most the state dimension.

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
from .numerics import as_square_matrix, symmetric_gram


def _as_vector(a, name: str = "vector", length: int | None = None) -> np.ndarray:
    """``a`` as a non-empty, 1-D, finite vector, of ``length`` entries if given."""
    v = np.asarray(a, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ContractViolation(f"{name} must be a non-empty 1-dimensional vector")
    if not np.all(np.isfinite(v)):
        raise ContractViolation(f"{name} contains non-finite entries")
    if length is not None and v.shape[0] != length:
        raise ContractViolation(f"{name} length {v.shape[0]} is not the state dimension {length}")
    return v


def _check_pair(reservoir, coupling) -> tuple[np.ndarray, np.ndarray]:
    """The one reservoir-coupling rule: a square reservoir and a coupling of its size."""
    w_mat = as_square_matrix(reservoir, "reservoir")
    return w_mat, _as_vector(coupling, "input coupling", w_mat.shape[0])


@dataclass(frozen=True)
class TimeSeries:
    """A finite scalar history, most recent sample first."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_vector(self.values, "time series"))

    @property
    def horizon(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class MetricTensor:
    """The horizon-``tau`` kernel matrix of one reservoir.

    ``matrix`` is exactly symmetric by construction; ``state_dim`` is the
    state dimension N of the reservoir.  The horizon is not stored: it is
    the side of ``matrix``.
    """

    matrix: np.ndarray
    state_dim: int

    def __post_init__(self):
        m = as_square_matrix(self.matrix, "metric tensor")
        cp.check_positive_int(self.state_dim, "state_dim")
        object.__setattr__(self, "matrix", m)

    @property
    def horizon(self) -> int:
        return int(self.matrix.shape[0])


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
        ``W^tau x_init + sum_i values[i-1] W^(i-1) w``.
    """
    w_mat, w_vec = _check_pair(reservoir, coupling)
    single = isinstance(series, TimeSeries)
    histories = [series] if single else list(series)
    if not histories:
        raise ContractViolation("at least one history is required")
    if len({h.horizon for h in histories}) > 1:
        raise ContractViolation("histories must share one horizon")
    if initial_state is None:
        x = np.zeros((w_mat.shape[0], len(histories)))
    else:
        x0 = _as_vector(initial_state, "initial state", w_mat.shape[0])
        x = np.repeat(x0[:, np.newaxis], len(histories), axis=1)
    # inputs[t, j] is the sample history j feeds in at step t, oldest first.
    inputs = np.stack([h.values[::-1] for h in histories], axis=1)
    drive = inputs[:, np.newaxis, :] * w_vec[:, np.newaxis]
    for step in drive:
        x = w_mat @ x
        x += step
    return x[:, 0] if single else x


def check_horizon(horizon) -> None:
    """Reject a history length that is not a positive integer."""
    cp.check_positive_int(horizon, "horizon")


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
    """Assemble the kernel matrix for a reservoir over a given horizon.

    The Gram matrix of the columns ``W^(i-1) w`` comes from
    :func:`numerics.symmetric_gram`, so the result is exactly symmetric.

    A horizon below the state dimension is legal but leaves the kernel
    blind to directions the reservoir can still reach, so it warns.
    """
    w_mat, w_vec = _check_pair(reservoir, coupling)
    check_horizon(horizon)
    n = w_mat.shape[0]
    if horizon < n:
        warnings.warn(
            f"horizon {horizon} is below the state dimension {n}; "
            "the kernel cannot resolve the full state space",
            stacklevel=2,
        )
    return MetricTensor(matrix=symmetric_gram(_feature_matrix(w_mat, w_vec, horizon)),
                        state_dim=n)


def scale_metric_tensor(tensor: MetricTensor, nu: float) -> MetricTensor:
    """The tensor of the reservoir ``nu * W``, given the tensor of ``W``.

    Column ``i`` of the feature matrix scales by ``nu^i``, so entry
    ``(i, j)`` scales by ``nu^(i+j)``: the result is ``outer(d, d) * Q`` with
    ``d = nu ** arange(tau)``, in O(tau^2) with no matrix-vector product and
    no Gram.  ``outer(d, d)`` is exactly symmetric, so the result is too,
    and ``nu = 1`` returns the same bits.
    """
    nu = float(nu)
    if not np.isfinite(nu):
        raise ContractViolation("nu must be finite")
    d = nu ** np.arange(tensor.horizon)
    matrix = np.outer(d, d)
    matrix *= tensor.matrix
    return MetricTensor(matrix=matrix, state_dim=tensor.state_dim)


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


def kernel_eval(tensor: MetricTensor, u: TimeSeries, v: TimeSeries) -> float:
    """Evaluate ``u^T Q v``.

    Averaging the two evaluation orders makes the result exactly invariant
    under swapping the arguments, not just up to rounding.  A value that is
    not finite raises ContractViolation, as in kernel_poly and readout_eval.
    """
    if u.horizon != tensor.horizon or v.horizon != tensor.horizon:
        raise ContractViolation(
            f"history horizons ({u.horizon}, {v.horizon}) do not match tensor horizon "
            f"{tensor.horizon}"
        )
    q = tensor.matrix
    with np.errstate(over="ignore", invalid="ignore"):  # _finite_value reports it
        value = 0.5 * (u.values @ (q @ v.values) + v.values @ (q @ u.values))
    return _finite_value(value, "kernel")


def kernel_poly(tensor: MetricTensor, u: TimeSeries, v: TimeSeries,
                offset: float, degree: int) -> float:
    """Polynomial kernel ``(u^T Q v + offset)^degree`` with integer degree >= 1."""
    cp.check_positive_int(degree, "degree")
    if not np.isfinite(offset):
        raise ContractViolation("offset must be finite")
    try:
        value = (kernel_eval(tensor, u, v) + offset) ** degree
    except OverflowError:  # a Python float power raises where numpy gives inf
        value = math.inf
    return _finite_value(value, "polynomial kernel")


@dataclass(frozen=True)
class ReadoutModel:
    """Kernel readout: coefficients over support histories plus a bias.

    ``combined`` is the history ``sum_i beta_i u_i``, formed once here so
    that :func:`readout_eval` needs one kernel evaluation per query; it is
    ``None`` when there are no supports.
    """

    supports: tuple[TimeSeries, ...]
    coefficients: np.ndarray
    bias: float = 0.0
    combined: TimeSeries | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if coeffs.ndim != 1 or not np.all(np.isfinite(coeffs)):
            raise ContractViolation("coefficients must be a finite 1-dimensional vector")
        if len(self.supports) != coeffs.shape[0]:
            raise ContractViolation("one coefficient per support history is required")
        if not np.isfinite(self.bias):
            raise ContractViolation("bias must be finite")
        horizons = {s.horizon for s in self.supports}
        if len(horizons) > 1:
            raise ContractViolation("support histories must share one horizon")
        object.__setattr__(self, "supports", tuple(self.supports))
        object.__setattr__(self, "coefficients", coeffs)
        combined = None
        if self.supports:
            combined = TimeSeries(coeffs @ np.stack([s.values for s in self.supports]))
        object.__setattr__(self, "combined", combined)


def readout_eval(model: ReadoutModel, tensor: MetricTensor, v: TimeSeries) -> float:
    """Evaluate ``sum_i beta_i K(u_i, v) + bias``; no supports means the bias.

    The kernel is bilinear, so the sum is evaluated in primal form as
    ``K(sum_i beta_i u_i, v) + bias``: one O(tau^2) kernel evaluation per
    query against the model's combined history, whatever the number of
    supports.  The result equals the per-support sum up to rounding.
    """
    if model.combined is None:
        return float(model.bias)
    return _finite_value(model.bias + kernel_eval(tensor, model.combined, v), "readout")


@dataclass(frozen=True)
class BoundParams:
    """Constants entering the initial-state kernel error bounds.

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
            val = getattr(self, name)
            if not np.isfinite(val) or val <= 0.0:
                raise ContractViolation(f"{name} must be positive and finite")
        if not (0.0 < self.contraction_rate < 1.0):
            raise ContractViolation("contraction_rate must lie in (0, 1)")
        check_horizon(self.horizon)


def minimal_state_scale(signal_bound: float, coupling_bound: float,
                        nu: float, contraction_rate: float) -> float:
    """Smallest admissible ``state_scale`` for the error bounds.

    Exposing this as a function lets callers sit exactly on the boundary of
    the precondition without re-deriving it, which keeps the subsequent
    ``c >= minimal`` check consistent in floating point.
    """
    if not (0.0 < nu < contraction_rate < 1.0):
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
