"""Randomized property suites over the kernel pipeline.

Four families of claims are exercised end to end on randomly sampled
configurations: the quadratic form through the metric tensor agrees with
explicit state simulation, metric tensors are symmetric positive
semidefinite with rank bounded by the state dimension, tensor entries obey
the geometric decay envelope, and the kernel error caused by an unknown
bounded initial state stays inside its two-sided closed-form bounds.

Every builder accepts an optional ``tamper`` callable applied to the
freshly built tensor matrix.  It exists as a negative control: injecting
an asymmetry must make the suites fail and produce a replayable report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import coupling as cp
from .errors import ContractViolation
from .motifs import CLAMP_RTOL, relative_negativity
from .numerics import SYMMETRY_ATOL, numerical_rank, sym_eig
from .temporal_kernel import (
    BoundParams,
    TimeSeries,
    build_from_specs,
    initial_state_radius,
    kernel_error_bounds,
    kernel_eval,
    minimal_state_scale,
    simulate_state,
)

Tamper = Callable[[np.ndarray], np.ndarray]

# Absolute slack on the entrywise decay envelope.
DECAY_ATOL = 1e-9
# Kernel-versus-state agreement: error / max(1, |value|).
EQUIVALENCE_RTOL = 1e-10
# Sampled configurations have 1..MAX_STATE_DIM units and horizon 1..MAX_HORIZON.
MAX_STATE_DIM = 100
MAX_HORIZON = 200


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one property suite."""

    name: str
    passed: bool
    n_checked: int
    worst: float
    detail: str
    replay: dict | None = None


def _sample_config(rng: np.random.Generator):
    regime = cp.RESERVOIR_REGIMES[int(rng.integers(0, len(cp.RESERVOIR_REGIMES)))]
    kind = cp.INPUT_KINDS[int(rng.integers(0, len(cp.INPUT_KINDS)))]
    n = int(rng.integers(1, MAX_STATE_DIM + 1))
    nu = float(rng.uniform(0.3, 0.9995))
    horizon = int(rng.integers(1, MAX_HORIZON + 1))
    period = None
    if kind in cp.PERIODIC_KINDS:
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        period = int(divisors[int(rng.integers(0, len(divisors)))])
    distribution = cp.ENTRY_DISTRIBUTIONS[int(rng.integers(0, len(cp.ENTRY_DISTRIBUTIONS)))]
    normalize = bool(rng.integers(0, 2))
    res_spec = cp.ReservoirSpec(regime=regime, size=n, nu=nu, distribution=distribution)
    in_spec = cp.InputCouplingSpec(kind=kind, size=n, period=period, normalize_unit=normalize)
    return res_spec, in_spec, horizon


def _build(res_spec, in_spec, horizon, seed, tamper: Tamper | None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reservoir, coupling_vec, tensor = build_from_specs(res_spec, in_spec, horizon, seed)
    if tamper is not None:
        tensor = replace(tensor, matrix=tamper(tensor.matrix.copy()))
    return reservoir, coupling_vec, tensor


def _replay(name: str, res_spec, in_spec, horizon, seed, **extra) -> dict:
    info = {
        "property": name,
        "regime": res_spec.regime,
        "distribution": res_spec.distribution,
        "input_kind": in_spec.kind,
        "period": in_spec.period,
        "normalize_unit": in_spec.normalize_unit,
        "state_dim": res_spec.size,
        "nu": res_spec.nu,
        "horizon": horizon,
        "seed": seed.base,
    }
    info.update(extra)
    return info


def run_kernel_state_equivalence(n_configs: int = 100, base_seed: int = 0,
                                 pairs_per_config: int = 2,
                                 tamper: Tamper | None = None) -> PropertyResult:
    """Quadratic form through the tensor versus explicit state simulation,
    on configurations sampled from ``Seed(base_seed)``.

    The pairs of a configuration are drawn first, then their states come
    from one batched :func:`simulate_state` recursion; the oracle is the
    recursion, never the feature matrix.
    """
    cp.check_positive_int(n_configs, "n_configs")
    cp.check_positive_int(pairs_per_config, "pairs_per_config")
    name = "kernel-state equivalence"
    sampler = cp._rng(cp.Seed(base_seed), 901)
    worst = 0.0
    replay = None
    checked = 0
    for i in range(n_configs):
        res_spec, in_spec, horizon = _sample_config(sampler)
        seed = cp.mix_seed(base_seed, 17, i)
        reservoir, coupling_vec, tensor = _build(res_spec, in_spec, horizon, seed, tamper)
        histories = [TimeSeries(sampler.uniform(-1.0, 1.0, horizon))
                     for _ in range(2 * pairs_per_config)]
        states = simulate_state(reservoir, coupling_vec, histories)
        for j in range(0, len(histories), 2):
            through_tensor = kernel_eval(tensor, histories[j], histories[j + 1])
            through_states = float(states[:, j] @ states[:, j + 1])
            tol = EQUIVALENCE_RTOL * max(1.0, abs(through_tensor))
            ratio = abs(through_tensor - through_states) / tol
            checked += 1
            if ratio > worst:
                worst = ratio
                if ratio > 1.0 and replay is None:
                    replay = _replay(name, res_spec, in_spec, horizon, seed,
                                     error=abs(through_tensor - through_states), tolerance=tol)
    passed = worst <= 1.0
    return PropertyResult(name, passed, checked,
                          worst, f"worst error/tolerance ratio {worst:.3e}",
                          replay if not passed else None)


def run_spectrum_properties(n_configs: int = 60, base_seed: int = 0,
                            tamper: Tamper | None = None) -> list[PropertyResult]:
    """Symmetry, positive spectrum, rank bound, and entrywise decay, on
    configurations sampled from ``Seed(base_seed)``.

    An asymmetric tensor fails the first suite and skips its spectrum; its
    decay envelope is still evaluated, so both suites check every
    configuration.  The first suite reports the worst ``max |Q - Q^T|`` and
    the worst relative negativity apart; its ``worst`` is the negativity.
    """
    cp.check_positive_int(n_configs, "n_configs")
    psd_name = "tensor symmetry, positive spectrum, rank bound"
    decay_name = "entrywise decay envelope"
    sampler = cp._rng(cp.Seed(base_seed), 902)
    worst_asym = 0.0
    worst_neg = 0.0
    worst_decay = -np.inf
    psd_replay = None
    decay_replay = None
    psd_failed = False
    for i in range(n_configs):
        res_spec, in_spec, horizon = _sample_config(sampler)
        seed = cp.mix_seed(base_seed, 23, i)
        _, coupling_vec, tensor = _build(res_spec, in_spec, horizon, seed, tamper)

        asym = float(np.max(np.abs(tensor.matrix - tensor.matrix.T)))
        worst_asym = max(worst_asym, asym)
        if asym > SYMMETRY_ATOL:
            psd_failed = True
            if psd_replay is None:
                psd_replay = _replay(psd_name, res_spec, in_spec, horizon, seed,
                                     asymmetry=asym)
        else:
            values = sym_eig(tensor.matrix).eigenvalues
            rel_neg = relative_negativity(values)
            rank = numerical_rank(values)
            if rel_neg > CLAMP_RTOL or rank > res_spec.size:
                psd_failed = True
                if psd_replay is None:
                    psd_replay = _replay(psd_name, res_spec, in_spec, horizon, seed,
                                         relative_negativity=rel_neg, rank=rank)
            worst_neg = max(worst_neg, rel_neg)

        damp = res_spec.nu ** np.arange(horizon)
        envelope = np.outer(damp, damp) * float(coupling_vec @ coupling_vec) + DECAY_ATOL
        excess = float(np.max(np.abs(tensor.matrix) - envelope))
        if excess > worst_decay:
            worst_decay = excess
            if excess > 0.0 and decay_replay is None:
                decay_replay = _replay(decay_name, res_spec, in_spec, horizon, seed,
                                       excess=excess)
    decay_passed = worst_decay <= 0.0
    return [
        PropertyResult(psd_name, not psd_failed, n_configs, worst_neg,
                       f"worst asymmetry {worst_asym:.3e}, "
                       f"worst relative negativity {worst_neg:.3e}",
                       psd_replay if psd_failed else None),
        PropertyResult(decay_name, decay_passed, n_configs, worst_decay,
                       f"worst envelope excess {worst_decay:.3e}",
                       decay_replay if not decay_passed else None),
    ]


def run_initial_state_error_containment(trials: int = 50, state_dim: int = 50,
                                        horizon: int = 300, nu: float = 0.9,
                                        contraction_rate: float = 0.95,
                                        signal_bound: float = 1.0,
                                        base_seed: int = 0) -> PropertyResult:
    """Kernel error from a worst-norm random initial state stays inside the
    closed-form bounds on every trial, drawn from ``mix_seed(base_seed, ...)``.

    Each trial runs two batched :func:`simulate_state` recursions over
    ``(u, v)``: one from the initial state and one from zero.
    """
    cp.check_positive_int(trials, "trials")
    cp.check_positive_int(state_dim, "state_dim")
    name = "initial-state error containment"
    coupling_bound = 1.0
    scale = minimal_state_scale(signal_bound, coupling_bound, nu, contraction_rate)
    params = BoundParams(signal_bound=signal_bound, coupling_bound=coupling_bound,
                         contraction_rate=contraction_rate, state_scale=scale,
                         horizon=horizon)
    lower, upper = kernel_error_bounds(params, nu)
    radius = initial_state_radius(params)
    worst_margin = np.inf
    replay = None
    for t in range(trials):
        seed = cp.mix_seed(base_seed, 19, t)
        res_spec = cp.ReservoirSpec(regime=cp.RANDOM_IID, size=state_dim, nu=nu)
        in_spec = cp.InputCouplingSpec(kind="gaussian", size=state_dim, normalize_unit=True)
        reservoir = cp.generate_reservoir(res_spec, seed)
        coupling_vec = cp.generate_input(in_spec, seed)
        rng = cp._rng(seed, 7)
        u = TimeSeries(rng.uniform(-signal_bound, signal_bound, horizon))
        v = TimeSeries(rng.uniform(-signal_bound, signal_bound, horizon))
        direction = rng.standard_normal(state_dim)
        x0 = direction * (radius / float(np.linalg.norm(direction)))
        x_u, x_v = simulate_state(reservoir, coupling_vec, [u, v], x0).T
        z_u, z_v = simulate_state(reservoir, coupling_vec, [u, v]).T
        from_x0 = float(x_u @ x_v)
        from_zero = float(z_u @ z_v)
        err = from_x0 - from_zero
        margin = min(err - lower, upper - err)
        if margin < worst_margin:
            worst_margin = margin
            if margin < 0.0 and replay is None:
                replay = _replay(name, res_spec, in_spec, horizon, seed,
                                 error=err, lower=lower, upper=upper)
    passed = worst_margin >= 0.0
    return PropertyResult(name, passed, trials, worst_margin,
                          f"worst containment margin {worst_margin:.3e} "
                          f"(bounds [{lower:.3e}, {upper:.3e}])",
                          replay if not passed else None)


def run_all(base_seed: int = 0, equivalence_configs: int = 100,
            spectrum_configs: int = 60, containment_trials: int = 50,
            tamper: Tamper | None = None) -> list[PropertyResult]:
    results = [run_kernel_state_equivalence(n_configs=equivalence_configs,
                                            base_seed=base_seed, tamper=tamper)]
    results.extend(run_spectrum_properties(n_configs=spectrum_configs,
                                           base_seed=base_seed, tamper=tamper))
    results.append(run_initial_state_error_containment(trials=containment_trials,
                                                       base_seed=base_seed))
    return results


def inject_asymmetry(matrix: np.ndarray) -> np.ndarray:
    """Negative-control tamper: break symmetry of one off-diagonal entry."""
    if matrix.shape[0] > 1:
        matrix[0, 1] += 1e-3
    else:
        matrix[0, 0] = -1.0  # a 1x1 tensor cannot be asymmetric; break PSD instead
    return matrix
