"""Randomized property suites over the kernel pipeline.

Four families of claims are exercised end to end on randomly sampled
configurations: the quadratic form through the metric tensor agrees with
explicit state simulation, metric tensors are symmetric positive
semidefinite with rank bounded by the state dimension, tensor entries obey
the geometric decay envelope, and the kernel error caused by an unknown
bounded initial state stays inside its two-sided closed-form bounds.

The sampled suites share one sampling loop and take a ``tamper`` flag: when
set, :func:`inject_asymmetry` is applied to a copy of each freshly built
tensor's matrix, and the suites read that matrix in place of the tensor.
It exists as a negative control: injecting an asymmetry must make the
suites fail and produce a replayable report.  A suite's verdict is its
first failure: it passes exactly when it recorded no replay.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import coupling as cp
from .errors import ContractViolation
from .numerics import (CLAMP_RTOL, SYMMETRY_ATOL, asymmetry, check_positive_int, is_flag,
                       numerical_rank, relative_negativity, sym_eigvals)
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

# Absolute slack on the entrywise decay envelope.
DECAY_ATOL = 1e-9
# Kernel-versus-state agreement: error / max(1, |value|).
EQUIVALENCE_RTOL = 1e-10
# Sampled configurations have 1..MAX_STATE_DIM units and horizon 1..MAX_HORIZON.
MAX_STATE_DIM = 100
MAX_HORIZON = 200
# Input pairs the equivalence suite checks per configuration.
PAIRS_PER_CONFIG = 2
# The containment suite's one protocol: a random_iid reservoir of this size and
# nu, signals in [-bound, bound] over the horizon, bounds at the contraction rate.
CONTAINMENT_STATE_DIM = 50
CONTAINMENT_HORIZON = 300
CONTAINMENT_NU = 0.9
CONTAINMENT_CONTRACTION_RATE = 0.95
CONTAINMENT_SIGNAL_BOUND = 1.0


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one property suite.  ``replay`` describes the first failing
    check, ``None`` when every check held, and ``passed`` is read from it."""

    name: str
    n_checked: int
    worst: float
    detail: str
    replay: dict | None = None

    @property
    def passed(self) -> bool:
        return self.replay is None


class _Sample(NamedTuple):
    """One configuration a suite checks, as its replay records it."""

    res_spec: cp.ReservoirSpec
    in_spec: cp.InputCouplingSpec
    horizon: int
    seed: cp.Seed


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


def _sampled_builds(n_configs: int, base_seed: int, stream: int, salt: int,
                    tamper: bool) -> Iterator[tuple]:
    """Yield ``(sampler, sample, reservoir, coupling, tensor, tampered)`` per
    configuration: sample ``i`` is drawn from stream ``stream`` of
    ``Seed(base_seed)`` with seed ``mix_seed(base_seed, salt, i)`` and built
    with warnings silenced.  ``tampered`` is a copy of the tensor's matrix
    passed through :func:`inject_asymmetry` if the flag ``tamper`` is set,
    else ``None``.  A suite may draw from ``sampler`` between builds."""
    if not is_flag(tamper):
        raise ContractViolation("tamper must be a bool")
    sampler = cp.seed_generator(cp.Seed(base_seed), stream)
    for i in range(n_configs):
        sample = _Sample(*_sample_config(sampler), cp.mix_seed(base_seed, salt, i))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reservoir, coupling_vec, tensor = build_from_specs(*sample)
        tampered = inject_asymmetry(tensor.matrix.copy()) if tamper else None
        yield sampler, sample, reservoir, coupling_vec, tensor, tampered


def _replay(name: str, sample: _Sample, **extra) -> dict:
    res_spec, in_spec, horizon, seed = sample
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


def run_kernel_state_equivalence(n_configs: int, base_seed: int = 0,
                                 tamper: bool = False) -> PropertyResult:
    """Quadratic form through the tensor versus explicit state simulation,
    on ``n_configs`` configurations sampled from ``Seed(base_seed)``, with
    :data:`PAIRS_PER_CONFIG` input pairs each.

    The pairs of a configuration are drawn first, then their states come
    from one batched :func:`simulate_state` recursion; the oracle is the
    recursion, never the feature matrix.  A tampered matrix ``Q`` is read
    as ``u^T Q v`` averaged over its two evaluation orders.
    """
    check_positive_int(n_configs, "n_configs")
    name = "kernel-state equivalence"
    worst = 0.0
    replay = None
    checked = 0
    for sampler, sample, reservoir, coupling_vec, tensor, tampered in _sampled_builds(
            n_configs, base_seed, 901, 17, tamper):
        histories = [TimeSeries(sampler.uniform(-1.0, 1.0, sample.horizon))
                     for _ in range(2 * PAIRS_PER_CONFIG)]
        states = simulate_state(reservoir, coupling_vec, histories)
        for j in range(0, len(histories), 2):
            u, v = histories[j], histories[j + 1]
            if tampered is None:
                through_tensor = kernel_eval(tensor, u, v)
            else:
                x, y = u.values, v.values
                through_tensor = float(0.5 * (x @ (tampered @ y) + y @ (tampered @ x)))
            through_states = float(states[:, j] @ states[:, j + 1])
            tol = EQUIVALENCE_RTOL * max(1.0, abs(through_tensor))
            ratio = abs(through_tensor - through_states) / tol
            checked += 1
            worst = max(worst, ratio)
            if ratio > 1.0 and replay is None:
                replay = _replay(name, sample, error=abs(through_tensor - through_states),
                                 tolerance=tol)
    return PropertyResult(name, checked, worst, f"worst error/tolerance ratio {worst:.3e}", replay)


def run_spectrum_properties(n_configs: int, base_seed: int = 0,
                            tamper: bool = False) -> list[PropertyResult]:
    """Symmetry, positive spectrum, rank bound, and entrywise decay, on
    ``n_configs`` configurations sampled from ``Seed(base_seed)``.

    An asymmetric tensor fails the first suite and skips its spectrum; its
    decay envelope is still evaluated, so both suites check every
    configuration.  The first suite reports the worst ``max |Q - Q^T|`` and
    the worst relative negativity apart; its ``worst`` is the negativity.
    """
    check_positive_int(n_configs, "n_configs")
    psd_name = "tensor symmetry, positive spectrum, rank bound"
    decay_name = "entrywise decay envelope"
    worst_asym = 0.0
    worst_neg = 0.0
    worst_decay = -np.inf
    psd_replay = None
    decay_replay = None
    for _, sample, _, coupling_vec, tensor, tampered in _sampled_builds(
            n_configs, base_seed, 902, 23, tamper):
        q = tensor.matrix if tampered is None else tampered
        asym = asymmetry(q)
        worst_asym = max(worst_asym, asym)
        if asym > SYMMETRY_ATOL:
            if psd_replay is None:
                psd_replay = _replay(psd_name, sample, asymmetry=asym)
        else:
            values = sym_eigvals(q)
            rel_neg = relative_negativity(values)
            rank = numerical_rank(values)
            if (rel_neg > CLAMP_RTOL or rank > tensor.state_dim) and psd_replay is None:
                psd_replay = _replay(psd_name, sample, relative_negativity=rel_neg, rank=rank)
            worst_neg = max(worst_neg, rel_neg)

        damp = sample.res_spec.nu ** np.arange(tensor.horizon)
        envelope = np.outer(damp, damp) * float(coupling_vec @ coupling_vec) + DECAY_ATOL
        excess = float(np.max(np.abs(q) - envelope))
        worst_decay = max(worst_decay, excess)
        if excess > 0.0 and decay_replay is None:
            decay_replay = _replay(decay_name, sample, excess=excess)
    return [
        PropertyResult(psd_name, n_configs, worst_neg,
                       f"worst asymmetry {worst_asym:.3e}, "
                       f"worst relative negativity {worst_neg:.3e}", psd_replay),
        PropertyResult(decay_name, n_configs, worst_decay,
                       f"worst envelope excess {worst_decay:.3e}", decay_replay),
    ]


def run_initial_state_error_containment(trials: int, base_seed: int = 0) -> PropertyResult:
    """Kernel error from a worst-norm random initial state stays inside the
    closed-form bounds on every trial, drawn from ``mix_seed(base_seed, ...)``.

    Each trial runs the ``CONTAINMENT_*`` protocol as two batched
    :func:`simulate_state` recursions over ``(u, v)``: one from the initial
    state and one from zero.
    """
    check_positive_int(trials, "trials")
    name = "initial-state error containment"
    coupling_bound = 1.0
    scale = minimal_state_scale(CONTAINMENT_SIGNAL_BOUND, coupling_bound, CONTAINMENT_NU,
                                CONTAINMENT_CONTRACTION_RATE)
    params = BoundParams(signal_bound=CONTAINMENT_SIGNAL_BOUND, coupling_bound=coupling_bound,
                         contraction_rate=CONTAINMENT_CONTRACTION_RATE, state_scale=scale,
                         horizon=CONTAINMENT_HORIZON)
    lower, upper = kernel_error_bounds(params, CONTAINMENT_NU)
    radius = initial_state_radius(params)
    worst_margin = np.inf
    replay = None
    for t in range(trials):
        seed = cp.mix_seed(base_seed, 19, t)
        res_spec = cp.ReservoirSpec(regime=cp.RANDOM_IID, size=CONTAINMENT_STATE_DIM,
                                    nu=CONTAINMENT_NU)
        in_spec = cp.InputCouplingSpec(kind="gaussian", size=CONTAINMENT_STATE_DIM,
                                       normalize_unit=True)
        reservoir = cp.generate_reservoir(res_spec, seed)
        coupling_vec = cp.generate_input(in_spec, seed)
        rng = cp.seed_generator(seed, 7)
        u, v = (TimeSeries(rng.uniform(-CONTAINMENT_SIGNAL_BOUND, CONTAINMENT_SIGNAL_BOUND,
                                       CONTAINMENT_HORIZON)) for _ in range(2))
        direction = rng.standard_normal(CONTAINMENT_STATE_DIM)
        x0 = direction * (radius / float(np.linalg.norm(direction)))
        x_u, x_v = simulate_state(reservoir, coupling_vec, [u, v], x0).T
        z_u, z_v = simulate_state(reservoir, coupling_vec, [u, v]).T
        from_x0 = float(x_u @ x_v)
        from_zero = float(z_u @ z_v)
        err = from_x0 - from_zero
        margin = min(err - lower, upper - err)
        worst_margin = min(worst_margin, margin)
        if margin < 0.0 and replay is None:
            replay = _replay(name, _Sample(res_spec, in_spec, CONTAINMENT_HORIZON, seed),
                             error=err, lower=lower, upper=upper)
    return PropertyResult(name, trials, worst_margin,
                          f"worst containment margin {worst_margin:.3e} "
                          f"(bounds [{lower:.3e}, {upper:.3e}])", replay)


def inject_asymmetry(matrix: np.ndarray) -> np.ndarray:
    """Negative-control tamper: break symmetry of one off-diagonal entry."""
    if matrix.shape[0] > 1:
        matrix[0, 1] += 1e-3
    else:
        matrix[0, 0] = -1.0  # a 1x1 tensor cannot be asymmetric; break PSD instead
    return matrix
