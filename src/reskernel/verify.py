"""Randomized property suites over the kernel pipeline.

Four families of claims are exercised end to end on randomly sampled
configurations: the quadratic form through the metric tensor agrees with
explicit state simulation, metric tensors are symmetric positive
semidefinite with rank bounded by the state dimension, tensor entries obey
the geometric decay envelope, and the kernel error caused by an unknown
bounded initial state stays inside its two-sided closed-form bounds.  The
containment suite runs its trials in batches of :data:`CONTAINMENT_BATCH`,
each batch one stacked :func:`temporal_kernel.advance_states` recursion,
one product per step for the whole batch, so its cost is not a Python-level
matrix product per trial and step, and its memory does not grow with the
trial count.  Every state the suites read comes from that one loop.

The sampled suites share one sampling loop and take a ``tamper`` flag: when
set, :func:`inject_asymmetry` is applied to ``Q = Phi^T Phi`` formed from
each freshly built tensor, and the suites read that matrix in place of the
tensor.
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
from .numerics import (CLAMP_RTOL, SYMMETRY_ATOL, as_finite_array, as_reservoir_pair, asymmetry,
                       check_positive_int, is_flag, numerical_rank, relative_negativity,
                       sym_eigvals, symmetric_gram)
from .temporal_kernel import (
    BoundParams,
    TimeSeries,
    advance_states,
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
# Containment trials per stacked recursion: a batch of reservoirs is
# CONTAINMENT_BATCH * CONTAINMENT_STATE_DIM**2 floats (0.64 MB), whatever the trial count.
CONTAINMENT_BATCH = 32


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
    with warnings silenced.  ``tampered`` is the tensor's ``Q``, formed from
    ``phi`` by :func:`numerics.symmetric_gram` and passed through
    :func:`inject_asymmetry`, if the flag ``tamper`` is set, else ``None``.
    A suite may draw from ``sampler`` between builds."""
    if not is_flag(tamper):
        raise ContractViolation("tamper must be a bool")
    sampler = cp.seed_generator(cp.Seed(base_seed), stream)
    for i in range(n_configs):
        sample = _Sample(*_sample_config(sampler), cp.mix_seed(base_seed, salt, i))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reservoir, coupling_vec, tensor = build_from_specs(*sample)
        tampered = inject_asymmetry(symmetric_gram(tensor.phi)) if tamper else None
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
        q = symmetric_gram(tensor.phi) if tampered is None else tampered
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


def _containment_errors(res_spec: cp.ReservoirSpec, in_spec: cp.InputCouplingSpec,
                        seeds: list[cp.Seed], radius: float) -> np.ndarray:
    """The kernel error ``K_x0(u, v) - K_0(u, v)`` of the containment trial of
    each seed, from one stacked :func:`advance_states` recursion.

    A trial draws its reservoir and coupling from ``seed``, then ``u``, ``v``
    and the direction of ``x0``, of norm ``radius``, from stream 7 of it.
    Its four state columns are ``(u, v)`` from ``x0`` and ``(u, v)`` from
    zero, so the batch holds its states and a horizon x B x 4 array of inputs.
    """
    k = len(seeds)
    reservoirs = np.empty((k, CONTAINMENT_STATE_DIM, CONTAINMENT_STATE_DIM))
    couplings = np.empty((k, CONTAINMENT_STATE_DIM))
    # inputs[:, b] holds the four histories of trial b, most recent first.
    inputs = np.empty((CONTAINMENT_HORIZON, k, 4))
    state = np.zeros((k, CONTAINMENT_STATE_DIM, 4))
    for b, seed in enumerate(seeds):
        reservoirs[b], couplings[b] = as_reservoir_pair(cp.generate_reservoir(res_spec, seed),
                                                        cp.generate_input(in_spec, seed))
        rng = cp.seed_generator(seed, 7)
        for j in range(2):
            inputs[:, b, j] = inputs[:, b, j + 2] = rng.uniform(
                -CONTAINMENT_SIGNAL_BOUND, CONTAINMENT_SIGNAL_BOUND, CONTAINMENT_HORIZON)
        direction = rng.standard_normal(CONTAINMENT_STATE_DIM)
        state[b, :, :2] = (direction * (radius / float(np.linalg.norm(direction))))[:, np.newaxis]
    x = as_finite_array(advance_states(reservoirs, couplings, state, inputs), 3,
                        "simulated state")
    # A stacked (1 x N) @ (N x 1) product has the bits of each trial's dot product.
    from_x0 = x[:, np.newaxis, :, 0] @ x[:, :, 1, np.newaxis]
    from_zero = x[:, np.newaxis, :, 2] @ x[:, :, 3, np.newaxis]
    return (from_x0 - from_zero)[:, 0, 0]


def run_initial_state_error_containment(trials: int, base_seed: int = 0) -> PropertyResult:
    """Kernel error from a worst-norm random initial state stays inside the
    closed-form bounds on every trial, drawn from ``mix_seed(base_seed, ...)``.

    Each trial runs the ``CONTAINMENT_*`` protocol on ``(u, v)`` from the
    initial state and from zero.  The trials go in batches of
    :data:`CONTAINMENT_BATCH`, each one stacked recursion of
    ``CONTAINMENT_HORIZON`` steps (:func:`_containment_errors`): per step,
    one stacked product replaces a Python-level matrix product per trial,
    and the batch bounds memory whatever ``trials`` is.  The replay names
    the first failing trial in trial order.
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
    res_spec = cp.ReservoirSpec(regime=cp.RANDOM_IID, size=CONTAINMENT_STATE_DIM,
                                nu=CONTAINMENT_NU)
    in_spec = cp.InputCouplingSpec(kind="gaussian", size=CONTAINMENT_STATE_DIM,
                                   normalize_unit=True)
    worst_margin = np.inf
    replay = None
    for first in range(0, trials, CONTAINMENT_BATCH):
        seeds = [cp.mix_seed(base_seed, 19, t)
                 for t in range(first, min(first + CONTAINMENT_BATCH, trials))]
        err = _containment_errors(res_spec, in_spec, seeds, radius)
        margin = np.minimum(err - lower, upper - err)
        worst_margin = min(worst_margin, float(margin.min()))
        failing = np.flatnonzero(margin < 0.0)
        if failing.size and replay is None:
            j = int(failing[0])
            replay = _replay(name, _Sample(res_spec, in_spec, CONTAINMENT_HORIZON, seeds[j]),
                             error=float(err[j]), lower=lower, upper=upper)
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
