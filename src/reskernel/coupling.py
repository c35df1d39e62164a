"""Reservoir matrices and input couplings with reproducible seeding.

Three reservoir regimes are supported: dense i.i.d. random matrices,
symmetric (Wigner-type) random matrices, and the deterministic cycle, a
scaled cyclic permutation.  Random matrices are rescaled so that their
measured largest singular value equals the requested contraction scale
``nu`` exactly, up to one rounding.

Input couplings cover random draws (gaussian, uniform on [-1, 1], all-ones
with random signs), deterministic sign vectors driven by the fractional
binary digits of pi or e, and periodic block patterns.

All randomness flows through numpy's PCG64 generator seeded via
SeedSequence, so identical (spec, seed) pairs reproduce bit-identical
arrays.  The reservoir and input streams of the same seed are decoupled by
mixing in distinct domain tags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ConvergenceError
from .numerics import check_positive_int, is_flag, is_int, is_real, largest_singular_value

RANDOM_IID = "random_iid"
SYMMETRIC_WIGNER = "symmetric_wigner"
CYCLE_PERMUTATION = "cycle_permutation"
RESERVOIR_REGIMES = (RANDOM_IID, SYMMETRIC_WIGNER, CYCLE_PERMUTATION)

GAUSSIAN = "gaussian"
UNIFORM = "uniform"
RADEMACHER = "rademacher"
ENTRY_DISTRIBUTIONS = (GAUSSIAN, UNIFORM, RADEMACHER)

INPUT_KINDS = (
    "gaussian",
    "uniform",
    "ones_random_signs",
    "ones_pi_signs",
    "ones_e_signs",
    "periodic_binary",
    "periodic_bipolar",
)
# Kinds that take a period, and kinds drawn from the random stream, each
# with the entry distribution it draws.
PERIODIC_KINDS = ("periodic_binary", "periodic_bipolar")
RANDOM_INPUT_KINDS = {"gaussian": GAUSSIAN, "uniform": UNIFORM, "ones_random_signs": RADEMACHER}

_RESERVOIR_DOMAIN = 0
_INPUT_DOMAIN = 1



@dataclass(frozen=True)
class Seed:
    """A 64-bit base seed for the deterministic generator tree."""

    base: int

    def __post_init__(self):
        if not is_int(self.base):
            raise ContractViolation("seed base must be an integer")
        if not (0 <= self.base < 2**64):
            raise ContractViolation("seed base must fit in an unsigned 64-bit integer")


def mix_seed(base: int, *keys: int) -> Seed:
    """Derive a child seed from a base seed and integer keys.

    Used for per-trial streams: the same (base, keys) always yields the same
    child, and distinct keys yield decorrelated generators.
    """
    Seed(base)
    for k in keys:
        if not (is_int(k) and k >= 0):
            raise ContractViolation("mix keys must be non-negative integers")
    seq = np.random.SeedSequence((base, *keys))
    return Seed(int(seq.generate_state(1, np.uint64)[0]))


def trial_seed(base: int, trial: int) -> Seed:
    """The seed of trial ``trial`` under base seed ``base``: ``mix_seed(base, 0, trial)``.

    This is the one rule by which every command turns ``--seed`` into a
    reservoir and a coupling, so the same base seed gives the same draw in
    ``motifs``, ``predict`` and ``kernel`` (trial 0), and trial ``t`` of a
    sweep gets the same draw at every ``nu``.
    """
    return mix_seed(base, 0, trial)


def seed_generator(seed: Seed, domain: int) -> np.random.Generator:
    """The one seed-to-generator rule: the PCG64 stream of ``(seed.base, domain)``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed.base, domain))))


def _sample(rng: np.random.Generator, distribution: str, shape) -> np.ndarray:
    if distribution == GAUSSIAN:
        return rng.standard_normal(shape)
    if distribution == UNIFORM:
        return rng.uniform(-1.0, 1.0, shape)
    return 2.0 * rng.integers(0, 2, shape).astype(float) - 1.0  # rademacher


def check_nu(nu) -> None:
    """Reject a contraction scale that is not a real number in (0, 1]."""
    if not (is_real(nu) and 0.0 < nu <= 1.0):
        raise ContractViolation("nu must lie in (0, 1]")


@dataclass(frozen=True)
class ReservoirSpec:
    """Recipe for one reservoir matrix.

    Attributes
    ----------
    regime : str
        One of ``random_iid``, ``symmetric_wigner``, ``cycle_permutation``.
    size : int
        State dimension, at least 1.
    nu : float
        Target largest singular value, in (0, 1].  The value 1.0 is admitted
        solely so richness sweeps can probe the edge of the contraction
        range.
    distribution : str
        Entry distribution for the random regimes; ignored by the cycle.
    """

    regime: str
    size: int
    nu: float
    distribution: str = GAUSSIAN

    def __post_init__(self):
        if self.regime not in RESERVOIR_REGIMES:
            raise ContractViolation(f"unknown reservoir regime {self.regime!r}")
        check_positive_int(self.size, "reservoir size")
        if self.distribution not in ENTRY_DISTRIBUTIONS:
            raise ContractViolation(f"unknown entry distribution {self.distribution!r}")
        check_nu(self.nu)


@dataclass(frozen=True)
class InputCouplingSpec:
    """Recipe for one input coupling vector.

    ``period`` is required by the periodic kinds and must divide ``size``.
    With ``normalize_unit`` (the default), a flag, the finished vector is
    rescaled to unit Euclidean length.
    """

    kind: str
    size: int
    period: int | None = None
    normalize_unit: bool = True

    def __post_init__(self):
        if self.kind not in INPUT_KINDS:
            raise ContractViolation(f"unknown input kind {self.kind!r}")
        check_positive_int(self.size, "coupling size")
        if self.kind in PERIODIC_KINDS:
            if self.period is None:
                raise ContractViolation(f"{self.kind} requires a period")
            check_positive_int(self.period, "period")
            if self.size % self.period != 0:
                raise ContractViolation(
                    f"period {self.period} does not divide size {self.size}"
                )
        elif self.period is not None:
            raise ContractViolation(f"{self.kind} does not take a period")
        if not is_flag(self.normalize_unit):
            raise ContractViolation("normalize_unit must be a bool")


def coupling_spec(kind: str, size: int, period: int | None,
                  normalize_unit: bool = True) -> InputCouplingSpec:
    """The spec of ``kind`` under a period setting shared by several kinds:
    the periodic kinds take ``period`` and the others drop it."""
    return InputCouplingSpec(kind, size, period if kind in PERIODIC_KINDS else None,
                             normalize_unit)


def _arctan_inv(x: int, one: int) -> tuple[int, int]:
    """``one * arctan(1/x)`` summed in integers, and a bound on its error:
    each term is short by less than 1 and the alternating tail is below 1."""
    total, power, k = 0, one // x, 0  # power is floor(one / x**(2k+1))
    while power:
        total += (-1) ** k * (power // (2 * k + 1))
        power //= x * x
        k += 1
    return total, k + 1


def _pi(one: int) -> tuple[int, int]:
    """``one * pi`` by Machin's formula, 16 arctan(1/5) - 4 arctan(1/239)."""
    a, a_err = _arctan_inv(5, one)
    b, b_err = _arctan_inv(239, one)
    return 16 * a - 4 * b, 16 * a_err + 4 * b_err


def _e(one: int) -> tuple[int, int]:
    """``one * e`` by the factorial series, and a bound on its error: each
    term ``floor(one / j!)`` is short by less than 1 and the tail is below 2."""
    total, term, j = 0, one, 0
    while term:
        total += term
        j += 1
        term //= j
    return total, j + 2


_SERIES = {"pi": _pi, "e": _e}


def irrational_bits(constant: str, count: int) -> np.ndarray:
    """First ``count`` fractional binary digits of pi or e.

    Bit 0 is the most significant fractional digit.  The series is summed
    in integers at ``count + guard`` fractional bits; the bits are those both
    ends of its error interval share, with ``guard`` doubled until they agree.
    """
    if constant not in _SERIES:
        raise ContractViolation(f"unknown constant {constant!r}; choose 'pi' or 'e'")
    check_positive_int(count, "count")
    guard = 32
    while True:
        total, err = _SERIES[constant](1 << (count + guard))
        low, high = (total - err) >> guard, (total + err) >> guard
        if low == high:
            break
        guard *= 2
    digits = format(low % (1 << count), f"0{count}b")
    return np.array([int(d) for d in digits], dtype=np.int64)


def draw_reservoir(spec: ReservoirSpec, seed: Seed) -> tuple[np.ndarray, float]:
    """The unscaled reservoir of ``spec`` and ``seed`` (``spec.nu`` is not
    applied; the spec's constructor checked the rest) and its largest
    singular value.

    The cycle is the cyclic shift, whose singular values are all exactly 1.
    The random regimes sample entries; the symmetric regime mirrors the
    upper triangle, so its matrix equals its transpose exactly.  Any ``nu``
    is then reached by ``raw * (nu / sigma)``, which lets a sweep draw and
    measure once per trial.
    """
    if spec.regime == CYCLE_PERMUTATION:
        raw = np.eye(spec.size, k=-1)  # W[i, i - 1] = 1, with no second N x N array
        raw[0, -1] = 1.0
        return raw, 1.0
    raw = _sample(seed_generator(seed, _RESERVOIR_DOMAIN), spec.distribution,
                  (spec.size, spec.size))
    if spec.regime == SYMMETRIC_WIGNER:
        upper = np.triu(raw)
        raw = upper + np.triu(upper, 1).T
    sigma = largest_singular_value(raw)
    if sigma == 0.0:
        raise ConvergenceError("sampled reservoir is the zero matrix and cannot be rescaled")
    return raw, sigma


def generate_reservoir(spec: ReservoirSpec, seed: Seed) -> np.ndarray:
    """Materialize the reservoir matrix for ``spec``: the draw of
    :func:`draw_reservoir` rescaled so that ``largest_singular_value(W) ==
    spec.nu`` up to one rounding (exactly, for the cycle)."""
    raw, sigma = draw_reservoir(spec, seed)
    return raw * (spec.nu / sigma)


def generate_input(spec: InputCouplingSpec, seed: Seed) -> np.ndarray:
    """Materialize the input coupling vector for ``spec``.

    The pi and e sign kinds map bit 1 to +1 and bit 0 to -1.  Periodic kinds tile
    their block: ``periodic_binary`` repeats (1, 0, ..., 0) and
    ``periodic_bipolar`` repeats (+1, -1, ..., -1).
    """
    n = spec.size
    kind = spec.kind
    if kind in RANDOM_INPUT_KINDS:
        vec = _sample(seed_generator(seed, _INPUT_DOMAIN), RANDOM_INPUT_KINDS[kind], n)
    elif kind in ("ones_pi_signs", "ones_e_signs"):
        bits = irrational_bits("pi" if kind == "ones_pi_signs" else "e", n)
        vec = 2.0 * bits.astype(float) - 1.0
    else:  # a periodic kind; the spec admits no other
        p = spec.period
        block = np.full(p, -1.0) if kind == "periodic_bipolar" else np.zeros(p)
        block[0] = 1.0
        vec = np.tile(block, n // p)

    if spec.normalize_unit:
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise ConvergenceError("cannot unit-normalize a zero coupling vector")
        vec = vec / norm
    return vec
