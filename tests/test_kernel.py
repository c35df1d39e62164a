"""State simulation, the metric tensor, kernel evaluation, and error bounds."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from reskernel import (
    BoundParams,
    ContractViolation,
    InputCouplingSpec,
    MetricTensor,
    ReadoutModel,
    ReservoirSpec,
    Seed,
    TimeSeries,
    build_metric_tensor,
    initial_state_radius,
    kernel_error_bounds,
    kernel_eval,
    kernel_poly,
    minimal_state_scale,
    readout_eval,
    scale_metric_tensor,
    simulate_state,
)
from reskernel import temporal_kernel
from reskernel.coupling import draw_reservoir, generate_input, generate_reservoir
from reskernel.motifs import MotifComparison, MotifPrediction, MotifSet
from reskernel.numerics import EigenDecomposition, symmetric_gram
from reskernel.verify import run_initial_state_error_containment


def _cycle(n, nu):
    return generate_reservoir(
        ReservoirSpec(regime="cycle_permutation", size=n, nu=nu), Seed(0))


def _random_pair(n, nu, seed):
    res = generate_reservoir(ReservoirSpec(regime="random_iid", size=n, nu=nu),
                             Seed(seed))
    coup = generate_input(InputCouplingSpec(kind="gaussian", size=n), Seed(seed))
    return res, coup


# ---------------------------------------------------------------------------
# TimeSeries
# ---------------------------------------------------------------------------

def test_time_series_exposes_horizon():
    assert TimeSeries(np.array([1.0, 2.0, 3.0])).horizon == 3


@pytest.mark.parametrize("bad", [np.zeros(0), np.zeros((2, 2)), np.array([1.0, np.nan])])
def test_time_series_rejects_malformed_values(bad):
    with pytest.raises(ContractViolation):
        TimeSeries(bad)


@pytest.mark.parametrize("make", [
    lambda: TimeSeries([1.0, 2.0]),
    lambda: ReadoutModel((TimeSeries([1.0, 2.0]),), [0.5], bias=0.25),
    lambda: MotifSet(np.eye(2), [2.0, 1.0]),
    lambda: MotifPrediction(np.eye(2), [1.0, 0.5], True),
    lambda: MotifComparison(np.ones(2), np.zeros(2), np.arange(2)),
    lambda: EigenDecomposition(np.array([2.0, 1.0]), np.eye(2)),
], ids=["TimeSeries", "ReadoutModel", "MotifSet", "MotifPrediction", "MotifComparison",
        "EigenDecomposition"])
def test_a_record_of_arrays_compares_and_hashes_by_identity(make):
    # A field-wise == would take the truth value of an array and raise.
    record, twin = make(), make()
    assert record == record and record != twin
    assert hash(record) == hash(record)
    assert len({record, twin}) == 2


def test_a_readout_keeps_its_arrays_when_the_caller_writes_them():
    a, beta = np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0])
    u = TimeSeries(a)
    model = ReadoutModel((u,), beta)
    tensor = build_metric_tensor(*_random_pair(3, 0.9, 3), 4)
    q = TimeSeries([0.5, -1.0, 2.0, 0.25])
    a[0], beta[0] = 10.0, 3.0
    assert u.values.tolist() == [1.0, 0.0, 0.0, 0.0] and model.coefficients.tolist() == [1.0]
    assert readout_eval(model, tensor, q) == pytest.approx(
        model.coefficients[0] * kernel_eval(tensor, model.supports[0], q), rel=1e-12, abs=0.0)
    for array in (u.values, model.coefficients):
        with pytest.raises(ValueError):
            array[0] = 10.0


# ---------------------------------------------------------------------------
# simulate_state
# ---------------------------------------------------------------------------

def test_single_step_state_is_scaled_coupling():
    res, coup = _random_pair(6, 0.8, 1)
    state = simulate_state(res, coup, TimeSeries(np.array([2.5])))
    assert np.allclose(state, 2.5 * coup, atol=1e-15)


def test_two_step_state_on_cycle_by_hand():
    # Newest sample couples directly, the older one arrives shifted and damped.
    w = _cycle(2, 0.6)
    state = simulate_state(w, np.array([1.0, 0.0]), TimeSeries(np.array([3.0, 5.0])))
    assert np.array_equal(state, [3.0, 3.0])


def test_simulate_state_matches_matrix_power_oracle():
    rng = np.random.default_rng(17)
    for seed in range(4):
        res, coup = _random_pair(7, 0.9, seed)
        values = rng.normal(size=11)
        x0 = rng.normal(size=7)
        got = simulate_state(res, coup, TimeSeries(values), initial_state=x0)
        ref = oracles.state_by_powers(res, coup, values, initial_state=x0)
        assert np.max(np.abs(got - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_simulate_state_on_unit_impulses():
    res, coup = _random_pair(5, 0.7, 3)
    e1 = np.zeros(3)
    e1[0] = 1.0
    e2 = np.zeros(3)
    e2[1] = 1.0
    assert np.allclose(simulate_state(res, coup, TimeSeries(e1)), coup, atol=1e-15)
    assert np.allclose(simulate_state(res, coup, TimeSeries(e2)), res @ coup,
                       atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=-5.0, max_value=5.0),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_simulate_state_is_linear(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    res, coup = _random_pair(4, 0.8, seed % 7)
    u = rng.normal(size=6)
    v = rng.normal(size=6)
    combined = simulate_state(res, coup, TimeSeries(alpha * u + beta * v))
    split = (alpha * simulate_state(res, coup, TimeSeries(u))
             + beta * simulate_state(res, coup, TimeSeries(v)))
    scale = max(1.0, np.max(np.abs(split)))
    assert np.max(np.abs(combined - split)) <= 1e-12 * scale


def test_simulate_state_rejects_mismatched_shapes():
    res, coup = _random_pair(5, 0.7, 0)
    with pytest.raises(ContractViolation):
        simulate_state(res, coup[:4], TimeSeries(np.ones(3)))
    with pytest.raises(ContractViolation):
        simulate_state(res, coup, TimeSeries(np.ones(3)), initial_state=np.ones(4))
    with pytest.raises(ContractViolation):
        simulate_state(res[:4], coup, TimeSeries(np.ones(3)))


@pytest.mark.parametrize("n", [1, 7, 40])
@pytest.mark.parametrize("with_initial_state", [False, True])
def test_one_history_gives_the_bits_of_the_plain_loop(n, with_initial_state):
    rng = np.random.default_rng(n)
    res, coup = _random_pair(n, 0.9, n)
    values = rng.uniform(-1.0, 1.0, 53)
    x0 = rng.normal(size=n) if with_initial_state else None
    # The one-product loop: [x; u] = [W | w] [x; u], oldest sample first.
    step = np.column_stack((res, coup))
    x = np.zeros(n + 1)
    if x0 is not None:
        x[:n] = x0
    for u in values[::-1]:
        x[n] = u
        x[:n] = step @ x
    got = simulate_state(res, coup, TimeSeries(values), initial_state=x0)
    assert got.shape == (n,)
    assert got.tobytes() == x[:n].tobytes()


@pytest.mark.parametrize("n", [1, 7, 40])
@pytest.mark.parametrize("with_initial_state", [False, True])
def test_each_column_of_a_batch_is_its_history_alone(n, with_initial_state):
    rng = np.random.default_rng(100 + n)
    res, coup = _random_pair(n, 0.95, n)
    histories = [TimeSeries(rng.uniform(-1.0, 1.0, 61)) for _ in range(5)]
    x0 = rng.normal(size=n) if with_initial_state else None
    batch = simulate_state(res, coup, histories, initial_state=x0)
    assert batch.shape == (n, len(histories))
    for j, history in enumerate(histories):
        alone = simulate_state(res, coup, history, initial_state=x0)
        assert np.max(np.abs(batch[:, j] - alone)) <= 1e-13 * max(1.0, np.max(np.abs(alone)))


def test_a_long_batch_holds_no_array_per_step():
    res, coup = _random_pair(50, 0.9, 3)
    rng = np.random.default_rng(3)
    histories = [TimeSeries(rng.uniform(-1.0, 1.0, 20_000)) for _ in range(4)]
    tracemalloc.start()
    try:
        simulate_state(res, coup, histories)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The inputs are 0.64 MB; a (tau, N, k) array of drives would be 32 MB.
    assert peak < 2 * 1024 * 1024


def test_a_stacked_recursion_gives_the_bits_of_each_item_alone():
    rng = np.random.default_rng(8)
    stack = [_random_pair(9, 0.9, seed) for seed in range(5)]
    reservoirs = np.stack([res for res, _ in stack])
    couplings = np.stack([coup for _, coup in stack])
    states = rng.normal(size=(5, 9, 3))
    inputs = rng.uniform(-1.0, 1.0, (40, 5, 3))
    got = temporal_kernel.advance_states(reservoirs, couplings, states, inputs)
    assert got.shape == (5, 9, 3)
    for b in range(5):
        alone = temporal_kernel.advance_states(reservoirs[b], couplings[b], states[b],
                                               inputs[:, b])
        assert got[b].tobytes() == alone.tobytes()


@pytest.mark.parametrize("histories, x0", [
    ([TimeSeries(np.ones(3)), TimeSeries(np.ones(4))], None),
    ([], None),
    ([TimeSeries(np.ones(3)), TimeSeries(np.ones(3))], np.ones(4)),
])
def test_a_malformed_batch_is_rejected(histories, x0):
    res, coup = _random_pair(5, 0.7, 0)
    with pytest.raises(ContractViolation):
        simulate_state(res, coup, histories, initial_state=x0)


# ---------------------------------------------------------------------------
# metric tensor
# ---------------------------------------------------------------------------

def test_tensor_corner_entry_is_coupling_norm_squared():
    res, coup = _random_pair(9, 0.85, 5)
    tensor = build_metric_tensor(res, coup, 12)
    assert symmetric_gram(tensor.phi)[0, 0] == pytest.approx(float(coup @ coup), rel=1e-14)


def test_scalar_reservoir_tensor_is_geometric():
    tensor = build_metric_tensor(np.array([[0.5]]), np.array([1.0]), 3)
    expected = np.array([[1.0, 0.5, 0.25],
                         [0.5, 0.25, 0.125],
                         [0.25, 0.125, 0.0625]])
    assert np.allclose(symmetric_gram(tensor.phi), expected, rtol=1e-12)


def test_tensor_matches_matrix_power_oracle():
    for seed in range(3):
        res, coup = _random_pair(6, 0.9, seed)
        with pytest.warns(UserWarning):
            tensor = build_metric_tensor(res, coup, 5)
        ref = oracles.metric_tensor_by_powers(res, coup, 5)
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(symmetric_gram(tensor.phi) - ref)) < 1e-12 * scale


def test_tensor_is_exactly_symmetric():
    res, coup = _random_pair(8, 0.95, 2)
    q = symmetric_gram(build_metric_tensor(res, coup, 20).phi)
    assert np.array_equal(q, q.T)


def test_tensor_warns_when_horizon_below_state_dim():
    res, coup = _random_pair(6, 0.8, 1)
    with pytest.warns(UserWarning, match="below the state dimension"):
        build_metric_tensor(res, coup, 3)


@pytest.mark.parametrize("horizon", [0, -1, 2.0])
def test_tensor_rejects_bad_horizon(horizon):
    res, coup = _random_pair(3, 0.8, 1)
    with pytest.raises(ContractViolation):
        build_metric_tensor(res, coup, horizon)


def test_metric_tensor_container_validation():
    for phi, message in [
        (np.ones(3), "must be 2-dimensional"),
        (np.zeros((0, 3)), "must be non-empty"),
        (np.zeros((3, 0)), "must be non-empty"),
        (np.array([[1.0, np.nan]]), "contains non-finite entries"),
        # Finite entries whose squared column norm, a diagonal entry of Q, overflows.
        (np.array([[1e200, 1.0]]), "contains non-finite entries"),
    ]:
        with pytest.raises(ContractViolation, match=f"^metric tensor {message}"):
            MetricTensor(phi)


def test_a_tensor_of_a_built_feature_matrix_is_the_built_tensor():
    res, coup = _random_pair(6, 0.9, 3)
    built = build_metric_tensor(res, coup, 12)
    given = MetricTensor(built.phi)
    assert (given.state_dim, given.horizon) == (6, 12)
    assert symmetric_gram(given.phi).tobytes() == symmetric_gram(built.phi).tobytes()
    rng = np.random.default_rng(43)
    u, v = TimeSeries(rng.normal(size=12)), TimeSeries(rng.normal(size=12))
    assert kernel_eval(given, u, v) == kernel_eval(built, u, v)
    assert list(vars(given)) == list(vars(built)) == ["phi"]  # an evaluation stores no Q


def test_a_tensor_shares_its_feature_matrix_read_only():
    phi = np.random.default_rng(47).normal(size=(4, 8))
    tensor = MetricTensor(phi)
    # A float64 feature matrix is taken without a copy and marked read-only.
    assert np.shares_memory(tensor.phi, phi) and not phi.flags.writeable
    assert (tensor.state_dim, tensor.horizon) == (4, 8)
    # A tensor's attributes cannot be set and its factor is read-only.
    for name in ("phi", "state_dim", "horizon"):
        with pytest.raises(AttributeError):
            setattr(tensor, name, None)
    with pytest.raises(ValueError):
        tensor.phi[0, 0] = 1.0
    # dataclasses.replace builds a new tensor under the constructor's rules.
    before = tensor.phi.tobytes()
    bad = phi.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ContractViolation, match="^metric tensor contains non-finite"):
        dataclasses.replace(tensor, phi=bad)
    base = np.ones((4, 9))
    replaced = dataclasses.replace(tensor, phi=base[:, :8])
    assert not np.shares_memory(replaced.phi, base) and base.flags.writeable
    assert not replaced.phi.flags.writeable
    assert replaced.phi.tobytes() == np.ones((4, 8)).tobytes()
    assert tensor.phi is phi and tensor.phi.tobytes() == before
    assert list(vars(tensor)) == list(vars(replaced)) == ["phi"]


def test_a_tensor_of_a_view_keeps_its_values_when_the_base_is_written():
    base = np.ones((2, 4))
    tensor = MetricTensor(base[:, :3])
    supports, v = (TimeSeries([1.0, -2.0, 0.5]),), TimeSeries([0.25, 1.0, 3.0])
    model = ReadoutModel(supports, [1.5], bias=0.125)
    phi, value = tensor.phi.tobytes(), readout_eval(model, tensor, v)
    base[0, 0] = 5.0  # the view was copied, so the base stays writable
    assert tensor.phi[0, 0] == 1.0
    assert tensor.phi.tobytes() == phi
    assert readout_eval(model, tensor, v) == value
    assert readout_eval(ReadoutModel(supports, [1.5], bias=0.125), tensor, v) == value
    assert list(vars(tensor)) == ["phi"]  # the filter is kept on the model, not the tensor


# ---------------------------------------------------------------------------
# index gather for reservoirs with one nonzero per row
# ---------------------------------------------------------------------------

def _dense_build(monkeypatch, reservoir, coupling, horizon):
    """The feature matrix and the tensor through ``W @ col`` for every column."""
    with monkeypatch.context() as patch:
        patch.setattr(temporal_kernel, "_row_gather", lambda w_mat: None)
        return (temporal_kernel._feature_matrix(reservoir, coupling, horizon),
                build_metric_tensor(reservoir, coupling, horizon))


def _signed_permutation(n, seed):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=n)
    weights[0] = 0.0  # a row with no nonzero at all
    matrix = np.zeros((n, n))
    matrix[np.arange(n), rng.permutation(n)] = weights
    return matrix


def _assert_gather_matches_the_loop(monkeypatch, reservoir, coupling, horizon):
    """The gather build against the dense loop ``col_i = W @ col_(i-1)``.

    With every weight in {0, +-1} each product is exact on both paths, so
    the bits must be equal.  Otherwise entry ``(r, i)`` is a product of the
    same ``i`` weights and the coupling: the loop rounds ``i`` times and the
    doubling at most ``i`` times, each by a relative ``eps / 2`` in the
    normal range, so each path is within ``gamma_i = i (eps / 2) / (1 - i eps
    / 2)`` of the exact product and the two within ``2 gamma_i / (1 -
    gamma_i) |loop|``, below ``2 i eps |loop|`` while ``i eps < 1``.
    """
    dense_phi, dense = _dense_build(monkeypatch, reservoir, coupling, horizon)
    assert temporal_kernel._row_gather(reservoir) is not None
    phi = temporal_kernel._feature_matrix(reservoir, coupling, horizon)
    if np.all(np.isin(reservoir, (-1.0, 0.0, 1.0))):
        assert phi.tobytes() == dense_phi.tobytes()
        gathered = build_metric_tensor(reservoir, coupling, horizon)
        assert symmetric_gram(gathered.phi).tobytes() == symmetric_gram(dense.phi).tobytes()
    else:
        eps = np.finfo(float).eps
        assert np.all(np.abs(dense_phi) >= np.finfo(float).tiny, where=dense_phi != 0.0)
        bound = 2.0 * np.arange(horizon) * eps * np.abs(dense_phi)
        assert np.all(np.abs(phi - dense_phi) <= bound)
        assert phi[:, :2].tobytes() == dense_phi[:, :2].tobytes()  # no product regrouped


@pytest.mark.parametrize("case", ["cycle gaussian", "cycle periodic_binary",
                                  "cycle pi signs", "cycle N=1", "signed permutation",
                                  "signed permutation periodic_binary"])
def test_gather_build_is_byte_equal_to_the_dense_loop(monkeypatch, case):
    # Byte-equal at unit weights, and within the rounding bound of
    # _assert_gather_matches_the_loop at nu = 0.9 or gaussian weights.
    n = 1 if case == "cycle N=1" else 8
    kind = {"cycle periodic_binary": "periodic_binary", "cycle pi signs": "ones_pi_signs",
            "signed permutation periodic_binary": "periodic_binary"}.get(case, "gaussian")
    coupling = generate_input(InputCouplingSpec(
        kind=kind, size=n, period=4 if kind == "periodic_binary" else None), Seed(3))
    if case.startswith("signed permutation"):
        reservoir = _signed_permutation(n, 11)
        unit = np.sign(reservoir)
    else:
        reservoir, unit = _cycle(n, 0.9), _cycle(n, 1.0)
    for weights in (unit, reservoir):
        _assert_gather_matches_the_loop(monkeypatch, weights, coupling, 3 * n)


def _map(targets, weights):
    """The reservoir whose row ``r`` holds ``weights[r]`` in column ``targets[r]``."""
    n = len(targets)
    matrix = np.zeros((n, n))
    matrix[np.arange(n), targets] = weights
    return matrix


@pytest.mark.parametrize("weights", ["unit", "inexact"])
def test_a_gather_of_a_map_that_is_not_a_bijection_matches_the_loop(monkeypatch, weights):
    # Row 0 is zero, rows 1 and 2 share column 3 and rows 3 and 9 column 4,
    # and no row reads columns 8 and 9.
    targets = np.array([5, 3, 3, 4, 1, 2, 6, 7, 0, 4])
    signs = np.array([0.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0])
    scale = 1.0 if weights == "unit" else np.linspace(0.7, 1.3, 10)
    reservoir = _map(targets, signs * scale)
    idx, vals = temporal_kernel._row_gather(reservoir)
    assert idx[0] == 0 and vals[0] == 0.0
    assert idx[1:].tolist() == targets[1:].tolist()
    coupling = np.linspace(-1.0, 1.5, 10)
    coupling[3] = 0.0  # a zero whose products have both signs
    _assert_gather_matches_the_loop(monkeypatch, reservoir, coupling, 70)
    phi = temporal_kernel._feature_matrix(reservoir, coupling, 70)
    assert not np.any(phi[0, 1:]) and not np.any(np.signbit(phi[:, 1:]) & (phi[:, 1:] == 0.0))


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5, 8, 9, 64, 65, 128, 129, 256, 257])
@pytest.mark.parametrize("nu", [1.0, 0.97])
def test_every_horizon_of_a_doubling_matches_the_loop(monkeypatch, horizon, nu):
    # Powers of two and one past them end a doubling step exactly or one
    # column into the next; from 64 on a step is several whole blocks.
    reservoir = _signed_permutation(9, 5)
    reservoir[reservoir != 0.0] = nu * np.sign(reservoir[reservoir != 0.0])
    coupling = np.random.default_rng(5).normal(size=9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # horizons below N warn
        _assert_gather_matches_the_loop(monkeypatch, reservoir, coupling, horizon)


# Weights whose products leave the normal range when squared; powers of two,
# so every product in range is exact and any deviation is a lost product.
_OUT_OF_RANGE = {
    # 2^600 squared overflows: inf times the zero coupling would be nan.
    "overflow": (_map([1, 0, 3, 2], [2.0 ** 600, 2.0 ** 600, 0.5, 2.0]),
                 np.array([0.0, 0.0, 1.0, -3.0])),
    # 2^-600 squared flushes to zero, where the loop meets 2^600 first.
    "flush to zero": (_map([1, 2, 0], [2.0 ** -600, 2.0 ** 600, 2.0 ** -600]),
                      np.array([1.0, 2.0 ** 500, -2.0 ** 100])),
    # 2^-520 squared is a nonzero below the smallest normal float.
    "subnormal": (_map([1, 2, 3, 0], [2.0 ** -520, 2.0 ** -520, 2.0 ** 520, 2.0 ** 520]),
                  np.array([2.0 ** -300, -2.0 ** 400, 3.0, 2.0 ** -300])),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_weights_that_leave_the_normal_range_take_the_loop(monkeypatch, case):
    reservoir, coupling = _OUT_OF_RANGE[case]
    with np.errstate(over="ignore"):  # as under build_metric_tensor
        assert temporal_kernel._square_gather(*temporal_kernel._row_gather(reservoir)) is None
        with monkeypatch.context() as patch:
            patch.setattr(temporal_kernel, "_row_gather", lambda w_mat: None)
            dense_phi = temporal_kernel._feature_matrix(reservoir, coupling, 40)
        phi = temporal_kernel._feature_matrix(reservoir, coupling, 40)
    assert np.all(np.isfinite(dense_phi))
    assert phi.tobytes() == dense_phi.tobytes()


def test_a_gather_build_holds_no_block_wider_than_its_chunk():
    n, horizon = 1000, 2000
    reservoir, coupling = _cycle(n, 1.0), np.random.default_rng(9).normal(size=n)
    tracemalloc.start()
    try:
        phi = temporal_kernel._feature_matrix(reservoir, coupling, horizon)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Beside Phi (16 MB): one gathered block of N x 32 (0.26 MB), a buffer of
    # the product's iterator and a few vectors of N.  A doubling step in one
    # piece would hold N x 976, and two live blocks 0.51 MB.
    block = n * temporal_kernel._GATHER_CHUNK * 8
    assert peak <= phi.nbytes + block + 128 * 1024


def test_two_nonzeros_in_a_row_take_the_dense_path():
    reservoir = _signed_permutation(5, 2)
    reservoir[3, :2] = [0.5, -0.25]
    assert temporal_kernel._row_gather(reservoir) is None
    coupling = np.linspace(-1.0, 1.0, 5)
    ref = oracles.metric_tensor_by_powers(reservoir, coupling, 9)
    tensor = build_metric_tensor(reservoir, coupling, 9)
    assert np.max(np.abs(symmetric_gram(tensor.phi) - ref)) < 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# scaling a tensor to nu * W
# ---------------------------------------------------------------------------

def _unit_pair(regime, n, seed=4):
    raw, sigma = draw_reservoir(ReservoirSpec(regime, n, 1.0), Seed(seed))
    coupling = generate_input(InputCouplingSpec(kind="gaussian", size=n), Seed(seed))
    return raw * (1.0 / sigma), coupling


@pytest.mark.parametrize("n", [1, 2, 3, 40])
def test_the_cycle_draw_has_the_bits_of_the_rolled_identity(n):
    raw, sigma = draw_reservoir(ReservoirSpec("cycle_permutation", n, 0.9), Seed(0))
    assert sigma == 1.0
    assert raw.flags.c_contiguous
    assert raw.tobytes() == np.roll(np.eye(n), 1, axis=0).tobytes()


@pytest.mark.parametrize("regime", ["random_iid", "symmetric_wigner", "cycle_permutation"])
def test_a_build_has_the_bits_of_the_unit_tensor_scaled_beside_the_reservoir(regime):
    # The build frees its unit tensor before it scales the reservoir; the
    # results keep the bits of forming both from the unit-scale draw.
    spec = ReservoirSpec(regime, 12, 0.8)
    coupling_spec = InputCouplingSpec(kind="gaussian", size=12)
    reservoir, coupling, tensor = temporal_kernel.build_from_specs(spec, coupling_spec, 30,
                                                                   Seed(2))
    raw, sigma = draw_reservoir(spec, Seed(2))
    unit = build_metric_tensor(raw * (1.0 / sigma), generate_input(coupling_spec, Seed(2)), 30)
    assert reservoir.tobytes() == (raw * (0.8 / sigma)).tobytes()
    assert coupling.tobytes() == generate_input(coupling_spec, Seed(2)).tobytes()
    assert tensor.phi.tobytes() == scale_metric_tensor(unit, 0.8).phi.tobytes()


@pytest.mark.parametrize("regime", ["random_iid", "cycle_permutation"])
def test_a_build_from_specs_holds_one_feature_matrix(regime):
    n, horizon = 50, 4000  # Phi is 1.6 MB, each N x N matrix 20 kB
    spec = ReservoirSpec(regime, n, 0.9)
    coupling_spec = InputCouplingSpec(kind="gaussian", size=n)
    temporal_kernel.build_from_specs(spec, coupling_spec, n, Seed(6))  # first-call caches
    tracemalloc.start()
    try:
        _, _, tensor = temporal_kernel.build_from_specs(spec, coupling_spec, horizon, Seed(6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Phi, the draw, its two scalings and the finite check's N x tau flags
    # (0.2 MB); the unit Phi beside the scaled one would add 1.6 MB.
    assert peak <= tensor.phi.nbytes + tensor.phi.size + 512 * 1024


@pytest.mark.parametrize("horizon", [3, 40])  # below N, which warns, and above
def test_a_build_from_specs_keeps_its_warning_and_its_overflow_report(monkeypatch, horizon):
    spec = ReservoirSpec("cycle_permutation", 12, 0.5)
    coupling_spec = InputCouplingSpec(kind="gaussian", size=12)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        temporal_kernel.build_from_specs(spec, coupling_spec, horizon, Seed(1))
    assert [str(w.message).startswith("horizon 3 is below") for w in caught] == \
        ([True] if horizon == 3 else [])
    # No spec gives a coupling this large; each squared column norm overflows.
    monkeypatch.setattr(temporal_kernel.cp, "generate_input", lambda *_: np.full(12, 1e160))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        with pytest.raises(ContractViolation, match="^metric tensor contains non-finite"):
            temporal_kernel.build_from_specs(spec, coupling_spec, horizon, Seed(1))


@pytest.mark.parametrize("regime", ["random_iid", "symmetric_wigner", "cycle_permutation"])
def test_scaling_by_one_returns_the_same_bits(regime):
    unit, coupling = _unit_pair(regime, 6)
    tensor = build_metric_tensor(unit, coupling, 18)
    scaled = scale_metric_tensor(tensor, 1.0)
    assert scaled.phi.tobytes() == tensor.phi.tobytes()
    assert symmetric_gram(scaled.phi).tobytes() == symmetric_gram(tensor.phi).tobytes()


@pytest.mark.parametrize("regime", ["random_iid", "symmetric_wigner", "cycle_permutation"])
@pytest.mark.parametrize("horizon", [7, 36])  # below N and 3N
@pytest.mark.parametrize("nu", [0.3, 0.9, 1.0])
def test_scaled_tensor_equals_the_build_of_the_scaled_reservoir(regime, horizon, nu):
    unit, coupling = _unit_pair(regime, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # horizon 7 is below the state dimension
        scaled = scale_metric_tensor(build_metric_tensor(unit, coupling, horizon), nu)
        direct = build_metric_tensor(nu * unit, coupling, horizon)
    q, direct_q = symmetric_gram(scaled.phi), symmetric_gram(direct.phi)
    assert np.array_equal(q, q.T)
    assert (scaled.horizon, scaled.state_dim) == (horizon, 12)
    scale = np.max(np.abs(direct_q))
    assert np.max(np.abs(q - direct_q)) <= 1e-13 * scale


def test_scaling_by_an_integer_nu_matches_the_float():
    tensor = build_metric_tensor(np.array([[0.5]]), np.array([1.0]), 3)
    assert scale_metric_tensor(tensor, 2).phi.tobytes() == \
        scale_metric_tensor(tensor, 2.0).phi.tobytes()


def test_scaling_rejects_a_non_finite_nu():
    tensor = build_metric_tensor(np.array([[0.5]]), np.array([1.0]), 3)
    for nu in (np.nan, np.inf):
        with pytest.raises(ContractViolation):
            scale_metric_tensor(tensor, nu)


# Each overflows in float64 from finite inputs; warnings are errors under pytest,
# so these also check that no numpy warning escapes before the report.
_OVERFLOWS = {
    "scale_metric_tensor": lambda: scale_metric_tensor(
        build_metric_tensor(np.eye(1), [1.0], 3), 1e200),
    "build_metric_tensor": lambda: build_metric_tensor(10 * np.eye(2), [1.0, 1.0], 400),
    "build_metric_tensor dense": lambda: build_metric_tensor(
        np.full((2, 2), 10.0), [1.0, 1.0], 400),
    "simulate_state": lambda: simulate_state(10 * np.eye(2), [1.0, 1.0],
                                             TimeSeries(np.ones(400))),
    "simulate_state batch": lambda: simulate_state(
        np.full((2, 2), 10.0), [1.0, 1.0], [TimeSeries(np.ones(400))] * 2),
    # Q = Phi^T Phi has finite entries 1e300, but the filter Q h reaches 2e310.
    "readout_eval": lambda: readout_eval(
        ReadoutModel((TimeSeries(np.full(2, 1e10)),), [1.0]),
        MetricTensor(np.full((1, 2), 1e150)), TimeSeries(np.ones(2))),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWS))
def test_an_overflow_is_reported_not_warned_or_returned(case):
    with pytest.raises(ContractViolation, match="non-finite"):
        _OVERFLOWS[case]()


@pytest.mark.parametrize("query, bias", [
    (np.full(2, 1e200), 0.0),  # the dot product with a finite filter overflows
    (np.array([1e108, 0.0]), np.float64(1e308)),  # the dot is 1e308, then the bias
])
def test_an_overflowing_readout_query_is_reported_not_warned(query, bias):
    model = ReadoutModel((TimeSeries([1.0, 0.0]),), [1.0], bias=bias)
    tensor = MetricTensor(np.full((1, 2), 1e100))  # the filter's entries are 1e200
    readout_eval(model, tensor, TimeSeries([1.0, -1.0]))
    with pytest.raises(ContractViolation, match="^readout value is not finite: inf$"):
        readout_eval(model, tensor, TimeSeries(query))


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

def test_kernel_equals_feature_inner_product():
    rng = np.random.default_rng(23)
    res, coup = _random_pair(10, 0.9, 7)
    tensor = build_metric_tensor(res, coup, 14)
    for _ in range(5):
        u = rng.normal(size=14)
        v = rng.normal(size=14)
        k = kernel_eval(tensor, TimeSeries(u), TimeSeries(v))
        inner = float(simulate_state(res, coup, TimeSeries(u))
                      @ simulate_state(res, coup, TimeSeries(v)))
        assert abs(k - inner) <= 1e-10 * max(1.0, abs(k))


def test_kernel_is_exactly_swap_invariant():
    rng = np.random.default_rng(29)
    res, coup = _random_pair(6, 0.8, 4)
    tensor = build_metric_tensor(res, coup, 9)
    u = TimeSeries(rng.normal(size=9))
    v = TimeSeries(rng.normal(size=9))
    assert kernel_eval(tensor, u, v) == kernel_eval(tensor, v, u)


@pytest.mark.parametrize("regime", ["random_iid", "symmetric_wigner", "cycle_permutation"])
def test_the_feature_route_agrees_with_the_matrix_route(regime):
    unit, coupling = _unit_pair(regime, 12)
    tensor = scale_metric_tensor(build_metric_tensor(unit, coupling, 36), 0.9)
    q = symmetric_gram(tensor.phi)
    rng = np.random.default_rng(37)
    for _ in range(5):
        u, v = rng.normal(size=36), rng.normal(size=36)
        value = kernel_eval(tensor, TimeSeries(u), TimeSeries(v))
        assert value == kernel_eval(tensor, TimeSeries(v), TimeSeries(u))
        # |K(u, v)| <= sqrt(K(u, u) K(v, v)) is the scale of the value.
        scale = math.sqrt((u @ q @ u) * (v @ q @ v))
        assert abs(value - u @ q @ v) <= 1e-12 * scale


def test_kernel_self_similarity_is_nonnegative():
    rng = np.random.default_rng(31)
    res, coup = _random_pair(5, 0.99, 8)
    tensor = build_metric_tensor(res, coup, 10)
    for _ in range(10):
        u = rng.normal(size=10)
        k = kernel_eval(tensor, TimeSeries(u), TimeSeries(u))
        assert k >= -1e-10 * float(u @ u) * np.max(np.abs(symmetric_gram(tensor.phi)))


def test_kernel_rejects_horizon_mismatch():
    res, coup = _random_pair(4, 0.8, 0)
    tensor = build_metric_tensor(res, coup, 6)
    with pytest.raises(ContractViolation):
        kernel_eval(tensor, TimeSeries(np.ones(6)), TimeSeries(np.ones(5)))


def test_polynomial_kernel_values():
    tensor = MetricTensor(np.eye(2))
    u = TimeSeries(np.array([3.0, 0.0]))
    v = TimeSeries(np.array([1.0, 0.0]))
    assert kernel_poly(tensor, u, v, 0.0, 2) == 9.0
    orthogonal = TimeSeries(np.array([0.0, 1.0]))
    assert kernel_poly(tensor, TimeSeries(np.array([1.0, 0.0])), orthogonal,
                       1.0, 3) == 1.0
    assert kernel_poly(tensor, u, v, 0.0, 1) == kernel_eval(tensor, u, v)


@pytest.mark.parametrize("offset,degree", [(0.0, 0), (0.0, -2), (0.0, 1.5),
                                           (np.nan, 2)])
def test_polynomial_kernel_rejects_bad_parameters(offset, degree):
    tensor = MetricTensor(np.eye(2))
    u = TimeSeries(np.ones(2))
    with pytest.raises(ContractViolation):
        kernel_poly(tensor, u, u, offset, degree)


# ---------------------------------------------------------------------------
# readout models
# ---------------------------------------------------------------------------

def test_readout_with_no_supports_returns_bias():
    tensor = MetricTensor(np.eye(2))
    model = ReadoutModel(supports=(), coefficients=np.zeros(0), bias=0.75)
    assert readout_eval(model, tensor, TimeSeries(np.ones(2))) == 0.75
    with pytest.raises(ContractViolation, match="^history horizons \\(5\\) do not match"):
        readout_eval(model, tensor, TimeSeries(np.ones(5)))


def test_readout_single_support_reduces_to_kernel():
    res, coup = _random_pair(5, 0.9, 6)
    tensor = build_metric_tensor(res, coup, 8)
    rng = np.random.default_rng(41)
    u = TimeSeries(rng.normal(size=8))
    v = TimeSeries(rng.normal(size=8))
    model = ReadoutModel(supports=(u,), coefficients=np.array([1.0]))
    assert readout_eval(model, tensor, v) == pytest.approx(
        kernel_eval(tensor, u, v), rel=1e-14)


def test_readout_combines_supports_linearly():
    res, coup = _random_pair(5, 0.9, 6)
    tensor = build_metric_tensor(res, coup, 8)
    rng = np.random.default_rng(43)
    series = [TimeSeries(rng.normal(size=8)) for _ in range(3)]
    coeffs = np.array([0.5, -1.25, 2.0])
    model = ReadoutModel(supports=tuple(series[:3]), coefficients=coeffs, bias=0.1)
    v = TimeSeries(rng.normal(size=8))
    expected = 0.1 + sum(c * kernel_eval(tensor, s, v)
                         for c, s in zip(coeffs, series))
    assert readout_eval(model, tensor, v) == pytest.approx(expected, rel=1e-13)


def _per_support_readout(model, tensor, v):
    """The readout as the sum of one kernel evaluation per support."""
    terms = [beta * kernel_eval(tensor, u, v)
             for beta, u in zip(model.coefficients, model.supports)]
    return math.fsum([model.bias, *terms])


def _assert_primal_matches_per_support(model, tensor, v):
    # |Q| |v| bounds the rounding of every product with Q; Q v alone reads 0
    # for v in the null space of Q (tau > N), where both sums are rounding.
    q_v = float(np.linalg.norm(np.abs(symmetric_gram(tensor.phi)) @ np.abs(v.values)))
    scale = abs(model.bias) + sum(abs(beta) * float(np.linalg.norm(u.values)) * q_v
                                  for beta, u in zip(model.coefficients, model.supports))
    error = abs(readout_eval(model, tensor, v) - _per_support_readout(model, tensor, v))
    assert error <= 1e-12 * scale


def _support_set(case, rng, tau):
    """Supports and coefficients of one named shape of readout model."""
    u, w = (TimeSeries(rng.normal(size=tau)) for _ in range(2))
    negated = TimeSeries(-u.values)
    return {
        "no supports": ((), []),
        "one support": ((u,), [-1.75]),
        "duplicate supports": ((u, u, w), [0.5, 2.5, -1.0]),
        "cancelling pair": ((u, negated), [1.3, 1.3]),
        "cancelling pair and one more": ((u, w, negated), [0.7, -0.2, 0.7]),
    }[case]


@pytest.mark.parametrize("case", ["no supports", "one support", "duplicate supports",
                                  "cancelling pair", "cancelling pair and one more"])
def test_primal_readout_matches_the_per_support_sum(case):
    res, coup = _random_pair(5, 0.95, 8)
    tensor = build_metric_tensor(res, coup, 10)
    rng = np.random.default_rng(47)
    supports, coeffs = _support_set(case, rng, 10)
    model = ReadoutModel(supports=supports, coefficients=np.array(coeffs), bias=0.25)
    _assert_primal_matches_per_support(model, tensor, TimeSeries(rng.normal(size=10)))


# Magnitudes below 1e-30 become 0, so that no product in a readout or in
# its error scale reaches the subnormal range, where relative bounds fail.
_samples = st.floats(min_value=-10.0, max_value=10.0).map(
    lambda x: x if abs(x) >= 1e-30 else 0.0)


@st.composite
def _readout_cases(draw):
    """A random reservoir tensor, a readout model over it and one query.

    Each drawn support may be followed by a duplicate of itself or by its
    negation under the same coefficient, so that the pair cancels.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    tau = draw(st.integers(min_value=n, max_value=2 * n))
    res, coup = _random_pair(n, draw(st.floats(min_value=0.5, max_value=1.0)),
                             draw(st.integers(min_value=0, max_value=2**16)))
    tensor = build_metric_tensor(res, coup, tau)
    history = st.lists(_samples, min_size=tau, max_size=tau)
    supports, coeffs = [], []
    for values in draw(st.lists(history, max_size=4)):
        beta = draw(_samples)
        supports.append(TimeSeries(np.array(values)))
        coeffs.append(beta)
        echo = draw(st.sampled_from(["none", "duplicate", "negated"]))
        if echo == "duplicate":
            supports.append(TimeSeries(np.array(values)))
            coeffs.append(draw(_samples))
        elif echo == "negated":
            supports.append(TimeSeries(-np.array(values)))
            coeffs.append(beta)
    model = ReadoutModel(supports=tuple(supports), coefficients=np.array(coeffs, dtype=float),
                         bias=draw(_samples))
    return model, tensor, TimeSeries(np.array(draw(history)))


@settings(max_examples=60, deadline=None)
@given(_readout_cases())
def test_primal_readout_matches_the_per_support_sum_property(case):
    _assert_primal_matches_per_support(*case)


@pytest.mark.parametrize("n_supports", [0, 1, 2, 7, 40])
def test_readout_forms_its_filter_once_per_tensor(monkeypatch, n_supports):
    res, coup = _random_pair(4, 0.9, 3)
    first = build_metric_tensor(res, coup, 8)
    second = scale_metric_tensor(first, 0.5)
    rng = np.random.default_rng(53)
    supports = tuple(TimeSeries(rng.normal(size=8)) for _ in range(n_supports))
    coeffs = rng.normal(size=n_supports)
    queries = [TimeSeries(rng.normal(size=8)) for _ in range(3)]
    switches = (first, second, first)
    fresh = [[readout_eval(ReadoutModel(supports, coeffs, bias=0.5), tensor, v).hex()
              for v in queries] for tensor in switches]
    formed = []
    check = temporal_kernel.as_finite_array

    def counting_check(a, ndim, name):
        formed.append(name)
        return check(a, ndim, name)

    monkeypatch.setattr(temporal_kernel, "as_finite_array", counting_check)
    model = ReadoutModel(supports, coeffs, bias=0.5)
    got = [[readout_eval(model, tensor, v).hex() for v in queries] for tensor in switches]
    assert got == fresh
    assert formed.count("readout filter") == (len(switches) if n_supports else 0)


@pytest.mark.parametrize("regime", ["cycle_permutation", "random_iid"])
def test_readout_matches_the_state_recursion(regime):
    n, tau = 30, 60
    res = generate_reservoir(ReservoirSpec(regime=regime, size=n, nu=0.99), Seed(9))
    coup = generate_input(InputCouplingSpec(kind="gaussian", size=n), Seed(9))
    tensor = build_metric_tensor(res, coup, tau)
    rng = np.random.default_rng(61)
    supports = [TimeSeries(rng.uniform(-1.0, 1.0, tau)) for _ in range(20)]
    model = ReadoutModel(tuple(supports), rng.standard_normal(20),
                         bias=float(rng.standard_normal()))
    support_states = simulate_state(res, coup, supports)
    for _ in range(10):
        v = TimeSeries(rng.uniform(-1.0, 1.0, tau))
        terms = model.coefficients * (simulate_state(res, coup, v) @ support_states)
        reference = math.fsum([model.bias, *terms])
        scale = abs(model.bias) + math.fsum(np.abs(terms))
        assert abs(readout_eval(model, tensor, v) - reference) <= 1e-10 * scale


def test_readout_rejects_support_and_query_horizon_mismatches():
    res, coup = _random_pair(4, 0.9, 3)
    tensor = build_metric_tensor(res, coup, 8)
    matching = TimeSeries(np.ones(8))
    short = TimeSeries(np.ones(7))
    model = ReadoutModel(supports=(matching, matching), coefficients=np.array([1.0, -2.0]))
    with pytest.raises(ContractViolation, match="horizon"):
        readout_eval(model, tensor, short)
    short_model = ReadoutModel(supports=(short,), coefficients=np.array([1.0]))
    with pytest.raises(ContractViolation, match="horizon"):
        readout_eval(short_model, tensor, matching)


def test_a_query_of_the_wrong_horizon_is_rejected_after_the_filter_is_kept():
    res, coup = _random_pair(4, 0.9, 3)
    tensor = build_metric_tensor(res, coup, 8)
    model = ReadoutModel(supports=(TimeSeries(np.ones(8)),), coefficients=np.array([1.5]))
    value = readout_eval(model, tensor, TimeSeries(np.arange(8.0)))
    assert model._filter is not None and model._filter[0] is tensor
    for horizon in (7, 9):
        with pytest.raises(ContractViolation, match=re.escape(
                f"history horizons (8, {horizon}) do not match tensor horizon 8")):
            readout_eval(model, tensor, TimeSeries(np.ones(horizon)))
    assert model._filter[0] is tensor
    assert readout_eval(model, tensor, TimeSeries(np.arange(8.0))) == value


def test_readout_model_rejects_mismatched_coefficients():
    u = TimeSeries(np.ones(3))
    with pytest.raises(ContractViolation):
        ReadoutModel(supports=(u,), coefficients=np.array([1.0, 2.0]))
    with pytest.raises(ContractViolation):
        ReadoutModel(supports=(u, TimeSeries(np.ones(4))),
                     coefficients=np.array([1.0, 2.0]))


def test_an_overflowing_combined_history_is_rejected_by_name():
    # Each support is finite; their weighted sum overflows to inf.
    big = TimeSeries(np.full(2, 1e200))
    with pytest.raises(ContractViolation,
                       match="^readout combined history contains non-finite entries$"):
        ReadoutModel(supports=(big,), coefficients=np.array([1e200]))


# ---------------------------------------------------------------------------
# initial-state error bounds
# ---------------------------------------------------------------------------

def test_error_bounds_worked_example():
    case = oracles.BOUND_CASE
    params = BoundParams(case["signal_bound"], case["coupling_bound"],
                         case["contraction_rate"], case["state_scale"],
                         case["horizon"])
    lower, upper = kernel_error_bounds(params, case["nu"])
    assert lower == pytest.approx(case["lower"], rel=1e-12)
    assert upper == pytest.approx(case["upper"], rel=1e-12)


def test_minimal_state_scale_sits_on_the_boundary():
    c_min = minimal_state_scale(1.0, 1.0, 0.5, 0.75)
    assert c_min == pytest.approx(6.0, rel=1e-12)
    params = BoundParams(1.0, 1.0, 0.75, c_min, 2)
    kernel_error_bounds(params, 0.5)  # boundary scale is admissible


def test_error_bounds_reject_insufficient_state_scale():
    params = BoundParams(1.0, 1.0, 0.75, 3.0, 2)
    with pytest.raises(ContractViolation):
        kernel_error_bounds(params, 0.5)


def test_error_bounds_reject_contraction_not_above_nu():
    params = BoundParams(1.0, 1.0, 0.5, 100.0, 2)
    with pytest.raises(ContractViolation):
        kernel_error_bounds(params, 0.5)
    with pytest.raises(ContractViolation):
        minimal_state_scale(1.0, 1.0, 0.5, 0.5)


def test_error_bounds_shrink_monotonically_with_horizon():
    widths = []
    for tau in range(1, 7):
        params = BoundParams(1.0, 1.0, 0.75, 50.0, tau)
        lower, upper = kernel_error_bounds(params, 0.5)
        assert lower < 0.0 < upper
        widths.append(upper - lower)
    assert all(b < a for a, b in zip(widths, widths[1:]))


def test_error_bounds_contract_geometrically_when_horizon_doubles():
    eta = 0.5 / 0.75
    for tau in (2, 5, 9):
        short = kernel_error_bounds(BoundParams(1.0, 1.0, 0.75, 50.0, tau), 0.5)
        long = kernel_error_bounds(BoundParams(1.0, 1.0, 0.75, 50.0, 2 * tau), 0.5)
        assert abs(long[0]) <= eta ** tau * abs(short[0]) * (1.0 + 1e-12)
        assert abs(long[1]) <= eta ** tau * abs(short[1]) * (1.0 + 1e-12)


def test_initial_state_radius_value_and_cap():
    params = BoundParams(1.0, 1.0, 0.75, 6.0, 2)
    assert initial_state_radius(params) == pytest.approx(6.0 / 0.75**2, rel=1e-14)
    huge = BoundParams(1.0, 1.0, 0.5, 10.0, 2000)
    assert initial_state_radius(huge) == 1e150


@pytest.mark.parametrize("kwargs", [
    dict(signal_bound=-1.0, coupling_bound=1.0, contraction_rate=0.75,
         state_scale=6.0, horizon=2),
    dict(signal_bound=1.0, coupling_bound=0.0, contraction_rate=0.75,
         state_scale=6.0, horizon=2),
    dict(signal_bound=1.0, coupling_bound=1.0, contraction_rate=1.0,
         state_scale=6.0, horizon=2),
    dict(signal_bound=1.0, coupling_bound=1.0, contraction_rate=0.75,
         state_scale=6.0, horizon=0),
])
def test_bound_params_validation(kwargs):
    with pytest.raises(ContractViolation):
        BoundParams(**kwargs)


def test_measured_error_stays_within_bounds_small_case():
    result = run_initial_state_error_containment(trials=5)
    assert result.passed, result.detail
    assert result.n_checked == 5
