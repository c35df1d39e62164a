"""Motif extraction from the metric tensor and the per-regime predictions."""

import dataclasses
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import oracles
from reskernel import (
    ContractViolation,
    EigenDecomposition,
    InputCouplingSpec,
    MetricTensor,
    MotifComparison,
    MotifPrediction,
    MotifSet,
    PsdViolationError,
    ReservoirSpec,
    Seed,
    TimeSeries,
    build_from_specs,
    build_metric_tensor,
    compare_motifs,
    default_nu_grid,
    extract_motifs,
    kernel_eval,
    mix_seed,
    predict_cycle,
    predict_random,
    predict_symmetric,
    scale_metric_tensor,
)
from reskernel import motifs as motifs_module
from reskernel.coupling import generate_input, generate_reservoir
from reskernel.motifs import DEGENERACY_RTOL, DUAL_ROUTE_MIN_RATIO
from reskernel.numerics import (_ORTHONORMALITY_TOL, effective_horizon, sym_eig,
                                symmetric_gram)


def _tensor_for(regime, n, nu, horizon, seed, kind="gaussian", period=None,
                normalize_unit=True):
    res = generate_reservoir(ReservoirSpec(regime=regime, size=n, nu=nu), seed)
    coup = generate_input(InputCouplingSpec(kind=kind, size=n, period=period,
                                            normalize_unit=normalize_unit), seed)
    return res, coup, build_metric_tensor(res, coup, horizon)


# ---------------------------------------------------------------------------
# extract_motifs
# ---------------------------------------------------------------------------

def test_scalar_reservoir_yields_single_geometric_motif():
    nu, tau = 0.7, 30
    tensor = build_metric_tensor(np.array([[nu]]), np.array([1.0]), tau)
    motifs = extract_motifs(tensor)
    assert len(motifs) == 1
    pattern = nu ** np.arange(tau)
    pattern /= np.linalg.norm(pattern)
    assert np.allclose(motifs.vectors[0], pattern, atol=1e-12)
    assert motifs.weights[0] == pytest.approx(
        oracles.scalar_motif_weight(nu, tau), rel=1e-12)


def test_identity_tensor_keeps_every_motif():
    tensor = MetricTensor(np.eye(5))
    motifs = extract_motifs(tensor)
    assert len(motifs) == 5
    assert np.array_equal(motifs.weights, np.ones(5))
    assert np.array_equal(motifs.vectors, np.eye(5))


def test_retention_threshold_is_relative_to_top_weight():
    tensor = MetricTensor(np.diag(np.sqrt([1.0, 1e-3, 1e-6])))
    # weights are 1, ~0.0316, 0.001; the default ratio 1e-2 keeps two.
    motifs = extract_motifs(tensor)
    assert len(motifs) == 2
    loose = extract_motifs(tensor, threshold_ratio=1e-3)
    assert len(loose) == 3
    tight = extract_motifs(tensor, threshold_ratio=1.0)
    assert len(tight) == 1


def test_full_spectrum_is_kept_alongside_retained_weights():
    _, _, tensor = _tensor_for("random_iid", 6, 0.9, 12, Seed(7))
    motifs = extract_motifs(tensor)
    assert motifs.spectrum.shape == (12,)
    assert np.sum(motifs.spectrum) == pytest.approx(
        float(np.trace(symmetric_gram(tensor.phi))), rel=1e-10)
    assert np.all(np.diff(motifs.spectrum) <= 0.0)


def _solved_as(monkeypatch, spectrum):
    """Make every eigensolve in ``extract_motifs`` return ``spectrum`` with the
    identity's eigenvectors: a Gram cannot have a negative eigenvalue, but the
    clamp runs on every solve."""
    values = np.array(spectrum)
    monkeypatch.setattr(motifs_module, "sym_eig",
                        lambda matrix: EigenDecomposition(values.copy(), np.eye(values.size)))


def test_small_negative_eigenvalues_are_clamped_to_zero(monkeypatch):
    _solved_as(monkeypatch, [1.0, -1e-12])
    motifs = extract_motifs(MetricTensor(np.eye(2)))
    assert np.array_equal(motifs.spectrum, [1.0, 0.0])
    assert len(motifs) == 1


def test_clear_negative_eigenvalue_raises_psd_violation(monkeypatch):
    _solved_as(monkeypatch, [1.0, -1.0])
    with pytest.raises(PsdViolationError) as exc:
        extract_motifs(MetricTensor(np.eye(2)))
    assert exc.value.eigenvalue == pytest.approx(-1.0, rel=1e-12)
    assert exc.value.floor == pytest.approx(-1e-9, rel=1e-6)


def test_zero_tensor_yields_empty_motif_set():
    tensor = MetricTensor(np.zeros((3, 4)))
    motifs = extract_motifs(tensor)
    assert len(motifs) == 0
    assert motifs.vectors.shape == (0, 4)
    assert np.array_equal(motifs.spectrum, np.zeros(4))


@pytest.mark.parametrize("ratio", [0.0, -0.5, 1.5])
def test_extract_rejects_bad_threshold(ratio):
    tensor = MetricTensor(np.eye(2))
    with pytest.raises(ContractViolation):
        extract_motifs(tensor, threshold_ratio=ratio)


def test_motif_set_weights_are_the_roots_of_the_retained_eigenvalues():
    _, _, tensor = _tensor_for("cycle_permutation", 10, 0.95, 20, Seed(2))
    motifs = extract_motifs(tensor, threshold_ratio=1e-3)
    k = len(motifs)
    assert 0 < k < motifs.horizon
    assert motifs.weights.tobytes() == np.sqrt(motifs.spectrum[:k]).tobytes()
    # N = 10 < tau = 20, so the eigenvalues come from the N x N Gram Phi Phi^T.
    eigenvalues = sym_eig(symmetric_gram(tensor.phi.T)).eigenvalues
    assert motifs.weights.tobytes() == np.sqrt(eigenvalues[:k]).tobytes()


def _solved_sides(monkeypatch):
    """The side of every matrix ``extract_motifs`` hands to ``sym_eig``, in call order."""
    sides = []

    def recording(matrix):
        sides.append(matrix.shape[0])
        return sym_eig(matrix)

    monkeypatch.setattr(motifs_module, "sym_eig", recording)
    return sides


def _square_route(tensor):
    """The tau x tau route at the default threshold, formed here from the
    eigenpairs of ``Q`` with the clamp and the retention rule of ``extract_motifs``."""
    eig = sym_eig(symmetric_gram(tensor.phi))
    spectrum = np.where(eig.eigenvalues < 0.0, 0.0, eig.eigenvalues)
    weights = np.sqrt(spectrum)
    count = int(np.sum(weights >= 1e-2 * weights[0]))
    return MotifSet(vectors=eig.eigenvectors[:, :count].T, spectrum=spectrum)


@pytest.mark.parametrize("regime, n, horizon", [
    ("random_iid", 50, 100),
    ("symmetric_wigner", 50, 100),
    ("cycle_permutation", 50, 100),
    ("random_iid", 10, 200),
])
def test_the_gram_route_agrees_with_the_square_route(monkeypatch, regime, n, horizon):
    _, _, tensor = _tensor_for(regime, n, 0.95, horizon, Seed(4))  # gaussian coupling
    sides = _solved_sides(monkeypatch)
    gram = extract_motifs(tensor)
    assert sides == [n]
    square = sym_eig(symmetric_gram(tensor.phi))
    values = np.where(square.eigenvalues < 0.0, 0.0, square.eigenvalues)
    k = len(gram)
    assert 0 < k == int(np.sum(np.sqrt(values) >= 1e-2 * np.sqrt(values[0])))
    assert np.max(np.abs(gram.spectrum - values)) <= 1e-12 * values[0]
    assert np.all(gram.spectrum[:k] > 0.0) and np.all(gram.spectrum[n:] == 0.0)
    # Index i is non-degenerate when both of its gaps are open, the one to the
    # first dropped eigenvalue included.
    open_gaps = values[:k] - values[1:k + 1] > DEGENERACY_RTOL * values[:k]
    isolated = open_gaps & np.concatenate(([True], open_gaps[:-1]))
    assert np.any(isolated)
    dots = np.abs(np.sum(gram.vectors * square.eigenvectors[:, :k].T, axis=1))
    assert np.all(dots[isolated] >= 1.0 - 1e-10)


@pytest.mark.parametrize("regime, kind, n, tau, nu", [
    *((regime, kind, 12, 24, nu)
      for regime, kind in (("random_iid", "gaussian"), ("symmetric_wigner", "gaussian"),
                           ("cycle_permutation", "ones_pi_signs"))
      for nu in (0.5, 0.95, 1.0)),
    ("random_iid", "gaussian", 12, 8, 0.95),  # tau < N: the exact Gram is tau x tau
])
def test_every_retained_eigenvalue_is_enclosed_by_the_exact_spectrum(regime, kind, n, tau, nu):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a horizon below N warns
        _, _, tensor = _tensor_for(regime, n, nu, tau, Seed(3), kind=kind)
    motifs = extract_motifs(tensor, threshold_ratio=1e-6)
    gram = oracles.exact_gram(tensor.phi)
    # delta = c n eps lambda_0 with n = max(N, tau), the longest inner product
    # the library sums to form a Gram, and c = 1: forming a Gram in floating
    # point moves an entry by up to about n eps lambda_0, and the eigensolver's
    # backward error adds a few eps lambda_0.  These cases need c = 0.125 at most.
    delta = 1.0 * max(n, tau) * np.finfo(float).eps * motifs.spectrum[0]
    # Intervals of retained eigenvalues that overlap are merged, so a
    # degenerate cluster is checked by its multiplicity, with no basis.
    groups = []
    for value in sorted(motifs.spectrum[:len(motifs)]):
        if groups and value - delta <= groups[-1][1]:
            groups[-1][1] = value + delta
        else:
            groups.append([value - delta, value + delta])
    assert len(motifs) > 0
    for lo, hi in groups:
        reported = int(np.sum((motifs.spectrum >= lo) & (motifs.spectrum <= hi)))
        exact = oracles.count_below(gram, hi) - oracles.count_below(gram, lo)
        assert exact == reported, (lo, hi)


def test_the_cycle_at_nu_one_keeps_the_square_route_bit_for_bit(monkeypatch):
    spec = ReservoirSpec(regime="cycle_permutation", size=100, nu=1.0)
    _, _, tensor = build_from_specs(spec, InputCouplingSpec(kind="ones_pi_signs", size=100),
                                    200, Seed(0))
    sides = _solved_sides(monkeypatch)
    motifs = extract_motifs(tensor)
    assert sides == [100, 200]  # the Gram's pairs are degenerate, so Q is solved
    square = _square_route(tensor)
    assert motifs.vectors.tobytes() == square.vectors.tobytes()
    assert motifs.spectrum.tobytes() == square.spectrum.tobytes()


@pytest.mark.parametrize("horizon", [30, 50])
def test_a_horizon_of_at_most_n_keeps_the_square_route_bit_for_bit(monkeypatch, horizon):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a horizon below N warns
        _, _, tensor = _tensor_for("random_iid", 50, 0.95, horizon, Seed(6))
    sides = _solved_sides(monkeypatch)
    motifs = extract_motifs(tensor)
    assert sides == [horizon]
    assert list(vars(tensor)) == ["phi"]  # the tau x tau Q was formed, not kept
    square = _square_route(tensor)
    assert motifs.vectors.tobytes() == square.vectors.tobytes()
    assert motifs.spectrum.tobytes() == square.spectrum.tobytes()


@pytest.mark.parametrize("regime", ["random_iid", "symmetric_wigner"])
def test_an_ill_conditioned_retained_set_takes_the_square_route(monkeypatch, regime):
    _, _, tensor = _tensor_for(regime, 100, 0.95, 200, Seed(5))
    sides = _solved_sides(monkeypatch)
    motifs = extract_motifs(tensor, threshold_ratio=1e-6)
    if regime == "random_iid":
        # Its columns fall below rounding after m < N of them, so the m x m block
        # of Q is the square route, solved with no Gram first.
        m = effective_horizon(tensor.phi)
        assert m < 100 and sides == [m]
        assert not np.any(motifs.vectors[:, m:]) and not np.any(motifs.spectrum[m:])
    else:
        assert sides == [100, 200]
    assert motifs.spectrum[len(motifs) - 1] < DUAL_ROUTE_MIN_RATIO * motifs.spectrum[0]
    gram = motifs.vectors @ motifs.vectors.T
    assert np.max(np.abs(gram - np.eye(len(motifs)))) <= 1e-12


@pytest.mark.parametrize("threshold", [1e-2, 1e-6])
@pytest.mark.parametrize("regime", ["random_iid", "symmetric_wigner", "cycle_permutation"])
def test_cutting_phi_at_its_effective_horizon_keeps_the_motifs(monkeypatch, regime, threshold):
    for seed in range(5):
        _, _, tensor = _tensor_for(regime, 100, 0.95, 200, Seed(seed))
        cut = extract_motifs(tensor, threshold)
        with monkeypatch.context() as patch:  # the oracle keeps every column of Phi
            patch.setattr(motifs_module, "effective_horizon", lambda phi: phi.shape[1])
            full = extract_motifs(tensor, threshold)
        values, k = full.spectrum, len(full)
        assert len(cut) == k > 0
        assert np.max(np.abs(cut.spectrum - values)) <= 1e-12 * values[0]
        # Either solve fixes an eigenvector only to an angle of about
        # eps * lambda_0 / gap, so an index is non-degenerate when both of its
        # gaps, the one to the first dropped eigenvalue included, are open by
        # DEGENERACY_RTOL and exceed 1e-10 * lambda_0, where that angle is 2.2e-6.
        gaps = values[:k] - values[1:k + 1]
        open_gaps = (gaps > DEGENERACY_RTOL * values[:k]) & (gaps > 1e-10 * values[0])
        isolated = open_gaps & np.concatenate(([True], open_gaps[:-1]))
        assert np.any(isolated)
        dots = np.abs(np.sum(cut.vectors * full.vectors, axis=1))
        assert np.all(dots[isolated] >= 1.0 - 1e-10)
        m = effective_horizon(tensor.phi)
        if m == tensor.horizon:  # nothing is cut, so nothing moves
            assert regime != "random_iid"
            assert cut.vectors.tobytes() == full.vectors.tobytes()
            assert cut.spectrum.tobytes() == full.spectrum.tobytes()
        else:
            assert regime == "random_iid" and m < 100
            assert not np.any(cut.vectors[:, m:]) and not np.any(cut.spectrum[m:])


def test_an_all_zero_feature_matrix_gives_the_empty_set(monkeypatch):
    tensor = build_metric_tensor(0.5 * np.eye(3), np.zeros(3), 8)
    assert not np.any(tensor.phi)
    assert effective_horizon(tensor.phi) == 0
    sides = _solved_sides(monkeypatch)
    motifs = extract_motifs(tensor)
    assert sides == []  # no column lies above rounding, so nothing is solved
    assert len(motifs) == 0
    assert motifs.vectors.shape == (0, 8)
    assert motifs.spectrum.tobytes() == np.zeros(8).tobytes()


def test_the_cycle_sweep_rows_solve_q_only_at_nu_one(monkeypatch):
    spec = ReservoirSpec(regime="cycle_permutation", size=100, nu=1.0)
    _, _, unit = build_from_specs(spec, InputCouplingSpec(kind="ones_pi_signs", size=100),
                                  200, Seed(0))
    sides = _solved_sides(monkeypatch)
    square_at = []
    for nu in default_nu_grid():
        del sides[:]
        scaled = scale_metric_tensor(unit, nu)
        extract_motifs(scaled)
        assert sides[0] == 100
        if 200 in sides:
            square_at.append(nu)
        assert list(vars(scaled)) == ["phi"]  # a tau x tau Q is never kept
    assert len(default_nu_grid()) == 22
    assert square_at == [1.0]


def test_the_feature_route_forms_no_tau_by_tau_matrix(monkeypatch):
    n, tau = 10, 2000
    spec = ReservoirSpec(regime="random_iid", size=n, nu=0.95)
    sides = _solved_sides(monkeypatch)
    rng = np.random.default_rng(8)
    u, v = (TimeSeries(rng.uniform(-1.0, 1.0, tau)) for _ in range(2))
    tracemalloc.start()
    try:
        _, _, tensor = build_from_specs(spec, InputCouplingSpec(kind="gaussian", size=n),
                                        tau, Seed(8))
        scaled = scale_metric_tensor(tensor, 0.9)
        kernel_eval(scaled, u, v)
        motifs = extract_motifs(scaled)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sides == [n] and len(motifs) > 0  # the N x N Gram route
    assert list(vars(tensor)) == list(vars(scaled)) == ["phi"]
    # One 2000 x 2000 matrix is 32 MB; Phi is 0.16 MB.
    assert peak < 8 * tau * tau / 10


def test_motif_set_validation():
    good = dict(vectors=np.eye(2), spectrum=np.array([4.0, 1.0]))
    MotifSet(**good)
    bad_norm = dict(good, vectors=np.array([[2.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ContractViolation):
        MotifSet(**bad_norm)
    bad_order = dict(good, spectrum=np.array([1.0, 4.0]))
    with pytest.raises(ContractViolation):
        MotifSet(**bad_order)
    with pytest.raises(ContractViolation, match="positive for retained motifs"):
        MotifSet(**dict(good, spectrum=np.array([4.0, 0.0])))
    skew = np.array([[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]])
    with pytest.raises(ContractViolation):
        MotifSet(**dict(good, vectors=skew))


def test_a_motif_set_checks_orthonormality_in_one_square_array():
    k = 150
    vectors = np.linalg.qr(np.random.default_rng(12).normal(size=(k, k)))[0].T.copy()
    spectrum = np.linspace(2.0, 1.0, k)
    MotifSet(vectors=vectors, spectrum=spectrum)
    tracemalloc.start()
    try:
        MotifSet(vectors=vectors, spectrum=spectrum)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # With k motifs of length k, the checks hold one k x k array beside their
    # input: the Gram, made G - I and |G - I| in place.  Forming I and G - I
    # as new arrays reads 3.0.
    assert peak < 1.25 * 8 * k * k


def test_a_motif_set_takes_its_norms_without_an_array_of_squares():
    k, tau = 300, 600
    vectors = np.linalg.qr(np.random.default_rng(13).normal(size=(tau, k)))[0].T.copy()
    spectrum = np.concatenate([np.linspace(2.0, 1.0, k), np.zeros(tau - k)])
    MotifSet(vectors=vectors, spectrum=spectrum)
    tracemalloc.start()
    try:
        MotifSet(vectors=vectors, spectrum=spectrum)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The k x k Gram is half the motifs (0.72 of 1.44 MB) and the finite
    # check's flags an eighth; the squares of every motif would be 1.44 MB.
    assert peak < 0.75 * vectors.nbytes


def test_a_motif_whose_squares_overflow_fails_the_norm_check_without_a_warning():
    vectors = np.array([[1e200, 0.0], [0.0, 1.0]])  # warnings are errors here
    with pytest.raises(ContractViolation, match="^motifs must have unit norm$"):
        MotifSet(vectors=vectors, spectrum=np.array([4.0, 1.0]))


def test_an_empty_set_is_checked_against_its_horizon_like_any_other():
    with pytest.raises(ContractViolation, match="motif length"):
        MotifSet(vectors=np.zeros((0, 3)), spectrum=np.zeros(4))
    empty = MotifSet(vectors=np.zeros((0, 4)), spectrum=np.zeros(4))
    other = MotifPrediction(vectors=np.eye(3), weights=np.ones(3), orthonormal=True)
    with pytest.raises(ContractViolation, match="horizons differ"):
        compare_motifs(empty, other)
    same = MotifPrediction(vectors=np.eye(4), weights=np.ones(4), orthonormal=True)
    with pytest.raises(ContractViolation, match="nothing to compare"):
        compare_motifs(empty, same)


@pytest.mark.parametrize("bad", [
    dict(vectors=[[np.nan, 0.0]], spectrum=[np.nan, 0.0]),
    dict(vectors=[[np.nan, 0.0]]),
    dict(spectrum=[1.0, -np.inf]),
    dict(spectrum=[np.nan, 0.0]),
    dict(spectrum=[np.inf, 0.0]),
])
def test_motif_set_rejects_non_finite_entries(bad):
    good = dict(vectors=[[1.0, 0.0]], spectrum=[1.0, 0.0])
    MotifSet(**good)
    with pytest.raises(ContractViolation, match="finite"):
        MotifSet(**dict(good, **bad))


def test_a_q_that_overflows_where_it_is_formed_is_reported_not_warned():
    # The column norm is finite, but Q + Q^T, summed on the way to an exactly
    # symmetric Q, is not; warnings are errors under pytest.
    tensor = MetricTensor(np.full((3, 1), 1.3e154 / np.sqrt(3)))
    with pytest.raises(ContractViolation, match="non-finite"):
        extract_motifs(tensor)


def test_a_feature_matrix_whose_norms_sum_past_range_is_reported_not_warned():
    # Each squared column norm (1e308) is finite, but their running sum in
    # effective_horizon and the N x N Gram of the three columns overflow.
    tensor = MetricTensor(np.full((1, 3), 1e154))
    with pytest.raises(ContractViolation, match="non-finite"):
        extract_motifs(tensor)


# ---------------------------------------------------------------------------
# random-regime prediction
# ---------------------------------------------------------------------------

def test_random_prediction_weights_are_geometric():
    pred = predict_random(nu=0.995, coupling=np.eye(100)[0], horizon=200)
    assert len(pred) == 100
    assert pred.weights[0] == 1.0
    ratios = (pred.weights[1:] / pred.weights[:-1]) ** 2
    assert np.allclose(ratios, oracles.RANDOM_WEIGHT_RATIO_NU995, rtol=1e-12)


def test_random_prediction_scales_with_coupling_norm():
    unit = predict_random(0.9, np.eye(10)[0], 20)
    scaled = predict_random(0.9, 3.0 * np.eye(10)[0], 20)
    assert np.allclose(scaled.weights, 3.0 * unit.weights, rtol=1e-14)


def test_random_prediction_count_truncates_both_ways():
    assert len(predict_random(0.9, np.ones(5), 12)) == 5
    assert len(predict_random(0.9, np.ones(12), 5)) == 5


def test_random_prediction_vectors_are_time_axes():
    pred = predict_random(0.9, np.ones(3), 6)
    assert np.array_equal(pred.vectors, np.eye(6)[:3])
    assert pred.orthonormal


def test_random_prediction_allocates_no_square_identity():
    tracemalloc.start()
    try:
        pred = predict_random(0.9, np.ones(10), 4000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The vectors are 10 x 4000 floats (0.32 MB); a 4000 x 4000 identity is 128 MB.
    assert peak < 4 * pred.vectors.nbytes


@pytest.mark.parametrize("kwargs", [
    dict(nu=0.9, coupling=np.ones(0), horizon=5),
    dict(nu=0.0, coupling=np.ones(3), horizon=5),
    dict(nu=0.9, coupling=np.zeros(3), horizon=5),
    dict(nu=0.9, coupling=np.array([1.0, np.inf, 0.0]), horizon=5),
    dict(nu=0.9, coupling=np.array([1.0, np.nan, 0.0]), horizon=5),
    dict(nu=0.9, coupling=np.ones((3, 1)), horizon=5),
    dict(nu=0.9, coupling=np.ones(3), horizon=0),
])
def test_random_prediction_rejects_bad_parameters(kwargs):
    with pytest.raises(ContractViolation):
        predict_random(**kwargs)


# sha256 prefix of (vectors, weights) as the prediction gave them when it
# took (state_dim, nu, coupling_norm, horizon), with coupling_norm
# np.linalg.norm of the coupling below.
_RANDOM_BYTES = {12: "d54f66f1fec96225", 3: "0086b6434034cd92"}


@pytest.mark.parametrize("horizon", sorted(_RANDOM_BYTES))
def test_random_prediction_from_the_coupling_keeps_its_bytes(horizon):
    coup = generate_input(InputCouplingSpec("gaussian", 5, normalize_unit=False), Seed(2))
    pred = predict_random(0.9, coup, horizon)
    assert oracles.digest(pred.vectors, pred.weights) == _RANDOM_BYTES[horizon]


def test_single_random_instance_aligns_with_prediction():
    seed = mix_seed(0, 55, 0)
    res, coup, tensor = _tensor_for("random_iid", 100, 0.995, 200, seed)
    motifs = extract_motifs(tensor)
    pred = predict_random(0.995, coup, 200)
    comparison = compare_motifs(motifs, pred)
    assert np.all(comparison.alignments[:4] >= 0.9)


def test_random_instance_weights_track_prediction_on_average():
    # Top-four weight errors, averaged over an ensemble, stay under 20%.
    errors = np.zeros(4)
    n_seeds = 100
    for s in range(n_seeds):
        seed = mix_seed(0, 56, s)
        res, coup, tensor = _tensor_for("random_iid", 100, 0.995, 200, seed)
        motifs = extract_motifs(tensor)
        pred = predict_random(0.995, coup, 200)
        comparison = compare_motifs(motifs, pred)
        errors += comparison.weight_rel_errors[:4]
    errors /= n_seeds
    assert np.all(errors <= 0.2), errors


# ---------------------------------------------------------------------------
# symmetric-regime prediction
# ---------------------------------------------------------------------------

def test_symmetric_prediction_diagonal_reservoir_components():
    res = np.diag([0.8, 0.3])
    coup = np.array([1.0, 0.0])
    pred = predict_symmetric(res, coup, 6)
    pattern = 0.8 ** np.arange(6)
    assert np.allclose(pred.vectors[0], pattern / np.linalg.norm(pattern),
                       atol=1e-14)
    assert pred.weights[0] == pytest.approx(np.sqrt(float(pattern @ pattern)), rel=1e-13)
    assert pred.weights[1] == 0.0
    assert not pred.orthonormal


def test_symmetric_prediction_negative_rate_alternates():
    pred = predict_symmetric(np.diag([-0.9]), np.array([1.0]), 5)
    pattern = (-0.9) ** np.arange(5)
    assert np.allclose(pred.vectors[0], pattern / np.linalg.norm(pattern),
                       atol=1e-14)


def test_symmetric_reconstruction_matches_built_tensor():
    for s in range(5):
        seed = mix_seed(0, 57, s)
        res, coup, tensor = _tensor_for("symmetric_wigner", 12, 0.9, 24, seed)
        pred = predict_symmetric(res, coup, 24)
        recon = (pred.vectors * pred.weights[:, None] ** 2).T @ pred.vectors
        assert np.max(np.abs(recon - symmetric_gram(tensor.phi))) <= 1e-9


def _assert_basis_rebuilds_phi(res, coup, tensor):
    tau = tensor.horizon
    pred = predict_symmetric(res, coup, tau)
    basis = pred.extras["basis"]
    gram = basis.T @ basis
    assert np.max(np.abs(gram - np.eye(res.shape[0]))) <= _ORTHONORMALITY_TOL
    assert np.all(basis.T @ coup >= -_ORTHONORMALITY_TOL)  # each sign makes <s_a, w> >= 0
    # The reservoir is symmetric with ||W|| <= 1, so no rounding error grows.
    # Column k of Phi is k products W @ col, and of basis @ C is k powers of
    # each sigma_a plus the eigensolve and one product: to first order each
    # route is within k N eps ||w|| of the exact column.
    bound = 2 * tau * res.shape[0] * np.finfo(float).eps * np.linalg.norm(coup)
    assert np.max(np.abs(basis @ (pred.weights[:, None] * pred.vectors) - tensor.phi)) <= bound
    return pred


@pytest.mark.parametrize("seed", range(4))
def test_symmetric_basis_is_orthonormal_and_rebuilds_phi(seed):
    _assert_basis_rebuilds_phi(*_tensor_for("symmetric_wigner", 30, 0.99, 90,
                                            mix_seed(0, 62, seed)))


def test_a_zero_projection_keeps_its_eigenvector_sign():
    res, coup = np.diag([0.5, 0.3]), np.array([1.0, 0.0])
    pred = _assert_basis_rebuilds_phi(res, coup, build_metric_tensor(res, coup, 6))
    assert pred.weights[1] == 0.0
    assert np.array_equal(pred.extras["basis"][:, 1], sym_eig(res).eigenvectors[:, 1])


def test_one_unit_symmetric_prediction_has_the_extracted_weight():
    res, coup, tensor = _tensor_for("symmetric_wigner", 1, 0.9, 10, Seed(4))
    pred = predict_symmetric(res, coup, 10)
    motifs = extract_motifs(tensor)
    assert len(pred) == len(motifs) == 1
    assert pred.weights[0] == pytest.approx(motifs.weights[0], rel=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_symmetric_squared_weights_sum_to_the_trace(seed):
    res, coup, tensor = _tensor_for("symmetric_wigner", 8, 0.9, 16, mix_seed(0, 61, seed))
    pred = predict_symmetric(res, coup, 16)
    assert float(np.sum(pred.weights ** 2)) == pytest.approx(
        float(np.trace(symmetric_gram(tensor.phi))), rel=1e-12)


def test_symmetric_prediction_rejects_asymmetric_reservoir():
    res = np.array([[0.0, 0.5], [0.1, 0.0]])
    with pytest.raises(ContractViolation):
        predict_symmetric(res, np.array([1.0, 0.0]), 4)


def test_symmetric_prediction_rejects_divergent_rates():
    with pytest.raises(ContractViolation):
        predict_symmetric(np.diag([1.5]), np.array([1.0]), 2000)


def test_symmetric_prediction_rejects_an_overflowing_pattern_norm():
    # 1.5**999 is finite, but the sum of the squared pattern entries is not.
    with pytest.raises(ContractViolation, match="spectral radius too large"):
        predict_symmetric(np.diag([1.5]), np.array([1.0]), 1000)


@pytest.mark.parametrize("coupling", [[np.nan, 1.0], [np.inf, 1.0], [], [[1.0, 0.0]],
                                      [1.0, 0.0, 0.0]])
def test_symmetric_prediction_rejects_a_bad_coupling(coupling):
    with pytest.raises(ContractViolation, match="coupling"):
        predict_symmetric(np.diag([0.5, 0.3]), np.array(coupling), 4)


@pytest.mark.parametrize("reservoir", [np.zeros((2, 3)), np.diag([np.nan, 0.3])])
def test_symmetric_prediction_rejects_a_bad_reservoir(reservoir):
    with pytest.raises(ContractViolation, match="reservoir"):
        predict_symmetric(reservoir, np.array([1.0, 0.0]), 4)


def test_compare_rejects_symmetric_components():
    res, coup, tensor = _tensor_for("symmetric_wigner", 6, 0.9, 12, Seed(1))
    motifs = extract_motifs(tensor)
    pred = predict_symmetric(res, coup, 12)
    with pytest.raises(ContractViolation):
        compare_motifs(motifs, pred)


# ---------------------------------------------------------------------------
# cycle-regime prediction
# ---------------------------------------------------------------------------

def test_cycle_two_copy_weight_factor_worked_example():
    pred = predict_cycle(0.5, np.array([1.0, 0.0]), 4)
    assert pred.extras["eigenvalue_factor"] == oracles.CYCLE_TWO_COPIES_FACTOR
    assert pred.weights[0] == pytest.approx(
        oracles.CYCLE_TWO_COPIES_WEIGHT_FACTOR, rel=1e-15)


def test_cycle_prediction_single_copy_returns_core_vectors():
    rng = np.random.default_rng(19)
    coup = rng.normal(size=6)
    coup /= np.linalg.norm(coup)
    pred = predict_cycle(0.9, coup, 6)
    assert pred.vectors.shape == (6, 6)
    gram = pred.vectors @ pred.vectors.T
    assert np.max(np.abs(gram - np.eye(6))) < 1e-12


def test_cycle_prediction_at_nu_one_uses_copy_count():
    coup = np.array([1.0, 0.0, 0.0])
    pred = predict_cycle(1.0, coup, 12)
    assert pred.extras["eigenvalue_factor"] == 4.0


def test_cycle_prediction_matches_extracted_motifs():
    seed = mix_seed(0, 58, 1)
    res, coup, tensor = _tensor_for("cycle_permutation", 10, 0.9, 30, seed)
    motifs = extract_motifs(tensor, threshold_ratio=1e-4)
    pred = predict_cycle(0.9, coup, 30)
    core = pred.extras["core_eigenvalues"]
    gaps = np.abs(np.diff(core)) / core[:-1]
    assert np.min(gaps) > 1e-6  # non-degenerate spectrum for this seed
    comparison = compare_motifs(motifs, pred)
    assert comparison.min_alignment >= 1.0 - 1e-8
    assert comparison.max_weight_rel_error <= 1e-8


@pytest.mark.parametrize("nu", [1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-11])
def test_cycle_weights_keep_their_precision_next_to_nu_one(nu):
    _, coup, tensor = _tensor_for("cycle_permutation", 50, nu, 100, Seed(3))
    pred = predict_cycle(nu, coup, 100)
    exact = (1 - Fraction(nu) ** 200) / (1 - Fraction(nu) ** 100)
    assert abs(pred.extras["eigenvalue_factor"] - exact) <= 1e-15 * exact
    assert compare_motifs(extract_motifs(tensor), pred).max_weight_rel_error <= 1e-12


def test_cycle_pi_sign_tensor_at_nu_one_has_exactly_degenerate_eigenpairs():
    """The default sweep's cycle / pi-signs tensor at nu = 1 (N = 100,
    tau = 200): 51 of its 99 adjacent relative eigengaps sit at rounding
    level, and every other gap exceeds 1e-3.  Inside each such pair the
    motifs are any orthonormal basis of a plane, so the sweep's nu = 1 row
    depends on the basis the eigensolver returns, and a different
    eigensolver route may move it."""
    _, _, tensor = _tensor_for("cycle_permutation", 100, 1.0, 200, Seed(0),
                               kind="ones_pi_signs")
    top = extract_motifs(tensor, 1e-2).spectrum[:100]
    gaps = (top[:-1] - top[1:]) / top[:-1]
    assert np.count_nonzero(gaps < 1e-9) == 51
    assert gaps[gaps >= 1e-9].min() > 1e-3


def test_cycle_prediction_rejects_bad_shapes_and_horizons():
    with pytest.raises(ContractViolation):
        predict_cycle(0.9, np.ones(0), 2)
    with pytest.raises(ContractViolation):
        predict_cycle(0.9, np.ones((3, 1)), 3)
    with pytest.raises(ContractViolation):
        predict_cycle(0.9, np.ones(3), 0)


@pytest.mark.parametrize("coup, horizon", [
    (np.ones(3), 4),
    (np.ones(4), 6),
    (np.tile([1.0, 0.0], 2), 2),  # a whole number of blocks, not of couplings
    (np.tile([1.0, 0.0], 3), 15),
])
def test_cycle_prediction_rejects_a_horizon_of_partial_copies(coup, horizon):
    with pytest.raises(ContractViolation, match="multiple of N"):
        predict_cycle(0.9, coup, horizon)


# sha256 prefix of (vectors, weights, core eigenvalues) and float.hex of the
# eigenvalue factor, as the prediction gave them when it took (state_dim,
# nu, coupling, copies): the aperiodic pi-sign coupling at N = 7, and a
# period-3 coupling at N = 6 below and at nu = 1.
_CYCLE_BYTES = {
    "pi": ("1de7391436f17d20", "0x1.7cd8447660f15p+0"),
    "periodic": ("9eec760552cb6cbd", "0x1.0b06122f046c5p+1"),
    "edge": ("7769adcbe0c5c651", "0x1.0000000000000p+2"),
}


@pytest.mark.parametrize("case, nu, copies", [("pi", 0.95, 2), ("periodic", 0.9, 3),
                                              ("edge", 1.0, 2)])
def test_cycle_prediction_from_the_horizon_keeps_its_bytes(case, nu, copies):
    coup = (generate_input(InputCouplingSpec("ones_pi_signs", 7), Seed(0)) if case == "pi"
            else np.tile([1.0, -0.5, 0.25], 2))
    pred = predict_cycle(nu, coup, copies * len(coup))
    got = (oracles.digest(pred.vectors, pred.weights, pred.extras["core_eigenvalues"]),
           pred.extras["eigenvalue_factor"].hex())
    assert got == _CYCLE_BYTES[case]


# ---------------------------------------------------------------------------
# periodic-coupling prediction
# ---------------------------------------------------------------------------

def test_periodic_prediction_closed_form_for_binary_blocks():
    n, p, nu, tau = 20, 5, 0.9, 40
    seed = Seed(0)
    res, coup, tensor = _tensor_for("cycle_permutation", n, nu, tau, seed,
                                    kind="periodic_binary", period=p)
    pred = predict_cycle(nu, np.tile(coup[:p], n // p), tau)
    expected = np.array([oracles.periodic_cycle_weight(nu, i, p, tau)
                         for i in range(1, p + 1)])
    assert np.allclose(pred.weights, expected, rtol=1e-12)
    motifs = extract_motifs(tensor, threshold_ratio=1e-6)
    assert len(motifs) == p
    assert np.allclose(motifs.weights, expected, rtol=1e-8)
    comparison = compare_motifs(motifs, pred)
    assert comparison.min_alignment >= 1.0 - 1e-8


def test_periodic_prediction_counts_pattern_copies():
    # One row per position of the block, so the coupling holds
    # len(coupling) // len(prediction) copies of it.
    n, p = 12, 3
    block = np.array([1.0, 0.0, 0.0])
    coup = np.tile(block, n // p)
    pred = predict_cycle(0.8, coup, n * 8)
    assert len(coup) // len(pred) == n // p
    assert pred.vectors.shape == (p, n * 8)
    assert pred.horizon == n * 8


def test_bipolar_weights_are_exactly_twice_binary_at_period_four():
    n, p, nu, tau = 8, 4, 0.95, 16
    seed = Seed(0)
    binary = generate_input(InputCouplingSpec(kind="periodic_binary", size=n,
                                              period=p, normalize_unit=False),
                            seed)
    bipolar = generate_input(InputCouplingSpec(kind="periodic_bipolar", size=n,
                                               period=p, normalize_unit=False),
                             seed)
    pred_bin = predict_cycle(nu, np.tile(binary[:p], n // p), tau)
    pred_bip = predict_cycle(nu, np.tile(bipolar[:p], n // p), tau)
    assert np.array_equal(pred_bip.weights, 2.0 * pred_bin.weights)


def test_periodic_prediction_at_nu_one_counts_blocks():
    # Undamped cycle: the factor is the number of pattern blocks in the
    # horizon, here 6 * 5 / 2.
    block = np.array([1.0, 0.0])
    pred = predict_cycle(1.0, np.tile(block, 3), 30)
    assert pred.extras["eigenvalue_factor"] == 15.0


@pytest.mark.parametrize("n, p, nu, copies", [
    (12, 3, 0.9, 2),
    (8, 1, 0.95, 3),
    (6, 6, 0.8, 2),
    (10, 5, 1.0, 4),
    (20, 4, 0.995, 1),
])
def test_periodic_prediction_is_the_cycle_prediction_of_one_block(n, p, nu, copies):
    # A period-p coupling on the N-cycle has the motifs of the p-cycle driven
    # by one block, over the same horizon; only the weights carry the N/p
    # copies of the block.
    block = np.random.default_rng(n + p).normal(size=p)
    periodic = predict_cycle(nu, np.tile(block, n // p), copies * n)
    single = predict_cycle(nu, block, copies * n)
    assert periodic.horizon == single.horizon == copies * n
    assert len(periodic) == len(single) == p
    assert periodic.vectors.tobytes() == single.vectors.tobytes()
    for key in ("core_eigenvalues", "eigenvalue_factor"):
        assert np.asarray(periodic.extras[key]).tobytes() == \
            np.asarray(single.extras[key]).tobytes()
    core = single.extras["core_eigenvalues"]
    assert periodic.weights.tobytes() == \
        np.sqrt((n // p) * core * single.extras["eigenvalue_factor"]).tobytes()
    assert np.allclose(periodic.weights ** 2 / (n // p), single.weights ** 2,
                       rtol=1e-12, atol=0.0)


def test_cycle_prediction_reads_a_period_the_coupling_has_by_chance():
    # The first six fractional bits of pi are 001001, so the pi-sign coupling
    # at N = 6 repeats a block of three: the tensor has rank 3, and the
    # prediction gives exactly three motifs.
    n, nu, copies = 6, 0.9, 2
    _, coup, tensor = _tensor_for("cycle_permutation", n, nu, n * copies, Seed(0),
                                  kind="ones_pi_signs")
    assert np.array_equal(coup, np.roll(coup, 3))
    pred = predict_cycle(nu, coup, n * copies)
    assert len(pred) == 3
    assert len(coup) // len(pred) == 2
    motifs = extract_motifs(tensor, threshold_ratio=1e-6)
    assert len(motifs) == 3
    comparison = compare_motifs(motifs, pred)
    assert comparison.min_alignment >= 1.0 - 1e-8
    assert comparison.max_weight_rel_error <= 1e-8


def test_prediction_container_validation():
    with pytest.raises(ContractViolation):
        MotifPrediction(vectors=np.eye(2),
                        weights=np.array([1.0, 2.0]),
                        orthonormal=True, extras={})
    with pytest.raises(ContractViolation):
        MotifPrediction(vectors=np.eye(2),
                        weights=np.array([1.0, -0.5]),
                        orthonormal=True, extras={})


@pytest.mark.parametrize("vectors, weights", [
    (np.eye(2), [np.nan, np.nan]),
    (np.eye(2), [np.inf, 1.0]),
    ([[np.nan, 0.0], [0.0, 1.0]], [1.0, 0.5]),
])
def test_prediction_container_rejects_non_finite_entries(vectors, weights):
    with pytest.raises(ContractViolation, match="finite"):
        MotifPrediction(vectors=np.array(vectors), weights=np.array(weights),
                        orthonormal=True)


def test_records_store_no_horizon_and_derive_it_from_their_arrays():
    stored = {record.__name__: [f.name for f in dataclasses.fields(record)]
              for record in (MetricTensor, MotifSet, MotifPrediction, MotifComparison)}
    assert stored == {
        "MetricTensor": ["phi"],
        "MotifSet": ["vectors", "spectrum"],
        "MotifPrediction": ["vectors", "weights", "orthonormal", "extras"],
        "MotifComparison": ["alignments", "weight_rel_errors", "cluster_ids"],
    }
    res, coup, tensor = _tensor_for("symmetric_wigner", 4, 0.9, 8, Seed(3))
    scaled = scale_metric_tensor(tensor, 0.5)
    # A tensor stores its feature matrix alone.
    assert list(vars(tensor)) == list(vars(scaled)) == ["phi"]
    motifs = extract_motifs(tensor)
    assert tensor.horizon == tensor.phi.shape[1] == symmetric_gram(tensor.phi).shape[0] == 8
    assert scaled.horizon == scaled.phi.shape[1] == symmetric_gram(scaled.phi).shape[0] == 8
    assert motifs.horizon == motifs.spectrum.shape[0] == motifs.vectors.shape[1] == 8
    predictions = [
        predict_random(0.9, coup, 8),
        predict_symmetric(res, coup, 8),
        predict_cycle(0.9, coup, 8),
        predict_cycle(0.9, np.tile([1.0, 0.0], 2), 8),
    ]
    for prediction in predictions:
        assert prediction.horizon == prediction.vectors.shape[1] == 8


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def _self_comparison_pair(seed):
    res, coup, tensor = _tensor_for("random_iid", 6, 0.9, 10, seed)
    motifs = extract_motifs(tensor)
    pred = MotifPrediction(vectors=motifs.vectors.copy(),
                           weights=motifs.weights.copy(),
                           orthonormal=True, extras={})
    return motifs, pred


def test_comparison_of_a_set_with_itself_is_perfect():
    motifs, pred = _self_comparison_pair(Seed(5))
    comparison = compare_motifs(motifs, pred)
    assert comparison.n_compared == len(motifs)
    assert np.min(comparison.alignments) >= 1.0 - 1e-12
    assert np.array_equal(comparison.weight_rel_errors, np.zeros(len(motifs)))
    assert comparison.min_alignment >= 1.0 - 1e-12
    assert comparison.max_weight_rel_error == 0.0


def test_comparison_summaries_are_read_from_its_arrays():
    comparison = MotifComparison(alignments=np.array([0.99, 0.5, 1.0]),
                                 weight_rel_errors=np.array([0.1, 0.3, 0.2]),
                                 cluster_ids=np.array([0, 1, 2]))
    assert comparison.n_compared == 3
    assert comparison.min_alignment == 0.5
    assert comparison.max_weight_rel_error == 0.3
    _, coup, tensor = _tensor_for("cycle_permutation", 5, 0.8, 10, Seed(2))
    real = compare_motifs(extract_motifs(tensor), predict_cycle(0.8, coup, 10))
    assert real.n_compared == len(real.alignments) == len(real.weight_rel_errors)
    assert real.min_alignment == float(np.min(real.alignments))
    assert real.max_weight_rel_error == float(np.max(real.weight_rel_errors))


def test_comparison_ignores_global_sign_of_predicted_vectors():
    motifs, pred = _self_comparison_pair(Seed(6))
    flipped = MotifPrediction(vectors=-pred.vectors,
                              weights=pred.weights,
                              orthonormal=True, extras={})
    comparison = compare_motifs(motifs, flipped)
    assert np.min(comparison.alignments) >= 1.0 - 1e-12


def test_degenerate_predicted_weights_are_compared_as_a_subspace():
    motifs = MotifSet(vectors=np.eye(2), spectrum=np.array([1.0, 1.0]))
    s = np.sqrt(0.5)
    rotated = np.array([[s, s], [s, -s]])
    pred = MotifPrediction(vectors=rotated,
                           weights=np.array([1.0, 1.0]),
                           orthonormal=True, extras={})
    comparison = compare_motifs(motifs, pred)
    assert np.array_equal(comparison.cluster_ids, [0, 0])
    assert np.min(comparison.alignments) >= 1.0 - 1e-12


def test_distinct_predicted_weights_get_distinct_clusters():
    motifs, pred = _self_comparison_pair(Seed(8))
    comparison = compare_motifs(motifs, pred)
    assert np.array_equal(comparison.cluster_ids,
                          np.arange(comparison.n_compared))


@pytest.mark.parametrize("seed", range(5))
def test_cluster_ids_equal_the_gap_by_gap_loop(seed):
    # Runs of equal or nearly equal values, as degenerate spectra give them.
    rng = np.random.default_rng(seed)
    values = np.repeat(np.sort(rng.uniform(0.1, 1.0, 6))[::-1], rng.integers(1, 4, 6))
    values = values * (1.0 + rng.choice([0.0, 1e-10, 1e-6], values.size))
    weights = np.sort(np.sqrt(values))[::-1]
    k = weights.size
    motifs = MotifSet(vectors=np.eye(k), spectrum=weights**2)
    pred = MotifPrediction(vectors=np.eye(k), weights=weights, orthonormal=True)
    pred_values = weights**2
    expected = np.zeros(k, dtype=np.int64)
    for i in range(1, k):
        split = pred_values[i - 1] - pred_values[i] > DEGENERACY_RTOL * pred_values[i - 1]
        expected[i] = expected[i - 1] + int(split)
    got = compare_motifs(motifs, pred).cluster_ids
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)
    assert 0 < got[-1] < k - 1  # some clusters merge and some split


def test_zero_predicted_weight_flags_infinite_error():
    motifs = MotifSet(vectors=np.eye(2), spectrum=np.array([1.0, 0.25]))
    pred = MotifPrediction(vectors=np.eye(2),
                           weights=np.array([1.0, 0.0]),
                           orthonormal=True, extras={})
    comparison = compare_motifs(motifs, pred)
    assert comparison.weight_rel_errors[1] == np.inf


def test_comparison_rejects_empty_or_mismatched_inputs():
    motifs, pred = _self_comparison_pair(Seed(9))
    empty = extract_motifs(MetricTensor(np.zeros((6, 10))))
    with pytest.raises(ContractViolation):
        compare_motifs(empty, pred)
    other = MotifPrediction(vectors=np.eye(4),
                            weights=np.ones(4), orthonormal=True,
                            extras={})
    with pytest.raises(ContractViolation):
        compare_motifs(motifs, other)
