"""End-to-end checks of the package's headline guarantees.

Each test prints exactly one PASS/FAIL line with the measured quantities,
so the transcript of this module doubles as a results table.

Known deviation, kept honest rather than patched over: for the cycle
regime with pi-sign input at N=100, tau=200, the measured motif-richness
curve peaks between nu = 0.98 and nu = 0.99 (relative area 0.0506 at 0.98
versus 0.0479 at 0.99), so the strict monotone-rise assertions in
test_richness_rises_toward_instability_then_collapses fail by about 5
percent while the collapse at nu = 1 and the cycle-above-random ordering
hold.  The measured values are printed either way.
"""

import time
import warnings

import numpy as np

from reskernel import (
    SweepConfig,
    build_from_specs,
    build_metric_tensor,
    coefficient_cloud,
    compare_motifs,
    extract_motifs,
    grid_summary,
    numerical_rank,
    predict_cycle,
    predict_symmetric,
    scale_metric_tensor,
    sweep,
)
from reskernel import cli
from reskernel import coupling as cp
from reskernel.verify import (
    run_initial_state_error_containment,
    run_kernel_state_equivalence,
)

from oracles import periodic_cycle_weight


def _report(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _tensor(regime, n, nu, kind, horizon, seed, normalize=True, period=None,
            distribution="gaussian"):
    res_spec = cp.ReservoirSpec(regime=regime, size=n, nu=nu,
                                distribution=distribution)
    in_spec = cp.InputCouplingSpec(kind=kind, size=n, period=period,
                                   normalize_unit=normalize)
    reservoir = cp.generate_reservoir(res_spec, seed)
    coupling_vec = cp.generate_input(in_spec, seed)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*below the state dimension.*")
        tensor = build_metric_tensor(reservoir, coupling_vec, horizon)
    return tensor, reservoir, coupling_vec


def test_kernel_evaluation_matches_state_simulation():
    start = time.perf_counter()
    result = run_kernel_state_equivalence(n_configs=100, base_seed=0)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 60.0
    _report("kernel equals state-space inner product",
            ok,
            f"{result.n_checked} pairs over 100 configs, worst error "
            f"{result.worst:.3g} of the 1e-10 allowance, {elapsed:.1f}s")


def test_tensor_entries_obey_geometric_decay_bound():
    worst_excess = -np.inf
    n_tensors = 0
    for regime in cp.RESERVOIR_REGIMES:
        for kind, period in (("gaussian", None), ("ones_pi_signs", None),
                             ("periodic_binary", 8)):
            for nu in (0.7, 0.995, 1.0):
                for normalize in (True, False):
                    seed = cp.mix_seed(0, 2, n_tensors)
                    tensor, _, w = _tensor(regime, 40, nu, kind, 80, seed,
                                           normalize=normalize, period=period)
                    sq_norm = float(w @ w)
                    powers = np.add.outer(np.arange(80), np.arange(80))
                    bound = sq_norm * nu ** powers
                    worst_excess = max(worst_excess,
                                       float(np.max(np.abs(tensor.matrix) - bound)))
                    n_tensors += 1
    ok = worst_excess <= 1e-9
    _report("tensor entries stay under the geometric decay envelope",
            ok,
            f"{n_tensors} tensors across all regimes, worst excess "
            f"{worst_excess:.3g} (allowed 1e-9)")


def test_initial_state_error_stays_inside_closed_form_bounds():
    start = time.perf_counter()
    result = run_initial_state_error_containment(trials=50, base_seed=0)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 60.0
    _report("initial-state kernel error containment",
            ok,
            f"{result.n_checked} trials at N=50, tau=300, worst margin "
            f"{result.worst:.3g}, {elapsed:.1f}s")


def test_dense_random_reservoirs_have_markovian_motifs():
    start = time.perf_counter()
    n, nu, horizon, n_seeds, depth = 100, 0.995, 200, 100, 4
    predicted_eigs = (nu / 2.0) ** (2.0 * np.arange(depth))
    variants = (
        ("gaussian W and w", "gaussian", "gaussian"),
        ("random-sign w", "gaussian", "ones_random_signs"),
        ("random-sign W and w", "rademacher", "ones_random_signs"),
    )
    summaries = []
    ok = True
    for label, dist, kind in variants:
        aligns = np.zeros((n_seeds, depth))
        eigs = np.zeros((n_seeds, depth))
        for s in range(n_seeds):
            seed = cp.mix_seed(0, 42, s)
            tensor, _, _ = _tensor("random_iid", n, nu, kind, horizon, seed,
                                   distribution=dist)
            motifs = extract_motifs(tensor)
            for i in range(depth):
                aligns[s, i] = abs(motifs.vectors[i, i])
            eigs[s] = motifs.spectrum[:depth]
        mean_align = aligns.mean(axis=0)
        ensemble_err = np.abs(eigs.mean(axis=0) - predicted_eigs) / predicted_eigs
        per_seed_err = (np.abs(eigs - predicted_eigs) / predicted_eigs).mean(axis=0)
        ok = ok and bool(np.all(mean_align >= 0.9)) \
                and bool(np.all(ensemble_err <= 0.2))
        summaries.append(f"{label}: min mean alignment {mean_align.min():.3f}, "
                         f"worst ensemble eigenvalue error {ensemble_err.max():.3f} "
                         f"(per-seed mean error up to {per_seed_err.max():.3f})")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _report("dense random reservoirs match the basis-vector motif model",
            ok, "; ".join(summaries) + f"; {elapsed:.0f}s")


def test_symmetric_components_reconstruct_the_tensor():
    worst = 0.0
    for k in range(20):
        seed = cp.mix_seed(0, 5, k)
        rng = np.random.default_rng(seed.base)
        n = int(rng.integers(2, 51))
        horizon = int(rng.integers(2, 101))
        nu = float(rng.uniform(0.3, 0.999))
        tensor, reservoir, w = _tensor("symmetric_wigner", n, nu, "gaussian",
                                       horizon, seed)
        pred = predict_symmetric(reservoir, w, horizon)
        rebuilt = (pred.vectors * pred.weights[:, None] ** 2).T @ pred.vectors
        worst = max(worst, float(np.max(np.abs(tensor.matrix - rebuilt))))
    ok = worst <= 1e-9
    _report("symmetric rank-one components rebuild the tensor",
            ok, f"20 instances up to N=50, tau=100, worst residual {worst:.3g} "
                f"(allowed 1e-9)")


def test_cycle_block_predictions_are_exact_eigenvectors():
    n, nu, copies = 10, 0.8, 3
    horizon = n * copies
    seed = cp.mix_seed(0, 6, 0)
    tensor, _, w = _tensor("cycle_permutation", n, nu, "gaussian", horizon, seed)
    pred = predict_cycle(nu, w, horizon)
    residual = np.max(np.abs(tensor.matrix @ pred.vectors.T
                             - pred.vectors.T * pred.weights[None, :] ** 2))
    allowance = 1e-8 * np.max(np.abs(tensor.matrix))
    motifs = extract_motifs(tensor, threshold_ratio=1e-6)
    comparison = compare_motifs(motifs, pred)
    worst_weight = float(np.max(comparison.weight_rel_errors))
    ok = residual <= allowance and len(motifs.weights) == n and worst_weight <= 1e-8
    _report("cycle block motifs are eigenvectors with predicted weights",
            ok,
            f"eigen-residual {residual:.3g} (allowed {allowance:.3g}), "
            f"worst weight error {worst_weight:.3g} over {n} motifs")


def test_periodic_coupling_collapses_the_spectrum():
    n, nu, horizon = 100, 0.995, 200
    seed = cp.mix_seed(0, 7, 0)
    tensor, _, _ = _tensor("cycle_permutation", n, nu, "periodic_binary",
                           horizon, seed, period=10)
    motifs = extract_motifs(tensor)
    rank = numerical_rank(motifs.spectrum)
    predicted = np.array([periodic_cycle_weight(nu, i, 10, horizon)
                          for i in range(1, 11)])
    weight_err = float(np.max(np.abs(motifs.weights - predicted) / predicted)) \
        if len(motifs.weights) == 10 else np.inf

    pred_binary = predict_cycle(nu, np.tile([1.0, 0.0, 0.0, 0.0], n // 4), horizon)
    pred_bipolar = predict_cycle(nu, np.tile([1.0, -1.0, -1.0, -1.0], n // 4), horizon)
    doubled_exactly = bool(np.array_equal(pred_bipolar.weights,
                                          2.0 * pred_binary.weights))
    emp = {}
    for kind in ("periodic_binary", "periodic_bipolar"):
        t4, _, _ = _tensor("cycle_permutation", n, nu, kind, horizon, seed,
                           normalize=False, period=4)
        emp[kind] = extract_motifs(t4).weights
    emp_ratio_err = float(np.max(np.abs(
        emp["periodic_bipolar"] / emp["periodic_binary"] - 2.0)))

    ok = (rank == 10 and len(motifs.weights) == 10 and weight_err <= 1e-8
          and doubled_exactly and emp_ratio_err <= 1e-12)
    _report("period-10 coupling collapses the tensor to rank 10",
            ok,
            f"numerical rank {rank}, retained {len(motifs.weights)} motifs, "
            f"worst weight error {weight_err:.3g} (allowed 1e-8); bipolar "
            f"closed-form weights exactly double binary: {doubled_exactly}, "
            f"measured ratio off by {emp_ratio_err:.3g}")


def test_richness_rises_toward_instability_then_collapses():
    """The cycle kernel's richness rises toward the edge of stability and
    collapses at nu = 1 (Tiňo, arXiv:1907.06382, claim 3).

    This check fails at N = 100 by a finite-size effect, and its gate is
    kept as it is.  Writing x = N(1 - nu), the peak of the cycle / pi-signs
    relative area with the default cell side 0.05 sits at x* ≈ 1.5, that
    is nu* ≈ 0.985, so "strictly rising through 0.99" asks for a peak past
    the point where it sits.  Over N from 100 to 1600 the measured peak
    follows x* ≈ 15 / sqrt(N); ROADMAP item 6 has the tables.
    """
    start = time.perf_counter()
    nu_values = (0.96, 0.97, 0.98, 0.99, 1.0)
    config = SweepConfig(nu_values=nu_values, horizon=200, base_seed=0)
    reports = sweep(config)

    def mean_area(regime, nu, attr="relative_area"):
        rows = [getattr(r, attr) for r in reports
                if r.regime == regime and r.nu == nu]
        return float(np.mean(rows))

    cycle = [mean_area("cycle_permutation", nu) for nu in nu_values]
    cycle_w = [mean_area("cycle_permutation", nu, "weighted_relative_area")
               for nu in nu_values]
    random_means = [mean_area("random_iid", nu) for nu in nu_values[:4]]

    rising = all(b > a for a, b in zip(cycle, cycle[1:4]))
    rising_w = all(b > a for a, b in zip(cycle_w, cycle_w[1:4]))
    collapses = cycle[4] < cycle[3]
    collapses_w = cycle_w[4] < cycle_w[3]
    cycle_above_random = all(r < c for r, c in zip(random_means, cycle[:4]))
    elapsed = time.perf_counter() - start

    ok = (rising and rising_w and collapses and collapses_w
          and cycle_above_random and elapsed < 600.0)
    cycle_str = ", ".join(f"{v:.4g}" for v in cycle)
    _report("motif richness rises toward nu=1 then collapses at nu=1",
            ok,
            f"cycle areas at nu {nu_values}: [{cycle_str}]; strictly rising "
            f"through 0.99: {rising} (weighted: {rising_w}), collapse at 1.0: "
            f"{collapses}, cycle above random-W mean at nu<=0.99: "
            f"{cycle_above_random}; {elapsed:.0f}s")


def test_the_richness_peak_sits_near_the_edge_of_stability():
    """The cycle / pi-signs relative area peaks at ``x* = N(1 - nu*)`` in
    [0.5, 2.5], and x* does not grow with N.

    The bounds come from the finite-size measurement of ROADMAP item 6 (trial
    0, threshold 1e-2, tau = 2N, the cloud scaled by ``sqrt(200 / tau)`` so
    that N = 100 is the paper's measure), which put x* at 2.0, 1.5, 1.0 and
    0.75 for N = 50, 100, 200 and 400.  The x grid reaches below 0.5, so the
    lower bound can fail as well as the upper one.
    """
    start = time.perf_counter()
    xs = 0.25 * np.arange(1, 13)
    peaks = {}
    for n in (50, 100, 200, 400):
        tau = 2 * n
        _, _, unit = build_from_specs(cp.ReservoirSpec("cycle_permutation", n, 1.0),
                                      cp.InputCouplingSpec("ones_pi_signs", n), tau,
                                      cp.trial_seed(0, 0))
        areas = []
        for x in xs:
            points, weights = coefficient_cloud(
                extract_motifs(scale_metric_tensor(unit, 1.0 - x / n), 1e-2))
            areas.append(grid_summary(points * np.sqrt(200 / tau), weights).relative_area)
        peaks[n] = float(xs[int(np.argmax(areas))])
    elapsed = time.perf_counter() - start

    found = list(peaks.values())
    in_bounds = all(0.5 <= x <= 2.5 for x in found)
    settles = all(b <= a for a, b in zip(found, found[1:]))
    table = ", ".join(f"N={n}: {x:.2f}" for n, x in peaks.items())
    _report("the richness peak x* = N(1 - nu*) lies in [0.5, 2.5] and does not grow with N",
            in_bounds and settles,
            f"x* {table}; in bounds: {in_bounds}, non-increasing in N: {settles}; "
            f"{elapsed:.1f}s")


def test_cli_runs_are_byte_deterministic(tmp_path, capsys):
    u_file = tmp_path / "u.txt"
    v_file = tmp_path / "v.txt"
    u_file.write_text("1.0\n-0.5\n0.25\n0.125\n")
    v_file.write_text("0.5\n0.5\n-1.0\n2.0\n")
    commands = {
        "motifs": ["motifs", "--regime", "cycle", "--input", "pi-signs",
                   "--N", "12", "--tau", "24", "--trials", "2"],
        "predict": ["predict", "--regime", "random", "--N", "20",
                    "--nu", "0.9", "--tau", "40"],
        "sweep": ["sweep", "--nu-grid", "0.95:0.01:0.96", "--regime", "cycle",
                  "--input", "e-signs", "--N", "10"],
        "verify": ["verify", "--configs", "3", "--spectrum-configs", "3",
                   "--containment-trials", "2"],
        "kernel": ["kernel", str(u_file), str(v_file), "--regime", "cycle",
                   "--input", "pi-signs", "--N", "4", "--offset", "1.0",
                   "--degree", "2", "--seed", "11"],
    }
    n_files = 0
    ok = True
    details = []
    for name, argv in commands.items():
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            code = cli.main(argv + ["--out", str(out)])
            capsys.readouterr()
            if code != 0:
                ok = False
                details.append(f"{name} exited {code}")
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        if outputs[0] != outputs[1]:
            ok = False
            details.append(f"{name} outputs differ")
        n_files += len(outputs[0])
    detail = "; ".join(details) if details else \
        f"5 commands rerun with fixed seeds, {n_files} output files byte-identical"
    _report("CLI outputs are byte-identical across reruns", ok, detail)
