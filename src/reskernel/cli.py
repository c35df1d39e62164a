"""Command-line front end.

Subcommands: ``motifs`` (extract and export motif sets), ``predict``
(closed-form predictions plus comparison), ``sweep`` (richness over a nu
grid), ``verify`` (property suites), ``kernel`` (evaluate kernels on
time-series files).  Options may come from a flat ``key = value`` config
file via --config; explicit flags override file values.

Exit codes: 0 success, 1 usage or configuration error, 2 property-suite
failure, 3 numerical failure.  A library warning prints as one
``warning: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _io
from . import coupling as cp
from .errors import ContractViolation, ConvergenceError, PsdViolationError
from .motifs import (
    check_threshold_ratio,
    check_whole_copies,
    compare_motifs,
    extract_motifs,
    predict_cycle,
    predict_random,
    predict_symmetric,
)
from .numerics import check_positive_int, symmetric_gram
from .richness import SweepConfig, sweep
from .temporal_kernel import (
    ReadoutModel,
    build_from_specs,
    check_poly_params,
    kernel_eval,
    kernel_poly,
    readout_eval,
)
from .verify import (
    run_initial_state_error_containment,
    run_kernel_state_equivalence,
    run_spectrum_properties,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting, and takes no abbreviated long
    flags: a prefix would let ``sweep --nu`` stand for ``--nu-grid``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


_REGIMES = {
    "random": cp.RANDOM_IID,
    "symmetric": cp.SYMMETRIC_WIGNER,
    "cycle": cp.CYCLE_PERMUTATION,
}
_INPUTS = {
    "gaussian": "gaussian",
    "uniform": "uniform",
    "ones-random-signs": "ones_random_signs",
    "pi-signs": "ones_pi_signs",
    "e-signs": "ones_e_signs",
    "periodic-binary": "periodic_binary",
    "periodic-bipolar": "periodic_bipolar",
}


@dataclass(frozen=True)
class _Key:
    """One model option: value type, default, flag help, the commands that
    read it, and choices.

    The flag is ``--key`` with dashes for underscores unless ``flag`` names
    another; a bool key's flag is a switch that flips its default.  Only the
    commands in ``commands`` get the flag, so a flag a command would ignore
    is a usage error there.  Every key is accepted in every config file,
    because one file can describe an experiment that several commands read.
    """

    type: type
    default: object
    help: str
    commands: tuple[str, ...]
    choices: tuple[str, ...] | None = None
    flag: str | None = None


_BUILDERS = ("motifs", "predict", "sweep", "kernel")  # commands that build tensors
_EXTRACTORS = ("motifs", "predict", "sweep")  # extract motifs at a chosen horizon

# The one table of model options, keyed by config key: the argparse flags,
# the config-file coercion and the resolution all derive from it.
_KEYS = {
    "regime": _Key(str, "random", "reservoir regime", _BUILDERS, tuple(sorted(_REGIMES))),
    "input": _Key(str, "gaussian", "input coupling kind", _BUILDERS, tuple(sorted(_INPUTS))),
    "dist": _Key(str, cp.GAUSSIAN, "entry distribution for random regimes", _BUILDERS,
                 tuple(sorted(cp.ENTRY_DISTRIBUTIONS))),
    "N": _Key(int, 100, "state dimension", _BUILDERS),
    "nu": _Key(float, 0.995, "largest singular value target", ("motifs", "predict", "kernel")),
    "tau": _Key(int, None, "kernel horizon (default 2 * N)", _EXTRACTORS),
    "period": _Key(int, None, "block length for periodic input kinds", _BUILDERS),
    "seed": _Key(int, 0, "base seed", _BUILDERS + ("verify",)),
    "threshold": _Key(float, 1e-2, "motif retention ratio", _EXTRACTORS),
    "trials": _Key(int, None, "number of trials (default 1; sweep chooses by randomness)",
                   ("motifs", "sweep")),
    "out": _Key(str, ".", "output directory", _BUILDERS + ("verify",)),
    "normalize": _Key(bool, True, "skip unit normalization of the input coupling", _BUILDERS,
                      flag="--no-unit-norm"),
    "nu_grid": _Key(str, None, "lo:step:hi (default 0.90:0.005:1.00 plus reference points)",
                    ("sweep",)),
    "regimes": _Key(str, None, "comma list of regimes (default cycle,random)", ("sweep",)),
    "inputs": _Key(str, None, "comma list of input kinds (default pi-signs)", ("sweep",)),
}


def _add_command(sub, command: str, help: str, func) -> argparse.ArgumentParser:
    """Add the subcommand ``command`` with the model flags it reads."""
    parser = sub.add_parser(command, help=help)
    for key, spec in _KEYS.items():
        if command not in spec.commands:
            continue
        flag = spec.flag or "--" + key.replace("_", "-")
        if spec.type is bool:
            parser.add_argument(flag, dest=key, action="store_true", help=spec.help)
        else:
            shown = f" (default {spec.default})" if spec.default is not None else ""
            parser.add_argument(flag, dest=key, type=spec.type, choices=spec.choices,
                                default=None, help=spec.help + shown)
    parser.add_argument("--config", default=None, help="flat key = value config file")
    parser.set_defaults(func=func)
    return parser


def _coerce(key: str, raw: str):
    spec = _KEYS[key]
    try:
        if spec.type is bool:
            lowered = raw.lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        value = spec.type(raw)
    except ValueError as exc:
        raise UsageError(
            f"config value for {key!r} is not a valid {spec.type.__name__}: {raw!r}"
        ) from exc
    if spec.choices is not None and value not in spec.choices:
        raise UsageError(f"config value for {key!r} must be one of "
                         f"{', '.join(spec.choices)}: {raw!r}")
    return value


def _resolve(args: argparse.Namespace) -> tuple[dict, set]:
    """Merge defaults, config file, and flags; flags win.

    Returns the resolved mapping and the set of keys the user provided
    explicitly (by flag or config file).
    """
    resolved = {key: spec.default for key, spec in _KEYS.items()}
    provided: set[str] = set()
    if args.config:
        for key, raw in _io.parse_config_file(args.config).items():
            if key not in _KEYS:
                raise UsageError(f"unknown config key {key!r}")
            resolved[key] = _coerce(key, raw)
            provided.add(key)
    for key, spec in _KEYS.items():
        value = getattr(args, key, None)
        if spec.type is bool:  # a given switch flips the default
            value = (not spec.default) if value else None
        if value is not None:
            resolved[key] = value
            provided.add(key)
    return resolved, provided


def _horizon(resolved: dict) -> int:
    """``--tau``, or ``2 N`` by default.  N is checked first, so a bad N is
    reported as the reservoir size, not as the horizon derived from it."""
    check_positive_int(resolved["N"], "reservoir size")
    horizon = resolved["tau"] if resolved["tau"] is not None else 2 * resolved["N"]
    check_positive_int(horizon, "horizon")
    return horizon


def _specs(resolved: dict) -> tuple[cp.ReservoirSpec, cp.InputCouplingSpec]:
    """Reservoir and coupling specs of the resolved options; their
    constructors reject bad values before any work is done."""
    res_spec = cp.ReservoirSpec(regime=_REGIMES[resolved["regime"]], size=resolved["N"],
                                nu=resolved["nu"], distribution=resolved["dist"])
    in_spec = cp.coupling_spec(_INPUTS[resolved["input"]], resolved["N"], resolved["period"],
                               resolved["normalize"])
    return res_spec, in_spec


# The first file a command writes creates ``--out``; an error before it leaves none.

def cmd_motifs(args) -> int:
    resolved, _ = _resolve(args)
    specs = _specs(resolved)
    horizon = _horizon(resolved)
    check_threshold_ratio(resolved["threshold"])
    trials = resolved["trials"] if resolved["trials"] is not None else 1
    check_positive_int(trials, "--trials")
    weight_runs = []
    first = None
    for trial in range(trials):
        _, _, tensor = build_from_specs(*specs, horizon,
                                        cp.trial_seed(resolved["seed"], trial))
        motif_set = extract_motifs(tensor, resolved["threshold"])
        weight_runs.append(np.sqrt(motif_set.spectrum))
        if trial == 0:
            first = motif_set
    out = Path(resolved["out"])
    index = np.arange(1, first.horizon + 1)
    _io.write_motifs_csv(first.vectors, first.weights, out / "motifs.csv")
    _io.write_table(out / "weights.csv", ["index", "weight"], index, weight_runs[0])
    if trials > 1:
        stack = np.stack(weight_runs)
        _io.write_table(out / "weights_mean_std.csv", ["index", "weight_mean", "weight_std"],
                        index, stack.mean(axis=0), stack.std(axis=0))
    print(f"retained {len(first)} of {first.horizon} motifs "
          f"(threshold {_io.fmt_float(resolved['threshold'])})")
    if len(first):
        print(f"top weight {_io.fmt_float(first.weights[0])}")
    print(f"wrote {out / 'motifs.csv'} and {out / 'weights.csv'}"
          + (f" and {out / 'weights_mean_std.csv'}" if trials > 1 else ""))
    return 0


def cmd_predict(args) -> int:
    resolved, _ = _resolve(args)
    res_spec, in_spec = _specs(resolved)
    horizon = _horizon(resolved)
    check_threshold_ratio(resolved["threshold"])
    if res_spec.regime == cp.CYCLE_PERMUTATION:
        check_whole_copies(horizon, res_spec.size)
    reservoir, coupling_vec, tensor = build_from_specs(
        res_spec, in_spec, horizon, cp.trial_seed(resolved["seed"], 0))
    # One regime test picks the evidence and its report (file name, header, columns):
    # eigenvector claims are compared with extracted motifs, symmetric components
    # rebuild the tensor.
    if res_spec.regime == cp.SYMMETRIC_WIGNER:
        prediction = predict_symmetric(reservoir, coupling_vec, horizon)
        del reservoir  # each N x N and N x tau buffer goes after its last reader
        recon = symmetric_gram(prediction.weights[:, None] * prediction.vectors)
        q = symmetric_gram(tensor.phi)
        del tensor
        scale = float(max(q.max(), -q.min()))  # max |Q|, with no |Q| formed
        recon -= q
        residual = float(np.max(np.abs(recon, out=recon)))
        report = ("reconstruction.csv",
                  ["max_abs_residual", "tensor_max_abs", "relative_residual"],
                  [residual], [scale], [residual / scale if scale > 0.0 else 0.0])
        summary = ["symmetric regime: components are not eigenvectors; "
                   "wrote reconstruction residual instead of a comparison",
                   f"reconstruction residual {_io.fmt_float(residual)} "
                   f"(tensor scale {_io.fmt_float(scale)})"]
    else:
        del reservoir
        empirical = extract_motifs(tensor, resolved["threshold"])
        del tensor
        predict = predict_random if res_spec.regime == cp.RANDOM_IID else predict_cycle
        prediction = predict(res_spec.nu, coupling_vec, horizon)
        comparison = compare_motifs(empirical, prediction)
        n = comparison.n_compared
        report = ("comparison.csv",
                  ["index", "cluster", "predicted_weight", "empirical_weight",
                   "weight_rel_error", "alignment"],
                  np.arange(1, n + 1), comparison.cluster_ids, prediction.weights[:n],
                  empirical.weights[:n], comparison.weight_rel_errors, comparison.alignments)
        summary = [f"compared {n} motifs: "
                   f"min alignment {_io.fmt_float(comparison.min_alignment)}, "
                   f"max weight rel error {_io.fmt_float(comparison.max_weight_rel_error)}"]
    out = Path(resolved["out"])
    _io.write_motifs_csv(prediction.vectors, prediction.weights,
                         out / "predicted_motifs.csv")
    _io.write_table(out / "predicted_weights.csv", ["index", "weight"],
                    np.arange(1, len(prediction) + 1), prediction.weights)
    name, header, *columns = report
    _io.write_table(out / name, header, *columns)
    print("\n".join(summary))
    print(f"wrote predicted_motifs.csv, predicted_weights.csv, {name} in {out}")
    return 0


def _parse_nu_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("--nu-grid expects lo:step:hi")
    try:
        lo, step, hi = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"--nu-grid values must be numbers: {text!r}") from exc
    if not (0.0 < step < np.inf and hi >= lo):  # false for a nan too
        raise UsageError("--nu-grid needs a finite step > 0 and hi >= lo")
    # Bounded, since a grid with an infinite hi or a step lost to rounding never passes hi.
    values, limit = [], 100_000
    for k in range(limit + 1):
        value = round(lo + k * step, 9)
        if value > hi + 1e-12:
            return tuple(values)
        values.append(value)
    raise UsageError(f"--nu-grid gives more than {limit} values")


def _split_aliases(text: str, aliases: dict, what: str) -> tuple[str, ...]:
    out = []
    for item in text.split(","):
        item = item.strip()
        if item in aliases:
            out.append(aliases[item])
        elif item in aliases.values():
            out.append(item)
        else:
            raise UsageError(f"unknown {what} {item!r}")
    return tuple(out)


def cmd_sweep(args) -> int:
    resolved, provided = _resolve(args)
    given = {}  # what the user chose; SweepConfig holds the defaults
    if resolved["regimes"] is not None:
        given["regimes"] = _split_aliases(resolved["regimes"], _REGIMES, "regime")
    elif "regime" in provided:
        given["regimes"] = (_REGIMES[resolved["regime"]],)
    if resolved["inputs"] is not None:
        given["input_kinds"] = _split_aliases(resolved["inputs"], _INPUTS, "input kind")
    elif "input" in provided:
        given["input_kinds"] = (_INPUTS[resolved["input"]],)
    if resolved["nu_grid"] is not None:
        given["nu_values"] = _parse_nu_grid(resolved["nu_grid"])
    config = SweepConfig(
        **given,
        state_dim=resolved["N"],
        horizon=_horizon(resolved),
        period=resolved["period"],
        threshold_ratio=resolved["threshold"],
        trials=resolved["trials"],
        base_seed=resolved["seed"],
        distribution=resolved["dist"],
        normalize_unit=resolved["normalize"],
    )
    reports = sweep(config)
    out = Path(resolved["out"])
    _io.write_sweep_csv(reports, out / "sweep.csv")
    print(f"swept {len(config.nu_values)} nu values, {len(config.regimes)} regimes, "
          f"{len(config.input_kinds)} input kinds: {len(reports)} trial rows")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_verify(args) -> int:
    resolved, _ = _resolve(args)
    check_positive_int(args.configs, "--configs")
    check_positive_int(args.spectrum_configs, "--spectrum-configs")
    check_positive_int(args.containment_trials, "--containment-trials")
    cp.Seed(resolved["seed"])
    # A passing run writes no file, yet still leaves its --out directory.
    out = Path(resolved["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise UsageError(f"cannot write {out}: {exc}") from exc
    results = [run_kernel_state_equivalence(args.configs, resolved["seed"],
                                            args.inject_asymmetry),
               *run_spectrum_properties(args.spectrum_configs, resolved["seed"],
                                        args.inject_asymmetry),
               run_initial_state_error_containment(args.containment_trials, resolved["seed"])]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.n_checked} checked, {result.detail}")
        if not result.passed:
            slug = result.name.replace(" ", "_").replace(",", "")
            path = out / f"verify_failure_{slug}.json"
            _io.atomic_write_text(path, json.dumps(result.replay, indent=2,
                                                   default=float) + "\n")
            print(f"  offending instance written to {path}")
    return 0 if all(result.passed for result in results) else 2


def cmd_kernel(args) -> int:
    resolved, _ = _resolve(args)
    specs = _specs(resolved)
    u = _io.read_time_series(args.u_file)
    v = _io.read_time_series(args.v_file)
    if u.horizon != v.horizon:
        raise UsageError(f"time series horizons differ: {u.horizon} vs {v.horizon}")
    if (args.offset is None) != (args.degree is None):
        raise UsageError("--offset and --degree must be given together")
    if args.offset is not None:
        check_poly_params(args.offset, args.degree)
    if len(args.coeff or []) != len(args.support or []):
        raise UsageError("one --coeff per --support is required")
    if args.bias is not None and not args.support:
        raise UsageError("--bias requires --support")
    model = None
    if args.support:
        supports = tuple(_io.read_time_series(p) for p in args.support)
        model = ReadoutModel(supports=supports, coefficients=np.array(args.coeff),
                             bias=0.0 if args.bias is None else args.bias)
    _, _, tensor = build_from_specs(*specs, u.horizon, cp.trial_seed(resolved["seed"], 0))
    rows = [["kernel", kernel_eval(tensor, u, v)]]
    if args.offset is not None:
        rows.append(["kernel_poly", kernel_poly(tensor, u, v, args.offset, args.degree)])
    if model is not None:
        rows.append(["readout", readout_eval(model, tensor, v)])
    _io.write_csv(Path(resolved["out"]) / "kernel.csv", ["name", "value"], rows)
    for name, value in rows:
        print(f"{name} = {_io.fmt_float(value)}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="reskernel",
                     description="Temporal kernels and motifs of linear reservoirs.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "motifs", "extract motifs and write CSV files", cmd_motifs)
    _add_command(sub, "predict", "closed-form motif predictions", cmd_predict)
    _add_command(sub, "sweep", "richness sweep over a nu grid", cmd_sweep)

    p_verify = _add_command(sub, "verify", "run the property suites", cmd_verify)
    p_verify.add_argument("--configs", type=int, default=100,
                          help="configurations for the equivalence suite")
    p_verify.add_argument("--spectrum-configs", type=int, default=60,
                          help="configurations for the spectrum suites")
    p_verify.add_argument("--containment-trials", type=int, default=50,
                          help="trials for the error-containment suite")
    p_verify.add_argument("--inject-asymmetry", action="store_true",
                          help="negative control: tamper with built tensors "
                               "so the suites must fail")

    p_kernel = _add_command(sub, "kernel", "evaluate kernels on time-series files",
                            cmd_kernel)
    p_kernel.add_argument("u_file", help="time series file, one sample per line, "
                                         "most recent first")
    p_kernel.add_argument("v_file", help="second time series file")
    p_kernel.add_argument("--offset", type=float, default=None,
                          help="additive offset of the polynomial kernel")
    p_kernel.add_argument("--degree", type=int, default=None,
                          help="degree of the polynomial kernel")
    p_kernel.add_argument("--support", action="append", default=None,
                          help="support time series for a readout (repeatable)")
    p_kernel.add_argument("--coeff", action="append", type=float, default=None,
                          help="readout coefficient, one per --support")
    p_kernel.add_argument("--bias", type=float, default=None,
                          help="readout bias (default 0.0; needs --support)")
    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    """Run one command; a library warning that is shown prints as one
    ``warning:`` line on stderr, and the warning filters stay as they are."""
    parser = build_parser()
    format_warning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, PsdViolationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())
