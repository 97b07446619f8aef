"""Command-line front end.

Subcommands: stats, validate, train, evaluate, predict, compare, sweep,
synth. Exit codes: 0 success, 2 usage or validation failure, 3 runtime or
numeric failure. Each subcommand takes only the flags it reads; any other
exits 2. The randomized ones (train, compare, synth) take --seed and print
the seed they use, never the wall clock: for train and compare a given
--seed overrides the config's seed, and synth defaults to 0.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .dataset import (
    DEFAULT_FEATURES,
    FIELDS,
    TARGET_FIELD,
    check_values,
    correlation_matrix,
    correlation_to_csv,
    feature_matrix,
    fit_normalizer,
    json_text,
    parse_dataset,
    raw_matrix,
    records_to_csv,
    split,
    summary_stats,
    summary_to_csv,
    target_vector,
    validate_ranges,
    write_text,
)
from .experiment import (
    MODEL_CONFIGS,
    SWEEP_VARIABLES,
    TRAINABLE_MODELS,
    ExperimentConfig,
    SweepSpec,
    model_seed,
    parametric_sweep,
    run_experiment,
    synth_dataset,
    train_model,
    write_model_files,
)
from .metrics import report_from_pairs
from .neuralnet import load_model, parameter_count

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
COMMANDS = ("stats", "validate", "train", "evaluate", "predict", "compare", "sweep", "synth")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _load_json(path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(data).__name__}")
    return data


def _parse_kv(text: str) -> dict[str, float]:
    """Parse 'name=value,name=value' pairs of the model's inputs; a later pair replaces an earlier one."""
    values: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"expected name=value, got {part!r}")
        name, _, raw = part.partition("=")
        name = name.strip()
        if name not in DEFAULT_FEATURES:
            raise ValueError(f"unknown input {name!r}; known names: {', '.join(DEFAULT_FEATURES)}")
        try:
            values[name] = float(raw)
        except ValueError:
            raise ValueError(f"could not parse number from {raw!r} for {name!r}") from None
    if not values:
        raise ValueError("no input values given")
    return values


def _require_finite(predictions) -> None:
    """Refuse a model whose finite weights overflow the forward pass; its callers
    run under np.errstate, so the overflow is refused here, not warned about."""
    if not np.all(np.isfinite(predictions)):
        raise ValueError("the model's prediction is not finite: its weights overflow the forward pass")


def cmd_stats(args) -> int:
    records = parse_dataset(args.dataset)
    _say(args, f"parsed {len(records)} records from {args.dataset}")
    summary = summary_stats(records)
    corr = correlation_matrix(records)
    if args.format == "json":
        print(json_text({"summary": summary.to_dict(),
                         "correlation": {"fields": list(FIELDS), "matrix": corr.tolist()}}), end="")
    else:
        _print_summary(summary)
        _print_correlation(corr)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_text(out / "summary.json", json_text(summary.to_dict()))
        write_text(out / "summary.csv", summary_to_csv(summary))
        write_text(out / "correlation.csv", correlation_to_csv(corr))
        _say(args, f"wrote summary.json, summary.csv, correlation.csv to {out}")
    return EXIT_OK


def _print_summary(summary) -> None:
    cols = ("min", "max", "range", "mean", "median", "stdev", "cov")
    print(f"{'field':>6}" + "".join(f"{c:>12}" for c in cols))
    for name, s in summary.fields.items():
        values = (s.min, s.max, s.range, s.mean, s.median, s.stdev, s.cov)
        print(f"{name:>6}" + "".join(f"{v:>12.4g}" for v in values))


def _print_correlation(corr) -> None:
    print("correlation:")
    print(f"{'':>6}" + "".join(f"{f:>8}" for f in FIELDS))
    for name, row in zip(FIELDS, corr):
        print(f"{name:>6}" + "".join(f"{v:>8.3f}" for v in row))


def cmd_validate(args) -> int:
    records = parse_dataset(args.dataset)
    report = validate_ranges(records)
    if args.format == "json":
        print(json_text(report.to_dict()), end="")
    else:
        print(f"{report.n_records} records, {len(report.flags)} warning flag(s)")
        for f in report.flags:
            if f.kind == "fcc_below_fco":
                print(f"  record {f.index}: fcc={f.value:g} below fco={f.bound:g}")
            else:
                word = "below min" if f.kind == "below_min" else "above max"
                print(f"  record {f.index}: {f.field}={f.value:g} {word} {f.bound:g}")
    return EXIT_OK


def _train_config(args):
    """Defaults, then the config file, then command-line flags."""
    data = _load_json(args.config) if args.config else {}
    flags = {"seed": args.seed, "iterations": args.iterations, "population": args.population}
    if args.model == "ann":  # backprop counts epochs and has no population
        if args.population is not None:
            raise ValueError("--population does not apply to --model ann (backprop has no population)")
        flags = {"seed": args.seed, "epochs": args.iterations}
    data.update((key, value) for key, value in flags.items() if value is not None)
    return MODEL_CONFIGS[args.model].from_dict(data)


def cmd_train(args) -> int:
    if not 0.0 < args.train_fraction <= 1.0:  # NaN fails too
        raise ValueError(f"--train-fraction must lie in (0, 1], got {args.train_fraction}")
    parameter_count(args.neurons)  # flags and config first: a bad one exits before the dataset is read
    cfg = _train_config(args)
    records = parse_dataset(args.dataset)
    _say(args, f"training {args.model} on {len(records)} records (seed {cfg.seed})")
    if args.train_fraction < 1.0:
        train, _ = split(records, args.train_fraction, seed=model_seed(cfg.seed, "split"))
        if len(train) < 2:
            raise ValueError(f"--train-fraction {args.train_fraction} leaves fewer than 2 training records: "
                             f"{len(train)} of {len(records)}")
        _say(args, f"using {len(train)} of {len(records)} records for training")
    else:
        train = records
    norm = fit_normalizer(train)
    X, y = feature_matrix(train, norm), target_vector(train, norm)
    model, history = train_model(args.model, cfg, args.neurons, norm, X, y)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    model_path, trace_path = write_model_files(out, args.model, model, history)
    _say(args, f"final training objective: {history[-1]:.6g}")
    _say(args, f"wrote {model_path} and {trace_path}")
    return EXIT_OK


@np.errstate(over="ignore", invalid="ignore")
def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    records = parse_dataset(args.dataset)
    predictions = model.predict_records(records)
    _require_finite(predictions)
    report = report_from_pairs(raw_matrix(records, (TARGET_FIELD,))[:, 0], predictions, model.normalization)
    if args.format == "json":
        print(json_text({**report.to_dict(), "provenance": model.provenance}), end="")
    else:
        print(f"n = {report.n}")
        print(f"provenance: {model.provenance}")
        if report.accuracy_percent is not None:
            print(f"accuracy = {report.accuracy_percent:.4f} % (r_squared {report.r_squared:.6f})")
        else:
            print("accuracy = n/a (" + "; ".join(report.notes) + ")")
        print(f"mse = {report.mse_mpa:.6g} MPa^2, mae = {report.mae_mpa:.6g} MPa")
        print(f"mse = {report.mse_pct:.6g} %, mae = {report.mae_pct:.6g} % (normalized scale)")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_text(out / "evaluation.json", json_text(report.to_dict()))
        write_text(out / "predictions.csv", report.pairs_csv())
        _say(args, f"wrote evaluation.json and predictions.csv to {out}")
    return EXIT_OK


@np.errstate(over="ignore", invalid="ignore")
def cmd_predict(args) -> int:
    model = load_model(args.model)
    values = _parse_kv(args.input)
    check_values(SimpleNamespace(**values))
    fcc, warnings = model.predict_values(values)
    _require_finite(fcc)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps({"fcc_mpa": fcc}, sort_keys=True))
    else:
        print(f"fcc = {fcc:.4f} MPa")
    return EXIT_OK


def cmd_compare(args) -> int:
    data = _load_json(args.config)
    if args.out is not None:
        data["out_dir"] = args.out
    if args.seed is not None:
        data["seed"] = args.seed
    config = ExperimentConfig.from_dict(data)
    _say(args, f"running comparison with master seed {config.seed}")
    result = run_experiment(config)
    if args.format == "json":
        print(json_text(result.comparison.to_dict()), end="")
    elif args.format == "csv":
        print(result.comparison.to_csv(), end="")
    else:
        print(f"split: {result.n_train} train / {result.n_test} test")
        print(f"{'model':>10}{'accuracy %':>12}{'mse %':>12}{'mae %':>12}{'mse MPa':>12}{'mae MPa':>12}")
        for name, r in result.reports.items():
            acc = f"{r.accuracy_percent:.2f}" if r.accuracy_percent is not None else "n/a"
            print(f"{name:>10}{acc:>12}{r.mse_pct:>12.4g}{r.mae_pct:>12.4g}"
                  f"{r.mse_mpa:>12.4g}{r.mae_mpa:>12.4g}")
        for name, message in result.comparison.errors.items():
            print(f"{name:>10}  FAILED: {message}")
    if config.out_dir:
        _say(args, f"wrote report files to {config.out_dir}")
    return EXIT_OK if result.reports else EXIT_RUNTIME


@np.errstate(over="ignore", invalid="ignore")
def cmd_sweep(args) -> int:
    model = load_model(args.model)
    if not args.stop > args.start:
        raise ValueError(f"--from must be strictly less than --to, got {args.start} and {args.stop}")
    # unswept features default to the midpoint of their training ranges
    fixed = {}
    for name in DEFAULT_FEATURES:
        if name == args.var:
            continue
        r = model.normalization.ranges[name]
        fixed[name] = 0.5 * (r.x_min + r.x_max)
    if args.fix:
        given = _parse_kv(args.fix)
        if args.var in given:
            raise ValueError(f"--fix names the swept variable {args.var!r}")
        fixed.update(given)
    # the grid increases and h is never swept: its two ends, with the fixed values, cover every point
    for end in (args.start, args.stop):
        check_values(SimpleNamespace(**{**fixed, args.var: end}))
    spec = SweepSpec(var=args.var, start=args.start, stop=args.stop,
                     steps=args.steps, fixed=fixed)
    grid = parametric_sweep(model, spec)
    _require_finite(grid.predictions)
    for w in grid.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.format == "json":
        print(json_text(grid.to_dict()), end="")
    else:
        print(f"sweep {grid.var} from {args.start:g} to {args.stop:g} ({args.steps} points)")
        for v, p in zip(grid.values, grid.predictions):
            print(f"  {grid.var} = {v:10.4g}  ->  fcc = {p:.4f} MPa")
        print(f"endpoint change: {grid.percent_change:+.2f} %")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"sweep_{grid.var}.csv"
        write_text(path, grid.to_csv())
        _say(args, f"wrote {path}")
    return EXIT_OK


def cmd_synth(args) -> int:
    records = synth_dataset(args.n, args.seed, args.noise)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "synth.csv"
    write_text(path, records_to_csv(records))
    _say(args, f"wrote {len(records)} records to {path} (seed {args.seed}, noise {args.noise:g})")
    return EXIT_OK


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or the parser of command ``only`` alone, since building unused
    subparsers is most of a parse's cost. Its metavar keeps the usage line byte-identical;
    the full parser has none, as it would also rename ``argument command`` in errors."""
    parser = argparse.ArgumentParser(
        prog="cfrpnet",
        description="Predict the axial strength of CFRP-confined concrete cylinders.")
    only = only if only in COMMANDS else None
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=only and "{" + ",".join(COMMANDS) + "}")

    def command(name, handler, summary, formats=(), reports=False, seed=None):
        """A subcommand with only the shared flags its handler reads: --format
        when ``formats`` names its choices, --out and --quiet when it
        ``reports``, and --seed when ``seed`` is a (default, help) pair; None
        when another subcommand was chosen."""
        if only not in (None, name):
            return None
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if seed:
            p.add_argument("--seed", type=int, default=seed[0], help=seed[1])
        if formats:
            p.add_argument("--format", choices=formats, default="text", help="stdout format")
        if reports:
            p.add_argument("--out", metavar="DIR", default=None,
                           help="directory for report files")
            p.add_argument("--quiet", action="store_true", help="suppress informational output")
        return p

    config_seed = (None, "random seed (non-negative); overrides the config's seed (default 0)")
    if p := command("stats", cmd_stats, "summary statistics and correlation matrix of a dataset",
                    formats=("text", "json"), reports=True):
        p.add_argument("dataset", help="CSV dataset path")

    if p := command("validate", cmd_validate, "flag records outside the reference ranges",
                    formats=("text", "json")):
        p.add_argument("dataset")

    if p := command("train", cmd_train, "train one prediction model", reports=True, seed=config_seed):
        p.add_argument("dataset")
        p.add_argument("--model", choices=TRAINABLE_MODELS, required=True)
        p.add_argument("--config", help="JSON file with optimizer/trainer settings")
        p.add_argument("--iterations", type=int, default=None,
                       help="override iteration (epoch) count")
        p.add_argument("--population", type=int, default=None,
                       help="override swarm population size")
        p.add_argument("--neurons", type=int, default=50, help="hidden layer width")
        p.add_argument("--train-fraction", type=float, default=1.0,
                       help="fraction of the file used for training (default: all of it)")

    if p := command("evaluate", cmd_evaluate, "score a trained model against a dataset",
                    formats=("text", "json"), reports=True):
        p.add_argument("model", help="model JSON path")
        p.add_argument("dataset")

    if p := command("predict", cmd_predict, "single-specimen prediction from a trained model",
                    formats=("text", "json")):
        p.add_argument("model", help="model JSON path")
        p.add_argument("--input", required=True,
                       help='comma-separated name=value pairs, e.g. "d=150,h=300,nt=0.334,'
                            'ef=231,fco=16.5,eco=0.2,ecc=1.1"')

    if p := command("compare", cmd_compare, "train and score a whole model roster on one shared split",
                    formats=("text", "json", "csv"), reports=True, seed=config_seed):
        p.add_argument("--config", required=True, help="experiment config JSON path")

    if p := command("sweep", cmd_sweep, "predict over a grid in one input variable",
                    formats=("text", "json"), reports=True):
        p.add_argument("model", help="model JSON path")
        p.add_argument("--var", choices=SWEEP_VARIABLES, required=True)
        p.add_argument("--from", dest="start", type=float, required=True)
        p.add_argument("--to", dest="stop", type=float, required=True)
        p.add_argument("--steps", type=int, default=10)
        p.add_argument("--fix", help="fixed values as name=value pairs (default: range midpoints)")

    if p := command("synth", cmd_synth, "generate a synthetic dataset with known ground truth",
                    reports=True, seed=(0, "random seed (non-negative; default 0)")):
        p.add_argument("--n", type=int, default=708)
        p.add_argument("--noise", type=float, default=0.02,
                       help="multiplicative label noise fraction")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else EXIT_OK
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # DatasetFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, MemoryError) as exc:  # MemoryError: a size too large to allocate
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
