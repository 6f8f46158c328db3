"""Command-line interface: one subcommand per pipeline stage plus `run`."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .agreement import qwk_matrix
from .ensemble import EnsembleSpec, build_ensemble, greedy_prune
from .estimate import EstimationConfig, EstimationError, FacetEstimates, estimate
from .fitstats import STRINGENT_CUTS, FitCuts
from .ratings import RatingsTensor, canonical_json, ingest_csv
from .report import Table
from .simulate import SimSpec, simulate
from .study import (StageError, StudyConfig, agreement_table, alpha_table, fit_stage,
                    report_stage, run_study)

ROUNDING_ALIASES = {
    "half-away": "half-away-from-zero",
    "half-away-from-zero": "half-away-from-zero",
    "half-even": "half-to-even",
    "half-to-even": "half-to-even",
    "none": "none",
}


def _load_tensor(path, scale_min=None, scale_max=None) -> RatingsTensor:
    path = Path(path)
    if path.suffix == ".json":
        return RatingsTensor.read_json(path)
    return ingest_csv(path, scale_min, scale_max)


def _emit(text, out_path):
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _split_ids(text):
    return [x for x in (p.strip() for p in text.split(",")) if x]


def _parse_cuts(text):
    lower, upper = (float(x) for x in text.split(","))
    return FitCuts(lower, upper)


def cmd_ingest(args):
    tensor = ingest_csv(args.file, args.scale_min, args.scale_max)
    _emit(tensor.to_json_text(), args.out)
    print(
        f"ingested {tensor.n_cells} cells: {len(tensor.ids.persons)} persons x "
        f"{len(tensor.ids.items)} items x {len(tensor.ids.raters)} raters, "
        f"scale {tensor.scale.min_score}-{tensor.scale.max_score}, "
        f"{'connected' if tensor.connected else 'DISCONNECTED'}",
        file=sys.stderr,
    )
    return 0


def cmd_agree(args):
    tensor = _load_tensor(args.tensor)
    benchmarks = _split_ids(args.benchmarks)
    candidates = (
        _split_ids(args.candidates)
        if args.candidates
        else [r for r in tensor.ids.raters if r not in benchmarks]
    )
    if args.pooled:
        groups = [tuple(tensor.ids.items)]
    else:
        groups = [(item,) for item in tensor.ids.items]
    out = agreement_table(qwk_matrix(tensor, benchmarks, candidates, groups))
    if args.json:
        _emit(canonical_json(out.to_json_dict()), args.out)
    else:
        _emit(out.to_csv_text(), args.out)
    return 0


def cmd_alpha(args):
    tensor = _load_tensor(args.tensor)
    groups = {}
    for spec in args.groups:
        name, _, items = spec.partition(":")
        if not items:
            raise ValueError(f"group {spec!r} must look like name:item1,item2")
        groups[name] = _split_ids(items)
    raters = _split_ids(args.raters) if args.raters else list(tensor.ids.raters)
    _emit(alpha_table(tensor, groups.items(), raters).to_csv_text(), args.out)
    return 0


def cmd_estimate(args):
    tensor = _load_tensor(args.tensor)
    fields = EstimationConfig().to_dict()
    config = EstimationConfig(**{name: getattr(args, name) for name in fields})
    estimates = estimate(tensor, config)
    _emit(estimates.to_json_text(), args.out)
    print(
        f"{'converged' if estimates.converged else 'NOT CONVERGED'} after "
        f"{estimates.iterations_used} iterations, "
        f"log-likelihood {estimates.log_likelihood_final:.3f}",
        file=sys.stderr,
    )
    return 0


def cmd_fit(args):
    estimates = FacetEstimates.read_json(args.estimates)
    tensor = _load_tensor(args.tensor)
    _, table = fit_stage(tensor, estimates, args.cuts, args.facet, args.sort)
    _emit(table.to_csv_text(), args.out)
    return 0


def cmd_ensemble(args):
    tensor = _load_tensor(args.tensor)
    spec = EnsembleSpec(args.name, _split_ids(args.members),
                        ROUNDING_ALIASES[args.round])
    extended = build_ensemble(tensor, spec)
    _emit(extended.to_json_text(), args.out)
    return 0


def cmd_prune(args):
    tensor = _load_tensor(args.tensor)
    items = _split_ids(args.items) if args.items else None
    trace = greedy_prune(
        tensor,
        _split_ids(args.members),
        _split_ids(args.benchmarks),
        items=items,
        steps=args.steps,
        rounding=ROUNDING_ALIASES[args.round],
    )
    rows = tuple(trace.to_records())
    table = Table(
        ("step", "removed", "members", "benchmark", "item", "kappa", "mean_qwk"), rows
    )
    _emit(table.to_csv_text(), args.trace)
    removed = ", ".join(str(r) for r in trace.removal_order) or "(nothing)"
    print(f"removed in order: {removed}", file=sys.stderr)
    return 0


def cmd_simulate(args):
    with open(args.spec, "r", encoding="utf-8") as f:
        spec = SimSpec.from_json_dict(json.load(f))
    if args.seed is not None:
        import dataclasses

        spec = dataclasses.replace(spec, seed=args.seed)
    tensor, truth = simulate(spec)
    if args.out.endswith(".json"):
        Path(args.out).write_text(tensor.to_json_text(), encoding="utf-8")
    else:
        tensor.write_csv(args.out)
    if args.truth:
        Path(args.truth).write_text(canonical_json(truth.to_dict()), encoding="utf-8")
    return 0


def cmd_report(args):
    estimates = FacetEstimates.read_json(args.estimates)
    tensor = _load_tensor(args.tensor)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rater_fit, raters = fit_stage(tensor, estimates, args.cuts)
    files = {"raters.csv": raters.to_csv_text(), **report_stage(tensor, estimates, rater_fit)}
    unwanted = {"ascii": "wright.svg", "svg": "wright.txt"}.get(args.wright)
    for name, text in files.items():
        if name != unwanted:
            (out / name).write_text(text, encoding="utf-8")
    print(f"report written to {out}", file=sys.stderr)
    return 0


def cmd_run(args):
    config = StudyConfig.from_json_file(args.config)
    manifest, out = run_study(config, output_dir=args.out, seed=args.seed)
    print(f"{len(manifest['artifacts'])} artifacts in {out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facetkit",
        description="Rater-effects measurement toolkit: agreement, many-facet "
        "Rasch estimation, fit diagnostics, ensembles, and Wright maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a ratings CSV and emit canonical JSON")
    p.add_argument("file")
    p.add_argument("--scale-min", type=int, default=None)
    p.add_argument("--scale-max", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("agree", help="QWK of candidate raters against benchmarks")
    p.add_argument("tensor")
    p.add_argument("--benchmarks", required=True, help="comma-separated rater ids")
    p.add_argument("--candidates", default=None, help="default: all non-benchmark raters")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--per-item", dest="pooled", action="store_false", default=False,
                       help="one QWK per item (default)")
    group.add_argument("--pooled", dest="pooled", action="store_true",
                       help="pool all items into one QWK")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_agree)

    p = sub.add_parser("alpha", help="Cronbach alpha per rater and item group")
    p.add_argument("tensor")
    p.add_argument("--groups", nargs="+", required=True,
                   help="groups like holistic:SN1,ER1,SN2,ER2")
    p.add_argument("--raters", default=None, help="default: all raters")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_alpha)

    p = sub.add_parser("estimate", help="fit the many-facet rating-scale model (JMLE)")
    p.add_argument("tensor")
    # each flag sets the EstimationConfig field named by its dest
    defaults = EstimationConfig()
    for flag, name in (("--tol", "convergence_tol"), ("--residual-tol", "residual_tol"),
                       ("--max-iter", "max_iterations"), ("--extreme-adjust", "extreme_adjust"),
                       ("--clamp", "logit_clamp"), ("--damping", "newton_damping")):
        default = getattr(defaults, name)
        p.add_argument(flag, dest=name, type=type(default), default=default)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("fit", help="infit/outfit mean squares with flags")
    p.add_argument("estimates")
    p.add_argument("tensor")
    p.add_argument("--facet", choices=("person", "item", "rater"), default="rater")
    p.add_argument("--cuts", type=_parse_cuts, default=STRINGENT_CUTS,
                   help=f"lower,upper (default {STRINGENT_CUTS.lower},{STRINGENT_CUTS.upper})")
    p.add_argument("--sort", choices=("by_measure", "by_id"), default="by_measure")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("ensemble", help="add an averaged meta-rater to the tensor")
    p.add_argument("tensor")
    p.add_argument("--members", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--round", choices=sorted(ROUNDING_ALIASES), default="half-away")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ensemble)

    p = sub.add_parser("prune", help="greedily drop worst ensemble members by QWK")
    p.add_argument("tensor")
    p.add_argument("--members", required=True)
    p.add_argument("--benchmarks", required=True)
    p.add_argument("--items", default=None)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--round", choices=sorted(ROUNDING_ALIASES), default="half-away")
    p.add_argument("--trace", default=None, help="write the QWK trace CSV here")
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("simulate", help="draw a model-conforming synthetic dataset")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.add_argument("--out", required=True, help=".csv or .json tensor path")
    p.add_argument("--truth", default=None, help="write generating parameters here")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("report", help="render Wright maps and measure tables")
    p.add_argument("estimates")
    p.add_argument("tensor")
    p.add_argument("--wright", choices=("ascii", "svg", "both"), default="both")
    p.add_argument("--cuts", type=_parse_cuts, default=STRINGENT_CUTS)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("run", help="run a whole study from a JSON config")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="override the config's output_dir")
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p.set_defaults(fn=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StageError as e:
        print(json.dumps({"error": str(e), "stage": e.stage}), file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, EstimationError) as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
