"""One-config replication of a full rating study.

A declarative config drives the whole pipeline: ingest (or simulate),
agreement tables, intra-rater alpha, ensembles, joint estimation, fit
flags, and report rendering.  Every artifact lands in the output
directory and is listed with a content hash in ``manifest.json``, so a
rerun can be verified byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path

from .agreement import alpha_results, qwk_matrix
from .ensemble import EnsembleSpec, build_ensemble
from .estimate import EstimationConfig, estimate, severity_classification
from .fitstats import FitCuts, STRINGENT_CUTS, fit_statistics, with_flags
from .ratings import _json_list, _json_number, _json_object, canonical_json, ingest_csv
from .report import (Table, descriptive_table, estimates_summary, measure_table,
                     render_wright)
from .simulate import SimSpec, simulate

OUTPUT_DIR_ENV = "FACETKIT_OUTPUT_DIR"


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for reporting."""

    def __init__(self, stage, message):
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to reproduce one analysis run."""

    input: dict                      # {"csv": path, ...} or {"simulate": spec dict}
    benchmarks: tuple = ()
    alpha_groups: dict = field(default_factory=dict)   # name -> item tuple
    ensembles: tuple = ()            # of EnsembleSpec
    estimation: EstimationConfig = field(default_factory=EstimationConfig)
    fit_cuts: FitCuts = STRINGENT_CUTS
    output_dir: str = None
    seed: int = None
    base_dir: str = "."

    @classmethod
    def from_json_dict(cls, d: dict, base_dir=".") -> "StudyConfig":
        """The config of a JSON object; a :class:`ValueError` naming the key
        of any value of the wrong type, or every key it does not know."""
        unknown = sorted(set(_json_object(d, "the study config"))
                         - {f.name for f in dataclasses.fields(cls)} - {"base_dir"})
        if unknown:
            raise ValueError(f"unknown study setting(s): {', '.join(unknown)}")

        def integer(value, key):
            return None if value is None else _json_number(value, key, numbers.Integral)

        source = _json_object(d.get("input"), "input")
        for key in ("scale_min", "scale_max"):
            integer(source.get(key), f"input.{key}")
        if not isinstance(d.get("output_dir"), (str, type(None))):
            raise ValueError(f"output_dir must be a JSON string, got {d['output_dir']!r}")
        specs = [_json_object(e, f"ensembles[{k}]", ("name", "members"))
                 for k, e in enumerate(_json_list(d.get("ensembles", []), "ensembles"))]
        ensembles = tuple(
            EnsembleSpec(
                e["name"], _json_list(e["members"], f"members of ensemble {e['name']!r}"),
                e.get("rounding", "half-away-from-zero"),
            )
            for e in specs
        )
        cuts = d.get("fit_cuts")
        if cuts is not None:
            cuts = [_json_number(c, "fit_cuts") for c in _json_list(cuts, "fit_cuts", 2)]
        return cls(
            input=source,
            benchmarks=_json_list(d.get("benchmarks", []), "benchmarks"),
            alpha_groups={k: _json_list(v, f"alpha_groups[{k!r}]") for k, v in
                          _json_object(d.get("alpha_groups", {}), "alpha_groups").items()},
            ensembles=ensembles,
            estimation=EstimationConfig.from_dict(
                _json_object(d.get("estimation", {}), "estimation")),
            fit_cuts=STRINGENT_CUTS if cuts is None else FitCuts(*cuts),
            output_dir=d.get("output_dir"),
            seed=integer(d.get("seed"), "seed"),
            base_dir=str(base_dir),
        )

    @classmethod
    def from_json_file(cls, path) -> "StudyConfig":
        path = Path(path)
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json_dict(json.load(f), base_dir=path.parent)


def _resolve_output_dir(config, override=None):
    out = override or config.output_dir or os.environ.get(OUTPUT_DIR_ENV)
    if not out:
        raise StageError(
            "setup",
            f"no output directory: set output_dir in the config, pass --out, "
            f"or export {OUTPUT_DIR_ENV}",
        )
    return Path(out)


def _load_input(config, seed_override=None):
    spec = config.input
    if "csv" in spec:
        path = Path(config.base_dir) / spec["csv"]
        if not path.exists():
            raise StageError("ingest", f"input file not found: {path}")
        return ingest_csv(path, spec.get("scale_min"), spec.get("scale_max"))
    if "simulate" in spec:
        sim = SimSpec.from_json_dict(spec["simulate"])
        seed = seed_override if seed_override is not None else config.seed
        if seed is not None:
            sim = dataclasses.replace(sim, seed=int(seed))
        tensor, _ = simulate(sim)
        return tensor
    raise StageError("ingest", "config input must contain 'csv' or 'simulate'")


def _check_ids(tensor, config):
    for rater in config.benchmarks:
        if rater not in tensor.ids.rater_index:
            raise StageError("agreement", f"unknown rater id {rater!r} in benchmarks")
    for group, items in config.alpha_groups.items():
        for item in items:
            if item not in tensor.ids.item_index:
                raise StageError("alpha", f"unknown item id {item!r} in group {group!r}")
    for spec in config.ensembles:
        for member in spec.members:
            if member not in tensor.ids.rater_index:
                raise StageError(
                    "ensemble", f"unknown rater id {member!r} in ensemble {spec.name!r}"
                )


def agreement_table(table) -> Table:
    """The QWK rows of an :class:`AgreementTable` as a report table."""
    rows = tuple(
        {**rec, "kappa": float("nan") if rec["kappa"] is None else rec["kappa"],
         "degenerate": str(rec["degenerate"]).lower()}
        for rec in table.to_records()
    )
    return Table(("candidate", "benchmark", "items", "n_pairs", "kappa", "degenerate"), rows)


def alpha_table(tensor, groups, raters) -> Table:
    """Cronbach alpha of each rater on each (name, items) group, groups in
    the order given."""
    groups, raters = list(groups), list(raters)
    results = alpha_results(tensor, raters, [items for _, items in groups])
    names = [name for name, _ in groups for _ in raters]
    rows = tuple({"rater": res.rater, "group": name, "n_items": res.n_items,
                  "n_persons": res.n_persons, "alpha": res.alpha}
                 for name, res in zip(names, results))
    return Table(("rater", "group", "n_items", "n_persons", "alpha"), rows)


def fit_stage(tensor, estimates, cuts, facet="rater", sort="by_measure"):
    """Flagged fit statistics of one facet, and their measure table."""
    fit = with_flags(fit_statistics(tensor, estimates, facet), cuts)
    return fit, measure_table(estimates, fit, sort=sort)


def report_stage(tensor, estimates, rater_fit) -> dict:
    """The report artifacts as {file name: text}: both Wright maps, the
    descriptive table, and the summary with severity labels and the rater
    fit flags at ``rater_fit``'s cuts."""
    summary = {
        "estimates": estimates_summary(estimates),
        "severity_labels": severity_classification(estimates, allow_unconverged=True),
        "fit_flags": dict(zip(rater_fit.element_ids, rater_fit.flags)),
        "fit_cuts": [rater_fit.cuts.lower, rater_fit.cuts.upper],
    }
    return {
        "wright.txt": render_wright(estimates, "ascii"),
        "wright.svg": render_wright(estimates, "svg"),
        "descriptives.csv": descriptive_table(tensor).to_csv_text(),
        "summary.json": canonical_json(summary),
    }


def run_study(config: StudyConfig, output_dir=None, seed=None):
    """Execute the pipeline; returns (manifest dict, output path).

    Raises :class:`StageError` naming the failing stage.  Artifacts
    produced before the failure are still listed in a partial manifest.
    """
    out = _resolve_output_dir(config, output_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []

    def write(files):
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8")
            artifacts.append(name)

    def write_manifest():
        listing = [
            {
                "path": name,
                "sha256": hashlib.sha256((out / name).read_bytes()).hexdigest(),
            }
            for name in sorted(artifacts)
        ]
        manifest = {"artifacts": listing}
        (out / "manifest.json").write_text(canonical_json(manifest), encoding="utf-8")
        return manifest

    def stage(name, fn):
        try:
            return fn()
        except StageError:
            write_manifest()
            raise
        except Exception as e:
            write_manifest()
            raise StageError(name, str(e)) from e

    tensor = stage("ingest", lambda: _load_input(config, seed))
    stage("validate", lambda: _check_ids(tensor, config))
    stage("ingest", lambda: write({"tensor.json": tensor.to_json_text()}))

    benchmarks = list(config.benchmarks) or list(tensor.ids.raters[:1])
    candidates = [r for r in tensor.ids.raters if r not in benchmarks]
    item_groups = [(item,) for item in tensor.ids.items]

    def agreement_files():
        table = agreement_table(qwk_matrix(tensor, benchmarks, candidates, item_groups))
        return {"agreement.csv": table.to_csv_text(),
                "agreement.json": canonical_json(table.to_json_dict())}

    def alpha_files():
        groups = config.alpha_groups or {"all-items": tuple(tensor.ids.items)}
        table = alpha_table(tensor, sorted(groups.items()), tensor.ids.raters)
        return {"alpha.csv": table.to_csv_text()}

    def ensemble_files():
        if not config.ensembles:
            return {}
        extended = tensor
        for spec in config.ensembles:
            extended = build_ensemble(extended, spec)
        names = [spec.name for spec in config.ensembles]
        table = qwk_matrix(extended, benchmarks, names, item_groups)
        return {"ensemble_agreement.csv": agreement_table(table).to_csv_text()}

    stage("agreement", lambda: write(agreement_files()))
    stage("alpha", lambda: write(alpha_files()))
    stage("ensemble", lambda: write(ensemble_files()))

    estimates = stage("estimate", lambda: estimate(tensor, config.estimation))
    stage("estimate", lambda: write({"estimates.json": estimates.to_json_text()}))
    rater_fit, raters = stage("fit", lambda: fit_stage(tensor, estimates, config.fit_cuts))
    stage("fit", lambda: write({"raters.csv": raters.to_csv_text()}))
    stage("report", lambda: write(report_stage(tensor, estimates, rater_fit)))
    return write_manifest(), out
