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
import os
from dataclasses import dataclass, field
from pathlib import Path

from .agreement import alpha_results, qwk_matrix
from .ensemble import EnsembleSpec, build_ensemble
from .estimate import ESTIMATION_JSON, EstimationConfig, estimate, severity_classification
from .fitstats import FitCuts, STRINGENT_CUTS, fit_statistics, with_flags
from .ratings import Fields, canonical_json, canonical_json_chunks, checked_json, ingest_csv
from .report import (Table, descriptive_table, estimates_summary, measure_table,
                     render_wright)
from .simulate import SPEC_JSON, SimSpec, simulate

OUTPUT_DIR_ENV = "FACETKIT_OUTPUT_DIR"


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for reporting."""

    def __init__(self, stage, message):
        super().__init__(message)
        self.stage = stage


def _json_field(kind, read=None, **default):
    """A field read from the JSON key of its name: a value of ``kind``, given to ``read``."""
    return field(**default, metadata={"json": kind, "read": read})


_INPUT_JSON = (Fields({"csv": str}, {"scale_min": (int, None), "scale_max": (int, None)}),
               Fields({"simulate": SPEC_JSON}))
_ENSEMBLE_JSON = Fields({"name": str, "members": [str, ...]}, {"rounding": str},
                        labels={"members": "members of ensemble {name!r}"})


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to reproduce one analysis run."""

    input: dict = _json_field(_INPUT_JSON)  # {"csv": path, ...} or {"simulate": spec dict}
    benchmarks: tuple = _json_field([str, ...], tuple, default=())
    alpha_groups: dict = _json_field({str: [str, ...]},  # name -> item tuple
                                     lambda g: {k: tuple(v) for k, v in g.items()},
                                     default_factory=dict)
    ensembles: tuple = _json_field([_ENSEMBLE_JSON, ...],
                                   lambda es: tuple(EnsembleSpec(**e) for e in es), default=())
    estimation: EstimationConfig = _json_field(ESTIMATION_JSON, EstimationConfig.from_dict,
                                               default_factory=EstimationConfig)
    fit_cuts: FitCuts = _json_field(([float, float], None),
                                    lambda c: STRINGENT_CUTS if c is None else FitCuts(*c),
                                    default=STRINGENT_CUTS)
    output_dir: str = _json_field((str, None), default=None)
    seed: int = _json_field((int, None), default=None)
    base_dir: str = "."

    @classmethod
    def from_json_dict(cls, d: dict, base_dir=".") -> "StudyConfig":
        d = checked_json(d, _STUDY_JSON, "the study config")
        return cls(base_dir=str(base_dir), **{
            f.name: (f.metadata["read"] or (lambda v: v))(d[f.name])
            for f in dataclasses.fields(cls) if f.name in d})

    @classmethod
    def from_json_file(cls, path) -> "StudyConfig":
        path = Path(path)
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json_dict(json.load(f), base_dir=path.parent)


_STUDY_JSON = Fields.of(StudyConfig, lambda f: f.metadata.get("json"), "study setting")


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
    sim = SimSpec.from_json_dict(spec["simulate"])
    seed = seed_override if seed_override is not None else config.seed
    if seed is not None:
        sim = dataclasses.replace(sim, seed=int(seed))
    tensor, _ = simulate(sim)
    return tensor


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


def _text_keys(by_id: dict) -> dict:
    """``by_id`` keyed by each id's text, as JSON keys are; two ids of one text are an error."""
    first = {}
    for element in by_id:
        other = first.setdefault(str(element), element)
        if other is not element:
            raise ValueError(f"rater ids {other!r} and {element!r} are both {str(element)!r}")
    return {text: by_id[element] for text, element in first.items()}


def report_stage(tensor, estimates, rater_fit) -> dict:
    """The report artifacts as {file name: text}: both Wright maps, the
    descriptive table, and the summary with severity labels and the rater
    fit flags at ``rater_fit``'s cuts."""
    summary = {
        "estimates": estimates_summary(estimates),
        "severity_labels": _text_keys(severity_classification(estimates,
                                                              allow_unconverged=True)),
        "fit_flags": _text_keys(dict(zip(rater_fit.element_ids, rater_fit.flags))),
        "fit_cuts": [rater_fit.cuts.lower, rater_fit.cuts.upper],
    }
    return {
        "wright.txt": render_wright(estimates, "ascii"),
        "wright.svg": render_wright(estimates, "svg"),
        "descriptives.csv": descriptive_table(tensor).to_csv_text(),
        "summary.json": canonical_json(summary),
    }


def _write_artifact(path, text_or_chunks) -> str:
    """Write one str, or each str of an iterable, to ``path`` as UTF-8 with
    the line ends it has, and return the sha256 hex digest of the bytes
    written.  Every artifact file is written here."""
    chunks = (text_or_chunks,) if isinstance(text_or_chunks, str) else text_or_chunks
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for chunk in chunks:
            data = chunk.encode("utf-8")
            f.write(data)
            digest.update(data)
    return digest.hexdigest()


def run_study(config: StudyConfig, output_dir=None, seed=None):
    """Execute the pipeline; returns (manifest dict, output path).

    Raises :class:`StageError` naming the failing stage.  Artifacts
    written in full before the failure are still listed in a partial
    manifest, with the digests taken as they were written.
    """
    out = _resolve_output_dir(config, output_dir)
    out.mkdir(parents=True, exist_ok=True)
    digests = {}   # file name -> sha256, once the file is fully written

    def write(files):
        for name, text_or_chunks in files.items():
            digests[name] = _write_artifact(out / name, text_or_chunks)

    def write_manifest():
        manifest = {"artifacts": [{"path": name, "sha256": digests[name]}
                                  for name in sorted(digests)]}
        _write_artifact(out / "manifest.json", canonical_json(manifest))
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
    stage("ingest", lambda: write({"tensor.json": tensor.json_chunks()}))

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
    stage("estimate", lambda: write(
        {"estimates.json": canonical_json_chunks(estimates.to_json_dict())}))
    rater_fit, raters = stage("fit", lambda: fit_stage(tensor, estimates, config.fit_cuts))
    stage("fit", lambda: write({"raters.csv": raters.to_csv_text()}))
    stage("report", lambda: write(report_stage(tensor, estimates, rater_fit)))
    return write_manifest(), out
