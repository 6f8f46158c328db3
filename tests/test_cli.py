"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import facetkit
from facetkit import (STRINGENT_CUTS, EstimationConfig, FacetEstimates, FacetIds,
                      RatingsTensor, ScaleSpec, SimSpec, fit_statistics, simulate)
from facetkit.cli import build_parser, main
from facetkit.study import StageError, StudyConfig, run_study

from conftest import PAPER_SPEC_JSON, cube_tensor, small_tensor

BUNDLED_STUDY = Path(str(files("facetkit") / "data" / "study.json"))
BUNDLED_CSV = Path(str(files("facetkit") / "data" / "paper_shaped.csv"))
GOLDEN_ESTIMATES = Path(__file__).parent / "data" / "bundled_estimates.json"

# the bundled run's artifacts whose numbers come from no BLAS call, so
# their bytes are the same on every machine
BUNDLED_SHA256 = {
    "tensor.json": "090f76d88d13aa65740df42ac20a3846473b8a9970794757fff27bccb298ae0a",
    "agreement.csv": "fbdd5204ce4a6bb433340907e9864996f9d496cfe68535590626bdc087c0fa52",
    "agreement.json": "bcdedaf04c3a66e653f085cac9764a8d4e3968c372e3fd4569b6995b95dd8945",
    "alpha.csv": "a481a647eacd5100d0331fa64922650b5ae063f74948462be948de8e700461fa",
    "descriptives.csv": "adaf0c8eb5a4f20c1524a96ef69ad80a93781b0bd53d986730f63a320e6f160b",
    "ensemble_agreement.csv":
        "619664630a2543b346bf6ca03d1ebcda1fe06333ad28c7495dc3491413d00305",
}


# the bundled run's BLAS-dependent bytes, and the host they were recorded on:
# numpy, its BLAS build, the CPU vendor and AVX-512F, which OpenBLAS reads
# at run time to pick its kernels
BUNDLED_MANIFEST_SHA256 = "9f248d2b01870d5537b35f43f0735debb005af8571615a1a420c3390428b319f"
RECORDED_BLAS_HOST = ("2.4.6", "0.3.31.188.0", "GenuineIntel", True)


def blas_host():
    """This host's (numpy, BLAS, CPU vendor, AVX-512F), or None before numpy 2."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        avx512 = bool(np._core._multiarray_umath.__cpu_features__.get("AVX512F"))
    except (AttributeError, KeyError, TypeError):
        return None
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    vendor = next((line.split(":", 1)[1].strip() for line in lines
                   if line.startswith("vendor_id")), None)
    return np.__version__, blas, vendor, avx512


def relabelled(items, raters):
    """A small simulated tensor whose item and rater ids are replaced."""
    tensor, _ = simulate(SimSpec(n_persons=20, n_items=2, n_raters=3,
                                 scale=ScaleSpec(0, 3), seed=1))
    ids = FacetIds(tensor.ids.persons, items, raters)
    return cube_tensor(tensor.scale, ids, tensor.values)


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def tensor_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tensor.json"
    assert run_cli("ingest", BUNDLED_CSV, "--scale-min", 0, "--scale-max", 6,
                   "--out", path) == 0
    return path


@pytest.fixture(scope="module")
def estimates_json(tensor_json, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-est") / "estimates.json"
    assert run_cli("estimate", tensor_json, "--out", path) == 0
    return path


class TestIngest:
    def test_writes_canonical_json(self, tensor_json):
        tensor = RatingsTensor.read_json(tensor_json)
        assert tensor.n_cells == 1440
        assert tensor.connected

    def test_without_out_prints_the_bytes_out_writes(self, tensor_json, capsys):
        assert run_cli("ingest", BUNDLED_CSV, "--scale-min", 0, "--scale-max", 6) == 0
        assert capsys.readouterr().out.encode("utf-8") == tensor_json.read_bytes()

    def test_missing_file_is_reported(self, capsys):
        assert run_cli("ingest", "/nonexistent/ratings.csv") == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err

    def test_bad_scale_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("person_id,item_id,rater_id,score\np1,i1,r1,9\np2,i1,r1,3\n")
        assert run_cli("ingest", bad, "--scale-min", 0, "--scale-max", 6) == 1
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        ("person_id,item_id,rater_id,score\np1,i1,r1,3\n"
         f"p1,{'i' * 131073},r1,3\n".encode(),
         "unreadable record at line 3 (field larger than field limit (131072))"),
        ("person_id,item_id,rater_id,score\nJosé,i1,r1,3\n".encode("latin-1"),
         "not UTF-8 text"),
    ])
    def test_unreadable_file_is_reported(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        assert run_cli("ingest", bad) == 1
        assert json.loads(capsys.readouterr().err) == {"error": f"{bad}: {message}"}


class TestAgree:
    def test_per_item_table(self, tensor_json, tmp_path):
        out = tmp_path / "agree.csv"
        assert run_cli("agree", tensor_json, "--benchmarks", "R1,R2",
                       "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "candidate,benchmark,items,n_pairs,kappa,degenerate"
        assert len(lines) == 1 + 10 * 2 * 4

    def test_pooled(self, tensor_json, tmp_path):
        out = tmp_path / "agree.csv"
        assert run_cli("agree", tensor_json, "--benchmarks", "R1", "--candidates",
                       "A1,A2", "--pooled", "--out", out) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_json_output(self, tensor_json, tmp_path):
        out = tmp_path / "agree.json"
        assert run_cli("agree", tensor_json, "--benchmarks", "R1", "--json",
                       "--out", out) == 0
        rows = json.loads(out.read_text())
        assert all("kappa" in r for r in rows)

    def test_without_out_prints_the_bytes_out_writes(self, tensor_json, tmp_path, capsys):
        out = tmp_path / "agree.csv"
        assert run_cli("agree", tensor_json, "--benchmarks", "R1", "--out", out) == 0
        assert capsys.readouterr().out == ""
        assert run_cli("agree", tensor_json, "--benchmarks", "R1") == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


class TestAlpha:
    def test_groups(self, tensor_json, tmp_path):
        out = tmp_path / "alpha.csv"
        assert run_cli("alpha", tensor_json, "--groups",
                       "holistic:SN1,ER1,SN2,ER2", "sn:SN1,SN2",
                       "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 12 * 2

    def test_bad_group_spec(self, tensor_json, capsys):
        assert run_cli("alpha", tensor_json, "--groups", "holistic") == 1
        assert "name:item1,item2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, error", [
    (("agree", "--benchmarks", ","), "--benchmarks names no id: ','"),
    (("agree", "--benchmarks", "R1", "--candidates", ","), "--candidates names no id: ','"),
    (("alpha", "--groups", "g:SN1,ER1", "--raters", ","), "--raters names no id: ','"),
    (("alpha", "--groups", ":SN1,ER1"), "group ':SN1,ER1' must look like name:item1,item2"),
    (("alpha", "--groups", "g:SN1,ER1", "g:SN2,ER2"), "--groups names group 'g' twice"),
])
def test_id_list_naming_nothing_is_one_json_error(argv, error, capsys):
    assert run_cli(argv[0], BUNDLED_CSV, *argv[1:]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [json.dumps({"error": error})]


class TestEstimateFitReport:
    def test_estimates_json(self, estimates_json):
        est = FacetEstimates.read_json(estimates_json)
        assert est.converged
        assert abs(est.params.severity.sum()) < 1e-6

    def test_fit_table(self, estimates_json, tensor_json, tmp_path):
        out = tmp_path / "fit.csv"
        assert run_cli("fit", estimates_json, tensor_json, "--facet", "rater",
                       "--cuts", "0.7,1.3", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("id,measure,se,infit_ms,outfit_ms")
        assert len(lines) == 13

    @pytest.mark.parametrize("facet, measure", [("person", "ability"),
                                                ("item", "difficulty")])
    def test_fit_table_of_persons_and_items(self, estimates_json, tensor_json, tmp_path,
                                            facet, measure):
        out = tmp_path / "fit.csv"
        assert run_cli("fit", estimates_json, tensor_json, "--facet", facet, "--sort", "by_id",
                       "--out", out) == 0
        tensor, estimates = RatingsTensor.read_json(tensor_json), FacetEstimates.read_json(
            estimates_json)
        fit = fit_statistics(tensor, estimates, facet)
        ids = getattr(tensor.ids, facet + "s")
        assert fit.element_ids == ids
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [row["id"] for row in rows] == sorted(ids)
        for row in rows:
            k = ids.index(row["id"])
            want = (getattr(estimates.params, measure)[k], getattr(estimates, "se_" + measure)[k],
                    fit.infit_ms[k], fit.outfit_ms[k])
            assert [row[c] for c in ("measure", "se", "infit_ms", "outfit_ms")] == [
                f"{x:.2f}" for x in want]
            assert row["n_obs"] == str(fit.n_obs[k])

    @pytest.mark.parametrize("argv", [("estimate",), ("agree", "--benchmarks", "R1,R2")],
                             ids=["estimate", "agree"])
    def test_csv_tensor_path_reads_as_its_json(self, tensor_json, tmp_path, argv):
        # a tensor path not ending in .json is ingested on its observed
        # scale, 0-6 for the bundled file, as the JSON was
        command, *options = argv
        from_csv, from_json = tmp_path / "csv.out", tmp_path / "json.out"
        assert run_cli(command, BUNDLED_CSV, *options, "--out", from_csv) == 0
        assert run_cli(command, tensor_json, *options, "--out", from_json) == 0
        assert from_csv.read_bytes() == from_json.read_bytes()

    def test_report_directory(self, estimates_json, tensor_json, tmp_path):
        out = tmp_path / "report"
        assert run_cli("report", estimates_json, tensor_json, "--wright", "both",
                       "--out", out) == 0
        for name in ("wright.txt", "wright.svg", "raters.csv", "descriptives.csv",
                     "summary.json"):
            assert (out / name).exists()

    def test_report_matches_run(self, tmp_path):
        study = tmp_path / "study"
        assert run_cli("run", BUNDLED_STUDY, "--out", study) == 0
        out = tmp_path / "report"
        assert run_cli("report", study / "estimates.json", study / "tensor.json",
                       "--wright", "both", "--out", out) == 0
        for name in ("raters.csv", "wright.txt", "wright.svg", "descriptives.csv",
                     "summary.json"):
            assert (out / name).read_bytes() == (study / name).read_bytes(), name

    @pytest.mark.parametrize("items, raters", [
        pytest.param((1, 2), ("r1", "r2", "r3"), id="int-items"),
        pytest.param(("i1", "i2"), (7, "b", 2.5), id="mixed-raters"),
        pytest.param(("a&b", "<i>"), ("<r>", "x>y", "&"), id="markup"),
    ])
    def test_report_prints_ids_as_text(self, tmp_path, items, raters):
        # tensor.json takes any scalar id
        tensor = tmp_path / "tensor.json"
        tensor.write_text(relabelled(items, raters).to_json_text())
        assert run_cli("estimate", tensor, "--out", tmp_path / "estimates.json") == 0
        out = tmp_path / "report"
        assert run_cli("report", tmp_path / "estimates.json", tensor, "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary["fit_flags"]) == sorted(summary["severity_labels"]) == sorted(
            map(str, raters))
        labels = [el.text for el in ET.fromstring((out / "wright.svg").read_text()).iter()
                  if el.tag.endswith("text")]
        ascii_map = (out / "wright.txt").read_text()
        for element in (*items, *raters):
            assert any(text.startswith(f"{element} (") for text in labels), element
            assert str(element) in ascii_map, element

    def test_rater_ids_of_one_text_are_one_json_error(self, tmp_path, capsys):
        tensor = tmp_path / "tensor.json"
        tensor.write_text(relabelled(("i1", "i2"), (7, "7", "b")).to_json_text())
        assert run_cli("estimate", tensor, "--out", tmp_path / "estimates.json") == 0
        capsys.readouterr()
        assert run_cli("report", tmp_path / "estimates.json", tensor,
                       "--out", tmp_path / "report") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "rater ids 7 and '7'" in json.loads(lines[0])["error"]

    def test_failed_report_leaves_no_directory(self, tmp_path, capsys):
        # the directory is made once every file is built, its parents too
        tensor = tmp_path / "tensor.json"
        tensor.write_text(relabelled(("i1", "i2"), (7, "7", "b")).to_json_text())
        assert run_cli("estimate", tensor, "--out", tmp_path / "estimates.json") == 0
        capsys.readouterr()
        out = tmp_path / "reports" / "report"
        assert run_cli("report", tmp_path / "estimates.json", tensor, "--out", out) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["fit", "report"])
    @pytest.mark.parametrize("edit, named", [
        pytest.param(lambda d: {**d, "se": []}, "se must be a JSON object", id="se-list"),
        pytest.param(lambda d: [d], "the estimates", id="top-level-list"),
        pytest.param(lambda d: {**d, "se": {**d["se"], "abilty": []}}, "abilty",
                     id="unknown-se-key"),
        pytest.param(lambda d: {**d, "params": {**d["params"],
                                                "severity": d["params"]["severity"][1:]}},
                     "11 raters", id="severity-short"),
        pytest.param(lambda d: {**d, "converged": "x"}, "converged must be a JSON boolean",
                     id="converged-string"),
        pytest.param(lambda d: {**d, "scale": {**d["scale"], "max_score": 6.5}},
                     "scale.max_score must be a JSON integer", id="max-score-fraction"),
        pytest.param(lambda d: {**d, "iterations_used": []},
                     "iterations_used must be a JSON integer", id="iterations-list"),
        pytest.param(lambda d: {**d, "params": {**d["params"], "ability": {}}},
                     "params.ability must be a JSON list", id="ability-object"),
        pytest.param(lambda d: {**d, "se": {**d["se"], "severity": d["se"]["severity"][1:]}},
                     "se.severity has 11 raters", id="se-short"),
        pytest.param(lambda d: {**d, "extreme_flags": {**d["extreme_flags"], "raters": []}},
                     "extreme_flags.raters has 0 raters", id="flags-short"),
    ])
    def test_malformed_estimates_is_one_json_error(self, estimates_json, tensor_json,
                                                   tmp_path, capsys, command, edit, named):
        path = tmp_path / "estimates.json"
        path.write_text(json.dumps(edit(json.loads(estimates_json.read_text()))))
        assert run_cli(command, path, tensor_json, "--out", tmp_path / "out") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert named in json.loads(lines[0])["error"]

    @pytest.mark.parametrize("edit, named", [
        pytest.param(lambda d: {**d, "scale": {**d["scale"], "max_score": 6.5}},
                     "scale.max_score must be a JSON integer", id="max-score-fraction"),
        pytest.param(lambda d: {**d, "integer_scores": "no"},
                     "integer_scores must be a JSON boolean", id="integer-scores-string"),
        pytest.param(lambda d: {**d, "cells": 5}, "cells must be a JSON list", id="cells-number"),
        pytest.param(lambda d: {**d, "cells": d["cells"][:2] + [d["cells"][2][:3]]},
                     "cells[2] must be a JSON list of 4", id="cell-of-three"),
        pytest.param(lambda d: {**d, "cells": [d["cells"][0][:3] + [{}]]},
                     "cells[0][3] must be a JSON number or null", id="score-object"),
        pytest.param(lambda d: {**d, "scale": []}, "scale must be a JSON object", id="scale-list"),
        pytest.param(lambda d: {**d, "facets": {"persons": 5}}, "facets must be a JSON object",
                     id="facets-partial"),
        pytest.param(lambda d: {**d, "facets": {**d["facets"], "persons": [[]]}},
                     "facets.persons must be a JSON string or number or boolean or null",
                     id="person-id-list"),
        pytest.param(lambda d: {**d, "shape": [1, 2]}, "unknown tensor key(s): shape",
                     id="unknown-key"),
    ])
    def test_malformed_tensor_is_one_json_error(self, tensor_json, tmp_path, capsys, edit,
                                                named):
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(edit(json.loads(tensor_json.read_text()))))
        assert run_cli("estimate", path, "--out", tmp_path / "estimates.json") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert named in json.loads(lines[0])["error"]
        assert not (tmp_path / "estimates.json").exists()

    def test_disconnected_design_is_one_json_error(self, tmp_path, capsys):
        # two persons, each scored by a rater the other never meets
        path = tmp_path / "tensor.json"
        path.write_text(small_tensor([[1, None], [None, 4]]).to_json_text())
        assert run_cli("estimate", path, "--out", tmp_path / "estimates.json") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "disconnected design" in json.loads(lines[0])["error"]
        assert not (tmp_path / "estimates.json").exists()

    def test_wright_choice_picks_the_files(self, estimates_json, tensor_json, tmp_path):
        out = tmp_path / "report"
        assert run_cli("report", estimates_json, tensor_json, "--wright", "svg",
                       "--out", out) == 0
        assert (out / "wright.svg").exists() and not (out / "wright.txt").exists()


class TestDefaults:
    def test_estimate_flags_default_to_the_library(self):
        args = build_parser().parse_args(["estimate", "t.json"])
        fields = EstimationConfig().to_dict()
        assert EstimationConfig(**{f: getattr(args, f) for f in fields}) == EstimationConfig()

    def test_cuts_default_to_stringent(self):
        for command in ("fit", "report --out r"):
            argv = command.split() + ["e.json", "t.json"]
            assert build_parser().parse_args(argv).cuts == STRINGENT_CUTS


class TestEnsembleAndPrune:
    def test_ensemble_roundtrip(self, tensor_json, tmp_path):
        out = tmp_path / "extended.json"
        members = ",".join(f"A{i}" for i in range(1, 11))
        assert run_cli("ensemble", tensor_json, "--members", members,
                       "--name", "AI11", "--round", "half-away", "--out", out) == 0
        tensor = RatingsTensor.read_json(out)
        assert tensor.ids.raters[-1] == "AI11"

    def test_prune_trace(self, tensor_json, tmp_path):
        out = tmp_path / "trace.csv"
        members = ",".join(f"A{i}" for i in range(1, 6))
        assert run_cli("prune", tensor_json, "--members", members,
                       "--benchmarks", "R1,R2", "--steps", "2",
                       "--trace", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,removed,members,benchmark,item,kappa,mean_qwk"
        assert len(lines) == 1 + 3 * 8  # three states x 2 benchmarks x 4 items


class TestSimulate:
    def test_simulate_csv_and_truth(self, tmp_path):
        spec = {
            "n_persons": 10, "n_items": 2, "n_raters": 3,
            "scale": {"min_score": 0, "max_score": 6}, "seed": 5,
            "severity": [0.5, -0.5, 0.0],
        }
        spec_path = tmp_path / "sim.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "t.csv"
        truth = tmp_path / "truth.json"
        assert run_cli("simulate", "--spec", spec_path, "--out", out,
                       "--truth", truth) == 0
        assert len(out.read_text().splitlines()) == 61
        tensor, _ = simulate(SimSpec.from_json_dict(spec))
        assert out.read_bytes() == tensor.to_csv_text().encode("utf-8")
        truth_params = json.loads(truth.read_text())
        assert truth_params["severity"] == [0.5, -0.5, 0.0]

    def test_simulate_json_out(self, tmp_path):
        spec = {"n_persons": 10, "n_items": 2, "n_raters": 3,
                "scale": {"min_score": 0, "max_score": 6}, "seed": 5}
        spec_path = tmp_path / "sim.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "t.json"
        assert run_cli("simulate", "--spec", spec_path, "--out", out) == 0
        tensor, _ = simulate(SimSpec.from_json_dict(spec))
        assert out.read_text() == tensor.to_json_text()

    def test_seed_override_changes_data(self, tmp_path):
        spec = {
            "n_persons": 10, "n_items": 2, "n_raters": 3,
            "scale": {"min_score": 0, "max_score": 6}, "seed": 5,
        }
        spec_path = tmp_path / "sim.json"
        spec_path.write_text(json.dumps(spec))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--spec", spec_path, "--out", a)
        run_cli("simulate", "--spec", spec_path, "--seed", "6", "--out", b)
        assert a.read_text() != b.read_text()

    @pytest.mark.parametrize("key, value, named", [
        pytest.param("pathologies", ["1"], "pathologies", id="pathologies-list"),
        pytest.param("pathologies", {"1": 0.2}, "pathologies['1']", id="pathology-number"),
        pytest.param("pathologies", {"x": {"noise": 0.2}}, "pathologies key 'x'",
                     id="pathology-key-not-index"),
        pytest.param("ability", [1], "ability", id="ability-list"),
        pytest.param("item_ids", "AB", "item_ids", id="item-ids-string"),
        pytest.param("n_persons", 5.7, "n_persons", id="persons-fraction"),
        pytest.param("seed", 1.5, "seed", id="seed-fraction"),
        pytest.param(None, None, "simulation spec", id="spec-list"),
    ])
    def test_malformed_spec_value_is_one_json_error(self, tmp_path, capsys, key, value,
                                                    named):
        # a wrong type ends in the JSON error line, not a traceback; a string
        # is not split into ids, nor a fraction truncated
        spec = {"n_persons": 2, "n_items": 2, "n_raters": 2,
                "scale": {"min_score": 0, "max_score": 6}, "seed": 5}
        if key is None:
            spec = [spec]
        else:
            spec[key] = value
        spec_path = tmp_path / "sim.json"
        spec_path.write_text(json.dumps(spec))
        assert run_cli("simulate", "--spec", spec_path, "--out", tmp_path / "t.csv") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert named in json.loads(lines[0])["error"]
        assert not (tmp_path / "t.csv").exists()


class TestRun:
    def test_bundled_study_completes(self, tmp_path):
        out = tmp_path / "study"
        assert run_cli("run", BUNDLED_STUDY, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        names = {a["path"] for a in manifest["artifacts"]}
        assert names == {
            "tensor.json", "agreement.csv", "agreement.json", "alpha.csv",
            "ensemble_agreement.csv", "estimates.json", "raters.csv",
            "wright.txt", "wright.svg", "descriptives.csv", "summary.json",
        }
        # tensor.json holds no estimate, so its bytes are pinned exactly
        digest = hashlib.sha256((out / "tensor.json").read_bytes()).hexdigest()
        assert digest == "090f76d88d13aa65740df42ac20a3846473b8a9970794757fff27bccb298ae0a"

    def test_bundled_run_is_a_fixed_point(self, tmp_path):
        _, out = run_study(StudyConfig.from_json_file(BUNDLED_STUDY), output_dir=tmp_path)
        for name, digest in BUNDLED_SHA256.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        # the fit's sums go through BLAS, whose rounding may differ by machine
        got = json.loads((out / "estimates.json").read_text())
        want = json.loads(GOLDEN_ESTIMATES.read_text())
        assert (got["iterations_used"], got["converged"]) == (
            want["iterations_used"], want["converged"])

        def assert_close(got, want, path):
            if isinstance(want, dict):
                assert got.keys() == want.keys(), path
                for key in want:
                    assert_close(got[key], want[key], f"{path}.{key}")
            elif isinstance(want, list):
                assert len(got) == len(want), path
                for k, (g, w) in enumerate(zip(got, want)):
                    assert_close(g, w, f"{path}[{k}]")
            elif isinstance(want, float):
                assert abs(got - want) <= 1e-9, path
            else:
                assert got == want, path

        assert_close(got, want, "estimates")

    def test_bundled_run_has_the_recorded_bytes_on_the_recorded_blas(self, tmp_path):
        host = blas_host()
        if host != RECORDED_BLAS_HOST:
            pytest.skip(f"the fit's BLAS sums may round otherwise here: host {host}, "
                        f"bytes recorded on {RECORDED_BLAS_HOST}")
        _, out = run_study(StudyConfig.from_json_file(BUNDLED_STUDY), output_dir=tmp_path)
        assert (out / "estimates.json").read_bytes() == GOLDEN_ESTIMATES.read_bytes()
        manifest = (out / "manifest.json").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == BUNDLED_MANIFEST_SHA256

    def test_rerun_is_hash_identical(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_cli("run", BUNDLED_STUDY, "--out", out1)
        run_cli("run", BUNDLED_STUDY, "--out", out2)
        m1 = (out1 / "manifest.json").read_text()
        m2 = (out2 / "manifest.json").read_text()
        assert m1 == m2

    def test_unknown_rater_names_stage_and_id(self, tmp_path, capsys):
        config = json.loads(BUNDLED_STUDY.read_text())
        config["input"]["csv"] = str(BUNDLED_CSV)
        config["benchmarks"] = ["R1", "R99"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert run_cli("run", path, "--out", tmp_path / "out") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "agreement"
        assert "R99" in err["error"]

    @pytest.mark.parametrize("key, value, named", [
        pytest.param("benchmarks", "R1", "benchmarks", id="benchmarks-string"),
        pytest.param("alpha_groups", {"holistic": "SN1"}, "alpha_groups['holistic']",
                     id="alpha-items-string"),
        pytest.param("ensembles", [{"name": "AI11", "members": "A1"}], "ensemble 'AI11'",
                     id="members-string"),
        pytest.param("fit_cuts", [0.7], "fit_cuts", id="cuts-one-element"),
        pytest.param("fit_cuts", "0.7,1.3", "fit_cuts", id="cuts-string"),
        pytest.param("estimation", {"max_iterations": "200"}, "max_iterations",
                     id="setting-string"),
        pytest.param("fit_cuts", ["0.7", "1.3"], "fit_cuts", id="cuts-strings"),
        pytest.param("alpha_groups", ["SN1"], "alpha_groups", id="groups-list"),
        pytest.param("ensembles", "AI11", "ensembles", id="ensembles-string"),
        pytest.param("ensembles", ["A1"], "ensembles[0]", id="ensemble-string"),
        pytest.param("ensembles", [{"members": ["A1"]}], "ensembles[0]",
                     id="ensemble-without-name"),
        pytest.param("input", "r.csv", "input", id="input-string"),
        pytest.param("input", {"csv": str(BUNDLED_CSV), "scale_min": "0"}, "input.scale_min",
                     id="scale-min-string"),
        pytest.param("output_dir", 5, "output_dir", id="output-dir-number"),
        pytest.param("estimation", [], "estimation", id="estimation-list"),
        pytest.param("seed", "1", "seed", id="seed-string"),
        pytest.param("benchmark", ["R2"], "benchmark", id="unknown-key"),
        pytest.param("base_dir", "/tmp", "unknown study setting(s): base_dir", id="base-dir"),
        pytest.param("input", {"csv": 5}, "input.csv must be a JSON string", id="csv-number"),
        pytest.param("input", {}, "input must be a JSON object with keys 'csv'",
                     id="input-empty"),
        pytest.param("input", {"simulate": 5}, "input.simulate must be a JSON object",
                     id="simulate-number"),
        pytest.param("input", {"simulate": {**PAPER_SPEC_JSON, "n_persons": "2"}},
                     "input.simulate.n_persons must be a JSON integer", id="spec-persons-string"),
        pytest.param("input", {"csv": str(BUNDLED_CSV),
                               "simulate": PAPER_SPEC_JSON},
                     "unknown input key(s): simulate", id="csv-and-simulate"),
        pytest.param("ensembles", [{"name": "E", "members": ["A1"], "round": "none"}],
                     "unknown ensembles[0] key(s): round", id="ensemble-unknown-key"),
    ])
    def test_malformed_config_value_is_one_json_error(self, tmp_path, capsys, key, value,
                                                      named):
        # a string where a list belongs is not split into characters, a
        # wrong type ends in the JSON error line, not a traceback, and a
        # mistyped key is named, not ignored
        config = json.loads(BUNDLED_STUDY.read_text())
        config["input"]["csv"] = str(BUNDLED_CSV)
        config[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert run_cli("run", path, "--out", tmp_path / "out") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert named in json.loads(lines[0])["error"]
        assert not (tmp_path / "out").exists()

    def test_simulated_input(self, tmp_path):
        # the config's seed replaces the spec's, and --seed replaces both
        config = tmp_path / "sim_study.json"
        config.write_text(json.dumps({"input": {"simulate": PAPER_SPEC_JSON},
                                      "seed": 11}))

        def run(name, *seed):
            assert run_cli("run", config, "--out", tmp_path / name, *seed) == 0
            return json.loads((tmp_path / name / "manifest.json").read_text())

        first = run("first")
        assert run("again") == first
        assert run("same-seed", "--seed", 11) == first
        assert run("other-seed", "--seed", 12) != first
        tensor, _ = simulate(SimSpec.from_json_dict({**PAPER_SPEC_JSON, "seed": 12}))
        assert (tmp_path / "other-seed" / "tensor.json").read_text() == tensor.to_json_text()
        assert (tmp_path / "first" / "tensor.json").read_text() != tensor.to_json_text()

    def test_failed_stage_leaves_partial_manifest(self, tmp_path, capsys):
        # every person scores all-minimum or all-maximum: agreement and alpha
        # run, but estimation has nothing left to fit
        rows = ["person_id,item_id,rater_id,score"]
        rows += [f"p{p},{item},{rater},{3 * (p % 2)}"
                 for p in range(6) for item in ("I1", "I2") for rater in ("R1", "R2")]
        (tmp_path / "ratings.csv").write_text("\n".join(rows) + "\n")
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"input": {"csv": "ratings.csv"}, "benchmarks": ["R1"]}))
        out = tmp_path / "out"
        assert run_cli("run", config, "--out", out) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "estimate"
        assert "extreme" in err["error"]
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
        assert set(listed) == {"tensor.json", "agreement.csv", "agreement.json", "alpha.csv"}
        for name, digest in listed.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        assert not (out / "estimates.json").exists()

    def test_failed_stream_lists_nothing_half_written(self, tmp_path, monkeypatch):
        chunks = RatingsTensor.json_chunks

        def first_chunk_only(tensor):
            yield next(chunks(tensor))
            raise OSError("no space left on device")

        monkeypatch.setattr(RatingsTensor, "json_chunks", first_chunk_only)
        with pytest.raises(StageError, match="no space left") as failed:
            run_study(StudyConfig.from_json_file(BUNDLED_STUDY), output_dir=tmp_path)
        assert failed.value.stage == "ingest"
        assert (tmp_path / "tensor.json").read_text() == '{\n  "cells": ['
        assert json.loads((tmp_path / "manifest.json").read_text()) == {"artifacts": []}

    @pytest.mark.parametrize("key, value, stage, message", [
        pytest.param("input", {"csv": "missing.csv"}, "ingest",
                     "input file not found: {dir}/missing.csv", id="input-file"),
        pytest.param("alpha_groups", {"sn": ["SN1", "SN9"]}, "alpha",
                     "unknown item id 'SN9' in group 'sn'", id="alpha-item"),
        pytest.param("ensembles", [{"name": "E9", "members": ["A1", "A99"]}], "ensemble",
                     "unknown rater id 'A99' in ensemble 'E9'", id="ensemble-member"),
    ])
    def test_stage_error_before_any_artifact(self, tmp_path, key, value, stage, message):
        config = json.loads(BUNDLED_STUDY.read_text())
        config["input"]["csv"] = str(BUNDLED_CSV)
        config[key] = value
        path = tmp_path / "study.json"
        path.write_text(json.dumps(config))
        with pytest.raises(StageError) as e:
            run_study(StudyConfig.from_json_file(path), output_dir=tmp_path / "out")
        assert (e.value.stage, str(e.value)) == (stage, message.format(dir=tmp_path))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest == {"artifacts": []}

    def test_output_dir_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FACETKIT_OUTPUT_DIR", str(tmp_path / "env_out"))
        assert run_cli("run", BUNDLED_STUDY) == 0
        assert (tmp_path / "env_out" / "manifest.json").exists()

    def test_no_output_dir_errors(self, monkeypatch, capsys):
        monkeypatch.delenv("FACETKIT_OUTPUT_DIR", raising=False)
        assert run_cli("run", BUNDLED_STUDY) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "setup"

    def test_run_leaves_numpy_ma_unimported(self, tmp_path):
        # numpy.ma costs 10-15 ms of import; a run's own code never needs it
        code = ("import sys; from facetkit.cli import main; "
                f"code = main(['run', {str(BUNDLED_STUDY)!r}, '--out', {str(tmp_path)!r}]); "
                "print(code, 'numpy.ma' in sys.modules)")
        src = str(Path(facetkit.__file__).parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.split() == ["0", "False"]
