"""Tests of the benchmark's generators, output checks and result line.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import facetkit as fk  # noqa: E402
from checks import fit_problems, run_problems, score_residual  # noqa: E402
from workloads import WORKLOADS, dataset_seed  # noqa: E402


def _generate(name, out, seed):
    out.mkdir(parents=True)
    return WORKLOADS[name].generate(out, dataset_seed(seed, 0))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_bytes(tmp_path, name):
    a = _generate(name, tmp_path / "a", 5)
    b = _generate(name, tmp_path / "b", 5)
    assert a.csv.read_bytes() == b.csv.read_bytes()
    assert a.config.read_bytes() == b.config.read_bytes()


def test_seed_changes_simulated_inputs(tmp_path):
    a = _generate("extreme_screen", tmp_path / "a", 5)
    b = _generate("extreme_screen", tmp_path / "b", 6)
    assert a.csv.read_bytes() != b.csv.read_bytes()


def test_sparse_pool_design(tmp_path):
    ds = _generate("sparse_pool", tmp_path / "d", 5)
    tensor = fk.ingest_csv(ds.csv, *ds.scale)
    assert tensor.shape == (1000, 4, 201)
    assert tensor.n_cells == 12000
    scored = tensor.present_mask.any(axis=1)
    assert (scored.sum(axis=1) == 3).all()
    assert (scored.sum(axis=0) == [1000] + [10] * 200).all()
    assert set(ds.true_severity) == set(tensor.ids.raters)


@pytest.fixture(scope="module")
def paper_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("paper")
    ds = _generate("paper_study", base / "data", 1)
    study = fk.StudyConfig.from_json_file(ds.config)
    fk.run_study(study, output_dir=base / "out")
    return ds, fk.ingest_csv(ds.csv, *ds.scale), base / "out"


def test_good_run_passes(paper_run):
    ds, tensor, out = paper_run
    manifest = (out / "manifest.json").read_text(encoding="utf-8")
    assert run_problems(tensor, out, manifest) == []


def test_shifted_severity_counts_as_failed(paper_run, tmp_path):
    _, tensor, out = paper_run
    shifted = tmp_path / "out"
    shutil.copytree(out, shifted)
    d = json.loads((shifted / "estimates.json").read_text(encoding="utf-8"))
    d["params"]["severity"][3] += 0.05
    (shifted / "estimates.json").write_text(json.dumps(d), encoding="utf-8")
    problems = run_problems(tensor, shifted, None)
    assert any("score residual" in p for p in problems)


def test_changed_manifest_counts_as_failed(paper_run):
    _, tensor, out = paper_run
    assert run_problems(tensor, out, "{}\n") == ["manifest differs from the first repetition"]


def test_unconverged_fit_counts_as_failed(paper_run):
    _, tensor, _ = paper_run
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = fk.estimate(tensor, fk.EstimationConfig(max_iterations=2))
    assert any("not converged" in p for p in fit_problems(tensor, est))


def test_residual_check_agrees_with_estimator(paper_run):
    _, tensor, _ = paper_run
    est = fk.estimate(tensor)
    assert score_residual(tensor, est) == pytest.approx(est.max_score_residual, abs=1e-9)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run_bench.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric(trace, section):
    proc = _bench(ROOT, "--workload", "paper_study", "--seed", "3", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench(tmp_path, "--workload", "paper_study", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
