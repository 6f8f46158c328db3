"""Keyed workload generators for the facetkit benchmark.

Each generator writes a ratings CSV and a ``study.json`` into a directory
and returns a :class:`Dataset`.  The same seed always gives the same bytes:
scores come from ``facetkit.simulate`` (keyed PCG64 streams per person and
rater) and the pool assignment of ``sparse_pool`` comes from a permutation
keyed by ``(seed, _ASSIGN_STREAM)``.  A run draws
``datasets`` inputs per workload, each from ``dataset_seed(seed, k)``.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import facetkit as fk

PAPER_ITEMS = ("SN1", "ER1", "SN2", "ER2")
PAPER_RATERS = ("R1", "R2") + tuple(f"A{i}" for i in range(1, 11))
PAPER_SEVERITY = np.array(
    [-0.20, -0.81, -0.37, 0.02, 0.10, 0.23, -0.30, 0.50, 1.25, -0.10, -0.14, -0.18]
)
PAPER_DIFFICULTY = np.array([0.10, -0.15, 0.45, -0.40])
PAPER_THRESHOLDS = np.array([-2.1, -1.3, -0.45, 0.45, 1.3, 2.1])

# simulate() uses streams 0-2 under the seed; pool assignment uses its own
_ASSIGN_STREAM = 7

ESTIMATION = {"max_iterations": 200, "convergence_tol": 1e-4, "residual_tol": 0.01}


@dataclass(frozen=True)
class Dataset:
    config: Path            # study.json, its csv beside it
    csv: Path
    scale: tuple            # (min, max)
    true_severity: dict     # rater id -> generating severity; empty if unknown
    cells: int = 0          # scored cells, filled in once the csv is ingested


def _centered(v):
    v = np.asarray(v, float)
    return v - v.mean()


def _write_csv(path, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["person_id", "item_id", "rater_id", "score"])
    w.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def _write_config(path, scale, benchmarks, alpha_groups=None):
    config = {
        "input": {"csv": "ratings.csv", "scale_min": scale[0], "scale_max": scale[1]},
        "benchmarks": list(benchmarks),
        "estimation": ESTIMATION,
        "fit_cuts": [0.7, 1.3],
    }
    if alpha_groups:
        config["alpha_groups"] = alpha_groups
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _long_rows(tensor, keep=None):
    """Person-major (person, item, rater, score) rows of the kept cells."""
    ids = tensor.ids
    p, i, r = np.nonzero(tensor.present_mask if keep is None else keep)
    scores = tensor.values[p, i, r].astype(int)
    return [
        (ids.persons[a], ids.items[b], ids.raters[c], s)
        for a, b, c, s in zip(p.tolist(), i.tolist(), r.tolist(), scores.tolist())
    ]


def dataset_seed(seed: int, k: int) -> int:
    """Simulation seed of the k-th input of a run keyed by ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


def paper_study(out: Path, seed: int) -> Dataset:
    """The bundled study; the seed is unused because the data are fixed."""
    data = Path(fk.__file__).parent / "data"
    config = out / "study.json"
    csv_path = out / "paper_shaped.csv"
    shutil.copyfile(data / "study.json", config)
    shutil.copyfile(data / "paper_shaped.csv", csv_path)
    return Dataset(config, csv_path, (0, 6), {})


def crossed_1000(out: Path, seed: int) -> Dataset:
    spec = fk.SimSpec(
        n_persons=1000, n_items=4, n_raters=12, scale=fk.ScaleSpec(0, 6), seed=seed,
        severity=_centered(PAPER_SEVERITY),
        difficulty=_centered(PAPER_DIFFICULTY),
        thresholds=PAPER_THRESHOLDS,
        # A3 noisy, A8 central: the rater pathologies the paper screens for
        pathologies={4: fk.Pathology(noise=0.3), 9: fk.Pathology(compression=0.5)},
        item_ids=PAPER_ITEMS, rater_ids=PAPER_RATERS,
    )
    tensor, truth = fk.simulate(spec)
    _write_csv(out / "ratings.csv", _long_rows(tensor))
    _write_config(
        out / "study.json", (0, 6), ("R1", "R2"),
        {"holistic": list(PAPER_ITEMS), "story-narration": ["SN1", "SN2"],
         "email-response": ["ER1", "ER2"]},
    )
    return Dataset(out / "study.json", out / "ratings.csv", (0, 6),
                   dict(zip(PAPER_RATERS, truth.severity.tolist())))


def sparse_pool(out: Path, seed: int) -> Dataset:
    n_persons, pool = 1000, 200
    raters = ("H1",) + tuple(f"M{i:03d}" for i in range(1, pool + 1))
    spec = fk.SimSpec(
        n_persons=n_persons, n_items=4, n_raters=pool + 1, scale=fk.ScaleSpec(0, 6),
        # fixed, evenly spread severities: seed-drawn ones move the sweep
        # count from 33 to 39 between draws, which the timings would inherit
        seed=seed, severity=np.concatenate([[0.0], np.linspace(-1.0, 1.0, pool)]),
        difficulty=_centered(PAPER_DIFFICULTY), thresholds=PAPER_THRESHOLDS,
        item_ids=PAPER_ITEMS, rater_ids=raters,
    )
    tensor, truth = fk.simulate(spec)
    # H1 scores everyone; the person in keyed position j also gets pool
    # raters j % pool and (j + 1 + j // pool) % pool, two distinct raters,
    # so every pool rater scores exactly 2 * n_persons / pool persons and
    # every QWK pair with H1 has the same number of shared scores
    perm = np.random.default_rng([seed, _ASSIGN_STREAM]).permutation(n_persons)
    j = np.arange(n_persons)
    keep = np.zeros(tensor.shape, dtype=bool)
    keep[:, :, 0] = True
    for pool_rater in (j % pool, (j + 1 + j // pool) % pool):
        keep[perm, :, 1 + pool_rater] = True
    _write_csv(out / "ratings.csv", _long_rows(tensor, keep))
    _write_config(out / "study.json", (0, 6), ("H1",))
    return Dataset(out / "study.json", out / "ratings.csv", (0, 6),
                   dict(zip(raters, truth.severity.tolist())))


def extreme_screen(out: Path, seed: int) -> Dataset:
    raters = ("S1", "S2")
    spec = fk.SimSpec(
        n_persons=4000, n_items=2, n_raters=2, scale=fk.ScaleSpec(0, 3), seed=seed,
        ability_sd=4.0, severity=np.array([0.25, -0.25]),
        difficulty=np.array([0.2, -0.2]),
        item_ids=("Q1", "Q2"), rater_ids=raters,
    )
    tensor, truth = fk.simulate(spec)
    _write_csv(out / "ratings.csv", _long_rows(tensor))
    _write_config(out / "study.json", (0, 3), ("S1",))
    return Dataset(out / "study.json", out / "ratings.csv", (0, 3),
                   dict(zip(raters, truth.severity.tolist())))


@dataclass(frozen=True)
class Workload:
    generate: object        # (out dir, seed) -> Dataset
    datasets: int           # distinct inputs per run, drawn from the run's seed
    why: str


# ``why`` is repeated in BENCHMARK.json.
WORKLOADS = {
    "paper_study": Workload(
        paper_study, 1,
        "the paper's own 30x4x12 study; interpreter start-up and pipeline glue "
        "weigh as much as estimation"),
    "crossed_1000": Workload(
        crossed_1000, 2,
        "fully crossed 1000x4x12 draw with no extremes; estimate-bound, so "
        "kernel and solver work shows here"),
    "sparse_pool": Workload(
        sparse_pool, 2,
        "1000 persons scored by one benchmark rater plus 2 of 200 pool raters "
        "(1.5 % fill); the dense cube and per-rater loops dominate"),
    "extreme_screen": Workload(
        extreme_screen, 2,
        "4000x2x2 screen on a 0-3 scale, ability SD 4, most persons extreme; "
        "the only workload where extreme handling dominates"),
}
