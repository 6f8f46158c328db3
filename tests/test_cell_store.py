"""The cell store of ``RatingsTensor`` against the dense cube it replaced.

``CubeTensor`` keeps the cube-based tensor as the reference: the checks a
tensor ran on its cube, ``CellIndex.of`` by ``np.nonzero``,
``with_rater``, ``long_rows``, ``from_cells`` and ``==``, plus the ensemble
mean over a block of the cube.  Tensors from every constructor (the cube
constructor, ingest, ``from_cells``, ``with_rater``,
``build_ensemble``, ``simulate``) must give the same cubes, cell arrays,
rows, bytes, equality and errors, from a store of strictly increasing,
read-only listed codes.
"""

import hashlib
import json
import tracemalloc
import warnings
from dataclasses import dataclass, field
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import facetkit.ratings
from facetkit import (
    EnsembleSpec,
    FacetIds,
    IngestError,
    RatingsTensor,
    ScaleSpec,
    SimSpec,
    StudyConfig,
    build_ensemble,
    estimate,
    fit_statistics,
    ingest_csv_text,
    qwk_matrix,
    run_study,
    simulate,
)
from facetkit.ratings import _flat_codes, _score_value, canonical_json
from facetkit.rounding import ROUNDING_MODES
from facetkit.study import _write_artifact
from conftest import declared_missing, paper_spec, pool_csv


@dataclass(frozen=True)
class CubeTensor:
    """The dense-cube tensor: scores in a (persons, items, raters) cube."""

    scale: ScaleSpec
    ids: FacetIds
    values: np.ndarray
    declared_missing: np.ndarray = field(default=None)
    integer_scores: bool = True

    def __post_init__(self):
        P, I, R = len(self.ids.persons), len(self.ids.items), len(self.ids.raters)
        values = np.asarray(self.values, dtype=float)
        if values.shape != (P, I, R):
            raise ValueError(f"values shape {values.shape} != ({P}, {I}, {R})")
        declared = self.declared_missing
        if declared is None:
            declared = np.zeros_like(values, dtype=bool)
        declared = np.asarray(declared, dtype=bool)
        if declared.shape != values.shape:
            raise ValueError("declared_missing shape mismatch")
        present = ~np.isnan(values)
        if np.any(declared & present):
            raise ValueError("a cell cannot be both scored and declared missing")
        obs = values[present]
        if obs.size:
            if obs.min() < self.scale.min_score or obs.max() > self.scale.max_score:
                raise ValueError(
                    f"score outside scale [{self.scale.min_score}, {self.scale.max_score}]"
                )
            if self.integer_scores and not np.all(obs == np.round(obs)):
                raise ValueError("non-integer score in an integer-score tensor")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "declared_missing", declared)

    @property
    def present_mask(self):
        return ~np.isnan(self.values)

    @property
    def n_cells(self):
        return int(self.present_mask.sum())

    def cell_arrays(self):
        """``CellIndex.of``: the present cells by ``np.nonzero`` over the cube."""
        pidx, iidx, ridx = np.nonzero(self.present_mask)
        return pidx, iidx, ridx, self.values[pidx, iidx, ridx] - self.scale.min_score

    def with_rater(self, rater_id, scores, declared_missing=None, integer_scores=None):
        if rater_id in self.ids.rater_index:
            raise ValueError(f"rater {rater_id!r} already exists")
        scores = np.asarray(scores, dtype=float)
        P, I, R = self.values.shape
        if scores.shape != (P, I):
            raise ValueError(f"scores shape {scores.shape} != ({P}, {I})")
        vals = np.concatenate([self.values, scores[:, :, None]], axis=2)
        new_declared = (
            np.zeros((P, I), dtype=bool) if declared_missing is None else declared_missing
        )
        declared = np.concatenate(
            [self.declared_missing, np.asarray(new_declared, bool)[:, :, None]], axis=2
        )
        ids = FacetIds(self.ids.persons, self.ids.items, self.ids.raters + (rater_id,))
        if integer_scores is None:
            integer_scores = self.integer_scores
        return CubeTensor(self.scale, ids, vals, declared, integer_scores)

    def ensemble(self, name, members, rounding):
        """``build_ensemble``: the rounded member mean over a block of the cube."""
        block = self.values[:, :, [self.ids.rater_index[m] for m in members]]
        n = (~np.isnan(block)).sum(axis=2)
        with np.errstate(invalid="ignore"):
            mean = np.where(n > 0, np.nansum(block, axis=2) / np.maximum(n, 1), np.nan)
        rounded = np.clip(ROUNDING_MODES[rounding](mean), self.scale.min_score,
                          self.scale.max_score)
        return self.with_rater(name, np.where(n > 0, rounded, np.nan), n == 0,
                               self.integer_scores and rounding != "none")

    def long_rows(self):
        persons, items, raters = self.ids.persons, self.ids.items, self.ids.raters
        pidx, iidx, ridx = np.nonzero(self.present_mask | self.declared_missing)
        scores = map(_score_value, self.values[pidx, iidx, ridx].tolist())
        for p, i, r, s in zip(pidx.tolist(), iidx.tolist(), ridx.tolist(), scores):
            yield persons[p], items[i], raters[r], s

    def to_json_text(self):
        head = {"scale": self.scale.to_dict(), "facets": self.ids.to_dict()}
        if not self.integer_scores:
            head["integer_scores"] = False
        return canonical_json({**head, "cells": [list(row) for row in self.long_rows()]})

    @classmethod
    def from_cells(cls, scale, ids, cells, integer_scores=True):
        rows = [(p, i, r, s) for p, i, r, s in cells]
        columns = list(zip(*rows)) or [()] * 4
        indexes = (ids.person_index, ids.item_index, ids.rater_index)
        pidx, iidx, ridx = (np.array([index.get(x, -1) for x in column], dtype=np.intp)
                            for index, column in zip(indexes, columns))
        unknown = np.flatnonzero((pidx < 0) | (iidx < 0) | (ridx < 0))
        nan_score = np.flatnonzero([s is not None and s != s for s in columns[3]])
        first_unknown, first_nan = (faulty[0] if faulty.size else len(rows)
                                    for faulty in (unknown, nan_score))
        shape = (len(ids.persons), len(ids.items), len(ids.raters))
        flat = _flat_codes(shape, pidx, iidx, ridx)
        keys = flat[:min(first_unknown, first_nan + 1)]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        repeats = np.flatnonzero(first[inverse] != np.arange(keys.size))
        if repeats.size:
            person, item, rater, _ = rows[repeats[0]]
            raise IngestError(f"duplicate cell ({person!r}, {item!r}, {rater!r})")
        if unknown.size and first_unknown <= first_nan:
            x = next(x for x, index in zip(rows[first_unknown], indexes) if x not in index)
            raise KeyError(f"unknown identifier {x!r}")
        if nan_score.size:
            person, item, rater, _ = rows[first_nan]
            raise IngestError(f"NaN score in cell ({person!r}, {item!r}, {rater!r})")
        values = np.full(shape, np.nan)
        np.put(values, flat, np.array(columns[3], dtype=float))
        declared = np.zeros(shape, dtype=bool)
        np.put(declared, flat[[s is None for s in columns[3]]], True)
        return cls(scale, ids, values, declared, integer_scores)

    def __eq__(self, other):
        return (
            self.scale == other.scale
            and self.ids == other.ids
            and np.array_equal(self.values, other.values, equal_nan=True)
            and np.array_equal(self.declared_missing, other.declared_missing)
            and self.integer_scores == other.integer_scores
        )


def outcome(build):
    """The result of ``build()``, or the exception type and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # cells no ensemble member scored
            return build()
    except Exception as e:  # the exception itself is the outcome compared
        return type(e), str(e)


def assert_same(tensor, ref):
    """Everything a reader can see of ``tensor`` equals the reference's."""
    assert isinstance(tensor, RatingsTensor), tensor
    assert (tensor.scale, tensor.ids, tensor.integer_scores) == (
        ref.scale, ref.ids, ref.integer_scores)
    assert tensor.shape == ref.values.shape
    codes, scores = tensor.listed_codes, tensor.listed_scores
    assert codes.dtype == np.intp and scores.dtype == float and codes.shape == scores.shape
    assert np.all(np.diff(codes) > 0)
    for store in (codes, scores):
        assert not store.flags.writeable
    assert tensor.n_cells == ref.n_cells
    assert np.array_equal(tensor.values, ref.values, equal_nan=True)
    assert np.array_equal(tensor.present_mask, ref.present_mask)
    assert np.array_equal(declared_missing(tensor), ref.declared_missing)
    for view in (tensor.values, tensor.present_mask):
        assert not view.flags.writeable
    cells = tensor.cell_index
    for got, want in zip((cells.pidx, cells.iidx, cells.ridx, cells.x), ref.cell_arrays()):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    rows = list(tensor.long_rows())
    assert [(r, type(r[3])) for r in rows] == [(r, type(r[3])) for r in ref.long_rows()]
    assert tensor.to_json_text() == ref.to_json_text()


# -- designs -------------------------------------------------------------------


@st.composite
def store_designs(draw):
    """A small cube in the style of ``sparse_designs()``: 1-8 persons x 1-3
    items x 1-4 raters on a K-category scale starting at -1, 0 or 1, about a
    quarter of the cells absent and some of them declared missing, sometimes
    a rater with no cells or a non-integer ``build_ensemble(..., "none")``
    rater, then sometimes a ``with_rater``.  Returns the reference and the
    same steps on the store, built from cells."""
    P, I, R = (draw(st.integers(1, n)) for n in (8, 3, 4))
    K = draw(st.integers(1, 4))
    lo = draw(st.sampled_from([0, 0, -1, 1]))
    size = P * I * R
    scores = np.array(draw(st.lists(st.integers(lo, lo + K), min_size=size,
                                    max_size=size)), float).reshape(P, I, R)
    keep = np.array(draw(st.lists(st.integers(0, 3), min_size=size,
                                  max_size=size))).reshape(P, I, R) > 0
    if draw(st.booleans()):
        keep[:, :, draw(st.integers(0, R - 1))] = False       # a rater with no cells
    scores[~keep] = np.nan
    declared = ~keep & np.array(draw(st.lists(st.booleans(), min_size=size,
                                              max_size=size))).reshape(P, I, R)
    ids = FacetIds(*(tuple(f"{c}{k}" for k in range(n)) for c, n in zip("pir", (P, I, R))))
    ref = CubeTensor(ScaleSpec(lo, lo + K), ids, scores, declared)
    tensor = RatingsTensor.from_cells(ref.scale, ids, ref.long_rows())
    steps = []
    if draw(st.booleans()):
        members = tuple(draw(st.lists(st.sampled_from(ids.raters), min_size=1, unique=True)))
        rounding = draw(st.sampled_from(["none", "none", "half-to-even"]))
        steps.append(("ensemble", members, rounding))
    if draw(st.booleans()):
        new = np.array(draw(st.lists(st.sampled_from([np.nan, lo, lo + K, lo + 0.5]),
                                     min_size=P * I, max_size=P * I))).reshape(P, I)
        blank = np.array(draw(st.lists(st.booleans(), min_size=P * I,
                                       max_size=P * I))).reshape(P, I)
        name = draw(st.sampled_from(["r0", "new"]))
        steps.append(("with_rater", name, new, blank & np.isnan(new),
                      draw(st.sampled_from([None, False]))))
    for step in steps:
        kind, *args = step
        if kind == "ensemble":
            ref = ref.ensemble("E", *args)
            tensor = outcome(lambda: build_ensemble(tensor, EnsembleSpec("E", *args)))
        elif isinstance(ref, CubeTensor):
            ref = outcome(lambda: getattr(ref, kind)(*args))
            tensor = outcome(lambda: getattr(tensor, kind)(*args))
    return ref, tensor


class TestStoreMatchesCube:
    @settings(max_examples=300, deadline=None)
    @given(store_designs())
    def test_views_cells_rows_and_bytes(self, design):
        ref, tensor = design
        if not isinstance(ref, CubeTensor):
            assert tensor == ref          # the same exception and message
            return
        assert_same(tensor, ref)
        # the same tensor through its other constructors
        assert_same(RatingsTensor(ref.scale, ref.ids, ref.values, ref.declared_missing,
                                  ref.integer_scores), ref)
        assert_same(RatingsTensor.from_json_dict(json.loads(tensor.to_json_text())), ref)
        if ref.integer_scores:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the observed range may be narrower
                ingested = outcome(lambda: ingest_csv_text(
                    tensor.to_csv_text(), ref.scale.min_score, ref.scale.max_score))
            if isinstance(ingested, RatingsTensor) and ingested.ids == ref.ids:
                assert_same(ingested, ref)

    @settings(max_examples=300, deadline=None)
    @given(store_designs(), st.data())
    def test_equality(self, design, data):
        ref, tensor = design
        if not isinstance(ref, CubeTensor):
            return
        values, declared = ref.values.copy(), ref.declared_missing.copy()
        change = data.draw(st.sampled_from(["none", "score", "declare", "drop", "integer"]))
        cell = tuple(data.draw(st.integers(0, n - 1)) for n in values.shape)
        integer_scores = ref.integer_scores
        if change == "score":
            values[cell] = ref.scale.min_score if values[cell] != ref.scale.min_score \
                else ref.scale.max_score
            declared[cell] = False
        elif change == "declare":
            values[cell], declared[cell] = np.nan, True
        elif change == "drop":
            values[cell], declared[cell] = np.nan, False
        elif change == "integer":
            integer_scores = False
        other_ref = CubeTensor(ref.scale, ref.ids, values, declared, integer_scores)
        other = RatingsTensor.from_cells(ref.scale, ref.ids, other_ref.long_rows(),
                                         integer_scores)
        assert (tensor == other) == (ref == other_ref)
        assert (other == tensor) == (other_ref == ref)
        assert tensor == RatingsTensor(ref.scale, ref.ids, ref.values, ref.declared_missing,
                                       ref.integer_scores)

    def test_ensemble_of_many_non_integer_raters(self):
        """Member means of non-integer raters sum in the cube's order, bit for bit."""
        rng = np.random.default_rng(7)
        values = rng.uniform(0, 6, (20, 3, 11))
        values[rng.random(values.shape) < 0.2] = np.nan
        ids = FacetIds(*(tuple(f"{c}{k}" for k in range(n)) for c, n in zip("pir", (20, 3, 11))))
        ref = CubeTensor(ScaleSpec(0, 6), ids, values, integer_scores=False)
        tensor = RatingsTensor.from_cells(ref.scale, ids, ref.long_rows(), False)
        members = ids.raters[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert_same(build_ensemble(tensor, EnsembleSpec("E", members, "none")),
                        ref.ensemble("E", members, "none"))


# -- faulty input --------------------------------------------------------------


BAD_CUBES = {
    "values shape": dict(values=np.zeros((2, 1, 1))),
    "declared shape": dict(declared_missing=np.zeros((1, 1, 3), bool)),
    "scored and declared": dict(declared_missing=np.ones((1, 1, 2), bool)),
    "below the scale": dict(values=np.array([[[-1.0, np.nan]]])),
    "above the scale": dict(values=np.array([[[1.0, 4.0]]])),
    "infinite": dict(values=np.array([[[np.inf, 1.0]]])),
    "non-integer": dict(values=np.array([[[1.5, 2.0]]])),
    "non-integer outside": dict(values=np.array([[[1.5, 9.0]]])),
    "non-integer allowed": dict(values=np.array([[[1.5, 2.0]]]), integer_scores=False),
    "bad and declared": dict(values=np.array([[[9.0, np.nan]]]),
                             declared_missing=np.array([[[True, False]]])),
}


@pytest.mark.parametrize("name", list(BAD_CUBES))
def test_bad_cubes_raise_as_before(name):
    args = {"scale": ScaleSpec(0, 3), "ids": FacetIds(("p",), ("i",), ("a", "b")),
            "values": np.array([[[1.0, 2.0]]]), **BAD_CUBES[name]}
    ref = outcome(lambda: CubeTensor(**args))
    got = outcome(lambda: RatingsTensor(**args))
    if isinstance(ref, CubeTensor):
        assert_same(got, ref)
    else:
        assert got == ref


IDS = FacetIds(("p1", "p2"), ("i1",), ("r1", "r2"))
BAD_CELLS = {
    "outside": [("p1", "i1", "r1", 4)],
    "below": [("p1", "i1", "r1", 1), ("p2", "i1", "r2", -2)],
    "infinite": [("p1", "i1", "r1", float("inf"))],
    "non-integer": [("p1", "i1", "r1", 1.5), ("p2", "i1", "r1", None)],
    "non-integer and outside": [("p1", "i1", "r1", 1.5), ("p2", "i1", "r1", 7)],
    "duplicate then outside": [("p1", "i1", "r1", 9), ("p1", "i1", "r1", 1)],
    "unknown": [("p1", "i1", "r1", 9), ("p3", "i1", "r1", 1)],
    "nan": [("p1", "i1", "r1", 2), ("p2", "i1", "r1", float("nan"))],
    "good": [("p2", "i1", "r2", 3), ("p1", "i1", "r2", None), ("p1", "i1", "r1", 0)],
    # cells of other than four values raise as unpacking does, ahead of any other fault
    "unknown then three values": [("p3", "i1", "r1", 1), ("p1", "i1", "r1")],
    "five values": [("p1", "i1", "r1", 1), ("p2", "i1", "r1", 1, 0)],
    "not a sequence": [("p1", "i1", "r1", 1), 7],
    "lists and tuples": [["p2", "i1", "r2", 3], ("p1", "i1", "r1", 0)],
    "other iterables": [range(4), "wxyz"],
}


@pytest.mark.parametrize("integer_scores", [True, False])
@pytest.mark.parametrize("name", list(BAD_CELLS))
def test_bad_cells_raise_as_before(name, integer_scores):
    def build(cls):
        return lambda: cls.from_cells(ScaleSpec(0, 3), IDS, BAD_CELLS[name], integer_scores)

    ref, got = outcome(build(CubeTensor)), outcome(build(RatingsTensor))
    if isinstance(ref, CubeTensor):
        assert_same(got, ref)
    else:
        assert got == ref


@pytest.mark.parametrize("args", [
    ("r1", np.zeros((2, 1))),                                  # rater exists
    ("r3", np.zeros((1, 2))),                                  # scores shape
    ("r3", np.zeros((2, 1)), np.ones((2, 1), bool)),           # scored and declared
    ("r3", np.full((2, 1), 5.0)),                              # outside the scale
    ("r3", np.full((2, 1), 0.5)),                              # non-integer
    ("r3", np.full((2, 1), 0.5), None, False),
    ("r3", np.array([[np.nan], [1.0]]), np.array([[True], [False]])),
])
def test_bad_with_rater_raises_as_before(args):
    cells = BAD_CELLS["good"]
    ref = CubeTensor.from_cells(ScaleSpec(0, 3), IDS, cells)
    tensor = RatingsTensor.from_cells(ScaleSpec(0, 3), IDS, cells)
    want, got = outcome(lambda: ref.with_rater(*args)), outcome(lambda: tensor.with_rater(*args))
    if isinstance(want, CubeTensor):
        assert_same(got, want)
    else:
        assert got == want


def test_tensor_is_immutable():
    tensor = RatingsTensor.from_cells(ScaleSpec(0, 3), IDS, BAD_CELLS["good"])
    with pytest.raises(AttributeError):
        tensor.scale = ScaleSpec(0, 4)
    for arr in (tensor.listed_codes, tensor.listed_scores, tensor.cell_index.score,
                tensor.cell_index.x):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_simulate_fills_the_store_of_its_cube():
    spec = SimSpec(n_persons=7, n_items=3, n_raters=4, scale=ScaleSpec(1, 5), seed=2)
    tensor, _ = simulate(spec)
    assert np.array_equal(tensor.listed_codes, np.arange(7 * 3 * 4))
    assert_same(tensor, CubeTensor(tensor.scale, tensor.ids, np.array(tensor.values)))


# -- memory: cells, not the cube -----------------------------------------------


@pytest.fixture()
def no_cube(monkeypatch):
    """Make any build of a dense cube view fail."""
    def refuse(*args):
        raise AssertionError("a P x I x R cube was built")

    monkeypatch.setattr(facetkit.ratings, "_cube", refuse)


@pytest.mark.parametrize("study", ["bundled", "sparse_pool"])
def test_run_builds_no_cube(study, tmp_path, no_cube):
    if study == "bundled":
        config = StudyConfig.from_json_file(Path(str(files("facetkit") / "data" / "study.json")))
    else:
        (tmp_path / "ratings.csv").write_text(pool_csv(60, 20, 1, benchmark=True))
        config = StudyConfig.from_json_dict({
            "input": {"csv": "ratings.csv", "scale_min": 0, "scale_max": 6},
            "benchmarks": ["H1"],
            "ensembles": [{"name": "E", "members": ["M000", "M001", "M002", "M003"]}],
        }, base_dir=tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # cells no ensemble member scored
        manifest, out = run_study(config, output_dir=tmp_path / "out")
    assert {"tensor.json", "estimates.json", "raters.csv"} <= {
        a["path"] for a in manifest["artifacts"]}


def test_ingest_and_estimate_memory_scales_with_cells():
    """A 2000 x 4 x 400 pool scores 16 000 cells of a 3.2 M-cell cube
    (25.6 MB as float64); ingest plus estimate stay within 1 kB a cell."""
    text = pool_csv(2000, 400, 3)
    tracemalloc.start()
    try:
        tensor = ingest_csv_text(text, 0, 6)
        estimates = estimate(tensor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tensor.n_cells == 16000 and tensor.shape == (2000, 4, 400)
    assert estimates.converged
    assert peak < 1024 * tensor.n_cells


def test_estimate_memory_on_a_rater_pool():
    """On a 1000 x 4 x 201 pool (H1 and 2 of 200 pool raters a person,
    12 000 cells) the persons' elimination takes less memory than the dense
    blocks of persons it replaced, whose traced peak on this draw was
    3.91-3.92 MB with numpy 2.4."""
    tensor = ingest_csv_text(pool_csv(1000, 200, 1, benchmark=True), 0, 6)
    assert tensor.cell_index.n == 12000 and tensor.shape == (1000, 4, 201)
    tracemalloc.start()
    try:
        estimates = estimate(tensor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimates.converged
    assert peak < 3.9e6


def test_estimate_memory_on_a_crossed_design():
    """On a crossed 1000 x 4 x 12 draw on 0-6 (48 000 cells, 217 score
    groups of 10 416 cells) the standard errors and the final
    log-likelihood read the groups' cells, not every cell.  Computed over all cells, as before, the
    traced peak of ``estimate`` on this draw was 7.03 MB with numpy 2.4; on
    the groups it is 3.9 MB."""
    tensor, _ = simulate(paper_spec(seed=1, n_persons=1000))
    tensor.cell_index
    tracemalloc.start()
    try:
        estimates = estimate(tensor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tensor.n_cells == 48000 and estimates.converged
    assert peak < 6.0e6


# -- memory of run's per-cell stages on a crossed 1000 x 4 x 12 draw ----------
# Traced peaks with numpy 2.4 when each stage held all cells at once: 6.3 MB
# to build, write and read back tensor.json, 6.6 MB for the QWK pairs and
# 5.0 MB for the rater fit with the kernel's probabilities alive.


@pytest.fixture(scope="module")
def crossed_1000():
    tensor, _ = simulate(paper_spec(seed=1, n_persons=1000))
    tensor.cell_index
    return tensor


def traced_peak(fn):
    """``fn()`` and the traced peak of memory allocated while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tensor_json_is_written_in_blocks(crossed_1000, tmp_path):
    path = tmp_path / "tensor.json"
    digest, peak = traced_peak(lambda: _write_artifact(path, crossed_1000.json_chunks()))
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert path.read_text(encoding="utf-8") == crossed_1000.to_json_text()
    assert peak < 4e6


def test_qwk_pairs_are_tallied_in_blocks(crossed_1000):
    items = [(item,) for item in crossed_1000.ids.items]
    table, peak = traced_peak(lambda: qwk_matrix(
        crossed_1000, ["R1", "R2"], crossed_1000.ids.raters[2:], items))
    assert len(table.rows) == 10 * 2 * 4
    assert peak < 3e6


def test_fit_statistics_drop_the_probabilities(crossed_1000):
    estimates = estimate(crossed_1000)
    report, peak = traced_peak(lambda: fit_statistics(crossed_1000, estimates, "rater"))
    assert report.n_obs.sum() == 48000
    assert peak < 4.6e6
