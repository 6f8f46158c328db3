"""Rating data model: score scale, facet identifiers, and the ratings tensor.

Scores live in a person x item x rater cube with explicit missing cells.
Every statistic in the toolkit reads from this one structure.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class IngestError(ValueError):
    """Raised for malformed, duplicated, or out-of-range input rows."""


@dataclass(frozen=True)
class ScaleSpec:
    """Ordered integer score categories from ``min_score`` to ``max_score``."""

    min_score: int
    max_score: int

    def __post_init__(self):
        if self.max_score <= self.min_score:
            raise ValueError(
                f"max_score ({self.max_score}) must exceed min_score ({self.min_score})"
            )

    @property
    def num_categories(self) -> int:
        return self.max_score - self.min_score + 1

    @property
    def span(self) -> int:
        """Width of the scale (number of threshold steps)."""
        return self.max_score - self.min_score

    def to_dict(self) -> dict:
        return {"min_score": self.min_score, "max_score": self.max_score}

    @classmethod
    def from_dict(cls, d: dict) -> "ScaleSpec":
        return cls(int(d["min_score"]), int(d["max_score"]))


def _check_unique(name, ids):
    if not ids:
        raise ValueError(f"facet '{name}' is empty")
    seen = set()
    for x in ids:
        if x in seen:
            raise ValueError(f"duplicate {name} identifier {x!r}")
        seen.add(x)


@dataclass(frozen=True)
class FacetIds:
    """Stable, first-appearance-ordered identifiers for each facet."""

    persons: tuple
    items: tuple
    raters: tuple

    def __post_init__(self):
        object.__setattr__(self, "persons", tuple(self.persons))
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "raters", tuple(self.raters))
        _check_unique("person", self.persons)
        _check_unique("item", self.items)
        _check_unique("rater", self.raters)

    @cached_property
    def person_index(self) -> dict:
        return {p: i for i, p in enumerate(self.persons)}

    @cached_property
    def item_index(self) -> dict:
        return {p: i for i, p in enumerate(self.items)}

    @cached_property
    def rater_index(self) -> dict:
        return {p: i for i, p in enumerate(self.raters)}

    def to_dict(self) -> dict:
        return {
            "persons": list(self.persons),
            "items": list(self.items),
            "raters": list(self.raters),
        }


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


class CellIndex:
    """The present cells of a tensor as flat arrays, in person-major order.

    ``pidx``, ``iidx`` and ``ridx`` locate each scored cell in the cube
    (also keyed by facet name in ``index``) and ``x`` holds its 0-based
    category.  This is the one cell list: every consumer of per-cell
    quantities (estimation, fit statistics, the log-likelihood, the
    connectivity check) reads it through :attr:`RatingsTensor.cell_index`
    rather than re-deriving the cells.
    """

    def __init__(self, tensor):
        self.pidx, self.iidx, self.ridx = np.nonzero(tensor.present_mask)
        self.x = tensor.values[self.pidx, self.iidx, self.ridx] - tensor.scale.min_score
        self.n = self.pidx.size
        for arr in (self.pidx, self.iidx, self.ridx, self.x):
            arr.setflags(write=False)
        self.index = {"person": self.pidx, "item": self.iidx, "rater": self.ridx}
        self.size = dict(zip(("person", "item", "rater"), tensor.shape))

    def locations(self, ability, severity, difficulty, sel=slice(None)):
        """``ability - severity - difficulty`` for the selected cells."""
        return (
            ability[self.pidx[sel]]
            - severity[self.ridx[sel]]
            - difficulty[self.iidx[sel]]
        )

    def sums(self, facet, weights=None, sel=slice(None)):
        """Per-element sums of ``weights`` over the selected cells.

        Without weights this counts the selected cells of each element.
        """
        return np.bincount(self.index[facet][sel], weights=weights,
                           minlength=self.size[facet])


@dataclass(frozen=True)
class RatingsTensor:
    """Immutable cube of scores indexed by (person, item, rater).

    ``values`` holds float scores with NaN for missing cells;
    ``declared_missing`` marks cells that were explicitly listed as blank
    (as opposed to simply absent from the input).
    """

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
        values.setflags(write=False)
        declared.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "declared_missing", declared)

    # -- basic queries ------------------------------------------------------

    @property
    def present_mask(self) -> np.ndarray:
        return ~np.isnan(self.values)

    @property
    def n_cells(self) -> int:
        return int(self.present_mask.sum())

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def score(self, person, item, rater) -> float:
        return float(
            self.values[
                self.ids.person_index[person],
                self.ids.item_index[item],
                self.ids.rater_index[rater],
            ]
        )

    @cached_property
    def cell_index(self) -> CellIndex:
        """The present cells as flat index arrays, built once per tensor."""
        return CellIndex(self)

    @cached_property
    def connected(self) -> bool:
        """True when all facet elements are linked through shared observations."""
        P, I, R = self.shape
        uf = _UnionFind(P + I + R)
        cells = self.cell_index
        pidx, iidx, ridx = cells.pidx, cells.iidx, cells.ridx
        for p, i, r in zip(pidx, iidx, ridx):
            uf.union(p, P + i)
            uf.union(p, P + I + r)
        # elements with no observations can never be linked
        touched = set(pidx) | {P + i for i in iidx} | {P + I + r for r in ridx}
        if len(touched) < P + I + R:
            return False
        roots = {uf.find(n) for n in range(P + I + R)}
        return len(roots) == 1

    # -- slicing ------------------------------------------------------------

    def slice(self, persons=None, items=None, raters=None) -> "RatingsTensor":
        """Sub-tensor restricted to the given id subsets (tensor order kept)."""

        def pick(subset, all_ids, index, name):
            if subset is None:
                return list(range(len(all_ids)))
            subset = list(subset)
            if not subset:
                raise ValueError(f"empty facet: no {name}s requested")
            for x in subset:
                if x not in index:
                    raise KeyError(f"unknown {name} identifier {x!r}")
            keep = set(subset)
            return [i for i, x in enumerate(all_ids) if x in keep]

        pi = pick(persons, self.ids.persons, self.ids.person_index, "person")
        ii = pick(items, self.ids.items, self.ids.item_index, "item")
        ri = pick(raters, self.ids.raters, self.ids.rater_index, "rater")
        sub_ids = FacetIds(
            tuple(self.ids.persons[i] for i in pi),
            tuple(self.ids.items[i] for i in ii),
            tuple(self.ids.raters[i] for i in ri),
        )
        vals = self.values[np.ix_(pi, ii, ri)].copy()
        declared = self.declared_missing[np.ix_(pi, ii, ri)].copy()
        return RatingsTensor(self.scale, sub_ids, vals, declared, self.integer_scores)

    def with_rater(self, rater_id, scores, declared_missing=None,
                   integer_scores=None) -> "RatingsTensor":
        """Tensor extended by one rater; ``scores`` has shape (persons, items)."""
        if rater_id in self.ids.rater_index:
            raise ValueError(f"rater {rater_id!r} already exists")
        scores = np.asarray(scores, dtype=float)
        P, I, R = self.shape
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
        return RatingsTensor(self.scale, ids, vals, declared, integer_scores)

    # -- long-format views --------------------------------------------------

    def long_rows(self):
        """Yield (person, item, rater, score-or-None) rows, person-major order.

        Covers present cells and declared-missing cells only.
        """
        listed = self.present_mask | self.declared_missing
        persons, items, raters = self.ids.persons, self.ids.items, self.ids.raters
        pidx, iidx, ridx = np.nonzero(listed)
        scores = self.values[pidx, iidx, ridx].tolist()
        for p, i, r, s in zip(pidx.tolist(), iidx.tolist(), ridx.tolist(), scores):
            if s != s:  # NaN: a declared-missing cell
                s = None
            elif s == int(s):
                s = int(s)
            yield persons[p], items[i], raters[r], s

    # -- serialization ------------------------------------------------------

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["person_id", "item_id", "rater_id", "score"])
        for person, item, rater, s in self.long_rows():
            w.writerow([person, item, rater, "" if s is None else s])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(self.to_csv_text())

    def to_json_dict(self) -> dict:
        d = {
            "scale": self.scale.to_dict(),
            "facets": self.ids.to_dict(),
            "cells": [list(row) for row in self.long_rows()],
        }
        if not self.integer_scores:
            d["integer_scores"] = False
        return d

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json_text())

    @classmethod
    def from_json_dict(cls, d: dict) -> "RatingsTensor":
        scale = ScaleSpec.from_dict(d["scale"])
        ids = FacetIds(
            tuple(d["facets"]["persons"]),
            tuple(d["facets"]["items"]),
            tuple(d["facets"]["raters"]),
        )
        cells = [(p, i, r, s) for p, i, r, s in d["cells"]]
        return cls.from_cells(scale, ids, cells,
                              integer_scores=d.get("integer_scores", True))

    @classmethod
    def read_json(cls, path) -> "RatingsTensor":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json_dict(json.load(f))

    @classmethod
    def from_cells(cls, scale, ids, cells, integer_scores=True) -> "RatingsTensor":
        """Build a tensor from (person, item, rater, score-or-None) tuples."""
        P, I, R = len(ids.persons), len(ids.items), len(ids.raters)
        values = np.full((P, I, R), np.nan)
        declared = np.zeros((P, I, R), dtype=bool)
        seen = set()
        for person, item, rater, score in cells:
            try:
                p = ids.person_index[person]
                i = ids.item_index[item]
                r = ids.rater_index[rater]
            except KeyError as e:
                raise KeyError(f"unknown identifier {e.args[0]!r}") from None
            if (p, i, r) in seen:
                raise IngestError(f"duplicate cell ({person!r}, {item!r}, {rater!r})")
            seen.add((p, i, r))
            if score is None:
                declared[p, i, r] = True
            else:
                values[p, i, r] = score
        return cls(scale, ids, values, declared, integer_scores)

    def __eq__(self, other):
        if not isinstance(other, RatingsTensor):
            return NotImplemented
        return (
            self.scale == other.scale
            and self.ids == other.ids
            and np.array_equal(self.values, other.values, equal_nan=True)
            and np.array_equal(self.declared_missing, other.declared_missing)
        )

    __hash__ = None


def ingest_csv(path, scale_min=None, scale_max=None) -> RatingsTensor:
    """Read a long-format ratings CSV into a validated :class:`RatingsTensor`.

    The file must carry the header ``person_id,item_id,rater_id,score``.
    A blank score declares the triple missing.  The scale defaults to the
    observed min/max unless ``scale_min``/``scale_max`` are given.
    """
    with open(path, "r", encoding="utf-8", newline="") as f:
        return _ingest_rows(csv.reader(f), scale_min, scale_max, str(path))


def ingest_csv_text(text, scale_min=None, scale_max=None) -> RatingsTensor:
    """Same as :func:`ingest_csv` but from an in-memory string."""
    return _ingest_rows(csv.reader(io.StringIO(text)), scale_min, scale_max, "<text>")


def _ingest_rows(reader, scale_min, scale_max, source):
    header = next(reader, None)
    if header is None:
        raise IngestError(f"{source}: empty file")
    header = [h.strip().lower() for h in header]
    if header != ["person_id", "item_id", "rater_id", "score"]:
        raise IngestError(
            f"{source}: expected header person_id,item_id,rater_id,score, got {','.join(header)}"
        )

    persons, items, raters = [], [], []
    pseen, iseen, rseen = set(), set(), set()
    rows = []
    seen = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise IngestError(f"{source}: malformed row at line {lineno} (expected 4 fields)")
        person, item, rater, score_text = (c.strip() for c in row)
        if not person or not item or not rater:
            raise IngestError(f"{source}: malformed row at line {lineno} (blank identifier)")
        if score_text == "":
            score = None
        else:
            try:
                score = int(score_text)
            except ValueError:
                raise IngestError(
                    f"{source}: non-integer score {score_text!r} at line {lineno}"
                ) from None
        if (person, item, rater) in seen:
            raise IngestError(
                f"{source}: duplicate ({person},{item},{rater}) at line {lineno} "
                f"(first seen at line {seen[(person, item, rater)]})"
            )
        seen[(person, item, rater)] = lineno
        if person not in pseen:
            pseen.add(person)
            persons.append(person)
        if item not in iseen:
            iseen.add(item)
            items.append(item)
        if rater not in rseen:
            rseen.add(rater)
            raters.append(rater)
        rows.append((lineno, person, item, rater, score))

    if not rows:
        raise IngestError(f"{source}: no data rows")

    observed = [s for _, _, _, _, s in rows if s is not None]
    if not observed:
        raise IngestError(f"{source}: every score is missing")
    lo = min(observed) if scale_min is None else scale_min
    hi = max(observed) if scale_max is None else scale_max
    if lo >= hi:
        raise IngestError(
            f"{source}: cannot infer a scale from scores spanning [{lo}, {hi}]; "
            "declare scale_min/scale_max"
        )
    scale = ScaleSpec(lo, hi)

    ids = FacetIds(tuple(persons), tuple(items), tuple(raters))
    P, I, R = len(persons), len(items), len(raters)
    values = np.full((P, I, R), np.nan)
    declared = np.zeros((P, I, R), dtype=bool)
    for lineno, person, item, rater, score in rows:
        p, i, r = ids.person_index[person], ids.item_index[item], ids.rater_index[rater]
        if score is None:
            declared[p, i, r] = True
        else:
            if score < scale.min_score or score > scale.max_score:
                raise IngestError(f"{source}: score out of range at line {lineno}")
            values[p, i, r] = score
    if min(observed) > lo or max(observed) < hi:
        warnings.warn(
            f"observed scores span [{min(observed)}, {max(observed)}], narrower "
            f"than the declared scale [{lo}, {hi}]",
            stacklevel=3,
        )
    return RatingsTensor(scale, ids, values, declared)
