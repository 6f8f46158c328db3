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
from itertools import compress
from operator import itemgetter

import numpy as np


def canonical_json(obj) -> str:
    """The one JSON encoding of every artifact: sorted keys, two-space
    indent, trailing newline, so equal objects always give equal bytes."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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


def _score_value(s):
    """A cell score as written out: None for a declared-missing cell (NaN),
    an int when the score is integral, the float otherwise."""
    if s != s:
        return None
    return int(s) if s == int(s) else s


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


class CellIndex:
    """The present cells of a tensor as flat arrays, in person-major order.

    ``pidx``, ``iidx`` and ``ridx`` locate each scored cell in the cube
    (also keyed by facet name in ``index``) and ``x`` holds its 0-based
    category.  This is the one cell list: every consumer of per-cell
    quantities (estimation, fit statistics, the log-likelihood, the
    connectivity check) reads it through :attr:`RatingsTensor.cell_index`
    rather than re-deriving the cells; a selection that is read many times,
    such as the cells of a fit, is a :meth:`subset` of it.
    """

    def __init__(self, pidx, iidx, ridx, x, shape):
        self.pidx, self.iidx, self.ridx, self.x = pidx, iidx, ridx, x
        self.n = self.pidx.size
        for arr in (self.pidx, self.iidx, self.ridx, self.x):
            arr.setflags(write=False)
        self.index = {"person": self.pidx, "item": self.iidx, "rater": self.ridx}
        self.shape = shape
        self.size = dict(zip(("person", "item", "rater"), shape))

    @classmethod
    def of(cls, tensor) -> "CellIndex":
        """The scored cells of ``tensor``."""
        pidx, iidx, ridx = np.nonzero(tensor.present_mask)
        x = tensor.values[pidx, iidx, ridx] - tensor.scale.min_score
        return cls(pidx, iidx, ridx, x, tensor.shape)

    def subset(self, sel) -> "CellIndex":
        """The selected cells, in the same order, as a cell list of their own."""
        return CellIndex(self.pidx[sel], self.iidx[sel], self.ridx[sel], self.x[sel],
                         self.shape)

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
        return CellIndex.of(self)

    @cached_property
    def derived(self) -> dict:
        """Statistics computed from this tensor, kept for reuse.  The tensor
        is immutable, so they never go stale."""
        return {}

    @cached_property
    def connected(self) -> bool:
        """True when all facet elements are linked through shared observations."""
        cells = self.cell_index
        # elements with no observations can never be linked
        if any(not cells.sums(facet).all() for facet in cells.index):
            return False
        # hook-and-compress labelling over the person-item and person-rater
        # edges: every label is a root (label[root] == root), each round
        # hooks the larger root of an edge onto the smaller one, then
        # pointer jumping flattens the trees until all roots are fixed
        P, I, _ = self.shape
        a = np.concatenate([cells.pidx, cells.pidx])
        b = np.concatenate([P + cells.iidx, P + I + cells.ridx])
        label = np.arange(sum(self.shape))
        while True:
            la, lb = label[a], label[b]
            if np.array_equal(la, lb):
                return bool(np.all(label == label[0]))
            low = np.minimum(la, lb)
            np.minimum.at(label, la, low)
            np.minimum.at(label, lb, low)
            while True:
                jumped = label[label]
                if np.array_equal(jumped, label):
                    break
                label = jumped

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
        persons, items, raters = self.ids.persons, self.ids.items, self.ids.raters
        pidx, iidx, ridx = np.nonzero(self.present_mask | self.declared_missing)
        scores = map(_score_value, self.values[pidx, iidx, ridx].tolist())
        for p, i, r, s in zip(pidx.tolist(), iidx.tolist(), ridx.tolist(), scores):
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

    def _json_head(self) -> dict:
        d = {"scale": self.scale.to_dict(), "facets": self.ids.to_dict()}
        if not self.integer_scores:
            d["integer_scores"] = False
        return d

    def to_json_dict(self) -> dict:
        return {**self._json_head(), "cells": [list(row) for row in self.long_rows()]}

    def to_json_text(self) -> str:
        """``canonical_json(self.to_json_dict())``, byte for byte.

        Under ``indent`` the json module encodes with its pure-Python
        encoder, so only the small head goes through :func:`canonical_json`.
        The cells block is joined from strings: each id and each distinct
        score is encoded once, and rows are laid out as ``indent=2`` would.
        """
        pidx, iidx, ridx = np.nonzero(self.present_mask | self.declared_missing)
        scores, score_code = np.unique(self.values[pidx, iidx, ridx], return_inverse=True)
        # a row reads ',\n    [\n      P,\n      I,\n      R,\n      S\n    ]'
        # (the first without its comma); each token carries the layout around it
        sep = ",\n      "
        columns = (
            (self.ids.persons, pidx, ",\n    [\n      ", sep),
            (self.ids.items, iidx, "", sep),
            (self.ids.raters, ridx, "", sep),
            (map(_score_value, scores.tolist()), score_code, "", "\n    ]"),
        )
        pieces = [None] * (4 * pidx.size)
        for k, (entries, codes, before, after) in enumerate(columns):
            tokens = [before + json.dumps(x) + after for x in entries]
            pieces[k::4] = map(tokens.__getitem__, codes.tolist())
        # "cells" sorts before every other key, so it opens the object
        head = canonical_json(self._json_head())[2:]
        if pieces:
            pieces[0] = '{\n  "cells": [' + pieces[0][1:]
            pieces.append("\n  ],\n" + head)
        else:
            pieces = ['{\n  "cells": [],\n', head]
        return "".join(pieces)

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
        return cls.from_cells(scale, ids, d["cells"],
                              integer_scores=d.get("integer_scores", True))

    @classmethod
    def read_json(cls, path) -> "RatingsTensor":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json_dict(json.load(f))

    @classmethod
    def from_cells(cls, scale, ids, cells, integer_scores=True) -> "RatingsTensor":
        """Build a tensor from (person, item, rater, score-or-None) tuples.

        The first faulty cell raises: ``KeyError`` for an identifier not in
        ``ids``, :class:`IngestError` for a cell listed twice or scored NaN
        (a missing score is None).  On one cell the checks rank in that order.
        """
        rows = [(p, i, r, s) for p, i, r, s in cells]  # each cell unpacks to four values
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
        repeat = _first_repeat(flat[:min(first_unknown, first_nan + 1)])
        if repeat is not None:
            person, item, rater, _ = rows[repeat[0]]
            raise IngestError(f"duplicate cell ({person!r}, {item!r}, {rater!r})")
        if unknown.size and first_unknown <= first_nan:
            x = next(x for x, index in zip(rows[first_unknown], indexes) if x not in index)
            raise KeyError(f"unknown identifier {x!r}")
        if nan_score.size:
            person, item, rater, _ = rows[first_nan]
            raise IngestError(f"NaN score in cell ({person!r}, {item!r}, {rater!r})")
        missing = np.array([s is None for s in columns[3]], dtype=bool)
        values, declared = _fill(shape, flat, np.array(columns[3], dtype=float), missing)
        return cls(scale, ids, values, declared, integer_scores)

    def __eq__(self, other):
        if not isinstance(other, RatingsTensor):
            return NotImplemented
        return (
            self.scale == other.scale
            and self.ids == other.ids
            and np.array_equal(self.values, other.values, equal_nan=True)
            and np.array_equal(self.declared_missing, other.declared_missing)
            and self.integer_scores == other.integer_scores
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


def _flat_codes(shape, pidx, iidx, ridx):
    """Each cell's position ``(p*I + i)*R + r`` in the flattened cube."""
    _, I, R = shape
    return (pidx * I + iidx) * R + ridx


def _first_repeat(keys):
    """``(k, j)`` for the first key equal to an earlier one, ``keys[j]``,
    or None when the keys are distinct."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    earlier = first[inverse]
    repeats = np.flatnonzero(earlier != np.arange(keys.size))
    return (repeats[0], earlier[repeats[0]]) if repeats.size else None


def _fill(shape, flat, scores, missing):
    """The values and declared-missing cubes of the cells at ``flat`` codes;
    ``scores`` is NaN wherever ``missing``."""
    values = np.full(shape, np.nan)
    np.put(values, flat, scores)
    declared = np.zeros(shape, dtype=bool)
    np.put(declared, flat[missing], True)
    return values, declared


def _first_appearance_codes(column):
    """The distinct entries of ``column`` in first-appearance order, and the
    code (position among them) of every entry."""
    index = {}
    codes = [index.setdefault(x, len(index)) for x in column]
    return tuple(index), np.array(codes, dtype=np.intp)


def _ingest_rows(reader, scale_min, scale_max, source):
    header = next(reader, None)
    if header is None:
        raise IngestError(f"{source}: empty file")
    header = [h.strip().lower() for h in header]
    if header != ["person_id", "item_id", "rater_id", "score"]:
        raise IngestError(
            f"{source}: expected header person_id,item_id,rater_id,score, got {','.join(header)}"
        )

    # a line number is the CSV record ordinal + 1; blank records are skipped
    records = list(reader)
    lengths = np.fromiter(map(len, records), np.intp, len(records))
    blank = [k for k in np.flatnonzero(lengths <= 1) if not "".join(records[k]).strip()]
    keep = np.ones(len(records), dtype=bool)
    keep[blank] = False
    rows = list(compress(records, keep))
    lines = np.flatnonzero(keep) + 2

    # Each line check runs over whole columns and records its first faulty
    # row as (row, check, message).  The earliest row wins; on one row the
    # checks rank as listed: field count, blank identifier, score text,
    # duplicate.
    faults = []
    malformed = np.flatnonzero(lengths[keep] != 4)
    end = malformed[0] if malformed.size else len(rows)
    if malformed.size:
        faults.append((end, 0, f"malformed row at line {lines[end]} (expected 4 fields)"))
    columns = [list(map(str.strip, map(itemgetter(k), rows[:end]))) for k in range(4)]
    blank_ids = [column.index("") for column in columns[:3] if "" in column]
    if blank_ids:
        k = min(blank_ids)
        faults.append((k, 1, f"malformed row at line {lines[k]} (blank identifier)"))

    # score texts are parsed by int() once each, in first-appearance order,
    # so the first text that fails also appears first
    texts, score_code = _first_appearance_codes(columns[3])
    distinct = []
    for text in texts:
        try:
            distinct.append(None if text == "" else int(text))
        except ValueError:
            k = columns[3].index(text)
            faults.append((k, 2, f"non-integer score {text!r} at line {lines[k]}"))
            break

    (persons, pidx), (items, iidx), (raters, ridx) = map(_first_appearance_codes, columns[:3])
    shape = (len(persons), len(items), len(raters))
    flat = _flat_codes(shape, pidx, iidx, ridx)
    repeat = _first_repeat(flat)
    if repeat is not None:
        k, j = repeat
        person, item, rater = (column[k] for column in columns[:3])
        faults.append((k, 3, f"duplicate ({person},{item},{rater}) at line {lines[k]} "
                             f"(first seen at line {lines[j]})"))
    if faults:
        raise IngestError(f"{source}: {min(faults)[2]}")

    if not rows:
        raise IngestError(f"{source}: no data rows")

    observed = [s for s in distinct if s is not None]
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

    ids = FacetIds(persons, items, raters)
    outside = [s is not None and not scale.min_score <= s <= scale.max_score for s in distinct]
    out_rows = np.flatnonzero(np.array(outside)[score_code])
    if out_rows.size:
        raise IngestError(f"{source}: score out of range at line {lines[out_rows[0]]}")
    scores = np.array(distinct, dtype=float)[score_code]
    values, declared = _fill(shape, flat, scores, np.isnan(scores))
    if min(observed) > lo or max(observed) < hi:
        warnings.warn(
            f"observed scores span [{min(observed)}, {max(observed)}], narrower "
            f"than the declared scale [{lo}, {hi}]",
            stacklevel=3,
        )
    return RatingsTensor(scale, ids, values, declared)
