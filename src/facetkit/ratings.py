"""Rating data model: score scale, facet identifiers, and the ratings tensor.

A tensor stores its listed cells, scored and declared missing, as two flat
arrays in person-major order: each cell's position in the flattened cube
and its score.  So its memory scales with the cells, not with persons x
items x raters.  Every statistic in the toolkit reads views derived from
this one store; the dense cube is built only on request.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import marshal
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat as repeated
from operator import itemgetter

import numpy as np

# cells of tensor.json text built and handed on at a time
_JSON_BLOCK_CELLS = 2**13
# encoder tokens of other JSON text joined and handed on at a time
_JSON_CHUNK_TOKENS = 2**12
_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def canonical_json(obj) -> str:
    """The one JSON encoding of every artifact: sorted keys, two-space
    indent, trailing newline, so equal objects always give equal bytes.
    It is :func:`canonical_json_chunks` joined."""
    return "".join(canonical_json_chunks(obj))


def canonical_json_chunks(obj):
    """Yield the text of :func:`canonical_json` in pieces, each joined from
    ``_JSON_CHUNK_TOKENS`` of the encoder's tokens, so that only one piece's
    tokens are held at a time."""
    tokens = _ENCODER.iterencode(obj)
    while chunk := "".join(islice(tokens, _JSON_CHUNK_TOKENS)):
        yield chunk
    yield "\n"


# -- the one reader of JSON input documents ------------------------------------
# A kind says what a JSON value must be: float (any number), int, str, bool or
# None (null), and no bool is a number; [kind, ...], a list of any length;
# [kind, kind], a list of exactly those elements; {str: kind}, an object of
# any keys; a Fields, an object of known keys; or a tuple of kinds, any one.

_SCALARS = {float: ((int, float), "number"), int: ((int,), "integer"), str: ((str,), "string"),
            bool: ((bool,), "boolean"), None: ((type(None),), "null")}  # Python types, noun


class Fields:
    """An object holding every key of ``required`` and any of ``optional``,
    each mapped to its value's kind; a key left out takes the default of the
    field it fills.  Errors name a key by its path or by its ``labels`` entry,
    formatted with the object's values, and an unknown one as a ``noun``."""

    def __init__(self, required, optional=(), noun=None, labels=()):
        self.required, self.optional = required, dict(optional)
        self.noun, self.labels = noun, dict(labels)

    @classmethod
    def of(cls, datacls, kind_of, noun=None):
        """The fields of ``datacls`` that ``kind_of`` gives a kind; those
        without a default are required."""
        rows = [(f, k) for f in dataclasses.fields(datacls) if (k := kind_of(f)) is not None]
        required = {f.name: k for f, k in rows
                    if f.default is f.default_factory is dataclasses.MISSING}
        return cls(required, {f.name: k for f, k in rows if f.name not in required}, noun)


def _fits(value, kind):
    if isinstance(kind, list):
        return isinstance(value, list) and (kind[-1] is ... or len(value) == len(kind))
    if isinstance(kind, (dict, Fields)):
        return isinstance(value, dict) and value.keys() >= getattr(kind, "required", {}).keys()
    return isinstance(value, _SCALARS[kind][0]) and (kind is bool or not isinstance(value, bool))


def _noun(kind):
    if isinstance(kind, list):
        return "list" if kind[-1] is ... else f"list of {len(kind)}"
    if isinstance(kind, (dict, Fields)):
        keys = getattr(kind, "required", ())
        return "object" + (f" with keys {', '.join(map(repr, keys))}" if keys else "")
    return _SCALARS[kind][1]


def _all_fit(values, kind):
    """Whether ``values`` are all of the scalar ``kind``, by exact type at C speed."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return (all(k is None or isinstance(k, type) for k in kinds)
            and {t for k in kinds for t in _SCALARS[k][0]}.issuperset(map(type, values)))


def checked_json(value, kind, name, where=""):
    """``value`` itself if it is a JSON value of ``kind``; else one
    :class:`ValueError` naming the key path of the first mismatch, or every
    unknown key of an object.  ``name`` names the whole document and
    ``where`` the path of ``value`` within it."""
    at = where or name
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for kind in kinds:
        if _fits(value, kind):
            break
    else:
        raise ValueError(f"{at} must be a JSON {' or '.join(map(_noun, kinds))}, got {value!r}")
    if isinstance(kind, list) and kind[-1] is ...:
        # scalars, and lists of scalars by position (a tensor's cells), are
        # checked a type set at a time; a mismatch is then sought one by one
        item = kind[0]
        if _all_fit(value, item) or (isinstance(item, list) and {list}.issuperset(map(type, value))
                                     and {len(item)}.issuperset(map(len, value))
                                     and all(_all_fit(map(itemgetter(j), value), k)
                                             for j, k in enumerate(item))):
            return value
        for k, x in enumerate(value):  # a scalar is named by its list
            checked_json(x, item, name, at if _all_fit((), item) else f"{at}[{k}]")
    elif isinstance(kind, list):
        for k, (x, x_kind) in enumerate(zip(value, kind)):
            checked_json(x, x_kind, name, f"{at}[{k}]")
    elif isinstance(kind, dict):
        for key, x in value.items():
            checked_json(x, kind[str], name, f"{at}[{key!r}]")
    elif isinstance(kind, Fields):
        unknown = sorted(value.keys() - kind.required.keys() - kind.optional.keys())
        if unknown:
            raise ValueError(f"unknown {kind.noun or at + ' key'}(s): {', '.join(unknown)}")
        for key, x_kind in {**kind.required, **kind.optional}.items():
            if key in value:
                label = kind.labels.get(key)
                path = label.format_map(value) if label else f"{where}.{key}" if where else key
                checked_json(value[key], x_kind, name, path)
    return value


#: The facets of a tensor, in the order of its axes.
FACETS = ("person", "item", "rater")


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
        return cls(**checked_json(d, SCALE_JSON, "scale"))


SCALE_JSON = Fields.of(ScaleSpec, lambda f: int)


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

    def codes(self, facet, names) -> list:
        """The codes of ``names`` among the identifiers of ``facet``, one of
        :data:`FACETS`.  The first name not among them raises ``KeyError``:
        the one unknown-identifier check of every lookup by id."""
        index = getattr(self, facet + "_index")
        try:
            return [index[x] for x in names]
        except KeyError as e:
            raise KeyError(f"unknown {facet} identifier {e.args[0]!r}") from None

    def to_dict(self) -> dict:
        return {
            "persons": list(self.persons),
            "items": list(self.items),
            "raters": list(self.raters),
        }


_ID_JSON = (str, float, bool, None)  # an identifier in JSON: any scalar
#: The identifiers of each facet in JSON, keyed as :meth:`FacetIds.to_dict` keys them.
FACET_IDS_JSON = Fields.of(FacetIds, lambda f: [_ID_JSON, ...])


class CellIndex:
    """The scored cells of a tensor as flat arrays, in person-major order.

    A tensor derives it from its store on first read.  ``pidx``, ``iidx``
    and ``ridx`` locate each scored cell (also keyed by facet name in
    ``index``), ``score`` holds its score and ``x`` its 0-based category,
    ``score - min_score``, or ``score`` itself when ``min_score`` is 0.
    Every consumer of per-cell quantities (estimation, fit statistics, the
    log-likelihood, agreement, the link check :meth:`unlinked`) reads it
    through :attr:`RatingsTensor.cell_index`; a selection that is read many
    times, such as the cells of a fit, is a :meth:`subset` of it.

    A cell list may stand for more persons than it lists: ``group_size``,
    None for a tensor's own cells, gives how many persons each person code
    stands for, each scored on that code's cells.  Then ``mult`` holds each
    cell's multiplicity, its person's group size, and :meth:`sums` and
    :meth:`observed` weight every cell by it.  Such a list's ``score`` and
    ``x`` are one person's of each group; ``counts`` holds all of their
    scores, a (cells, categories) count of the persons scoring each
    0-based category on each cell, which ``x_total`` and :meth:`totals`
    read.  A list that stands for all of a tensor's cells gives each of
    those cells' row in it, in their order, as ``rows``.
    """

    def __init__(self, pidx, iidx, ridx, score, shape, min_score=0, group_size=None,
                 counts=None, rows=None):
        self.pidx, self.iidx, self.ridx, self.score = pidx, iidx, ridx, score
        self.x = score - min_score if min_score else score
        self.n = self.pidx.size
        self.group_size, self.counts, self.rows = group_size, counts, rows
        self.mult = None if group_size is None else group_size[pidx].astype(float)
        for arr in (self.pidx, self.iidx, self.ridx, self.score, self.x, group_size,
                    self.mult, counts, rows):
            if arr is not None:
                arr.setflags(write=False)
        self.index = dict(zip(FACETS, (self.pidx, self.iidx, self.ridx)))
        self.shape, self.min_score = shape, min_score
        self.size = dict(zip(FACETS, shape))
        self.x_total = (self.x if counts is None
                        else counts @ np.arange(counts.shape[1], dtype=float))
        self.n_scored = self.n if self.mult is None else int(self.mult.sum())

    def subset(self, sel) -> "CellIndex":
        """The selected cells, in the same order, as a cell list of their own."""
        return CellIndex(self.pidx[sel], self.iidx[sel], self.ridx[sel], self.score[sel],
                         self.shape, self.min_score, self.group_size,
                         None if self.counts is None else self.counts[sel])

    def slabs(self, raters):
        """The scores of each rater code in ``raters`` as a (persons, items)
        slab, NaN where it scored nothing; shape (len(raters), persons, items)."""
        P, I, _ = self.shape
        slabs = np.full((len(raters), P, I), np.nan)
        for slab, rater in zip(slabs, raters):
            sel = self.ridx == rater
            slab[self.pidx[sel], self.iidx[sel]] = self.score[sel]
        return slabs

    def locations(self, ability, severity, difficulty):
        """``ability - severity - difficulty`` for every cell."""
        return ability[self.pidx] - severity[self.ridx] - difficulty[self.iidx]

    def sums(self, facet, weights=None, sel=slice(None)):
        """Per-element sums of ``weights`` over the selected cells, each
        cell counted ``mult`` times if the list has multiplicities.

        Without weights this counts the selected cells of each element.
        """
        if self.mult is not None:
            weights = self.mult[sel] if weights is None else weights * self.mult[sel]
        return np.bincount(self.index[facet][sel], weights=weights,
                           minlength=self.size[facet])

    def totals(self, facet, sel=slice(None)):
        """Per-element raw totals over the selected cells, of every person
        the cells stand for (``x_total``)."""
        return np.bincount(self.index[facet][sel], self.x_total[sel],
                           minlength=self.size[facet])

    def observed(self):
        """Each cell's row and observed 0-based category, the index of its
        observed probability in the cells' (cells, K+1) probabilities, and
        the cells' multiplicities (None if the list has none)."""
        return np.arange(self.n), self.x.astype(int), self.mult

    def unlinked(self, keep=None):
        """The first two elements these cells leave unlinked, as ``(facet,
        code, facet, code, via)`` with the facet they share no element of,
        or None.  The kept elements (``keep`` maps facet names to masks; all
        by default) must be one component in each of three graphs: persons
        and raters joined by the cells, persons and items likewise, and
        raters and items by their distinct (rater, item) pairs; an element
        with no cell is linked to nothing.  Necessary for identified
        measures, not sufficient."""
        for a, b, via in (("person", "rater", "item"), ("person", "item", "rater"),
                          ("rater", "item", "person")):
            (na, nb), ends = (self.size[a], self.size[b]), (self.index[a], self.index[b])
            if a == "rater":
                pairs = np.bincount(ends[0] * nb + ends[1], minlength=na * nb)
                ends = np.divmod(np.flatnonzero(pairs), nb)
            # hook-and-compress: each round hooks the larger root of an edge
            # onto the smaller, then pointer jumping flattens the trees
            label, a_end, b_end = np.arange(na + nb), ends[0], na + ends[1]
            while True:
                la, lb = label[a_end], label[b_end]
                if np.array_equal(la, lb):
                    break
                low = np.minimum(la, lb)
                np.minimum.at(label, la, low)
                np.minimum.at(label, lb, low)
                jumped = label[label]
                while not np.array_equal(jumped, label):
                    label, jumped = jumped, jumped[jumped]
            labels = {a: label[:na], b: label[na:]}
            kept = {f: np.arange(n) if keep is None else np.flatnonzero(keep[f])
                    for f, n in ((a, na), (b, nb))}
            for f, g, shared in ((a, a, b), (b, b, a), (a, b, via)):
                apart = np.flatnonzero(labels[g][kept[g]] != labels[f][kept[f][0]])
                if apart.size:
                    return f, kept[f][0], g, kept[g][apart[0]], shared
        return None


class RatingsTensor:
    """Immutable scores indexed by (person, item, rater), stored as cells.

    The store is the listed cells, scored and declared missing (listed
    blank, as opposed to simply absent from the input), in two read-only
    arrays: ``listed_codes``, the sorted flat positions
    ``(p*I + i)*R + r``, and ``listed_scores``, their scores, NaN for a
    declared-missing cell.  Memory scales with the cells, not with P x I x R.
    The constructor takes the store itself, ``codes`` strictly increasing in
    ``[0, P*I*R)``, and keeps read-only views of the arrays it is given, so
    the caller must not write them afterwards.

    Everything else is derived on first read: :attr:`cell_index`, the
    scored cells, and the read-only P x I x R cubes ``values`` (float
    scores, NaN where unscored) and ``present_mask``.
    """

    def __init__(self, scale, ids, codes, scores, integer_scores=True):
        codes, scores = np.asarray(codes), np.asarray(scores, dtype=float)
        size = len(ids.persons) * len(ids.items) * len(ids.raters)
        if (codes.ndim != 1 or codes.dtype.kind not in "iu" or codes.shape != scores.shape
                or np.any(codes[1:] <= codes[:-1])
                or codes.size and not 0 <= codes[0] <= codes[-1] < size):
            raise ValueError(f"codes must be one strictly increasing integer in [0, {size}) "
                             "for each score")
        codes, scores = codes.astype(np.intp, copy=False).view(), scores.view()
        _check_scores(scale, scores[~np.isnan(scores)], integer_scores)
        codes.setflags(write=False)
        scores.setflags(write=False)
        self.__dict__.update(scale=scale, ids=ids, listed_codes=codes, listed_scores=scores,
                             integer_scores=integer_scores)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable tensor")

    # -- basic queries ------------------------------------------------------

    @cached_property
    def cell_index(self) -> CellIndex:
        """The scored cells of the store."""
        scored = ~np.isnan(self.listed_scores)
        return CellIndex(*np.unravel_index(self.listed_codes[scored], self.shape),
                         self.listed_scores[scored], self.shape, self.scale.min_score)

    @cached_property
    def values(self) -> np.ndarray:
        return _cube(self.shape, self.listed_codes, self.listed_scores, np.nan)

    @cached_property
    def present_mask(self) -> np.ndarray:
        return _cube(self.shape, self.listed_codes, ~np.isnan(self.listed_scores), False)

    @property
    def n_cells(self) -> int:
        return self.cell_index.n

    @property
    def shape(self) -> tuple:
        return len(self.ids.persons), len(self.ids.items), len(self.ids.raters)

    @cached_property
    def derived(self) -> dict:
        """Statistics computed from this tensor, kept for reuse.  The tensor
        is immutable, so they never go stale."""
        return {}

    @cached_property
    def connected(self) -> bool:
        """True when :meth:`CellIndex.unlinked` finds no pair in all cells."""
        return self.cell_index.unlinked() is None

    def with_rater(self, rater_id, scores, integer_scores=None) -> "RatingsTensor":
        """Tensor extended by one rater who lists every (person, item) cell;
        ``scores`` has shape (persons, items), and a NaN declares its cell
        missing."""
        if rater_id in self.ids.rater_index:
            raise ValueError(f"rater {rater_id!r} already exists")
        scores = np.asarray(scores, dtype=float)
        P, I, R = self.shape
        if scores.shape != (P, I):
            raise ValueError(f"scores shape {scores.shape} != ({P}, {I})")
        if integer_scores is None:
            integer_scores = self.integer_scores
        # a cell of person p and item i moves from (p*I + i)*R + r to
        # (p*I + i)*(R + 1) + r; the new rater's cells take r = R
        pi, r = np.divmod(self.listed_codes, R)
        flat = np.concatenate([pi * (R + 1) + r, np.arange(P * I) * (R + 1) + R])
        order = np.argsort(flat, kind="stable")
        ids = FacetIds(self.ids.persons, self.ids.items, self.ids.raters + (rater_id,))
        return RatingsTensor(self.scale, ids, flat[order],
                             np.concatenate([self.listed_scores, scores.ravel()])[order],
                             integer_scores)

    # -- long-format views --------------------------------------------------

    def long_rows(self):
        """Yield (person, item, rater, score-or-None) rows, person-major order.

        Covers present cells and declared-missing cells only.
        """
        persons, items, raters = self.ids.persons, self.ids.items, self.ids.raters
        pidx, iidx, ridx = np.unravel_index(self.listed_codes, self.shape)
        scores = map(_score_value, self.listed_scores.tolist())
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

    def _json_head(self) -> dict:
        d = {"scale": self.scale.to_dict(), "facets": self.ids.to_dict()}
        if not self.integer_scores:
            d["integer_scores"] = False
        return d

    def to_json_dict(self) -> dict:
        return {**self._json_head(), "cells": [list(row) for row in self.long_rows()]}

    def to_json_text(self) -> str:
        """``canonical_json(self.to_json_dict())``, byte for byte: the
        :meth:`json_chunks` joined."""
        return "".join(self.json_chunks())

    def json_chunks(self):
        """Yield the text of :meth:`to_json_text` in pieces, one for each
        block of ``_JSON_BLOCK_CELLS`` cells, then one for the head.

        Under ``indent`` the json module encodes with its pure-Python
        encoder, so only the small head goes through :func:`canonical_json`.
        The cells are joined from strings: each id and each distinct score
        is encoded once, and rows are laid out as ``indent=2`` would.  An
        integer score's token is found by its category, NaN's after the
        last, when the scale has no more categories than the store has
        cells; other scores are coded by their rank among the distinct
        scores, all cells in one pass.  Each block unravels its own codes;
        only one block's codes, pieces and text are held at a time.
        """
        codes, n = self.listed_codes, self.listed_codes.size
        lo, span = self.scale.min_score, self.scale.span
        if self.integer_scores and span < n:
            scores = np.append(lo + np.arange(span + 1.0), np.nan)

            def score_codes(block):
                x = self.listed_scores[block] - lo
                return np.where(np.isnan(x), span + 1, x).astype(np.intp)
        else:
            scores, score_code = np.unique(self.listed_scores, return_inverse=True)
            score_codes = score_code.__getitem__

        # a row reads ',\n    [\n      P,\n      I,\n      R,\n      S\n    ]'
        # (the first without its comma); each token carries the layout around it
        sep = ",\n      "
        columns = [[before + json.dumps(x) + after for x in entries]
                   for entries, before, after in (
                       (self.ids.persons, ",\n    [\n      ", sep),
                       (self.ids.items, "", sep),
                       (self.ids.raters, "", sep),
                       (map(_score_value, scores.tolist()), "", "\n    ]"))]
        # "cells" sorts before every other key, so it opens the object
        head = canonical_json(self._json_head())[2:]
        if not n:
            yield '{\n  "cells": [],\n' + head
            return
        yield '{\n  "cells": ['
        for start in range(0, n, _JSON_BLOCK_CELLS):
            block = slice(start, start + _JSON_BLOCK_CELLS)
            pieces = [None] * (4 * len(codes[block]))
            for k, (tokens, column) in enumerate(zip(columns, (
                    *np.unravel_index(codes[block], self.shape), score_codes(block)))):
                pieces[k::4] = map(tokens.__getitem__, column.tolist())
            if not start:
                pieces[0] = pieces[0][1:]   # the first row has no comma
            yield "".join(pieces)
        yield "\n  ],\n" + head

    @classmethod
    def from_json_dict(cls, d: dict) -> "RatingsTensor":
        d = checked_json(d, _TENSOR_JSON, "the tensor")
        return cls.from_cells(ScaleSpec.from_dict(d["scale"]), FacetIds(**d["facets"]),
                              d["cells"], integer_scores=d.get("integer_scores", True))

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
        rows = cells if isinstance(cells, list) else list(cells)
        if not {tuple, list}.issuperset(map(type, rows)) or set(map(len, rows)) - {4}:
            rows = [(p, i, r, s) for p, i, r, s in rows]  # the first cell not of 4 values raises
        columns = [list(map(itemgetter(j), rows)) for j in range(4)]
        indexes = (ids.person_index, ids.item_index, ids.rater_index)
        pidx, iidx, ridx = (np.fromiter(map(index.get, column, repeated(-1)), np.intp, len(rows))
                            for index, column in zip(indexes, columns))
        unknown = np.flatnonzero((pidx < 0) | (iidx < 0) | (ridx < 0))
        nan_score = np.flatnonzero([s is not None and s != s for s in columns[3]])
        first_unknown, first_nan = (faulty[0] if faulty.size else len(rows)
                                    for faulty in (unknown, nan_score))
        shape = (len(ids.persons), len(ids.items), len(ids.raters))
        flat = _flat_codes(shape, pidx, iidx, ridx)
        order, repeat = _person_major(flat[:min(first_unknown, first_nan + 1)])
        if repeat is not None:
            person, item, rater, _ = rows[repeat[0]]
            raise IngestError(f"duplicate cell ({person!r}, {item!r}, {rater!r})")
        if unknown.size and first_unknown <= first_nan:
            x = next(x for x, index in zip(rows[first_unknown], indexes) if x not in index)
            raise KeyError(f"unknown identifier {x!r}")
        if nan_score.size:
            person, item, rater, _ = rows[first_nan]
            raise IngestError(f"NaN score in cell ({person!r}, {item!r}, {rater!r})")
        return cls(scale, ids, flat[order], np.array(columns[3], dtype=float)[order],
                   integer_scores)

    def __eq__(self, other):
        if not isinstance(other, RatingsTensor):
            return NotImplemented
        return ((self.scale, self.ids, self.integer_scores)
                == (other.scale, other.ids, other.integer_scores)
                and np.array_equal(self.listed_codes, other.listed_codes)
                and np.array_equal(self.listed_scores, other.listed_scores, equal_nan=True))

    __hash__ = None


_TENSOR_JSON = Fields({"scale": SCALE_JSON, "facets": FACET_IDS_JSON,
                       "cells": [[_ID_JSON, _ID_JSON, _ID_JSON, (float, None)], ...]},
                      {"integer_scores": bool}, "tensor key")


def ingest_csv(path, scale_min=None, scale_max=None) -> RatingsTensor:
    """Read a long-format ratings CSV into a validated :class:`RatingsTensor`.

    The file must carry the header ``person_id,item_id,rater_id,score``.
    A blank score declares the triple missing.  The scale defaults to the
    observed min/max unless ``scale_min``/``scale_max`` are given.

    A plain file is split and coded by numpy from its bytes: the header
    exactly, then printable ASCII records of four unquoted fields, none
    with a space at either end, each record ending in a line feed, or each
    in a carriage return and a line feed (see ``_plain_read``).  Any other
    file is read with the ``csv`` module.  Both reads give the same tensor,
    or the same error.
    """
    with open(path, "rb") as f:
        read = _plain_read(f.read())
    if read is None:
        with open(path, "r", encoding="utf-8", newline="") as f:
            read = _csv_read(csv.reader(f), str(path))
    return _ingest_read(*read, scale_min, scale_max, str(path))


def ingest_csv_text(text, scale_min=None, scale_max=None) -> RatingsTensor:
    """Same as :func:`ingest_csv` but from an in-memory string."""
    # newline="" as for a file: the csv module splits lines itself, and a
    # quoted line break stays inside its field
    read = (_plain_read(text.encode("utf-8", "surrogatepass"))
            or _csv_read(csv.reader(io.StringIO(text, newline="")), "<text>"))
    return _ingest_read(*read, scale_min, scale_max, "<text>")


def _flat_codes(shape, pidx, iidx, ridx):
    """Each cell's position ``(p*I + i)*R + r`` in the flattened cube, as
    ``intp`` whatever the type of the codes."""
    _, I, R = shape
    return (pidx.astype(np.intp) * I + iidx) * R + ridx


def _person_major(keys):
    """The order that sorts the flat codes ``keys`` person-major, and
    ``(k, j)`` for the first key equal to an earlier one, ``keys[j]``, or
    None when the keys are distinct."""
    if np.all(keys[1:] > keys[:-1]):  # already person-major, as written files are
        return np.arange(keys.size), None
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    earlier = first[inverse]
    repeats = np.flatnonzero(earlier != np.arange(keys.size))
    return first, ((repeats[0], earlier[repeats[0]]) if repeats.size else None)


def _check_scores(scale, scores, integer_scores):
    """Raise unless every score lies on ``scale``, and is an integer where
    ``integer_scores`` asks for one."""
    if scores.size:
        if scores.min() < scale.min_score or scores.max() > scale.max_score:
            raise ValueError(f"score outside scale [{scale.min_score}, {scale.max_score}]")
        if integer_scores and not np.all(scores == np.round(scores)):
            raise ValueError("non-integer score in an integer-score tensor")


def _cube(shape, flat, entries, empty):
    """A read-only cube holding ``entries`` at the ``flat`` codes and
    ``empty`` elsewhere."""
    cube = np.full(shape, empty)
    cube.ravel()[flat] = entries
    cube.setflags(write=False)
    return cube


class _Coder(dict):
    """Codes one column's raw field texts.  A text's code is the position
    of its stripped text among the distinct stripped texts, in order of
    first appearance, which ``ids`` lists.  Each distinct raw text is
    stripped once."""

    def __init__(self):
        super().__init__()
        self.ids = {}

    def __missing__(self, raw):
        code = self[raw] = self.ids.setdefault(raw.strip(), len(self.ids))
        return code


def _csv_read(reader, source):
    """Read a CSV with the ``csv`` module: each column's codes and distinct
    texts, in order of first appearance, then the ordinals of the blank
    records skipped, and ``(line, 0, message)`` for the first record with
    the wrong field count or one the csv module cannot read or decode, else
    None.  No later line can hold an earlier fault, so such a record ends
    the read.
    """
    pc, ic, rc, sc = coders = [_Coder() for _ in range(4)]
    pcodes, icodes, rcodes, scodes = codes = [], [], [], []
    skipped, stop, line = [], None, 1  # line: that of the record read next
    try:
        header = next(reader, None)
        if header is None:
            raise IngestError(f"{source}: empty file")
        header = [h.strip().lower() for h in header]
        if header != ["person_id", "item_id", "rater_id", "score"]:
            raise IngestError(f"{source}: expected header person_id,item_id,rater_id,score, "
                              f"got {','.join(header)}")
        line = 2
        for record in reader:
            if len(record) == 4:
                p, i, r, s = record
                pcodes.append(pc[p])
                icodes.append(ic[i])
                rcodes.append(rc[r])
                scodes.append(sc[s])
            elif len(record) <= 1 and not "".join(record).strip():
                skipped.append(line - 2)
            else:
                stop = (line, 0, f"malformed row at line {line} (expected 4 fields)")
                break
            line += 1
    except csv.Error as e:
        stop = (line, 0, f"unreadable record at line {line} ({e})")
    except UnicodeDecodeError:
        # the file is decoded a chunk at a time, so the byte's own line is
        # unknown: the read ends where the decoder met it, and a fault on an
        # earlier line still wins
        stop = (line, 0, "not UTF-8 text")
    return ([(np.fromiter(column, np.intp, len(column)), list(coder.ids))
             for column, coder in zip(codes, coders)],
            np.fromiter(skipped, np.intp, len(skipped)), stop)


_HEADER = b"person_id,item_id,rater_id,score\n"
# the bytes of a plain file: printable ASCII but the quote, and the line feed
_PLAIN = bytes(b for b in range(256) if b == 10 or 32 <= b < 127 and b != 34)
# _MASKS[k] keeps the first k bytes of a little-endian 8-byte word
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)


def _plain_read(raw):
    """Read the bytes of a plain file with numpy into what :func:`_csv_read`
    returns, or return None for any other file.

    A plain file is :data:`_HEADER`, then records of four fields, each
    ending in a line feed.  It holds only :data:`_PLAIN` bytes, no field
    longer than the csv module's field limit and none with a space at
    either end, so the csv module would split it at every comma and line
    feed and strip no field.  A file whose every line ends in a carriage
    return and a line feed is read as the same file with line feeds alone,
    as the csv module reads it; any other carriage return makes a file not
    plain.
    """
    if b"\r" in raw and raw.count(b"\r") == raw.count(b"\r\n") == raw.count(b"\n"):
        raw = raw.replace(b"\r\n", b"\n")
    if not (raw.startswith(_HEADER) and raw.endswith(b"\n") and not raw.translate(None, _PLAIN)):
        return None
    data = np.frombuffer(raw + bytes(8), np.uint8)  # the words at the end read zeros
    # field c of record j, the header being record 0, lies between
    # sep[4j + c] and sep[4j + c + 1]; -1 ends the record before the header
    sep = np.concatenate(([-1], np.flatnonzero((data == 44) | (data == 10))),
                         dtype=np.int32 if len(raw) < 1 << 31 else np.intp)
    # every fourth separator, and no other, a line feed
    if not (sep.size == 4 * raw.count(b"\n") + 1 and np.all(data[sep[4::4]] == 10)
            and np.diff(sep).max() <= csv.field_size_limit() + 1):
        return None
    words = np.ndarray(len(raw) + 1, "<u8", data, strides=(1,))  # 8 bytes from each offset
    columns = []
    for c in range(4):
        start, end = sep[c + 4:-1:4] + 1, sep[c + 5::4]
        # a space at either end of a field; an empty field's ends are separators
        if np.any(data[start] == 32) or np.any(data[end - 1] == 32):
            return None
        codes, first = _field_codes(words, start, end - start)
        columns.append((codes, [raw[a:b].decode() for a, b in
                                zip(start[first].tolist(), end[first].tolist())]))
    return columns, np.zeros(0, np.intp), None


def _field_codes(words, start, width):
    """Each field's code among the distinct fields, in order of first
    appearance, as the smallest unsigned type that holds their count, and
    the row where each first appears.  A field's key is its
    first 8 bytes as a word, zero-padded, as no field holds a zero byte;
    then each further 8 bytes refine the keys of the fields that have them."""
    key = words[start] & _MASKS[np.minimum(width, 8)]
    longer = np.flatnonzero(width > 8)
    if longer.size:  # small codes for the words, so that a pair of them fits in 64 bits
        key = np.unique(key, return_inverse=True)[1]
    skip = 8
    while longer.size:
        word = words[start[longer] + skip] & _MASKS[np.minimum(width[longer] - skip, 8)]
        word = np.unique(word, return_inverse=True)[1]
        pair = key[longer] * (word.max() + 1) + word
        # past every code in use: a longer field never meets a shorter one
        key[longer] = key.max() + 1 + np.unique(pair, return_inverse=True)[1]
        skip += 8
        longer = longer[width[longer] > skip]
    # numpy sorts keys of up to 16 bits, such as most score texts, by radix
    key = key.astype(np.min_scalar_type(key.max(initial=0)))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order).astype(np.min_scalar_type(order.size))[inverse], first[order]


def _ingest_read(columns, skipped, stop, scale_min, scale_max, source):
    """The tensor of a read's columns, or the :class:`IngestError` of its
    first fault; ``columns``, ``skipped`` and ``stop`` are as
    :func:`_csv_read` returns them."""
    (pidx, persons), (iidx, items), (ridx, raters), (score_code, score_texts) = columns
    # a line number is the CSV record ordinal + 1, and blank records count:
    # row k follows the blank records with fewer than k + 1 rows before them
    rows_before = skipped - np.arange(skipped.size)

    def line(k):
        return int(k + 2 + np.searchsorted(rows_before, k, side="right"))

    # Each line check records its first faulty row as (line, check,
    # message).  The earliest line wins; on one line the checks rank as
    # listed: field count (or an unreadable record), blank identifier,
    # score text, duplicate.
    faults = [] if stop is None else [stop]
    for texts, codes in zip((persons, items, raters), (pidx, iidx, ridx)):
        if "" in texts:
            at = line(np.argmax(codes == texts.index("")))
            faults.append((at, 1, f"malformed row at line {at} (blank identifier)"))

    # score texts are parsed by int() once each, in first-appearance order,
    # so the first text that fails also appears first
    distinct = []
    for text in score_texts:
        try:
            distinct.append(None if text == "" else int(text))
        except ValueError:
            at = line(np.argmax(score_code == len(distinct)))
            faults.append((at, 2, f"non-integer score {text!r} at line {at}"))
            break

    # fresh copies of the ids, made side by side: the originals lie scattered
    # among the read's freed records and would keep that memory from reuse
    persons, items, raters = (marshal.loads(marshal.dumps(tuple(texts)))
                              for texts in (persons, items, raters))
    shape = (len(persons), len(items), len(raters))
    flat = _flat_codes(shape, pidx, iidx, ridx)
    order, repeat = _person_major(flat)
    if repeat is not None:
        k, j = repeat
        cell = f"{persons[pidx[k]]},{items[iidx[k]]},{raters[ridx[k]]}"
        faults.append((line(k), 3, f"duplicate ({cell}) at line {line(k)} "
                                   f"(first seen at line {line(j)})"))
    if faults:
        raise IngestError(f"{source}: {min(faults)[2]}")

    if not flat.size:
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
        raise IngestError(f"{source}: score out of range at line {line(out_rows[0])}")
    scores = np.array(distinct, dtype=float)[score_code]
    if min(observed) > lo or max(observed) < hi:
        warnings.warn(
            f"observed scores span [{min(observed)}, {max(observed)}], narrower "
            f"than the declared scale [{lo}, {hi}]",
            stacklevel=3,
        )
    return RatingsTensor(scale, ids, flat[order], scores[order])
