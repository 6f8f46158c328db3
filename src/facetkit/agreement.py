"""Classical agreement statistics: quadratic weighted kappa and Cronbach alpha.

Kappa uses the disagreement-weight formulation with weights
``(a - b)^2 / span^2`` over the full declared scale, so results are
deterministic across slices even when some categories are never observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .ratings import RatingsTensor, ScaleSpec


class DegenerateMarginalsError(ValueError):
    """Both raters constant on the same single category: kappa is undefined."""


@dataclass(frozen=True)
class QwkResult:
    rater_a: object
    rater_b: object
    item_group: tuple
    n_pairs: int
    kappa: float
    observed_disagreement: float
    expected_disagreement: float
    degenerate: bool = False


@dataclass(frozen=True)
class AlphaResult:
    rater: object
    item_group: tuple
    n_items: int
    n_persons: int
    alpha: float


@dataclass(frozen=True)
class AgreementTable:
    """QWK results in deterministic candidate-major, benchmark-minor order."""

    rows: tuple

    def to_records(self):
        return [
            {
                "candidate": r.rater_a,
                "benchmark": r.rater_b,
                "items": ",".join(str(i) for i in r.item_group),
                "n_pairs": r.n_pairs,
                "kappa": None if r.degenerate else r.kappa,
                "degenerate": r.degenerate,
            }
            for r in self.rows
        ]


_DEGENERATE = "degenerate marginals: both raters constant on the same category"
# cells whose candidate scores are paired with a benchmark's and tallied at a time
_QWK_BLOCK_CELLS = 2**14


def _weight_matrix(n_cat, span):
    cats = np.arange(n_cat)
    diff = cats[:, None] - cats[None, :]
    return diff**2 / span**2


def _pair_fault(n, non_integer, outside):
    """Why kappa cannot be computed from ``n`` paired scores, or None."""
    if n < 2:
        return f"need at least 2 paired observations, got {n}"
    if non_integer:
        return "kappa requires integer score categories"
    if outside:
        return "score outside the declared scale"
    return None


def _kappas(counts, n, weights):
    """Kappa, observed and expected disagreement of each table in a stack
    of K x K paired-category counts, and whether its chance disagreement
    is zero (degenerate marginals)."""
    row = counts.sum(axis=2)
    col = counts.sum(axis=1)
    outer = row[:, :, None] * col[:, None, :]
    # symmetrized count form: integer-valued sums keep the +-1 anchors exact
    # and make qwk(a, b) == qwk(b, a) bit for bit.  Each table's K*K terms
    # are summed as one contiguous row, so every table gets the summation
    # order of a lone table's .sum()
    flat = (len(counts), -1)
    obs2 = (weights * (counts + counts.transpose(0, 2, 1))).reshape(flat).sum(axis=1)
    exp2 = (weights * (outer + outer.transpose(0, 2, 1))).reshape(flat).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = 1.0 - n * obs2 / exp2
        return kappa, obs2 / (2 * n), exp2 / (2 * n**2), exp2 == 0.0


def _tally(a, b, table, size, K):
    """Pairs of 0-based categories ``a``, ``b`` counted into ``size`` K x K
    tables, pair j into table ``table[j]``.

    Returns the (size, K, K) counts and, per table, the number of pairs,
    of fractional pairs and of pairs outside 0..K-1; only whole pairs
    inside the scale are counted into the tables.
    """
    frac = (a != np.round(a)) | (b != np.round(b))
    out = (a < 0) | (a > K - 1) | (b < 0) | (b > K - 1)
    ok = ~(frac | out)
    codes = (table[ok] * K + a[ok].astype(np.intp)) * K + b[ok].astype(np.intp)
    counts = np.bincount(codes, minlength=size * K * K).reshape(size, K, K)
    return (counts, *(np.bincount(table[sel], minlength=size)
                      for sel in (slice(None), frac, out)))


def qwk_vectors(a, b, min_score, max_score):
    """Quadratic weighted kappa for two paired integer score vectors.

    Returns (kappa, observed_disagreement, expected_disagreement).
    Raises :class:`DegenerateMarginalsError` when chance disagreement is zero.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired score vectors must be 1-d and equal length")
    scale = ScaleSpec(min_score, max_score)
    K = scale.num_categories
    counts, n, non_integer, outside = _tally(a - min_score, b - min_score,
                                             np.zeros(a.size, np.intp), 1, K)
    fault = _pair_fault(n[0], non_integer[0], outside[0])
    if fault:
        raise ValueError(fault)
    kappa, observed, expected, degenerate = _kappas(
        counts.astype(float), n, _weight_matrix(K, scale.span))
    if degenerate[0]:
        raise DegenerateMarginalsError(_DEGENERATE)
    return float(kappa[0]), float(observed[0]), float(expected[0])


def _qwk_rows(tensor, candidates, benchmarks, item_groups):
    """A :class:`QwkResult` per (candidate, benchmark, item group), in that
    nested order, with degenerate tables flagged.

    Every cell of a listed candidate rater is paired with each benchmark's
    score at the same (person, item), and :func:`_tally` counts the pairs
    into a K x K table per (benchmark, rater, item), one benchmark and
    ``_QWK_BLOCK_CELLS`` cells at a time; the blocks' integer tables are
    added, so the counts do not depend on the block size.  A group's table
    is the sum of its listed items' tables, an item listed twice counting
    twice, and a candidate row reads its rater's tables.  The first faulty
    table in row order raises, with the error :func:`qwk` gives it.
    """
    ids, scale = tensor.ids, tensor.scale
    candidates, benchmarks = list(candidates), list(benchmarks)
    groups = [tuple(g) for g in item_groups]
    C, B, G, K = len(candidates), len(benchmarks), len(groups), scale.num_categories
    if not C * B * G:
        return []
    I = len(ids.items)
    cand = np.array([ids.rater_index.get(r, -1) for r in candidates], dtype=np.intp)
    bench = [ids.rater_index.get(r, -1) for r in benchmarks]
    items = [[ids.item_index.get(i, -1) for i in g] for g in groups]
    # (group, item): how many times the group lists the item
    listing = np.array([np.bincount([i for i in g if i >= 0], minlength=I) for g in items])

    # each benchmark's score at every scored cell of a listed candidate; an
    # unknown benchmark's code -1 scored no cell, and an unknown candidate's
    # code -1 reads table row -1, one more, empty one
    cells = tensor.cell_index
    R = len(ids.raters) + 1
    slabs = cells.slabs(bench)
    listed = np.zeros(R, dtype=bool)
    listed[cand] = True

    def block_tally(k, start):   # benchmark k against one block's candidate cells
        sel = start + np.flatnonzero(listed[cells.ridx[start:start + _QWK_BLOCK_CELLS]])
        iidx = cells.iidx[sel]
        b = slabs[k, cells.pidx[sel], iidx] - scale.min_score
        j = np.flatnonzero(~np.isnan(b))
        table = (k * R + cells.ridx[sel][j]) * I + iidx[j]
        return _tally(cells.x[sel][j], b[j], table, B * R * I, K)

    # each benchmark against each block of cells; no cells make one empty block
    blocks = (block_tally(k, start) for k in range(B)
              for start in range(0, max(cells.n, 1), _QWK_BLOCK_CELLS))
    tallies = next(blocks)
    for block in blocks:
        for total, part in zip(tallies, block):
            total += part
    counts, n, non_integer, outside = (
        (listing @ t.reshape(B * R, I, -1)).reshape(B, R, G, *t.shape[1:])
        for t in tallies)

    def by_row(arr):  # (benchmark, rater code, group) -> row order
        return arr[:, cand].transpose(1, 0, 2).ravel()

    unknown = ((cand < 0)[:, None, None] | (np.array(bench) < 0)[None, :, None]
               | np.array([min(g, default=0) < 0 for g in items])[None, None, :]).ravel()
    faults = (unknown, by_row(n) < 2, by_row(non_integer) > 0, by_row(outside) > 0)
    bad = np.flatnonzero(np.logical_or.reduce(faults))
    if bad.size:
        first = bad[0]
        c, k, g = np.unravel_index(first, (C, B, G))
        if unknown[first]:
            ids.codes("rater", (candidates[c], benchmarks[k]))
            ids.codes("item", groups[g])
        raise ValueError(_pair_fault(by_row(n)[first], *(f[first] for f in faults[2:])))

    kappa, observed, expected, degenerate = (
        arr.reshape(B, R, G) for arr in _kappas(
            counts.reshape(-1, K, K).astype(float), n.ravel(),
            _weight_matrix(K, scale.span)))
    kappa[degenerate] = observed[degenerate] = math.nan    # expected is 0.0 there
    return [QwkResult(*key, *fields) for key, fields in zip(
        product(candidates, benchmarks, groups),
        zip(*(by_row(arr).tolist() for arr in (n, kappa, observed, expected, degenerate))))]


def qwk(tensor: RatingsTensor, rater_a, rater_b, items=None) -> QwkResult:
    """QWK between two raters over an item group.

    Scores are pooled over the group: each (person, item) pair where both
    raters scored contributes one paired observation.
    """
    if items is None:
        items = tensor.ids.items
    (row,) = _qwk_rows(tensor, [rater_a], [rater_b], [items])
    if row.degenerate:
        raise DegenerateMarginalsError(_DEGENERATE)
    return row


def qwk_matrix(tensor, benchmark_raters, candidate_raters, item_groups) -> AgreementTable:
    """One QWK per (candidate, benchmark, item group); degenerate cells flagged."""
    return AgreementTable(tuple(_qwk_rows(tensor, candidate_raters, benchmark_raters,
                                          item_groups)))


def grouped_moments(keys, x, size):
    """Count, mean and sample (n - 1) variance of the rows of ``x`` in each
    of ``size`` groups, NaN where undefined; a 2-d ``x`` gives them per
    column, shape (size, columns).  The groups of one size n are reduced
    together, as a (groups, n, ...) array along axis 1; each group's rows,
    in the order given, reduce by the steps of numpy's ``mean`` and ``var``
    along axis 0, so a figure has the bits of those calls on it."""
    count = np.bincount(keys, minlength=size)
    # keys as the smallest unsigned type let the stable sort use radix sort
    x = x[np.argsort(keys.astype(np.min_scalar_type(size)), kind="stable")]
    mean, var = (np.full((size, *x.shape[1:]), np.nan) for _ in range(2))
    start = np.cumsum(count) - count
    for n in set(count.tolist()) - {0}:
        groups = np.flatnonzero(count == n)
        rows = x[start[groups, None] + np.arange(n)]
        mean[groups] = rows.sum(axis=1) / n
        if n > 1:
            dev = rows - mean[groups, None]
            var[groups] = (dev * dev).sum(axis=1) / (n - 1)
    return count, mean, var


def _rater_rows(tensor):
    """Every rater's scores as rows, one per person the rater scored and
    one column per item (NaN where unscored), rater-major and person-major,
    with the rater of each row.  There are as many entries as cells when
    raters score every item of their persons, and never more than the cube
    has."""
    cells = tensor.cell_index
    P, I, R = tensor.shape
    # rater codes as the smallest unsigned type let the stable sort use radix sort
    order = np.argsort(cells.ridx.astype(np.min_scalar_type(R)), kind="stable")
    rater, pidx, iidx = cells.ridx[order], cells.pidx[order], cells.iidx[order]
    key = rater * P + pidx
    new = np.ones(key.size, dtype=bool)
    new[1:] = key[1:] != key[:-1]
    rows = np.full((int(new.sum()), I), np.nan)
    rows[np.cumsum(new) - 1, iidx] = cells.score[order]
    return rows, rater[new]


def _group_alpha(rows, owner, n_raters, items):
    """Persons kept, alpha and total-score variance of every rater on one
    group of item codes, from :func:`_rater_rows`."""
    k = len(items)
    mat = rows[:, items]
    complete = ~np.isnan(mat).any(axis=1)      # listwise deletion
    # a boolean selection is C-ordered: a person's items sum as a lone row's
    mat, owner = mat[complete], owner[complete]
    n, mean, total_var = grouped_moments(owner, mat.sum(axis=1), n_raters)
    # totals that are equal but for rounding (non-integer scores) leave a
    # variance of order eps^2 * mean^2: count a few ulps of mean^2 as none
    total_var[total_var <= 4 * np.finfo(float).eps * mean**2] = 0.0
    _, _, item_var = grouped_moments(owner, mat, n_raters)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = (k / (k - 1)) * (1.0 - item_var.sum(axis=1) / total_var)
    return n.tolist(), alpha.tolist(), total_var.tolist()


def alpha_results(tensor, raters, item_groups):
    """Cronbach alpha of each rater on each item group, group-major.

    Each group is computed once per tensor for all raters at once, in one
    pass over their cells, and later calls read it back.  The first faulty
    (group, rater), in that order, raises with the error
    :func:`cronbach_alpha` gives it.
    """
    ids = tensor.ids
    raters = list(raters)
    memo = tensor.derived.setdefault("alpha", {})   # item codes -> stats of every rater
    rows = None
    results = []
    for items in item_groups:
        items = tuple(items)
        k = len(items)
        codes = tuple(ids.item_index.get(i, -1) for i in items)
        if k >= 2 and min(codes) >= 0 and codes not in memo:
            if rows is None:
                rows = _rater_rows(tensor)
            memo[codes] = _group_alpha(*rows, len(ids.raters), codes)
        for rater in raters:
            (code,) = ids.codes("rater", [rater])
            if k < 2:
                raise ValueError(f"need at least 2 items for alpha, got {k}")
            ids.codes("item", items)
            n, alpha, total_var = (stat[code] for stat in memo[codes])
            if n < 2:
                raise ValueError(f"need at least 2 persons after listwise deletion, got {n}")
            if total_var == 0.0:
                raise ValueError("no person variance: total scores are constant")
            results.append(AlphaResult(rater, items, k, n, alpha))
    return results


def cronbach_alpha(tensor: RatingsTensor, rater, items) -> AlphaResult:
    """Cronbach alpha of one rater's scores across an item group.

    Persons with any missing item in the group are dropped listwise.
    Sample variances use the n-1 denominator.  Alpha can go negative;
    it is reported as computed, never clamped.
    """
    return alpha_results(tensor, [rater], [items])[0]
