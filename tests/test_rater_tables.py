"""The per-rater tables and greedy pruning against the loops they replaced.

``reference_qwk_matrix``, ``reference_alpha_table`` and
``reference_descriptive_table`` are the per-pair, per-rater and
per-(rater, item) loops that ``qwk_matrix``, ``alpha_table`` and
``descriptive_table`` replaced with grouped passes over the cells.
``reference_greedy_prune`` is the pruning loop that scored each
leave-one-out trial one (benchmark, item) vector pair at a time, where
``greedy_prune`` scores all trials of a step in one tally.  They stay here
as the reference for results, errors and CSV text, and the grouped code
must match them bit for bit: each group is reduced by the numpy call the
reference makes, on an array of the same shape and layout, so a figure
that differs in its last bit can print differently at a rounding tie.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetkit import (
    DegenerateMarginalsError,
    EnsembleSpec,
    build_ensemble,
    cronbach_alpha,
    descriptive_table,
    greedy_prune,
    qwk,
    qwk_matrix,
    qwk_vectors,
)
from facetkit import agreement
from facetkit.agreement import AgreementTable, AlphaResult, QwkResult
from facetkit.ensemble import PruneStep, PruneTrace, _member_mean
from facetkit.report import Table
from facetkit.study import alpha_table
from conftest import small_tensor


# -- the replaced loops ------------------------------------------------------


def reference_paired_scores(tensor, rater_a, rater_b, items):
    for r in (rater_a, rater_b):
        if r not in tensor.ids.rater_index:
            raise KeyError(f"unknown rater identifier {r!r}")
    items = tuple(items)
    for it in items:
        if it not in tensor.ids.item_index:
            raise KeyError(f"unknown item identifier {it!r}")
    ia = tensor.ids.rater_index[rater_a]
    ib = tensor.ids.rater_index[rater_b]
    cols = [tensor.ids.item_index[it] for it in items]
    a = tensor.values[:, cols, ia].ravel()
    b = tensor.values[:, cols, ib].ravel()
    both = ~np.isnan(a) & ~np.isnan(b)
    return a[both], b[both]


def reference_weight_matrix(n_cat, span, weighting):
    cats = np.arange(n_cat)
    diff = cats[:, None] - cats[None, :]
    if weighting == "quadratic":
        return diff**2 / span**2
    if weighting == "linear":
        return np.abs(diff) / span
    if weighting == "unweighted":
        return (diff != 0).astype(float)
    raise ValueError(f"unknown weighting {weighting!r}")


def reference_qwk_vectors(a, b, min_score, max_score, weighting="quadratic"):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired score vectors must be 1-d and equal length")
    if a.size < 2:
        raise ValueError(f"need at least 2 paired observations, got {a.size}")
    if not (np.all(a == np.round(a)) and np.all(b == np.round(b))):
        raise ValueError("kappa requires integer score categories")
    n_cat = max_score - min_score + 1
    span = max_score - min_score
    ai = (a - min_score).astype(int)
    bi = (b - min_score).astype(int)
    if ai.min() < 0 or ai.max() >= n_cat or bi.min() < 0 or bi.max() >= n_cat:
        raise ValueError("score outside the declared scale")
    n = a.size
    counts = np.zeros((n_cat, n_cat))
    np.add.at(counts, (ai, bi), 1.0)
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    weights = reference_weight_matrix(n_cat, span, weighting)
    obs2 = float((weights * (counts + counts.T)).sum())
    exp2 = float((weights * (np.outer(row, col) + np.outer(col, row))).sum())
    if exp2 == 0.0:
        raise DegenerateMarginalsError(
            "degenerate marginals: both raters constant on the same category"
        )
    kappa = 1.0 - n * obs2 / exp2
    return kappa, obs2 / (2 * n), exp2 / (2 * n**2)


def reference_qwk(tensor, rater_a, rater_b, items=None, weighting="quadratic"):
    if items is None:
        items = tensor.ids.items
    items = tuple(items)
    a, b = reference_paired_scores(tensor, rater_a, rater_b, items)
    kappa, observed, expected = reference_qwk_vectors(
        a, b, tensor.scale.min_score, tensor.scale.max_score, weighting
    )
    return QwkResult(rater_a, rater_b, items, int(a.size), kappa, observed, expected)


def reference_qwk_matrix(tensor, benchmark_raters, candidate_raters, item_groups):
    rows = []
    for cand in candidate_raters:
        for bench in benchmark_raters:
            for group in item_groups:
                group = tuple(group)
                try:
                    rows.append(reference_qwk(tensor, cand, bench, group))
                except DegenerateMarginalsError:
                    a, b = reference_paired_scores(tensor, cand, bench, group)
                    rows.append(
                        QwkResult(cand, bench, group, int(a.size),
                                  math.nan, math.nan, 0.0, degenerate=True)
                    )
    return AgreementTable(tuple(rows))


def reference_cronbach_alpha(tensor, rater, items):
    if rater not in tensor.ids.rater_index:
        raise KeyError(f"unknown rater identifier {rater!r}")
    items = tuple(items)
    if len(items) < 2:
        raise ValueError(f"need at least 2 items for alpha, got {len(items)}")
    for it in items:
        if it not in tensor.ids.item_index:
            raise KeyError(f"unknown item identifier {it!r}")
    ridx = tensor.ids.rater_index[rater]
    cols = [tensor.ids.item_index[it] for it in items]
    mat = tensor.values[:, cols, ridx]
    complete = ~np.isnan(mat).any(axis=1)
    mat = mat[complete]
    if mat.shape[0] < 2:
        raise ValueError(
            f"need at least 2 persons after listwise deletion, got {mat.shape[0]}"
        )
    totals = mat.sum(axis=1)
    total_var = totals.var(ddof=1)
    if total_var == 0.0:
        raise ValueError("no person variance: total scores are constant")
    k = len(items)
    item_vars = mat.var(axis=0, ddof=1)
    alpha = (k / (k - 1)) * (1.0 - item_vars.sum() / total_var)
    return AlphaResult(rater, items, k, int(mat.shape[0]), float(alpha))


def reference_alpha_table(tensor, groups, raters):
    rows = []
    for group_name, items in groups:
        for rater in raters:
            res = reference_cronbach_alpha(tensor, rater, items)
            rows.append({"rater": rater, "group": group_name, "n_items": res.n_items,
                         "n_persons": res.n_persons, "alpha": res.alpha})
    return Table(("rater", "group", "n_items", "n_persons", "alpha"), tuple(rows))


def reference_descriptive_table(tensor):
    if tensor.n_cells == 0:
        raise ValueError("empty tensor")
    columns = ["rater"]
    for item in tensor.ids.items:
        columns += [f"{item}:mean", f"{item}:sd"]
    columns.append("average")
    rows = []
    for r, rater in enumerate(tensor.ids.raters):
        row = {"rater": rater}
        means = []
        for i, item in enumerate(tensor.ids.items):
            col = tensor.values[:, i, r]
            col = col[~np.isnan(col)]
            if col.size == 0:
                row[f"{item}:mean"] = math.nan
                row[f"{item}:sd"] = math.nan
            else:
                row[f"{item}:mean"] = float(col.mean())
                row[f"{item}:sd"] = float(col.std(ddof=1)) if col.size > 1 else math.nan
                means.append(col.mean())
        row["average"] = float(np.mean(means)) if means else math.nan
        rows.append(row)
    return Table(tuple(columns), tuple(rows))


def reference_ensemble_qwks(tensor, slab, members, benchmarks, items, rounding):
    scores, _ = _member_mean(np.stack([slab[m] for m in members]), tensor.scale, rounding)
    cells = []
    kappas = []
    poisoned = False
    for bench in benchmarks:
        for item in items:
            icol = tensor.ids.item_index[item]
            a = scores[:, icol]
            b = slab[bench][:, icol]
            both = ~np.isnan(a) & ~np.isnan(b)
            try:
                kappa, _, _ = reference_qwk_vectors(
                    a[both], b[both], tensor.scale.min_score, tensor.scale.max_score
                )
            except (DegenerateMarginalsError, ValueError):
                kappa = math.nan
                poisoned = True
            cells.append((bench, item, kappa))
            kappas.append(kappa)
    mean = -math.inf if poisoned else float(np.mean(kappas))
    return mean, tuple(cells)


def reference_greedy_prune(tensor, members, benchmarks, items=None, steps=1,
                           rounding="half-away-from-zero"):
    members = list(members)
    benchmarks = list(benchmarks)
    if items is None:
        items = list(tensor.ids.items)
    items = list(items)
    if set(members) & set(benchmarks):
        raise ValueError("benchmarks must be disjoint from ensemble members")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if len(members) <= steps:
        raise ValueError(f"cannot remove {steps} of {len(members)} members")
    for r in benchmarks + members:
        if r not in tensor.ids.rater_index:
            raise KeyError(f"unknown rater identifier {r!r}")
    for it in items:
        if it not in tensor.ids.item_index:
            raise KeyError(f"unknown item identifier {it!r}")
    current = sorted(members, key=tensor.ids.rater_index.__getitem__)
    slab = {r: tensor.values[:, :, tensor.ids.rater_index[r]] for r in current + benchmarks}
    mean, cells = reference_ensemble_qwks(tensor, slab, current, benchmarks, items, rounding)
    trace = [PruneStep(None, tuple(current), mean, cells)]
    for _ in range(steps):
        best = None
        for m in current:
            reduced = [r for r in current if r != m]
            mean, cells = reference_ensemble_qwks(tensor, slab, reduced, benchmarks, items,
                                                  rounding)
            if best is None or mean > best[0]:
                best = (mean, m, reduced, cells)
        mean, removed, current, cells = best
        trace.append(PruneStep(removed, tuple(current), mean, cells))
    return PruneTrace(tuple(trace))


# -- comparison helpers ------------------------------------------------------


def outcome(fn, *args):
    """The result, or the exception type and message."""
    try:
        return fn(*args)
    except Exception as e:  # the exception itself is the outcome compared
        return (type(e), str(e))


def bits(rows):
    """QWK rows with every float written exactly (repr round-trips)."""
    return [repr(row) for row in rows]


def assert_tables_equal(got, want):
    """Same columns, same cells, floats bit for bit (NaN where NaN), and
    the same CSV text."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.columns == want.columns
    assert len(got.rows) == len(want.rows)
    for g, w in zip(got.rows, want.rows):
        assert g.keys() == w.keys()
        for col in w:
            if isinstance(w[col], float):
                assert isinstance(g[col], float)
                if math.isnan(w[col]):
                    assert math.isnan(g[col])
                else:
                    assert g[col] == w[col]
            else:
                assert g[col] == w[col] and type(g[col]) is type(w[col])
    assert got.to_csv_text() == want.to_csv_text()


# -- random tensors ------------------------------------------------------------


@st.composite
def rater_tables_cases(draw):
    """A small tensor in the style of ``sparse_designs()`` with the argument
    lists of the three tables.

    2-10 persons x 1-4 items x 1-5 raters on a K-category scale starting at
    -1, 0 or 1; about a quarter of the cells missing, some of them declared;
    sometimes a rater with no cells, a constant rater, or a non-integer
    ``build_ensemble`` mean rater.  Rater lists may repeat ids, pair a rater
    with itself and hold an unknown id; item groups may pool, overlap,
    repeat an item, be empty or hold an unknown id.
    """
    P, I, R = (draw(st.integers(lo, hi)) for lo, hi in ((2, 10), (1, 4), (1, 5)))
    K = draw(st.integers(1, 4))
    lo = draw(st.sampled_from([0, 0, -1, 1]))
    size = P * I * R
    scores = np.array(draw(st.lists(st.integers(lo, lo + K), min_size=size,
                                    max_size=size)), float).reshape(P, I, R)
    keep = np.array(draw(st.lists(st.integers(0, 3), min_size=size,
                                  max_size=size))).reshape(P, I, R) > 0
    if draw(st.booleans()):
        scores[:, :, draw(st.integers(0, R - 1))] = draw(st.integers(lo, lo + K))
    if draw(st.booleans()):
        keep[:, :, draw(st.integers(0, R - 1))] = False
    if draw(st.booleans()):
        keep[draw(st.integers(0, P - 1)):] = False
    scores[~keep] = np.nan
    tensor = small_tensor(scores, scale=(lo, lo + K))
    declared = (~keep) & (np.array(draw(st.lists(st.booleans(), min_size=size,
                                                 max_size=size))).reshape(P, I, R))
    tensor = type(tensor)(tensor.scale, tensor.ids, tensor.values, declared)
    raters = list(tensor.ids.raters)
    if R >= 2 and draw(st.booleans()):
        members = draw(st.lists(st.sampled_from(raters), min_size=2, max_size=R,
                                unique=True))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tensor = build_ensemble(tensor, EnsembleSpec("E", members, "none"))
        raters.append("E")
    items = list(tensor.ids.items)
    # one case in four may name an unknown rater or item
    rater_ids = st.sampled_from(raters + ["ghost"] if draw(st.integers(0, 3)) == 0 else raters)
    item_ids = st.sampled_from(items + ["nowhere"] if draw(st.integers(0, 3)) == 0 else items)
    # and one in eight may leave a list empty
    shortest = draw(st.sampled_from([0] + [1] * 7))
    benchmarks = draw(st.lists(rater_ids, min_size=shortest, max_size=3))
    candidates = draw(st.lists(rater_ids, min_size=shortest, max_size=4))
    kind = draw(st.sampled_from(["per-item", "pooled", "random"]))
    if kind == "per-item":
        groups = [(i,) for i in items]
    elif kind == "pooled":
        groups = [tuple(items)]
    else:
        groups = draw(st.lists(st.lists(item_ids, min_size=shortest, max_size=4).map(tuple),
                               min_size=shortest, max_size=3))
    group_items = st.lists(item_ids, min_size=draw(st.sampled_from([1] + [2] * 7)),
                           max_size=4).map(tuple)
    alpha_groups = draw(st.lists(st.tuples(st.sampled_from(["g1", "g2", "g3"]), group_items),
                                 min_size=shortest, max_size=3))
    alpha_raters = draw(st.lists(rater_ids, min_size=shortest, max_size=4))
    return tensor, benchmarks, candidates, groups, alpha_groups, alpha_raters


@st.composite
def prune_cases(draw):
    """A small tensor with the arguments of one ``greedy_prune`` call.

    4-11 persons x 1-4 items x 3-8 raters on a K-category scale starting at
    -1, 0 or 1; up to half the cells missing, some of them declared; the
    rounding "none" one case in five, whose fractional means give most
    trials no kappa.  1-2 benchmarks and at least 2 members, in any order;
    items listed by default or drawn with repeats; one case in sixteen
    names an unknown member, benchmark or item, and one in sixteen asks
    for as many steps as there are members.  Most cases have a trial with
    a finite mean QWK to compare.
    """
    P, I, R = (draw(st.integers(lo, hi)) for lo, hi in ((4, 11), (1, 4), (3, 8)))
    K = draw(st.integers(1, 4))
    lo = draw(st.sampled_from([0, 0, -1, 1]))
    size = P * I * R
    scores = np.array(draw(st.lists(st.integers(lo, lo + K), min_size=size,
                                    max_size=size)), float).reshape(P, I, R)
    quarters_missing = draw(st.integers(0, 2))
    # Hypothesis favours small values: let them keep the cell
    keep = np.array(draw(st.lists(st.integers(0, 3), min_size=size,
                                  max_size=size))).reshape(P, I, R) < 4 - quarters_missing
    scores[~keep] = np.nan
    tensor = small_tensor(scores, scale=(lo, lo + K))
    declared = (~keep) & (np.array(draw(st.lists(st.booleans(), min_size=size,
                                                 max_size=size))).reshape(P, I, R))
    tensor = type(tensor)(tensor.scale, tensor.ids, tensor.values, declared)
    raters = list(draw(st.permutations(tensor.ids.raters)))
    n_bench = draw(st.integers(1, min(2, R - 2)))
    benchmarks = raters[:n_bench]
    members = raters[n_bench:n_bench + draw(st.integers(2, R - n_bench))]
    items = draw(st.one_of(st.none(), st.lists(st.sampled_from(tensor.ids.items),
                                               min_size=1, max_size=5)))
    steps = draw(st.integers(0, len(members) - 1))
    odd = draw(st.integers(0, 15))
    if odd == 0:
        target = draw(st.sampled_from(["members", "benchmarks", "items"]))
        if target == "members":
            members.append("ghost")
        elif target == "benchmarks":
            benchmarks.append("ghost")
        else:
            items = list(tensor.ids.items if items is None else items) + ["nowhere"]
    elif odd == 1:
        steps = len(members)
    rounding = draw(st.sampled_from(2 * ["half-away-from-zero", "half-to-even"] + ["none"]))
    return tensor, members, benchmarks, items, steps, rounding


class TestMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(rater_tables_cases())
    def test_random_tensors(self, case):
        tensor, benchmarks, candidates, groups, alpha_groups, alpha_raters = case
        got = outcome(qwk_matrix, tensor, benchmarks, candidates, groups)
        want = outcome(reference_qwk_matrix, tensor, benchmarks, candidates, groups)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert bits(got.rows) == bits(want.rows)
        assert_tables_equal(outcome(alpha_table, tensor, alpha_groups, alpha_raters),
                            outcome(reference_alpha_table, tensor, alpha_groups,
                                    alpha_raters))
        assert_tables_equal(outcome(descriptive_table, tensor),
                            outcome(reference_descriptive_table, tensor))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(-2, 8), st.integers(-2, 8)), max_size=30),
           st.sampled_from(["quadratic", "linear", "unweighted", "cubic"]),
           st.booleans())
    def test_random_vectors(self, pairs, weighting, fractional):
        a = np.array([p[0] for p in pairs], float)
        b = np.array([p[1] for p in pairs], float)
        if fractional and pairs:
            a[0] += 0.5
        got = outcome(qwk_vectors, a, b, 0, 6, weighting)
        assert repr(got) == repr(outcome(reference_qwk_vectors, a, b, 0, 6, weighting))


    @settings(max_examples=300, deadline=None)
    @given(prune_cases())
    def test_random_pruning(self, case):
        tensor, members, benchmarks, items, steps, rounding = case
        got = outcome(greedy_prune, tensor, members, benchmarks, items, steps, rounding)
        want = outcome(reference_greedy_prune, tensor, members, benchmarks, items, steps,
                       rounding)
        if isinstance(want, tuple):
            assert got == want
            return
        assert len(got.steps) == len(want.steps)
        for g, w in zip(got.steps, want.steps):
            assert repr(g) == repr(w)


class TestQwkBlocks:
    """The pairs are tallied a block of cells at a time; the rows and the
    first error do not depend on the block size."""

    @settings(max_examples=200, deadline=None)
    @given(rater_tables_cases(), st.sampled_from([1, 2, 3]))
    def test_random_tensors(self, case, block):
        tensor, benchmarks, candidates, groups, _, _ = case
        want = outcome(qwk_matrix, tensor, benchmarks, candidates, groups)
        with mock.patch.object(agreement, "_QWK_BLOCK_CELLS", block):
            got = outcome(qwk_matrix, tensor, benchmarks, candidates, groups)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert bits(got.rows) == bits(want.rows)

    def test_blocks_that_divide_the_cells(self, paper_tensor):
        args = (paper_tensor, ["R1", "R2"], [f"A{i}" for i in range(1, 11)],
                [(i,) for i in paper_tensor.ids.items] + [paper_tensor.ids.items])
        want = bits(qwk_matrix(*args).rows)
        assert paper_tensor.n_cells == 1440
        for block in (480, 1440, 1000):
            with mock.patch.object(agreement, "_QWK_BLOCK_CELLS", block):
                assert bits(qwk_matrix(*args).rows) == want


class TestSinglePairCalls:
    """``qwk`` and ``cronbach_alpha`` are the one-table cases of the grouped
    code and keep the reference's results and errors."""

    def test_qwk_rows_and_errors(self, paper_tensor):
        cases = [("A1", "R1", None), ("A1", "R1", ["SN1", "SN2"]), ("R1", "R1", ["SN1"]),
                 ("ghost", "R1", None), ("A1", "ghost", None), ("A1", "R1", ["nowhere"]),
                 ("A1", "R1", [])]
        for a, b, items in cases:
            for weighting in ("quadratic", "linear", "unweighted", "cubic"):
                got = outcome(qwk, paper_tensor, a, b, items, weighting)
                want = outcome(reference_qwk, paper_tensor, a, b, items, weighting)
                assert repr(got) == repr(want)

    def test_degenerate_pair_raises(self):
        t = small_tensor([[3, 3], [3, 3], [3, 3]], raters=("R1", "R2"))
        with pytest.raises(DegenerateMarginalsError, match="degenerate marginals"):
            qwk(t, "R1", "R2")
        with pytest.raises(DegenerateMarginalsError, match="degenerate marginals"):
            reference_qwk(t, "R1", "R2")

    def test_cronbach_alpha_on_paper_tensor(self, paper_tensor):
        groups = [("SN1", "ER1", "SN2", "ER2"), ("SN1", "SN2"), ("ER2", "SN1", "ER2"),
                  ("SN1",), ("SN1", "nowhere")]
        for rater in paper_tensor.ids.raters + ("ghost",):
            for items in groups:
                got = outcome(cronbach_alpha, paper_tensor, rater, items)
                want = outcome(reference_cronbach_alpha, paper_tensor, rater, items)
                if isinstance(want, tuple):
                    assert got == want
                else:
                    assert (got.rater, got.item_group, got.n_items, got.n_persons) == (
                        want.rater, want.item_group, want.n_items, want.n_persons)
                    assert got.alpha == want.alpha

    def test_first_faulty_table_wins(self):
        # candidate-major, benchmark-minor, group order: R1 x R2 has one
        # pair on i2 before the ghost benchmark is reached
        t = small_tensor(np.array([[[3, 4], [2, None]], [[4, 5], [None, 1]],
                                   [[5, 6], [3, 3]]]), raters=("R1", "R2"))
        for benchmarks, groups in ((["R2", "ghost"], [("i1",), ("i2",)]),
                                   (["ghost", "R2"], [("i1",), ("i2",)]),
                                   (["R2"], [("i1",), ("nowhere",), ("i2",)])):
            got = outcome(qwk_matrix, t, benchmarks, ["R1"], groups)
            assert got == outcome(reference_qwk_matrix, t, benchmarks, ["R1"], groups)
            assert isinstance(got, tuple)


class TestManyItems:
    """From 8 values on, numpy sums a contiguous row pairwise, so the order
    in which the grouped code adds a person's or a rater's values shows."""

    def test_tables_match_bit_for_bit(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 43, size=(30, 12, 3)) / 7
        values[:, 9:][rng.random((30, 3, 3)) < 0.1] = np.nan
        values[:, 3, 2] = np.nan  # r3 scores 11 of the 12 items
        tensor = small_tensor(np.zeros((30, 12, 3)))
        tensor = type(tensor)(tensor.scale, tensor.ids, values, integer_scores=False)
        # the first 9 items leave every person complete, the 12 do not
        groups = [("first", tensor.ids.items[:9]), ("all", tensor.ids.items)]
        raters = tensor.ids.raters[:2]
        assert_tables_equal(alpha_table(tensor, groups, raters),
                            reference_alpha_table(tensor, groups, raters))
        assert_tables_equal(descriptive_table(tensor), reference_descriptive_table(tensor))
