"""Tests for quadratic weighted kappa and Cronbach alpha.

Both statistics are checked against independent brute-force oracles:
kappa against an explicit contingency-table implementation with no
algebraic shortcuts, alpha against the covariance-matrix definition.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetkit import (
    DegenerateMarginalsError,
    FacetIds,
    RatingsTensor,
    ScaleSpec,
    cronbach_alpha,
    qwk,
    qwk_matrix,
    qwk_vectors,
)
from conftest import small_tensor


def brute_force_qwk(a, b, min_score, max_score):
    """Reference kappa: explicit joint/marginal tables, term by term."""
    n_cat = max_score - min_score + 1
    span = max_score - min_score
    n = len(a)
    joint = [[0.0] * n_cat for _ in range(n_cat)]
    for x, y in zip(a, b):
        joint[int(x) - min_score][int(y) - min_score] += 1.0 / n
    marg_a = [sum(joint[i][j] for j in range(n_cat)) for i in range(n_cat)]
    marg_b = [sum(joint[i][j] for i in range(n_cat)) for j in range(n_cat)]
    observed = 0.0
    expected = 0.0
    for i in range(n_cat):
        for j in range(n_cat):
            w = (i - j) ** 2 / span**2
            observed += w * joint[i][j]
            expected += w * marg_a[i] * marg_b[j]
    return 1.0 - observed / expected


class TestQwkAnchors:
    def test_perfect_agreement_is_exactly_one(self):
        a = [0, 1, 2, 3, 4, 5, 6, 3, 2]
        kappa, observed, _ = qwk_vectors(a, a, 0, 6)
        assert kappa == 1.0
        assert observed == 0.0

    def test_perfect_reversal_is_exactly_minus_one(self):
        kappa, observed, expected = qwk_vectors([0, 1, 2], [2, 1, 0], 0, 2)
        assert kappa == -1.0
        assert observed == pytest.approx(2 / 3, abs=1e-15)
        assert expected == pytest.approx(1 / 3, abs=1e-15)

    def test_constant_but_different_raters_score_zero(self):
        # all chance-corrected agreement: O == E
        kappa, _, _ = qwk_vectors([2, 2, 2], [5, 5, 5], 0, 6)
        assert kappa == 0.0

    def test_degenerate_marginals_raise(self):
        with pytest.raises(DegenerateMarginalsError):
            qwk_vectors([3, 3, 3], [3, 3, 3], 0, 6)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError, match="at least 2"):
            qwk_vectors([3], [4], 0, 6)

    def test_fractional_scores_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            qwk_vectors([3.5, 4], [3, 4], 0, 6)


class TestQwkOracle:
    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            a = rng.integers(0, 7, 30)
            b = np.clip(a + rng.integers(-2, 3, 30), 0, 6)
            kappa, _, _ = qwk_vectors(a, b, 0, 6)
            assert kappa == pytest.approx(brute_force_qwk(a, b, 0, 6), abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.integers(0, 7, 30)
            b = rng.integers(0, 7, 30)
            ka, oa, ea = qwk_vectors(a, b, 0, 6)
            kb, ob, eb = qwk_vectors(b, a, 0, 6)
            assert ka == kb and oa == ob and ea == eb

    def test_kappa_is_one_minus_disagreement_ratio(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.integers(0, 7, 30)
            b = rng.integers(0, 7, 30)
            kappa, observed, expected = qwk_vectors(a, b, 0, 6)
            assert kappa == pytest.approx(1.0 - observed / expected, abs=1e-12)

    def test_person_permutation_invariance(self):
        rng = np.random.default_rng(6)
        a = rng.integers(0, 7, 30)
        b = rng.integers(0, 7, 30)
        perm = rng.permutation(30)
        assert qwk_vectors(a, b, 0, 6)[0] == pytest.approx(
            qwk_vectors(a[perm], b[perm], 0, 6)[0], abs=1e-15
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=60
        )
    )
    def test_kappa_bounded_by_one(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        try:
            kappa, _, _ = qwk_vectors(a, b, 0, 6)
        except DegenerateMarginalsError:
            return
        assert abs(kappa) <= 1.0 + 1e-12


class TestQwkOnTensor:
    def test_pairs_require_both_scores(self):
        t = small_tensor(
            [[3, 3], [4, None], [5, 5], [2, 2]],
            raters=("R1", "R2"),
        )
        res = qwk(t, "R1", "R2", ["i1"])
        assert res.n_pairs == 3

    def test_unknown_rater(self, paper_tensor):
        with pytest.raises(KeyError, match="ghost"):
            qwk(paper_tensor, "ghost", "R1")

    def test_item_group_pools_observations(self, paper_tensor):
        pooled = qwk(paper_tensor, "A1", "R1", ["SN1", "SN2"])
        assert pooled.n_pairs == 60

    def test_default_items_is_whole_tensor(self, paper_tensor):
        res = qwk(paper_tensor, "A1", "R1")
        assert res.n_pairs == 120
        assert res.item_group == ("SN1", "ER1", "SN2", "ER2")


class TestQwkMatrix:
    def test_self_agreement_single_row(self, paper_tensor):
        table = qwk_matrix(paper_tensor, ["R1"], ["R1"], [("SN1",)])
        assert len(table.rows) == 1
        assert table.rows[0].kappa == 1.0

    def test_paper_layout_80_rows(self, paper_tensor):
        candidates = [f"A{i}" for i in range(1, 11)]
        groups = [(i,) for i in ("SN1", "ER1", "SN2", "ER2")]
        table = qwk_matrix(paper_tensor, ["R1", "R2"], candidates, groups)
        assert len(table.rows) == 80
        # candidate-major, benchmark-minor, group order as given
        assert [r.rater_a for r in table.rows[:8]] == ["A1"] * 8
        assert [r.rater_b for r in table.rows[:4]] == ["R1"] * 4
        assert [r.item_group[0] for r in table.rows[:4]] == ["SN1", "ER1", "SN2", "ER2"]

    def test_degenerate_cell_flagged_not_fatal(self):
        t = small_tensor(
            [[3, 3, 0], [3, 3, 2], [3, 3, 4]],
            raters=("R1", "R2", "R3"),
        )
        table = qwk_matrix(t, ["R2"], ["R1", "R3"], [("i1",)])
        assert len(table.rows) == 2
        degenerate = [r for r in table.rows if r.rater_a == "R1"][0]
        assert degenerate.degenerate and np.isnan(degenerate.kappa)
        fine = [r for r in table.rows if r.rater_a == "R3"][0]
        assert not fine.degenerate


def covariance_alpha(matrix):
    """Reference alpha from the covariance matrix: (k/(k-1))(1 - tr(S)/1'S1)."""
    S = np.cov(matrix, rowvar=False, ddof=1)
    k = matrix.shape[1]
    ones = np.ones(k)
    return (k / (k - 1)) * (1 - np.trace(S) / (ones @ S @ ones))


class TestCronbachAlpha:
    def test_hand_case_two_thirds(self):
        # persons x items x raters: 3 persons scored on 2 items by one rater
        t = small_tensor(
            np.array([[[1], [2]], [[2], [1]], [[3], [3]]]),
            items=("i1", "i2"),
            raters=("R1",),
        )
        res = cronbach_alpha(t, "R1", ["i1", "i2"])
        assert res.alpha == pytest.approx(2 / 3, abs=1e-15)
        assert res.n_items == 2 and res.n_persons == 3

    def test_identical_columns_give_one(self):
        scores = np.array([[[1], [1], [1]], [[2], [2], [2]], [[3], [3], [3]]])
        t = small_tensor(scores, items=("a", "b", "c"), raters=("R1",))
        assert cronbach_alpha(t, "R1", ["a", "b", "c"]).alpha == pytest.approx(
            1.0, abs=1e-15
        )

    def test_constant_second_item_gives_zero(self):
        scores = np.array([[[1], [2]], [[2], [2]], [[3], [2]]])
        t = small_tensor(scores, items=("i1", "i2"), raters=("R1",))
        assert cronbach_alpha(t, "R1", ["i1", "i2"]).alpha == pytest.approx(
            0.0, abs=1e-15
        )

    def test_matches_covariance_definition(self):
        rng = np.random.default_rng(321)
        for _ in range(200):
            mat = rng.integers(0, 7, (30, 4)).astype(float)
            if mat.sum(axis=1).var(ddof=1) == 0:
                continue
            t = small_tensor(
                mat[:, :, None], items=("a", "b", "c", "d"), raters=("R1",)
            )
            res = cronbach_alpha(t, "R1", ["a", "b", "c", "d"])
            assert res.alpha == pytest.approx(covariance_alpha(mat), abs=1e-12)
            assert res.alpha <= 1.0

    def test_alpha_can_be_negative(self):
        scores = np.array([[[1], [6]], [[6], [1]], [[2], [5]], [[5], [1]]])
        t = small_tensor(scores, items=("i1", "i2"), raters=("R1",))
        assert cronbach_alpha(t, "R1", ["i1", "i2"]).alpha < 0

    def test_listwise_deletion(self):
        scores = np.array([[[1], [2]], [[2], [np.nan]], [[3], [3]], [[4], [5]]])
        t = small_tensor(scores, items=("i1", "i2"), raters=("R1",))
        res = cronbach_alpha(t, "R1", ["i1", "i2"])
        assert res.n_persons == 3

    def test_errors(self):
        t = small_tensor(
            np.array([[[1], [2]], [[2], [1]], [[3], [3]]]),
            items=("i1", "i2"),
            raters=("R1",),
        )
        with pytest.raises(ValueError, match="at least 2 items"):
            cronbach_alpha(t, "R1", ["i1"])
        flat = small_tensor(
            np.array([[[2], [2]], [[2], [2]], [[2], [2]]]),
            items=("i1", "i2"),
            raters=("R1",),
        )
        with pytest.raises(ValueError, match="no person variance"):
            cronbach_alpha(flat, "R1", ["i1", "i2"])

    def test_totals_equal_but_for_rounding_have_no_variance(self):
        # 0.2 + 0.4 and 0.4 + 0.2 are 0.6000000000000001, 0.6 + 0 is 0.6:
        # the rounding alone once gave a total variance of 1e-33 and an
        # alpha of -2.6e31
        scores = np.array([[[0.2], [0.4]], [[0.6], [0.0]], [[0.4], [0.2]]])
        t = RatingsTensor(ScaleSpec(0, 6), FacetIds(("p1", "p2", "p3"), ("i1", "i2"),
                                                    ("R1",)),
                          scores, integer_scores=False)
        with pytest.raises(ValueError,
                           match="^no person variance: total scores are constant$"):
            cronbach_alpha(t, "R1", ["i1", "i2"])
