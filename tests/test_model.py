"""Tests for category probabilities, score moments, and the log-likelihood."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from facetkit import (
    EstimationConfig,
    ModelParams,
    category_probs,
    expected_score,
)
from facetkit.model import _SUM_BLOCK, cell_moments
from conftest import log_likelihood, small_tensor


def random_draws(n, rng, k=6):
    locations = rng.uniform(-4, 4, n)
    thresholds = [rng.uniform(-2, 2, k) for _ in range(n)]
    return [(loc, thr - thr.mean()) for loc, thr in zip(locations, thresholds)]


def reference_category_probs(location, thresholds):
    """The plain max-subtracted softmax over psi_k = k*location - cum_k."""
    thresholds = np.asarray(thresholds, dtype=float)
    location = np.asarray(location, dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(thresholds)])
    psi = location[..., None] * np.arange(thresholds.size + 1) - cum
    psi -= psi.max(axis=-1, keepdims=True)
    exppsi = np.exp(psi)
    return exppsi / exppsi.sum(axis=-1, keepdims=True)


CLAMP = EstimationConfig().logit_clamp


@st.composite
def kernel_inputs(draw):
    K = draw(st.integers(1, 10))
    thresholds = draw(st.lists(st.floats(-CLAMP, CLAMP), min_size=K, max_size=K))
    location = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12))
    return np.array(location), np.array(thresholds)


class TestKernelAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(kernel_inputs())
    def test_centred_kernel_matches_the_reference(self, inputs):
        location, thresholds = inputs
        want = reference_category_probs(location, thresholds)
        probs, e, w = cell_moments(location, thresholds)
        assert_allclose(probs, want, rtol=0, atol=1e-13)
        assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) <= 1e-12
        k = np.arange(thresholds.size + 1)
        want_e = want @ k
        assert_allclose(e, want_e, rtol=0, atol=1e-12)
        assert_allclose(w, want @ k**2 - want_e**2, rtol=0, atol=1e-12)

    def test_far_locations_take_the_max_subtracted_fallback(self):
        # centred on category 5 of 0..10, psi reaches 5 * 1e3: exp would
        # overflow without the row max taken off
        thresholds = np.linspace(-CLAMP, CLAMP, 10)
        location = np.array([-1e3, 1e3])
        probs = category_probs(location, thresholds)
        assert np.all(np.isfinite(probs))
        assert_allclose(probs.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        assert_allclose(probs, reference_category_probs(location, thresholds),
                        rtol=0, atol=1e-13)
        assert probs[0, 0] == pytest.approx(1.0) and probs[1, -1] == pytest.approx(1.0)


class TestCategoryProbs:
    def test_uniform_at_zero(self):
        p = category_probs(0.0, np.zeros(6))
        assert_allclose(p, np.full(7, 1 / 7), atol=1e-15)

    def test_three_category_hand_value(self):
        # probabilities proportional to (1, e, 1)
        p = category_probs(0.0, np.array([-1.0, 1.0]))
        assert_allclose(p, [0.21194, 0.57612, 0.21194], atol=5e-6)
        assert_allclose(p[1], math.e / (2 + math.e), atol=1e-14)

    def test_adjacent_category_log_odds_identity(self):
        rng = np.random.default_rng(17)
        for loc, thr in random_draws(100, rng):
            p = category_probs(loc, thr)
            for k in range(1, 7):
                assert math.log(p[k] / p[k - 1]) == pytest.approx(
                    loc - thr[k - 1], abs=1e-10
                )

    def test_normalization_over_random_draws(self):
        rng = np.random.default_rng(18)
        for loc, thr in random_draws(1000, rng):
            p = category_probs(loc, thr)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0) and np.all(p < 1)

    def test_extreme_locations_do_not_overflow(self):
        for loc in (-40.0, 40.0):
            p = category_probs(loc, np.linspace(-2, 2, 6))
            assert np.all(np.isfinite(p))
            assert abs(p.sum() - 1.0) < 1e-12

    def test_vectorized_locations(self):
        thr = np.linspace(-1, 1, 6)
        locs = np.array([-1.0, 0.0, 2.0])
        batch = category_probs(locs, thr)
        assert batch.shape == (3, 7)
        for i, loc in enumerate(locs):
            assert_allclose(batch[i], category_probs(loc, thr), atol=1e-15)


def lane_order_sum(row):
    """Sum of ``row`` in the kernel's documented order, in Python floats:
    lane i adds items i, i+4, i+8, ... over the full groups of four, the
    lanes are reduced as (l0 + l2) + (l1 + l3), and the rest, added left to
    right, is added to that."""
    full = len(row) - len(row) % 4
    lanes = row[:4]
    for j in range(4, full):
        lanes[j % 4] += row[j]
    tail = None
    for value in row[full:]:
        tail = value if tail is None else tail + value
    if not full:
        return tail
    total = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
    return total if tail is None else total + tail


def lane_order_probs(location, thresholds):
    """The kernel's probabilities from the same centred psi and np.exp values,
    each row divided by its :func:`lane_order_sum`: no BLAS call is made."""
    location = np.asarray(location, dtype=float)
    K = len(thresholds)
    c = K // 2
    cum = np.concatenate([[0.0], np.cumsum(thresholds)])
    cum -= cum[c]
    psi = np.stack([location * (k - c) - cum[k] for k in range(K + 1)], axis=-1)
    if np.max(np.abs(location), initial=0.0) * max(c, K - c) + np.max(np.abs(cum)) > 700:
        psi -= psi.max(axis=-1, keepdims=True)
    rows = np.exp(psi).reshape(-1, K + 1).tolist()
    return np.array([[v / lane_order_sum(list(row)) for v in row] for row in rows]
                    ).reshape(psi.shape)


class TestCategoryMajorKernel:
    @pytest.mark.parametrize("K", [*range(1, 13), 300])
    def test_row_sum_takes_the_documented_order(self, K):
        rng = np.random.default_rng(K)
        thresholds = np.sort(rng.uniform(-3, 3, K))
        thresholds -= thresholds.mean()
        # a whole block of the row sum and a part one, a count that is not a
        # multiple of four
        n = _SUM_BLOCK + 3 if K < 300 else 203
        for location in (rng.normal(0, 3, n), rng.normal(0, 3),
                         rng.normal(0, 3, (5, 3, 2))):
            probs = category_probs(location, thresholds)
            assert probs.tobytes() == lane_order_probs(location, thresholds).tobytes()

    def test_a_cell_does_not_depend_on_the_call(self):
        # the row sum is numpy's own: a cell's bits are the same alone, in a
        # batch and in a stack, at every position
        rng = np.random.default_rng(3)
        for K in (3, 6, 9):
            thresholds = np.linspace(-2, 2, K)
            location = rng.normal(0, 2, 4 * 5 * 3)
            batch = category_probs(location, thresholds)
            stacked = category_probs(location.reshape(4, 5, 3), thresholds)
            assert stacked.tobytes() == batch.tobytes()
            for i in (0, 57, 58, 59):
                assert category_probs(location[i], thresholds).tobytes() == batch[i].tobytes()

    @pytest.mark.parametrize("shape", [(9,), (4, 3, 5)])
    def test_each_category_is_a_contiguous_row(self, shape):
        probs = category_probs(np.linspace(-2, 2, math.prod(shape)).reshape(shape),
                               np.linspace(-1, 1, 6))
        assert probs.shape == (*shape, 7)
        for k in range(7):
            assert probs[..., k].flags.c_contiguous

    def test_scalar_location_gives_one_row(self):
        assert category_probs(0.5, np.linspace(-1, 1, 6)).shape == (7,)

    def test_row_max_path_past_700(self):
        # 3 * 240 logits from the middle category passes the bound of 700
        thresholds = np.linspace(-2, 2, 6)
        location = np.array([-240.0, -1.0, 0.0, 2.0, 240.0])
        probs = category_probs(location, thresholds)
        assert np.all(np.isfinite(probs))
        assert probs[0, 0] == 1.0 and probs[-1, -1] == 1.0
        assert probs.tobytes() == lane_order_probs(location, thresholds).tobytes()


class TestKernelMemory:
    N = 120_000
    SLACK = 64 * 1024   # bytes that do not grow with the cells

    def traced_peak(self, fn):
        location = np.random.default_rng(4).normal(0, 2, self.N)
        thresholds = np.array([-2.1, -1.3, -0.45, 0.45, 1.3, 2.1])
        tracemalloc.start()
        try:
            fn(location, thresholds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_category_probs_takes_the_probabilities_and_two_rows(self):
        # psi itself, 8 (K + 1) bytes a cell at K = 6, and at most two
        # float64 rows of temporaries (59.3 B/cell with numpy 2.4)
        assert self.traced_peak(category_probs) <= (8 * 7 + 16) * self.N + self.SLACK

    def test_cell_moments_stays_at_80_bytes_a_cell(self):
        # the probabilities, E and E[X^2], and E^2
        assert self.traced_peak(cell_moments) <= 80 * self.N + self.SLACK


class TestExpectedScore:
    def test_uniform_mean(self):
        assert expected_score(0.0, np.zeros(6)) == pytest.approx(3.0, abs=1e-12)

    def test_saturation(self):
        assert expected_score(30.0, np.zeros(6)) == pytest.approx(6.0, abs=1e-6)
        assert expected_score(-30.0, np.zeros(6)) == pytest.approx(0.0, abs=1e-6)

    def test_matches_probability_sum(self):
        rng = np.random.default_rng(19)
        for loc, thr in random_draws(50, rng):
            p = category_probs(loc, thr)
            brute = sum(k * p[k] for k in range(7))
            assert expected_score(loc, thr) == pytest.approx(brute, abs=1e-12)

    def test_strictly_increasing_in_location(self):
        thr = np.array([-1.5, -0.5, 0.0, 0.2, 0.6, 1.2])
        thr = thr - thr.mean()
        grid = np.linspace(-6, 6, 200)
        e = expected_score(grid, thr)
        assert np.all(np.diff(e) > 0)


class TestScoreVariance:
    """The variance W of :func:`cell_moments`."""

    def test_uniform_variance(self):
        assert cell_moments(0.0, np.zeros(6))[2] == pytest.approx(4.0, abs=1e-12)

    def test_degenerate_at_saturation(self):
        assert cell_moments(30.0, np.zeros(6))[2] < 1e-6

    def test_positive_for_finite_locations(self):
        rng = np.random.default_rng(20)
        for loc, thr in random_draws(50, rng):
            assert cell_moments(loc, thr)[2] > 0

    def test_variance_is_derivative_of_expectation(self):
        rng = np.random.default_rng(21)
        h = 1e-5
        for loc, thr in random_draws(50, rng):
            fd = (expected_score(loc + h, thr) - expected_score(loc - h, thr)) / (2 * h)
            assert cell_moments(loc, thr)[2] == pytest.approx(fd, abs=1e-6)


class TestLogLikelihood:
    def test_single_cell_uniform(self):
        t = small_tensor([[3]])
        params = ModelParams(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(6))
        assert log_likelihood(t, params) == pytest.approx(math.log(1 / 7), abs=1e-12)

    def test_finite_on_paper_shaped_tensor(self, paper_tensor):
        params = ModelParams(np.zeros(30), np.zeros(12), np.zeros(4), np.zeros(6))
        value = log_likelihood(paper_tensor, params)
        assert np.isfinite(value)
        assert value == pytest.approx(1440 * math.log(1 / 7), abs=1e-9)

    def test_dimension_mismatch(self, paper_tensor):
        params = ModelParams(np.zeros(29), np.zeros(12), np.zeros(4), np.zeros(6))
        with pytest.raises(ValueError, match="do not match"):
            log_likelihood(paper_tensor, params)
        params = ModelParams(np.zeros(30), np.zeros(12), np.zeros(4), np.zeros(5))
        with pytest.raises(ValueError, match="thresholds"):
            log_likelihood(paper_tensor, params)

    def test_missing_cells_skipped(self):
        t = small_tensor([[3, np.nan], [2, 4]])
        params = ModelParams(np.zeros(2), np.zeros(2), np.zeros(1), np.zeros(6))
        assert log_likelihood(t, params) == pytest.approx(3 * math.log(1 / 7), abs=1e-12)

    def test_ability_gradient_matches_finite_differences(self, paper_tensor):
        rng = np.random.default_rng(22)
        params = ModelParams(
            rng.normal(0, 0.5, 30),
            rng.normal(0, 0.3, 12),
            rng.normal(0, 0.3, 4),
            np.linspace(-1, 1, 6),
        )
        # analytic: d logL / d ability_j = sum of (x - E) over person j's cells
        pidx, iidx, ridx = np.nonzero(paper_tensor.present_mask)
        loc = (
            params.ability[pidx]
            - params.severity[ridx]
            - params.difficulty[iidx]
        )
        x = paper_tensor.values[pidx, iidx, ridx]
        e = expected_score(loc, params.thresholds)
        analytic = np.bincount(pidx, weights=x - e, minlength=30)

        h = 1e-6
        for j in (0, 7, 29):
            up = params.ability.copy()
            dn = params.ability.copy()
            up[j] += h
            dn[j] -= h
            fd = (
                log_likelihood(paper_tensor, ModelParams(up, params.severity,
                                                         params.difficulty,
                                                         params.thresholds))
                - log_likelihood(paper_tensor, ModelParams(dn, params.severity,
                                                           params.difficulty,
                                                           params.thresholds))
            ) / (2 * h)
            assert analytic[j] == pytest.approx(fd, abs=1e-5)

    def test_translation_invariance(self, paper_tensor):
        rng = np.random.default_rng(23)
        ability = rng.normal(0, 1, 30)
        severity = rng.normal(0, 0.4, 12)
        difficulty = rng.normal(0, 0.4, 4)
        thr = np.linspace(-1.5, 1.5, 6)
        base = log_likelihood(
            paper_tensor, ModelParams(ability, severity, difficulty, thr)
        )
        c = 0.83
        shifted = log_likelihood(
            paper_tensor, ModelParams(ability + c, severity, difficulty + c, thr)
        )
        assert shifted == pytest.approx(base, abs=1e-9)
        shifted = log_likelihood(
            paper_tensor, ModelParams(ability + c, severity + c, difficulty, thr)
        )
        assert shifted == pytest.approx(base, abs=1e-9)


class TestModelParams:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            ModelParams(np.array([np.inf]), np.zeros(1), np.zeros(1), np.zeros(6))

    @pytest.mark.parametrize("ability", [np.zeros(0), np.zeros((1, 1))])
    def test_rejects_empty_or_2d(self, ability):
        with pytest.raises(ValueError, match="ability must be a non-empty 1-d array"):
            ModelParams(ability, np.zeros(1), np.zeros(1), np.zeros(6))

    def test_identification_check(self):
        p = ModelParams(np.ones(3), np.array([0.5, -0.5]), np.zeros(2), np.zeros(6))
        assert p.is_identified()
        q = ModelParams(np.ones(3), np.array([0.5, 0.5]), np.zeros(2), np.zeros(6))
        assert not q.is_identified()

    def test_roundtrip(self):
        p = ModelParams(np.array([1.0]), np.array([0.2]), np.array([-0.2]), np.zeros(6))
        q = ModelParams.from_dict(p.to_dict())
        assert_allclose(q.ability, p.ability)
        assert_allclose(q.thresholds, p.thresholds)
