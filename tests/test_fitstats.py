"""Tests for infit/outfit mean squares and rater-effect flags."""

import numpy as np
import pytest

from facetkit import (
    FitCuts,
    FitReport,
    PERMISSIVE_CUTS,
    STRINGENT_CUTS,
    Pathology,
    classify_fit,
    estimate,
    expected_score,
    fit_statistics,
    simulate,
    with_flags,
)
from facetkit.fitstats import FLAG_CENTRAL, FLAG_MISFIT, FLAG_NONE
from facetkit.model import cell_moments
from conftest import paper_spec, with_items


def reference_fit_arrays(tensor, estimates, facet):
    """Infit, outfit and counts of the observed elements, by the formula
    ``fit_statistics`` used while it kept every temporary: fresh ``resid**2``
    arrays and the kernel's probabilities alive."""
    params = estimates.params
    cells = tensor.cell_index
    loc = cells.locations(params.ability, params.severity, params.difficulty)
    _, expected, variance = cell_moments(loc, params.thresholds)
    resid = cells.x - expected
    counts = cells.sums(facet)
    sum_r2 = cells.sums(facet, resid**2)
    sum_w = cells.sums(facet, variance)
    sum_z2 = cells.sums(facet, resid**2 / variance)
    kept = np.nonzero(counts > 0)[0]
    return sum_r2[kept] / sum_w[kept], sum_z2[kept] / counts[kept], counts[kept]


def fit_cut_pair(lower, upper):
    return FitCuts(lower, upper)


class TestFitCuts:
    def test_presets(self):
        assert (PERMISSIVE_CUTS.lower, PERMISSIVE_CUTS.upper) == (0.5, 1.5)
        assert (STRINGENT_CUTS.lower, STRINGENT_CUTS.upper) == (0.7, 1.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            FitCuts(1.1, 1.3)
        with pytest.raises(ValueError):
            FitCuts(0.7, 0.9)


def report_from_values(pairs):
    ids = tuple(f"R{i + 1}" for i in range(len(pairs)))
    infit = np.array([p[0] for p in pairs])
    outfit = np.array([p[1] for p in pairs])
    return FitReport("rater", ids, infit, outfit, np.full(len(pairs), 120))


class TestClassifyFit:
    def test_published_central_tendency_values(self):
        report = report_from_values([(0.60, 0.60), (0.58, 0.59)])
        flags = classify_fit(report, FitCuts(0.7, 1.3))
        assert flags == {"R1": FLAG_CENTRAL, "R2": FLAG_CENTRAL}

    def test_published_misfit_values(self):
        report = report_from_values([(1.41, 1.41), (1.36, 1.36)])
        flags = classify_fit(report, FitCuts(0.7, 1.3))
        assert flags == {"R1": FLAG_MISFIT, "R2": FLAG_MISFIT}

    def test_expected_value_is_unflagged(self):
        report = report_from_values([(1.0, 1.0)])
        assert classify_fit(report, FitCuts(0.7, 1.3)) == {"R1": FLAG_NONE}

    def test_mixed_ms_is_misfit_not_central(self):
        report = report_from_values([(0.6, 1.5)])
        assert classify_fit(report, FitCuts(0.7, 1.3)) == {"R1": FLAG_MISFIT}

    def test_flag_monotonicity_widening_cuts(self):
        rng = np.random.default_rng(12)
        pairs = [(v, w) for v, w in zip(rng.uniform(0.3, 2.0, 40),
                                        rng.uniform(0.3, 2.0, 40))]
        report = report_from_values(pairs)
        narrow = classify_fit(report, FitCuts(0.8, 1.2))
        wide = classify_fit(report, FitCuts(0.5, 1.5))
        for rater, flag in wide.items():
            if flag != FLAG_NONE:
                assert narrow[rater] == flag

    def test_classification_ignores_facet_identity(self):
        pairs = [(0.58, 0.59)]
        rater_report = report_from_values(pairs)
        item_report = FitReport("item", ("itemX",), np.array([0.58]),
                                np.array([0.59]), np.array([360]))
        assert list(classify_fit(rater_report, STRINGENT_CUTS).values()) == list(
            classify_fit(item_report, STRINGENT_CUTS).values()
        )

    def test_with_flags_attaches_labels(self):
        report = report_from_values([(0.6, 0.6), (1.0, 1.0)])
        flagged = with_flags(report, STRINGENT_CUTS)
        assert flagged.flags == (FLAG_CENTRAL, FLAG_NONE)
        assert flagged.cuts == STRINGENT_CUTS


class TestFitStatistics:
    def test_calibrated_near_one_on_model_data(self, large_sim, large_estimates):
        tensor, _ = large_sim
        report = fit_statistics(tensor, large_estimates, "rater")
        assert 0.9 <= report.infit_ms.mean() <= 1.1
        assert 0.9 <= report.outfit_ms.mean() <= 1.1
        assert np.all(report.n_obs == 2000)

    def test_noise_rater_exceeds_upper_cut(self):
        import dataclasses

        spec = dataclasses.replace(
            paper_spec(seed=61, n_persons=200),
            pathologies={4: Pathology(noise=1.0)},
        )
        tensor, _ = simulate(spec)
        est = estimate(tensor)
        report = fit_statistics(tensor, est, "rater")
        assert report.infit_ms[4] > 1.3
        assert report.outfit_ms[4] > 1.3

    def test_conforming_scores_overfit_direction(self):
        # force one rater's scores to the rounded model expectation:
        # residual variance collapses and both mean squares sink below 1
        tensor, _ = simulate(paper_spec(seed=62, n_persons=100))
        est = estimate(tensor)
        p = est.params
        loc = p.ability[:, None] - p.difficulty[None, :] - p.severity[3]
        conforming = np.clip(np.round(expected_score(loc, p.thresholds)), 0, 6)
        values = np.array(tensor.values)
        values[:, :, 3] = conforming
        t2 = type(tensor)(tensor.scale, tensor.ids, values)
        est2 = estimate(t2)
        report = fit_statistics(t2, est2, "rater")
        assert report.infit_ms[3] < 0.7
        assert report.outfit_ms[3] < 0.7

    def test_infit_is_weighted_mean_of_cell_ratios(self, paper_tensor, paper_estimates):
        report = fit_statistics(paper_tensor, paper_estimates, "rater")
        p = paper_estimates.params
        for r_index in (0, 5, 11):
            loc = p.ability[:, None] - p.difficulty[None, :] - p.severity[r_index]
            e = expected_score(loc, p.thresholds)
            w = cell_moments(loc, p.thresholds)[2]
            resid = paper_tensor.values[:, :, r_index] - e
            ratios = resid**2 / w
            infit = report.infit_ms[r_index]
            assert ratios.min() - 1e-12 <= infit <= ratios.max() + 1e-12
            assert infit == pytest.approx((resid**2).sum() / w.sum(), abs=1e-12)
            assert report.outfit_ms[r_index] == pytest.approx(ratios.mean(), abs=1e-12)

    def test_all_facets_supported(self, paper_tensor, paper_estimates):
        for facet, n in (("person", 30), ("item", 4), ("rater", 12)):
            report = fit_statistics(paper_tensor, paper_estimates, facet)
            assert len(report.element_ids) == n
            assert np.all(report.infit_ms >= 0)
            assert np.all(np.isfinite(report.outfit_ms))

    @pytest.mark.parametrize("facet", ["person", "item", "rater"])
    def test_arrays_match_the_reference_bit_for_bit(self, facet, paper_tensor,
                                                    paper_estimates, large_sim,
                                                    large_estimates):
        for tensor, estimates in ((paper_tensor, paper_estimates),
                                  (large_sim[0], large_estimates)):
            report = fit_statistics(tensor, estimates, facet)
            want = reference_fit_arrays(tensor, estimates, facet)
            for got, ref in zip((report.infit_ms, report.outfit_ms, report.n_obs), want):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_misaligned_inputs_rejected(self, paper_tensor, paper_estimates):
        sliced = with_items(paper_tensor, ["SN1", "SN2"])
        with pytest.raises(ValueError, match="misaligned"):
            fit_statistics(sliced, paper_estimates, "rater")

    def test_unknown_facet(self, paper_tensor, paper_estimates):
        with pytest.raises(ValueError, match="facet"):
            fit_statistics(paper_tensor, paper_estimates, "essay")

    def test_per_item_fit_via_slice_and_reestimate(self, paper_tensor):
        sliced = with_items(paper_tensor, ["SN1"])
        est = estimate(sliced)
        report = fit_statistics(sliced, est, "rater")
        assert len(report.element_ids) == 12
        assert np.all(report.n_obs == 30)

    def test_zero_observation_element_excluded_with_warning(self, paper_tensor,
                                                            paper_estimates):
        values = np.array(paper_tensor.values)
        values[:, :, 7] = np.nan  # rater never observed
        t = type(paper_tensor)(paper_tensor.scale, paper_tensor.ids, values)
        with pytest.warns(UserWarning, match="no observations"):
            report = fit_statistics(t, paper_estimates, "rater")
        assert len(report.element_ids) == 11
        assert paper_tensor.ids.raters[7] not in report.element_ids
