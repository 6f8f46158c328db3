"""Tests for joint maximum-likelihood estimation and severity labels."""

import dataclasses

import numpy as np
import pytest

from facetkit import (
    EstimationConfig,
    EstimationError,
    FacetEstimates,
    FacetIds,
    ScaleSpec,
    SimSpec,
    StudyConfig,
    estimate,
    ingest_csv_text,
    log_likelihood,
    severity_classification,
    simulate,
)
from conftest import paper_spec, small_tensor


class TestPreconditions:
    def test_disconnected_design_rejected(self):
        text = "person_id,item_id,rater_id,score\n" + "\n".join(
            ["p1,I1,r1,3", "p1,I1,r2,4", "p2,I2,r3,2", "p2,I2,r4,5"]
        )
        tensor = ingest_csv_text(text)
        with pytest.raises(EstimationError, match="disconnected"):
            estimate(tensor)

    def test_single_category_rejected(self):
        t = small_tensor([[3, 3], [3, 3]])
        with pytest.raises(EstimationError, match="2 observed score categories"):
            estimate(t)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimationConfig(convergence_tol=0)
        with pytest.raises(ValueError):
            EstimationConfig(logit_clamp=2)


class TestSymmetry:
    def test_indistinguishable_raters_get_zero_severity(self):
        rng = np.random.default_rng(8)
        scores = rng.integers(0, 7, (20, 2))
        cube = np.repeat(scores[:, :, None], 3, axis=2)  # 3 identical raters
        t = small_tensor(cube, items=("i1", "i2"))
        est = estimate(t)
        np.testing.assert_allclose(est.params.severity, 0.0, atol=1e-9)

    def test_relabeling_equivariance(self, paper_tensor):
        est = estimate(paper_tensor)
        perm = [7, 2, 9, 0, 11, 4, 6, 1, 8, 3, 10, 5]
        permuted_ids = FacetIds(
            paper_tensor.ids.persons,
            paper_tensor.ids.items,
            tuple(paper_tensor.ids.raters[i] for i in perm),
        )
        permuted = type(paper_tensor)(
            paper_tensor.scale,
            permuted_ids,
            paper_tensor.values[:, :, perm].copy(),
            paper_tensor.declared_missing[:, :, perm].copy(),
        )
        est2 = estimate(permuted)
        np.testing.assert_allclose(
            est2.params.severity, est.params.severity[perm], atol=1e-9
        )


class TestRecovery:
    def test_paper_shaped_correlation(self, paper_tensor, paper_truth, paper_estimates):
        r = np.corrcoef(paper_estimates.params.severity, paper_truth.severity)[0, 1]
        assert r >= 0.95

    def test_paper_shaped_rank_order(self):
        # clearly separated severities spanning the published bracket;
        # with 30 persons the rank order is only stable when gaps are
        # comfortably above the ~0.09 logit standard error, so the spread
        # is even and the seed frozen
        tensor, truth = simulate(
            paper_spec(seed=20250810, severity=np.linspace(-0.8, 1.25, 12))
        )
        est = estimate(tensor)
        assert list(np.argsort(est.params.severity)) == list(np.argsort(truth.severity))
        assert np.corrcoef(est.params.severity, truth.severity)[0, 1] >= 0.95

    def test_large_design_recovery(self, large_sim, large_estimates):
        tensor, truth = large_sim
        est = large_estimates
        r = np.corrcoef(est.params.severity, truth.severity)[0, 1]
        assert r >= 0.99
        assert np.sqrt(np.mean((est.params.severity - truth.severity) ** 2)) <= 0.08
        assert np.sqrt(np.mean((est.params.difficulty - truth.difficulty) ** 2)) <= 0.08
        assert np.sqrt(np.mean((est.params.thresholds - truth.thresholds) ** 2)) <= 0.08

    def test_rater_se_in_paper_bracket(self, paper_estimates):
        se = paper_estimates.se_severity
        assert np.all(se > 0)
        assert 0.07 <= np.median(se) <= 0.16

    def test_likelihood_at_estimate_beats_truth(self, paper_tensor, paper_truth,
                                                paper_estimates):
        ll_truth = log_likelihood(paper_tensor, paper_truth)
        assert paper_estimates.log_likelihood_final >= ll_truth - 1e-6


class TestInvariants:
    def test_centering(self, paper_estimates):
        p = paper_estimates.params
        assert abs(p.severity.sum()) < 1e-6
        assert abs(p.difficulty.sum()) < 1e-6
        assert abs(p.thresholds.sum()) < 1e-6

    def test_likelihood_never_decreases(self, paper_estimates):
        lls = np.array(paper_estimates.sweep_log_likelihoods)
        assert np.all(np.diff(lls) >= -1e-9)

    def test_bit_identical_reruns(self, paper_tensor):
        a = estimate(paper_tensor)
        b = estimate(paper_tensor)
        assert a.to_json_text() == b.to_json_text()
        np.testing.assert_array_equal(a.params.ability, b.params.ability)

    def test_score_measure_monotonicity(self, paper_tensor, paper_estimates):
        totals = np.nansum(paper_tensor.values, axis=(1, 2))
        ability = paper_estimates.params.ability
        order = np.argsort(totals, kind="stable")
        for lo, hi in zip(order[:-1], order[1:]):
            if totals[hi] > totals[lo]:
                assert ability[hi] > ability[lo]

    def test_self_consistency_residuals(self, paper_tensor, paper_estimates):
        assert paper_estimates.converged
        p = paper_estimates.params
        pidx, iidx, ridx = np.nonzero(paper_tensor.present_mask)
        loc = p.ability[pidx] - p.severity[ridx] - p.difficulty[iidx]
        from facetkit import expected_score

        resid = paper_tensor.values[pidx, iidx, ridx] - expected_score(loc, p.thresholds)
        tol = paper_estimates.config.residual_tol
        for idx, size in ((pidx, 30), (ridx, 12), (iidx, 4)):
            sums = np.bincount(idx, weights=resid, minlength=size)
            assert np.max(np.abs(sums)) <= tol + 1e-9

    def test_convergence_flagged(self, paper_estimates):
        assert paper_estimates.converged
        assert paper_estimates.iterations_used <= 200
        assert paper_estimates.max_score_residual <= 0.01


class TestExtremes:
    @pytest.fixture()
    def tensor_with_extremes(self):
        tensor, _ = simulate(paper_spec(seed=31))
        values = np.array(tensor.values)
        values[0, :, :] = 6.0   # person all at maximum
        values[1, :, :] = 0.0   # person all at minimum
        return type(tensor)(tensor.scale, tensor.ids, values)

    def test_extreme_persons_flagged_and_measured(self, tensor_with_extremes):
        est = estimate(tensor_with_extremes)
        assert est.extreme_persons[0] == "max-extreme"
        assert est.extreme_persons[1] == "min-extreme"
        assert est.extreme_persons[2] == "none"
        ability = est.params.ability
        assert ability[0] > ability[2:].max()
        assert ability[1] < ability[2:].min()
        assert np.all(np.isfinite(ability))
        assert np.all(est.se_ability > 0)

    def test_extreme_rater_flagged(self):
        tensor, _ = simulate(paper_spec(seed=33))
        values = np.array(tensor.values)
        values[:, :, 5] = 0.0
        t = type(tensor)(tensor.scale, tensor.ids, values)
        est = estimate(t)
        assert est.extreme_raters[5] == "min-extreme"
        assert est.params.severity[5] > est.params.severity[[i for i in range(12) if i != 5]].max()
        # centering is over the non-extreme raters only
        others = np.delete(est.params.severity, 5)
        assert abs(others.sum()) < 1e-6

    def test_centering_excludes_extremes(self, tensor_with_extremes):
        est = estimate(tensor_with_extremes)
        assert abs(est.params.severity.sum()) < 1e-6
        assert abs(est.params.difficulty.sum()) < 1e-6


class TestNonConvergence:
    def test_hard_iteration_cap_warns(self, paper_tensor):
        config = EstimationConfig(max_iterations=1, convergence_tol=1e-10,
                                  residual_tol=1e-6)
        with pytest.warns(UserWarning, match="did not converge"):
            est = estimate(paper_tensor, config)
        assert not est.converged
        assert est.iterations_used == 1

    def test_warning_names_the_failed_criterion(self, paper_tensor):
        config = EstimationConfig(max_iterations=3, convergence_tol=100,
                                  residual_tol=1e-9)
        with pytest.warns(UserWarning, match="did not converge") as record:
            est = estimate(paper_tensor, config)
        message = str(record[0].message)
        assert f"max score residual {est.max_score_residual:.3g}" in message
        assert "tolerance 1e-09" in message
        assert "max change" not in message


class TestConfig:
    def test_unknown_estimation_key_rejected(self):
        with pytest.raises(ValueError, match="max_iteration"):
            StudyConfig.from_json_dict(
                {"input": {"csv": "x.csv"}, "estimation": {"max_iteration": 3}}
            )

    def test_known_estimation_keys_accepted(self):
        config = StudyConfig.from_json_dict(
            {"input": {"csv": "x.csv"}, "estimation": {"max_iterations": 3}}
        )
        assert config.estimation.max_iterations == 3


class TestLikelihoodConsistency:
    """The fit's final likelihood and :func:`log_likelihood` read the same
    cells through the same kernel, so they agree to the last bit."""

    def test_paper_tensor(self, paper_tensor, paper_estimates):
        ll = log_likelihood(paper_tensor, paper_estimates.params)
        assert ll == paper_estimates.log_likelihood_final

    def test_extreme_heavy_design(self):
        spec = SimSpec(n_persons=60, n_items=2, n_raters=2, scale=ScaleSpec(0, 3),
                       seed=7, ability_sd=4.0)
        tensor, _ = simulate(spec)
        est = estimate(tensor)
        assert sum(flag != "none" for flag in est.extreme_persons) >= 20
        assert log_likelihood(tensor, est.params) == est.log_likelihood_final


class TestSeverityClassification:
    def make_estimates(self, severities, raters=None, converged=True):
        """Estimates carrying given rater severities (other facets trivial)."""
        from facetkit import ModelParams

        n = len(severities)
        raters = raters or tuple(f"R{i + 1}" for i in range(n))
        params = ModelParams(
            np.zeros(2), np.asarray(severities, float), np.zeros(1), np.zeros(6)
        )
        return FacetEstimates(
            params=params,
            se_ability=np.full(2, 0.1),
            se_severity=np.full(n, 0.11),
            se_difficulty=np.full(1, 0.1),
            se_thresholds=np.full(6, 0.1),
            extreme_persons=("none",) * 2,
            extreme_raters=("none",) * n,
            extreme_items=("none",),
            iterations_used=10,
            converged=converged,
            log_likelihood_final=-1.0,
            sweep_log_likelihoods=(-2.0, -1.0),
            max_score_residual=0.001,
            config=EstimationConfig(),
            ids=FacetIds(("p1", "p2"), ("i1",), raters),
            scale=ScaleSpec(0, 6),
        )

    def test_published_anchor_values(self):
        est = self.make_estimates([1.25, -0.37, 0.0])
        labels = severity_classification(est, cut=0.3)
        assert labels["R1"] == "severe"
        assert labels["R2"] == "lenient"
        assert labels["R3"] == "neutral"

    def test_cut_is_exclusive(self):
        est = self.make_estimates([0.3, -0.3])
        labels = severity_classification(est, cut=0.3)
        assert labels == {"R1": "neutral", "R2": "neutral"}

    def test_unconverged_requires_override(self):
        est = self.make_estimates([0.5], converged=False)
        with pytest.raises(ValueError, match="converge"):
            severity_classification(est)
        labels = severity_classification(est, allow_unconverged=True)
        assert labels["R1"] == "severe"


class TestSerialization:
    def test_estimates_json_roundtrip(self, paper_estimates, tmp_path):
        path = tmp_path / "est.json"
        paper_estimates.write_json(path)
        again = FacetEstimates.read_json(path)
        np.testing.assert_allclose(
            again.params.severity, paper_estimates.params.severity, atol=1e-15
        )
        assert again.converged == paper_estimates.converged
        assert again.ids == paper_estimates.ids
        assert again.config == paper_estimates.config
        assert again.to_json_text() == paper_estimates.to_json_text()


class TestMissingData:
    def test_estimation_skips_missing_cells(self):
        spec = dataclasses.replace(paper_spec(seed=51), n_persons=40)
        tensor, _ = simulate(spec)
        values = np.array(tensor.values)
        rng = np.random.default_rng(0)
        holes = rng.random(values.shape) < 0.1
        values[holes] = np.nan
        t = type(tensor)(tensor.scale, tensor.ids, values)
        assert t.connected
        est = estimate(t)
        assert est.converged
        assert np.all(np.isfinite(est.params.ability))
