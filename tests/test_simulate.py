"""Tests for the generative sampler and its pathologies."""

import hashlib

import numpy as np
import pytest

from facetkit import Pathology, ScaleSpec, SimSpec, expected_score, simulate
from conftest import paper_spec


class TestDeterminism:
    def test_same_seed_gives_byte_identical_tensor(self):
        t1, truth1 = simulate(paper_spec(seed=77))
        t2, truth2 = simulate(paper_spec(seed=77))
        assert t1.to_csv_text() == t2.to_csv_text()
        assert t1.to_json_text() == t2.to_json_text()
        np.testing.assert_array_equal(truth1.ability, truth2.ability)

    def test_different_seeds_differ(self):
        t1, _ = simulate(paper_spec(seed=1))
        t2, _ = simulate(paper_spec(seed=2))
        assert t1.to_csv_text() != t2.to_csv_text()

    def test_uniform_severity_is_seeded(self):
        spec = SimSpec(
            n_persons=5, n_items=2, n_raters=6, scale=ScaleSpec(0, 6), seed=9,
            severity=("uniform", -1.0, 1.0),
        )
        _, truth1 = simulate(spec)
        _, truth2 = simulate(spec)
        np.testing.assert_array_equal(truth1.severity, truth2.severity)
        assert np.all(np.abs(truth1.severity) <= 1.0)


# sha256 of simulate(spec).to_json_text(): a change to the kernel or to the
# order of the draws that flips a single score changes the hash.  The
# crossed design has 70 000 cells, more than one kernel call takes.
PINNED_DRAWS = {
    "crossed_0_6": (
        SimSpec(n_persons=700, n_items=4, n_raters=25, scale=ScaleSpec(0, 6), seed=101,
                severity=("uniform", -1.0, 1.0), difficulty=[-0.5, 0.0, 0.2, 0.3],
                thresholds=[-1.5, -0.9, -0.3, 0.2, 0.9, 1.6]),
        "b0c98b50c2262d1cc77d0a676e24005dfbc2ff29d8fcd91ccf8a5c6f2fec6411"),
    "wide_0_3_ability_sd_4": (
        SimSpec(n_persons=300, n_items=2, n_raters=2, scale=ScaleSpec(0, 3), seed=102,
                ability_sd=4.0, thresholds=[-1.0, 0.0, 1.0]),
        "2d0586adb7a0693b3a671d980c3c5dccf4b808665de23e04ee0cfdb925d3112d"),
    "two_categories": (
        SimSpec(n_persons=80, n_items=3, n_raters=4, scale=ScaleSpec(1, 2), seed=103,
                severity=[0.5, -0.5, 0.25, -0.25], ability_sd=1.5),
        "e74db7c54e245184f3d6d9ce474bbba088c23b62407ddce1cc9a1a13fe39f5a6"),
}


@pytest.mark.parametrize("name", sorted(PINNED_DRAWS))
def test_draws_are_pinned(name):
    spec, digest = PINNED_DRAWS[name]
    tensor, _ = simulate(spec)
    assert hashlib.sha256(tensor.to_json_text().encode()).hexdigest() == digest


class TestModelConformance:
    def test_zero_params_give_uniform_categories(self):
        spec = SimSpec(
            n_persons=2000, n_items=2, n_raters=2, scale=ScaleSpec(0, 6), seed=3,
            ability_sd=1e-9,
        )
        tensor, _ = simulate(spec)
        counts = np.bincount(tensor.values.ravel().astype(int), minlength=7)
        n = counts.sum()
        se = np.sqrt(n * (1 / 7) * (6 / 7))
        assert np.all(np.abs(counts - n / 7) < 3 * se)

    def test_severity_lowers_mean_scores(self):
        spec = SimSpec(
            n_persons=400, n_items=2, n_raters=3, scale=ScaleSpec(0, 6), seed=4,
            severity=[1.0, -1.0, 0.0],
        )
        tensor, _ = simulate(spec)
        means = np.nanmean(tensor.values, axis=(0, 1))
        assert means[0] < means[2] < means[1]

    def test_cell_means_converge_to_expected_score(self):
        thr = np.array([-1.6, -0.9, -0.3, 0.3, 0.9, 1.6])
        spec = SimSpec(
            n_persons=5000, n_items=1, n_raters=2, scale=ScaleSpec(0, 6), seed=5,
            ability_mean=0.4, ability_sd=1e-12, severity=[0.5, -0.5],
            thresholds=thr,
        )
        tensor, truth = simulate(spec)
        for r in range(2):
            loc = 0.4 - truth.severity[r]
            e = expected_score(loc, thr)
            w = np.nanvar(tensor.values[:, 0, r])
            se = np.sqrt(w / 5000)
            assert abs(np.nanmean(tensor.values[:, 0, r]) - e) < 3 * se


class TestPathologies:
    def test_noise_validation(self):
        with pytest.raises(ValueError):
            Pathology(noise=1.5)
        with pytest.raises(ValueError):
            Pathology(compression=-0.1)

    def test_pathology_rater_index_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            SimSpec(
                n_persons=5, n_items=2, n_raters=3, scale=ScaleSpec(0, 6), seed=1,
                pathologies={7: Pathology(noise=0.5)},
            )

    def test_noise_changes_only_afflicted_rater(self):
        import dataclasses

        base = paper_spec(seed=42)
        noisy = dataclasses.replace(base, pathologies={3: Pathology(noise=0.8)})
        t0, _ = simulate(base)
        t1, _ = simulate(noisy)
        clean_cols = [r for r in range(12) if r != 3]
        np.testing.assert_array_equal(
            t0.values[:, :, clean_cols], t1.values[:, :, clean_cols]
        )
        assert not np.array_equal(t0.values[:, :, 3], t1.values[:, :, 3])

    def test_compression_pulls_scores_to_middle(self):
        spec = SimSpec(
            n_persons=500, n_items=2, n_raters=2, scale=ScaleSpec(0, 6), seed=6,
            pathologies={1: Pathology(compression=0.5)},
        )
        tensor, _ = simulate(spec)
        sd_clean = np.nanstd(tensor.values[:, :, 0])
        sd_squeezed = np.nanstd(tensor.values[:, :, 1])
        assert sd_squeezed < 0.7 * sd_clean

    def test_full_compression_is_all_middle(self):
        spec = SimSpec(
            n_persons=50, n_items=1, n_raters=2, scale=ScaleSpec(0, 6), seed=7,
            pathologies={0: Pathology(compression=1.0)},
        )
        tensor, _ = simulate(spec)
        assert np.all(tensor.values[:, :, 0] == 3.0)


class TestSpecValidation:
    def test_thresholds_must_be_centered(self):
        with pytest.raises(ValueError, match="centered"):
            SimSpec(
                n_persons=5, n_items=2, n_raters=2, scale=ScaleSpec(0, 6), seed=1,
                thresholds=[1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            )

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            SimSpec(n_persons=0, n_items=2, n_raters=2, scale=ScaleSpec(0, 6), seed=1)

    def test_json_roundtrip(self):
        spec = paper_spec(seed=11)
        again = SimSpec.from_json_dict(spec.to_json_dict())
        assert again.to_json_dict() == spec.to_json_dict()
        spec2 = SimSpec(
            n_persons=5, n_items=2, n_raters=3, scale=ScaleSpec(0, 6), seed=2,
            severity=("uniform", -0.5, 0.5),
            pathologies={1: Pathology(noise=0.25)},
        )
        again2 = SimSpec.from_json_dict(spec2.to_json_dict())
        assert again2.severity == ("uniform", -0.5, 0.5)
        assert again2.pathologies[1].noise == 0.25

    def test_ids_carried_through(self):
        tensor, _ = simulate(paper_spec())
        assert tensor.ids.items == ("SN1", "ER1", "SN2", "ER2")
        assert tensor.ids.raters[:2] == ("R1", "R2")
        assert tensor.shape == (30, 4, 12)
        assert tensor.connected
