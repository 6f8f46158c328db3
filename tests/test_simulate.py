"""Tests for the generative sampler and its pathologies."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facetkit import ModelParams, Pathology, ScaleSpec, SimSpec, expected_score, simulate
from facetkit.model import category_probs
from facetkit.rounding import round_half_away
from facetkit.simulate import _person_states
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
    "noise_and_compression_0_6": (
        SimSpec(n_persons=400, n_items=3, n_raters=6, scale=ScaleSpec(0, 6), seed=104,
                severity=[-0.6, -0.2, 0.0, 0.1, 0.3, 0.4],
                thresholds=[-1.8, -1.0, -0.3, 0.3, 1.0, 1.8],
                pathologies={1: Pathology(noise=0.35), 3: Pathology(compression=0.6),
                             5: Pathology(noise=0.2, compression=0.3)}),
        "583e675c48e2eb9a98e4c97060edf60946b83a00a260a99d5d533f7143a51836"),
    # 701 persons of 200 cells: a whole number of neither 2**16- nor
    # 2**13-cell blocks, and at least three of each
    "persons_across_blocks": (
        SimSpec(n_persons=701, n_items=4, n_raters=50, scale=ScaleSpec(1, 5), seed=105,
                severity=("uniform", -1.5, 1.5), difficulty=[-0.3, -0.1, 0.1, 0.3],
                thresholds=[-1.2, -0.4, 0.4, 1.2]),
        "e76c080bb4b2eeb5657d92579d4fb2b2ce40e71420e871643d064965b6676dde"),
    # three persons lie past 700/3 logits, so category_probs subtracts the
    # row max in any call that holds one of them, and only there
    "ability_sd_70_overflow_guard": (
        SimSpec(n_persons=3000, n_items=2, n_raters=3, scale=ScaleSpec(0, 6), seed=106,
                ability_sd=70.0, severity=[-0.5, 0.0, 0.5]),
        "1fac72c9d55c70730f6c6535efff193719188239bdb52a3f2165e39f2b3a7def"),
}


@pytest.mark.parametrize("name", sorted(PINNED_DRAWS))
def test_draws_are_pinned(name):
    spec, digest = PINNED_DRAWS[name]
    tensor, _ = simulate(spec)
    assert hashlib.sha256(tensor.to_json_text().encode()).hexdigest() == digest


def reference_simulate(spec):
    """The scores and generating parameters of ``spec`` as first drawn: every
    uniform of the design in one float64 cube, categories counted in float64
    over blocks of about 2**16 cells, from ``np.cumsum`` of the
    probabilities."""
    K = spec.scale.num_categories - 1
    severity = spec._vector("severity", spec.n_raters)
    difficulty = spec._vector("difficulty", spec.n_items)
    thresholds = spec._vector("thresholds", K)
    ability = np.empty(spec.n_persons)
    u = np.empty((spec.n_persons, spec.n_items, spec.n_raters))
    for j in range(spec.n_persons):
        rng = np.random.default_rng([spec.seed, 0, j])
        ability[j] = rng.normal(spec.ability_mean, spec.ability_sd)
        u[j] = rng.random((spec.n_items, spec.n_raters))
    base_loc = -(difficulty[:, None] + severity[None, :])
    cats = np.zeros(u.shape)
    block = max(1, 2**16 // base_loc.size)
    for p0 in range(0, spec.n_persons, block):
        cdf = category_probs(ability[p0:p0 + block, None, None] + base_loc, thresholds)
        np.cumsum(cdf, axis=-1, out=cdf)
        for k in range(K):
            cats[p0:p0 + block] += u[p0:p0 + block] > cdf[..., k]
    for ridx in sorted(int(r) for r in spec.pathologies):
        pathology = spec.pathologies[ridx]
        rng = np.random.default_rng([spec.seed, 1, ridx])
        if pathology.noise > 0.0:
            hit = rng.random((spec.n_persons, spec.n_items)) < pathology.noise
            replacement = rng.integers(0, K + 1, (spec.n_persons, spec.n_items))
            cats[:, :, ridx] = np.where(hit, replacement, cats[:, :, ridx])
        if pathology.compression > 0.0:
            mid = K / 2.0
            pulled = mid + (cats[:, :, ridx] - mid) * (1.0 - pathology.compression)
            cats[:, :, ridx] = np.clip(round_half_away(pulled), 0, K)
    return cats.ravel() + spec.scale.min_score, ModelParams(ability, severity, difficulty,
                                                             thresholds)


@st.composite
def sim_specs(draw):
    """Designs of 1-12 items and raters on scales of 1-9 steps, blocks of
    persons cut anywhere, abilities spread up to 300 logits, so that some
    kernel calls subtract the row max and others not, and any pathology."""
    n_items, n_raters = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    K = draw(st.integers(1, 9))
    low = draw(st.integers(-3, 3))
    reals = st.floats(-3.0, 3.0)
    thresholds = draw(st.one_of(st.none(), st.lists(reals, min_size=K, max_size=K)))
    if thresholds is not None:
        thresholds = list(np.asarray(thresholds) - np.mean(thresholds))
    severity = draw(st.one_of(
        st.none(), st.lists(reals, min_size=n_raters, max_size=n_raters),
        st.builds(lambda a, width: ("uniform", a, a + width), reals, st.floats(0.0, 3.0))))
    shares = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    pathologies = draw(st.dictionaries(
        st.integers(0, n_raters - 1), st.builds(Pathology, shares, shares), max_size=3))
    return SimSpec(
        n_persons=draw(st.integers(1, 2000)), n_items=n_items, n_raters=n_raters,
        scale=ScaleSpec(low, low + K), seed=draw(st.integers(0, 2**64 - 1)),
        ability_mean=draw(reals),
        ability_sd=draw(st.one_of(st.floats(1e-3, 3.0), st.floats(3.0, 300.0))),
        severity=severity,
        difficulty=draw(st.one_of(st.none(),
                                  st.lists(reals, min_size=n_items, max_size=n_items))),
        thresholds=thresholds, pathologies=pathologies)


@settings(max_examples=40, deadline=None)
@given(sim_specs())
@example(PINNED_DRAWS["ability_sd_70_overflow_guard"][0])
@example(SimSpec(n_persons=9000, n_items=1, n_raters=1, scale=ScaleSpec(0, 1), seed=7,
                 ability_sd=300.0))
# one person, with a seed of two 32-bit words
@example(SimSpec(n_persons=1, n_items=3, n_raters=2, scale=ScaleSpec(0, 4), seed=2**64 - 1))
# 300 steps: counts past 255 need more than a byte
@example(SimSpec(n_persons=40, n_items=2, n_raters=3, scale=ScaleSpec(-5, 295), seed=8,
                 ability_sd=60.0, pathologies={1: Pathology(noise=0.5, compression=0.2)}))
def test_draws_match_the_reference(spec):
    tensor, truth = simulate(spec)
    scores, want = reference_simulate(spec)
    assert tensor.listed_scores.dtype == scores.dtype
    assert tensor.listed_scores.tobytes() == scores.tobytes()
    np.testing.assert_array_equal(tensor.listed_codes, np.arange(scores.size))
    for name in ("ability", "severity", "difficulty", "thresholds"):
        assert getattr(truth, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_person_states_are_default_rngs(seed):
    """The states built in one pass are those ``default_rng([seed, 0, j])``
    starts from, for seeds of one 32-bit word and of two, and 4000 persons."""
    want = [np.random.default_rng([seed, 0, j]).bit_generator.state for j in range(4000)]
    assert list(_person_states(seed, 4000)) == want


def test_memory_per_cell():
    """A 1000 x 4 x 201 draw (804 000 cells) traces at most 46 bytes a cell,
    35.7 with numpy 2.4: the listed codes and scores take 16, the score
    check's float64 temporaries most of the rest, and the category counts
    one.  With every uniform in one float64 cube and float64 counts, as
    ``reference_simulate`` draws, the peak was 50.7."""
    spec = SimSpec(n_persons=1000, n_items=4, n_raters=201, scale=ScaleSpec(0, 6), seed=1,
                   severity=np.linspace(-1.0, 1.0, 201))
    tracemalloc.start()
    try:
        tensor, _ = simulate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tensor.n_cells == 804000
    assert peak <= 46 * tensor.n_cells


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

    @pytest.mark.parametrize("field, value", [("severity", [0.5, -0.5]),
                                              ("difficulty", [0.2, 0.0, -0.2])])
    def test_wrong_length_vector_is_rejected_when_built(self, field, value):
        with pytest.raises(ValueError, match=f"expected [23] {field} values"):
            SimSpec(n_persons=5, n_items=2, n_raters=3, scale=ScaleSpec(0, 6), seed=1,
                    **{field: value})

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            SimSpec(n_persons=0, n_items=2, n_raters=2, scale=ScaleSpec(0, 6), seed=1)

    @pytest.mark.parametrize("field, value", [
        ("ability_sd", float("nan")), ("ability_sd", float("inf")), ("ability_sd", 0.0),
        ("ability_sd", -1.0), ("ability_mean", float("nan")), ("ability_mean", float("inf")),
        ("ability_mean", -float("inf"))])
    def test_ability_settings_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SimSpec(n_persons=5, n_items=2, n_raters=2, scale=ScaleSpec(0, 6), seed=1,
                    **{field: value})
        d = SimSpec(n_persons=5, n_items=2, n_raters=2, scale=ScaleSpec(0, 6),
                    seed=1).to_json_dict()
        d["ability"][field.removeprefix("ability_")] = value
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SimSpec.from_json_dict(d)

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

    @pytest.mark.parametrize("key, value, named", [
        ("pathologies", ["1"], "pathologies must be a JSON object"),
        ("pathologies", {"1": 0.2}, "pathologies['1'] must be a JSON object"),
        ("pathologies", {"1": {"noise": "0.2"}}, "pathologies['1'].noise must be a JSON number"),
        ("ability", [1], "ability must be a JSON object"),
        ("ability", {"sd": None}, "ability.sd must be a JSON number"),
        ("item_ids", "AB", "item_ids must be a JSON list"),
        ("n_persons", 5.7, "n_persons must be a JSON integer"),
        ("n_raters", True, "n_raters must be a JSON integer"),
        ("seed", 1.5, "seed must be a JSON integer"),
        ("scale", {"min_score": 0, "max_score": 6.5}, "scale.max_score must be a JSON integer"),
        ("scale", [0, 6], "scale must be a JSON object"),
        ("severity", {"uniform": [1]}, "uniform bounds must be a JSON list of 2"),
        ("severity", [0.5, "x"], "severity must be a JSON number"),
        ("thresholds", "0", "thresholds must be a JSON list"),
        ("severity", {"uniform": [1, "x"]}, "severity's uniform bounds[1] must be a JSON number"),
        ("ability", {"sd": 1.0, "mu": 0.0}, "unknown ability key(s): mu"),
        ("abilities", {"sd": 1.0}, "unknown simulation spec key(s): abilities"),
    ])
    def test_malformed_json_value_names_its_key(self, key, value, named):
        d = SimSpec(n_persons=5, n_items=2, n_raters=2, scale=ScaleSpec(0, 6),
                    seed=1).to_json_dict()
        d[key] = value
        with pytest.raises(ValueError, match=re.escape(named)):
            SimSpec.from_json_dict(d)

    def test_json_spec_must_be_an_object(self):
        with pytest.raises(ValueError, match="simulation spec must be a JSON object"):
            SimSpec.from_json_dict([paper_spec().to_json_dict()])

    def test_ids_carried_through(self):
        tensor, _ = simulate(paper_spec())
        assert tensor.ids.items == ("SN1", "ER1", "SN2", "ER2")
        assert tensor.ids.raters[:2] == ("R1", "R2")
        assert tensor.shape == (30, 4, 12)
        assert tensor.connected
