"""Tests for ensemble raters and greedy leave-worst-out pruning."""


import numpy as np
import pytest

from facetkit import (
    EnsembleSpec,
    Pathology,
    ScaleSpec,
    SimSpec,
    build_ensemble,
    greedy_prune,
    qwk,
    removal_chain,
    simulate,
)
from conftest import declared_missing, score_of, small_tensor


class TestEnsembleSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            EnsembleSpec("E", ())
        with pytest.raises(ValueError, match="duplicate"):
            EnsembleSpec("E", ("a", "a"))
        with pytest.raises(ValueError, match="rounding"):
            EnsembleSpec("E", ("a",), rounding="nearest")


class TestBuildEnsemble:
    def test_singleton_equals_member(self, paper_tensor):
        extended = build_ensemble(paper_tensor, EnsembleSpec("E1", ("R1",)))
        np.testing.assert_array_equal(
            extended.values[:, :, -1], paper_tensor.values[:, :, 0]
        )

    def test_half_away_rounding(self):
        t = small_tensor([[3, 4], [2, 3]], raters=("a", "b"))
        extended = build_ensemble(t, EnsembleSpec("E", ("a", "b")))
        assert score_of(extended, "p1", "i1", "E") == 4.0  # mean 3.5 rounds up
        assert score_of(extended, "p2", "i1", "E") == 3.0  # mean 2.5 rounds up too

    def test_half_even_rounding(self):
        t = small_tensor([[3, 4], [2, 3]], raters=("a", "b"))
        extended = build_ensemble(
            t, EnsembleSpec("E", ("a", "b"), rounding="half-to-even")
        )
        assert score_of(extended, "p1", "i1", "E") == 4.0  # 3.5 -> even 4
        assert score_of(extended, "p2", "i1", "E") == 2.0  # 2.5 -> even 2

    def test_no_rounding_gives_fractional_tensor(self):
        t = small_tensor([[3, 4], [2, 3]], raters=("a", "b"))
        extended = build_ensemble(t, EnsembleSpec("E", ("a", "b"), rounding="none"))
        assert score_of(extended, "p1", "i1", "E") == 3.5
        assert not extended.integer_scores
        with pytest.raises(ValueError, match="integer"):
            qwk(extended, "E", "a")

    def test_fractional_tensor_survives_json_roundtrip(self):
        from facetkit import RatingsTensor

        t = small_tensor([[3, 4], [2, 3]], raters=("a", "b"))
        extended = build_ensemble(t, EnsembleSpec("E", ("a", "b"), rounding="none"))
        again = RatingsTensor.from_json_dict(extended.to_json_dict())
        assert again == extended
        assert not again.integer_scores

    def test_scores_stay_in_scale(self, paper_tensor):
        extended = build_ensemble(
            paper_tensor, EnsembleSpec("E", paper_tensor.ids.raters[:10])
        )
        scores = extended.values[:, :, -1]
        assert np.nanmin(scores) >= 0 and np.nanmax(scores) <= 6

    def test_member_order_irrelevant(self, paper_tensor):
        fwd = build_ensemble(paper_tensor, EnsembleSpec("E", ("A1", "A2", "A3")))
        rev = build_ensemble(paper_tensor, EnsembleSpec("E", ("A3", "A1", "A2")))
        np.testing.assert_array_equal(fwd.values, rev.values)

    def test_identical_members_collapse_to_member(self):
        t = small_tensor(np.array([[[3, 3]], [[5, 5]]]), raters=("a", "b"))
        extended = build_ensemble(t, EnsembleSpec("E", ("a", "b")))
        np.testing.assert_array_equal(extended.values[:, :, 2], t.values[:, :, 0])

    def test_missing_member_cells_use_present_subset(self):
        t = small_tensor([[3, np.nan], [2, 4]], raters=("a", "b"))
        extended = build_ensemble(t, EnsembleSpec("E", ("a", "b")))
        assert score_of(extended, "p1", "i1", "E") == 3.0  # only member a present
        assert score_of(extended, "p2", "i1", "E") == 3.0

    def test_all_members_missing_leaves_cell_missing(self):
        t = small_tensor([[np.nan, np.nan, 4], [2, 3, 4]], raters=("a", "b", "c"))
        with pytest.warns(UserWarning, match="no member scores"):
            extended = build_ensemble(t, EnsembleSpec("E", ("a", "b")))
        assert np.isnan(score_of(extended, "p1", "i1", "E"))
        assert declared_missing(extended)[0, 0, 3]

    def test_duplicate_name_rejected(self, paper_tensor):
        with pytest.raises(ValueError, match="already exists"):
            build_ensemble(paper_tensor, EnsembleSpec("R1", ("A1",)))

    def test_unknown_member(self, paper_tensor):
        with pytest.raises(KeyError, match="ghost"):
            build_ensemble(paper_tensor, EnsembleSpec("E", ("ghost",)))


class TestRemovalChain:
    def test_paper_chain_replay(self):
        members = [f"A{i}" for i in range(1, 11)]
        specs = removal_chain(
            members,
            removals=[["A7"], ["A9"], ["A6"], ["A8"], ["A2", "A4"]],
            names=["AI11", "AI12", "AI13", "AI14", "AI15", "AI16"],
        )
        assert [s.name for s in specs] == ["AI11", "AI12", "AI13", "AI14", "AI15", "AI16"]
        assert specs[0].members == tuple(members)
        assert "A7" not in specs[1].members and len(specs[1].members) == 9
        assert "A9" not in specs[2].members and len(specs[2].members) == 8
        assert "A6" not in specs[3].members and len(specs[3].members) == 7
        assert "A8" not in specs[4].members and len(specs[4].members) == 6
        assert specs[5].members == ("A1", "A3", "A5", "A10")

    def test_chain_specs_buildable(self, paper_tensor):
        specs = removal_chain(
            [f"A{i}" for i in range(1, 11)],
            removals=[["A7"]],
            names=["AI11", "AI12"],
        )
        extended = paper_tensor
        for spec in specs:
            extended = build_ensemble(extended, spec)
        assert extended.ids.raters[-2:] == ("AI11", "AI12")

    def test_chain_validates_membership(self):
        with pytest.raises(ValueError, match="not a current member"):
            removal_chain(["A1", "A2"], [["A3"]], ["E0", "E1"])
        with pytest.raises(ValueError, match="names"):
            removal_chain(["A1", "A2"], [["A1"]], ["E0"])


def noise_member_spec(seed, n_members=10, noise_index=9, n_persons=30):
    """Benchmarks B1, B2 plus members M1..Mn, the last one pure noise."""
    rater_ids = ("B1", "B2") + tuple(f"M{i + 1}" for i in range(n_members))
    return SimSpec(
        n_persons=n_persons,
        n_items=4,
        n_raters=2 + n_members,
        scale=ScaleSpec(0, 6),
        seed=seed,
        difficulty=[0.2, -0.2, 0.4, -0.4],
        thresholds=[-2.1, -1.3, -0.45, 0.45, 1.3, 2.1],
        pathologies={2 + noise_index: Pathology(noise=1.0)},
        rater_ids=rater_ids,
    )


class TestGreedyPrune:
    def test_zero_steps_traces_only_full_ensemble(self, paper_tensor):
        trace = greedy_prune(
            paper_tensor, [f"A{i}" for i in range(1, 11)], ["R1", "R2"], steps=0
        )
        assert len(trace.steps) == 1
        assert trace.steps[0].removed is None
        assert len(trace.steps[0].cell_qwks) == 8  # 2 benchmarks x 4 items
        assert trace.removal_order == ()

    def test_noise_rater_removed_first(self):
        tensor, _ = simulate(noise_member_spec(seed=505))
        members = [f"M{i}" for i in range(1, 11)]
        trace = greedy_prune(tensor, members, ["B1", "B2"], steps=1)
        assert trace.steps[1].removed == "M10"
        assert trace.steps[1].mean_qwk > trace.steps[0].mean_qwk

    def test_deterministic(self, paper_tensor):
        members = [f"A{i}" for i in range(1, 11)]
        t1 = greedy_prune(paper_tensor, members, ["R1", "R2"], steps=3)
        t2 = greedy_prune(paper_tensor, list(reversed(members)), ["R1", "R2"], steps=3)
        assert t1.removal_order == t2.removal_order
        assert [s.mean_qwk for s in t1.steps] == [s.mean_qwk for s in t2.steps]

    def test_validation(self, paper_tensor):
        with pytest.raises(ValueError, match="disjoint"):
            greedy_prune(paper_tensor, ["A1", "R1"], ["R1"], steps=1)
        with pytest.raises(ValueError, match="cannot remove"):
            greedy_prune(paper_tensor, ["A1", "A2"], ["R1"], steps=2)
        with pytest.raises(KeyError, match="ghost"):
            greedy_prune(paper_tensor, ["A1", "A2"], ["ghost"], steps=1)
        with pytest.raises(KeyError, match="unknown rater identifier 'ghost'"):
            greedy_prune(paper_tensor, ["A1", "ghost"], ["R1"])
        with pytest.raises(KeyError, match="unknown item identifier 'nowhere'"):
            greedy_prune(paper_tensor, ["A1", "A2"], ["R1"], items=["nowhere"])
        with pytest.raises(ValueError, match="steps must be >= 0"):
            greedy_prune(paper_tensor, ["A1", "A2"], ["R1"], steps=-1)

    def test_rejects_empty_benchmarks_or_items(self, paper_tensor):
        members = [f"A{i}" for i in range(1, 11)]
        with pytest.raises(ValueError, match="at least one benchmark and one item"):
            greedy_prune(paper_tensor, members, [], steps=2)
        with pytest.raises(ValueError, match="at least one benchmark and one item"):
            greedy_prune(paper_tensor, members, ["R1", "R2"], items=[], steps=2)

    def test_rejects_repeated_members(self, paper_tensor):
        with pytest.raises(ValueError, match="duplicate ensemble member"):
            greedy_prune(paper_tensor, ["A1", "A1", "A2", "A3"], ["R1"], steps=1)

    def test_trace_records(self, paper_tensor):
        trace = greedy_prune(paper_tensor, ["A1", "A2", "A3"], ["R1"], steps=1)
        records = trace.to_records()
        assert records[0]["step"] == 0 and records[0]["removed"] == ""
        assert {r["benchmark"] for r in records} == {"R1"}
        assert len(records) == 2 * 4  # two steps x four items
