"""Tests for the rating data model and CSV/JSON ingestion."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetkit import (
    EnsembleSpec,
    FacetIds,
    IngestError,
    RatingsTensor,
    ScaleSpec,
    build_ensemble,
    cronbach_alpha,
    greedy_prune,
    ingest_csv,
    ingest_csv_text,
    qwk,
    qwk_matrix,
)
from facetkit.study import alpha_table
from conftest import cube_tensor, declared_missing, score_of

HEADER = "person_id,item_id,rater_id,score\n"


def csv_text(rows):
    return HEADER + "\n".join(rows) + "\n"


def paper_shaped_csv():
    rows = []
    for p in range(30):
        for item in ("SN1", "ER1", "SN2", "ER2"):
            for r in range(12):
                rows.append(f"p{p + 1},{item},r{r + 1},{(p + r) % 7}")
    return csv_text(rows)


class TestScaleSpec:
    def test_num_categories(self):
        assert ScaleSpec(0, 6).num_categories == 7
        assert ScaleSpec(1, 5).num_categories == 5

    def test_rejects_empty_scale(self):
        with pytest.raises(ValueError):
            ScaleSpec(4, 4)
        with pytest.raises(ValueError):
            ScaleSpec(6, 0)


class TestFacetIds:
    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="duplicate"):
            FacetIds(("p1", "p1"), ("i1",), ("r1",))
        with pytest.raises(ValueError, match="empty"):
            FacetIds((), ("i1",), ("r1",))

    def test_first_appearance_order_preserved(self):
        t = ingest_csv_text(csv_text(["b,i1,r1,3", "a,i1,r1,4", "c,i1,r1,5"]))
        assert t.ids.persons == ("b", "a", "c")


class TestUnknownIds:
    """Every public entry point that takes ids names an unknown one, and
    its facet, in the same words."""

    ITEMS = ("SN1", "ER1", "SN2", "ER2")
    CALLS = {
        "qwk_candidate": ("rater", lambda t, e: qwk(t, "ghost", "R1")),
        "qwk_benchmark": ("rater", lambda t, e: qwk(t, "A1", "ghost")),
        "qwk_item": ("item", lambda t, e: qwk(t, "A1", "R1", ["SN1", "ghost"])),
        "qwk_matrix_benchmark": ("rater", lambda t, e: qwk_matrix(t, ["ghost"], ["A1"],
                                                                  [TestUnknownIds.ITEMS])),
        "qwk_matrix_item": ("item", lambda t, e: qwk_matrix(t, ["R1"], ["A1"], [["ghost"]])),
        "cronbach_alpha_rater": ("rater", lambda t, e: cronbach_alpha(t, "ghost",
                                                                      TestUnknownIds.ITEMS)),
        "cronbach_alpha_item": ("item", lambda t, e: cronbach_alpha(t, "A1", ["SN1", "ghost"])),
        "alpha_table_rater": ("rater", lambda t, e: alpha_table(
            t, [("all", TestUnknownIds.ITEMS)], ["ghost"])),
        "alpha_table_item": ("item", lambda t, e: alpha_table(t, [("g", ("SN1", "ghost"))],
                                                              ["A1"])),
        "build_ensemble": ("rater", lambda t, e: build_ensemble(
            t, EnsembleSpec("E", ("A1", "ghost")))),
        "greedy_prune_member": ("rater", lambda t, e: greedy_prune(t, ["A1", "ghost"], ["R1"])),
        "greedy_prune_benchmark": ("rater", lambda t, e: greedy_prune(t, ["A1", "A2"],
                                                                      ["ghost"])),
        "greedy_prune_item": ("item", lambda t, e: greedy_prune(t, ["A1", "A2"], ["R1"],
                                                                ["ghost"])),
        "severity_of": ("rater", lambda t, e: e.severity_of("ghost")),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_unknown_id_is_named(self, call, paper_tensor, paper_estimates):
        facet, fn = self.CALLS[call]
        with pytest.raises(KeyError) as e:
            fn(paper_tensor, paper_estimates)
        assert e.value.args == (f"unknown {facet} identifier 'ghost'",)

    def test_codes_of_known_ids(self):
        ids = FacetIds(("p1", "p2"), ("i1",), ("r1", "r2", "r3"))
        assert ids.codes("rater", ["r3", "r1", "r3"]) == [2, 0, 2]
        assert ids.codes("person", []) == []
        with pytest.raises(KeyError) as e:
            ids.codes("item", ["i1", "r1", "x"])
        assert e.value.args == ("unknown item identifier 'r1'",)


class TestIngest:
    def test_four_row_example(self):
        text = csv_text(["p1,I1,r1,3", "p1,I1,r2,4", "p2,I1,r1,4", "p2,I1,r2,5"])
        with pytest.warns(UserWarning, match="narrower"):
            t = ingest_csv_text(text, scale_min=0, scale_max=6)
        assert t.n_cells == 4
        assert t.scale.num_categories == 7
        assert score_of(t, "p1", "I1", "r1") == 3
        assert score_of(t, "p2", "I1", "r2") == 5

    def test_score_out_of_range_reports_line(self):
        text = csv_text(["p1,SN1,R1,3", "p1,SN1,R2,9"])
        with pytest.raises(IngestError, match="score out of range at line 3"):
            ingest_csv_text(text, scale_min=0, scale_max=6)

    def test_paper_shaped_file(self):
        t = ingest_csv_text(paper_shaped_csv())
        assert t.n_cells == 1440
        assert t.shape == (30, 4, 12)
        assert t.connected

    def test_duplicate_triple_is_error(self):
        text = csv_text(["p1,I1,r1,3", "p1,I1,r1,3"])
        with pytest.raises(IngestError, match="duplicate"):
            ingest_csv_text(text)

    def test_blank_score_declares_missing(self):
        text = csv_text(["p1,I1,r1,3", "p1,I1,r2,", "p2,I1,r1,2", "p2,I1,r2,4"])
        t = ingest_csv_text(text)
        assert t.n_cells == 3
        assert declared_missing(t)[0, 0, 1]
        assert np.isnan(score_of(t, "p1", "I1", "r2"))

    def test_malformed_row(self):
        with pytest.raises(IngestError, match="line 3"):
            ingest_csv_text(csv_text(["p1,I1,r1,3", "p1,I1,3"]))

    def test_non_integer_score(self):
        with pytest.raises(IngestError, match="non-integer"):
            ingest_csv_text(csv_text(["p1,I1,r1,3.7"]))

    def test_empty_file(self):
        with pytest.raises(IngestError, match="empty file"):
            ingest_csv_text("")
        with pytest.raises(IngestError, match="no data rows"):
            ingest_csv_text(HEADER)

    def test_bad_header(self):
        with pytest.raises(IngestError, match="header"):
            ingest_csv_text("a,b,c,d\np1,I1,r1,3\n")

    def test_narrow_observed_range_warns(self):
        text = csv_text(["p1,I1,r1,2", "p1,I1,r2,3", "p2,I1,r1,3", "p2,I1,r2,2"])
        with pytest.warns(UserWarning, match="narrower"):
            ingest_csv_text(text, scale_min=0, scale_max=6)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(paper_shaped_csv(), encoding="utf-8")
        t = ingest_csv(path)
        assert t.n_cells == 1440


@st.composite
def presence_cubes(draw):
    """Which cells of a 1-8 person x 1-4 item x 1-5 rater design are scored:
    1, 2 or 3 cells in 4.  Sometimes the elements of each facet fall into
    two blocks and a cell is kept only where the blocks of some of its
    facets agree (persons and raters: rater groups that share only items;
    items and raters: raters nested in items; all three: two designs), and
    sometimes one person has no cells."""
    P, I, R = (draw(st.integers(1, n)) for n in (8, 4, 5))
    fill = draw(st.integers(1, 3))  # keep 1, 2 or 3 cells in 4
    draws = st.lists(st.integers(0, 3), min_size=P * I * R, max_size=P * I * R)
    present = np.array(draw(draws)).reshape(P, I, R) < fill
    blocks = [np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))).reshape(shape)
              for n, shape in ((P, (P, 1, 1)), (I, (1, I, 1)), (R, (1, 1, R)))]
    for f, g in draw(st.sets(st.sampled_from([(0, 1), (0, 2), (1, 2)]))):
        present &= blocks[f] == blocks[g]
    if draw(st.booleans()):
        present[draw(st.integers(0, P - 1))] = False  # an isolated person
    return present


class TestTensorInvariants:
    def test_scores_validated_against_scale(self):
        ids = FacetIds(("p1",), ("i1",), ("r1",))
        with pytest.raises(ValueError, match="outside scale"):
            cube_tensor(ScaleSpec(0, 6), ids, np.array([[[9.0]]]))

    def test_integer_scores_enforced(self):
        ids = FacetIds(("p1",), ("i1",), ("r1",))
        with pytest.raises(ValueError, match="non-integer"):
            cube_tensor(ScaleSpec(0, 6), ids, np.array([[[3.5]]]))
        t = cube_tensor(ScaleSpec(0, 6), ids, np.array([[[3.5]]]), integer_scores=False)
        assert score_of(t, "p1", "i1", "r1") == 3.5

    def test_never_equal_to_another_type(self):
        t = ingest_csv_text(csv_text(["p1,I1,r1,3", "p2,I1,r1,4"]))
        assert (t == 1) is False
        assert t != "tensor"

    def test_values_are_immutable(self):
        t = ingest_csv_text(csv_text(["p1,I1,r1,3", "p2,I1,r1,4"]))
        with pytest.raises(ValueError):
            t.values[0, 0, 0] = 5.0

    def test_fully_crossed_cell_count(self):
        t = ingest_csv_text(paper_shaped_csv())
        P, I, R = t.shape
        assert t.n_cells == P * I * R - declared_missing(t).sum()

    def test_disconnected_design_detected(self):
        # two blocks sharing no persons, items, or raters
        text = csv_text(["p1,I1,r1,3", "p1,I1,r1b,4", "p2,I2,r2,2", "p2,I2,r2b,5"])
        t = ingest_csv_text(text)
        assert not t.connected

    @settings(max_examples=300, deadline=None)
    @given(presence_cubes())
    def test_connected_matches_breadth_first_search(self, present):
        assert tensor_of(present).connected == breadth_first_connected(present)

    @settings(max_examples=300, deadline=None)
    @given(presence_cubes())
    def test_disconnected_only_when_the_design_is_rank_short(self, present):
        # a cell's location is ability - severity - difficulty: persons
        # shifted with raters, or with items, leave every location as it
        # was, so identified measures need the cells' +-1 incidence matrix
        # (persons +1, items and raters -1) to have rank P + I + R - 2
        P, I, R = present.shape
        p, i, r = np.nonzero(present)
        design = np.zeros((p.size, P + I + R))
        for codes, sign in ((p, 1.0), (P + i, -1.0), (P + I + r, -1.0)):
            design[np.arange(p.size), codes] = sign
        # the check is exact for each pair of facets: their graph is one
        # component when their columns have rank one below their count
        columns = np.split(np.arange(P + I + R), [P, P + I])
        pairs_linked = all(
            np.linalg.matrix_rank(design[:, np.r_[columns[f], columns[g]]])
            == columns[f].size + columns[g].size - 1
            for f, g in ((0, 2), (0, 1), (2, 1)))
        assert tensor_of(present).connected == pairs_linked
        # and necessary for the three facets at once, not sufficient: a few
        # small designs pass it and are still rank-short
        if not pairs_linked:
            assert np.linalg.matrix_rank(design) < P + I + R - 2


def tensor_of(present):
    values = np.where(present, 1.0, np.nan)
    ids = FacetIds(*(tuple(f"{c}{k}" for k in range(n)) for c, n in zip("pir", present.shape)))
    return cube_tensor(ScaleSpec(0, 2), ids, values)


def breadth_first_connected(present):
    """Reference check: one breadth-first search over each graph of two
    facets (persons and raters, persons and items, raters and items), with
    an edge wherever a cell holds both; each must reach every element of
    its two facets."""
    P, I, R = present.shape
    cells = np.argwhere(present)
    for (f, nf), (g, ng) in (((0, P), (2, R)), ((0, P), (1, I)), ((2, R), (1, I))):
        neighbours = [set() for _ in range(nf + ng)]
        for cell in cells:
            a, b = cell[f], nf + cell[g]
            neighbours[a].add(b)
            neighbours[b].add(a)
        seen, frontier = {0}, [0]
        while frontier:
            for node in neighbours[frontier.pop()] - seen:
                seen.add(node)
                frontier.append(node)
        if len(seen) < nf + ng:
            return False
    return True


class TestRoundTrip:
    def test_csv_roundtrip_identical(self):
        text = csv_text(["p1,I1,r1,3", "p1,I1,r2,", "p2,I1,r1,0", "p2,I1,r2,6"])
        t1 = ingest_csv_text(text, scale_min=0, scale_max=6)
        t2 = ingest_csv_text(t1.to_csv_text(), scale_min=0, scale_max=6)
        assert t1 == t2

    def test_json_roundtrip_identical(self):
        t1 = ingest_csv_text(paper_shaped_csv())
        t2 = RatingsTensor.from_json_dict(t1.to_json_dict())
        assert t1 == t2

    def test_long_rows_match_dense_triple_loop(self):
        text = csv_text([
            "p1,I1,r1,3", "p1,I1,r2,", "p1,I2,r1,1", "p1,I2,r2,2",
            "p2,I1,r1,0", "p2,I2,r2,6", "p2,I1,r2,",
            "p3,I1,r1,5", "p3,I2,r1,4", "p3,I2,r2,", "p4,I1,r3,2", "p4,I2,r3,",
        ])
        base = ingest_csv_text(text, scale_min=0, scale_max=6)
        with pytest.warns(UserWarning, match="no member scores"):
            tensor = build_ensemble(base, EnsembleSpec("E", ("r1", "r2"), "none"))
        assert not tensor.integer_scores

        # reference: walk the whole cube person-major, as a reader would
        expected, declared = [], declared_missing(tensor)
        for p, person in enumerate(tensor.ids.persons):
            for i, item in enumerate(tensor.ids.items):
                for r, rater in enumerate(tensor.ids.raters):
                    s = tensor.values[p, i, r]
                    if not np.isnan(s):
                        expected.append([person, item, rater,
                                         int(s) if s == int(s) else float(s)])
                    elif declared[p, i, r]:
                        expected.append([person, item, rater, None])
        assert any(isinstance(row[3], float) for row in expected)
        assert any(row[3] is None for row in expected)

        # json.dumps and str() both tell 3 from 3.0, so the types are pinned too
        expected_json = {**tensor.to_json_dict(), "cells": expected}
        assert tensor.to_json_text() == json.dumps(expected_json, indent=2, sort_keys=True) + "\n"
        csv_rows = [",".join("" if v is None else str(v) for v in row) for row in expected]
        assert tensor.to_csv_text() == csv_text(csv_rows)

    def test_cell_index_lists_present_cells(self):
        text = csv_text(["p1,I1,r1,3", "p1,I1,r2,", "p2,I1,r1,1", "p2,I1,r2,6"])
        tensor = ingest_csv_text(text, scale_min=1, scale_max=6)
        cells = tensor.cell_index
        assert tensor.cell_index is cells
        assert cells.n == tensor.n_cells == 3
        assert cells.pidx.tolist() == [0, 1, 1]
        assert cells.ridx.tolist() == [0, 0, 1]
        assert cells.x.tolist() == [2.0, 0.0, 5.0]
        assert cells.sums("rater").tolist() == [2, 1]
        assert cells.sums("person", cells.x).tolist() == [2.0, 5.0]
        loc = cells.locations(np.array([1.0, 2.0]), np.array([0.5, -0.5]), np.zeros(1))
        assert loc.tolist() == [0.5, 1.5, 2.5]

    def test_json_file_roundtrip(self, tmp_path):
        t1 = ingest_csv_text(paper_shaped_csv())
        path = tmp_path / "tensor.json"
        path.write_text(t1.to_json_text(), encoding="utf-8")
        assert RatingsTensor.read_json(path) == t1
