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
    ingest_csv,
    ingest_csv_text,
)

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


class TestIngest:
    def test_four_row_example(self):
        text = csv_text(["p1,I1,r1,3", "p1,I1,r2,4", "p2,I1,r1,4", "p2,I1,r2,5"])
        with pytest.warns(UserWarning, match="narrower"):
            t = ingest_csv_text(text, scale_min=0, scale_max=6)
        assert t.n_cells == 4
        assert t.scale.num_categories == 7
        assert t.score("p1", "I1", "r1") == 3
        assert t.score("p2", "I1", "r2") == 5

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
        assert t.declared_missing[0, 0, 1]
        assert np.isnan(t.score("p1", "I1", "r2"))

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


class TestTensorInvariants:
    def test_scores_validated_against_scale(self):
        ids = FacetIds(("p1",), ("i1",), ("r1",))
        with pytest.raises(ValueError, match="outside scale"):
            RatingsTensor(ScaleSpec(0, 6), ids, np.array([[[9.0]]]))

    def test_integer_scores_enforced(self):
        ids = FacetIds(("p1",), ("i1",), ("r1",))
        with pytest.raises(ValueError, match="non-integer"):
            RatingsTensor(ScaleSpec(0, 6), ids, np.array([[[3.5]]]))
        t = RatingsTensor(ScaleSpec(0, 6), ids, np.array([[[3.5]]]), integer_scores=False)
        assert t.score("p1", "i1", "r1") == 3.5

    def test_values_are_immutable(self):
        t = ingest_csv_text(csv_text(["p1,I1,r1,3", "p2,I1,r1,4"]))
        with pytest.raises(ValueError):
            t.values[0, 0, 0] = 5.0

    def test_fully_crossed_cell_count(self):
        t = ingest_csv_text(paper_shaped_csv())
        P, I, R = t.shape
        assert t.n_cells == P * I * R - t.declared_missing.sum()

    def test_disconnected_design_detected(self):
        # two blocks sharing no persons, items, or raters
        text = csv_text(["p1,I1,r1,3", "p1,I1,r1b,4", "p2,I2,r2,2", "p2,I2,r2b,5"])
        t = ingest_csv_text(text)
        assert not t.connected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_connected_matches_breadth_first_search(self, data):
        P, I, R = (data.draw(st.integers(1, n)) for n in (8, 4, 5))
        fill = data.draw(st.integers(1, 3))  # keep 1, 2 or 3 cells in 4
        draws = st.lists(st.integers(0, 3), min_size=P * I * R, max_size=P * I * R)
        present = np.array(data.draw(draws)).reshape(P, I, R) < fill
        if data.draw(st.booleans()):
            # two blocks: a cell is kept only if its person, item and rater agree
            bp, bi, br = (np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
                          for n in (P, I, R))
            present &= (bp[:, None, None] == bi[None, :, None]) & (bi[None, :, None] == br)
        if data.draw(st.booleans()):
            present[data.draw(st.integers(0, P - 1))] = False  # an isolated person
        values = np.where(present, 1.0, np.nan)
        ids = FacetIds(*(tuple(f"{c}{k}" for k in range(n)) for c, n in zip("pir", (P, I, R))))
        tensor = RatingsTensor(ScaleSpec(0, 2), ids, values)
        assert tensor.connected == breadth_first_connected(present)


def breadth_first_connected(present):
    """Reference check: one BFS over the person-item and person-rater edges."""
    P, I, R = present.shape
    neighbours = [set() for _ in range(P + I + R)]
    for p, i, r in zip(*np.nonzero(present)):
        for other in (P + i, P + I + r):
            neighbours[p].add(other)
            neighbours[other].add(p)
    seen, frontier = {0}, [0]
    while frontier:
        for node in neighbours[frontier.pop()] - seen:
            seen.add(node)
            frontier.append(node)
    return len(seen) == P + I + R


class TestSlice:
    @pytest.fixture()
    def tensor(self):
        return ingest_csv_text(paper_shaped_csv())

    def test_single_item_slice(self, tensor):
        sub = tensor.slice(items=["SN1"])
        assert sub.n_cells == 360
        assert sub.ids.items == ("SN1",)

    def test_two_rater_slice(self, tensor):
        sub = tensor.slice(raters=["r1", "r2"])
        assert sub.n_cells == 240

    def test_empty_subset_rejected(self, tensor):
        with pytest.raises(ValueError, match="empty facet"):
            tensor.slice(persons=[])

    def test_unknown_identifier(self, tensor):
        with pytest.raises(KeyError, match="nope"):
            tensor.slice(items=["nope"])

    def test_slice_is_idempotent(self, tensor):
        once = tensor.slice(items=["SN1", "SN2"], raters=["r1", "r2", "r3"])
        twice = once.slice(items=["SN1", "SN2"], raters=["r1", "r2", "r3"])
        assert once == twice

    def test_slice_preserves_tensor_order(self, tensor):
        sub = tensor.slice(raters=["r3", "r1"])  # request order should not matter
        assert sub.ids.raters == ("r1", "r3")

    def test_scale_preserved(self, tensor):
        assert tensor.slice(items=["ER1"]).scale == tensor.scale


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
        expected = []
        for p, person in enumerate(tensor.ids.persons):
            for i, item in enumerate(tensor.ids.items):
                for r, rater in enumerate(tensor.ids.raters):
                    s = tensor.values[p, i, r]
                    if not np.isnan(s):
                        expected.append([person, item, rater,
                                         int(s) if s == int(s) else float(s)])
                    elif tensor.declared_missing[p, i, r]:
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
        t1.write_json(path)
        assert RatingsTensor.read_json(path) == t1
