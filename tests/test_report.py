"""Tests for Wright maps, measure tables, and descriptive tables."""

import csv
import io
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facetkit import (
    EstimationConfig,
    FacetEstimates,
    FacetIds,
    ModelParams,
    ScaleSpec,
    STRINGENT_CUTS,
    descriptive_table,
    fit_statistics,
    measure_table,
    render_wright,
    with_flags,
)
from facetkit.report import Table
from conftest import small_tensor

GOLDEN = Path(__file__).parent / "data" / "wright_golden.txt"


def toy_estimates(ability, severity, difficulty, thresholds,
                  persons=None, items=None, raters=None):
    ability = np.asarray(ability, float)
    severity = np.asarray(severity, float)
    difficulty = np.asarray(difficulty, float)
    thresholds = np.asarray(thresholds, float)
    ids = FacetIds(
        persons or tuple(f"p{i}" for i in range(1, len(ability) + 1)),
        items or tuple(f"i{i}" for i in range(1, len(difficulty) + 1)),
        raters or tuple(f"R{i}" for i in range(1, len(severity) + 1)),
    )
    return FacetEstimates(
        params=ModelParams(ability, severity, difficulty, thresholds),
        se_ability=np.full(ability.size, 0.3),
        se_severity=np.full(severity.size, 0.11),
        se_difficulty=np.full(difficulty.size, 0.12),
        se_thresholds=np.full(thresholds.size, 0.1),
        extreme_persons=("none",) * ability.size,
        extreme_raters=("none",) * severity.size,
        extreme_items=("none",) * difficulty.size,
        iterations_used=12,
        converged=True,
        log_likelihood_final=-100.0,
        sweep_log_likelihoods=(-120.0, -100.0),
        max_score_residual=0.002,
        config=EstimationConfig(),
        ids=ids,
        scale=ScaleSpec(0, 6),
    )


def golden_estimates():
    return toy_estimates(
        ability=[-1.4, -0.55, -0.15, 0.1, 0.1, 0.45, 0.8, 1.6],
        severity=[-0.81, -0.2, 1.01],
        difficulty=[-0.4, 0.1, 0.3],
        thresholds=[-1.5, -0.5, 0.0, 2.0],
        items=("SN1", "ER1", "SN2"),
        raters=("R1", "R2", "G2"),
    )


# -- the reference renderer: both maps built one person at a time ---------------


def reference_wright(estimates, format, bucket):
    """``render_wright(estimates, format, bucket)`` as first written: each
    map rebuilds the axis and places every person with its own Python call.
    Labels go into the SVG unescaped, so ids must hold no ``&``, ``<``, ``>``."""
    render = {"ascii": _reference_ascii, "svg": _reference_svg}[format]
    return render(estimates, bucket)


def _reference_elements(estimates):
    persons = list(zip(estimates.ids.persons, estimates.params.ability))
    raters = list(zip(estimates.ids.raters, estimates.params.severity))
    items = list(zip(estimates.ids.items, estimates.params.difficulty))
    thresholds = [
        (f"T{k + 1}", v) for k, v in enumerate(estimates.params.thresholds)
    ]
    return persons, raters, items, thresholds


def _reference_axis_range(groups, margin=0.5, bucket=0.25):
    values = [m for group in groups for _, m in group]
    hi = math.ceil((max(values) + margin) / bucket) * bucket
    lo = math.floor((min(values) - margin) / bucket) * bucket
    return lo, hi


def _reference_bucket_of(measure, hi, bucket, n_rows):
    b = int(math.floor((hi - measure) / bucket + 0.5))
    return min(max(b, 0), n_rows - 1)


def _reference_person_rows(persons, lo, hi, bucket):
    n_rows = int(round((hi - lo) / bucket)) + 1
    person_rows = [0] * n_rows
    for _, m in persons:
        person_rows[_reference_bucket_of(m, hi, bucket, n_rows)] += 1
    return person_rows


def _reference_ascii(estimates, bucket=0.25, max_bar=40):
    persons, raters, items, thresholds = _reference_elements(estimates)
    lo, hi = _reference_axis_range([persons, raters, items, thresholds], bucket=bucket)
    person_rows = _reference_person_rows(persons, lo, hi, bucket)
    n_rows = len(person_rows)

    label_rows = {"raters": {}, "items": {}, "thresholds": {}}
    for key, group in (("raters", raters), ("items", items), ("thresholds", thresholds)):
        for label, m in sorted(group, key=lambda t: (t[1], str(t[0]))):
            label_rows[key].setdefault(_reference_bucket_of(m, hi, bucket, n_rows),
                                       []).append(label)

    def bar(count):
        if count <= max_bar:
            return "#" * count
        return "#" * max_bar + f"({count})"

    col = {
        key: [" ".join(label_rows[key].get(b, [])) for b in range(n_rows)]
        for key in label_rows
    }
    pw = max([len(bar(c)) for c in person_rows] + [len("Persons")])
    rw = max([len(s) for s in col["raters"]] + [len("Raters")])
    iw = max([len(s) for s in col["items"]] + [len("Items")])

    lines = [
        f"{'Logit':>7} | {'Persons':<{pw}} | {'Raters':<{rw}} | "
        f"{'Items':<{iw}} | Thresholds",
    ]
    lines.append("-" * len(lines[0]))
    for b in range(n_rows):
        tick = hi - b * bucket
        lines.append(
            f"{tick:>7.2f} | {bar(person_rows[b]):<{pw}} | {col['raters'][b]:<{rw}} | "
            f"{col['items'][b]:<{iw}} | {col['thresholds'][b]}"
        )
    lines.append("")
    lines.append(f"Each # is one person; {len(persons)} persons, "
                 f"{len(raters)} raters, {len(items)} items.")
    return "\n".join(lines) + "\n"


def _reference_svg(estimates, bucket=0.25):
    persons, raters, items, thresholds = _reference_elements(estimates)
    lo, hi = _reference_axis_range([persons, raters, items, thresholds], bucket=bucket)

    px_per_logit = 60.0
    pad_top, pad_bottom = 40.0, 20.0
    height = pad_top + (hi - lo) * px_per_logit + pad_bottom
    x_axis, x_person, x_rater, x_item, x_thresh = 70.0, 90.0, 310.0, 470.0, 610.0
    width = 720.0

    def y(measure):
        return pad_top + (hi - measure) * px_per_logit

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}" '
        'font-family="monospace" font-size="12">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{x_axis:.1f}" y1="{y(hi):.1f}" x2="{x_axis:.1f}" '
        f'y2="{y(lo):.1f}" stroke="black"/>',
    ]
    for name, x in (("Persons", x_person), ("Raters", x_rater),
                    ("Items", x_item), ("Thresholds", x_thresh)):
        parts.append(f'<text x="{x:.1f}" y="20" font-weight="bold">{name}</text>')
    parts.append('<text x="10" y="20" font-weight="bold">Logit</text>')

    tick = lo
    while tick <= hi + 1e-9:
        parts.append(
            f'<line x1="{x_axis - 5:.1f}" y1="{y(tick):.1f}" x2="{x_axis:.1f}" '
            f'y2="{y(tick):.1f}" stroke="black"/>'
        )
        parts.append(f'<text x="10" y="{y(tick) + 4:.1f}">{tick:>6.2f}</text>')
        tick += 0.5

    person_rows = _reference_person_rows(persons, lo, hi, bucket)
    peak = max(person_rows) if person_rows else 1
    bar_scale = 190.0 / max(peak, 1)
    for b, count in enumerate(person_rows):
        if count == 0:
            continue
        top = pad_top + b * bucket * px_per_logit
        parts.append(
            f'<rect x="{x_person:.1f}" y="{top:.1f}" '
            f'width="{count * bar_scale:.1f}" height="{bucket * px_per_logit - 1:.1f}" '
            'fill="steelblue"/>'
        )
        parts.append(
            f'<text x="{x_person + count * bar_scale + 4:.1f}" '
            f'y="{top + bucket * px_per_logit / 2 + 4:.1f}">{count}</text>'
        )

    for group, x in ((raters, x_rater), (items, x_item), (thresholds, x_thresh)):
        for label, m in sorted(group, key=lambda t: (t[1], str(t[0]))):
            parts.append(
                f'<circle cx="{x - 8:.1f}" cy="{y(m):.1f}" r="2.5" fill="black"/>'
            )
            parts.append(f'<text x="{x:.1f}" y="{y(m) + 4:.1f}">{label} ({m:.2f})</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@st.composite
def wright_cases(draw):
    """Estimates and a bucket other than the default.  Half of the measures
    are multiples of half a bucket, so with a dyadic bucket they sit on
    exact half-row ties that round up; repeated abilities fill rows past
    the ascii bar's 40 persons."""
    bucket = draw(st.sampled_from([0.1, 0.125, 0.2, 0.5, 1.0]))
    measure = st.one_of(st.integers(-30, 30).map(lambda k: k * bucket / 2),
                        st.floats(-8.0, 8.0, allow_nan=False))
    ids = st.text("ab AB0 1_-.", min_size=1, max_size=4)

    def facet(max_size):
        measures = draw(st.lists(measure, min_size=1, max_size=max_size))
        names = draw(st.lists(ids, min_size=len(measures), max_size=len(measures),
                              unique=True))
        return measures, tuple(names)

    ability = draw(st.lists(measure, min_size=1, max_size=30)) * draw(st.integers(1, 20))
    (severity, raters), (difficulty, items) = facet(12), facet(6)
    thresholds = draw(st.lists(measure, min_size=1, max_size=6))
    return toy_estimates(ability, severity, difficulty, thresholds,
                         items=items, raters=raters), bucket


@settings(max_examples=150, deadline=None)
@given(wright_cases())
@example((golden_estimates(), 0.25))
@example((toy_estimates([0.0] * 41 + [1.0] * 40, [0.0], [0.0], [0.0]), 0.5))  # bar's end
def test_wright_maps_match_the_reference(case):
    estimates, bucket = case
    for format in ("ascii", "svg"):
        assert render_wright(estimates, format, bucket) == reference_wright(
            estimates, format, bucket), format


class TestWrightAscii:
    def test_golden_file(self):
        assert render_wright(golden_estimates(), "ascii") == GOLDEN.read_text()

    def test_byte_identical_across_calls(self):
        est = golden_estimates()
        assert render_wright(est, "ascii") == render_wright(est, "ascii")

    def test_single_rater_at_zero_sits_on_zero_row(self):
        est = toy_estimates([0.4, -0.4], [0.0], [0.0], [0.0, 0.0])
        text = render_wright(est, "ascii")
        zero_row = next(line for line in text.splitlines() if line.startswith("   0.00"))
        assert "R1" in zero_row

    def test_published_severity_extremes_separated_proportionally(self):
        est = toy_estimates([0.0, 0.0], [-0.81, 1.25], [0.0], [0.0, 0.0])
        lines = render_wright(est, "ascii").splitlines()
        row_of = {}
        for i, line in enumerate(lines):
            if "R1" in line:
                row_of["R1"] = i
            if "R2" in line:
                row_of["R2"] = i
        # 2.06 logits apart at 0.25 per row: 8.24 rows, within one row of rounding
        assert abs((row_of["R1"] - row_of["R2"]) - 2.06 / 0.25) <= 1.0

    def test_axis_covers_measures_with_margin(self):
        est = toy_estimates([2.4], [0.0, -2.2], [0.0], [0.0, 0.0])
        lines = render_wright(est, "ascii").splitlines()
        ticks = [float(line.split("|")[0]) for line in lines[2:-2] if "|" in line]
        assert max(ticks) >= 2.4 + 0.5 - 0.25
        assert min(ticks) <= -2.2 - 0.5 + 0.25

    def test_equal_measures_share_a_row(self):
        est = toy_estimates([0.0], [0.7, 0.7], [0.0], [0.0, 0.0])
        text = render_wright(est, "ascii")
        row = next(line for line in text.splitlines() if "R1" in line)
        assert "R2" in row

    def test_ordering_never_crosses(self):
        rng = np.random.default_rng(4)
        est = toy_estimates(rng.normal(0, 1, 20), rng.normal(0, 0.7, 6),
                            [0.0], [0.0, 0.0])
        lines = render_wright(est, "ascii").splitlines()
        positions = {}
        for i, line in enumerate(lines):
            for r in est.ids.raters:
                if f" {r}" in line or line.endswith(r):
                    positions[r] = i
        severities = dict(zip(est.ids.raters, est.params.severity))
        raters = sorted(positions, key=positions.get)  # top to bottom
        values = [severities[r] for r in raters]
        assert values == sorted(values, reverse=True)

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            render_wright(golden_estimates(), "pdf")

    @pytest.mark.parametrize("bucket", [0, -0.25, float("nan"), float("inf")])
    def test_bucket_must_be_positive_and_finite(self, bucket):
        with pytest.raises(ValueError) as e:
            render_wright(golden_estimates(), "ascii", bucket)
        assert e.value.args == (f"bucket must be positive and finite, got {bucket!r}",)


class TestWrightSvg:
    def test_well_formed_and_selfcontained(self):
        svg = render_wright(golden_estimates(), "svg")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        labels = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert any("G2" in (t or "") for t in labels)
        assert any("SN1" in (t or "") for t in labels)
        assert any("T4" in (t or "") for t in labels)
        # ids from a plain CSV may hold markup characters; the labels escape them
        est = toy_estimates([0.0], [-0.5, 0.5], [0.0], [0.0, 0.0],
                            items=("<i>&amp;",), raters=("a&b", "<r>"))
        root = ET.fromstring(render_wright(est, "svg"))
        labels = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert {"a&b (-0.50)", "<r> (0.50)", "<i>&amp; (0.00)"} <= set(labels)

    def test_positions_are_affine_in_measure(self):
        est = toy_estimates([0.0, 0.0], [-1.0, 0.0, 2.0], [0.0], [0.0, 0.0])
        svg = render_wright(est, "svg")
        root = ET.fromstring(svg)
        ys = {}
        for el in root.iter():
            if el.tag.endswith("text") and el.text and el.text.startswith("R"):
                ys[el.text.split()[0]] = float(el.get("y"))
        gap_01 = ys["R1"] - ys["R2"]   # 1 logit
        gap_12 = ys["R2"] - ys["R3"]   # 2 logits
        assert gap_12 == pytest.approx(2 * gap_01, abs=0.3)

    def test_deterministic(self):
        est = golden_estimates()
        assert render_wright(est, "svg") == render_wright(est, "svg")


class TestMeasureTable:
    def test_sorted_ascending_by_measure(self, paper_tensor, paper_estimates):
        fit = with_flags(fit_statistics(paper_tensor, paper_estimates, "rater"),
                         STRINGENT_CUTS)
        table = measure_table(paper_estimates, fit)
        assert len(table.rows) == 12
        measures = [r["measure"] for r in table.rows]
        assert measures == sorted(measures)
        assert table.rows[0]["measure"] == paper_estimates.params.severity.min()
        assert set(table.columns) >= {"id", "measure", "se", "infit_ms", "outfit_ms",
                                      "flags"}

    def test_sort_by_id(self, paper_tensor, paper_estimates):
        fit = fit_statistics(paper_tensor, paper_estimates, "rater")
        table = measure_table(paper_estimates, fit, sort="by_id")
        ids = [r["id"] for r in table.rows]
        assert ids == sorted(ids)

    def test_flags_column_carries_classification(self):
        est = toy_estimates([0.0, 0.0], [-0.2, 0.3], [0.0], [0.0] * 6)
        from facetkit import FitReport

        fit = with_flags(
            FitReport("rater", ("R1", "R2"), np.array([0.58, 1.0]),
                      np.array([0.58, 1.0]), np.array([120, 120])),
            STRINGENT_CUTS,
        )
        table = measure_table(est, fit)
        by_id = {r["id"]: r for r in table.rows}
        assert by_id["R1"]["flags"] == "central_tendency"
        assert by_id["R2"]["flags"] == "none"

    def test_misaligned_inputs(self, paper_estimates):
        from facetkit import FitReport

        fit = FitReport("rater", ("nobody",), np.array([1.0]), np.array([1.0]),
                        np.array([5]))
        with pytest.raises(ValueError, match="misaligned"):
            measure_table(paper_estimates, fit)

    def test_bad_sort_or_facet(self, paper_estimates):
        from facetkit import FitReport

        fit = FitReport("rater", ("R1",), np.array([1.0]), np.array([1.0]), np.array([5]))
        with pytest.raises(ValueError, match="sort must be by_measure or by_id, got 'up'"):
            measure_table(paper_estimates, fit, sort="up")
        fit = FitReport("judge", ("R1",), np.array([1.0]), np.array([1.0]), np.array([5]))
        with pytest.raises(ValueError, match="unknown facet 'judge'"):
            measure_table(paper_estimates, fit)


class TestDescriptiveTable:
    def test_hand_mean_and_sd(self):
        t = small_tensor(np.array([[[3]], [[4]], [[4]], [[5]]]), raters=("R1",))
        table = descriptive_table(t)
        row = table.rows[0]
        assert row["i1:mean"] == pytest.approx(4.0, abs=1e-12)
        assert row["i1:sd"] == pytest.approx(0.8164965809277260, abs=1e-12)

    def test_constant_scores_have_zero_sd(self):
        t = small_tensor(np.array([[[2]], [[2]], [[2]]]), raters=("R1",))
        assert descriptive_table(t).rows[0]["i1:sd"] == 0.0

    def test_paper_shaped_grid(self, paper_tensor):
        table = descriptive_table(paper_tensor)
        assert len(table.rows) == 12
        assert len(table.columns) == 1 + 2 * 4 + 1  # rater, per-item mean+sd, average
        for row in table.rows:
            means = [row[f"{i}:mean"] for i in paper_tensor.ids.items]
            assert row["average"] == pytest.approx(np.mean(means), abs=1e-12)


class TestTableRoundTrip:
    def test_csv_matches_in_memory_at_two_decimals(self, paper_tensor, paper_estimates):
        fit = with_flags(fit_statistics(paper_tensor, paper_estimates, "rater"),
                         STRINGENT_CUTS)
        table = measure_table(paper_estimates, fit)
        text = table.to_csv_text()
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(table.rows)
        for raw, row in zip(parsed, table.rows):
            assert float(raw["measure"]) == pytest.approx(row["measure"], abs=0.005)
            assert float(raw["infit_ms"]) == pytest.approx(row["infit_ms"], abs=0.005)
            assert raw["id"] == str(row["id"])

    def test_nan_prints_blank(self):
        table = Table(("a", "b"), ({"a": 1.0, "b": math.nan},))
        lines = table.to_csv_text().splitlines()
        assert lines[1] == "1.00,"

    def test_render_does_not_mutate_inputs(self, paper_estimates):
        before = paper_estimates.params.severity.copy()
        render_wright(paper_estimates, "ascii")
        render_wright(paper_estimates, "svg")
        np.testing.assert_array_equal(paper_estimates.params.severity, before)
