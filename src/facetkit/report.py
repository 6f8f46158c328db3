"""Human-readable outputs: Wright maps, measure tables, descriptive tables.

Tables print at two decimals (full precision stays available through the
JSON forms); every renderer is a pure function of its inputs, so repeated
runs produce byte-identical documents.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .agreement import grouped_moments
from .estimate import FacetEstimates
from .fitstats import FitReport
from .ratings import RatingsTensor


@dataclass(frozen=True)
class Table:
    """Column-ordered rows with CSV (2-decimal) and JSON (full) forms."""

    columns: tuple
    rows: tuple

    def to_csv_text(self, decimals: int = 2) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self.columns)
        for row in self.rows:
            out = []
            for col in self.columns:
                v = row.get(col)
                if v is None or (isinstance(v, float) and math.isnan(v)):
                    out.append("")
                elif isinstance(v, float):
                    out.append(f"{v:.{decimals}f}")
                else:
                    out.append(v)
            w.writerow(out)
        return buf.getvalue()

    def to_json_dict(self) -> list:
        def clean(v):
            return None if isinstance(v, float) and math.isnan(v) else v

        return [{c: clean(row.get(c)) for c in self.columns} for row in self.rows]


def _facet_measures(estimates, facet):
    if facet == "person":
        return estimates.ids.persons, estimates.params.ability, estimates.se_ability
    if facet == "rater":
        return estimates.ids.raters, estimates.params.severity, estimates.se_severity
    if facet == "item":
        return estimates.ids.items, estimates.params.difficulty, estimates.se_difficulty
    raise ValueError(f"unknown facet {facet!r}")


def measure_table(estimates: FacetEstimates, fit: FitReport,
                  sort: str = "by_measure") -> Table:
    """Measures, standard errors, and fit per element of the fit's facet.

    Default order is ascending measure (most lenient rater first), ties
    broken by identifier.
    """
    if sort not in ("by_measure", "by_id"):
        raise ValueError(f"sort must be by_measure or by_id, got {sort!r}")
    ids, measures, ses = _facet_measures(estimates, fit.facet)
    index = {e: i for i, e in enumerate(ids)}
    for element in fit.element_ids:
        if element not in index:
            raise ValueError(f"misaligned inputs: {element!r} missing from estimates")

    rows = []
    for pos, element in enumerate(fit.element_ids):
        i = index[element]
        rows.append(
            {
                "id": element,
                "measure": float(measures[i]),
                "se": float(ses[i]),
                "infit_ms": float(fit.infit_ms[pos]),
                "outfit_ms": float(fit.outfit_ms[pos]),
                "n_obs": int(fit.n_obs[pos]),
                "flags": "" if fit.flags is None else fit.flags[pos],
            }
        )
    if sort == "by_measure":
        rows.sort(key=lambda r: (r["measure"], str(r["id"])))
    else:
        rows.sort(key=lambda r: str(r["id"]))
    return Table(
        ("id", "measure", "se", "infit_ms", "outfit_ms", "n_obs", "flags"),
        tuple(rows),
    )


def descriptive_table(tensor: RatingsTensor) -> Table:
    """Mean and sample SD of each rater's scores per item, plus row averages."""
    if tensor.n_cells == 0:
        raise ValueError("empty tensor")
    cells = tensor.cell_index
    _, n_items, n_raters = tensor.shape
    count, mean, var = grouped_moments(cells.ridx * n_items + cells.iidx, cells.score,
                                       n_raters * n_items)
    scored = (count > 0).reshape(n_raters, n_items)
    mean = mean.reshape(n_raters, n_items)
    # each rater's scored item means alone, so that numpy sums them as a loop would
    average = np.array([np.mean(m[ok]) if ok.any() else np.nan for m, ok in zip(mean, scored)])
    names = [(f"{item}:mean", f"{item}:sd") for item in tensor.ids.items]
    columns = ("rater", *(name for pair in names for name in pair), "average")
    rows = []
    for rater, means, sds, avg in zip(tensor.ids.raters, mean.tolist(),
                                      np.sqrt(var).reshape(n_raters, n_items).tolist(),
                                      average.tolist()):
        row = {"rater": rater}
        for (mean_name, sd_name), m, sd in zip(names, means, sds):
            row[mean_name] = m
            row[sd_name] = sd
        row["average"] = avg
        rows.append(row)
    return Table(columns, tuple(rows))


# -- Wright maps -------------------------------------------------------------


def _wright_elements(estimates):
    persons = list(zip(estimates.ids.persons, estimates.params.ability))
    raters = list(zip(estimates.ids.raters, estimates.params.severity))
    items = list(zip(estimates.ids.items, estimates.params.difficulty))
    thresholds = [
        (f"T{k + 1}", v) for k, v in enumerate(estimates.params.thresholds)
    ]
    return persons, raters, items, thresholds


def _axis_range(groups, margin=0.5, bucket=0.25):
    values = [m for group in groups for _, m in group]
    hi = math.ceil((max(values) + margin) / bucket) * bucket
    lo = math.floor((min(values) - margin) / bucket) * bucket
    return lo, hi


def render_wright(estimates: FacetEstimates, format: str = "ascii",
                  bucket: float = 0.25) -> str:
    """Vertical-ruler map of persons, raters, items, and thresholds.

    All four columns share the logit axis: a row (ascii) or height (svg)
    is an affine image of the measure, so elements with equal measures
    land together and ordering is never crossed.
    """
    if format == "ascii":
        return _wright_ascii(estimates, bucket)
    if format == "svg":
        return _wright_svg(estimates, bucket)
    raise ValueError(f"format must be ascii or svg, got {format!r}")


def _bucket_of(measure, hi, bucket, n_rows):
    # nearest tick: keeps the affine order and puts labels by the closest rung
    b = int(math.floor((hi - measure) / bucket + 0.5))
    return min(max(b, 0), n_rows - 1)


def _person_rows(persons, lo, hi, bucket):
    """Persons on each map row, one row per ``bucket`` from ``hi`` down to ``lo``."""
    n_rows = int(round((hi - lo) / bucket)) + 1
    person_rows = [0] * n_rows
    for _, m in persons:
        person_rows[_bucket_of(m, hi, bucket, n_rows)] += 1
    return person_rows


def _wright_ascii(estimates, bucket=0.25, max_bar=40):
    persons, raters, items, thresholds = _wright_elements(estimates)
    lo, hi = _axis_range([persons, raters, items, thresholds], bucket=bucket)
    person_rows = _person_rows(persons, lo, hi, bucket)
    n_rows = len(person_rows)

    label_rows = {"raters": {}, "items": {}, "thresholds": {}}
    for key, group in (("raters", raters), ("items", items), ("thresholds", thresholds)):
        for label, m in sorted(group, key=lambda t: (t[1], str(t[0]))):
            label_rows[key].setdefault(_bucket_of(m, hi, bucket, n_rows), []).append(label)

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


def _wright_svg(estimates, bucket=0.25):
    persons, raters, items, thresholds = _wright_elements(estimates)
    lo, hi = _axis_range([persons, raters, items, thresholds], bucket=bucket)

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

    # person distribution as horizontal bars per bucket
    person_rows = _person_rows(persons, lo, hi, bucket)
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


def estimates_summary(estimates: FacetEstimates) -> dict:
    """Compact JSON-ready overview of an estimation run."""
    return {
        "converged": estimates.converged,
        "iterations_used": estimates.iterations_used,
        "log_likelihood": estimates.log_likelihood_final,
        "max_score_residual": estimates.max_score_residual,
        "n_persons": len(estimates.ids.persons),
        "n_items": len(estimates.ids.items),
        "n_raters": len(estimates.ids.raters),
        "severity_range": [
            float(estimates.params.severity.min()),
            float(estimates.params.severity.max()),
        ],
    }
