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

    def to_csv_text(self) -> str:
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
                    out.append(f"{v:.2f}")
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

_MARGIN = 0.5  # logits the axis reaches past the outermost measure
_MAX_BAR = 40  # persons drawn as '#' on one ascii row; a longer row adds its count
# what xml.sax.saxutils.escape replaces; importing that module loads urllib.request
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def render_wright(estimates: FacetEstimates, format: str = "ascii",
                  bucket: float = 0.25) -> str:
    """Vertical-ruler map of persons, raters, items, and thresholds.

    All four columns share the logit axis: a row (ascii) or height (svg)
    is an affine image of the measure, so elements with equal measures
    land together and ordering is never crossed.
    """
    if format not in ("ascii", "svg"):
        raise ValueError(f"format must be ascii or svg, got {format!r}")
    if not 0 < bucket < math.inf:
        raise ValueError(f"bucket must be positive and finite, got {bucket!r}")
    render = _wright_ascii if format == "ascii" else _wright_svg
    return render(_wright_layout(estimates, bucket), bucket)


def _wright_layout(estimates, bucket):
    """``(lo, hi, persons, labels)``: the axis, the persons on each row (one
    row per ``bucket`` from ``hi`` down to ``lo``), and the rater, item and
    threshold labels, each a list of (measure, text, row) sorted by measure,
    then text."""
    params = estimates.params
    measures = np.concatenate([params.ability, params.severity, params.difficulty,
                               params.thresholds])
    hi = math.ceil((measures.max() + _MARGIN) / bucket) * bucket
    lo = math.floor((measures.min() - _MARGIN) / bucket) * bucket
    n_rows = int(round((hi - lo) / bucket)) + 1

    def rows(m):
        # nearest tick: keeps the affine order and puts labels by the closest rung
        return np.clip(np.floor((hi - m) / bucket + 0.5), 0, n_rows - 1).astype(int)

    thresholds = [f"T{k + 1}" for k in range(params.thresholds.size)]
    labels = [sorted(zip(m.tolist(), map(str, ids), rows(m).tolist()))
              for ids, m in ((estimates.ids.raters, params.severity),
                             (estimates.ids.items, params.difficulty),
                             (thresholds, params.thresholds))]
    return lo, hi, np.bincount(rows(params.ability), minlength=n_rows).tolist(), labels


def _wright_ascii(layout, bucket):
    _, hi, persons, labels = layout
    columns = [[[] for _ in persons] for _ in labels]
    for column, group in zip(columns, labels):
        for _, text, row in group:
            column[row].append(text)
    # each column under its heading, so that one format lays out every line
    ticks = ["Logit", *(f"{hi - b * bucket:.2f}" for b in range(len(persons)))]
    bars = ["Persons", *("#" * min(count, _MAX_BAR) + (f"({count})" if count > _MAX_BAR else "")
                         for count in persons)]
    raters, items, thresholds = ([name, *map(" ".join, column)] for name, column
                                 in zip(("Raters", "Items", "Thresholds"), columns))
    pw, rw, iw = (max(map(len, column)) for column in (bars, raters, items))
    lines = [f"{tick:>7} | {bar:<{pw}} | {rater:<{rw}} | {item:<{iw}} | {threshold}"
             for tick, bar, rater, item, threshold in zip(ticks, bars, raters, items, thresholds)]
    lines.insert(1, "-" * len(lines[0]))
    lines.append("")
    lines.append(f"Each # is one person; {sum(persons)} persons, "
                 f"{len(labels[0])} raters, {len(labels[1])} items.")
    return "\n".join(lines) + "\n"


def _wright_svg(layout, bucket):
    lo, hi, persons, labels = layout

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
    bar_scale = 190.0 / max(max(persons), 1)
    for b, count in enumerate(persons):
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

    for group, x in zip(labels, (x_rater, x_item, x_thresh)):
        for m, text, _ in group:
            parts.append(
                f'<circle cx="{x - 8:.1f}" cy="{y(m):.1f}" r="2.5" fill="black"/>'
            )
            parts.append(f'<text x="{x:.1f}" y="{y(m) + 4:.1f}">'
                         f'{text.translate(_XML_TEXT)} ({m:.2f})</text>')

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
