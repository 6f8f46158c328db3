"""Output checks behind the benchmark's ``failed`` count.

A fit fails when it did not converge, is not identified, or misses the
JMLE score equations.  The score equations are re-checked from outside the
estimator with ``facetkit.expected_score`` over the cells whose person,
item and rater are all non-extreme, so the check depends on neither the
seed nor the algorithm: a faster solver that moves bytes at 1e-6 passes,
a wrong fit does not.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import facetkit as fk


def _non_extreme(flags):
    return np.array([f == "none" for f in flags], dtype=bool)


def score_residual(tensor, estimates) -> float:
    """Max |observed - expected| element total over the non-extreme cells."""
    xp = _non_extreme(estimates.extreme_persons)
    xi = _non_extreme(estimates.extreme_items)
    xr = _non_extreme(estimates.extreme_raters)
    p, i, r = np.nonzero(tensor.present_mask)
    keep = xp[p] & xi[i] & xr[r]
    p, i, r = p[keep], i[keep], r[keep]
    params = estimates.params
    loc = params.ability[p] - params.severity[r] - params.difficulty[i]
    resid = (tensor.values[p, i, r] - tensor.scale.min_score) - fk.expected_score(
        loc, params.thresholds
    )
    worst = 0.0
    for idx, mask in ((p, xp), (i, xi), (r, xr)):
        totals = np.bincount(idx, weights=resid, minlength=mask.size)[mask]
        if totals.size:
            worst = max(worst, float(np.max(np.abs(totals))))
    return worst


def active_cells(tensor, estimates) -> int:
    """Cells whose person, item and rater are all non-extreme."""
    p, i, r = np.nonzero(tensor.present_mask)
    return int(np.sum(
        _non_extreme(estimates.extreme_persons)[p]
        & _non_extreme(estimates.extreme_items)[i]
        & _non_extreme(estimates.extreme_raters)[r]
    ))


def fit_problems(tensor, estimates) -> list:
    """Reasons this fit counts as failed; empty when it passes."""
    if estimates.ids != tensor.ids or estimates.scale != tensor.scale:
        return ["estimates do not match the ratings tensor"]
    problems = []
    if not estimates.converged:
        problems.append(f"not converged after {estimates.iterations_used} sweeps")
    if not estimates.params.is_identified():
        problems.append("severities, difficulties or thresholds are not centred")
    resid = score_residual(tensor, estimates)
    if not resid <= estimates.config.residual_tol:
        problems.append(
            f"score residual {resid:.4g} above residual_tol {estimates.config.residual_tol}"
        )
    return problems


def run_problems(tensor, out_dir: Path, first_manifest) -> list:
    """Check one ``facetkit run`` output directory.

    ``first_manifest`` is the manifest text of the first repetition on the
    same input, or None for the first repetition itself.
    """
    manifest = (out_dir / "manifest.json").read_text(encoding="utf-8")
    problems = []
    if first_manifest is not None and manifest != first_manifest:
        problems.append("manifest differs from the first repetition")
    listed = {a["path"] for a in json.loads(manifest)["artifacts"]}
    if "estimates.json" not in listed:
        return problems + ["no estimates.json in the manifest"]
    estimates = fk.FacetEstimates.read_json(out_dir / "estimates.json")
    return problems + fit_problems(tensor, estimates)


def severity_rmse(estimates, true_severity: dict) -> float:
    """RMSE in logits of fitted against generating severities, both centred.

    Raters are matched by id because ingest orders them by first appearance.
    """
    ids = [r for r in estimates.ids.raters if r in true_severity]
    fitted = np.array([estimates.severity_of(r) for r in ids])
    truth = np.array([true_severity[r] for r in ids])
    diff = (fitted - fitted.mean()) - (truth - truth.mean())
    return float(np.sqrt(np.mean(diff**2)))
