"""Residual-based fit diagnostics: infit/outfit mean squares and flags.

Both statistics have expectation 1 under model fit.  Values well below 1
mean less variation than the model expects (central tendency when a rater
overuses middle categories); values well above 1 mean noisy, outlying
score patterns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .estimate import FacetEstimates
from .model import cell_moments
from .ratings import FACETS, RatingsTensor

FLAG_CENTRAL = "central_tendency"
FLAG_MISFIT = "misfit"
FLAG_NONE = "none"


@dataclass(frozen=True)
class FitCuts:
    """Lower/upper mean-square cut pair for flagging elements."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0 < self.lower < 1 < self.upper:
            raise ValueError(f"cuts must satisfy 0 < lower < 1 < upper, got {self}")


#: Conventional cut pairs, permissive and stringent.
PERMISSIVE_CUTS = FitCuts(0.5, 1.5)
STRINGENT_CUTS = FitCuts(0.7, 1.3)


@dataclass(frozen=True)
class FitReport:
    """Per-element infit/outfit mean squares for one facet."""

    facet: str
    element_ids: tuple
    infit_ms: np.ndarray
    outfit_ms: np.ndarray
    n_obs: np.ndarray
    flags: tuple = None
    cuts: FitCuts = None

    def __post_init__(self):
        n = len(self.element_ids)
        for name in ("infit_ms", "outfit_ms", "n_obs"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != (n,):
                raise ValueError(f"{name} length {arr.shape} != {n} elements")
            object.__setattr__(self, name, arr)
        if np.any(self.infit_ms < 0) or np.any(self.outfit_ms < 0):
            raise ValueError("mean squares must be non-negative")
        if not (np.all(np.isfinite(self.infit_ms)) and np.all(np.isfinite(self.outfit_ms))):
            raise ValueError("mean squares must be finite")


def fit_statistics(tensor: RatingsTensor, estimates: FacetEstimates,
                   facet: str) -> FitReport:
    """Infit/outfit mean squares for every element of one facet.

    Per present cell, the score residual is ``r = x - E`` and the model
    variance ``W``.  Outfit is the plain mean of ``r^2 / W`` over the
    element's cells; infit is the information-weighted
    ``sum(r^2) / sum(W)``.  Only E and W of the moment kernel are kept,
    and ``r^2``, then ``r^2 / W``, is formed in place in one array.
    """
    if facet not in FACETS:
        raise ValueError(f"facet must be one of {sorted(FACETS)}, got {facet!r}")
    if estimates.ids != tensor.ids or estimates.scale != tensor.scale:
        raise ValueError("estimates were fitted to a different tensor (misaligned inputs)")
    estimates.params.validate_for(tensor)

    params = estimates.params
    cells = tensor.cell_index
    expected, variance = cell_moments(
        cells.locations(params.ability, params.severity, params.difficulty),
        params.thresholds)[1:]
    sq = cells.x - expected
    np.square(sq, out=sq)

    ids = getattr(tensor.ids, facet + "s")
    counts = cells.sums(facet)
    sum_r2 = cells.sums(facet, sq)
    sum_w = cells.sums(facet, variance)
    sum_z2 = cells.sums(facet, np.divide(sq, variance, out=sq))

    observed = counts > 0
    if not observed.all():
        skipped = [ids[i] for i in np.nonzero(~observed)[0]]
        warnings.warn(f"excluding {facet} elements with no observations: {skipped}")
    kept = np.nonzero(observed)[0]
    return FitReport(
        facet=facet,
        element_ids=tuple(ids[i] for i in kept),
        infit_ms=sum_r2[kept] / sum_w[kept],
        outfit_ms=sum_z2[kept] / counts[kept],
        n_obs=counts[kept],
    )


def classify_fit(report: FitReport, cuts: FitCuts = STRINGENT_CUTS) -> dict:
    """Flag each element: both MS below the lower cut marks central
    tendency, either MS above the upper cut marks misfit."""
    flags = {}
    for element_id, infit, outfit in zip(report.element_ids, report.infit_ms,
                                         report.outfit_ms):
        if infit < cuts.lower and outfit < cuts.lower:
            flags[element_id] = FLAG_CENTRAL
        elif infit > cuts.upper or outfit > cuts.upper:
            flags[element_id] = FLAG_MISFIT
        else:
            flags[element_id] = FLAG_NONE
    return flags


def with_flags(report: FitReport, cuts: FitCuts = STRINGENT_CUTS) -> FitReport:
    """Copy of the report with the flag column filled in for the given cuts."""
    flags = classify_fit(report, cuts)
    return replace(report, flags=tuple(flags[e] for e in report.element_ids), cuts=cuts)
