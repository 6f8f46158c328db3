"""Rating-scale many-facet Rasch model: category probabilities and moments.

The log-odds of adjacent score categories k-1 -> k equal
``ability - severity - difficulty - thresholds[k-1]``.  A single threshold
vector is shared by all items (rating-scale parameterization).  Category
indices run 0..K internally; reporting adds the scale minimum back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ratings import RatingsTensor


@dataclass(frozen=True)
class ModelParams:
    """Logit measures for every facet element plus the shared thresholds.

    Positive severity lowers the chance of a high score; positive
    difficulty marks a harder item.  Ability is unconstrained; severity,
    difficulty, and thresholds are centered at zero when identified.
    """

    ability: np.ndarray
    severity: np.ndarray
    difficulty: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        for name in ("ability", "severity", "difficulty", "thresholds"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-d array")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def validate_for(self, tensor: RatingsTensor) -> None:
        P, I, R = tensor.shape
        K = tensor.scale.num_categories - 1
        if (len(self.ability), len(self.severity), len(self.difficulty)) != (P, R, I):
            raise ValueError(
                f"parameter lengths ({len(self.ability)} persons, "
                f"{len(self.severity)} raters, {len(self.difficulty)} items) "
                f"do not match tensor shape {tensor.shape}"
            )
        if len(self.thresholds) != K:
            raise ValueError(
                f"expected {K} thresholds for {K + 1} categories, got {len(self.thresholds)}"
            )

    def is_identified(self, tol=1e-9) -> bool:
        return (
            abs(self.severity.sum()) <= tol
            and abs(self.difficulty.sum()) <= tol
            and abs(self.thresholds.sum()) <= tol
        )

    def to_dict(self) -> dict:
        return {
            "ability": self.ability.tolist(),
            "severity": self.severity.tolist(),
            "difficulty": self.difficulty.tolist(),
            "thresholds": self.thresholds.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        return cls(
            np.asarray(d["ability"], float),
            np.asarray(d["severity"], float),
            np.asarray(d["difficulty"], float),
            np.asarray(d["thresholds"], float),
        )


def category_probs(location, thresholds) -> np.ndarray:
    """Probability of each score category 0..K at the given logit location.

    ``location`` is ability - severity - difficulty; it may be a scalar or
    an array (an axis for the K+1 categories is appended).

    The softmax is over psi_k = k*location - sum(thresholds[:k]), centred
    on the middle category c = K//2 so that psi_c = 0: every row then sums
    to at least 1 and cannot underflow.  No centred psi exceeds
    max|location|*max(c, K-c) + max|cum_k - cum_c| in magnitude; while
    that bound is at most 700, exp cannot overflow and no per-row max is
    needed.  Past it, the row max is subtracted first.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    location = np.asarray(location, dtype=float)
    K = thresholds.size
    c = K // 2
    cum = np.concatenate([[0.0], np.cumsum(thresholds)])
    cum -= cum[c]
    psi = np.multiply.outer(location, np.arange(-c, K - c + 1, dtype=float))
    psi -= cum
    reach = np.max(np.abs(location), initial=0.0) * max(c, K - c)
    if reach + np.max(np.abs(cum)) > 700:
        psi -= psi.max(axis=-1, keepdims=True)
    probs = np.exp(psi, out=psi)
    probs /= (probs @ np.ones(K + 1))[..., None]
    return probs


def cell_moments(location, thresholds):
    """(probs, expected score E, score variance W) at the given locations.

    This is the one moment kernel: estimation, fit statistics and the
    public :func:`expected_score`/:func:`score_variance` all take E and W
    from here.  W is also d(E)/d(location).  E and E[X^2] come from one
    product of the probabilities with the columns k and k^2.
    """
    probs = category_probs(location, thresholds)
    k = np.arange(probs.shape[-1], dtype=float)
    moments = np.stack([k, k * k]) @ probs.reshape(-1, k.size).T
    e, w = moments.reshape(2, *probs.shape[:-1])
    w -= e * e
    return probs, e, w


def observed_log_likelihood(probs, observed) -> float:
    """Sum of the log probabilities at the rows and categories of
    ``observed``, a :meth:`CellIndex.observed`, each weighted by its
    multiplicity."""
    rows, categories, mult = observed
    logs = np.log(probs[rows, categories])
    return float(np.sum(logs) if mult is None else logs @ mult)


def expected_score(location, thresholds):
    """Expected category index, strictly increasing in location."""
    e = cell_moments(location, thresholds)[1]
    return float(e) if e.ndim == 0 else e


def score_variance(location, thresholds):
    """Variance of the category index; also d(expected_score)/d(location)."""
    w = cell_moments(location, thresholds)[2]
    return float(w) if w.ndim == 0 else w


def log_likelihood(tensor: RatingsTensor, params: ModelParams) -> float:
    """Sum of log category probabilities over all present cells."""
    params.validate_for(tensor)
    cells = tensor.cell_index
    loc = cells.locations(params.ability, params.severity, params.difficulty)
    return observed_log_likelihood(category_probs(loc, params.thresholds), cells.observed())
