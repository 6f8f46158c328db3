"""Rating-scale many-facet Rasch model: category probabilities and moments.

The log-odds of adjacent score categories k-1 -> k equal
``ability - severity - difficulty - thresholds[k-1]``.  A single threshold
vector is shared by all items (rating-scale parameterization).  Category
indices run 0..K internally; reporting adds the scale minimum back.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .ratings import Fields, RatingsTensor, checked_json


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
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        d = checked_json(d, PARAMS_JSON, "params")
        return cls(*(np.asarray(d[f.name], float) for f in fields(cls)))


PARAMS_JSON = Fields.of(ModelParams, lambda f: [float, ...])


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

    The kernel is category-major: psi is a C-contiguous (K+1) x n array,
    one row per category, exponentiated and normalized
    (:func:`_normalize_columns`) in place, and the result is its
    transposed view, so ``probs[..., k]`` is a contiguous row.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    location = np.asarray(location, dtype=float)
    K = thresholds.size
    c = K // 2
    cum = np.concatenate([[0.0], np.cumsum(thresholds)])
    cum -= cum[c]
    reach = np.abs(location).max(initial=0.0) * max(c, K - c) + np.abs(cum).max()
    psi = np.multiply.outer(np.arange(-c, K - c + 1, dtype=float), location)
    rows = psi.reshape(K + 1, -1)
    rows -= cum[:, None]
    if reach > 700:
        rows -= rows.max(axis=0)
    np.exp(rows, out=rows)
    _normalize_columns(rows)
    return psi.transpose(*range(1, psi.ndim), 0)


_SUM_BLOCK = 2**14


def _normalize_columns(p):
    """Divide each column of the (K+1) x n array ``p`` by its sum, in place.

    The sum takes a fixed order of numpy's own: lane i adds categories i,
    i+4, i+8, ... over the full groups of four, the lanes are reduced as
    (l0 + l2) + (l1 + l3), the remaining categories are added left to
    right, and that tail is added to the lanes' sum.  It is the order in
    which OpenBLAS's x86-64 ``dgemv_t`` (0.3.31, Haswell micro-kernel)
    summed ``probs @ np.ones(K + 1)``, the sum this kernel took before, for
    every cell but those that other BLAS kernels took: a product of one row
    (a single location, or simulate's cube with one rater), and at K >= 7
    the first two rows past the last multiple of four.  So a cell's
    probabilities depend neither on the BLAS build nor on the other cells
    of its call.  Columns go a block at a time, so the sum's
    temporaries, two rows and, where a lane holds more than one category,
    the four lanes, stay in cache.
    """
    full = len(p) - len(p) % 4
    for lo in range(0, p.shape[1], _SUM_BLOCK):
        q = p[:, lo:lo + _SUM_BLOCK]
        if full:
            lanes = q[:full].reshape(-1, 4, q.shape[1])
            lanes = lanes[0] if full == 4 else np.add.reduce(lanes, axis=0)
            total = lanes[0] + lanes[2]
            rest = lanes[1] + lanes[3]
            total += rest
            if full < len(q):
                np.add.reduce(q[full:], axis=0, out=rest)
                total += rest
        else:
            total = np.add.reduce(q, axis=0)
        q /= total


def cell_moments(location, thresholds):
    """(probs, expected score E, score variance W) at the given locations.

    This is the one moment kernel: estimation, fit statistics and the
    public :func:`expected_score`/:func:`score_variance` all take E and W
    from here.  W is also d(E)/d(location).  E and E[X^2] come from one
    product of the columns k and k^2 with the category-major probabilities.
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
