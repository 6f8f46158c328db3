"""Joint maximum-likelihood estimation of all facet measures.

Alternating damped Newton-Raphson sweeps over persons, raters, items, and
thresholds, with Jacobi-style simultaneous updates within each facet and
re-centering of rater/item/threshold measures after every sweep.  Extreme
response strings (all-minimum or all-maximum) are excluded from the joint
fit and solved afterwards, each against its adjusted raw score.

Identification: person abilities are free; severities, difficulties, and
thresholds sum to zero over non-extreme elements.  Re-centering shifts are
folded back into the abilities, so the likelihood is invariant under them.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, cell_moments, observed_log_likelihood
from .ratings import FacetIds, RatingsTensor, ScaleSpec, canonical_json

EXTREME_NONE = "none"
EXTREME_MIN = "min-extreme"
EXTREME_MAX = "max-extreme"


class EstimationError(RuntimeError):
    """Raised when the design cannot support joint estimation."""


@dataclass(frozen=True)
class EstimationConfig:
    max_iterations: int = 200
    convergence_tol: float = 1e-4   # max absolute parameter change per sweep
    residual_tol: float = 0.01     # max absolute per-element score residual
    logit_clamp: float = 10.0
    extreme_adjust: float = 0.25   # score points added/removed from extreme totals
    newton_damping: float = 1.0    # max logits moved per update

    def __post_init__(self):
        for name in ("convergence_tol", "residual_tol", "extreme_adjust", "newton_damping"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.logit_clamp < 5:
            raise ValueError("logit_clamp must be >= 5")

    def to_dict(self) -> dict:
        return {
            "max_iterations": self.max_iterations,
            "convergence_tol": self.convergence_tol,
            "residual_tol": self.residual_tol,
            "logit_clamp": self.logit_clamp,
            "extreme_adjust": self.extreme_adjust,
            "newton_damping": self.newton_damping,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EstimationConfig":
        unknown = sorted(set(d) - set(cls().to_dict()))
        if unknown:
            raise ValueError(f"unknown estimation setting(s): {', '.join(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class FacetEstimates:
    """Fitted measures, standard errors, and convergence report.

    ``sweep_log_likelihoods`` lives in memory only: the JSON form does not
    carry it, so an instance read back from JSON has an empty tuple there.
    """

    params: ModelParams
    se_ability: np.ndarray
    se_severity: np.ndarray
    se_difficulty: np.ndarray
    se_thresholds: np.ndarray
    extreme_persons: tuple
    extreme_raters: tuple
    extreme_items: tuple
    iterations_used: int
    converged: bool
    log_likelihood_final: float
    sweep_log_likelihoods: tuple
    max_score_residual: float
    config: EstimationConfig
    ids: FacetIds
    scale: ScaleSpec

    def severity_of(self, rater) -> float:
        return float(self.params.severity[self.ids.rater_index[rater]])

    def to_json_dict(self) -> dict:
        return {
            "scale": self.scale.to_dict(),
            "facets": self.ids.to_dict(),
            "params": self.params.to_dict(),
            "se": {
                "ability": self.se_ability.tolist(),
                "severity": self.se_severity.tolist(),
                "difficulty": self.se_difficulty.tolist(),
                "thresholds": self.se_thresholds.tolist(),
            },
            "extreme_flags": {
                "persons": list(self.extreme_persons),
                "raters": list(self.extreme_raters),
                "items": list(self.extreme_items),
            },
            "iterations_used": self.iterations_used,
            "converged": self.converged,
            "log_likelihood_final": self.log_likelihood_final,
            "max_score_residual": self.max_score_residual,
            "config": self.config.to_dict(),
        }

    def to_json_text(self) -> str:
        return canonical_json(self.to_json_dict())

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json_text())

    @classmethod
    def from_json_dict(cls, d: dict) -> "FacetEstimates":
        return cls(
            params=ModelParams.from_dict(d["params"]),
            se_ability=np.asarray(d["se"]["ability"], float),
            se_severity=np.asarray(d["se"]["severity"], float),
            se_difficulty=np.asarray(d["se"]["difficulty"], float),
            se_thresholds=np.asarray(d["se"]["thresholds"], float),
            extreme_persons=tuple(d["extreme_flags"]["persons"]),
            extreme_raters=tuple(d["extreme_flags"]["raters"]),
            extreme_items=tuple(d["extreme_flags"]["items"]),
            iterations_used=int(d["iterations_used"]),
            converged=bool(d["converged"]),
            log_likelihood_final=float(d["log_likelihood_final"]),
            sweep_log_likelihoods=(),
            max_score_residual=float(d["max_score_residual"]),
            config=EstimationConfig.from_dict(d["config"]),
            ids=FacetIds(
                tuple(d["facets"]["persons"]),
                tuple(d["facets"]["items"]),
                tuple(d["facets"]["raters"]),
            ),
            scale=ScaleSpec.from_dict(d["scale"]),
        )

    @classmethod
    def read_json(cls, path) -> "FacetEstimates":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json_dict(json.load(f))


def _mark_extremes(cells, K):
    """Iteratively flag all-min/all-max elements; returns flags and active mask.

    Each pass tallies one facet over the active cells and drops every
    extreme element of it at once: a cell belongs to one element of a
    facet, so removing one element's cells leaves the others' tallies as
    they were.  An element with active cells has not been flagged yet.
    """
    flags = {
        which: np.array([EXTREME_NONE] * cells.size[which], dtype=object)
        for which in ("person", "rater", "item")
    }
    active = np.ones(cells.n, dtype=bool)
    while True:
        changed = False
        for which in ("person", "rater", "item"):
            counts = cells.sums(which, None, active)
            raw = cells.sums(which, cells.x[active], active)
            is_min = (counts > 0) & (raw == 0)
            is_max = (counts > 0) & (raw == K * counts)
            hit = is_min | is_max
            if hit.any():
                flags[which][is_min] = EXTREME_MIN
                flags[which][is_max] = EXTREME_MAX
                active &= ~hit[cells.index[which]]
                changed = True
        if not changed:
            return flags, active


def _initial_values(cells, active, K, flags):
    """PROX-style log-odds starting values from adjusted raw totals."""

    def logodds(which, sign):
        counts = cells.sums(which, None, active)
        raw = cells.sums(which, cells.x[active], active)
        top = K * counts
        # extremes are excluded from the sweep; give them a placeholder of 0
        v = np.zeros_like(raw)
        ok = (raw > 0) & (raw < top)
        v[ok] = sign * np.log(raw[ok] / (top[ok] - raw[ok]))
        return v

    ability = logodds("person", +1.0)
    severity = logodds("rater", -1.0)
    difficulty = logodds("item", -1.0)

    counts = np.bincount(cells.x[active].astype(int), minlength=K + 1).astype(float)
    counts = np.maximum(counts, 0.5)
    thresholds = np.log(counts[:-1] / counts[1:])

    nx_r = flags["rater"] == EXTREME_NONE
    nx_i = flags["item"] == EXTREME_NONE
    severity[nx_r] -= severity[nx_r].mean()
    difficulty[nx_i] -= difficulty[nx_i].mean()
    thresholds -= thresholds.mean()
    return ability, severity, difficulty, thresholds


def estimate(tensor: RatingsTensor, config: EstimationConfig = None) -> FacetEstimates:
    """Fit the rating-scale model to a ratings tensor by JMLE.

    Raises :class:`EstimationError` for a disconnected design or one with
    fewer than two observed categories, and :class:`ValueError` for an
    ``extreme_adjust`` not below half the scale span.  Non-convergence within
    ``max_iterations`` is reported via the ``converged`` flag and a
    warning, not an error.
    """
    if config is None:
        config = EstimationConfig()
    K = tensor.scale.span
    if config.extreme_adjust >= K / 2:
        raise ValueError(
            f"extreme_adjust {config.extreme_adjust:g} must be below half the scale "
            f"span, {K / 2:g}: at or above it an all-minimum string is measured "
            "at or above an all-maximum one"
        )
    if not tensor.connected:
        raise EstimationError(
            "disconnected design: facet elements are not linked by shared observations"
        )
    cells = tensor.cell_index
    if np.unique(cells.x).size < 2:
        raise EstimationError("need at least 2 observed score categories")

    flags, active = _mark_extremes(cells, K)
    if not active.any():
        raise EstimationError("every response string is extreme; nothing to estimate")
    for which in ("person", "rater", "item"):
        counts = cells.sums(which, None, active)
        starved = (counts == 0) & (flags[which] == EXTREME_NONE)
        if starved.any():
            bad = getattr(tensor.ids, which + "s")[int(np.nonzero(starved)[0][0])]
            raise EstimationError(
                f"{which} {bad!r} has no usable observations once extreme strings are removed"
            )

    ability, severity, difficulty, thresholds = _initial_values(cells, active, K, flags)
    nx_p = flags["person"] == EXTREME_NONE
    nx_r = flags["rater"] == EXTREME_NONE
    nx_i = flags["item"] == EXTREME_NONE

    x_act = cells.x[active]
    n_ge = np.array([(x_act >= k).sum() for k in range(1, K + 1)], dtype=float)

    def recompute():
        loc = cells.locations(ability, severity, difficulty, active)
        probs, e, w = cell_moments(loc, thresholds)
        return probs, e, w, observed_log_likelihood(probs, x_act)

    damp = config.newton_damping
    clamp = config.logit_clamp

    def line_search(vec, step, loglik):
        """Move ``vec`` by the largest of step, step/2, ... (60 halvings) that
        keeps the active-cell likelihood from decreasing; else leave it."""
        base = vec.copy()
        scale_factor = 1.0
        for _ in range(60):
            vec[:] = np.clip(base + step * scale_factor, -clamp, clamp)
            state = recompute()
            if state[3] >= loglik - 1e-12:
                return state
            scale_factor *= 0.5
        vec[:] = base
        return recompute()

    probs, e, w, loglik = recompute()
    sweep_lls = [loglik]
    iterations = 0
    converged = False
    max_change = max_resid = np.inf
    warned_singular = False

    for iterations in range(1, config.max_iterations + 1):
        prev = (ability.copy(), severity.copy(), difficulty.copy(), thresholds.copy())

        # facet sweeps: simultaneous (Jacobi) Newton updates, backtracked so
        # the active-cell likelihood never decreases
        for which, vec, mask, sign in (
            ("person", ability, nx_p, +1.0),
            ("rater", severity, nx_r, -1.0),
            ("item", difficulty, nx_i, -1.0),
        ):
            resid = cells.sums(which, x_act - e, active)
            info = cells.sums(which, w, active)
            step = np.zeros_like(vec)
            step[mask] = np.clip(
                sign * resid[mask] / np.maximum(info[mask], 1e-12), -damp, damp
            )
            probs, e, w, loglik = line_search(vec, step, loglik)

        # joint K-dimensional Newton step on category-count residuals
        p_ge = 1.0 - np.cumsum(probs, axis=-1)[:, :-1]  # P(X >= k), k = 1..K
        sums_ge = p_ge.sum(axis=0)
        grad = sums_ge - n_ge
        # sum over cells of Cov([X>=k],[X>=l]); P(X>=max(k,l)) = min of the two
        # because P(X>=k) is nonincreasing in k
        kk = np.arange(K)
        curv = sums_ge[np.maximum.outer(kk, kk)] - p_ge.T @ p_ge
        try:
            delta = np.linalg.solve(curv + 1e-10 * np.eye(K), grad)
        except np.linalg.LinAlgError:
            delta = grad / np.maximum(np.diag(curv), 1e-10)
            if not warned_singular:
                warnings.warn("threshold curvature singular; using diagonal step")
                warned_singular = True
        probs, e, w, loglik = line_search(thresholds, np.clip(delta, -damp, damp), loglik)
        if np.any(np.abs(thresholds) >= clamp):
            warnings.warn(
                "a threshold hit the logit clamp; some categories are likely unobserved"
            )

        # re-center severities/difficulties/thresholds over non-extreme
        # elements; fold the shifts into ability so probabilities are intact
        shift = 0.0
        for vec, mask in ((severity, nx_r), (difficulty, nx_i)):
            c = vec[mask].mean()
            vec[mask] -= c
            shift += c
        c = thresholds.mean()
        thresholds -= c
        shift += c
        ability[nx_p] -= shift

        sweep_lls.append(loglik)

        max_change = max(
            np.max(np.abs(ability - prev[0])),
            np.max(np.abs(severity - prev[1])),
            np.max(np.abs(difficulty - prev[2])),
            np.max(np.abs(thresholds - prev[3])),
        )
        # the compensated re-centering leaves every cell location unchanged,
        # so the moments from the threshold stage stay valid here
        max_resid = max(
            np.max(np.abs(cells.sums("person", x_act - e, active)[nx_p])),
            np.max(np.abs(cells.sums("rater", x_act - e, active)[nx_r])),
            np.max(np.abs(cells.sums("item", x_act - e, active)[nx_i])),
        )
        if max_change <= config.convergence_tol and max_resid <= config.residual_tol:
            converged = True
            break

    if not converged:
        failed = "; ".join(
            f"last {name} {value:.3g} above tolerance {tol:g}"
            for name, value, tol in (("max change", max_change, config.convergence_tol),
                                     ("max score residual", max_resid, config.residual_tol))
            if not value <= tol
        )
        warnings.warn(f"estimation did not converge in {config.max_iterations} sweeps ({failed})")

    _solve_extremes(cells, K, flags, ability, severity, difficulty, thresholds, config)

    # standard errors from observed Fisher information at the final estimates
    loc_all = cells.locations(ability, severity, difficulty)
    probs_all, _, w_all = cell_moments(loc_all, thresholds)
    se_ability = _safe_se(cells.sums("person", w_all))
    se_severity = _safe_se(cells.sums("rater", w_all))
    se_difficulty = _safe_se(cells.sums("item", w_all))
    pge_all = 1.0 - np.cumsum(probs_all, axis=-1)[:, :-1]
    se_thresholds = _safe_se((pge_all * (1.0 - pge_all)).sum(axis=0))

    params = ModelParams(ability, severity, difficulty, thresholds)
    final_ll = observed_log_likelihood(probs_all, cells.x)
    return FacetEstimates(
        params=params,
        se_ability=se_ability,
        se_severity=se_severity,
        se_difficulty=se_difficulty,
        se_thresholds=se_thresholds,
        extreme_persons=tuple(flags["person"]),
        extreme_raters=tuple(flags["rater"]),
        extreme_items=tuple(flags["item"]),
        iterations_used=iterations,
        converged=converged,
        log_likelihood_final=final_ll,
        sweep_log_likelihoods=tuple(sweep_lls),
        max_score_residual=float(max_resid),
        config=config,
        ids=tensor.ids,
        scale=tensor.scale,
    )


def _safe_se(information):
    return 1.0 / np.sqrt(np.maximum(information, 1e-12))


def _solve_extremes(cells, K, flags, ability, severity, difficulty, thresholds, config):
    """Assign measures to extreme elements, one damped Newton per facet.

    An element's target is its raw total over all its cells, clipped to
    ``[extreme_adjust, K*n - extreme_adjust]``: an all-minimum or
    all-maximum string is pulled ``extreme_adjust`` score points inside the
    range, and an element flagged only once other extremes were dropped
    keeps its own raw total.  Its measure is solved against every other
    measure held fixed.  A cell belongs to one element of a facet, so
    all of a facet's extreme elements are solved at once; each stops at
    ``|sum E - target| < 1e-10``, or when it rests at the clamp.  Persons
    first, then raters, then items.
    """
    adjust, damp, clamp = config.extreme_adjust, config.newton_damping, config.logit_clamp
    for which, vec, sign in (
        ("person", ability, +1.0),
        ("rater", severity, -1.0),
        ("item", difficulty, -1.0),
    ):
        flagged = flags[which] != EXTREME_NONE
        idx = cells.index[which]
        own = np.nonzero(flagged[idx])[0]  # cells of the elements still live
        target = np.clip(cells.sums(which, cells.x[own], own), adjust,
                         K * cells.sums(which, None, own) - adjust)
        v = np.zeros_like(vec)
        live = flagged.copy()
        for _ in range(200):
            vec[flagged] = v[flagged]
            own = own[live[idx[own]]]
            loc = cells.locations(ability, severity, difficulty, own)
            _, e, w = cell_moments(loc, thresholds)
            f = cells.sums(which, e, own) - target
            live &= ~(np.abs(f) < 1e-10)
            step = np.clip(sign * -f / np.maximum(cells.sums(which, w, own), 1e-12),
                           -damp, damp)
            v[live] = np.clip(v[live] + step[live], -clamp, clamp)
            live &= ~((np.abs(v) >= clamp) & (np.abs(step) < 1e-12))
            if not live.any():
                break
        vec[flagged] = v[flagged]


def severity_classification(estimates: FacetEstimates, cut: float = 0.3,
                            allow_unconverged: bool = False) -> dict:
    """Label each rater severe / lenient / neutral at the given logit cut.

    Severity above +cut marks a severe rater (scores pulled down), below
    -cut a lenient one.  Refuses unconverged estimates unless overridden.
    """
    if cut <= 0:
        raise ValueError("cut must be positive")
    if not estimates.converged and not allow_unconverged:
        raise ValueError(
            "estimates did not converge; pass allow_unconverged=True to classify anyway"
        )
    labels = {}
    for rater, value in zip(estimates.ids.raters, estimates.params.severity):
        if value > cut:
            labels[rater] = "severe"
        elif value < -cut:
            labels[rater] = "lenient"
        else:
            labels[rater] = "neutral"
    return labels
