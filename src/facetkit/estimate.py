"""Joint maximum-likelihood estimation of all facet measures.

Each iteration takes one damped Newton step on all parameters at once:
abilities, severities, difficulties and thresholds.  The person block of
the information matrix is diagonal, so the persons are eliminated and a
dense system over raters, items and thresholds is solved (Wright & Masters
1982, *Rating Scale Analysis*; Linacre 1989, *Many-Facet Rasch
Measurement*).  A backtracking line search keeps the likelihood from
decreasing, and rater/item/threshold measures are re-centered after every
iteration.  Extreme response strings (all-minimum or all-maximum) are
excluded from the joint fit and solved afterwards, each against its
adjusted raw score.

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
    convergence_tol: float = 1e-4   # max absolute parameter change per iteration
    residual_tol: float = 0.01     # max absolute per-element score residual
    logit_clamp: float = 10.0
    extreme_adjust: float = 0.25   # score points added/removed from extreme totals
    newton_damping: float = 1.0    # max logits any parameter moves per iteration

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

    ``sweep_log_likelihoods`` holds the active-cell log-likelihood at the
    start and after each joint iteration; ``iterations_used`` counts those
    iterations.  The log-likelihoods live in memory only: the JSON form does
    not carry them, so an instance read back from JSON has an empty tuple
    there.
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


def _initial_values(cells, K, flags):
    """PROX-style log-odds starting values from the raw totals over the
    cells of the fit."""

    def logodds(which, sign):
        counts = cells.sums(which)
        raw = cells.sums(which, cells.x)
        top = K * counts
        # extremes are excluded from the joint fit; give them a placeholder of 0
        v = np.zeros_like(raw)
        ok = (raw > 0) & (raw < top)
        v[ok] = sign * np.log(raw[ok] / (top[ok] - raw[ok]))
        return v

    ability = logodds("person", +1.0)
    severity = logodds("rater", -1.0)
    difficulty = logodds("item", -1.0)

    counts = np.bincount(cells.x.astype(int), minlength=K + 1).astype(float)
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
    fit_cells = cells.subset(active)
    for which in ("person", "rater", "item"):
        counts = fit_cells.sums(which)
        starved = (counts == 0) & (flags[which] == EXTREME_NONE)
        if starved.any():
            bad = getattr(tensor.ids, which + "s")[int(np.nonzero(starved)[0][0])]
            raise EstimationError(
                f"{which} {bad!r} has no usable observations once extreme strings are removed"
            )

    params = _initial_values(fit_cells, K, flags)
    ability, severity, difficulty, thresholds = params
    nx_p = flags["person"] == EXTREME_NONE
    nx_r = flags["rater"] == EXTREME_NONE
    nx_i = flags["item"] == EXTREME_NONE
    estimable = (nx_p, nx_r, nx_i, np.ones(K, dtype=bool))

    def recompute():
        loc = fit_cells.locations(ability, severity, difficulty)
        probs, e, w = cell_moments(loc, thresholds)
        return probs, e, w, observed_log_likelihood(probs, fit_cells.x)

    damp = config.newton_damping
    clamp = config.logit_clamp

    def line_search(steps, loglik):
        """Move all four vectors by the largest of steps, steps/2, ...
        (60 halvings) that keeps the active-cell likelihood from decreasing;
        else leave them.  A value already past the clamp (re-centering can
        push one there) may stay where it is but not move further out."""
        bases = [vec.copy() for vec in params]
        scale_factor = 1.0
        for _ in range(60):
            for vec, base, step in zip(params, bases, steps):
                vec[:] = np.clip(base + step * scale_factor,
                                 np.minimum(base, -clamp), np.maximum(base, clamp))
            state = recompute()
            if state[3] >= loglik - 1e-12:
                return state
            scale_factor *= 0.5
        for vec, base in zip(params, bases):
            vec[:] = base
        return recompute()

    probs, e, w, loglik = recompute()
    resid_sums = _residual_sums(fit_cells, e)
    sweep_lls = [loglik]
    iterations = 0
    converged = False
    max_change = max_resid = np.inf
    warned_singular = False

    for iterations in range(1, config.max_iterations + 1):
        prev = [vec.copy() for vec in params]

        steps, singular = _joint_step(fit_cells, probs, e, w, resid_sums, params,
                                      estimable, clamp)
        if singular and not warned_singular:
            warnings.warn("threshold curvature singular; using diagonal step")
            warned_singular = True
        largest = max(np.max(np.abs(step), initial=0.0) for step in steps)
        if largest > damp:
            steps = [step * (damp / largest) for step in steps]
        probs, e, w, loglik = line_search(steps, loglik)
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

        max_change = max(np.max(np.abs(vec - old)) for vec, old in zip(params, prev))
        # the compensated re-centering leaves every cell location unchanged,
        # so the moments from the line search stay valid here, and their
        # residual sums are the next step's gradient
        resid_sums = _residual_sums(fit_cells, e)
        max_resid = max(np.max(np.abs(g[mask]))
                        for g, mask in zip(resid_sums, estimable))
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
        warnings.warn(
            f"estimation did not converge in {config.max_iterations} iterations ({failed})")

    _solve_extremes(cells, K, flags, ability, severity, difficulty, thresholds, config)

    # standard errors from observed Fisher information at the final estimates
    loc_all = cells.locations(ability, severity, difficulty)
    probs_all, _, w_all = cell_moments(loc_all, thresholds)
    se_ability = _safe_se(cells.sums("person", w_all))
    se_severity = _safe_se(cells.sums("rater", w_all))
    se_difficulty = _safe_se(cells.sums("item", w_all))
    se_thresholds = _safe_se(np.diag(_threshold_information(probs_all)[1]))

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


def _residual_sums(cells, e):
    """Per-person, per-rater and per-item sums of x - E over ``cells``."""
    resid = cells.x - e
    return tuple(cells.sums(which, resid) for which in ("person", "rater", "item"))


def _threshold_information(probs):
    """Sums over cells of P(X >= k), k = 1..K, and the K x K threshold information.

    The information is the sum over cells of Cov([X >= k], [X >= l]), which
    for k <= l equals P(X >= l) P(X < k).  Both sums come from cumulative
    sums of the column totals of ``probs`` and of ``probs.T @ probs``, so no
    per-cell array of K columns is formed and every term is a sum of
    positive products, precise even where one category is nearly certain.
    """
    K = probs.shape[1] - 1
    sums_ge = np.cumsum((np.ones(len(probs)) @ probs)[::-1])[::-1][1:]
    # tail_head[l, m] = sum over cells of P(X >= l) P(X <= m)
    tail_head = np.cumsum(np.cumsum((probs.T @ probs)[::-1], axis=0)[::-1], axis=1)
    k = np.arange(1, K + 1)
    return sums_ge, tail_head[np.maximum.outer(k, k), np.minimum.outer(k, k) - 1]


def _joint_step(cells, probs, e, w, resid_sums, params, estimable, clamp):
    """One Newton step on (ability, severity, difficulty, thresholds) at once.

    ``cells`` are the cells of the fit, ``probs``, ``e`` and ``w`` their
    moments at ``params`` and ``resid_sums`` their :func:`_residual_sums`;
    ``estimable`` masks the elements the fit moves.  Returns the
    four steps and whether the system was singular, in which case each step
    is the diagonal one.

    The algebra uses the signs in which every sufficient statistic enters
    positively: a cell's score X for its person, -severity and -difficulty,
    and [X >= k] for -threshold k.  The information is the sum over cells of
    their covariance, the gradient their observed minus expected totals.
    The person block is diagonal, so persons are eliminated: the Schur
    complement over raters, items and thresholds is accumulated over
    contiguous blocks of persons (cells are person-major) and solved
    densely, then the person steps are back-substituted.  The rater, item
    and threshold steps each sum to zero over their free elements, which
    fixes the three directions that leave every location unchanged.  A
    parameter at the clamp whose gradient points further out is held; only
    in this sum-zero form does holding it keep it in place, since with one
    element pinned instead the rest of its group could move against it.
    """
    K = probs.shape[1] - 1
    P, R, I = cells.size["person"], cells.size["rater"], cells.size["item"]
    RI, M = R + I, R + I + K
    pidx, ridx, iidx, x = cells.pidx, cells.ridx, cells.iidx, cells.x

    sums_ge, info_t = _threshold_information(probs)
    n_ge = np.cumsum(np.bincount(x.astype(int), minlength=K + 1)[::-1])[::-1][1:]
    g_p, g_r, g_i = resid_sums
    g_o = np.concatenate([g_r, g_i, n_ge - sums_ge])

    info = np.zeros((M, M))
    info[:R, R:RI] = np.bincount(ridx * I + iidx, w, R * I).reshape(R, I)
    cov_p = np.empty((P, K))
    tail = np.zeros(cells.n)
    for k in range(K, 0, -1):
        tail += (k - e) * probs[:, k]  # Cov(X, [X >= k]) of each cell
        cov_p[:, k - 1] = np.bincount(pidx, tail, P)
        info[:R, RI + k - 1] = np.bincount(ridx, tail, R)
        info[R:RI, RI + k - 1] = np.bincount(iidx, tail, I)
    info += info.T
    info[RI:, RI:] = info_t
    info[np.arange(RI), np.arange(RI)] = np.concatenate([np.bincount(ridx, w, R),
                                                         np.bincount(iidx, w, I)])

    grads = (g_p, -g_o[:R], -g_o[R:RI], -g_o[RI:])
    free = [ok & ~((np.abs(v) >= clamp) & (np.sign(g) == np.sign(v)))
            for v, g, ok in zip(params, grads, estimable)]
    # basis of the steps that sum to zero over each group's free elements:
    # the last free element of a group moves against all the others
    basis = []
    for start, f in zip((0, R, RI), free[1:]):
        f = start + np.flatnonzero(f)
        part = np.zeros((M, max(f.size - 1, 0)))
        part[f[:-1], np.arange(f.size - 1)] = 1.0
        part[f[-1:]] = -1.0
        basis.append(part)
    basis = np.hstack(basis)

    inv_d = np.where(free[0], 1.0 / np.maximum(np.bincount(pidx, w, P), 1e-12), 0.0)
    schur, rhs = info.copy(), g_o.copy()
    block = max(1, 2**14 // M)  # persons per block: about 128 KB of block matrix
    for p0 in range(0, P, block):
        p1 = min(p0 + block, P)
        c0, c1 = np.searchsorted(pidx, (p0, p1))
        local = (pidx[c0:c1] - p0) * RI
        b = np.empty((p1 - p0, M))
        b[:, :RI] = np.bincount(
            np.concatenate([local + ridx[c0:c1], local + R + iidx[c0:c1]]),
            np.concatenate([w[c0:c1], w[c0:c1]]), (p1 - p0) * RI,
        ).reshape(p1 - p0, RI)
        b[:, RI:] = cov_p[p0:p1]
        scaled = b * inv_d[p0:p1, None]
        schur -= scaled.T @ b
        rhs -= scaled.T @ g_p[p0:p1]

    try:
        d_o = basis @ np.linalg.solve(basis.T @ schur @ basis, basis.T @ rhs)
        d_p = inv_d * (g_p - np.bincount(pidx, w * (d_o[ridx] + d_o[R + iidx]), P)
                       - cov_p @ d_o[RI:])
        singular = False
    except np.linalg.LinAlgError:
        free_o = np.concatenate(free[1:])
        d_o = np.where(free_o, g_o / np.maximum(np.diag(info), 1e-10), 0.0)
        d_p = inv_d * g_p
        singular = True
    return (d_p, -d_o[:R], -d_o[R:RI], -d_o[RI:]), singular


def _solve_extremes(cells, K, flags, ability, severity, difficulty, thresholds, config):
    """Assign measures to extreme elements, one damped Newton per facet.

    An element's target is its raw total over all its cells, clipped to
    ``[extreme_adjust, K*n - extreme_adjust]``: an all-minimum or
    all-maximum string is pulled ``extreme_adjust`` score points inside the
    range, and an element flagged only once other extremes were dropped
    keeps its own raw total.  Its measure is solved against every other
    measure held fixed.  A cell belongs to one element of a facet, so
    all of a facet's extreme elements are solved at once; each stops at
    ``|sum E - target| < 1e-10``, or once it rests at the clamp with its
    step pointing further out, where every later step would be clipped
    away.  Persons first, then raters, then items.
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
            live &= ~((np.abs(v) >= clamp) & (np.sign(step) == np.sign(v)))
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
