"""Joint maximum-likelihood estimation of all facet measures.

Each iteration takes one damped Newton step on all parameters at once:
abilities, severities, difficulties and thresholds.  The person block of
the information matrix is diagonal, so the persons are eliminated and a
dense system over raters, items and thresholds is solved (Wright & Masters
1982, *Rating Scale Analysis*; Linacre 1989, *Many-Facet Rasch
Measurement*).  A backtracking line search keeps the likelihood from
decreasing, and rater/item/threshold measures are re-centered after every
iteration.  Extreme response strings (all-minimum or all-maximum) are
excluded from the fit.  The same iterations then measure all of them at
once, with every fitted measure held, each against its adjusted raw score.

Persons scored on the same cells with the same raw total have the same
likelihood equations (Wright & Panchapakesan 1969).  Where that at least
halves the cells, both phases iterate on one person per such score group,
each cell weighted by the group's size; targets, start values, standard
errors and the final log-likelihood come from all the cells.

Identification: person abilities are free; severities, difficulties, and
thresholds sum to zero over non-extreme elements.  Re-centering shifts are
folded back into the abilities, so the likelihood is invariant under them.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, cell_moments, observed_log_likelihood
from .ratings import CellIndex, FacetIds, RatingsTensor, ScaleSpec, canonical_json

EXTREME_NONE = "none"
EXTREME_MIN = "min-extreme"
EXTREME_MAX = "max-extreme"

_FACETS = ("person", "rater", "item")


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
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EstimationConfig":
        unknown = sorted(set(d) - set(cls().to_dict()))
        if unknown:
            raise ValueError(f"unknown estimation setting(s): {', '.join(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class FacetEstimates:
    """Fitted measures, standard errors, and convergence report.

    ``sweep_log_likelihoods`` holds the log-likelihood of the fit's cells
    (those of no extreme element) at the start and after each joint
    iteration; ``iterations_used`` counts those iterations.  With score
    groups it is summed over one person per group, weighted by the group's
    size, plus the fixed offset of the rater, item and category totals:
    the same sum, up to rounding.  The log-likelihoods live in memory only:
    the JSON form does not carry them, so an instance read back from JSON
    has an empty tuple there.
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
        return float(self.params.severity[self.ids.codes("rater", [rater])[0]])

    def to_json_dict(self) -> dict:
        return {
            "scale": self.scale.to_dict(),
            "facets": self.ids.to_dict(),
            "params": self.params.to_dict(),
            "se": {name: getattr(self, "se_" + name).tolist()
                   for name in ("ability", "severity", "difficulty", "thresholds")},
            "extreme_flags": {name: list(getattr(self, "extreme_" + name))
                              for name in ("persons", "raters", "items")},
            "iterations_used": self.iterations_used,
            "converged": self.converged,
            "log_likelihood_final": self.log_likelihood_final,
            "max_score_residual": self.max_score_residual,
            "config": self.config.to_dict(),
        }

    def to_json_text(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "FacetEstimates":
        return cls(
            params=ModelParams.from_dict(d["params"]),
            **{"se_" + name: np.asarray(v, float) for name, v in d["se"].items()},
            **{"extreme_" + name: tuple(v) for name, v in d["extreme_flags"].items()},
            iterations_used=int(d["iterations_used"]),
            converged=bool(d["converged"]),
            log_likelihood_final=float(d["log_likelihood_final"]),
            sweep_log_likelihoods=(),
            max_score_residual=float(d["max_score_residual"]),
            config=EstimationConfig.from_dict(d["config"]),
            ids=FacetIds(*(tuple(d["facets"][k]) for k in ("persons", "items", "raters"))),
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
    flags = {which: np.array([EXTREME_NONE] * cells.size[which], dtype=object)
             for which in _FACETS}
    active = np.ones(cells.n, dtype=bool)
    while True:
        changed = False
        for which in _FACETS:
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


def _initial_values(cells, K, free, totals):
    """PROX-style log-odds starting values from the raw ``totals`` over the
    cells of the fit."""

    def logodds(which, raw, sign):
        top = K * cells.sums(which)
        # extremes are excluded from the joint fit; give them a placeholder of 0
        v = np.zeros_like(raw)
        ok = (raw > 0) & (raw < top)
        v[ok] = sign * np.log(raw[ok] / (top[ok] - raw[ok]))
        return v

    ability, severity, difficulty = (logodds(which, raw, sign) for which, raw, sign
                                     in zip(_FACETS, totals, (1.0, -1.0, -1.0)))

    # each category's count, from the counts of scores >= 1..K
    counts = np.maximum(-np.diff(np.concatenate([[cells.n], totals[3], [0]])), 0.5)
    thresholds = np.log(counts[:-1] / counts[1:])

    severity[free[1]] -= severity[free[1]].mean()
    difficulty[free[2]] -= difficulty[free[2]].mean()
    thresholds -= thresholds.mean()
    return ability, severity, difficulty, thresholds


def estimate(tensor: RatingsTensor, config: EstimationConfig = None) -> FacetEstimates:
    """Fit the rating-scale model to a ratings tensor by JMLE.

    Raises :class:`EstimationError` naming two elements that the cells do not
    link (:meth:`CellIndex.unlinked`, checked on all cells and again on the
    non-extreme ones once extreme strings are removed), or for fewer than two
    observed categories, and :class:`ValueError` for an ``extreme_adjust``
    not below half the scale span.  Non-convergence within
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
    cells = tensor.cell_index
    _require_linked(cells, tensor.ids)
    if cells.x.min() == cells.x.max():
        raise EstimationError("need at least 2 observed score categories")

    flags, active = _mark_extremes(cells, K)
    if not active.any():
        raise EstimationError("every response string is extreme; nothing to estimate")
    fit_cells = cells.subset(active)
    free = [flags[which] == EXTREME_NONE for which in _FACETS] + [np.ones(K, dtype=bool)]
    if not active.all():
        # dropping the extreme strings can split a linked design
        _require_linked(fit_cells, tensor.ids, dict(zip(_FACETS, free)),
                        " once extreme strings are removed")

    targets = _totals(fit_cells, K)
    params = _initial_values(fit_cells, K, free, targets)
    iterations, converged, sweep_lls, max_change, max_resid = _newton_in_groups(
        fit_cells, free[0], targets, free, True, params, config,
        config.max_iterations, config.convergence_tol, config.residual_tol)
    if not converged:
        failed = "; ".join(
            f"last {name} {value:.3g} above tolerance {tol:g}"
            for name, value, tol in (("max change", max_change, config.convergence_tol),
                                     ("max score residual", max_resid, config.residual_tol))
            if not value <= tol
        )
        warnings.warn(
            f"estimation did not converge in {config.max_iterations} iterations ({failed})")
    if not active.all():
        _solve_extremes(cells.subset(~active), K, free, params, config)

    # standard errors from observed Fisher information at the final estimates
    probs_all, _, w_all = cell_moments(cells.locations(*params[:3]), params[3])
    information = [cells.sums(which, w_all) for which in _FACETS]
    information.append(np.diag(_threshold_information(probs_all, probs_all)[1]))
    se = [1.0 / np.sqrt(np.maximum(info, 1e-12)) for info in information]
    return FacetEstimates(
        params=ModelParams(*params),
        se_ability=se[0],
        se_severity=se[1],
        se_difficulty=se[2],
        se_thresholds=se[3],
        extreme_persons=tuple(flags["person"]),
        extreme_raters=tuple(flags["rater"]),
        extreme_items=tuple(flags["item"]),
        iterations_used=iterations,
        converged=converged,
        log_likelihood_final=observed_log_likelihood(probs_all, cells.observed()),
        sweep_log_likelihoods=tuple(sweep_lls),
        max_score_residual=float(max_resid),
        config=config,
        ids=tensor.ids,
        scale=tensor.scale,
    )


def _require_linked(cells, ids, keep=None, when=""):
    """Raise :class:`EstimationError` naming a pair :meth:`CellIndex.unlinked` finds."""
    unlinked = cells.unlinked(keep)
    if unlinked:
        facet_a, a, facet_b, b, via = unlinked
        a, b = (getattr(ids, f + "s")[code] for f, code in ((facet_a, a), (facet_b, b)))
        pair = (f"{facet_a}s {a!r} and {b!r}" if facet_a == facet_b
                else f"{facet_a} {a!r} and {facet_b} {b!r}")
        raise EstimationError(f"disconnected design{when}: {pair} share no {via}s")


def _totals(cells, K):
    """Each person's, rater's and item's raw total over ``cells``, and the
    count of scores at or above each category 1..K, weighted by the cells'
    multiplicities."""
    n_ge = np.cumsum(np.bincount(cells.x.astype(int), cells.mult,
                                 K + 1)[::-1])[::-1][1:]
    return tuple(cells.sums(which, cells.x) for which in _FACETS) + (n_ge,)


def _score_groups(cells, movable):
    """Persons of ``cells`` whose likelihood equations are the same, fitted
    once (Wright & Panchapakesan 1969, the score-group form of UCON).

    The ``movable`` persons fall into groups by their cell count, their
    exact (item, rater) cells (in order, as cells are person-major) and
    their raw total; every other person is a group of its own.  Returns the
    cell list of each group's first member, the groups numbered in person
    order and weighted by their sizes, then those first members and each
    person's group (-1 for a person without cells).  Where that would not
    at least halve the cells, the cells themselves come back, every person
    its own group.
    """
    P, I, R = cells.shape
    counts = np.bincount(cells.pidx, minlength=P)
    starts = np.cumsum(counts) - counts
    # small unsigned codes, which numpy's stable sort orders by radix
    codes = (cells.iidx * R + cells.ridx).astype(np.min_scalar_type(I * R))
    totals = cells.sums("person", cells.x)
    first = np.arange(P)  # the first member of each person's group
    movers = np.flatnonzero(movable & (counts > 0))
    for n in np.flatnonzero(np.bincount(counts[movers])):
        same = movers[counts[movers] == n]
        row, total = codes[starts[same, None] + np.arange(n)], totals[same]
        # stable, so each run of equal rows keeps its members in person order
        order = np.lexsort((*row.T, total))
        same, row, total = same[order], row[order], total[order]
        new = np.concatenate([[True], (total[1:] != total[:-1])
                              | np.any(row[1:] != row[:-1], axis=1)])
        first[same] = same[new][np.cumsum(new) - 1]
    persons = np.flatnonzero(counts)
    reps = persons[first[persons] == persons]
    if 2 * counts[reps].sum() > cells.n:
        return cells, np.arange(P), np.arange(P)
    group_of = np.full(P, -1)
    group_of[reps] = np.arange(reps.size)
    group_of[persons] = group_of[first[persons]]
    sel = first[cells.pidx] == cells.pidx
    grouped = CellIndex(group_of[cells.pidx[sel]], cells.iidx[sel], cells.ridx[sel],
                        cells.score[sel], (reps.size, I, R), cells.min_score,
                        np.bincount(group_of[persons], minlength=reps.size))
    return grouped, reps, group_of


def _newton_in_groups(cells, movable, targets, free, gauge, params, *args):
    """:func:`_newton` on the score groups of the ``movable`` persons
    (:func:`_score_groups`): each group's first member stands for all of
    them, and each member then takes its ability.  A group's person target
    is its first member's times the group's size; the other targets are
    the totals over ``cells``, so the objective is the likelihood over all
    of them."""
    grouped, reps, group_of = _score_groups(cells, movable)
    size = 1 if grouped.group_size is None else grouped.group_size
    ability = params[0][reps]
    result = _newton(grouped, [targets[0][reps] * size, *targets[1:]],
                     [free[0][reps], *free[1:]], gauge, [ability, *params[1:]], *args)
    has_group = group_of >= 0
    params[0][has_group] = ability[group_of[has_group]]
    return result


def _person_columns(cells, K):
    """Each person's own columns of the system :func:`_joint_step` solves,
    grouped by pattern, for eliminating the persons of ``cells``.

    A person's row of the information over raters and items has nonzero
    entries only at the raters and items of its cells: the person's
    entries, one per distinct (person, column), numbered person by person
    with the columns ascending (raters first, then ``R`` + item).  Persons
    with the same columns share a pattern, whose columns are those and then
    the K thresholds'.  Patterns of n own columns and m members are
    batched, each batch a triple of members (G, m), their entries (G, m, n)
    and columns (G, n + K), cut so that a step's products take about 2**15
    numbers.  Returns each cell's rater entry and item entry (one array of
    2 * cells, in the smallest unsigned type) and the batches.

    Where every person has every cell, as in a crossed design, the one
    pattern needs no search: that skips the sort, which would cost a small
    design's fit a few percent.
    """
    P, I, R = cells.shape
    RI = R + I
    # each cell's (person, rater) and (person, item) key
    base = cells.pidx * RI
    keys = np.concatenate([base + cells.ridx, base + R + cells.iidx])
    persons = np.flatnonzero(np.bincount(cells.pidx, minlength=P))
    if cells.n == persons.size * I * R:
        # every person has every cell: one pattern of all columns, and each
        # key can number its entry (a person without cells leaves a gap)
        slots = persons[None, :, None] * RI + np.arange(RI)
        return (keys.astype(np.min_scalar_type(P * RI)),
                [(persons[None], slots, np.arange(RI + K)[None])])
    # the keys run person-major, which the stable sort's merging of runs
    # makes cheap
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.concatenate([[True], keys[1:] != keys[:-1]])
    entry_of = np.empty(keys.size, dtype=np.min_scalar_type(keys.size))
    entry_of[order] = np.cumsum(new) - 1
    person, column = np.divmod(keys[new], RI)
    column = column.astype(np.min_scalar_type(RI))  # small codes sort by radix
    counts = np.bincount(person, minlength=P)
    starts = np.cumsum(counts) - counts
    batches = []
    for n in np.flatnonzero(np.bincount(counts)[1:]) + 1:
        same = np.flatnonzero(counts == n)
        slots = starts[same, None] + np.arange(n)
        # stable, so each pattern keeps its members in person order
        order = np.lexsort(column[slots].T)
        same, slots = same[order], slots[order]
        cols = column[slots]
        heads = np.flatnonzero(np.concatenate(
            [[True], np.any(cols[1:] != cols[:-1], axis=1)]))
        size = np.diff(np.append(heads, same.size))
        # each pattern's own columns and then the thresholds'
        cols = np.hstack([cols, np.broadcast_to(RI + np.arange(K), (same.size, K))])
        piece = max(1, 2**15 // (n + K) ** 2)
        for m in np.flatnonzero(np.bincount(size)):
            rows = heads[size == m, None] + np.arange(m)
            for g in range(0, rows.shape[0], piece):
                part = rows[g:g + piece]
                batches.append((same[part], slots[part], cols[part[:, 0]]))
    return entry_of, batches


def _held(vec, grad, clamp):
    """The elements of ``vec`` at the clamp whose gradient points further out."""
    return (np.abs(vec) >= clamp) & (np.sign(grad) == np.sign(vec))


def _newton(cells, targets, free, gauge, params, config, max_iterations, change_tol,
            resid_tol):
    """Damped Newton iterations moving the ``free`` elements of ``params``
    (in place) until their expected totals over ``cells`` meet ``targets``:
    per person, rater and item, and the counts of scores >= 1..K.

    Each iteration takes one :func:`_joint_step`, scaled so that nothing
    moves more than ``newton_damping``, and a line search on the
    adjusted-target likelihood: the log-likelihood plus each free measure
    times (target - observed total), signed as it enters the locations.
    With ``gauge``, the free severities, difficulties and thresholds are
    re-centered after every iteration, the shifts folded into the free
    abilities.  Stops before a step once the last one moved nothing more
    than ``change_tol`` and all free elements are within ``resid_tol`` of
    their targets (without the gauge, those held at the clamp aside).
    Returns the iterations, whether it stopped so, the objective at the
    start and after each iteration, and the last change and residual.

    Every sum over the cells weights each by its multiplicity, so a grouped
    person's target is its group's total; its residual in the stopping test
    is one member's, and so is its step.
    """
    ability, severity, difficulty, thresholds = params
    clamp, damp = config.logit_clamp, config.newton_damping
    index = cells.observed()
    # target minus observed total of each free element: zero in the fit itself
    offsets = [np.where(f, t - o, 0.0)
               for t, o, f in zip(targets, _totals(cells, thresholds.size), free)]
    signs = (1.0, -1.0, -1.0, -1.0)
    # the cells stay fixed, so the persons' columns do too; not needed when
    # only persons move
    columns = (_person_columns(cells, thresholds.size)
               if any(f.any() for f in free[1:]) else None)

    def recompute():
        loc = cells.locations(ability, severity, difficulty)
        probs, e, w = cell_moments(loc, thresholds)
        adjusted = sum(s * (off @ vec) for s, off, vec in zip(signs, offsets, params))
        return probs, e, w, observed_log_likelihood(probs, index) + adjusted

    def line_search(steps, gain, objective):
        """Move all four vectors by the largest of steps, steps/2, ...
        (60 halvings) that keeps the objective from decreasing, else leave
        them; steps of predicted gain within 1e-12 of zero, which no
        evaluation of the objective resolves, are taken whole.  A value past
        the clamp may stay where it is but not move further out."""
        bases = [vec.copy() for vec in params]
        scale_factor = 1.0
        for _ in range(60):
            for vec, base, step in zip(params, bases, steps):
                vec[:] = np.clip(base + step * scale_factor,
                                 np.minimum(base, -clamp), np.maximum(base, clamp))
            state = recompute()
            if state[3] >= objective - 1e-12 or abs(gain) <= 1e-12:
                return state
            scale_factor *= 0.5
        for vec, base in zip(params, bases):
            vec[:] = base
        return recompute()

    probs, e, w, objective = recompute()
    objectives = [objective]
    iterations = 0
    change = np.inf
    warned_singular = False
    while True:
        # target minus expected totals from the line search's moments, which
        # re-centering leaves valid: the stopping check, then the gradient
        diff = cells.x - e
        resid = [cells.sums(which, diff) + off for which, off in zip(_FACETS, offsets)]
        counted = free if gauge else [f & ~_held(v, s * g, clamp)
                                      for f, v, s, g in zip(free, params, signs, resid)]
        shown = resid if cells.group_size is None else [resid[0] / cells.group_size,
                                                        *resid[1:]]
        max_resid = max(np.max(np.abs(g[m]), initial=0.0) for g, m in zip(shown, counted))
        if change <= change_tol and max_resid <= resid_tol:
            return iterations, True, objectives, change, max_resid
        if iterations == max_iterations:
            return iterations, False, objectives, change, max_resid
        iterations += 1
        prev = [vec.copy() for vec in params]

        steps, gain, singular = _joint_step(cells, probs, e, w, resid, targets[3], params,
                                            free, gauge, clamp, columns)
        if singular and not warned_singular:
            warnings.warn("threshold curvature singular; using diagonal step")
            warned_singular = True
        largest = max(np.max(np.abs(step), initial=0.0) for step in steps)
        if largest > damp:
            steps = [step * (damp / largest) for step in steps]
            gain *= damp / largest
        probs, e, w, objective = line_search(steps, gain, objective)
        if np.any(free[3] & (np.abs(thresholds) >= clamp)):
            warnings.warn("a threshold hit the logit clamp; some categories are likely "
                          "unobserved")
        if gauge:
            # re-center severities/difficulties/thresholds over the free
            # elements; fold the shifts into ability so probabilities are intact
            shift = 0.0
            for vec, mask in zip(params[1:], free[1:]):
                c = vec[mask].mean()
                vec[mask] -= c
                shift += c
            ability[free[0]] -= shift

        objectives.append(objective)
        change = max(np.max(np.abs(vec - old)) for vec, old in zip(params, prev))


def _threshold_information(probs, weighted):
    """Sums over cells of P(X >= k), k = 1..K, and the K x K threshold information.

    The information is the sum over cells of Cov([X >= k], [X >= l]), which
    for k <= l equals P(X >= l) P(X < k).  Both sums come from cumulative
    sums of the column totals of ``probs`` and of ``probs.T @ probs``, so no
    per-cell array of K columns is formed and every term is a sum of
    positive products, precise even where one category is nearly certain.
    ``weighted``, each row of ``probs`` times its cell's multiplicity,
    weights both sums.  Cells without multiplicities must pass ``probs``
    itself: then ``weighted.T @ probs`` is numpy's symmetric ``a.T @ a``
    product, whose rounding differs from the general product's that an
    equal copy gets, and the bytes of every ungrouped fit rest on it.
    """
    K = probs.shape[1] - 1
    sums_ge = np.cumsum((np.ones(len(probs)) @ weighted)[::-1])[::-1][1:]
    # tail_head[l, m] = sum over cells of P(X >= l) P(X <= m)
    tail_head = np.cumsum(np.cumsum((weighted.T @ probs)[::-1], axis=0)[::-1], axis=1)
    k = np.arange(1, K + 1)
    return sums_ge, tail_head[np.maximum.outer(k, k), np.minimum.outer(k, k) - 1]


def _joint_step(cells, probs, e, w, resid_sums, n_ge, params, free, gauge, clamp, columns):
    """One Newton step on (ability, severity, difficulty, thresholds) at once.

    ``probs``, ``e`` and ``w`` are the moments of ``cells`` at ``params``,
    ``resid_sums`` each person's, rater's and item's target minus expected
    total, ``n_ge`` the target counts of scores >= 1..K; ``free`` masks the
    elements that move, and ``columns`` are the persons' own columns
    (:func:`_person_columns`; unused when only persons move).  Returns the
    four steps, their predicted gain (sum of step times gradient) and
    whether the system was singular, in which case each step is the
    diagonal one.

    The algebra uses the signs in which every sufficient statistic enters
    positively: a cell's score X for its person, -severity and -difficulty,
    and [X >= k] for -threshold k.  The information is the sum over cells of
    their covariance.  The person block is diagonal, so persons are
    eliminated (:func:`_eliminate_persons`): each person's row of the rest
    is nonzero only at its own n raters and items and the K thresholds, so
    building the Schur complement over raters, items and thresholds costs
    the sum over persons of (n + K)^2, not persons times (R + I + K)^2.  On
    a 10000 x 4 x 400 rater pool (3 raters a person) that took ``estimate``
    from 1.4 s to 0.44 s (2-core VM, one BLAS thread).  The system is solved
    densely, then the person steps are back-substituted.  With ``gauge``,
    the rater, item and threshold steps each sum to zero over their free
    elements, which fixes the three directions that leave every location
    unchanged.  A parameter at the clamp whose gradient points further out
    is held; only in this sum-zero form does holding it keep it in place,
    since with one element pinned the rest of its group could move against
    it.

    Every sum over the cells weights each by its multiplicity: a grouped
    person's information and gradient are its group's, so its step is one
    member's, and its group adds its size times one member's term to the
    Schur complement.
    """
    K = probs.shape[1] - 1
    P, R, I = cells.size["person"], cells.size["rater"], cells.size["item"]
    RI, M = R + I, R + I + K
    pidx, ridx, iidx = cells.pidx, cells.ridx, cells.iidx
    weighted = probs    # not a copy: see _threshold_information
    if cells.mult is not None:
        w, weighted = w * cells.mult, probs * cells.mult[:, None]
    g_p, g_r, g_i = resid_sums
    free_p = free[0] & ~_held(params[0], g_p, clamp)
    inv_d = np.where(free_p, 1.0 / np.maximum(np.bincount(pidx, w, P), 1e-12), 0.0)
    if not any(f.any() for f in free[1:]):
        # only persons move: their block is diagonal and no system is left
        d_p = inv_d * g_p
        return (d_p, np.zeros(R), np.zeros(I), np.zeros(K)), d_p @ g_p, False

    sums_ge, info_t = _threshold_information(probs, weighted)
    g_o = np.concatenate([g_r, g_i, n_ge - sums_ge])

    schur, rhs, cov_p = _eliminate_persons(cells, e, w, weighted, info_t, g_o, inv_d, g_p,
                                           columns)

    grads = (g_p, -g_o[:R], -g_o[R:RI], -g_o[RI:])
    free = [free_p] + [ok & ~_held(v, g, clamp)
                       for v, g, ok in zip(params[1:], grads[1:], free[1:])]
    # basis of the free steps; with the gauge, of those that sum to zero over
    # each group's free elements: its last free element moves against the rest
    basis = []
    for start, f in zip((0, R, RI), free[1:]):
        f = start + np.flatnonzero(f)
        n = max(f.size - gauge, 0)
        part = np.zeros((M, n))
        part[f[:n], np.arange(n)] = 1.0
        if gauge:
            part[f[-1:]] = -1.0
        basis.append(part)
    basis = np.hstack(basis)

    try:
        d_o = basis @ np.linalg.solve(basis.T @ schur @ basis, basis.T @ rhs)
        d_p = inv_d * (g_p - np.bincount(pidx, w * (d_o[ridx] + d_o[R + iidx]), P)
                       - cov_p @ d_o[RI:])
        singular = False
    except np.linalg.LinAlgError:
        # the information's diagonal, as _eliminate_persons set it
        curvature = np.concatenate([np.bincount(ridx, w, R), np.bincount(iidx, w, I),
                                    np.diag(info_t)])
        d_o = np.where(np.concatenate(free[1:]), g_o / np.maximum(curvature, 1e-10), 0.0)
        d_p = inv_d * g_p
        singular = True
    steps = (d_p, -d_o[:R], -d_o[R:RI], -d_o[RI:])
    return steps, sum(step @ g for step, g in zip(steps, grads)), singular


def _eliminate_persons(cells, e, w, weighted, info_t, g_o, inv_d, g_p, columns):
    """The system :func:`_joint_step` solves over raters, items and
    thresholds, the persons eliminated: the information less, for each
    person, its row times its inverse curvature ``inv_d`` times its row,
    and the gradient ``g_o`` less its row times ``inv_d`` times its
    gradient ``g_p``.  Returns that Schur complement and right side and
    each person's covariances with the thresholds.

    A person's row is nonzero only at its own raters and items
    (``columns``, :func:`_person_columns`) and at the thresholds, so each
    batch of patterns takes one product of its members' rows over those
    columns.  Where one pattern holds every person, as in a crossed design,
    that is the one product over all columns.  A function of its own, so
    that its temporaries are freed before the solve.
    """
    P, R, I = cells.size["person"], cells.size["rater"], cells.size["item"]
    K = info_t.shape[0]
    RI, M = R + I, R + I + K
    pidx, ridx, iidx = cells.pidx, cells.ridx, cells.iidx
    info = np.zeros((M, M))
    info[:R, R:RI] = np.bincount(ridx * I + iidx, w, R * I).reshape(R, I)
    cov_p = np.empty((P, K))
    tail = np.zeros(cells.n)
    for k in range(K, 0, -1):
        tail += (k - e) * weighted[:, k]  # Cov(X, [X >= k]) of each cell
        cov_p[:, k - 1] = np.bincount(pidx, tail, P)
        info[:R, RI + k - 1] = np.bincount(ridx, tail, R)
        info[R:RI, RI + k - 1] = np.bincount(iidx, tail, I)
    info += info.T
    info[RI:, RI:] = info_t
    info[np.arange(RI), np.arange(RI)] = np.concatenate([np.bincount(ridx, w, R),
                                                         np.bincount(iidx, w, I)])

    entry_of, batches = columns
    own = np.bincount(entry_of, np.concatenate([w, w]))
    schur, rhs = info, g_o.copy()
    for members, slots, cols in batches:
        rows = np.concatenate([own[slots], cov_p[members]], axis=2)
        scaled = (rows * inv_d[members, None]).transpose(0, 2, 1)
        np.subtract.at(schur.reshape(-1), (cols[:, :, None] * M + cols[:, None, :]).ravel(),
                       (scaled @ rows).ravel())
        np.subtract.at(rhs, cols.ravel(), (scaled @ g_p[members, None]).ravel())
    return schur, rhs, cov_p


def _solve_extremes(cells, K, free, params, config):
    """Measure the elements not ``free`` in the fit on ``cells``, those
    that touch them, all at once: :func:`_newton` without the gauge, on
    the score groups of the extreme persons, the fitted measures and
    thresholds held, so extremes that share cells meet their targets
    together, to 1e-10 in change and target (or held at the clamp).  A
    target is the raw total clipped to ``[extreme_adjust, K*n -
    extreme_adjust]``, so an element flagged only once others were dropped
    keeps its own.  Each starts at the log-odds of its target's
    mean score about the mean location of its cells.
    """
    adjust, clamp = config.extreme_adjust, config.logit_clamp
    extreme = [~f for f in free]
    targets = list(_totals(cells, K))
    loc = cells.locations(*params[:3])
    for j, (which, sign) in enumerate(zip(_FACETS, (1.0, -1.0, -1.0))):
        x = extreme[j]
        top = K * cells.sums(which)[x]
        targets[j][x] = target = np.clip(targets[j][x], adjust, top - adjust)
        mean_loc = K * cells.sums(which, loc)[x] / top
        params[j][x] = np.clip(sign * (np.log(target / (top - target)) - mean_loc),
                               -clamp, clamp)
    _newton_in_groups(cells, extreme[0], targets, extreme, False, params, config,
                      200, 1e-10, 1e-10)


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
    return {rater: "severe" if value > cut else "lenient" if value < -cut else "neutral"
            for rater, value in zip(estimates.ids.raters, estimates.params.severity)}
