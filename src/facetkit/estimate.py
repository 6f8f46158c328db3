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
likelihood equations (Wright & Panchapakesan 1969).  Such score groups are
formed once, over all cells, where they at least halve the cells; else each
person is a group of its own, on its own cells.  Every later pass reads the
groups' cells, each weighted by its group's size and keeping its members'
scores: the link check, the extreme marking, both phases of the fit, the
standard errors and the final log-likelihood.  Measures and extreme flags
stay per group until the result is built; each person then takes its
group's.

Identification: person abilities are free; severities, difficulties, and
thresholds sum to zero over non-extreme elements.  Re-centering shifts are
folded back into the abilities, so the likelihood is invariant under them.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .model import PARAMS_JSON, ModelParams, cell_moments, observed_log_likelihood
from .ratings import (FACET_IDS_JSON, SCALE_JSON, CellIndex, FacetIds, Fields, RatingsTensor,
                      ScaleSpec, canonical_json, checked_json)

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
        lowest = {"max_iterations": 1, "logit_clamp": 5}   # the others must be positive
        for f in dataclasses.fields(self):
            name, value = f.name, getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            # an integer field takes a Python int, as its JSON key does
            if type(f.default) is int and not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if name in lowest and not value >= lowest[name]:
                raise ValueError(f"{name} must be >= {lowest[name]}")
            if name not in lowest and not value > 0:
                raise ValueError(f"{name} must be positive")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EstimationConfig":
        return cls(**checked_json(d, ESTIMATION_JSON, "estimation"))


ESTIMATION_JSON = Fields.of(EstimationConfig, lambda f: type(f.default), "estimation setting")


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
    has an empty tuple there.  ``log_likelihood_final`` sums every scored
    cell, extreme ones included, at the final measures; with score groups
    it reads each group cell's probabilities at every member's score, in
    the persons' order, which gives the bits of the sum over the persons'
    own cells.  The standard errors come from the groups' cells too.
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

    def __post_init__(self):
        # one measure, one SE and one flag per element, one SE per threshold
        n = {"persons": len(self.ids.persons), "raters": len(self.ids.raters),
             "items": len(self.ids.items), "thresholds": len(self.params.thresholds)}
        sized = []
        for unit, name in zip(n, ("ability", "severity", "difficulty", "thresholds")):
            sized += [(f"params.{name}", getattr(self.params, name), unit),
                      (f"se.{name}", getattr(self, "se_" + name), unit)]
        sized += [(f"extreme_flags.{unit}", getattr(self, "extreme_" + unit), unit)
                  for unit in ("persons", "raters", "items")]
        for key, values, unit in sized:
            if len(values) != n[unit]:
                raise ValueError(f"{key} has {len(values)} {unit}, not {n[unit]}")

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
        """The estimates of a JSON object as :meth:`to_json_dict` writes it."""
        d = checked_json(d, _ESTIMATES_JSON, "the estimates")
        return cls(
            params=ModelParams.from_dict(d["params"]),
            **{"se_" + n: np.asarray(se, float) for n, se in d["se"].items()},
            **{"extreme_" + k: tuple(flags) for k, flags in d["extreme_flags"].items()},
            iterations_used=d["iterations_used"],
            converged=d["converged"],
            log_likelihood_final=float(d["log_likelihood_final"]),
            sweep_log_likelihoods=(),
            max_score_residual=float(d["max_score_residual"]),
            config=EstimationConfig.from_dict(d["config"]),
            ids=FacetIds(**d["facets"]),
            scale=ScaleSpec.from_dict(d["scale"]),
        )

    @classmethod
    def read_json(cls, path) -> "FacetEstimates":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json_dict(json.load(f))


_ESTIMATES_JSON = Fields(
    {"scale": SCALE_JSON, "facets": FACET_IDS_JSON, "params": PARAMS_JSON, "se": PARAMS_JSON,
     "extreme_flags": Fields.of(FacetIds, lambda f: [str, ...]), "iterations_used": int,
     "converged": bool, "log_likelihood_final": float, "max_score_residual": float,
     "config": ESTIMATION_JSON},
    noun="estimates key")


def _mark_extremes(cells, K):
    """Iteratively flag all-min/all-max elements; returns flags and active mask.

    Each pass tallies one facet over the active cells and drops every
    extreme element of it at once: a cell belongs to one element of a
    facet, so removing one element's cells leaves the others' tallies as
    they were.  An element with active cells has not been flagged yet.

    On score groups (:func:`_score_groups`) the flags of a group are each
    member's, and no group needs splitting as cells drop: a dropped cell
    scored its rater's or item's extreme value for every member, so the
    members' remaining totals stay equal.
    """
    flags = {which: np.array([EXTREME_NONE] * cells.size[which], dtype=object)
             for which in _FACETS}
    active = np.ones(cells.n, dtype=bool)
    while True:
        changed = False
        for which in _FACETS:
            counts = cells.sums(which, None, active)
            raw = cells.totals(which, active)
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
    cells of the fit: a score group's are each member's."""

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
    counts = np.maximum(-np.diff(np.concatenate([[cells.n_scored], totals[3], [0]])), 0.5)
    thresholds = np.log(counts[:-1] / counts[1:])

    severity[free[1]] -= severity[free[1]].mean()
    difficulty[free[2]] -= difficulty[free[2]].mean()
    thresholds -= thresholds.mean()
    return ability, severity, difficulty, thresholds


def estimate(tensor: RatingsTensor, config: EstimationConfig = None) -> FacetEstimates:
    """Fit the rating-scale model to a ratings tensor by JMLE.

    Raises :class:`EstimationError` naming two elements that the cells do not
    link (:meth:`CellIndex.unlinked`, checked on all cells and again on the
    non-extreme ones once extreme strings are removed), for a fractional
    score or for fewer than two observed categories, and
    :class:`ValueError` for an ``extreme_adjust``
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
    if not tensor.integer_scores:
        fractional = np.flatnonzero(cells.x != np.round(cells.x))
        if fractional.size:
            c = fractional[0]
            cell = (tensor.ids.persons[cells.pidx[c]], tensor.ids.items[cells.iidx[c]],
                    tensor.ids.raters[cells.ridx[c]], float(cells.score[c]))
            raise EstimationError("fractional score at (person, item, rater, score) "
                                  f"{cell!r}: the model needs whole score categories")
    # members of a group share their cells, so the groups link as the persons
    # do; where they do not, the persons' own cells name the pair
    groups, reps, group_of = _score_groups(cells)
    if groups.unlinked():
        _require_linked(cells, tensor.ids)
    if cells.x.min() == cells.x.max():
        raise EstimationError("need at least 2 observed score categories")

    flags, active = _mark_extremes(groups, K)
    if not active.any():
        raise EstimationError("every response string is extreme; nothing to estimate")
    free = [flags[which] == EXTREME_NONE for which in _FACETS] + [np.ones(K, dtype=bool)]
    fit_cells = groups if active.all() else groups.subset(active)
    if not active.all() and fit_cells.unlinked(dict(zip(_FACETS, free))):
        # dropping the extreme strings can split a linked design, and a group
        # left without cells splits from its own members
        _require_linked(cells.subset(active if groups.rows is None else active[groups.rows]),
                        tensor.ids, dict(zip(_FACETS, [free[0][group_of], *free[1:]])),
                        " once extreme strings are removed")

    targets = _totals(fit_cells, K)
    params = list(_initial_values(fit_cells, K, free, targets))
    iterations, converged, sweep_lls, max_change, max_resid = _newton(
        fit_cells, targets, free, True, params, config, config.max_iterations,
        config.convergence_tol, config.residual_tol)
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
        _solve_extremes(groups.subset(~active), K, free, params, config)

    # standard errors from observed Fisher information at the final estimates,
    # and the log-likelihood, on the groups: each person's information one
    # member's and each cell's probabilities read at every member's score,
    # in the persons' order
    probs, _, w = cell_moments(groups.locations(*params[:3]), params[3])
    information = [np.bincount(groups.pidx, w, reps.size)[group_of]]
    information += [groups.sums(which, w) for which in ("rater", "item")]
    information.append(np.diag(_threshold_information(probs, groups.mult)[1]))
    se = [1.0 / np.sqrt(np.maximum(info, 1e-12)) for info in information]
    return FacetEstimates(
        params=ModelParams(params[0][group_of], *params[1:]),
        se_ability=se[0],
        se_severity=se[1],
        se_difficulty=se[2],
        se_thresholds=se[3],
        extreme_persons=tuple(flags["person"][group_of]),
        extreme_raters=tuple(flags["rater"]),
        extreme_items=tuple(flags["item"]),
        iterations_used=iterations,
        converged=converged,
        log_likelihood_final=observed_log_likelihood(
            probs, cells.observed() if groups.rows is None
            else (groups.rows, cells.x.astype(int), None)),
        sweep_log_likelihoods=tuple(sweep_lls),
        max_score_residual=float(max_resid),
        config=config,
        ids=tensor.ids,
        scale=tensor.scale,
    )


def _require_linked(cells, ids, keep=None, when=""):
    """Raise :class:`EstimationError` naming a pair :meth:`CellIndex.unlinked`
    finds."""
    unlinked = cells.unlinked(keep)
    if unlinked:
        facet_a, a, facet_b, b, via = unlinked
        a, b = (getattr(ids, f + "s")[code] for f, code in ((facet_a, a), (facet_b, b)))
        pair = (f"{facet_a}s {a!r} and {b!r}" if facet_a == facet_b
                else f"{facet_a} {a!r} and {facet_b} {b!r}")
        raise EstimationError(f"disconnected design{when}: {pair} share no {via}s")


def _totals(cells, K):
    """Each person's, rater's and item's raw total over ``cells``, and the
    count of scores at or above each category 1..K, over every person the
    cells stand for."""
    if cells.counts is None:
        per_category = np.bincount(cells.x.astype(int), None, K + 1)
    else:
        per_category = np.zeros(K + 1, dtype=int)
        per_category[:cells.counts.shape[1]] = cells.counts.sum(axis=0)
    return tuple(cells.totals(which) for which in _FACETS) + (_at_or_above(per_category),)


def _at_or_above(per_category):
    """The counts of scores at or above each category 1..K, from each
    category's count."""
    return np.cumsum(per_category[::-1])[::-1][1:]


def _score_groups(cells):
    """Persons of ``cells`` whose likelihood equations are the same, fitted
    once (Wright & Panchapakesan 1969, the score-group form of UCON).

    Persons fall into groups by their cell count, their exact (item, rater)
    cells (in order, as cells are person-major) and their raw total; each
    person without cells is a group of its own.  Returns the cell list of
    each group's first member, the groups numbered by first member in person
    order, weighted by their sizes and counting their members' scores
    (:class:`CellIndex`), then those first members and each person's group.
    Where the groups' cells would not at least halve the cells, the cells
    themselves come back, every person its own group: this is the one place
    that decides whether estimation reads groups.
    """
    P, I, R = cells.shape
    counts = np.bincount(cells.pidx, minlength=P)
    starts = np.cumsum(counts) - counts
    # small unsigned codes, which numpy's stable sort orders by radix
    codes = (cells.iidx * R + cells.ridx).astype(np.min_scalar_type(I * R))
    totals = cells.totals("person")
    first = np.arange(P)  # the first member of each person's group
    movers = np.flatnonzero(counts)
    for n in np.flatnonzero(np.bincount(counts[movers])):
        same = movers[counts[movers] == n]
        row, total = codes[starts[same, None] + np.arange(n)], totals[same]
        # stable, so each run of equal rows keeps its members in person order
        order = np.lexsort((*row.T, total))
        same, row, total = same[order], row[order], total[order]
        new = np.concatenate([[True], (total[1:] != total[:-1])
                              | np.any(row[1:] != row[:-1], axis=1)])
        first[same] = same[new][np.cumsum(new) - 1]
    reps = np.flatnonzero(first == np.arange(P))
    size = counts[reps]
    if reps.size == P or 2 * size.sum() > cells.n:
        return cells, np.arange(P), np.arange(P)
    group_of = np.empty(P, dtype=np.intp)
    group_of[reps] = np.arange(reps.size)
    group_of = group_of[first]
    sel = first[cells.pidx] == cells.pidx
    # each cell's row among the groups' cells: its first member's cell at
    # the same place in its list, the groups' cells in order
    shift = (np.cumsum(size) - size)[group_of] - starts
    row = np.arange(cells.n) + shift[cells.pidx]
    width = int(cells.x.max()) + 1
    scored = np.bincount(row * width + cells.x.astype(int), minlength=size.sum() * width)
    grouped = CellIndex(group_of[cells.pidx[sel]], cells.iidx[sel], cells.ridx[sel],
                        cells.score[sel], (reps.size, I, R), cells.min_score,
                        np.bincount(group_of, minlength=reps.size),
                        scored.reshape(-1, width).astype(np.min_scalar_type(P)),
                        row.astype(np.min_scalar_type(size.sum())))
    return grouped, reps, group_of


def _person_columns(cells, K):
    """Each person's own columns of the system :func:`_joint_step` solves,
    for eliminating the persons of ``cells``.

    A person's row of the information over raters and items has nonzero
    entries only at the raters and items of its cells: its entries, one
    per distinct (person, column), numbered person by person with the
    columns ascending (raters, then ``R`` + item).  Persons with n entries
    form a block, whose shared columns are the raters and items all of them
    have and the K thresholds.  Returns each cell's rater entry and item
    entry (2 * cells, in the smallest unsigned type); each block's persons,
    shared entries (persons x raters and items), shared columns, other
    entries (entries x persons) and pairs of those, each with a later one;
    and, in the smallest unsigned type (uint16 at M = 211), the place in
    an (R + I) x (M + 1) array (M = R + I + K) of each product
    :func:`_eliminate_persons` sums, in its order: an other entry's column
    times M + 1 plus that of a pair's later entry, of a shared column or
    M, the gradient's.
    """
    P, I, R = cells.shape
    RI, M = R + I, R + I + K
    # each cell's (person, rater) and (person, item) key
    base = cells.pidx * RI
    keys = np.concatenate([base + cells.ridx, base + R + cells.iidx])
    # the keys run person-major, which the stable sort's merging of runs
    # makes cheap
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.concatenate([[True], keys[1:] != keys[:-1]])
    entry_of = np.empty(keys.size, dtype=np.min_scalar_type(keys.size))
    entry_of[order] = np.cumsum(new) - 1
    person, column = np.divmod(keys[new], RI)
    counts = np.bincount(person, minlength=P)
    starts = np.cumsum(counts) - counts
    blocks, index = [], []
    for n in np.flatnonzero(np.bincount(counts)[1:]) + 1:
        same = np.flatnonzero(counts == n)
        slots = np.arange(n)[:, None] + starts[same]
        cols = column[slots]
        shared = np.all(cols == cols[:, :1], axis=1)
        common = np.concatenate([cols[shared, 0], RI + np.arange(K)])
        cols = cols[~shared]
        pairs = np.triu_indices(len(cols))
        blocks.append((same, slots[shared].T, common, slots[~shared], pairs))
        index += [cols[pairs[0]] * (M + 1) + cols[pairs[1]],
                  cols[:, :, None] * (M + 1) + common, cols * (M + 1) + M]
    index = np.concatenate([part.ravel() for part in index])
    return entry_of, blocks, index.astype(np.min_scalar_type(RI * (M + 1)))


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
    # the log-likelihood sums one member's scores per group cell, times its
    # multiplicity: target minus that total of each free element, zero on
    # cells without multiplicities in the fit itself
    listed = [cells.sums(which, cells.x) for which in _FACETS]
    listed.append(_at_or_above(np.bincount(index[1], index[2], thresholds.size + 1)))
    offsets = [np.where(f, t - o, 0.0) for t, o, f in zip(targets, listed, free)]
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
        them.  A step of predicted gain within 1e-12 of zero, which no
        evaluation of the objective resolves, is taken whole if the
        objective falls by no more than rounding, 64 eps |objective|; such
        a step need not be small, so a larger fall halves it as any other.
        A value past the clamp may stay where it is but not move further
        out."""
        bases = [vec.copy() for vec in params]
        scale_factor = 1.0
        rounding = 64 * np.finfo(float).eps * abs(objective)
        for _ in range(60):
            for vec, base, step in zip(params, bases, steps):
                vec[:] = np.clip(base + step * scale_factor,
                                 np.minimum(base, -clamp), np.maximum(base, clamp))
            state = recompute()
            if (state[3] >= objective - 1e-12
                    or abs(gain) <= 1e-12 and state[3] >= objective - rounding):
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


def _threshold_information(probs, mult):
    """Sums over cells of P(X >= k), k = 1..K, and the K x K threshold information.

    The information is the sum over cells of Cov([X >= k], [X >= l]), which
    for k <= l equals P(X >= l) P(X < k).  Both sums come from cumulative
    sums of the column totals of ``probs`` and of ``probs.T @ probs``, so no
    per-cell array of K columns is formed and every term is a sum of
    positive products, precise even where one category is nearly certain.
    ``mult``, the cells' multiplicities, weights each row of ``probs`` in
    both sums.  Cells without multiplicities pass None, which selects
    numpy's symmetric ``a.T @ a`` product: its rounding differs from the
    general product's, which multiplicities of ones would get, and the
    bytes of every ungrouped fit rest on it.  Both products take row-major
    copies of the category-major probabilities (:func:`category_probs`):
    BLAS's rounding depends on the layout, and these bytes on that rounding.
    """
    K = probs.shape[1] - 1
    probs = np.ascontiguousarray(probs)
    weighted = probs if mult is None else probs * mult[:, None]
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
    (:func:`_person_columns`), None when only persons move.  Returns the
    four steps, their predicted gain (sum of step times gradient) and
    whether the system was singular, in which case each step is the
    diagonal one.

    The algebra uses the signs in which every sufficient statistic enters
    positively: a cell's score X for its person, -severity and -difficulty,
    and [X >= k] for -threshold k.  The information is the sum over cells of
    their covariance.  The person block is diagonal, so persons are
    eliminated (:func:`_eliminate_persons`): each person's row of the rest
    is nonzero only at its own raters and items and the K thresholds, so
    the Schur complement costs a product per block over the columns its
    persons share and a few products a person, not persons times
    (R + I + K)^2.  On a 10000 x 4 x 400 rater pool (3 raters a person)
    ``estimate`` takes 0.25 s (median of 10 calls, 2-core VM, one BLAS
    thread); at commit a4d92ea, 0.46 s against 0.68 s with one product per
    pattern of columns (medians of 10 interleaved calls, same host type).
    The system is solved densely on the free steps (:func:`_project`),
    then the person steps are back-substituted.  With ``gauge``, the rater,
    item and threshold steps each sum to zero over their free elements,
    which fixes the three directions that leave every location unchanged.
    A parameter at the clamp whose gradient points further out is held;
    only in this sum-zero form does holding it keep it in place, since
    with one element pinned the rest of its group could move against it.

    Every sum over the cells weights each by its multiplicity: a grouped
    person's information and gradient are its group's, so its step is one
    member's, and its group adds its size times one member's term to the
    Schur complement.
    """
    K = probs.shape[1] - 1
    P, R, I = cells.size["person"], cells.size["rater"], cells.size["item"]
    RI, M = R + I, R + I + K
    pidx, ridx, iidx = cells.pidx, cells.ridx, cells.iidx
    if cells.mult is not None:
        w = w * cells.mult
    g_p, g_r, g_i = resid_sums
    free_p = free[0] & ~_held(params[0], g_p, clamp)
    inv_d = np.where(free_p, 1.0 / np.maximum(np.bincount(pidx, w, P), 1e-12), 0.0)
    if columns is None:
        # only persons move: their block is diagonal and no system is left
        d_p = inv_d * g_p
        return (d_p, np.zeros(R), np.zeros(I), np.zeros(K)), d_p @ g_p, False

    sums_ge, info_t = _threshold_information(probs, cells.mult)
    g_o = np.concatenate([g_r, g_i, n_ge - sums_ge])

    schur, rhs, cov_p = _eliminate_persons(cells, e, w, probs, info_t, g_o, inv_d, g_p,
                                           columns)

    grads = (g_p, -g_o[:R], -g_o[R:RI], -g_o[RI:])
    free = [free_p] + [ok & ~_held(v, g, clamp)
                       for v, g, ok in zip(params[1:], grads[1:], free[1:])]
    groups = [start + np.flatnonzero(f) for start, f in zip((0, R, RI), free[1:])]
    try:
        projected, right, keep, last = _project(schur, rhs, groups, gauge)
        basis = np.zeros((M, keep.size))
        basis[keep, np.arange(keep.size)] = 1.0
        basis[last, np.arange(last.size)] = -1.0
        d_o = basis @ np.linalg.solve(projected, right)
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


def _project(schur, rhs, groups, gauge):
    """``basis.T @ schur @ basis`` and ``basis.T @ rhs`` by index, with the
    places ``keep`` and ``last`` of the basis's 1s and -1s: each of
    ``groups``, the free raters, items and thresholds, moves its last
    element against the rest with the gauge.  Last rows are subtracted in
    all groups before last columns, so each entry is the difference of two
    that the products form, with their bits."""
    keep = np.concatenate([f[:f.size - gauge] for f in groups])
    last = np.concatenate([f[-1:].repeat(f[:-1].size * gauge) for f in groups])
    if not gauge:
        return schur[np.ix_(keep, keep)], rhs[keep], keep, last
    rows = schur[keep]
    rows -= schur[last]
    projected = rows[:, keep]
    projected -= rows[:, last]
    return projected, rhs[keep] - rhs[last], keep, last


def _eliminate_persons(cells, e, w, probs, info_t, g_o, inv_d, g_p, columns):
    """The system :func:`_joint_step` solves over raters, items and
    thresholds, the persons eliminated: the information less, for each
    person, its row times its inverse curvature ``inv_d`` times its row,
    and the gradient ``g_o`` less its row times ``inv_d`` times its
    gradient ``g_p``.  Returns that Schur complement and right side and
    each person's covariances with the thresholds.

    A person's row is nonzero only at its own raters and items and at the
    thresholds (``columns``, :func:`_person_columns`).  Each block takes
    one product of its persons' rows over its shared columns (a crossed
    design's over all columns); one ``np.bincount`` sums each other entry
    times its person's later other entries, shared columns and gradient,
    over the person's curvature: o (o + 1) / 2 + o (s + 1) products for o
    other entries and s shared columns, 27 on the benchmark's pool.  A
    function of its own, so that its temporaries are freed before the
    solve.
    """
    P, R, I = cells.size["person"], cells.size["rater"], cells.size["item"]
    K = info_t.shape[0]
    RI, M = R + I, R + I + K
    pidx, ridx, iidx = cells.pidx, cells.ridx, cells.iidx
    mult = 1.0 if cells.mult is None else cells.mult
    info = np.zeros((M, M))
    info[:R, R:RI] = np.bincount(ridx * I + iidx, w, R * I).reshape(R, I)
    cov_p = np.empty((P, K))
    tail = np.zeros(cells.n)
    for k in range(K, 0, -1):
        tail += (k - e) * (probs[:, k] * mult)  # Cov(X, [X >= k]) of each cell
        cov_p[:, k - 1] = np.bincount(pidx, tail, P)
        info[:R, RI + k - 1] = np.bincount(ridx, tail, R)
        info[R:RI, RI + k - 1] = np.bincount(iidx, tail, I)
    info += info.T
    info[RI:, RI:] = info_t
    info[np.arange(RI), np.arange(RI)] = np.concatenate([np.bincount(ridx, w, R),
                                                         np.bincount(iidx, w, I)])

    entry_of, blocks, index = columns
    own = np.bincount(entry_of, np.concatenate([w, w]))
    schur, rhs = info, g_o.copy()

    def eliminate(persons, shared, common, others, pairs):
        # subtract the product over the shared columns; return the others'
        rows = np.concatenate([own[shared], cov_p[persons]], axis=1)
        scaled = (rows * inv_d[persons, None]).T
        schur.reshape(-1)[(common[:, None] * M + common).ravel()] -= (scaled @ rows).ravel()
        rhs[common] -= (scaled @ g_p[persons, None]).ravel()
        if not others.size:
            return []
        y = own[others]
        x = y * inv_d[persons]
        return [part.ravel() for part in (x[pairs[0]] * y[pairs[1]], x[:, :, None] * rows,
                                          x * g_p[persons])]

    products = [part for block in blocks for part in eliminate(*block)]
    if products:
        # each pair of columns is at one of its two places, the diagonal once
        products = np.concatenate(products)
        upper = np.bincount(index, products, RI * (M + 1)).reshape(RI, M + 1)
        rhs[:RI] -= upper[:, M]
        schur[:RI] -= upper[:, :M]
        upper[np.arange(RI), np.arange(RI)] = 0.0
        schur[:, :RI] -= upper[:, :M].T
    return schur, rhs, cov_p


def _solve_extremes(cells, K, free, params, config):
    """Measure the elements not ``free`` in the fit on ``cells``, those
    that touch them, all at once: :func:`_newton` without the gauge, the
    fitted measures and thresholds held, so extremes that share cells meet
    their targets together, to 1e-10 in change and target (or held at the
    clamp).  A target is the raw total clipped to ``[extreme_adjust, K*n -
    extreme_adjust]``, each member's for a score group, so an element
    flagged only once others were dropped keeps its own.  Each starts at the
    log-odds of its target's mean score about the mean location of its
    cells.
    """
    adjust, clamp = config.extreme_adjust, config.logit_clamp
    extreme = [~f for f in free]
    targets = list(_totals(cells, K))
    loc = cells.locations(*params[:3])
    for j, (which, sign) in enumerate(zip(_FACETS, (1.0, -1.0, -1.0))):
        x = extreme[j]
        # a score group's sums over its size are each member's
        m = 1 if j or cells.group_size is None else cells.group_size[x]
        top = K * cells.sums(which)[x] / m
        target = np.clip(targets[j][x] / m, adjust, top - adjust)
        targets[j][x] = target * m
        mean_loc = K * cells.sums(which, loc)[x] / (top * m)
        params[j][x] = np.clip(sign * (np.log(target / (top - target)) - mean_loc),
                               -clamp, clamp)
    _newton(cells, targets, extreme, False, params, config, 200, 1e-10, 1e-10)


def severity_classification(estimates: FacetEstimates, cut: float = 0.3,
                            allow_unconverged: bool = False) -> dict:
    """Label each rater severe / lenient / neutral at the given logit cut.

    Severity above +cut marks a severe rater (scores pulled down), below
    -cut a lenient one.  Refuses unconverged estimates unless overridden.
    """
    if not cut > 0:
        raise ValueError("cut must be positive")
    if not estimates.converged and not allow_unconverged:
        raise ValueError(
            "estimates did not converge; pass allow_unconverged=True to classify anyway"
        )
    return {rater: "severe" if value > cut else "lenient" if value < -cut else "neutral"
            for rater, value in zip(estimates.ids.raters, estimates.params.severity)}
