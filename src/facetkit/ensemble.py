"""Composite raters built by averaging member scores, plus greedy pruning.

The paper-style workflow: average a pool of raters into one meta-rater,
then repeatedly drop the member whose removal most improves agreement
with benchmark raters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .agreement import _kappas, _tally, _weight_matrix
from .ratings import RatingsTensor
from .rounding import ROUNDING_MODES


@dataclass(frozen=True)
class EnsembleSpec:
    """A named meta-rater averaging the given member raters' scores."""

    name: str
    members: tuple
    rounding: str = "half-away-from-zero"

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate ensemble member")
        if self.rounding not in ROUNDING_MODES:
            raise ValueError(
                f"unknown rounding {self.rounding!r}; choose from {sorted(ROUNDING_MODES)}"
            )


def _member_slabs(tensor, members):
    """The members' (persons, items) score slabs, one per member, filled
    from their cells."""
    for m in members:
        if m not in tensor.ids.rater_index:
            raise KeyError(f"unknown rater identifier {m!r}")
    return tensor.cell_index.slabs([tensor.ids.rater_index[m] for m in members])


def _member_mean(slabs, scale, rounding):
    """Per (person, item) mean of present member scores, rounded and clamped."""
    # a (persons, items, members) view laid out member-major, so numpy adds
    # the members plane by plane, in member order
    block = slabs.transpose(1, 2, 0)
    have = ~np.isnan(block)
    n = have.sum(axis=2)
    with np.errstate(invalid="ignore"):
        mean = np.where(n > 0, np.nansum(block, axis=2) / np.maximum(n, 1), np.nan)
    rounded = ROUNDING_MODES[rounding](mean)
    rounded = np.clip(rounded, scale.min_score, scale.max_score)
    rounded = np.where(n > 0, rounded, np.nan)
    return rounded, n


def build_ensemble(tensor: RatingsTensor, spec: EnsembleSpec) -> RatingsTensor:
    """Tensor extended with the ensemble as a new rater.

    Cells where no member scored become declared-missing, with a warning.
    """
    scores, n = _member_mean(_member_slabs(tensor, spec.members), tensor.scale, spec.rounding)
    if (n == 0).any():
        warnings.warn(
            f"ensemble {spec.name!r}: {(n == 0).sum()} cells have no member scores; "
            "left missing"
        )
    return tensor.with_rater(
        spec.name,
        scores,
        declared_missing=(n == 0),
        integer_scores=tensor.integer_scores and spec.rounding != "none",
    )


@dataclass(frozen=True)
class PruneStep:
    """One state of the pruning chain: membership and its benchmark QWKs."""

    removed: object  # None for the initial full ensemble
    members: tuple
    mean_qwk: float
    cell_qwks: tuple  # ((benchmark, item, kappa or nan), ...)


@dataclass(frozen=True)
class PruneTrace:
    steps: tuple = field(default_factory=tuple)

    @property
    def removal_order(self):
        return tuple(s.removed for s in self.steps[1:])

    def to_records(self):
        rows = []
        for i, step in enumerate(self.steps):
            for bench, item, kappa in step.cell_qwks:
                rows.append(
                    {
                        "step": i,
                        "removed": "" if step.removed is None else step.removed,
                        "members": "+".join(str(m) for m in step.members),
                        "benchmark": bench,
                        "item": item,
                        "kappa": kappa,
                        "mean_qwk": step.mean_qwk,
                    }
                )
        return rows


def _ensemble_qwks(tensor, slab, trials, benchmarks, items, rounding):
    """Mean QWK of each trial's member-average rater against every
    benchmark x item, and its (benchmark, item, kappa) cells, from the
    raters' score slabs in ``slab``.

    One :func:`_tally` counts every trial's pairs into a table per (trial,
    benchmark, item).  A degenerate or faulty table reads NaN and pushes
    its trial's mean to -inf, so the trial can never win a pruning step.
    """
    scale, K = tensor.scale, tensor.scale.num_categories
    icol = [tensor.ids.item_index[item] for item in items]
    T, B, L = len(trials), len(benchmarks), len(icol)
    means = [_member_mean(np.stack([slab[m] for m in t]), scale, rounding)[0] for t in trials]
    # (trial, benchmark, person, item), one table per (trial, benchmark, item)
    a, b, table = np.broadcast_arrays(np.stack(means)[:, None][..., icol],
                                      np.stack([slab[r] for r in benchmarks])[..., icol],
                                      np.arange(T * B * L).reshape(T, B, 1, L))
    both = ~np.isnan(a) & ~np.isnan(b)
    counts, n, non_integer, outside = _tally(a[both] - scale.min_score,
                                             b[both] - scale.min_score, table[both],
                                             T * B * L, K)
    kappa, _, _, degenerate = _kappas(counts.astype(float), n,
                                      _weight_matrix(K, scale.span, "quadratic"))
    kappa[(n < 2) | (non_integer > 0) | (outside > 0) | degenerate] = math.nan
    keys = [(bench, item) for bench in benchmarks for item in items]
    return [(-math.inf if np.isnan(row).any() else float(np.mean(row)),
             tuple((*key, k) for key, k in zip(keys, row.tolist())))
            for row in kappa.reshape(T, B * L)]


def removal_chain(members, removals, names) -> tuple:
    """Ensemble specs for an explicit, already-decided removal sequence.

    ``removals`` lists the raters dropped at each step (a step may drop
    several); ``names`` names the full ensemble plus one name per step.
    Use this to replay a known pruning chain instead of :func:`greedy_prune`.
    """
    removals = [list(step) for step in removals]
    if len(names) != len(removals) + 1:
        raise ValueError(
            f"need {len(removals) + 1} names (full ensemble + one per step), "
            f"got {len(names)}"
        )
    current = list(members)
    specs = [EnsembleSpec(names[0], tuple(current))]
    for step, name in zip(removals, names[1:]):
        for rater in step:
            if rater not in current:
                raise ValueError(f"cannot remove {rater!r}: not a current member")
            current = [m for m in current if m != rater]
        specs.append(EnsembleSpec(name, tuple(current)))
    return tuple(specs)


def greedy_prune(tensor: RatingsTensor, members, benchmarks, items=None,
                 steps: int = 1, rounding: str = "half-away-from-zero") -> PruneTrace:
    """Drop, one at a time, the member whose removal most improves QWK.

    At each step every remaining member is tentatively removed, the
    reduced ensembles' mean QWKs over (benchmarks x items) scored in one
    pass, and the best removal kept.  Ties break toward the earlier rater
    in tensor order.  The returned trace starts with the full ensemble.
    """
    members = list(members)
    benchmarks = list(benchmarks)
    if items is None:
        items = list(tensor.ids.items)
    items = list(items)
    if len(set(members)) != len(members):
        raise ValueError("duplicate ensemble member")
    if not benchmarks or not items:
        raise ValueError("need at least one benchmark and one item")
    if set(members) & set(benchmarks):
        raise ValueError("benchmarks must be disjoint from ensemble members")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if len(members) <= steps:
        raise ValueError(f"cannot remove {steps} of {len(members)} members")
    for r in benchmarks + members:
        if r not in tensor.ids.rater_index:
            raise KeyError(f"unknown rater identifier {r!r}")
    for item in items:
        if item not in tensor.ids.item_index:
            raise KeyError(f"unknown item identifier {item!r}")

    # canonical member order: the tensor's rater order
    current = sorted(members, key=tensor.ids.rater_index.__getitem__)
    slab = dict(zip(current + benchmarks, _member_slabs(tensor, current + benchmarks)))

    [(mean, cells)] = _ensemble_qwks(tensor, slab, [current], benchmarks, items, rounding)
    trace = [PruneStep(None, tuple(current), mean, cells)]
    for _ in range(steps):
        trials = [[r for r in current if r != m] for m in current]
        scored = _ensemble_qwks(tensor, slab, trials, benchmarks, items, rounding)
        # max keeps the first of equal means: the earlier rater in tensor order
        best = max(range(len(current)), key=lambda t: scored[t][0])
        removed, current = current[best], trials[best]
        trace.append(PruneStep(removed, tuple(current), *scored[best]))
    return PruneTrace(tuple(trace))
