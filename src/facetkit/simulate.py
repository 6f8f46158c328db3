"""Generative sampler for the rating-scale model, with injectable pathologies.

This is the toolkit's own oracle: parameter-recovery and fit-calibration
tests draw model-conforming data here and check that estimation and fit
statistics get the truth back.

Randomness comes from numpy's PCG64 (``numpy.random.default_rng``).  Every
person is sampled from its own stream keyed by ``(seed, 0, person_index)``
and every rater pathology from ``(seed, 1, rater_index)``, so output is
byte-identical for a given seed no matter how sampling is scheduled.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, category_probs
from .ratings import FacetIds, RatingsTensor, ScaleSpec, _json_list, _json_number, _json_object
from .rounding import round_half_away

_SEVERITY_STREAM = 2
# cells drawn and priced together: a block's uniforms and probabilities,
# 8 * (K + 2) bytes a cell, stay in a core's cache
_BLOCK_CELLS = 2**13


@dataclass(frozen=True)
class Pathology:
    """Post-hoc score corruption for one rater.

    ``noise``: probability a score is replaced by a uniformly random
    category.  ``compression``: fraction of each score's distance to the
    middle category removed (rounded back to an integer category).
    Noise applies before compression when both are set.
    """

    noise: float = 0.0
    compression: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError(f"noise probability {self.noise} outside [0, 1]")
        if not 0.0 <= self.compression <= 1.0:
            raise ValueError(f"compression factor {self.compression} outside [0, 1]")


@dataclass(frozen=True)
class SimSpec:
    """Design, generating parameters, and seed for one simulated dataset."""

    n_persons: int
    n_items: int
    n_raters: int
    scale: ScaleSpec
    seed: int
    ability_mean: float = 0.0
    ability_sd: float = 1.0
    severity: object = None    # vector, ("uniform", a, b), or None for zeros
    difficulty: object = None  # vector or None for zeros
    thresholds: object = None  # centered vector or None for zeros
    pathologies: dict = field(default_factory=dict)  # rater index -> Pathology
    item_ids: tuple = None
    rater_ids: tuple = None

    def __post_init__(self):
        for name in ("n_persons", "n_items", "n_raters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a non-negative 64-bit integer")
        if self.ability_sd <= 0:
            raise ValueError("ability_sd must be positive")
        thr = self._threshold_vector()
        if abs(thr.sum()) > 1e-9:
            raise ValueError(f"thresholds must be centered, sum is {thr.sum():g}")
        for ridx, pathology in self.pathologies.items():
            if not 0 <= int(ridx) < self.n_raters:
                raise ValueError(f"pathology rater index {ridx} out of range")
            if not isinstance(pathology, Pathology):
                raise TypeError("pathologies values must be Pathology instances")
        if self.item_ids is not None and len(self.item_ids) != self.n_items:
            raise ValueError("item_ids length must equal n_items")
        if self.rater_ids is not None and len(self.rater_ids) != self.n_raters:
            raise ValueError("rater_ids length must equal n_raters")

    def _threshold_vector(self) -> np.ndarray:
        K = self.scale.num_categories - 1
        if self.thresholds is None:
            return np.zeros(K)
        thr = np.asarray(self.thresholds, dtype=float)
        if thr.shape != (K,):
            raise ValueError(f"expected {K} thresholds, got shape {thr.shape}")
        return thr

    def _severity_vector(self) -> np.ndarray:
        if self.severity is None:
            return np.zeros(self.n_raters)
        if isinstance(self.severity, tuple) and self.severity[0] == "uniform":
            _, a, b = self.severity
            rng = np.random.default_rng([self.seed, _SEVERITY_STREAM])
            return rng.uniform(a, b, self.n_raters)
        sev = np.asarray(self.severity, dtype=float)
        if sev.shape != (self.n_raters,):
            raise ValueError(f"expected {self.n_raters} severities, got {sev.shape}")
        return sev

    def _difficulty_vector(self) -> np.ndarray:
        if self.difficulty is None:
            return np.zeros(self.n_items)
        dif = np.asarray(self.difficulty, dtype=float)
        if dif.shape != (self.n_items,):
            raise ValueError(f"expected {self.n_items} difficulties, got {dif.shape}")
        return dif

    def to_json_dict(self) -> dict:
        sev = self.severity
        if isinstance(sev, tuple):
            sev = {"uniform": [sev[1], sev[2]]}
        elif sev is not None:
            sev = list(np.asarray(sev, float))
        return {
            "n_persons": self.n_persons,
            "n_items": self.n_items,
            "n_raters": self.n_raters,
            "scale": self.scale.to_dict(),
            "seed": self.seed,
            "ability": {"mean": self.ability_mean, "sd": self.ability_sd},
            "severity": sev,
            "difficulty": None if self.difficulty is None else list(self.difficulty),
            "thresholds": None if self.thresholds is None else list(self.thresholds),
            "pathologies": {
                str(r): {"noise": p.noise, "compression": p.compression}
                for r, p in sorted(self.pathologies.items())
            },
            "item_ids": None if self.item_ids is None else list(self.item_ids),
            "rater_ids": None if self.rater_ids is None else list(self.rater_ids),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SimSpec":
        """The spec of a JSON object as :meth:`to_json_dict` writes it; a
        :class:`ValueError` naming the key of any value of the wrong type."""
        d = _json_object(d, "the simulation spec",
                         ("n_persons", "n_items", "n_raters", "scale", "seed"))
        scale = _json_object(d["scale"], "scale", ("min_score", "max_score"))
        ability = _json_object(d.get("ability", {}), "ability")
        sev = d.get("severity")
        if isinstance(sev, dict):
            bounds = _json_object(sev, "severity", ("uniform",))["uniform"]
            sev = ("uniform", *map(float, _json_vector(bounds, "severity's uniform bounds", 2)))
        elif sev is not None:
            sev = _json_vector(sev, "severity")
        pathologies = {}
        for r, p in _json_object(d.get("pathologies", {}), "pathologies").items():
            key = f"pathologies[{r!r}]"
            p = _json_object(p, key)
            pathologies[int(r)] = Pathology(*(float(_json_number(p.get(k, 0.0), f"{key}.{k}"))
                                              for k in ("noise", "compression")))

        def optional(key, read):
            return None if d.get(key) is None else read(d[key], key)

        def integer(value, key):
            return _json_number(value, key, numbers.Integral)

        return cls(
            n_persons=integer(d["n_persons"], "n_persons"),
            n_items=integer(d["n_items"], "n_items"),
            n_raters=integer(d["n_raters"], "n_raters"),
            scale=ScaleSpec(integer(scale["min_score"], "scale.min_score"),
                            integer(scale["max_score"], "scale.max_score")),
            seed=integer(d["seed"], "seed"),
            ability_mean=float(_json_number(ability.get("mean", 0.0), "ability.mean")),
            ability_sd=float(_json_number(ability.get("sd", 1.0), "ability.sd")),
            severity=sev,
            difficulty=optional("difficulty", _json_vector),
            thresholds=optional("thresholds", _json_vector),
            pathologies=pathologies,
            item_ids=optional("item_ids", _json_list),
            rater_ids=optional("rater_ids", _json_list),
        )


def _json_vector(value, key, length=None):
    """``value`` as a list of numbers; a :class:`ValueError` naming ``key``
    unless it is a JSON list of numbers (of ``length`` items, if given)."""
    return [_json_number(v, key) for v in _json_list(value, key, length)]


def _default_ids(prefix, n):
    width = len(str(n))
    return tuple(f"{prefix}{i + 1:0{width}d}" for i in range(n))


def simulate(spec: SimSpec):
    """Draw a fully crossed ratings tensor plus its generating parameters.

    Returns ``(tensor, truth)`` where ``truth`` is the :class:`ModelParams`
    that produced the scores (before any pathology was applied).
    """
    severity = spec._severity_vector()
    difficulty = spec._difficulty_vector()
    thresholds = spec._threshold_vector()
    K = spec.scale.num_categories - 1

    # persons are drawn and priced a block of about _BLOCK_CELLS cells at a
    # time, so that a block's uniforms and probabilities stay in cache.  A
    # cell's category is the number of its cumulative probabilities 0..K-1
    # below its uniform draw, so rounding that leaves the last one short of 1
    # cannot give K+1.  The categories' contiguous rows are summed left to
    # right, the order of np.cumsum, and the counts take the smallest
    # unsigned dtype that holds K.
    base_loc = -(difficulty[:, None] + severity[None, :])  # (items, raters)
    block = max(1, _BLOCK_CELLS // base_loc.size)
    ability = np.empty(spec.n_persons)
    u = np.empty((block, *base_loc.shape))
    cats = np.zeros((spec.n_persons, *base_loc.shape), np.min_scalar_type(K))
    for p0 in range(0, spec.n_persons, block):
        n = min(block, spec.n_persons - p0)
        for j in range(p0, p0 + n):
            rng = np.random.default_rng([spec.seed, 0, j])
            ability[j] = rng.normal(spec.ability_mean, spec.ability_sd)
            rng.random(out=u[j - p0])
        probs = category_probs(ability[p0:p0 + n, None, None] + base_loc, thresholds)
        cdf = np.zeros(probs.shape[:-1])
        for k in range(K):
            cdf += probs[..., k]
            cats[p0:p0 + n] += u[:n] > cdf

    for ridx in sorted(int(r) for r in spec.pathologies):
        pathology = spec.pathologies[ridx]
        rng = np.random.default_rng([spec.seed, 1, ridx])
        if pathology.noise > 0.0:
            hit = rng.random((spec.n_persons, spec.n_items)) < pathology.noise
            replacement = rng.integers(0, K + 1, (spec.n_persons, spec.n_items))
            cats[:, :, ridx] = np.where(hit, replacement, cats[:, :, ridx])
        if pathology.compression > 0.0:
            mid = K / 2.0
            pulled = mid + (cats[:, :, ridx] - mid) * (1.0 - pathology.compression)
            cats[:, :, ridx] = np.clip(round_half_away(pulled), 0, K)

    ids = FacetIds(
        _default_ids("P", spec.n_persons),
        spec.item_ids if spec.item_ids is not None else _default_ids("I", spec.n_items),
        spec.rater_ids if spec.rater_ids is not None else _default_ids("R", spec.n_raters),
    )
    tensor = RatingsTensor._of_codes(spec.scale, ids, np.arange(cats.size),
                                     np.add(cats.ravel(), spec.scale.min_score, dtype=float))
    truth = ModelParams(ability, severity, difficulty, thresholds)
    return tensor, truth
