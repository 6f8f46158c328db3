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

from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, category_probs
from .ratings import FacetIds, RatingsTensor, ScaleSpec
from .rounding import round_half_away

_SEVERITY_STREAM = 2


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
        sev = d.get("severity")
        if isinstance(sev, dict):
            a, b = sev["uniform"]
            sev = ("uniform", float(a), float(b))
        ability = d.get("ability", {})
        pathologies = {
            int(r): Pathology(float(p.get("noise", 0.0)), float(p.get("compression", 0.0)))
            for r, p in d.get("pathologies", {}).items()
        }
        return cls(
            n_persons=int(d["n_persons"]),
            n_items=int(d["n_items"]),
            n_raters=int(d["n_raters"]),
            scale=ScaleSpec.from_dict(d["scale"]),
            seed=int(d["seed"]),
            ability_mean=float(ability.get("mean", 0.0)),
            ability_sd=float(ability.get("sd", 1.0)),
            severity=sev,
            difficulty=d.get("difficulty"),
            thresholds=d.get("thresholds"),
            pathologies=pathologies,
            item_ids=None if d.get("item_ids") is None else tuple(d["item_ids"]),
            rater_ids=None if d.get("rater_ids") is None else tuple(d["rater_ids"]),
        )


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

    ability = np.empty(spec.n_persons)
    u = np.empty((spec.n_persons, spec.n_items, spec.n_raters))
    for j in range(spec.n_persons):
        rng = np.random.default_rng([spec.seed, 0, j])
        ability[j] = rng.normal(spec.ability_mean, spec.ability_sd)
        u[j] = rng.random((spec.n_items, spec.n_raters))
    # a cell's category is the number of its cumulative probabilities
    # 0..K-1 below its uniform draw, so rounding that leaves the last one
    # short of 1 cannot give K+1.  One kernel call per block of about 2**16
    # cells keeps the probabilities of a large design from taking K+1 times
    # the memory of the cube.
    base_loc = -(difficulty[:, None] + severity[None, :])  # (items, raters)
    cats = np.zeros(u.shape)
    block = max(1, 2**16 // base_loc.size)
    for p0 in range(0, spec.n_persons, block):
        cdf = category_probs(ability[p0:p0 + block, None, None] + base_loc, thresholds)
        np.cumsum(cdf, axis=-1, out=cdf)
        for k in range(K):
            cats[p0:p0 + block] += u[p0:p0 + block] > cdf[..., k]

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
                                     cats.ravel() + spec.scale.min_score)
    truth = ModelParams(ability, severity, difficulty, thresholds)
    return tensor, truth
