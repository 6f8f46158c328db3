"""Generative sampler for the rating-scale model, with injectable pathologies.

This is the toolkit's own oracle: parameter-recovery and fit-calibration
tests draw model-conforming data here and check that estimation and fit
statistics get the truth back.

Randomness comes from numpy's PCG64 (``numpy.random.default_rng``).  Every
person is sampled from its own stream keyed by ``(seed, 0, person_index)``
and every rater pathology from ``(seed, 1, rater_index)``, so output is
byte-identical for a given seed no matter how sampling is scheduled.  The
persons' streams start bit for bit where ``default_rng`` starts them, but
their states are built in one numpy pass (:func:`_person_states`) and
loaded into one reused generator, as building a ``default_rng`` costs
about ten times a person's draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, category_probs
from .ratings import SCALE_JSON, FacetIds, Fields, RatingsTensor, ScaleSpec, checked_json
from .rounding import round_half_away

_SEVERITY_STREAM = 2
# numpy's SeedSequence hash constants and PCG64's multiplier, fixed by NEP 19
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
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
        if not np.isfinite(self.ability_mean):
            raise ValueError(f"ability_mean must be finite, got {self.ability_mean}")
        if not (self.ability_sd > 0 and np.isfinite(self.ability_sd)):
            raise ValueError(f"ability_sd must be positive and finite, got {self.ability_sd}")
        self._vector("severity", self.n_raters)
        self._vector("difficulty", self.n_items)
        thr = self._vector("thresholds", self.scale.num_categories - 1)
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

    def _vector(self, name, n) -> np.ndarray:
        """The generating vector ``name`` of length ``n``: zeros for None, and
        for severity, a seeded uniform draw for ``("uniform", a, b)``."""
        value = getattr(self, name)
        if value is None:
            return np.zeros(n)
        if name == "severity" and isinstance(value, tuple) and value[0] == "uniform":
            _, a, b = value
            return np.random.default_rng([self.seed, _SEVERITY_STREAM]).uniform(a, b, n)
        vec = np.asarray(value, dtype=float)
        if vec.shape != (n,):
            raise ValueError(f"expected {n} {name} values, got shape {vec.shape}")
        return vec

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
        """The spec of a JSON object as :meth:`to_json_dict` writes it."""
        d = dict(checked_json(d, SPEC_JSON, "the simulation spec"))
        d.update({"ability_" + k: v for k, v in d.pop("ability", {}).items()})
        d["scale"] = ScaleSpec.from_dict(d["scale"])
        d["pathologies"] = {_rater_index(r): Pathology(**p)
                            for r, p in d.get("pathologies", {}).items()}
        if isinstance(d.get("severity"), dict):
            d["severity"] = ("uniform", *map(float, d["severity"]["uniform"]))
        for key in ("item_ids", "rater_ids"):
            if d.get(key) is not None:
                d[key] = tuple(d[key])
        return cls(**d)


SPEC_JSON = Fields(
    {"n_persons": int, "n_items": int, "n_raters": int, "scale": SCALE_JSON, "seed": int},
    {"ability": Fields({}, {"mean": float, "sd": float}),
     "severity": ([float, ...], None, Fields({"uniform": [float, float]},
                                              labels={"uniform": "severity's uniform bounds"})),
     "difficulty": ([float, ...], None),
     "thresholds": ([float, ...], None),
     "pathologies": {str: Fields.of(Pathology, lambda f: float)},
     "item_ids": ([str, ...], None),
     "rater_ids": ([str, ...], None)},
    noun="simulation spec key")


def _rater_index(key):
    try:
        return int(key)
    except ValueError:
        raise ValueError(f"pathologies key {key!r} is not a rater index") from None


def _default_ids(prefix, n):
    width = len(str(n))
    return tuple(f"{prefix}{i + 1:0{width}d}" for i in range(n))


def _hasher(const, mult):
    """SeedSequence's ``hashmix`` on uint32 arrays, its constant advancing
    from ``const`` by ``mult`` at each call."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)
    return hashmix


def _person_states(seed, n):
    """The ``bit_generator.state`` of ``default_rng([seed, 0, j])`` for each
    ``j < n`` (below 2**32), in order.  The key's words, the seed's one or two
    then 0 and j, fill SeedSequence's pool of four, so the pool is mixed and
    read out for every j at once; PCG64 seeding is done with Python ints."""
    words = [seed & 0xFFFFFFFF] + ([seed >> 32] if seed >> 32 else []) + [0]
    entropy = [np.full(n, w, np.uint32) for w in words] + [np.arange(n, dtype=np.uint32)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(x) for x in entropy + [np.zeros(n, np.uint32)] * (4 - len(entropy))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_L - hashmix(pool[src]) * _MIX_R
                pool[dst] = mixed ^ mixed >> np.uint32(16)
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[k % 4]).astype(np.uint64) for k in range(8)]
    # generate_state(4, np.uint64): the state's high and low words, then the sequence's
    s_hi, s_lo, q_hi, q_lo = (out[k] | out[k + 1] << np.uint64(32) for k in range(0, 8, 2))
    mask = (1 << 128) - 1
    for a, b, c, d in zip(s_hi.tolist(), s_lo.tolist(), q_hi.tolist(), q_lo.tolist()):
        inc = ((c << 64 | d) << 1 | 1) & mask
        state = ((inc + (a << 64 | b)) * _PCG64_MULT + inc) & mask
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def simulate(spec: SimSpec):
    """Draw a fully crossed ratings tensor plus its generating parameters.

    Returns ``(tensor, truth)`` where ``truth`` is the :class:`ModelParams`
    that produced the scores (before any pathology was applied).
    """
    K = spec.scale.num_categories - 1
    severity = spec._vector("severity", spec.n_raters)
    difficulty = spec._vector("difficulty", spec.n_items)
    thresholds = spec._vector("thresholds", K)

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
    states = _person_states(spec.seed, spec.n_persons)
    rng = np.random.Generator(np.random.PCG64())
    for p0 in range(0, spec.n_persons, block):
        n = min(block, spec.n_persons - p0)
        for j in range(p0, p0 + n):
            rng.bit_generator.state = next(states)
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
