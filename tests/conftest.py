import numpy as np
import pytest

from facetkit import (
    EstimationConfig,
    FacetIds,
    RatingsTensor,
    ScaleSpec,
    SimSpec,
    estimate,
    simulate,
)

PAPER_ITEMS = ("SN1", "ER1", "SN2", "ER2")
PAPER_RATERS = ("R1", "R2", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10")

# severity spread bracketing the published holistic run (-0.81 to +1.25)
PAPER_SEVERITY = np.array(
    [-0.20, -0.81, -0.37, 0.02, 0.10, 0.23, -0.30, 0.50, 1.25, -0.10, -0.14, -0.18]
)
PAPER_DIFFICULTY = np.array([0.10, -0.15, 0.45, -0.40])
PAPER_THRESHOLDS = np.array([-2.1, -1.3, -0.45, 0.45, 1.3, 2.1])


def paper_spec(seed=20250810, n_persons=30, severity=None):
    sev = PAPER_SEVERITY if severity is None else np.asarray(severity, float)
    sev = sev - sev.mean()
    return SimSpec(
        n_persons=n_persons,
        n_items=4,
        n_raters=12,
        scale=ScaleSpec(0, 6),
        seed=seed,
        severity=sev,
        difficulty=PAPER_DIFFICULTY - PAPER_DIFFICULTY.mean(),
        thresholds=PAPER_THRESHOLDS,
        item_ids=PAPER_ITEMS,
        rater_ids=PAPER_RATERS,
    )


def small_tensor(scores, scale=(0, 6), persons=None, items=None, raters=None):
    """Tensor from a persons x items x raters nested list (None = missing)."""
    arr = np.array(scores, dtype=float)
    if arr.ndim == 2:  # persons x raters on one item
        arr = arr[:, None, :]
    P, I, R = arr.shape
    ids = FacetIds(
        persons or tuple(f"p{i + 1}" for i in range(P)),
        items or tuple(f"i{i + 1}" for i in range(I)),
        raters or tuple(f"r{i + 1}" for i in range(R)),
    )
    return RatingsTensor(ScaleSpec(*scale), ids, arr)


def pool_csv(n_persons, n_pool, seed, benchmark=False):
    """A rater-pool design: each person scored on 4 items by pool raters
    ``j % n_pool`` and ``(j + 1 + j // n_pool) % n_pool`` (and by one
    benchmark rater ``H1`` when asked), from a rating-scale-like draw."""
    rng = np.random.default_rng(seed)
    ability = rng.normal(size=n_persons)
    severity = np.linspace(-1.0, 1.0, n_pool)
    rows = ["person_id,item_id,rater_id,score"]
    for p in range(n_persons):
        raters = sorted({p % n_pool, (p + 1 + p // n_pool) % n_pool})
        for i in range(4):
            if benchmark:
                rows.append(f"P{p},I{i},H1,{int(np.clip(np.rint(3 + 1.5 * ability[p]), 0, 6))}")
            for r in raters:
                logit = 3 + 1.5 * (ability[p] - severity[r]) + rng.normal()
                rows.append(f"P{p},I{i},M{r:03d},{int(np.clip(np.rint(logit), 0, 6))}")
    return "\n".join(rows) + "\n"


@pytest.fixture(scope="session")
def paper_tensor():
    tensor, _ = simulate(paper_spec())
    return tensor


@pytest.fixture(scope="session")
def paper_truth():
    _, truth = simulate(paper_spec())
    return truth


@pytest.fixture(scope="session")
def paper_estimates(paper_tensor):
    return estimate(paper_tensor, EstimationConfig())


@pytest.fixture(scope="session")
def large_sim():
    """Criterion-4 style design: 500 persons, severity spread +-1.25."""
    spec = SimSpec(
        n_persons=500,
        n_items=4,
        n_raters=12,
        scale=ScaleSpec(0, 6),
        seed=424242,
        severity=np.linspace(-1.25, 1.25, 12),
        difficulty=np.array([0.3, -0.3, 0.6, -0.6]),
        thresholds=PAPER_THRESHOLDS,
    )
    tensor, truth = simulate(spec)
    return tensor, truth


@pytest.fixture(scope="session")
def large_estimates(large_sim):
    tensor, _ = large_sim
    return estimate(tensor, EstimationConfig())
