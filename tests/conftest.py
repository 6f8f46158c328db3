import numpy as np
import pytest
from hypothesis import settings

from facetkit import (
    EstimationConfig,
    FacetIds,
    RatingsTensor,
    ScaleSpec,
    SimSpec,
    category_probs,
    estimate,
    simulate,
)
from facetkit.model import observed_log_likelihood

# A failing example prints the @reproduce_failure blob that replays it, and
# stays in the example database under .hypothesis/.  The profile's parent is
# the default one, not the "ci" profile Hypothesis picks on CI machines: that
# one derandomizes, so --hypothesis-seed changes nothing, and keeps no database.
settings.register_profile("replayable", settings.get_profile("default"), print_blob=True)
settings.load_profile("replayable")

PAPER_ITEMS = ("SN1", "ER1", "SN2", "ER2")
PAPER_RATERS = ("R1", "R2", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10")

# severity spread bracketing the published holistic run (-0.81 to +1.25)
PAPER_SEVERITY = np.array(
    [-0.20, -0.81, -0.37, 0.02, 0.10, 0.23, -0.30, 0.50, 1.25, -0.10, -0.14, -0.18]
)
PAPER_DIFFICULTY = np.array([0.10, -0.15, 0.45, -0.40])
PAPER_THRESHOLDS = np.array([-2.1, -1.3, -0.45, 0.45, 1.3, 2.1])


#: The paper's shape as a simulation spec, in the JSON form
#: ``SimSpec.from_json_dict`` reads.
PAPER_SPEC_JSON = {
    "n_persons": 30, "n_items": 4, "n_raters": 12, "scale": {"min_score": 0, "max_score": 6},
    "seed": 20250810, "severity": PAPER_SEVERITY.tolist(),
    "difficulty": PAPER_DIFFICULTY.tolist(), "thresholds": PAPER_THRESHOLDS.tolist(),
    "item_ids": list(PAPER_ITEMS), "rater_ids": list(PAPER_RATERS),
}


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
    return cube_tensor(ScaleSpec(*scale), ids, arr)


def cube_tensor(scale, ids, values, declared=None, integer_scores=True):
    """The tensor of a persons x items x raters ``values`` cube: its scored
    cells (NaN = not scored), and the cells the optional ``declared`` mask
    lists blank."""
    values = np.asarray(values, dtype=float)
    assert values.shape == (len(ids.persons), len(ids.items), len(ids.raters))
    listed = ~np.isnan(values) if declared is None else ~np.isnan(values) | declared
    codes = np.flatnonzero(listed)
    return RatingsTensor(scale, ids, codes, values.ravel()[codes], integer_scores)


def score_of(tensor, person, item, rater):
    """The score ``tensor`` lists for one cell, NaN if the cell is declared
    missing or not listed."""
    for row in tensor.long_rows():
        if row[:3] == (person, item, rater):
            return np.nan if row[3] is None else row[3]
    return np.nan


def declared_missing(tensor):
    """The persons x items x raters mask of the cells ``tensor`` lists
    blank, read from its store."""
    mask = np.zeros(tensor.shape, dtype=bool)
    mask.flat[tensor.listed_codes[np.isnan(tensor.listed_scores)]] = True
    return mask


def log_likelihood(tensor, params):
    """Sum of log category probabilities over all scored cells of ``tensor``
    at ``params``: the reference for ``FacetEstimates.log_likelihood_final``."""
    params.validate_for(tensor)
    cells = tensor.cell_index
    loc = cells.locations(params.ability, params.severity, params.difficulty)
    return observed_log_likelihood(category_probs(loc, params.thresholds), cells.observed())


def with_items(tensor, items):
    """The cells of ``tensor`` on ``items``, those kept in the tensor's order."""
    ids = FacetIds(tensor.ids.persons, tuple(i for i in tensor.ids.items if i in items),
                   tensor.ids.raters)
    rows = [row for row in tensor.long_rows() if row[1] in items]
    return RatingsTensor.from_cells(tensor.scale, ids, rows, tensor.integer_scores)


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
