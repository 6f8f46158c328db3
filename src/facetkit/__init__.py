"""facetkit: rater-effects measurement for person x item x rater score data.

Quantifies inter-rater accuracy (quadratic weighted kappa), intra-rater
consistency (Cronbach alpha), and rater severity/leniency/centrality via
the many-facet rating-scale Rasch model, with ensemble raters, fit
diagnostics, Wright maps, and a reproducible study pipeline.
"""

from .agreement import (
    AgreementTable,
    AlphaResult,
    DegenerateMarginalsError,
    QwkResult,
    cronbach_alpha,
    qwk,
    qwk_matrix,
    qwk_vectors,
)
from .ensemble import (
    EnsembleSpec,
    PruneStep,
    PruneTrace,
    build_ensemble,
    greedy_prune,
    removal_chain,
)
from .estimate import (
    EstimationConfig,
    EstimationError,
    FacetEstimates,
    estimate,
    severity_classification,
)
from .fitstats import (
    FitCuts,
    FitReport,
    STRINGENT_CUTS,
    classify_fit,
    fit_statistics,
    with_flags,
)
from .model import (
    ModelParams,
    category_probs,
    expected_score,
)
from .ratings import (
    FacetIds,
    IngestError,
    RatingsTensor,
    ScaleSpec,
    ingest_csv,
    ingest_csv_text,
)
from .report import (
    Table,
    descriptive_table,
    estimates_summary,
    measure_table,
    render_wright,
)
from .simulate import Pathology, SimSpec, simulate
from .study import StageError, StudyConfig, run_study

__version__ = "0.1.0"

__all__ = [
    "AgreementTable",
    "AlphaResult",
    "DegenerateMarginalsError",
    "EnsembleSpec",
    "EstimationConfig",
    "EstimationError",
    "FacetEstimates",
    "FacetIds",
    "FitCuts",
    "FitReport",
    "IngestError",
    "ModelParams",
    "Pathology",
    "PruneStep",
    "PruneTrace",
    "QwkResult",
    "RatingsTensor",
    "ScaleSpec",
    "SimSpec",
    "StageError",
    "STRINGENT_CUTS",
    "StudyConfig",
    "Table",
    "build_ensemble",
    "category_probs",
    "classify_fit",
    "cronbach_alpha",
    "descriptive_table",
    "estimate",
    "estimates_summary",
    "expected_score",
    "fit_statistics",
    "greedy_prune",
    "ingest_csv",
    "ingest_csv_text",
    "measure_table",
    "qwk",
    "qwk_matrix",
    "qwk_vectors",
    "removal_chain",
    "render_wright",
    "run_study",
    "severity_classification",
    "simulate",
    "with_flags",
]
