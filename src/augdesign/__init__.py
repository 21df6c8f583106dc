"""Augmentation designs for Gamma GLMs with a day effect.

Fits response-surface Gamma GLMs to a 30-run initial experiment, then finds
exact m-run follow-up designs under locally D/D1-optimal, Bayesian-averaged,
and compromise criteria via particle swarm search.
"""

from .criteria import (
    DegenerateOptimumError,
    MissingCacheError,
    Scenario,
    ScenarioEnsemble,
    StackScores,
    d1_ratio_vs_d_optimum,
    eff_D,
    eff_D1,
    phi_bayes,
    phi_compromise,
)
from .estimation import (
    Dataset,
    DivergenceError,
    FittedModel,
    RankDeficientError,
    fit,
    observed_efficiency,
    predict,
    prediction_error,
)
from .glm import (
    GLOBAL_FACTORS,
    InvalidPredictorError,
    Link,
    MissingGammaError,
    ModelSpec,
    ParamPoint,
    Term,
    TermKind,
    regressor_matrix,
)
from .information import Design, fisher_info
from .optimizer import (
    PsoConfig,
    SearchResult,
    build_cache,
    pso_maximize,
    solve_compromise,
    solve_local,
)

__version__ = "0.1.0"
