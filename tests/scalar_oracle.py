"""The scalar criteria: one scenario and one design at a time.

The stacked path (``ScenarioEnsemble.score``) is checked against these
functions.  Each assembles one scenario's information by the one-scenario
branch of ``augmented_info_entries`` and factors it by the single-matrix
branch of ``cholesky``, under the same ``SINGULAR_TOL`` rule, so a singular
or infeasible design gives the same zeros.
"""

import numpy as np

from augdesign.criteria import _new_coords
from augdesign.glm import InvalidPredictorError
from augdesign.information import (
    augmented_info_entries,
    cholesky,
    factor_log_det,
)

MINUS_INF = float("-inf")


def log_det(a: np.ndarray) -> float:
    """Log determinant via Cholesky; -inf when numerically singular."""
    chol = cholesky(a)
    if chol is None:
        return MINUS_INF
    return float(factor_log_det(chol))


def inv_quadratic_form(a: np.ndarray) -> float:
    """(e^T I^{-1} e)^{-1} for the last coordinate; 0.0 when singular.

    The last pivot is squared as a float, which rounds like C ``pow``; the
    stacked path squares an array, which rounds the product.  The two can
    differ by one ulp."""
    chol = cholesky(a)
    if chol is None:
        return 0.0
    return float(chol[-1, -1]) ** 2


def augmented_entries(scenario, new_coords, initial_design):
    """Information of the initial design plus the (m, 4) new day-1 runs."""
    s = scenario
    base = augmented_info_entries(
        s.spec, s.params, initial_design.coords, np.zeros(len(initial_design))
    )
    if new_coords.size == 0:
        return base
    days = np.ones(new_coords.shape[:-1])
    return base + augmented_info_entries(s.spec, s.params, new_coords, days)


def phi_D(scenario, new_runs, ensemble) -> float:
    """|I((X1, X2), s)|^(1/(p+1)) with the day-effect column; 0 if infeasible
    or singular (a log-determinant of -inf exponentiates to 0)."""
    coords = _new_coords(new_runs)
    try:
        entries = augmented_entries(scenario, coords, ensemble.initial_design)
    except InvalidPredictorError:
        return 0.0
    return float(np.exp(log_det(entries) / entries.shape[0]))


def phi_D1(scenario, new_runs, ensemble) -> float:
    """Inverse of the day-effect coordinate of I^{-1}; 0 if singular/infeasible."""
    coords = _new_coords(new_runs)
    try:
        entries = augmented_entries(scenario, coords, ensemble.initial_design)
    except InvalidPredictorError:
        return 0.0
    return inv_quadratic_form(entries)
