"""The scalar criteria: one scenario and one design at a time.

The stacked path (``ScenarioEnsemble.score``) is checked against these
functions.  Each assembles one scenario's information with the reference
assembly, ``assembly_oracle.augmented_info_entries``, at one parameter
point, and factors it by ``cholesky`` below under the ``SINGULAR_TOL``
rule: a singular or infeasible design scores 0.

``cholesky`` here is the single-matrix reference: one ``np.linalg.cholesky``
call on one matrix, None when it is singular.  The package's
``information.cholesky`` follows the same contract; the tests compare the
two matrix by matrix.
"""

import numpy as np

import assembly_oracle
from augdesign.information import Design, _nonsingular, factor_log_det

MINUS_INF = float("-inf")


def cholesky(a: np.ndarray):
    """Lower Cholesky factor of one matrix, or None when it does not factor
    or fails the singularity test."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    return chol if _nonsingular(a, chol) else None


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


def _entries(scenario, coords, days):
    """One scenario's information entries, or None outside the link domain."""
    entries, inside = assembly_oracle.augmented_info_entries(
        scenario.spec, (scenario.params,), coords[None], days[None])
    return entries[0] if np.all(inside) else None


def augmented_entries(scenario, new_runs, initial_design):
    """Information of the initial design plus the new day-1 runs, a Design
    or an (m, 4) array; None when a predictor lies outside the link domain."""
    coords = (new_runs.coords if isinstance(new_runs, Design)
              else np.asarray(new_runs, dtype=float))
    base = _entries(scenario, initial_design.coords, np.zeros(len(initial_design)))
    if base is None or coords.size == 0:
        return base
    add = _entries(scenario, coords, np.ones(coords.shape[:-1]))
    return None if add is None else base + add


def phi_D(scenario, new_runs, ensemble) -> float:
    """|I((X1, X2), s)|^(1/(p+1)) with the day-effect column; 0 if infeasible
    or singular (a log-determinant of -inf exponentiates to 0)."""
    entries = augmented_entries(scenario, new_runs, ensemble.initial_design)
    if entries is None:
        return 0.0
    return float(np.exp(log_det(entries) / entries.shape[0]))


def phi_D1(scenario, new_runs, ensemble) -> float:
    """Inverse of the day-effect coordinate of I^{-1}; 0 if singular/infeasible."""
    entries = augmented_entries(scenario, new_runs, ensemble.initial_design)
    if entries is None:
        return 0.0
    return inv_quadratic_form(entries)
