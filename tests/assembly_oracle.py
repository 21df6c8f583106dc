"""The scoring kernel as it was before it whitened the day-0 information.

It assembles each scenario's (p+1) x (p+1) information of the initial
design plus a stack of new day-1 runs and factors every matrix by LAPACK's
Cholesky under the ``SINGULAR_TOL`` test, one matrix at a time when numpy
rejects a stack: a singular or infeasible matrix scores 0.
``criteria._score`` instead eliminates each design's m x m matrix
I + U U^T of whitened runs, and scores 0 only outside the link domain.  The
tests require the two to agree to 1e-12 relative where this kernel scores a
design, and let the extended-precision oracle decide where it does not.
"""

from typing import Sequence

import numpy as np

from augdesign.glm import GLOBAL_FACTORS, Link, ModelSpec, ParamPoint
from augdesign.information import _nonsingular, factor_log_det


def cholesky(a: np.ndarray):
    """Lower Cholesky factors of a (k, n, n) stack, with the length-k mask of
    the nonsingular ones; when numpy rejects the stack, each matrix is
    factored alone, and one that does not factor gets the identity."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        chol, factored = np.empty_like(a), np.ones(len(a), dtype=bool)
        for i, one in enumerate(a):
            try:
                chol[i] = np.linalg.cholesky(one)
            except np.linalg.LinAlgError:
                chol[i], factored[i] = np.eye(len(one)), False
        return chol, factored & _nonsingular(a, chol)
    return chol, _nonsingular(a, chol)


def regressor_matrix(spec: ModelSpec, coords: np.ndarray) -> np.ndarray:
    """(n, p) regressors over an (n, 4) array of global coordinates."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    extended = np.empty((len(coords), 1 + len(GLOBAL_FACTORS)))
    extended[:, 0] = 1.0
    extended[:, 1:] = coords
    left, right = spec.slots
    return np.multiply(
        extended.take(left, axis=1), extended.take(right, axis=1), order="C"
    )


def augmented_info_entries(
    spec: ModelSpec,
    params: Sequence[ParamPoint],
    coords: np.ndarray,
    days: np.ndarray,
):
    """The (S, ..., p+1, p+1) information of (T, ..., n, 4) coordinates with
    (T, ..., n) day flags under S parameter points, T = 1 or T = S, with the
    (S, ...) link-domain mask or True."""
    if len(coords) not in (1, len(params)):
        raise ValueError(f"{len(coords)} rows of coordinates for "
                         f"{len(params)} parameter points; give 1 or one each")
    Z = regressor_matrix(spec, coords.reshape(-1, len(GLOBAL_FACTORS)))
    Z = Z.reshape(*coords.shape[:-1], spec.p)
    Zs = np.concatenate([Z, days[..., None].astype(float, copy=False)], axis=-1)
    betas = {q.beta for q in params}
    if len(betas) == 1:
        zb = Z @ np.asarray(params[0].beta)
    elif len(Z) == 1:
        zb = {b: Z[0] @ np.asarray(b) for b in betas}
        zb = np.stack([zb[q.beta] for q in params])
    else:
        zb = np.stack([z @ np.asarray(q.beta) for z, q in zip(Z, params)])
    gamma = np.array([q.gamma for q in params]).reshape(-1, *(1,) * (days.ndim - 1))
    return weighted_gram(spec.link, Zs, zb + days * gamma)


def weighted_gram(link: Link, Z: np.ndarray, eta: np.ndarray):
    """Z^T W Z over the last two axes, with the link-domain mask or True."""
    outside = link.outside_domain(eta)
    inside = True
    if outside.any():
        eta = np.where(outside, 1.0, eta)
        inside = ~outside.any(axis=-1)
    w = link.weight(eta)
    return (Z * w[..., None]).swapaxes(-1, -2) @ Z, inside


def initial_blocks(spec: ModelSpec, params: Sequence[ParamPoint], initial_design):
    """The (S, 1, p+1, p+1) day-0 blocks of the parameter points."""
    coords = initial_design.coords[None]
    base, _ = augmented_info_entries(spec, params, coords, np.zeros(coords.shape[:-1]))
    return base[:, None]


def _score_model(spec: ModelSpec, params: Sequence[ParamPoint], base: np.ndarray,
                 stack: np.ndarray) -> np.ndarray:
    """The (2, S, k) D and D1 criteria of a (T, k, m, 4) stack of day-1 runs,
    scored in one call; 0 where singular or outside the link domain."""
    add, feasible = augmented_info_entries(
        spec, params, stack, np.ones(stack.shape[:-1])
    )
    n = base.shape[-1]
    chol, ok = cholesky((base + add).reshape(-1, n, n))
    shape = (len(params), stack.shape[1])
    values = np.empty((2, len(chol)))
    values[0], values[1] = np.exp(factor_log_det(chol) / n), chol[..., -1, -1] ** 2
    return np.where(ok.reshape(shape) & feasible, values.reshape(2, *shape), 0.0)
