"""Gamma GLM fitting: Fisher scoring for the coefficients, maximum
likelihood for the shape parameter, standard errors, BIC, and prediction
summaries."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .glm import Link, MissingGammaError, ModelSpec, is_number, regressor_matrix
from .information import (
    Design, cholesky, factor_log_det, read_csv, require_inside, weighted_gram,
    write_csv,
)

MAX_SCORING_ITERATIONS = 100
MAX_STEP_HALVINGS = 30
MAX_SHAPE_ITERATIONS = 50
SHAPE_RANGE = (math.exp(-5.0), math.exp(14.0))

METRICS = ("mse", "rmse", "mae")

FITTED_MODEL_KEYS = (
    "model", "beta_hat", "gamma_hat", "nu_hat", "std_errors", "covariance",
    "log_likelihood", "bic", "n",
)


class DivergenceError(RuntimeError):
    """Fisher scoring failed to converge within the iteration budget."""


class RankDeficientError(ValueError):
    """The model matrix does not have full column rank."""


@dataclass(frozen=True, eq=False)
class Dataset(Design):
    """A design with one positive response value per run and response name."""

    responses: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        super().__post_init__()
        n = len(self)
        # A new dict, so the caller's mapping is left as it was passed.
        object.__setattr__(self, "responses", {
            name: np.asarray(values, dtype=float)
            for name, values in self.responses.items()
        })
        for name, arr in self.responses.items():
            if arr.shape != (n,):
                raise ValueError(f"response {name!r} must have one value per run")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"response {name!r} has non-finite values")
            if np.any(arr <= 0.0):
                raise ValueError(f"response {name!r} has nonpositive values")

    def __eq__(self, other) -> bool:
        """Same runs and responses (names and values); still unhashable."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            Design.__eq__(self, other)
            and self.responses.keys() == other.responses.keys()
            and all(np.array_equal(values, other.responses[name])
                    for name, values in self.responses.items())
        )

    def concat(self, other: "Dataset") -> "Dataset":
        if set(self.responses) != set(other.responses):
            raise ValueError("datasets carry different response sets")
        merged = {
            name: np.concatenate([self.responses[name], other.responses[name]])
            for name in self.responses
        }
        runs = super().concat(other)
        return Dataset(runs.coords, runs.days, merged)

    def to_csv(self) -> str:
        return write_csv(self.coords, self.days, self.responses)

    @staticmethod
    def from_csv(text: str) -> "Dataset":
        """Every column other than run, the factors and day is a response."""
        coords, days, responses = read_csv(text, responses=True)
        if not responses:
            raise ValueError("dataset CSV has no response columns")
        return Dataset(coords, days, responses)


def _is_real(value) -> bool:
    return is_number(value) and math.isfinite(value)


def _are_reals(values, length: int) -> bool:
    """A JSON list of ``length`` finite real numbers."""
    return (isinstance(values, list) and len(values) == length
            and all(_is_real(v) for v in values))


@dataclass(frozen=True)
class FittedModel:
    """A fitted Gamma GLM plus its uncertainty summaries.

    ``std_errors`` and ``covariance`` cover the coefficient vector in the
    order (beta, gamma) when a day effect is included.
    """

    spec: ModelSpec
    beta_hat: tuple[float, ...]
    gamma_hat: Optional[float]
    nu_hat: float
    std_errors: tuple[float, ...]
    covariance: np.ndarray
    log_likelihood: float
    bic: float
    n: int

    @property
    def k(self) -> int:
        """Number of estimated parameters, including the shape."""
        return self.spec.p + 1 + (0 if self.gamma_hat is None else 1)

    def to_dict(self) -> dict:
        return {
            "model": self.spec.to_dict(),
            "beta_hat": list(self.beta_hat),
            "gamma_hat": self.gamma_hat,
            "nu_hat": self.nu_hat,
            "std_errors": list(self.std_errors),
            "covariance": [[float(v) for v in row] for row in self.covariance],
            "log_likelihood": self.log_likelihood,
            "bic": self.bic,
            "n": self.n,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def from_dict(d: dict) -> "FittedModel":
        """The fit of ``to_dict``.  A ValueError when a key is missing, when
        ``beta_hat`` is not one finite real number per model term, when
        ``gamma_hat`` is neither a finite real number nor null, when
        ``std_errors`` is not k finite real numbers or ``covariance`` not a
        k by k array of them (k coefficients: the terms, plus one with a day
        effect), when ``nu_hat``, ``log_likelihood`` or ``bic`` is not a
        finite real number, or when ``n`` is not a positive integer."""
        if not isinstance(d, dict):
            raise ValueError("a fitted model must be a JSON object")
        missing = [key for key in FITTED_MODEL_KEYS if key not in d]
        if missing:
            raise ValueError(f"a fitted model needs the keys {missing}")
        spec = ModelSpec.from_dict(d["model"])
        beta_hat = d["beta_hat"]
        if not _are_reals(beta_hat, spec.p):
            raise ValueError(
                f'"beta_hat" must hold {spec.p} finite real numbers, one per term '
                f"of model {spec.name!r}"
            )
        if d["gamma_hat"] is not None and not _is_real(d["gamma_hat"]):
            raise ValueError('"gamma_hat" must be a finite real number or null')
        k = spec.p + (0 if d["gamma_hat"] is None else 1)
        if not _are_reals(d["std_errors"], k):
            raise ValueError(f'"std_errors" must hold {k} finite real numbers')
        covariance = d["covariance"]
        if not (isinstance(covariance, list) and len(covariance) == k
                and all(_are_reals(row, k) for row in covariance)):
            raise ValueError(
                f'"covariance" must be a {k} by {k} array of finite real numbers'
            )
        for key in ("nu_hat", "log_likelihood", "bic"):
            if not _is_real(d[key]):
                raise ValueError(f'"{key}" must be a finite real number')
        n = d["n"]
        if not (isinstance(n, int) and not isinstance(n, bool) and n > 0):
            raise ValueError('"n" must be a positive integer')
        return FittedModel(
            spec=spec,
            beta_hat=tuple(beta_hat),
            gamma_hat=d["gamma_hat"],
            nu_hat=d["nu_hat"],
            std_errors=tuple(d["std_errors"]),
            covariance=np.array(covariance, dtype=float),
            log_likelihood=d["log_likelihood"],
            bic=d["bic"],
            n=d["n"],
        )

    @staticmethod
    def from_json(text: str) -> "FittedModel":
        return FittedModel.from_dict(json.loads(text))


def gamma_log_likelihood(y: np.ndarray, mu: np.ndarray, nu: float) -> float:
    return float(
        np.sum(
            nu * math.log(nu)
            - math.lgamma(nu)
            + (nu - 1.0) * np.log(y)
            - nu * np.log(mu)
            - nu * y / mu
        )
    )


def _score_and_info(
    link: Link, Z: np.ndarray, beta: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    eta = Z @ beta
    mu = link.mean(eta)
    u = (y - mu) / (mu * mu) * link.dmu(mu)
    return Z.T @ u, weighted_gram(link, Z, eta)[0]


def _starting_point(link: Link, Z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """OLS on the link-transformed response; intercept-only fallback when the
    OLS start lies outside the link's domain."""
    target = link.eta(y)
    beta = np.linalg.lstsq(Z, target, rcond=None)[0]
    if link.outside_domain(Z @ beta).any():
        beta = np.zeros(Z.shape[1])
        beta[0] = float(np.mean(target))
    return beta


def _solve_information(info: np.ndarray, b: np.ndarray) -> np.ndarray:
    """info^{-1} b by two solves, with the information's Cholesky factor and
    its transpose; the factor must pass the SINGULAR_TOL rule."""
    chol = cholesky(info)
    if chol is None:
        raise RankDeficientError("expected information is singular")
    return np.linalg.solve(chol.T, np.linalg.solve(chol, b))


def _shape_score(nu: float) -> tuple[float, float]:
    """log nu - digamma(nu) and its derivative.  The recurrence
    digamma(x) = digamma(x + 1) - 1/x lifts the argument to x >= 16, where
    the asymptotic series log x - digamma(x) ~ 1/(2x) + sum B_2k / (2k x^2k)
    is summed to x^-10.  No digamma is subtracted from a log, so the value
    keeps its relative precision at large nu, where it is near 1/(2 nu)."""
    x, value, slope = nu, 0.0, 0.0
    while x < 16.0:
        value, slope, x = value + 1.0 / x, slope - 1.0 / (x * x), x + 1.0
    u = 1.0 / (x * x)
    value += math.log(nu / x) + 0.5 / x + u * (
        1 / 12 - u * (1 / 120 - u * (1 / 252 - u * (1 / 240 - u / 132))))
    slope += 1.0 / nu - 1.0 / x - u * (0.5 + (
        1 / 6 - u * (1 / 30 - u * (1 / 42 - u * (1 / 30 - u * 5 / 66)))) / x)
    return value, slope


def _solve_shape(s: float) -> float:
    """The shape nu solving log nu - digamma(nu) = s, the mean of r - 1 - log r
    over r = y / mu (McCullagh & Nelder 1989, 8.3), clamped to SHAPE_RANGE:
    the left side falls in nu.  Newton's method in log nu from Minka's (2002)
    start stops at a step below 1e-9, past which quadratic convergence leaves
    only rounding error, so ulp-level cycling cannot stall it."""
    lo, hi = SHAPE_RANGE
    if s >= _shape_score(lo)[0]:
        return lo
    if s <= _shape_score(hi)[0]:
        return hi
    t = math.log((3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s))
    for _ in range(MAX_SHAPE_ITERATIONS):
        value, slope = _shape_score(math.exp(t))
        step = (value - s) / (math.exp(t) * slope)
        t = min(max(t - step, math.log(lo)), math.log(hi))
        if abs(step) < 1e-9:
            return math.exp(t)
    raise DivergenceError(f"the shape equation did not converge for s = {s}")


def fit(
    spec: ModelSpec,
    data: Dataset,
    response: str,
    include_day_effect: bool = False,
) -> FittedModel:
    """Maximum-likelihood fit of a Gamma GLM to one response of a dataset.

    Coefficients come from Fisher scoring, halving a step while it leaves
    the link domain or lowers the likelihood; the shape parameter from its
    score equation given the fitted means (``_solve_shape``);
    standard errors from the inverse expected information at the estimates.
    BIC counts the shape parameter.
    """
    if response not in data.responses:
        raise KeyError(f"dataset has no response {response!r}")
    y = data.responses[response]
    Z = regressor_matrix(spec, data.coords)
    if include_day_effect:
        Z = np.column_stack([Z, data.days])
    n, k = Z.shape
    if n < k + 1:
        raise RankDeficientError(f"{n} runs cannot identify {k} coefficients")
    if include_day_effect and (data.days == data.days[0]).all():
        raise RankDeficientError("the day effect needs runs on both day 0 and "
                                 f"day 1, but every run has day {data.days[0]}")

    # Scoring maximizes the log-likelihood over beta at a fixed shape nu = 1.
    beta = _starting_point(spec.link, Z, y)
    current = gamma_log_likelihood(y, spec.link.mean(Z @ beta), 1.0)
    for _ in range(MAX_SCORING_ITERATIONS):
        score, info = _score_and_info(spec.link, Z, beta, y)
        step = _solve_information(info, score)
        scale = 1.0
        for _ in range(MAX_STEP_HALVINGS):
            trial = beta + scale * step
            eta = Z @ trial
            if not spec.link.outside_domain(eta).any():
                value = gamma_log_likelihood(y, spec.link.mean(eta), 1.0)
                if value >= current - 1e-12 * (1.0 + abs(current)):
                    break
            scale *= 0.5
        else:
            raise DivergenceError(
                f"step-halving exhausted while fitting response {response!r}"
            )
        moved = scale * float(np.max(np.abs(step)))
        beta, current = trial, value
        if moved < 1e-10 * (1.0 + float(np.max(np.abs(beta)))):
            break
    else:
        raise DivergenceError(
            f"Fisher scoring did not converge for response {response!r}"
        )

    mu = spec.link.mean(Z @ beta)
    r = y / mu
    nu = _solve_shape(float(np.mean(r - 1.0 - np.log(r))))
    ll = gamma_log_likelihood(y, mu, nu)

    _, info = _score_and_info(spec.link, Z, beta, y)
    covariance = _solve_information(info, np.eye(k)) / nu
    std_errors = tuple(float(v) for v in np.sqrt(np.diag(covariance)))
    bic = -2.0 * ll + (k + 1) * math.log(n)

    if include_day_effect:
        beta_hat, gamma_hat = tuple(beta[:-1]), float(beta[-1])
    else:
        beta_hat, gamma_hat = tuple(beta), None
    return FittedModel(
        spec=spec,
        beta_hat=tuple(float(b) for b in beta_hat),
        gamma_hat=gamma_hat,
        nu_hat=float(nu),
        std_errors=std_errors,
        covariance=covariance,
        log_likelihood=ll,
        bic=float(bic),
        n=n,
    )


def predict(model: FittedModel, design: Design) -> np.ndarray:
    """Fitted Gamma means at the runs of a design."""
    if model.gamma_hat is None and np.any(design.days != 0):
        raise MissingGammaError("model has no day effect but a run has day=1")
    Z = regressor_matrix(model.spec, design.coords)
    eta = Z @ np.asarray(model.beta_hat)
    if model.gamma_hat is not None:
        eta = eta + design.days * model.gamma_hat
    require_inside(model.spec, ~model.spec.link.outside_domain(eta), "the design")
    return model.spec.link.mean(eta)


def prediction_error(
    model: FittedModel, data: Dataset, response: str, metric: str = "rmse"
) -> float:
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    residuals = predict(model, data) - data.responses[response]
    if metric == "mae":
        return float(np.mean(np.abs(residuals)))
    mse = float(np.mean(residuals * residuals))
    return mse if metric == "mse" else math.sqrt(mse)


def observed_efficiency(fit_a: FittedModel, fit_b: FittedModel) -> float:
    """Empirical D-efficiency of fit_a relative to fit_b.

    (det Cov_b / det Cov_a)^(1/dim) from the estimated coefficient
    covariance matrices; > 1 means fit_a is the more precise fit.
    """
    if fit_a.spec != fit_b.spec:
        raise ValueError("fits must share the same model")
    if (fit_a.gamma_hat is None) != (fit_b.gamma_hat is None):
        raise ValueError("fits must share the day-effect structure")
    chol = [cholesky(fit.covariance) for fit in (fit_a, fit_b)]
    if any(c is None for c in chol):
        raise RankDeficientError("covariance matrix is not positive definite")
    ld_a, ld_b = map(factor_log_det, chol)
    return float(math.exp((ld_b - ld_a) / fit_a.covariance.shape[0]))
