"""Gamma GLM fitting: Fisher scoring for the coefficients, profile maximum
likelihood for the shape parameter, standard errors, BIC, and prediction
summaries.

scipy is imported only inside ``fit`` and ``gamma_log_likelihood``, on their
first call.  ``import augdesign`` and the ``design``, ``efficiency`` and
``predict`` commands need numpy alone, so their cold start does not pay for
scipy's import.
"""

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
        """The fit of ``to_dict``.  A missing key, a ``beta_hat`` that is not
        one finite real number per model term, a ``gamma_hat`` that is neither
        a finite real number nor null, or a ``nu_hat`` that is not a finite
        real number is a ValueError."""
        if not isinstance(d, dict):
            raise ValueError("a fitted model must be a JSON object")
        missing = [key for key in FITTED_MODEL_KEYS if key not in d]
        if missing:
            raise ValueError(f"a fitted model needs the keys {missing}")
        spec = ModelSpec.from_dict(d["model"])
        beta_hat = d["beta_hat"]
        if (not isinstance(beta_hat, list) or len(beta_hat) != spec.p
                or not all(_is_real(b) for b in beta_hat)):
            raise ValueError(
                f'"beta_hat" must hold {spec.p} finite real numbers, one per term '
                f"of model {spec.name!r}"
            )
        if d["gamma_hat"] is not None and not _is_real(d["gamma_hat"]):
            raise ValueError('"gamma_hat" must be a finite real number or null')
        if not _is_real(d["nu_hat"]):
            raise ValueError('"nu_hat" must be a finite real number')
        return FittedModel(
            spec=spec,
            beta_hat=tuple(beta_hat),
            gamma_hat=d["gamma_hat"],
            nu_hat=d["nu_hat"],
            std_errors=tuple(d["std_errors"]),
            covariance=np.array(d["covariance"]),
            log_likelihood=d["log_likelihood"],
            bic=d["bic"],
            n=d["n"],
        )

    @staticmethod
    def from_json(text: str) -> "FittedModel":
        return FittedModel.from_dict(json.loads(text))


def gamma_log_likelihood(y: np.ndarray, mu: np.ndarray, nu: float) -> float:
    from scipy.special import gammaln

    return float(
        np.sum(
            nu * math.log(nu)
            - gammaln(nu)
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


def _information_factor(info: np.ndarray) -> np.ndarray:
    """Cholesky factor of the information, by the criteria's singularity rule."""
    (chol,), (ok,) = cholesky(info[None])
    if not ok:
        raise RankDeficientError("expected information is singular")
    return chol


def fit(
    spec: ModelSpec,
    data: Dataset,
    response: str,
    include_day_effect: bool = False,
) -> FittedModel:
    """Maximum-likelihood fit of a Gamma GLM to one response of a dataset.

    Coefficients come from Fisher scoring, halving a step while it leaves
    the link domain or lowers the likelihood; the shape parameter from a
    one-dimensional profile-likelihood search given the fitted means;
    standard errors from the inverse expected information at the estimates.
    BIC counts the shape parameter.
    """
    from scipy.linalg import cho_solve
    from scipy.optimize import minimize_scalar

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
        step = cho_solve((_information_factor(info), True), score)
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
    result = minimize_scalar(
        lambda t: -gamma_log_likelihood(y, mu, math.exp(t)),
        bounds=(-5.0, 14.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    nu = math.exp(result.x)
    ll = gamma_log_likelihood(y, mu, nu)

    _, info = _score_and_info(spec.link, Z, beta, y)
    covariance = cho_solve((_information_factor(info), True), np.eye(k)) / nu
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
    chol, ok = cholesky(np.stack([fit_a.covariance, fit_b.covariance]))
    if not ok.all():
        raise RankDeficientError("covariance matrix is not positive definite")
    ld_a, ld_b = factor_log_det(chol)
    return float(math.exp((ld_b - ld_a) / fit_a.covariance.shape[0]))
