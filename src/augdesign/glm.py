"""Gamma GLM building blocks: links, regression terms, predictors, weights.

The design space is the box [-2, 2]^4 over the global factor set
(L, K, D, FDV).  A model uses a subset of those factors; runs always
carry all four coordinates so a single joint design can be evaluated
under every model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

GLOBAL_FACTORS: tuple[str, ...] = ("L", "K", "D", "FDV")

COORD_MIN = -2.0
COORD_MAX = 2.0


class InvalidPredictorError(ValueError):
    """Identity/inverse link evaluated at a nonpositive linear predictor."""


class MissingGammaError(ValueError):
    """A day-1 run was evaluated without a day-effect parameter."""


class Link(enum.Enum):
    IDENTITY = "identity"
    INVERSE = "inverse"
    LOG = "log"

    def _check_domain(self, eta) -> None:
        """Identity and inverse links need every predictor to be positive."""
        if np.any(eta <= 0.0):
            bad = np.atleast_1d(eta)
            raise InvalidPredictorError(
                f"{self.value} link requires positive predictors, got "
                f"{float(bad[bad <= 0.0][0])}"
            )

    def mean(self, eta):
        """Inverse link: map linear predictors (scalar or array) to Gamma means."""
        if self is Link.LOG:
            return np.exp(eta)
        self._check_domain(eta)
        return eta if self is Link.IDENTITY else 1.0 / eta

    def eta(self, mu):
        """Link function: map positive Gamma means to linear predictors."""
        if self is Link.LOG:
            return np.log(mu)
        return mu if self is Link.IDENTITY else 1.0 / mu

    def dmu(self, mu):
        """d mu / d eta, written in terms of the mean mu."""
        if self is Link.LOG:
            return mu
        return np.ones_like(mu) if self is Link.IDENTITY else -mu * mu

    def weight(self, eta):
        """Weight multiplying z z^T in the Fisher information, elementwise.

        1/eta^2 for the identity and inverse links, 1 for the log link.
        """
        if self is Link.LOG:
            return np.ones_like(eta)
        self._check_domain(eta)
        return 1.0 / (eta * eta)


class TermKind(enum.Enum):
    INTERCEPT = "intercept"
    MAIN = "main"
    SQUARE = "square"
    INTERACTION = "interaction"


@dataclass(frozen=True)
class Term:
    """One monomial of the quadratic response surface.

    Factor fields are indices into the owning ModelSpec's factor list.
    """

    kind: TermKind
    a: int = -1
    b: int = -1

    @staticmethod
    def intercept() -> "Term":
        return Term(TermKind.INTERCEPT)

    @staticmethod
    def main(factor: int) -> "Term":
        return Term(TermKind.MAIN, factor)

    @staticmethod
    def square(factor: int) -> "Term":
        return Term(TermKind.SQUARE, factor)

    @staticmethod
    def interaction(a: int, b: int) -> "Term":
        if a == b:
            raise ValueError("interaction requires two distinct factors")
        lo, hi = (a, b) if a < b else (b, a)
        return Term(TermKind.INTERACTION, lo, hi)

    def value(self, active_coords: Sequence[float]) -> float:
        if self.kind is TermKind.INTERCEPT:
            return 1.0
        if self.kind is TermKind.MAIN:
            return active_coords[self.a]
        if self.kind is TermKind.SQUARE:
            return active_coords[self.a] ** 2
        return active_coords[self.a] * active_coords[self.b]


@dataclass(frozen=True)
class ModelSpec:
    """A link plus an ordered list of quadratic-surface terms.

    ``factors`` is the model's own (ordered) subset of GLOBAL_FACTORS;
    term indices refer to this list, not to the global one.
    """

    name: str
    link: Link
    factors: tuple[str, ...]
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.terms or self.terms[0].kind is not TermKind.INTERCEPT:
            raise ValueError("first term must be the intercept")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("terms must be pairwise distinct")
        for f in self.factors:
            if f not in GLOBAL_FACTORS:
                raise ValueError(f"unknown factor {f!r}")
        q = len(self.factors)
        for t in self.terms:
            for idx in (t.a, t.b):
                if idx >= q:
                    raise ValueError(f"term {t} references factor index {idx} >= {q}")

    @property
    def p(self) -> int:
        return len(self.terms)

    @property
    def global_indices(self) -> tuple[int, ...]:
        """Positions of this model's factors inside the global coordinate vector."""
        return tuple(GLOBAL_FACTORS.index(f) for f in self.factors)

    def factor_names(self, term: Term) -> tuple[str, ...]:
        """Names of the factors a term multiplies, in term order."""
        return tuple(self.factors[i] for i in (term.a, term.b) if i >= 0)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "link": self.link.value,
            "factors": list(self.factors),
            "terms": [[t.kind.value, *self.factor_names(t)] for t in self.terms],
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        factors = tuple(d["factors"])

        def parse(item: list) -> Term:
            kind = item[0]
            if kind == "intercept":
                return Term.intercept()
            if kind == "main":
                return Term.main(factors.index(item[1]))
            if kind == "square":
                return Term.square(factors.index(item[1]))
            if kind == "interaction":
                return Term.interaction(factors.index(item[1]), factors.index(item[2]))
            raise ValueError(f"unknown term kind {kind!r}")

        return ModelSpec(
            name=d["name"],
            link=Link(d["link"]),
            factors=factors,
            terms=tuple(parse(t) for t in d["terms"]),
        )


@dataclass(frozen=True)
class ParamPoint:
    """Coefficients on the linked scale and optional day effect."""

    beta: tuple[float, ...]
    gamma: Optional[float] = None


@dataclass(frozen=True)
class Run:
    """One experimental condition: all four coordinates plus the day flag."""

    coords: tuple[float, float, float, float]
    day: int = 0

    def __post_init__(self) -> None:
        if len(self.coords) != len(GLOBAL_FACTORS):
            raise ValueError("a run carries one coordinate per global factor")
        for c in self.coords:
            if not (COORD_MIN <= c <= COORD_MAX):
                raise ValueError(f"coordinate {c} outside [{COORD_MIN}, {COORD_MAX}]")
        if self.day not in (0, 1):
            raise ValueError("day flag must be 0 or 1")


def regressor(spec: ModelSpec, run: Run) -> np.ndarray:
    """Evaluate the spec's monomials at a run, ignoring inactive factors."""
    active = [run.coords[i] for i in spec.global_indices]
    return np.array([t.value(active) for t in spec.terms])


def regressor_matrix(spec: ModelSpec, coords: np.ndarray) -> np.ndarray:
    """Vectorized regressor over an (n, 4) array of global coordinates."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    active = coords[:, spec.global_indices]
    cols = []
    for t in spec.terms:
        if t.kind is TermKind.INTERCEPT:
            cols.append(np.ones(len(coords)))
        elif t.kind is TermKind.MAIN:
            cols.append(active[:, t.a])
        elif t.kind is TermKind.SQUARE:
            cols.append(active[:, t.a] ** 2)
        else:
            cols.append(active[:, t.a] * active[:, t.b])
    return np.column_stack(cols)


def linear_predictor(spec: ModelSpec, params: ParamPoint, run: Run) -> float:
    """z(x)^T beta, shifted by gamma on day-1 runs."""
    if len(params.beta) != spec.p:
        raise ValueError("beta length must equal the spec's term count")
    eta = float(regressor(spec, run) @ np.asarray(params.beta))
    if run.day == 1:
        if params.gamma is None:
            raise MissingGammaError(
                f"run {run.coords} has day=1 but no day effect was supplied"
            )
        eta += params.gamma
    return eta
