"""Gamma GLM building blocks: links, regression terms, predictors, weights.

The design space is the box [-2, 2]^4 over the global factor set
(L, K, D, FDV).  A model uses a subset of those factors; runs always
carry all four coordinates so a single joint design can be evaluated
under every model.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

GLOBAL_FACTORS: tuple[str, ...] = ("L", "K", "D", "FDV")

COORD_MIN = -2.0
COORD_MAX = 2.0


def is_number(value) -> bool:
    """A real number that is not a bool: JSON ``true`` is never read as 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class InvalidPredictorError(ValueError):
    """A predictor outside the link's domain where an API call needs all
    inside; raised by ``require_inside`` alone, naming the model."""


class MissingGammaError(ValueError):
    """A day-1 run was evaluated without a day-effect parameter."""


class Link(enum.Enum):
    IDENTITY = "identity"
    INVERSE = "inverse"
    LOG = "log"

    def outside_domain(self, eta):
        """Where the predictors lie outside the link's domain, elementwise:
        nowhere for the log link, at nonpositive values for identity and
        inverse (a NaN is not flagged); ``mean`` and ``weight`` never check."""
        if self is Link.LOG:
            return np.zeros(np.shape(eta), dtype=bool)
        return np.asarray(eta) <= 0.0

    def mean(self, eta):
        """Inverse link: map linear predictors (scalar or array) to Gamma means."""
        if self is Link.LOG:
            return np.exp(eta)
        return eta if self is Link.IDENTITY else np.divide(1.0, eta)

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
        return np.divide(1.0, eta * eta)


class TermKind(enum.Enum):
    INTERCEPT = "intercept"
    MAIN = "main"
    SQUARE = "square"
    INTERACTION = "interaction"


# The number of factor indices each kind of term uses.
_ARITY = {TermKind.INTERCEPT: 0, TermKind.MAIN: 1, TermKind.SQUARE: 1,
          TermKind.INTERACTION: 2}


@dataclass(frozen=True)
class Term:
    """One monomial of the quadratic response surface.

    Factor fields are indices into the owning ModelSpec's factor list.  The
    fields a kind uses are indices >= 0, the others -1; an interaction's two
    indices are distinct and stored in increasing order.
    """

    kind: TermKind
    a: int = -1
    b: int = -1

    def __post_init__(self) -> None:
        if not isinstance(self.kind, TermKind):
            raise ValueError(f"{self.kind!r} is not a term kind")
        arity = _ARITY[self.kind]
        used, unused = (self.a, self.b)[:arity], (self.a, self.b)[arity:]
        if (not all(isinstance(i, numbers.Integral) and not isinstance(i, bool)
                    and i >= 0 for i in used)
                or len(set(used)) != arity or any(i != -1 for i in unused)):
            raise ValueError(f"a {self.kind.value!r} term takes {arity} distinct "
                             "factor indices >= 0 and -1 in its unused fields, "
                             f"got {(self.a, self.b)}")
        if arity == 2:
            object.__setattr__(self, "a", min(used))
            object.__setattr__(self, "b", max(used))

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
        return Term(TermKind.INTERACTION, a, b)


@dataclass(frozen=True)
class ModelSpec:
    """A link plus an ordered list of quadratic-surface terms.

    ``factors`` is the model's own (ordered) subset of GLOBAL_FACTORS;
    term indices refer to this list, not to the global one.  ``slots``
    names, for every term, the two columns of [1, L, K, D, FDV] whose
    product it is; it is built once from the terms and is not a field.
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
        for i, f in enumerate(self.factors):
            if f not in GLOBAL_FACTORS:
                raise ValueError(f"unknown factor {f!r}")
            if f in self.factors[:i]:
                raise ValueError(f"factor {f!r} is named twice")
        q = len(self.factors)
        for t in self.terms:
            for idx in (t.a, t.b):
                if idx >= q:
                    raise ValueError(f"term {t} references factor index {idx} >= {q}")
        # Column 0 of [1, L, K, D, FDV] is the constant, which an unused
        # factor index (-1) selects; a square uses its factor twice.
        column = (0, *(1 + g for g in self.global_indices))
        pairs = [(t.a, t.a if t.kind is TermKind.SQUARE else t.b) for t in self.terms]
        slots = np.array([[column[i + 1] for i in pair] for pair in pairs]).T
        slots.flags.writeable = False
        object.__setattr__(self, "slots", slots)

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
        """The spec of ``to_dict``.  A missing key or a value of the wrong
        JSON type (not an object, ``factors`` or ``terms`` not a list, a term
        not a non-empty list) is a ValueError."""
        if not isinstance(d, dict):
            raise ValueError("a model must be a JSON object")
        for key in ("name", "link"):
            if key not in d:
                raise ValueError(f'a model needs a "{key}" key')
        for key in ("factors", "terms"):
            if not isinstance(d.get(key), list):
                raise ValueError(f'a model needs a "{key}" list')
        factors = tuple(d["factors"])

        def parse(item: list) -> Term:
            if not isinstance(item, list) or not item:
                raise ValueError(f"a model term must be a non-empty list, got {item!r}")
            kind, *names = item
            if not all(n in factors for n in names):
                raise ValueError(f"term {item!r} names a factor outside {list(factors)}")
            try:
                return Term(TermKind(kind), *(factors.index(n) for n in names))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{item!r} is not a model term: {exc}") from None

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


def regressor_matrix(spec: ModelSpec, coords: np.ndarray) -> np.ndarray:
    """(n, p) regressors over an (n, 4) array of global coordinates: each
    term is the product of its two slots of [1, L, K, D, FDV].  The result
    is C-ordered, so ``Z @ beta`` takes the same path for every caller."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    extended = np.empty((len(coords), 1 + len(GLOBAL_FACTORS)))
    extended[:, 0] = 1.0
    extended[:, 1:] = coords
    # One gather of both slots of every term: (n, 2, p).
    pairs = extended[:, spec.slots]
    return np.multiply(pairs[:, 0], pairs[:, 1], order="C")
