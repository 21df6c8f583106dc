"""Design-selection criteria: D, D1, their efficiencies, Bayesian averages,
and the alpha-compromise between estimation and day-effect testing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .glm import Link, ModelSpec, ParamPoint, is_number
from .information import (
    Design,
    augmented_info_entries,
    cholesky,
    factor_log_det,
    require_inside,
)


class StackScores(NamedTuple):
    """The D criterion |I|^(1/(p+1)) and the D1 criterion 1 / (I^{-1})_nn of
    k designs under each of an ensemble's S scenarios, as two (S, k) arrays
    in scenario order (``ScenarioEnsemble.score``), or of one design as two
    (S,) arrays (``ScenarioEnsemble.score_design``).  I is the information
    with the day-effect column last; a singular or infeasible design scores 0.

    The criteria take it in place of the (k, m, 4) stack it scores and read
    their scenario's row, so a stack is assembled and factored once however
    many averages use it.
    """

    D: np.ndarray
    D1: np.ndarray


NewRuns = Union[Design, StackScores]


class MissingCacheError(RuntimeError):
    """An efficiency was requested before the locally-optimal cache was built."""


class DegenerateOptimumError(ValueError):
    """A locally optimal design scores zero, so efficiencies against it fail."""


@dataclass(frozen=True)
class Scenario:
    """One atom s = (g, z, beta, gamma) of the discrete prior."""

    spec: ModelSpec
    params: ParamPoint
    weight: float = 1.0

    def __post_init__(self) -> None:
        w = self.weight
        if not is_number(w) or not 0 < w < math.inf:
            raise ValueError(f"scenario for model {self.spec.name!r} has weight "
                             f"{w!r}; a weight must be a positive finite number")
        if self.params.gamma is None:
            raise ValueError("a scenario requires a day-effect value")
        if len(self.params.beta) != self.spec.p:
            raise ValueError(
                f"scenario for model {self.spec.name!r} has "
                f"{len(self.params.beta)} coefficients; the model has "
                f"{self.spec.p} terms"
            )
        values = (*self.params.beta, self.params.gamma)
        if not all(map(is_number, values)):
            raise ValueError(
                f"scenario for model {self.spec.name!r} has a coefficient or "
                "day effect that is not a number"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError(
                f"scenario for model {self.spec.name!r} has a non-finite "
                "coefficient or day effect"
            )
        params = ParamPoint(tuple(map(float, values[:-1])), float(values[-1]))
        object.__setattr__(self, "params", params)


class _Model(NamedTuple):
    """One model's share of an ensemble: its scenarios' rows, the model, its
    parameters as ``augmented_info_entries`` takes them (one (p,) beta when
    all rows share it, else (S, p); an (S, 1, 1) gamma column), the
    (S, 1, p+1, p+1) initial blocks and the information classes."""

    rows: Union[slice, np.ndarray]
    spec: ModelSpec
    beta: np.ndarray
    gamma: np.ndarray
    base: np.ndarray
    classes: tuple


@dataclass(eq=False, slots=True)
class _Entry:
    """A scenario's row of the scores, its model and column there, and optima
    (D at the D-, D1 at the D1-, D1 at the D-optimum), None until cached."""

    row: int
    model: tuple
    column: int
    optima: Optional[tuple[float, float, float]] = None


class ScenarioEnsemble:
    """Weighted finite scenario set sharing one fixed initial design.

    Precomputes each scenario's initial-day information block so that
    evaluating a candidate set of m new runs only adds m rank-1 terms.
    """

    def __init__(self, scenarios: list[Scenario], initial_design: Design, m: int):
        if not scenarios:
            raise ValueError("ensemble needs at least one scenario")
        if m < 1:
            raise ValueError(f"an ensemble needs m >= 1 new runs, got m={m}")
        if (initial_design.days != 0).any():
            raise ValueError("initial design must be all day-0 runs")
        # Dividing by the largest weight first keeps the sum finite.
        top = max(s.weight for s in scenarios)
        total = sum(s.weight / top for s in scenarios)
        for s in scenarios:
            if s.weight / top / total == 0.0:
                raise ValueError("scenario weights span too wide a range to normalise: "
                                 f"model {s.spec.name!r} has weight {s.weight!r}")
        self.scenarios = [
            Scenario(s.spec, s.params, s.weight / top / total) for s in scenarios
        ]
        self.initial_design = initial_design
        self.m = m
        # The last Design scored by ``score_design`` and its scores; until
        # then a fresh object, which no argument can be, stands in.
        self._kept: tuple = (object(), None)
        # Per model, the rows of each information class: all of them under a
        # log link, whose weight is 1 whatever beta and gamma are, otherwise
        # the rows of equal parameters.
        grouped: dict[int, dict[Optional[ParamPoint], list[int]]] = {}
        for i, s in enumerate(self.scenarios):
            key = None if s.spec.link is Link.LOG else s.params
            grouped.setdefault(id(s.spec), {}).setdefault(key, []).append(i)
        coords = initial_design.coords[None]
        # Per model: the rows (a slice when adjacent, as model_ensemble orders
        # them, because writing to a slice is cheaper than to an index array),
        # the model, its parameters as arrays (``_Model``), the (S, 1, p+1,
        # p+1) initial blocks from one call, and the classes.  _index keys
        # the entries by spec identity (hashing a ModelSpec costs
        # microseconds); a repeat shares the first entry.
        self._table: list[_Entry] = [None] * len(self.scenarios)
        self._index: dict[tuple[int, ParamPoint], _Entry] = {}
        self._models: list[_Model] = []
        for shared in grouped.values():
            r = sorted(i for members in shared.values() for i in members)
            spec = self.scenarios[r[0]].spec
            params = [self.scenarios[i].params for i in r]
            beta = np.array([q.beta for q in params])
            if (beta == beta[0]).all():
                beta = beta[0]
            gamma = np.array([q.gamma for q in params]).reshape(-1, 1, 1)
            base, inside = augmented_info_entries(spec, beta, gamma[..., 0],
                                                  coords, 0.0)
            require_inside(spec, inside, "the initial design")
            rows = slice(r[0], r[-1] + 1) if r[-1] - r[0] == len(r) - 1 else np.array(r)
            classes = tuple(map(tuple, shared.values()))
            self._models.append(_Model(rows, spec, beta, gamma, base[:, None], classes))
            for column, (i, q) in enumerate(zip(r, params)):
                self._table[i] = self._index.setdefault(
                    (id(spec), q), _Entry(i, self._models[-1], column))

    def score(self, stack: np.ndarray) -> StackScores:
        """The D and D1 criteria of a (k, m, 4) stack of designs of new
        day-1 runs under every scenario, scored model by model
        (``_score_model``), as two (S, k) arrays."""
        if stack.ndim != 3 or stack.shape[-1] != 4:
            raise ValueError("a stack of designs must have shape (k, m, 4), "
                             f"got shape {stack.shape}")
        values = np.empty((2, len(self.scenarios), len(stack)))
        for rows, spec, beta, gamma, base, _ in self._models:
            values[:, rows] = _score_model(spec, beta, gamma, base, stack[None])
        return StackScores(*values)

    def score_design(self, design: Design) -> StackScores:
        """The D and D1 criteria of one Design of new day-1 runs under every
        scenario, as two (S,) arrays.

        The design is scored by ``score`` as a stack of one and kept with
        its scores until another Design is scored, so its per-scenario
        efficiencies and averages cost one assembly and one Cholesky per
        model.  A Design is immutable, so it is matched by identity.
        """
        kept, scores = self._kept
        if design is not kept:
            scores = StackScores(
                *(v[:, 0] for v in self.score(_new_coords(design)[None]))
            )
            self._kept = (design, scores)
        return scores

    def set_optimal(self, idx: int, d_opt: Design, d1_opt: Design) -> None:
        """Cache the scenario's optima from explicit locally optimal designs,
        scored as one stack of two against the scenario's model.  Each must
        have the ensemble's m runs, or ``ValueError`` names both counts."""
        if {len(d_opt), len(d1_opt)} != {self.m}:
            raise ValueError(f"optima of {len(d_opt)} and {len(d1_opt)} runs cannot "
                             f"be cached for an ensemble of m={self.m} new runs")
        entry = self._table[idx]
        _, spec, beta, gamma, base, _ = entry.model
        stack = np.stack([_new_coords(d_opt), _new_coords(d1_opt)])
        (vd, _), (vd1_at_d, vd1) = _score_model(spec, beta, gamma, base,
                                                stack[None])[:, entry.column]
        if vd <= 0 or vd1 <= 0 or vd1_at_d <= 0:
            raise DegenerateOptimumError("cached optimal values must be positive")
        entry.optima = (float(vd), float(vd1), float(vd1_at_d))


def _score_model(spec: ModelSpec, beta: np.ndarray, gamma: np.ndarray,
                 base: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The D and D1 criteria of a (T, k, m, 4) stack of new day-1 runs under
    the S parameter points of one model (``beta`` and ``gamma`` as in
    ``augmented_info_entries``), given their (S, 1, p+1, p+1) initial blocks,
    as a (2, S, k) array.  With T = 1 every point scores the k designs; with
    T = S point j scores row j.

    One assembly call and one ``cholesky`` call give both criteria.  A
    singular matrix, or a design outside a point's link domain, scores 0
    for that point only.
    """
    add, ok = augmented_info_entries(spec, beta, gamma, stack, 1.0)
    add += base
    n = add.shape[-1]
    chol, factored = cholesky(add.reshape(-1, n, n))
    ok = factored if ok is True else factored & ok.reshape(-1)
    # With I = L L^T, D = |I|^(1/n) and, since (I^{-1})_nn = 1 / L_nn^2,
    # D1 = L_nn^2.
    values = np.empty((2, len(chol)))
    np.exp(factor_log_det(chol) / n, out=values[0])
    np.square(chol[:, -1, -1], out=values[1])
    if not ok.all():
        values[:, ~ok] = 0.0
    return values.reshape(2, len(gamma), stack.shape[1])


def _new_coords(design: Design) -> np.ndarray:
    """The (m, 4) coordinates of a Design whose runs all carry day=1."""
    if not isinstance(design, Design):
        raise TypeError(
            f"new runs must be a Design or StackScores, got {type(design).__name__}"
        )
    if (design.days != 1).any():
        raise ValueError("new runs must all carry day=1")
    return design.coords


def _scored(ensemble: ScenarioEnsemble, new_runs: NewRuns) -> StackScores:
    """A StackScores as it is; a Design as the ensemble's kept (S,) rows
    (``score_design``)."""
    if isinstance(new_runs, StackScores):
        return new_runs
    return ensemble.score_design(new_runs)


def _relative(scenario: Scenario, new_runs: NewRuns, ensemble: ScenarioEnsemble,
              criterion: int, optimum: int):
    """The scenario's row of score ``criterion`` (0 for D, 1 for D1) over its
    cached ``optima[optimum]``; a KeyError outside the ensemble."""
    entry = ensemble._index.get((id(scenario.spec), scenario.params))
    if entry is None:
        raise KeyError("scenario does not belong to this ensemble")
    if entry.optima is None:
        raise MissingCacheError(f"no cached optimum for scenario {entry.row}; "
                                "build the cache first")
    return _scored(ensemble, new_runs)[criterion][entry.row] / entry.optima[optimum]


def eff_D(scenario: Scenario, new_runs: NewRuns, ensemble: ScenarioEnsemble):
    """The D criterion relative to its cached optimum, read from the
    scenario's row of the scores: a Design gives one value, and the
    StackScores of k designs give k values."""
    return _relative(scenario, new_runs, ensemble, 0, 0)


def eff_D1(scenario: Scenario, new_runs: NewRuns, ensemble: ScenarioEnsemble):
    """The D1 criterion relative to its cached optimum, read from the
    scenario's row of the scores: a Design gives one value, and the
    StackScores of k designs give k values."""
    return _relative(scenario, new_runs, ensemble, 1, 1)


def d1_ratio_vs_d_optimum(
    scenario: Scenario, new_runs: NewRuns, ensemble: ScenarioEnsemble
) -> float:
    """Phi_D1 of the candidate relative to Phi_D1 at the locally D-optimal design."""
    return _relative(scenario, new_runs, ensemble, 1, 2)


def phi_bayes(ensemble: ScenarioEnsemble, new_runs: NewRuns, flavor: str):
    """Weighted average of per-scenario efficiencies over the ensemble.  A
    Design is scored against every scenario once and gives one value; the
    StackScores of k designs give k values."""
    if flavor not in ("D", "D1"):
        raise ValueError("flavor must be 'D' or 'D1'")
    eff = eff_D if flavor == "D" else eff_D1
    new_runs = _scored(ensemble, new_runs)
    return sum(
        s.weight * eff(s, new_runs, ensemble) for s in ensemble.scenarios
    )


def phi_compromise(ensemble: ScenarioEnsemble, new_runs: NewRuns, alpha: float):
    """alpha * Phi_B + (1 - alpha) * Phi_B1; a term with weight 0 is not
    evaluated, so alpha = 1 and alpha = 0 give exactly Phi_B and Phi_B1.
    A Design is scored once for both averages and gives one value; the
    StackScores of k designs give k values."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    new_runs = _scored(ensemble, new_runs)
    value = 0.0
    if alpha > 0.0:
        value += alpha * phi_bayes(ensemble, new_runs, "D")
    if alpha < 1.0:
        value += (1.0 - alpha) * phi_bayes(ensemble, new_runs, "D1")
    return value
