"""Design-selection criteria: D, D1, their efficiencies, Bayesian averages,
and the alpha-compromise between estimation and day-effect testing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .glm import Link, ModelSpec, ParamPoint, is_number, quadratic
from .information import Design, cholesky, eliminate, factor_log_det, fisher_info


class StackScores(NamedTuple):
    """The D criterion |I|^(1/(p+1)) and the D1 criterion 1 / (I^{-1})_nn of
    k designs under each of an ensemble's S scenarios, as two (S, k) arrays
    in scenario order (``ScenarioEnsemble.score``), or of one design as two
    (S,) arrays (``ScenarioEnsemble.score_design``).  I is the information
    with the day-effect column last; a design with a predictor outside the
    scenario's link domain scores 0.

    The criteria take it in place of the (k, m, 4) stack it scores and read
    their scenario's row, so a stack is scored once however many averages
    use it.
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
    """One model and beta's share of an ensemble (under a log link, whose
    weights are all 1, the model's whole share): the model, the first row
    of each of its information classes, beta as a (p, 1) column, L^{-T} of
    the day-0 information A = L L^T, log det A and the (C,) day effects of
    the classes."""

    spec: ModelSpec
    rows: tuple
    beta: np.ndarray
    whiten: np.ndarray
    log_det: float
    gamma: np.ndarray


class ScenarioEnsemble:
    """Weighted finite scenario set sharing one fixed initial design.

    Whitens each model's day-0 information once per beta (once under a log
    link), so that scoring a candidate set of m new runs factors only an
    m x m matrix (``_score``).
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
        # Per model and beta, the rows of each information class: under a
        # log link, whose weight is 1 whatever beta and gamma are, all of
        # the model's rows form one group and one class; otherwise the rows
        # of each gamma form a class.
        grouped: dict[tuple, dict[Optional[float], list[int]]] = {}
        for i, s in enumerate(self.scenarios):
            log = s.spec.link is Link.LOG
            group = (id(s.spec),) if log else (id(s.spec), s.params.beta)
            grouped.setdefault(group, {}).setdefault(
                None if log else s.params.gamma, []).append(i)
        # Per group (``_Model``) the whitening of the day-0 block; the day-0
        # runs carry no day effect, so gamma does not enter it.  _classes
        # holds each class's (model, column) in ``_score``'s order and
        # _optima its optima (D at the D-, D1 at the D1-, D1 at the
        # D-optimum), None until cached; _row_class maps each row of the
        # scores to its class, and every score pads to one width.  _row_of
        # keys a scenario's first row and class by spec identity (hashing a
        # ModelSpec costs microseconds).
        self._models: list[_Model] = []
        self._classes: list[tuple[_Model, int]] = []
        self._row_of: dict[tuple[int, ParamPoint], tuple[int, int]] = {}
        self._row_class = np.empty(len(self.scenarios), dtype=int)
        self._width = max(s.spec.p for s in self.scenarios)
        for shared in grouped.values():
            rows = tuple(members[0] for members in shared.values())
            lead = self.scenarios[rows[0]]
            spec, beta = lead.spec, lead.params.beta
            model = _Model(spec, rows, np.array(beta)[:, None],
                           *_whitening(spec, beta, initial_design),
                           np.array([self.scenarios[i].params.gamma for i in rows]))
            self._models.append(model)
            for column, members in enumerate(shared.values()):
                self._row_class[members] = len(self._classes)
                for i in members:
                    self._row_of.setdefault((id(spec), self.scenarios[i].params),
                                            (i, len(self._classes)))
                self._classes.append((model, column))
        self._optima: list[Optional[tuple]] = [None] * len(self._classes)

    def score(self, stack: np.ndarray) -> StackScores:
        """The D and D1 criteria of a (k, m, 4) stack of designs of new
        day-1 runs under every scenario, as two (S, k) arrays: every
        information class of every model scored in one ``_score`` call."""
        if stack.ndim != 3 or stack.shape[-1] != 4:
            raise ValueError("a stack of designs must have shape (k, m, 4), "
                             f"got shape {stack.shape}")
        values = _score(self._models, stack, self._width)
        return StackScores(*values[:, self._row_class])

    def score_design(self, design: Design) -> StackScores:
        """The D and D1 criteria of one Design of new day-1 runs under every
        scenario, as two (S,) arrays.

        The design is scored by ``score`` as a stack of one and kept with
        its scores until another Design is scored, so its per-scenario
        efficiencies and averages cost one ``_score`` call.  A Design is
        immutable, so it is matched by identity.
        """
        kept, scores = self._kept
        if design is not kept:
            scores = StackScores(
                *(v[:, 0] for v in self.score(_new_coords(design)[None]))
            )
            self._kept = (design, scores)
        return scores

    def set_optimal(self, idx: int, d_opt: Design, d1_opt: Design) -> None:
        """Cache the optima of row ``idx``'s information class, which every
        row of the class reads, from explicit locally optimal designs scored
        as one stack of two against the class's model.  Each must have the
        ensemble's m runs, or ``ValueError`` names both counts."""
        if {len(d_opt), len(d1_opt)} != {self.m}:
            raise ValueError(f"optima of {len(d_opt)} and {len(d1_opt)} runs cannot "
                             f"be cached for an ensemble of m={self.m} new runs")
        cls = self._row_class[idx]
        model, column = self._classes[cls]
        stack = np.stack([_new_coords(d_opt), _new_coords(d1_opt)])
        (vd, _), (vd1_at_d, vd1) = _score([model], stack, self._width)[:, column]
        if vd <= 0 or vd1 <= 0 or vd1_at_d <= 0:
            raise DegenerateOptimumError("cached optimal values must be positive")
        self._optima[cls] = (float(vd), float(vd1), float(vd1_at_d))


def _whitening(spec: ModelSpec, beta: tuple, initial_design: Design):
    """L^{-T} and log det A of the day-0 information A = L L^T of the
    initial design under ``beta``, or ``ValueError`` naming the model."""
    chol = cholesky(fisher_info(spec, ParamPoint(beta), initial_design,
                                with_day_effect=False, what="the initial design"))
    if chol is None:
        raise ValueError(f"the initial design's information under model {spec.name!r} "
                         f"is singular: it cannot identify {spec.p} terms")
    return np.linalg.inv(chol).T, factor_log_det(chol)


def _score(models: list[_Model], stack: np.ndarray, width: int,
           lanes: Optional[np.ndarray] = None) -> np.ndarray:
    """The D and D1 criteria of a stack of designs of m new day-1 runs as a
    (2, R, k) array.  Without ``lanes``, a (k, m, 4) stack is scored under
    every information class of ``models`` in turn (R classes).  With
    ``lanes``, the classes of one group's L lanes, an (L, k, m, 4) stack is
    scored row by row, row j under class lanes[j] only (R = L).

    The initial design holds only day-0 runs, with information A = L L^T.
    With U the m whitened rows sqrt(w) L^{-1} z of a design under a class,
    s their roots sqrt(w) and M = I + U U^T, the matrix determinant lemma and
    the Schur complement of the day column give |I| = |A| |M| D1 and
    D1 = s^T M^{-1} s.  The U of all models and classes, zero-padded to
    ``width`` >= p columns, are eliminated together (``eliminate``).  Stacks
    of one shape score alike, but BLAS picks the path of ``Z @ whiten`` and
    ``Z @ beta`` by row count, so a design's last bits may depend on k.  M
    has no eigenvalue below 1, so a design scores 0 only where a predictor
    lies outside its class's link domain.
    """
    k, m = stack.shape[-3:-1]
    rows = sum(len(model.gamma) if lanes is None else len(lanes) for model in models)
    if m == 0:
        return np.zeros((2, rows, k))
    u, s = np.zeros((m, rows, k, width)), np.ones((m, rows, k))
    offset, power = np.empty((2, rows, 1))
    masks, first = [], 0
    full = quadratic(stack.reshape(-1, 4))
    for spec, _, beta, whiten, log_det, gamma in models:
        if lanes is not None:
            gamma = gamma[lanes]
        own = slice(first, first + len(gamma))
        first = own.stop
        # Without lanes, every class reads the one (k, m) block of W and eta.
        Z = full.take(spec.columns, axis=1).reshape(*stack.shape[:-3], k * m, spec.p)
        W = (Z @ whiten).reshape(*stack.shape[:-1], spec.p)
        U = u[:, own, :, : spec.p].transpose(1, 2, 0, 3)
        if spec.link is Link.LOG:
            U[...] = W
        else:
            # One matrix-vector product with beta, as fisher_info takes it.
            eta = (Z @ beta).reshape(stack.shape[:-1]) + gamma[:, None, None]
            outside = spec.link.outside_domain(eta)
            if outside.any():
                eta = np.where(outside, 1.0, eta)
                masks.append((own, outside.any(axis=-1)))
            root = s[:, own].transpose(1, 2, 0)
            np.sqrt(spec.link.weight(eta), out=root)
            np.multiply(W, root[..., None], out=U)
        offset[own, 0], power[own] = log_det, 1.0 / (spec.p + 1)
    log_det_m, quad = eliminate(u.reshape(m, -1, width), s.reshape(m, -1))
    values = np.empty((2, rows, k))
    values[1] = quad.reshape(rows, k)
    log_det_i = log_det_m.reshape(rows, k) + np.log(values[1]) + offset
    np.exp(log_det_i * power, out=values[0])
    for own, outside in masks:
        values[:, own][:, outside] = 0.0
    return values


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
    class's cached ``optima[optimum]``; a KeyError outside the ensemble."""
    found = ensemble._row_of.get((id(scenario.spec), scenario.params))
    if found is None:
        raise KeyError("scenario does not belong to this ensemble")
    row, cls = found
    optima = ensemble._optima[cls]
    if optima is None:
        raise MissingCacheError(f"no cached optimum for scenario {row}; "
                                "build the cache first")
    return _scored(ensemble, new_runs)[criterion][row] / optima[optimum]


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
