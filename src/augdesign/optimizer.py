"""Particle swarm search over the m-run design box, plus the cache builder
and the solvers for local, Bayesian, and compromise criteria."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .criteria import ScenarioEnsemble, _score, phi_compromise
from .data import PUBLISHED_DESIGNS
from .glm import COORD_MAX, COORD_MIN, GLOBAL_FACTORS as COORD_NAMES
from .information import Design

Objective = Callable[[np.ndarray], np.ndarray]
ALL_FACTORS = tuple(range(len(COORD_NAMES)))


# Standard constriction coefficients (Clerc & Kennedy 2002).
INERTIA = 0.72
COGNITIVE = 1.49
SOCIAL = 1.49
# A restart stops after STAGNATION_WINDOW iterations in which the global best
# rose by no more than TOLERANCE.
TOLERANCE = 1e-9
STAGNATION_WINDOW = 100


@dataclass(frozen=True)
class PsoConfig:
    swarm_size: int = 100
    iterations: int = 1000
    restarts: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{field.name} must be an integer, got {value!r}")
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be at least 2")
        if self.iterations < 1 or self.restarts < 1:
            raise ValueError("iterations and restarts must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one multi-restart swarm search: the best design, as day-1
    runs with the unsearched factors at 0, its recomputed value, each
    restart's trace of the best value, and the objective evaluations."""

    best_design: Design
    best_value: float
    history: tuple[tuple[float, ...], ...]
    evaluations: int


def pso_lockstep(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    searches: int,
    m: int,
    indices: Sequence[int],
    config: PsoConfig,
    seeds: Sequence[np.ndarray] = (),
) -> list[SearchResult]:
    """``searches`` independent global-best PSO searches over m-run designs,
    advanced together.  Each particle ranges over [-2, 2] in the factors
    ``indices``; the other factors of its designs are 0.

    Restart r of search j is lane j * restarts + r.  ``objective`` maps an
    (L, k, m, 4) stack of designs and the (L,) searches its rows belong to
    to (L, k) values that do not depend on the rest of the stack, and must
    give 0 (or -inf) for infeasible designs.  It is called on the calling
    thread, once per iteration with the swarms of the live lanes in lane
    order, and once with a (G, 1, m, 4) stack of each search's best design.
    ``seeds`` are (m, 4) designs placed, over the factors ``indices``, as
    initial particles in every lane.  Each restart's generator serves the
    lanes of all searches, so each search follows the path it would take
    alone.  A lane that stagnates stops there: its best point, history and
    evaluation count keep the values of that iteration while the others go
    on.  Returns one result per search.
    """
    columns = list(indices)
    if m < 1 or not columns or len(set(columns)) != len(columns):
        raise ValueError("m must be positive and indices distinct factors")
    d = m * len(columns)
    flat_seeds = [np.asarray(s, dtype=float)[:, columns].reshape(d)
                  for s in seeds[: config.swarm_size]]

    def designs(flat: np.ndarray) -> np.ndarray:
        full = np.zeros((*flat.shape[:-1], m, len(COORD_NAMES)))
        full[..., columns] = flat.reshape(*flat.shape[:-1], m, len(columns))
        return full

    span = COORD_MAX - COORD_MIN
    swarm, restarts = config.swarm_size, config.restarts
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(config.seed).spawn(restarts)]
    x = np.array([rng.uniform(COORD_MIN, COORD_MAX, size=(swarm, d)) for rng in rngs])
    v = np.array([rng.uniform(-span, span, size=(swarm, d)) for rng in rngs]) * 0.25
    for i, s in enumerate(flat_seeds):
        x[:, i] = s
        v[:, i] = 0.0
    grid = (searches, restarts, swarm, d)
    x = np.repeat(x[None], searches, axis=0).reshape(-1, swarm, d)

    each = np.arange(searches * restarts)
    search_of = each // restarts
    pval = objective(designs(x), search_of).copy()
    pbest = x.copy()
    g = np.argmax(pval, axis=1)
    gbest, gval = pbest[each, g], pval[each, g]
    trace = [gval.copy()]
    # Iterations each lane has run; a lane is live until its best has risen
    # by no more than TOLERANCE for STAGNATION_WINDOW iterations.
    steps = np.zeros(len(each), dtype=int)
    since_improvement = np.zeros(len(each), dtype=int)
    live = np.ones(len(each), dtype=bool)
    # Each restart draws its r1 and r2 in one call: the same stream as two.
    draws = np.empty((restarts, 2, swarm, d))
    for _ in range(config.iterations):
        for rng, out in zip(rngs, draws):
            rng.random(out=out)
        v = (
            INERTIA * v
            + COGNITIVE * draws[:, 0] * (pbest - x).reshape(grid)
            + SOCIAL * draws[:, 1] * (gbest[:, None] - x).reshape(grid)
        )
        x += v.reshape(x.shape)
        clamped = (x < COORD_MIN) | (x > COORD_MAX)
        np.clip(x, COORD_MIN, COORD_MAX, out=x)
        np.copyto(v.reshape(x.shape), 0.0, where=clamped)

        # A stopped lane reads -inf, so its bests cannot move.
        values = np.full(pval.shape, -np.inf)
        values[live] = objective(designs(x[live]), search_of[live])
        improved = values > pval
        np.copyto(pbest, x, where=improved[..., None])
        np.copyto(pval, values, where=improved)
        g = np.argmax(pval, axis=1)
        top = pval[each, g]
        since_improvement = np.where(top > gval + TOLERANCE, 0,
                                     since_improvement + 1)
        rose = top > gval
        gbest[rose], gval[rose] = pbest[each[rose], g[rose]], top[rose]
        trace.append(gval.copy())
        steps += live
        live &= since_improvement < STAGNATION_WINDOW
        if not live.any():
            break
    trace = np.array(trace)
    best_value, best_flat = np.full(searches, -np.inf), np.zeros((searches, d))
    rows = each.reshape(searches, restarts)
    for r in range(restarts):
        better = gval[rows[:, r]] > best_value
        won = rows[better, r]
        best_value[better], best_flat[better] = gval[won], gbest[won]
    best = designs(best_flat[:, None])
    recomputed = objective(best, np.arange(searches))[:, 0]
    return [
        SearchResult(Design.from_coords(best[j, 0], day=1), float(recomputed[j]),
                     tuple(tuple(trace[: steps[p] + 1, p].tolist()) for p in rows[j]),
                     int(swarm * (steps[rows[j]] + 1).sum()))
        for j in range(searches)
    ]


def pso_maximize(
    objective: Objective,
    m: int,
    indices: Sequence[int],
    config: PsoConfig,
    seeds: Sequence[np.ndarray] = (),
) -> SearchResult:
    """One global-best PSO search over m-run designs in the factors
    ``indices``: ``pso_lockstep`` with one search.

    ``objective`` maps a (k, m, 4) stack of designs to k real values and
    must give 0 (or -inf) for infeasible designs.  It is called once per
    iteration with the swarms of the live restarts, restart-major, and once
    with a stack of one to recompute the best design's value.
    """
    (result,) = pso_lockstep(
        lambda stack, _: objective(stack.reshape(-1, *stack.shape[2:])).reshape(
            len(stack), -1),
        1, m, indices, config, seeds,
    )
    return result


def _published_seeds(m: int, indices: tuple[int, ...]) -> list[np.ndarray]:
    """The center, an alternating-corner pattern over the factors
    ``indices`` and the bundled m-run designs, as (m, 4) designs — cheap
    lower-bound anchors."""
    corner = np.zeros((m, len(COORD_NAMES)))
    corner[:, list(indices)] = [
        [COORD_MAX if (i + j) % 2 == 0 else COORD_MIN for j in range(len(indices))]
        for i in range(m)
    ]
    seeds = [np.zeros((m, len(COORD_NAMES))), corner]
    for design in PUBLISHED_DESIGNS.values():
        if len(design) == m:
            seeds.append(design.coords)
    return seeds


def solve_local(
    ensemble: ScenarioEnsemble,
    searches: Sequence[tuple[int, str]],
    config: PsoConfig,
) -> list[SearchResult]:
    """Locally D- or D1-optimal augmentations of the ensemble's m runs, one
    per (row, flavour) search, where row indexes ``ensemble.scenarios``,
    found in lockstep (``pso_lockstep``).

    The rows belong to one (model, beta) group of the ensemble (under a log
    link, to one model).  Each iteration scores the swarms of the live
    lanes in one call of the scoring kernel (``criteria._score``) at the
    model's own width: each lane's designs under its own search's
    information class only.  Only the model's active factors are searched;
    the inactive coordinates of the returned designs are 0 (they do not
    enter the criterion).  Each result equals, bit for bit, that of the
    search alone, on this ensemble or on an ensemble of the row's scenario.
    """
    if not searches:
        raise ValueError("solve_local needs at least one search")
    if any(flavor not in ("D", "D1") for _, flavor in searches):
        raise ValueError("flavor must be 'D' or 'D1'")
    classes = [ensemble._classes[ensemble._row_class[row]] for row, _ in searches]
    model = classes[0][0]
    spec = model.spec
    if any(own is not model for own, _ in classes):
        raise ValueError(f"the searches of one solve_local call share one model and "
                         f"beta: a row lies outside the group of row {searches[0][0]}, "
                         f"model {spec.name!r}")
    if not spec.factors:
        raise ValueError(f"model {spec.name!r} has no factor to search")
    column = np.array([column for _, column in classes])
    indices = spec.global_indices
    d_rows = np.array([[flavor == "D"] for _, flavor in searches])

    def objective(stack: np.ndarray, search_of: np.ndarray) -> np.ndarray:
        scores = _score([model], stack, spec.p, column[search_of])
        return np.where(d_rows[search_of], *scores)

    seeds = _published_seeds(ensemble.m, indices)
    return pso_lockstep(objective, len(searches), ensemble.m, indices, config, seeds)


def build_cache(ensemble: ScenarioEnsemble, config: PsoConfig) -> ScenarioEnsemble:
    """Populate the ensemble's locally-optimal-value cache by running both
    local searches for every information class.  Returns the same ensemble.

    The scenarios of one class share its searches and its cached optima,
    and the D and D1 searches of one model and beta run in one
    ``solve_local`` call.
    """
    for model in ensemble._models:
        searches = [(row, flavor) for row in model.rows for flavor in ("D", "D1")]
        # The results come in (D, D1) pairs, one pair per class.
        results = iter(solve_local(ensemble, searches, config))
        for row, d_opt, d1_opt in zip(model.rows, results, results):
            ensemble.set_optimal(row, d_opt.best_design, d1_opt.best_design)
    return ensemble


def solve_compromise(
    ensemble: ScenarioEnsemble, alpha: float, config: PsoConfig
) -> SearchResult:
    """Maximize alpha * Phi_B + (1 - alpha) * Phi_B1 over the ensemble:
    alpha = 1 is the Bayesian D search, alpha = 0 the Bayesian D1 search.

    Requires the locally-optimal cache (build_cache) for every scenario."""
    def objective(stack: np.ndarray) -> np.ndarray:
        return phi_compromise(ensemble, ensemble.score(stack), alpha)

    seeds = _published_seeds(ensemble.m, ALL_FACTORS)
    return pso_maximize(objective, ensemble.m, ALL_FACTORS, config, seeds)
