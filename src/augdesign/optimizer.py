"""Particle swarm search over the m-run design box, plus the cache builder
and the solvers for local, Bayesian, and compromise criteria."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .criteria import Scenario, ScenarioEnsemble, phi_compromise
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
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be at least 2")
        if self.iterations < 1 or self.restarts < 1:
            raise ValueError("iterations and restarts must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class SearchResult:
    """Outcome of one multi-restart swarm search.

    ``best_fragment`` is the winning point in the raw search space
    (m x search-dims); the solvers set ``best_design`` to the same runs in
    full 4-factor coordinates, with inactive factors at 0.
    """

    best_design: Optional[Design]
    best_value: float
    history: tuple[tuple[float, ...], ...]
    evaluations: int
    best_fragment: Optional[np.ndarray] = None


def _expand(fragment: np.ndarray, indices: tuple[int, ...]) -> np.ndarray:
    """Embed (..., m, len(indices)) fragments into full 4-factor coordinates."""
    full = np.zeros((*fragment.shape[:-1], len(COORD_NAMES)))
    full[..., list(indices)] = fragment
    return full


def pso_lockstep(
    objective: Objective,
    searches: int,
    m: int,
    dims: int,
    config: PsoConfig,
    seeds: Sequence[np.ndarray] = (),
) -> list[SearchResult]:
    """``searches`` independent global-best PSO searches over
    [-2, 2]^(m*dims), advanced together.

    ``objective`` maps a (G, k, m, dims) stack, search j's k fragments in row
    j, to (G, k) values, and must give 0 (or -inf) for infeasible fragments.
    It is called on the calling thread, once per iteration with every swarm,
    and once with a (G, 1, m, dims) stack to recompute each best fragment's
    value.  ``seeds`` are fragments placed as initial particles in every
    restart.  All searches share one config, so one set of random draws per
    restart serves them all, and each search follows the path it would take
    alone.  A search that stagnates stops there: its best point, history and
    evaluation count keep the values of that iteration while the others go
    on.  Returns one result per search.
    """
    if m < 1 or dims < 1:
        raise ValueError("m and dims must be positive")
    d = m * dims
    flat_seeds = [np.asarray(s, dtype=float).reshape(d) for s in seeds]
    if len(flat_seeds) > config.swarm_size:
        flat_seeds = flat_seeds[: config.swarm_size]

    span = COORD_MAX - COORD_MIN
    each = np.arange(searches)
    best_flat = np.zeros((searches, d))
    best_value = np.full(searches, -np.inf)
    histories: list[list[tuple[float, ...]]] = [[] for _ in each]
    evaluations = np.zeros(searches, dtype=int)
    for child in np.random.SeedSequence(config.seed).spawn(config.restarts):
        rng = np.random.default_rng(child)
        x = rng.uniform(COORD_MIN, COORD_MAX, size=(config.swarm_size, d))
        v = rng.uniform(-span, span, size=(config.swarm_size, d)) * 0.25
        for i, s in enumerate(flat_seeds):
            x[i] = s
            v[i] = 0.0
        x = np.repeat(x[None], searches, axis=0)

        pval = objective(x.reshape(searches, -1, m, dims)).copy()
        pbest = x.copy()
        g = np.argmax(pval, axis=1)
        gbest, gval = pbest[each, g], pval[each, g]
        trace = [gval.copy()]
        # Iterations each search has run in this restart; a search is active
        # until its best has risen by no more than TOLERANCE for
        # STAGNATION_WINDOW iterations.
        steps = np.zeros(searches, dtype=int)
        since_improvement = np.zeros(searches, dtype=int)
        active = np.ones(searches, dtype=bool)
        for _ in range(config.iterations):
            r1 = rng.uniform(size=(config.swarm_size, d))
            r2 = rng.uniform(size=(config.swarm_size, d))
            v = (
                INERTIA * v
                + COGNITIVE * r1 * (pbest - x)
                + SOCIAL * r2 * (gbest[:, None] - x)
            )
            x = x + v
            clamped = (x < COORD_MIN) | (x > COORD_MAX)
            np.clip(x, COORD_MIN, COORD_MAX, out=x)
            v[clamped] = 0.0

            values = objective(x.reshape(searches, -1, m, dims))
            # A stopped search keeps its personal bests, so its global best
            # cannot rise either.
            improved = (values > pval) & active[:, None]
            pbest[improved] = x[improved]
            pval[improved] = values[improved]
            g = np.argmax(pval, axis=1)
            top = pval[each, g]
            since_improvement = np.where(top > gval + TOLERANCE, 0,
                                         since_improvement + 1)
            rose = top > gval
            gbest[rose], gval[rose] = pbest[each[rose], g[rose]], top[rose]
            trace.append(gval.copy())
            steps += active
            active &= since_improvement < STAGNATION_WINDOW
            if not active.any():
                break
        trace = np.array(trace)
        for j in each:
            histories[j].append(tuple(trace[: steps[j] + 1, j].tolist()))
        evaluations += (steps + 1) * config.swarm_size
        better = gval > best_value
        best_value[better], best_flat[better] = gval[better], gbest[better]

    fragments = best_flat.reshape(searches, 1, m, dims)
    recomputed = objective(fragments)[:, 0]
    return [
        SearchResult(None, float(recomputed[j]), tuple(histories[j]),
                     int(evaluations[j]), fragments[j, 0])
        for j in each
    ]


def pso_maximize(
    objective: Objective,
    m: int,
    dims: int,
    config: PsoConfig,
    seeds: Sequence[np.ndarray] = (),
) -> SearchResult:
    """One global-best PSO search over [-2, 2]^(m*dims): ``pso_lockstep``
    with one search.

    ``objective`` maps a (k, m, dims) stack of fragments to k real values and
    must give 0 (or -inf) for infeasible fragments.  It is called once per
    iteration with the whole swarm, and once with a stack of one to
    recompute the best fragment's value.
    """
    (result,) = pso_lockstep(
        lambda stack: objective(stack[0])[None], 1, m, dims, config, seeds
    )
    return result


def _published_seeds(m: int, indices: tuple[int, ...]) -> list[np.ndarray]:
    """Bundled 4-run designs restricted to the active factors, plus the
    center and an alternating-corner pattern — cheap lower-bound anchors."""
    dims = len(indices)
    seeds = [np.zeros((m, dims))]
    seeds.append(np.array(
        [[COORD_MAX if (i + j) % 2 == 0 else COORD_MIN for j in range(dims)]
         for i in range(m)]
    ))
    for design in PUBLISHED_DESIGNS.values():
        if len(design) == m:
            seeds.append(design.coords[:, list(indices)])
    return seeds


def _with_design(result: SearchResult, indices: tuple[int, ...]) -> SearchResult:
    """Set the result's best design: its best fragment as day-1 runs over the
    factors ``indices``, with the other factors at 0."""
    result.best_design = Design.from_coords(
        _expand(result.best_fragment, indices), day=1
    )
    return result


def solve_local(
    searches: Sequence[tuple[Scenario, str]],
    initial_design: Design,
    m: int,
    config: PsoConfig,
) -> list[SearchResult]:
    """Locally D- or D1-optimal m-run augmentations, one per (scenario,
    flavour) search, found in lockstep (``pso_lockstep``).

    All scenarios belong to one model.  Each iteration scores every swarm in
    one aligned ``ScenarioEnsemble.score`` call: search j's designs under
    its own scenario only.  Only the model's active factors are searched;
    the inactive coordinates of the returned designs are 0 (they do not
    enter the criterion).  Each result equals that of the search alone.
    """
    if not searches:
        raise ValueError("solve_local needs at least one search")
    scenarios = [scenario for scenario, _ in searches]
    if any(flavor not in ("D", "D1") for _, flavor in searches):
        raise ValueError("flavor must be 'D' or 'D1'")
    spec = scenarios[0].spec
    if any(s.spec != spec for s in scenarios):
        raise ValueError("the searches of one solve_local call share one model")
    ensemble = ScenarioEnsemble(scenarios, initial_design, m)
    indices = spec.global_indices
    d_rows = np.array([[flavor == "D"] for _, flavor in searches])

    def objective(fragments: np.ndarray) -> np.ndarray:
        scores = ensemble.score(_expand(fragments, indices))
        return np.where(d_rows, scores.D, scores.D1)

    seeds = _published_seeds(m, indices)
    results = pso_lockstep(objective, len(searches), m, len(indices), config, seeds)
    return [_with_design(result, indices) for result in results]


def build_cache(ensemble: ScenarioEnsemble, config: PsoConfig) -> ScenarioEnsemble:
    """Populate the ensemble's locally-optimal-value cache by running both
    local searches for every scenario.  Returns the same ensemble.

    The scenarios of one information class of the ensemble share their
    searches, and the D and D1 searches of one model run in one
    ``solve_local`` call.
    """
    for *_, classes in ensemble._models:
        searches = [(ensemble.scenarios[members[0]], flavor)
                    for members in classes for flavor in ("D", "D1")]
        # The results come in (D, D1) pairs, one pair per class.
        results = iter(solve_local(searches, ensemble.initial_design,
                                   ensemble.m, config))
        for members, d_opt, d1_opt in zip(classes, results, results):
            for idx in members:
                ensemble.set_optimal(idx, d_opt.best_design, d1_opt.best_design)
    return ensemble


def solve_compromise(
    ensemble: ScenarioEnsemble, alpha: float, config: PsoConfig
) -> SearchResult:
    """Maximize alpha * Phi_B + (1 - alpha) * Phi_B1 over the ensemble:
    alpha = 1 is the Bayesian D search, alpha = 0 the Bayesian D1 search.

    Requires the locally-optimal cache (build_cache) for every scenario."""
    def objective(fragments: np.ndarray) -> np.ndarray:
        return phi_compromise(ensemble, ensemble.score(fragments), alpha)

    seeds = _published_seeds(ensemble.m, ALL_FACTORS)
    result = pso_maximize(objective, ensemble.m, len(ALL_FACTORS), config, seeds)
    return _with_design(result, ALL_FACTORS)
