"""Particle swarm search over the m-run design box, plus the cache builder
and the solvers for local, Bayesian, and compromise criteria."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .criteria import Scenario, ScenarioEnsemble, phi_compromise
from .data import PUBLISHED_DESIGNS
from .glm import COORD_MAX, COORD_MIN, GLOBAL_FACTORS as COORD_NAMES, Link
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


def pso_maximize(
    objective: Objective,
    m: int,
    dims: int,
    config: PsoConfig,
    seeds: Sequence[np.ndarray] = (),
) -> SearchResult:
    """Global-best PSO over [-2, 2]^(m*dims).

    ``objective`` maps a (k, m, dims) stack of fragments to k real values and
    must give 0 (or -inf) for infeasible fragments.  It is called on the
    calling thread, once per iteration with the whole swarm, and once with a
    stack of one to recompute the best fragment's value.  ``seeds`` are
    fragments placed as initial particles in every restart.
    """
    if m < 1 or dims < 1:
        raise ValueError("m and dims must be positive")
    d = m * dims
    flat_seeds = [np.asarray(s, dtype=float).reshape(d) for s in seeds]
    if len(flat_seeds) > config.swarm_size:
        flat_seeds = flat_seeds[: config.swarm_size]

    span = COORD_MAX - COORD_MIN
    best_flat: Optional[np.ndarray] = None
    best_value = -np.inf
    histories: list[tuple[float, ...]] = []
    evaluations = 0
    for child in np.random.SeedSequence(config.seed).spawn(config.restarts):
        rng = np.random.default_rng(child)
        x = rng.uniform(COORD_MIN, COORD_MAX, size=(config.swarm_size, d))
        v = rng.uniform(-span, span, size=(config.swarm_size, d)) * 0.25
        for i, s in enumerate(flat_seeds):
            x[i] = s
            v[i] = 0.0

        values = objective(x.reshape(-1, m, dims))
        evaluations += len(values)
        pbest, pval = x.copy(), values.copy()
        g = int(np.argmax(pval))
        gbest, gval = pbest[g].copy(), float(pval[g])
        history = [gval]
        since_improvement = 0
        for _ in range(config.iterations):
            r1 = rng.uniform(size=(config.swarm_size, d))
            r2 = rng.uniform(size=(config.swarm_size, d))
            v = (
                INERTIA * v
                + COGNITIVE * r1 * (pbest - x)
                + SOCIAL * r2 * (gbest - x)
            )
            x = x + v
            clamped = (x < COORD_MIN) | (x > COORD_MAX)
            np.clip(x, COORD_MIN, COORD_MAX, out=x)
            v[clamped] = 0.0

            values = objective(x.reshape(-1, m, dims))
            evaluations += len(values)
            improved = values > pval
            pbest[improved] = x[improved]
            pval[improved] = values[improved]
            g = int(np.argmax(pval))
            if float(pval[g]) > gval + TOLERANCE:
                since_improvement = 0
            else:
                since_improvement += 1
            if float(pval[g]) > gval:
                gbest, gval = pbest[g].copy(), float(pval[g])
            history.append(gval)
            if since_improvement >= STAGNATION_WINDOW:
                break
        histories.append(tuple(history))
        if gval > best_value:
            best_value, best_flat = gval, gbest

    assert best_flat is not None
    fragment = best_flat.reshape(m, dims)
    recomputed = float(objective(fragment[None])[0])
    return SearchResult(None, recomputed, tuple(histories), evaluations, fragment)


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


def _search(
    objective: Objective, m: int, indices: tuple[int, ...], config: PsoConfig
) -> SearchResult:
    """Seeded swarm search over the factors ``indices``; the best fragment
    becomes a day-1 design with the other factors at 0."""
    seeds = _published_seeds(m, indices)
    result = pso_maximize(objective, m, len(indices), config, seeds)
    result.best_design = Design.from_coords(
        _expand(result.best_fragment, indices), day=1
    )
    return result


def solve_local(
    scenario: Scenario,
    initial_design: Design,
    m: int,
    flavor: str,
    config: PsoConfig,
) -> SearchResult:
    """Locally D- or D1-optimal m-run augmentation for one scenario.

    Searches only the scenario's active factors; inactive coordinates of the
    returned design are 0 (they do not enter the criterion).
    """
    if flavor not in ("D", "D1"):
        raise ValueError("flavor must be 'D' or 'D1'")
    ensemble = ScenarioEnsemble([scenario], initial_design, m)
    indices = scenario.spec.global_indices

    def objective(fragments: np.ndarray) -> np.ndarray:
        return getattr(ensemble.score(_expand(fragments, indices)), flavor)[0]

    return _search(objective, m, indices, config)


def build_cache(ensemble: ScenarioEnsemble, config: PsoConfig) -> ScenarioEnsemble:
    """Populate the ensemble's locally-optimal-value cache by running both
    local searches for every scenario.  Returns the same ensemble.

    Scenarios of one model share their searches when their information is
    equal: always under a log link, whose weight is 1 whatever beta and
    gamma are, and otherwise only at equal parameters.
    """
    optima: dict[tuple, tuple[Design, Design]] = {}
    for idx, scenario in enumerate(ensemble.scenarios):
        key: tuple = (id(scenario.spec),)
        if scenario.spec.link is not Link.LOG:
            key += (scenario.params,)
        if key not in optima:
            optima[key] = tuple(
                solve_local(
                    scenario, ensemble.initial_design, ensemble.m, flavor, config
                ).best_design
                for flavor in ("D", "D1")
            )
        ensemble.set_optimal(idx, *optima[key])
    return ensemble


def solve_compromise(
    ensemble: ScenarioEnsemble, alpha: float, config: PsoConfig
) -> SearchResult:
    """Maximize alpha * Phi_B + (1 - alpha) * Phi_B1 over the ensemble:
    alpha = 1 is the Bayesian D search, alpha = 0 the Bayesian D1 search.

    Requires the locally-optimal cache (build_cache) for every scenario."""
    def objective(fragments: np.ndarray) -> np.ndarray:
        return phi_compromise(ensemble, ensemble.score(fragments), alpha)

    return _search(objective, ensemble.m, ALL_FACTORS, config)
