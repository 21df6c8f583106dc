"""The swarm search with its restarts run one after another.

``optimizer.pso_lockstep`` advances every restart of every search in one
loop and scores the swarms of all live lanes (a restart of a search) in one
objective call per iteration.  The tests require its results to equal, bit
for bit, those of this loop, which runs each restart to its end before
starting the next and so scores one restart's swarms per call.  The draws, the update rule and the stopping rule
are the same: each restart draws from its own child of
``SeedSequence(config.seed)``.
"""

from typing import Sequence

import numpy as np

from augdesign.glm import COORD_MAX, COORD_MIN, GLOBAL_FACTORS as COORD_NAMES
from augdesign.information import Design
from augdesign.optimizer import (
    COGNITIVE,
    INERTIA,
    SOCIAL,
    STAGNATION_WINDOW,
    TOLERANCE,
    Objective,
    PsoConfig,
    SearchResult,
)


def pso_sequential(
    objective: Objective,
    searches: int,
    m: int,
    indices: Sequence[int],
    config: PsoConfig,
    seeds: Sequence[np.ndarray] = (),
) -> list[SearchResult]:
    """``pso_lockstep`` with the restarts run one after another, each
    scoring its swarms in its own objective calls."""
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

        pval = objective(designs(x)).copy()
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

            values = objective(designs(x))
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

    best = designs(best_flat[:, None])
    recomputed = objective(best)[:, 0]
    return [
        SearchResult(Design.from_coords(best[j, 0], day=1), float(recomputed[j]),
                     tuple(histories[j]), int(evaluations[j]))
        for j in each
    ]
