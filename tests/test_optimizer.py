import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from augdesign import (
    MissingCacheError,
    ParamPoint,
    PsoConfig,
    Scenario,
    ScenarioEnsemble,
    build_cache,
    phi_bayes,
    phi_compromise,
    pso_maximize,
    solve_compromise,
    solve_local,
)
from augdesign import data, optimizer
from sequential_oracle import pso_sequential

SMALL = PsoConfig(swarm_size=20, iterations=60, restarts=2, seed=7)
ALL = optimizer.ALL_FACTORS


def sphere(stack):
    return -np.sum((stack - 1.0) ** 2, axis=(-2, -1))


def plateaus(stack, searches):
    """The values of an (L, k, m, 4) stack whose row i belongs to search
    ``searches[i]``: minus the squared distance to a centre of the search's
    own, floored to a step of its own (none for the third), so that searches
    and restarts stagnate at different iterations."""
    centres = np.array([0.5, -1.0, 1.5])[searches, None, None, None]
    steps = np.array([0.25, 1e-3, 0.0])[searches, None]
    dist = np.sum((stack - centres) ** 2, axis=(-2, -1))
    floored = np.floor(dist / np.where(steps > 0, steps, 1.0)) * steps
    return -np.where(steps > 0, floored, dist)


def plateaus_by_row(stack):
    """``plateaus`` of a (G, k, m, 4) stack with search j in row j."""
    return plateaus(stack, np.arange(len(stack)))


# Three restarts that all stagnate, each at another iteration.
UNEVEN = dict(seed=1, swarm=4, iterations=250, restarts=3, m=2, indices=(1, 3),
              searches=3, seeded=False)


class TestConfig:
    def test_defaults(self):
        cfg = PsoConfig()
        assert cfg.swarm_size == 100 and cfg.iterations == 1000
        assert cfg.restarts == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"swarm_size": 1},
            {"iterations": 0},
            {"seed": -1},
            {"restarts": 0},
            {"restarts": True},
            {"seed": False},
            {"iterations": 2.5},
            {"swarm_size": 3.0},
            {"restarts": 2.0},
            {"seed": 1.5},
            {"iterations": "10"},
        ],
    )
    def test_validation(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            PsoConfig(**kwargs)

    def test_numpy_integers_are_integers(self):
        assert PsoConfig(swarm_size=np.int64(4), seed=np.uint8(3)).seed == 3

    def test_dict_round_trip(self):
        cfg = PsoConfig(swarm_size=33, seed=5)
        assert PsoConfig(**dataclasses.asdict(cfg)) == cfg


class TestPsoMaximize:
    def test_finds_known_maximum(self):
        result = pso_maximize(sphere, 1, ALL, PsoConfig(
            swarm_size=30, iterations=200, restarts=2, seed=1))
        assert np.allclose(result.best_design.coords, 1.0, atol=1e-3)
        assert result.best_value == pytest.approx(0.0, abs=1e-5)

    def test_best_value_is_recomputed(self):
        result = pso_maximize(sphere, 1, ALL, SMALL)
        assert result.best_value == pytest.approx(
            sphere(result.best_design.coords), abs=1e-12
        )

    def test_same_seed_is_bitwise_identical(self):
        a = pso_maximize(sphere, 2, ALL, SMALL)
        b = pso_maximize(sphere, 2, ALL, SMALL)
        assert a.best_design == b.best_design
        assert a.history == b.history
        assert a.evaluations == b.evaluations

    def test_objective_runs_on_calling_thread(self, monkeypatch):
        monkeypatch.setenv("ODEX_THREADS", "4")
        callers = set()

        def objective(stack):
            callers.add(threading.get_ident())
            return sphere(stack)

        pso_maximize(objective, 2, ALL, SMALL)
        assert callers == {threading.get_ident()}

    def test_history_is_monotone_per_restart(self):
        result = pso_maximize(sphere, 2, ALL, SMALL)
        for restart in result.history:
            assert all(b >= a for a, b in zip(restart, restart[1:]))

    def test_result_stays_in_box(self):
        result = pso_maximize(lambda f: np.sum(f, axis=(-2, -1)), 3, ALL, SMALL)
        coords = result.best_design.coords
        assert np.all(coords <= 2.0)
        assert np.all(coords >= -2.0)
        assert not np.any(np.isnan(coords))
        # linear objective: the maximum is the all-upper corner
        assert np.allclose(coords, 2.0)

    def test_seed_is_a_lower_bound(self):
        seed = np.full((2, 4), 0.5)
        result = pso_maximize(sphere, 2, ALL, SMALL, seeds=[seed])
        assert result.best_value >= sphere(seed)

    def test_scores_each_iteration_in_one_call(self):
        shapes = []

        def objective(stack):
            shapes.append(stack.shape)
            return sphere(stack)

        # Below the stagnation window every restart runs all its iterations,
        # and each call scores the swarms of both, restart-major.
        result = pso_maximize(objective, 2, (0, 1, 2), SMALL)
        swarms = (SMALL.restarts * SMALL.swarm_size, 2, 4)
        assert shapes == [swarms] * (SMALL.iterations + 1) + [(1, 2, 4)]
        assert result.evaluations == (
            SMALL.restarts * (SMALL.iterations + 1) * SMALL.swarm_size)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            pso_maximize(sphere, 0, ALL, SMALL)
        for indices in ((), (1, 1)):
            with pytest.raises(ValueError, match="indices distinct factors"):
                pso_maximize(sphere, 2, indices, SMALL)

    def test_unsearched_factors_stay_at_zero(self):
        stacks = []

        def objective(stack):
            stacks.append(stack)
            return sphere(stack)

        result = pso_maximize(objective, 3, (1, 3), SMALL)
        assert all(np.all(s[..., [0, 2]] == 0.0) for s in stacks)
        assert not np.all(stacks[-2][..., [1, 3]] == 0.0)
        design = result.best_design
        assert np.all(design.coords[:, [0, 2]] == 0.0)
        assert np.all(design.days == 1)
        assert result.best_value == objective(design.coords[None])[0]

    def test_seed_acts_as_its_projection_onto_the_searched_factors(self):
        seed = np.array([[1.5, -0.5, 2.0, 0.25], [-1.0, 0.75, -2.0, -1.25]])
        projection = seed * [0.0, 1.0, 0.0, 1.0]
        first = []

        def objective(stack):
            if not first:
                first.append(stack[0].copy())
            return sphere(stack)

        seeded = pso_maximize(objective, 2, (1, 3), SMALL, seeds=[seed])
        assert np.array_equal(first[0], projection)
        projected = pso_maximize(sphere, 2, (1, 3), SMALL, seeds=[projection])
        assert seeded == projected


class TestSolveLocal:
    def test_m_zero(self):
        # A negative m is named too, not left to numpy's shape error: the
        # ensemble a search runs on rejects it.
        s = Scenario(data.MODELS["temperature"], data.ESTIMATES["temperature"])
        for m in (0, -3):
            with pytest.raises(ValueError, match=f"m >= 1 new runs, got m={m}"):
                ScenarioEnsemble([s], data.initial_design(), m)
            with pytest.raises(ValueError, match=f"m >= 1 new runs, got m={m}"):
                build_cache(data.model_ensemble("fixed", m), SMALL)

    def test_bad_flavor(self):
        ens = data.single_scenario_ensemble("temperature")
        with pytest.raises(ValueError, match="flavor"):
            solve_local(ens, [(0, "D"), (0, "B")], SMALL)

    def test_dominates_published_temperature_design(self, local_ensembles):
        ens = local_ensembles["temperature"]
        (result,) = solve_local(ens, [(0, "D")], SMALL)
        published = ens.score_design(data.LOCAL_D_OPTIMAL["temperature"]).D[0]
        assert result.best_value >= published - 1e-6 * published

    def test_temperature_search_leaves_fdv_at_zero(self):
        ens = data.single_scenario_ensemble("temperature")
        (result,) = solve_local(ens, [(0, "D")], SMALL)
        design = result.best_design
        assert np.all(design.coords[:, 3] == 0.0)
        assert np.all(design.days == 1)
        assert len(design) == 4


class TestCache:
    def test_single_scenario_cache_entries(self):
        ens = data.single_scenario_ensemble("flame_width")
        build_cache(ens, SMALL)
        d_at_d, d1_at_d1, d1_at_d = ens._optima[ens._row_class[0]]
        assert d_at_d > 0
        assert d1_at_d1 > 0
        assert d1_at_d > 0

    def test_cache_rebuild_is_identical(self):
        values = []
        for _ in range(2):
            ens = data.single_scenario_ensemble("velocity")
            build_cache(ens, SMALL)
            values.append(ens._optima[ens._row_class[0]])
        assert values[0] == values[1]

    def test_cache_dominates_published_designs(self):
        for name in data.RESPONSES:
            ens = data.single_scenario_ensemble(name)
            build_cache(ens, SMALL)
            published = ens.score_design(data.LOCAL_D_OPTIMAL[name]).D[0]
            assert ens._optima[ens._row_class[0]][0] >= published * (1 - 1e-6)


class TestCacheDedup:
    TINY = PsoConfig(swarm_size=8, iterations=10, restarts=1, seed=3)

    def test_one_search_pair_per_information(self, monkeypatch):
        calls = []

        def counted(ensemble, searches, *args):
            calls.append((ensemble, searches))
            return solve_local(ensemble, searches, *args)

        monkeypatch.setattr(optimizer, "solve_local", counted)
        ens = build_cache(data.model_ensemble("pm10pm20"), self.TINY)
        # One lockstep call per model, on the ensemble it fills.  Five
        # day-effect values per model; the log-link velocity model's
        # information does not depend on them.
        assert all(ensemble is ens for ensemble, _ in calls)
        searches = [ens.scenarios[row] for _, call in calls for row, _ in call]
        assert [len({id(ens.scenarios[row].spec) for row, _ in call})
                for _, call in calls] == [1] * 4
        assert len(searches) == 2 * (1 + 3 * 5)
        assert sum(s.spec.name == "velocity" for s in searches) == 2

    @pytest.mark.parametrize("gammas, classes", [
        ("fixed", 4), ("pm10", 1 + 3 * 3), ("pm10pm20", 1 + 3 * 5),
    ])
    def test_one_set_optimal_per_information_class(self, monkeypatch, gammas,
                                                   classes):
        # Every row of a class reads the class's one optima slot, so the
        # log-link velocity model's rows are cached by one call.
        rows, set_optimal = [], ScenarioEnsemble.set_optimal

        def counted(ensemble, idx, *designs):
            rows.append(idx)
            return set_optimal(ensemble, idx, *designs)

        monkeypatch.setattr(ScenarioEnsemble, "set_optimal", counted)
        ens = build_cache(data.model_ensemble(gammas), self.TINY)
        assert len(rows) == classes
        assert sorted(ens._row_class[rows]) == list(range(classes))
        assert all(optima is not None for optima in ens._optima)

    def test_cache_equals_one_search_pair_per_scenario(self):
        shared = build_cache(data.model_ensemble("pm10pm20"), self.TINY)
        each = data.model_ensemble("pm10pm20")
        for idx in range(len(each.scenarios)):
            each.set_optimal(idx, *(
                solve_local(each, [(idx, flavor)], self.TINY)[0].best_design
                for flavor in ("D", "D1")
            ))
        assert ([shared._optima[cls] for cls in shared._row_class]
                == [each._optima[cls] for cls in each._row_class])


class TestLockstep:
    # Above the stagnation window with two restarts: the searches of one
    # model stop at different iterations, and some run the whole budget.
    STALLING = PsoConfig(swarm_size=6, iterations=250, restarts=2, seed=3)

    @pytest.mark.parametrize("model", data.RESPONSES)
    def test_each_search_equals_its_search_alone(self, model):
        assert self.STALLING.iterations > optimizer.STAGNATION_WINDOW
        ens = data.model_ensemble("pm10pm20")
        searches = [(row, flavor) for row, s in enumerate(ens.scenarios)
                    if s.spec.name == model for flavor in ("D", "D1")]
        together = solve_local(ens, searches, self.STALLING)
        lengths = {tuple(map(len, r.history)) for r in together}
        assert len(lengths) > 1
        assert any(n < self.STALLING.iterations + 1 for ns in lengths for n in ns)
        for search, got in zip(searches, together):
            (alone,) = solve_local(ens, [search], self.STALLING)
            assert got.best_design == alone.best_design
            assert got.best_value == alone.best_value
            assert got.evaluations == alone.evaluations
            assert got.history == alone.history
            # One swarm is scored per history entry: the start and each
            # iteration the search ran.
            swarm = self.STALLING.swarm_size
            assert got.evaluations == swarm * sum(map(len, got.history))

    def test_each_search_equals_its_search_on_its_scenario_alone(self):
        # Each group's lanes are scored at the model's own p, not padded to
        # the ensemble's largest p, so every value is bit for bit that of
        # an ensemble of the row's scenario alone.
        ens = data.model_ensemble("pm10pm20")
        assert len({s.spec.p for s in ens.scenarios}) > 1
        for model in ens._models:
            searches = [(row, flavor) for row, cls in enumerate(ens._row_class)
                        if ens._classes[cls][0] is model for flavor in ("D", "D1")]
            together = solve_local(ens, searches, SMALL)
            for (row, flavor), got in zip(searches, together, strict=True):
                own = ScenarioEnsemble([ens.scenarios[row]], ens.initial_design, ens.m)
                (alone,) = solve_local(own, [(0, flavor)], SMALL)
                assert got.best_design == alone.best_design
                assert got.best_value == alone.best_value
                assert got.history == alone.history
                assert got.evaluations == alone.evaluations

    def stalling_temperature_searches(self, monkeypatch):
        """The D and D1 searches of pm10pm20's temperature scenarios at the
        STALLING budget, their results, and each objective call's stack
        shape and searches."""
        calls = []
        lockstep = optimizer.pso_lockstep

        def spy(objective, *args):
            def counted(stack, searches):
                calls.append((stack.shape, searches.tolist()))
                return objective(stack, searches)
            return lockstep(counted, *args)

        monkeypatch.setattr(optimizer, "pso_lockstep", spy)
        ens = data.model_ensemble("pm10pm20")
        searches = [(row, flavor) for row, s in enumerate(ens.scenarios)
                    if s.spec.name == "temperature" for flavor in ("D", "D1")]
        results = solve_local(ens, searches, self.STALLING)
        return searches, results, calls

    def test_scores_the_live_lanes_only(self, monkeypatch):
        searches, results, calls = self.stalling_temperature_searches(monkeypatch)
        # A lane is scored, in lane order, until it stops.
        lengths = [(j, len(h)) for j, r in enumerate(results) for h in r.history]
        assert len({n for _, n in lengths}) > 1
        swarm, g = self.STALLING.swarm_size, len(searches)
        live = [[j for j, n in lengths if n > t]
                for t in range(max(n for _, n in lengths))]
        assert calls == ([((len(js), swarm, 4, 4), js) for js in live]
                         + [((g, 1, 4, 4), list(range(g)))])
        assert (sum(shape[0] * shape[1] for shape, _ in calls)
                == swarm * sum(n for _, n in lengths) + g)

    def test_evaluations_are_the_designs_scored(self, monkeypatch):
        searches, results, calls = self.stalling_temperature_searches(monkeypatch)
        assert any(len(h) < self.STALLING.iterations + 1
                   for r in results for h in r.history)
        swarm = self.STALLING.swarm_size
        for j, result in enumerate(results):
            scored = sum(swarm * js.count(j) for _, js in calls[:-1])
            assert result.evaluations == scored

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        swarm=st.integers(2, 8),
        iterations=st.integers(1, 250),
        restarts=st.integers(1, 4),
        m=st.integers(1, 3),
        indices=st.lists(st.integers(0, 3), min_size=1, max_size=4,
                         unique=True).map(tuple),
        searches=st.integers(1, 3),
        seeded=st.booleans(),
    )
    @example(**UNEVEN)
    def test_equals_the_sequential_loop(self, seed, swarm, iterations, restarts,
                                        m, indices, searches, seeded):
        config = PsoConfig(swarm_size=swarm, iterations=iterations,
                           restarts=restarts, seed=seed)
        seeds = [np.full((m, 4), 0.5)] if seeded else []
        together = optimizer.pso_lockstep(plateaus, searches, m, indices, config,
                                          seeds)
        one_by_one = pso_sequential(plateaus_by_row, searches, m, indices, config,
                                    seeds)
        for got, want in zip(together, one_by_one, strict=True):
            assert got.best_design == want.best_design
            assert got.best_value == want.best_value
            assert got.history == want.history
            assert got.evaluations == want.evaluations

    def test_uneven_restarts_stop_apart(self):
        config = PsoConfig(swarm_size=UNEVEN["swarm"], iterations=UNEVEN["iterations"],
                           restarts=UNEVEN["restarts"], seed=UNEVEN["seed"])
        results = optimizer.pso_lockstep(plateaus, UNEVEN["searches"], UNEVEN["m"],
                                         UNEVEN["indices"], config)
        longest = [max(len(r.history[k]) for r in results)
                   for k in range(config.restarts)]
        assert len(set(longest)) == config.restarts
        assert max(longest) <= config.iterations

    def test_one_search_is_pso_maximize(self):
        # sphere sums over the last two axes, so it scores (L, k, 2, 4) too.
        (together,) = optimizer.pso_lockstep(lambda stack, _: sphere(stack),
                                             1, 2, ALL, SMALL)
        alone = pso_maximize(sphere, 2, ALL, SMALL)
        assert together.best_design == alone.best_design
        assert (together.best_value, together.history, together.evaluations) == (
            alone.best_value, alone.history, alone.evaluations)

    def test_searches_of_two_models_are_rejected(self):
        ens = data.model_ensemble("fixed")
        assert ens.scenarios[0].spec is not ens.scenarios[1].spec
        with pytest.raises(ValueError, match="share one model"):
            solve_local(ens, [(0, "D"), (1, "D")], SMALL)
        with pytest.raises(ValueError, match="at least one search"):
            solve_local(ens, [], SMALL)

    def test_searches_over_several_betas_of_a_model_are_rejected(self):
        # Rows of two (model, beta) groups are rejected, and the error names
        # the model; a log-link model's weights do not depend on beta, so
        # its two betas form one group.
        for name, rejected in (("temperature", True), ("velocity", False)):
            base = data.ESTIMATES[name]
            scaled = ParamPoint(tuple(1.1 * b for b in base.beta), base.gamma)
            ens = ScenarioEnsemble([Scenario(data.MODELS[name], q)
                                    for q in (base, scaled)], data.initial_design(), 4)
            assert len(ens._models) == (2 if rejected else 1)
            searches = [(0, "D"), (1, "D")]
            if rejected:
                with pytest.raises(ValueError, match=f"model {name!r}"):
                    solve_local(ens, searches, SMALL)
            else:
                assert len(solve_local(ens, searches, PsoConfig(4, 2, 1))) == 2


class TestEnsembleSolvers:
    def test_bayes_requires_cache(self):
        ens = data.model_ensemble("fixed")
        with pytest.raises(MissingCacheError):
            solve_compromise(ens, 1.0, PsoConfig(
                swarm_size=4, iterations=2, restarts=1, seed=0))

    def test_bayes_dominates_published_design(self, fixed_gamma_ensemble):
        ens = fixed_gamma_ensemble
        result = solve_compromise(ens, 1.0, SMALL)
        published = phi_bayes(ens, data.BAYES_D_FIXED, "D")
        assert result.best_value >= published - 1e-6

    def test_compromise_dominates_published_design(self, fixed_gamma_ensemble):
        ens = fixed_gamma_ensemble
        result = solve_compromise(ens, 0.5, SMALL)
        published = phi_compromise(ens, data.COMPROMISE_DESIGN, 0.5)
        assert result.best_value >= published - 1e-6
        assert np.all(result.best_design.days == 1)
