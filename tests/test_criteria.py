import collections
import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from augdesign import (
    Design,
    MissingCacheError,
    ParamPoint,
    PsoConfig,
    Scenario,
    ScenarioEnsemble,
    build_cache,
    d1_ratio_vs_d_optimum,
    eff_D,
    eff_D1,
    fisher_info,
    phi_bayes,
    phi_compromise,
)
from augdesign import criteria, data
from augdesign.glm import InvalidPredictorError, Link
from augdesign.information import factor_log_det
import assembly_oracle
from mp_oracle import mp_criteria
from scalar_oracle import phi_D, phi_D1


def scaled_scenario(name, c):
    base = data.ESTIMATES[name]
    return Scenario(
        data.MODELS[name],
        ParamPoint(tuple(c * b for b in base.beta), c * base.gamma),
    )


class TestScenario:
    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            Scenario(data.MODELS["velocity"], data.ESTIMATES["velocity"], 0.0)

    @pytest.mark.parametrize(
        "weight", [np.nan, np.inf, -np.inf, True, "1", None],
        ids=["nan", "inf", "-inf", "bool", "string", "none"],
    )
    def test_weight_must_be_a_finite_number(self, weight):
        with pytest.raises(ValueError, match="model 'velocity' has weight"):
            Scenario(data.MODELS["velocity"], data.ESTIMATES["velocity"], weight)

    def test_gamma_required(self):
        with pytest.raises(ValueError):
            Scenario(
                data.MODELS["velocity"],
                ParamPoint(data.ESTIMATES["velocity"].beta),
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["beta", "gamma"])
    def test_non_finite_parameters_rejected(self, field, value):
        base = data.ESTIMATES["velocity"]
        if field == "beta":
            params = ParamPoint((value, *base.beta[1:]), base.gamma)
        else:
            params = ParamPoint(base.beta, value)
        with pytest.raises(ValueError, match="model 'velocity' has a non-finite"):
            Scenario(data.MODELS["velocity"], params)


class TestEnsemble:
    def test_weights_are_normalized(self):
        scenarios = [
            Scenario(data.MODELS[n], data.ESTIMATES[n], 2.0)
            for n in data.RESPONSES
        ]
        ens = ScenarioEnsemble(scenarios, data.initial_design(), 4)
        assert sum(s.weight for s in ens.scenarios) == pytest.approx(1.0)

    def test_weights_whose_sum_overflows_are_normalized(self):
        def weights(*values):
            scenarios = [
                Scenario(data.MODELS[n], data.ESTIMATES[n], w)
                for n, w in zip(data.RESPONSES, values)
            ]
            ens = ScenarioEnsemble(scenarios, data.initial_design(), 4)
            return [s.weight for s in ens.scenarios]

        assert weights(1e308, 1e308, 1e308, 1e308) == [0.25] * 4
        w = weights(1e308, 1e308, 1.0)
        assert all(0.0 < v < np.inf for v in w)
        assert sum(w) == pytest.approx(1.0)

    def test_weights_spanning_too_wide_a_range_are_rejected(self):
        # 1e-308 / 1e308 underflows to 0, a weight the caller never passed.
        scenarios = [
            Scenario(data.MODELS["temperature"], data.ESTIMATES["temperature"], 1e308),
            Scenario(data.MODELS["velocity"], data.ESTIMATES["velocity"], 1e-308),
        ]
        with pytest.raises(
            ValueError, match="span too wide a range to normalise: model 'velocity'"
        ):
            ScenarioEnsemble(scenarios, data.initial_design(), 4)

    @pytest.mark.parametrize(
        "gammas", ["fixed", "pm10", "pm10pm20", None],
        ids=["fixed", "pm10", "pm10pm20", "low-intercept-and-scaled-beta"],
    )
    def test_initial_blocks_equal_fisher_info(self, gammas):
        # Each model whitens its day-0 block once per distinct beta; the
        # factor and log-determinant a scenario's group holds are those of
        # the scenario's own information, bit for bit.  STACK_ENSEMBLE adds
        # scenarios whose beta differs within a model.
        ens = data.model_ensemble(gammas) if gammas else STACK_ENSEMBLE
        for s, cls in zip(ens.scenarios, ens._row_class):
            (model, _), p = ens._classes[cls], s.spec.p
            block = fisher_info(s.spec, s.params, data.initial_design())[:p, :p]
            chol = np.linalg.cholesky(block)
            assert model.whiten.tobytes() == np.linalg.inv(chol).T.tobytes()
            assert model.log_det == factor_log_det(chol)
        # A log-link model's weights are all 1: one group whatever its beta.
        log = [id(model.spec) for model in ens._models if model.spec.link is Link.LOG]
        assert len(log) == len(set(log))

    def test_singular_initial_information_names_the_model(self):
        # Four runs cannot identify the temperature model's five terms.
        few = Design.from_coords(data.initial_design().coords[:4])
        s = Scenario(data.MODELS["temperature"], data.ESTIMATES["temperature"])
        with pytest.raises(ValueError,
                           match="under model 'temperature' is singular"):
            ScenarioEnsemble([s], few, 4)

    def test_initial_design_must_be_day_zero(self):
        with pytest.raises(ValueError):
            ScenarioEnsemble(
                [Scenario(data.MODELS["velocity"], data.ESTIMATES["velocity"])],
                data.REFERENCE_DESIGN,
                4,
            )

    def test_needs_scenarios(self):
        with pytest.raises(ValueError):
            ScenarioEnsemble([], data.initial_design(), 4)

    def test_foreign_scenario_rejected(self):
        ens = data.single_scenario_ensemble("velocity")
        other = Scenario(data.MODELS["temperature"], data.ESTIMATES["temperature"])
        with pytest.raises(KeyError):
            eff_D(other, data.REFERENCE_DESIGN, ens)

    def test_missing_cache_raises(self):
        ens = data.single_scenario_ensemble("velocity")
        with pytest.raises(MissingCacheError):
            eff_D(ens.scenarios[0], data.REFERENCE_DESIGN, ens)

    @pytest.mark.parametrize("reader", [eff_D, eff_D1, d1_ratio_vs_d_optimum])
    def test_each_reader_reads_its_own_scenarios_optima(self, reader):
        ens = data.model_ensemble("fixed")
        for i, name in enumerate(data.RESPONSES):
            if i != 2:
                ens.set_optimal(i, data.LOCAL_D_OPTIMAL[name],
                                data.LOCAL_D1_OPTIMAL[name])
        with pytest.raises(MissingCacheError, match="no cached optimum for scenario 2;"):
            reader(ens.scenarios[2], data.REFERENCE_DESIGN, ens)
        for i in (1, 3):
            assert reader(ens.scenarios[i], data.REFERENCE_DESIGN, ens) > 0.0
        # Same model object, other parameters: not one of the ensemble's.
        with pytest.raises(KeyError, match="does not belong to this ensemble"):
            reader(scaled_scenario("temperature", 2.0), data.REFERENCE_DESIGN, ens)

    @pytest.mark.parametrize("row", [0, 1])
    def test_repeated_scenario_reads_the_optima_set_on_either_row(self, row):
        # Both rows of a repeated scenario are one information class, so
        # the optima cached through either row are the ones every reader reads.
        optima = (data.LOCAL_D_OPTIMAL["velocity"], data.LOCAL_D1_OPTIMAL["velocity"])
        single = data.single_scenario_ensemble("velocity")
        single.set_optimal(0, *optima)
        s = single.scenarios[0]
        ens = ScenarioEnsemble([s, s], data.initial_design(), 4)
        ens.set_optimal(row, *optima)
        for reader in (eff_D, eff_D1, d1_ratio_vs_d_optimum):
            want = reader(s, data.REFERENCE_DESIGN, single)
            for t in ens.scenarios:
                assert reader(t, data.REFERENCE_DESIGN, ens) == pytest.approx(
                    want, rel=1e-12)

    def test_log_link_rows_read_the_optima_set_on_one_row(self):
        # A log link's weights are all 1, so every row of velocity, whatever
        # its beta and gamma, is one information class with one cache slot.
        base = data.ESTIMATES["velocity"]
        scaled = tuple(1.1 * b for b in base.beta)
        ens = ScenarioEnsemble([
            Scenario(data.MODELS["velocity"], q) for q in (
                base, ParamPoint(base.beta, 1.1 * base.gamma),
                ParamPoint(scaled, base.gamma))
        ], data.initial_design(), 4)
        ens.set_optimal(0, data.LOCAL_D_OPTIMAL["velocity"],
                        data.LOCAL_D1_OPTIMAL["velocity"])
        for reader in (eff_D, eff_D1, d1_ratio_vs_d_optimum):
            want = reader(ens.scenarios[0], data.REFERENCE_DESIGN, ens)
            assert want > 0.0
            for s in ens.scenarios[1:]:
                assert reader(s, data.REFERENCE_DESIGN, ens) == want

    def test_rows_of_another_gamma_keep_their_own_slot(self):
        # Under the identity link, gamma enters the weights: the row at 1.1
        # gamma is a class of its own, which set_optimal(0) leaves uncached.
        base = data.ESTIMATES["temperature"]
        ens = ScenarioEnsemble([
            Scenario(data.MODELS["temperature"], q)
            for q in (base, ParamPoint(base.beta, 1.1 * base.gamma))
        ], data.initial_design(), 4)
        ens.set_optimal(0, data.LOCAL_D_OPTIMAL["temperature"],
                        data.LOCAL_D1_OPTIMAL["temperature"])
        for reader in (eff_D, eff_D1, d1_ratio_vs_d_optimum):
            assert reader(ens.scenarios[0], data.REFERENCE_DESIGN, ens) > 0.0
            with pytest.raises(MissingCacheError,
                               match="no cached optimum for scenario 1;"):
                reader(ens.scenarios[1], data.REFERENCE_DESIGN, ens)


# pm10pm20 holds five day-effect values per model, so drawing a model and a
# variant index covers all twenty scenarios.
PM10PM20 = data.model_ensemble("pm10pm20")
VARIANTS = 5
new_runs_strategy = st.lists(
    st.tuples(*[st.floats(-2, 2, allow_nan=False) for _ in range(4)]),
    min_size=4, max_size=4,
)


def direct_information(name, variant, new_runs):
    """The scenario's position and its information matrix, assembled from
    the whole design rather than the ensemble's cached initial block."""
    idx = data.RESPONSES.index(name) * VARIANTS + variant
    s = PM10PM20.scenarios[idx]
    design = data.initial_design().concat(Design.from_coords(new_runs, day=1))
    return idx, fisher_info(s.spec, s.params, design)


class TestPhi:
    """The D and D1 criteria of one design (``score_design``, Cholesky)
    against an LU-based numpy oracle."""

    @pytest.mark.parametrize("name", data.RESPONSES)
    @settings(max_examples=25, deadline=None)
    @given(new_runs=new_runs_strategy, variant=st.integers(0, VARIANTS - 1))
    @example(new_runs=data.REFERENCE_DESIGN.coords, variant=2)
    def test_phi_d_matches_direct_information(self, name, new_runs, variant):
        idx, info = direct_information(name, variant, new_runs)
        sign, logdet = np.linalg.slogdet(info)
        assert sign == 1.0
        expect = np.exp(logdet / len(info))
        got = PM10PM20.score_design(Design.from_coords(new_runs, day=1)).D[idx]
        assert got == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("name", data.RESPONSES)
    @settings(max_examples=25, deadline=None)
    @given(new_runs=new_runs_strategy, variant=st.integers(0, VARIANTS - 1))
    @example(new_runs=data.REFERENCE_DESIGN.coords, variant=2)
    def test_phi_d1_matches_direct_information(self, name, new_runs, variant):
        idx, info = direct_information(name, variant, new_runs)
        expect = 1.0 / np.linalg.inv(info)[-1, -1]
        got = PM10PM20.score_design(Design.from_coords(new_runs, day=1)).D1[idx]
        assert got == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("flavor", ["D", "D1"], ids=["phi_D", "phi_D1"])
    def test_stack_of_designs_rejected(self, flavor):
        # Flattening three 4-run designs would score one 12-run design:
        # score_design takes a Design only, and score gives a stack one
        # column per design.
        stack = np.stack([data.REFERENCE_DESIGN.coords] * 3)
        with pytest.raises(TypeError, match="got ndarray"):
            PM10PM20.score_design(stack)
        one = getattr(PM10PM20.score_design(data.REFERENCE_DESIGN), flavor)
        got = getattr(PM10PM20.score(stack), flavor)
        assert got.shape == (len(PM10PM20.scenarios), 3)
        np.testing.assert_allclose(got, np.repeat(one[:, None], 3, axis=1),
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "shape", [(4, 3), (4, 5), (16,), (2, 4, 3)], ids=["4x3", "4x5", "16", "2x4x3"]
    )
    def test_wrong_number_of_coordinates_rejected(self, shape):
        # A (4, 3) array once read as a different 3-run design.  Arrays
        # are scored by ``score`` only, which takes (k, m, 4) stacks.
        ens = STACK_ENSEMBLE
        runs = np.full(shape, 0.5)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            ens.score(runs)
        with pytest.raises(TypeError, match="got ndarray"):
            eff_D(ens.scenarios[0], runs, ens)
        with pytest.raises(TypeError, match="got ndarray"):
            phi_bayes(ens, runs, "D1")

    def test_no_new_runs_gives_zero(self, local_ensembles):
        # No new runs is a stack of one design of 0 runs.
        ens = local_ensembles["temperature"]
        scores = ens.score(np.empty((1, 0, 4)))
        assert eff_D(ens.scenarios[0], scores, ens).tolist() == [0.0]
        assert eff_D1(ens.scenarios[0], scores, ens).tolist() == [0.0]
        assert phi_bayes(ens, scores, "D").tolist() == [0.0]

    @pytest.mark.parametrize("shape", [(1, 0, 4), (2, 0, 4), (5, 0, 4)])
    def test_empty_array_is_no_new_runs(self, shape):
        ens = data.single_scenario_ensemble("temperature")
        scores = ens.score(np.empty(shape))
        assert np.array_equal(scores.D, np.zeros((1, shape[0])))
        assert np.array_equal(scores.D1, np.zeros((1, shape[0])))

    def test_day_zero_new_runs_rejected(self):
        ens = data.single_scenario_ensemble("temperature")
        day0 = Design.from_coords(data.REFERENCE_DESIGN.coords, day=0)
        with pytest.raises(ValueError):
            ens.score_design(day0)

    def test_infeasible_design_scores_zero(self):
        # Push the temperature predictor negative on a day-1 run.
        name = "temperature"
        base = data.ESTIMATES[name]
        s = Scenario(data.MODELS[name], ParamPoint(base.beta, -2000.0))
        ens = ScenarioEnsemble([s], data.initial_design(), 4)
        scores = ens.score_design(data.REFERENCE_DESIGN)
        assert scores.D[0] == 0.0
        assert scores.D1[0] == 0.0
        assert phi_D(ens.scenarios[0], data.REFERENCE_DESIGN, ens) == 0.0
        assert phi_D1(ens.scenarios[0], data.REFERENCE_DESIGN, ens) == 0.0


class TestEfficiencyInvariance:
    @pytest.mark.parametrize("name", ["temperature", "flame_width"])
    @pytest.mark.parametrize("c", [0.5, 3.0])
    def test_identity_inverse_efficiency_is_scale_free(self, name, c):
        plain = ScenarioEnsemble(
            [scaled_scenario(name, 1.0)], data.initial_design(), 4
        )
        scaled = ScenarioEnsemble(
            [scaled_scenario(name, c)], data.initial_design(), 4
        )
        for ens in (plain, scaled):
            ens.set_optimal(
                0, data.LOCAL_D_OPTIMAL[name], data.LOCAL_D1_OPTIMAL[name]
            )
        args = (data.REFERENCE_DESIGN,)
        assert eff_D(plain.scenarios[0], *args, plain) == pytest.approx(
            eff_D(scaled.scenarios[0], *args, scaled), rel=1e-9
        )
        assert eff_D1(plain.scenarios[0], *args, plain) == pytest.approx(
            eff_D1(scaled.scenarios[0], *args, scaled), rel=1e-9
        )

    def test_log_link_criterion_ignores_beta(self):
        name = "velocity"
        gamma = data.ESTIMATES[name].gamma
        a = Scenario(data.MODELS[name], data.ESTIMATES[name])
        b = Scenario(
            data.MODELS[name],
            ParamPoint(tuple(np.zeros(data.MODELS[name].p)), gamma),
        )
        ens_a = ScenarioEnsemble([a], data.initial_design(), 4)
        ens_b = ScenarioEnsemble([b], data.initial_design(), 4)
        va = ens_a.score_design(data.REFERENCE_DESIGN).D[0]
        vb = ens_b.score_design(data.REFERENCE_DESIGN).D[0]
        assert va == pytest.approx(vb, rel=1e-12)


class TestBayesAndCompromise:
    def test_weighted_average(self, fixed_gamma_ensemble):
        ens = fixed_gamma_ensemble
        total = sum(
            s.weight * eff_D(s, data.REFERENCE_DESIGN, ens)
            for s in ens.scenarios
        )
        assert phi_bayes(ens, data.REFERENCE_DESIGN, "D") == pytest.approx(total)

    def test_bad_flavor(self, fixed_gamma_ensemble):
        with pytest.raises(ValueError):
            phi_bayes(fixed_gamma_ensemble, data.REFERENCE_DESIGN, "A")

    def test_alpha_bounds(self, fixed_gamma_ensemble):
        with pytest.raises(ValueError):
            phi_compromise(fixed_gamma_ensemble, data.REFERENCE_DESIGN, 1.5)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_compromise_is_affine_in_alpha(self, a1, a2, t):
        ens = _affine_ensemble()
        design = data.REFERENCE_DESIGN
        mid = t * a1 + (1 - t) * a2
        lhs = phi_compromise(ens, design, mid)
        rhs = t * phi_compromise(ens, design, a1) + (1 - t) * phi_compromise(
            ens, design, a2
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_endpoints_recover_bayes(self, fixed_gamma_ensemble):
        ens = fixed_gamma_ensemble
        design = data.BAYES_D_FIXED
        assert phi_compromise(ens, design, 1.0) == pytest.approx(
            phi_bayes(ens, design, "D")
        )
        assert phi_compromise(ens, design, 0.0) == pytest.approx(
            phi_bayes(ens, design, "D1")
        )

    @pytest.mark.parametrize(
        "alpha, flavor, skipped", [(1.0, "D", "eff_D1"), (0.0, "D1", "eff_D")]
    )
    def test_endpoints_skip_the_zero_weight_average(
        self, fixed_gamma_ensemble, monkeypatch, alpha, flavor, skipped
    ):
        ens = fixed_gamma_ensemble
        design = data.BAYES_D_FIXED
        expect = phi_bayes(ens, design, flavor)

        def not_evaluated(*args):
            raise AssertionError(f"{skipped} evaluated at alpha={alpha}")

        monkeypatch.setattr(criteria, skipped, not_evaluated)
        assert phi_compromise(ens, design, alpha) == expect


def _low_intercept_temperature():
    """The temperature model with its intercept lowered by 1400: the initial
    design and the bundled optima stay feasible, but the day-1 predictor is
    negative at some corners of the box."""
    base = data.ESTIMATES["temperature"]
    return Scenario(
        data.MODELS["temperature"],
        ParamPoint((base.beta[0] - 1400.0, *base.beta[1:]), base.gamma),
    )


def _stack_ensemble():
    """All twenty pm10pm20 scenarios plus the low-intercept one and a
    flame-width scenario with its coefficients scaled by 1.3, with the
    bundled local optima cached.  pm10pm20 shares beta within each model;
    the two extra scenarios give the temperature and flame-width models
    scenarios with different beta."""
    ens = ScenarioEnsemble(
        [*PM10PM20.scenarios, scaled_scenario("flame_width", 1.3),
         _low_intercept_temperature()],
        data.initial_design(), 4,
    )
    for i, s in enumerate(ens.scenarios):
        ens.set_optimal(
            i, data.LOCAL_D_OPTIMAL[s.spec.name], data.LOCAL_D1_OPTIMAL[s.spec.name]
        )
    return ens


STACK_ENSEMBLE = _stack_ensemble()
LOW = STACK_ENSEMBLE.scenarios[-1]
# The 16 box corners as four 4-run designs, and the reference design.
CORNER_STACK = np.concatenate([
    np.array(list(itertools.product([-2.0, 2.0], repeat=4))).reshape(4, 4, 4),
    data.REFERENCE_DESIGN.coords[None],
])
# A design whose day-1 predictor under LOW is a small difference of large
# terms: one Z·B product over the model's distinct coefficient vectors
# rounds it unlike the one-scenario Z·beta, and phi_D moves by 1e-11.  The
# scalar reference strays by 3.8e-12 on it, so the oracle decides there.
NEAR_ZERO_PREDICTOR_STACK = np.full((1, 4, 4), 0.8828125)
NEAR_ZERO_PREDICTOR_STACK[0, 0, 1] = -2.0
coordinate = st.one_of(st.sampled_from([-2.0, 2.0]), st.floats(-2, 2))
stack_strategy = st.integers(1, 30).flatmap(
    lambda k: arrays(np.float64, (k, 4, 4), elements=coordinate)
)

# One stack of k designs per scenario of STACK_ENSEMBLE, scored aligned.
aligned_strategy = st.integers(1, 4).flatmap(
    lambda k: arrays(np.float64, (len(STACK_ENSEMBLE.scenarios), k, 4, 4),
                     elements=coordinate)
)
# Row j holds the reference design and the corner designs, rolled by j, so
# each scenario scores its own order of them.
ALIGNED_CORNERS = np.stack([
    np.roll(CORNER_STACK[::-1], j, axis=0)
    for j in range(len(STACK_ENSEMBLE.scenarios))
])


def model_rows(ens, model):
    """The rows of ``model``'s scenarios in the ensemble, and the class of
    each in the model."""
    rows = [i for i, cls in enumerate(ens._row_class) if ens._classes[cls][0] is model]
    return rows, np.array([ens._classes[ens._row_class[i]][1] for i in rows])


def row_optima(ens, row):
    """The cached optima that row ``row`` of the ensemble reads: those of
    its information class, or None."""
    return ens._optima[ens._row_class[row]]


def aligned_scores(ens, stack):
    """The (2, S, k) criteria of an (S, k, m, 4) stack, row j scored under
    scenario j only: each model's rows as lanes of ``_score``."""
    values = np.empty((2, *stack.shape[:2]))
    for model in ens._models:
        rows, lanes = model_rows(ens, model)
        values[:, rows] = criteria._score([model], stack[rows], ens._width, lanes)
    return values


def assert_same_as_scalar(stacked, scalar):
    scalar = np.array(scalar)
    assert stacked.shape == scalar.shape
    assert np.array_equal(stacked == 0.0, scalar == 0.0)
    np.testing.assert_allclose(stacked, scalar, rtol=1e-12, atol=0.0)


def reference_phi(ens, designs):
    """The (2, S, k) D and D1 criteria of k (m, 4) designs from the scalar
    phi_D and phi_D1.  Where the kernel's value differs from the scalar one
    by more than 1e-12 relative, the 60-digit oracle decides: its values
    stand in for the scalar ones."""
    designs = np.asarray(designs, dtype=float)
    want = np.array([[[phi(s, d, ens) for d in designs] for s in ens.scenarios]
                     for phi in (phi_D, phi_D1)])
    got = np.stack(ens.score(designs))
    for i, j in zip(*np.nonzero((np.abs(got - want) > 1e-12 * want).any(axis=0))):
        want[:, i, j] = mp_scores(ens.scenarios[i], designs[j], ens)
    return want


def scalar_criteria(ens, designs):
    """eff_D and eff_D1 as (S, k) arrays, and the two Bayesian averages as
    length-k arrays, of k designs from ``reference_phi`` and the cached
    optima."""
    phi = reference_phi(ens, designs)
    optima = np.array([row_optima(ens, i)[:2] for i in range(len(ens.scenarios))]).T
    effs = {flavor: phi[c] / optima[c][:, None] for c, flavor in enumerate(("D", "D1"))}
    bayes = {
        flavor: sum(s.weight * row for s, row in zip(ens.scenarios, eff))
        for flavor, eff in effs.items()
    }
    return effs, bayes


def assert_criteria_are_scalar(ens, new_runs, expected, column=slice(None)):
    """eff_D, eff_D1, phi_bayes and phi_compromise of ``new_runs`` against
    ``column`` of the scalar values from ``scalar_criteria``."""
    effs, bayes = expected
    for i, s in enumerate(ens.scenarios):
        assert_same_as_scalar(eff_D(s, new_runs, ens), effs["D"][i, column])
        assert_same_as_scalar(eff_D1(s, new_runs, ens), effs["D1"][i, column])
    for flavor in ("D", "D1"):
        assert_same_as_scalar(
            phi_bayes(ens, new_runs, flavor), bayes[flavor][column]
        )
    for alpha in (0.0, 0.5, 1.0):
        assert_same_as_scalar(
            phi_compromise(ens, new_runs, alpha),
            alpha * bayes["D"][column] + (1 - alpha) * bayes["D1"][column],
        )


def count_factorizations(monkeypatch):
    """Record the shape of every ``np.linalg.cholesky`` call."""
    calls, cholesky = [], np.linalg.cholesky

    def counted_cholesky(a):
        calls.append(np.shape(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    return calls


def mp_scores(scenario, coords, ensemble):
    """The D and D1 criteria of one (m, 4) design of day-1 runs from the
    60-digit oracle, with no domain check."""
    design = ensemble.initial_design.concat(Design.from_coords(coords, day=1))
    return mp_criteria(scenario.spec, scenario.params, design)


def assert_near_oracle(got, want, rtol):
    """Each value positive and within ``rtol`` of the oracle's, relative."""
    for g, w in zip(got, want):
        assert g > 0.0 and abs(g - w) <= rtol * w


class TestStacked:
    """A (k, m, 4) stack of designs against the scalar path, design by design."""

    @settings(max_examples=15, deadline=None)
    @given(stack=stack_strategy)
    @example(stack=CORNER_STACK)
    @example(stack=NEAR_ZERO_PREDICTOR_STACK)
    def test_stack_matches_scalar_calls(self, stack):
        ens = STACK_ENSEMBLE
        for name in ("temperature", "flame_width"):
            betas = {s.params.beta for s in ens.scenarios if s.spec.name == name}
            assert len(betas) == 2
        scores = ens.score(stack)
        want = reference_phi(ens, stack)
        for got, expect in zip(scores, want):
            for i in range(len(ens.scenarios)):
                assert_same_as_scalar(got[i], expect[i])
        assert_criteria_are_scalar(ens, scores, scalar_criteria(ens, stack))

    @settings(max_examples=15, deadline=None)
    @given(stack=aligned_strategy)
    @example(stack=ALIGNED_CORNERS)
    def test_aligned_rows_equal_the_broadcast_rows(self, stack):
        # Row j of an aligned stack, scored by its model's kernel under
        # scenario j only, gives exactly scenario j's row of the broadcast
        # score of those designs, zeros of the low-intercept scenario's
        # domain mask included.
        ens = STACK_ENSEMBLE
        aligned = aligned_scores(ens, stack)
        for j, designs in enumerate(stack):
            broadcast = ens.score(designs)
            for got, want in zip(aligned, broadcast):
                assert np.array_equal(got[j], want[j])

    def test_aligned_corners_meet_the_domain_mask(self):
        low = STACK_ENSEMBLE.scenarios.index(LOW)
        scores = aligned_scores(STACK_ENSEMBLE, ALIGNED_CORNERS)
        # LOW's row holds the reference design at position low % 5; some of
        # its corner designs leave the link domain.
        reference = low % len(CORNER_STACK)
        for got in scores:
            assert got[low, reference] > 0.0
            assert np.any(np.delete(got[low], reference) == 0.0)
            assert np.all(np.delete(got, low, axis=0) > 0.0)

    @pytest.mark.parametrize("shape", [(2, 3, 4, 4), (22, 3, 4, 5), (23, 1, 4, 4)])
    def test_stack_of_another_shape_is_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            STACK_ENSEMBLE.score(np.zeros(shape))

    def test_infeasible_design_scores_zero_in_a_stack(self):
        ens = STACK_ENSEMBLE
        values = eff_D(LOW, ens.score(CORNER_STACK), ens)
        assert values[-1] > 0.0
        assert np.any(values[:-1] == 0.0)
        opt = row_optima(ens, ens.scenarios.index(LOW))[0]
        assert_same_as_scalar(
            values, [phi_D(LOW, d, ens) / opt for d in CORNER_STACK]
        )

    @pytest.mark.parametrize("flavor, phi", [("D", phi_D), ("D1", phi_D1)])
    def test_singular_matrix_scores_zero_in_a_stack(self, flavor, phi):
        # With gamma = 1e9 the day-1 weights (about 1e-18) vanish next to the
        # day-0 block.  The factorization of the whole information fails the
        # SINGULAR_TOL test and the scalar reference scores 0, but every
        # design lies inside the link domain, so the kernel scores it, as
        # the 60-digit oracle does (D1 near 4e-18).
        base = data.ESTIMATES["temperature"]
        s = Scenario(data.MODELS["temperature"], ParamPoint(base.beta, 1e9))
        ens = ScenarioEnsemble([s], data.initial_design(), 4)
        s = ens.scenarios[0]
        column = ("D", "D1").index(flavor)
        got = getattr(ens.score(CORNER_STACK), flavor)[0]
        for value, d in zip(got, CORNER_STACK):
            assert phi(s, d, ens) == 0.0
            want = mp_scores(s, d, ens)[column]
            assert value > 0.0 and abs(value - want) <= 1e-12 * want

    def test_stack_of_no_designs_scores_nothing(self):
        scores = STACK_ENSEMBLE.score(np.empty((0, 4, 4)))
        assert scores.D.shape == scores.D1.shape == (len(STACK_ENSEMBLE.scenarios), 0)

    def test_stack_of_one_is_the_scalar_value(self):
        design = data.REFERENCE_DESIGN.coords
        scores = STACK_ENSEMBLE.score(design[None])
        for i, s in enumerate(STACK_ENSEMBLE.scenarios):
            for flavor, phi in (("D", phi_D), ("D1", phi_D1)):
                got = getattr(scores, flavor)[i]
                assert got.shape == (1,)
                assert got[0] == pytest.approx(
                    phi(s, design, STACK_ENSEMBLE), rel=1e-12
                )

    @pytest.mark.parametrize("m", range(1, 7))
    def test_design_alone_scores_as_in_a_stack(self, m):
        # BLAS picks the path of Z @ whiten and Z @ beta by row count, so a
        # design scored alone may differ from its column of a stack in the
        # last bits, and by no more.
        ens = data.model_ensemble("pm10pm20", m=m)
        stack = np.random.default_rng(m).uniform(-2.0, 2.0, (40, m, 4))
        stacked = ens.score(stack)
        for j, design in enumerate(stack):
            for alone, want in zip(ens.score(design[None]), stacked):
                np.testing.assert_allclose(alone[:, 0], want[:, j], rtol=1e-13, atol=0)

    def test_domain_violation_zeroes_only_its_scenario(self, monkeypatch):
        ens = STACK_ENSEMBLE
        low = ens.scenarios.index(LOW)
        expect = [
            [[phi(s, d, ens) for d in CORNER_STACK] for s in ens.scenarios]
            for phi in (phi_D, phi_D1)
        ]
        calls = count_factorizations(monkeypatch)
        scores = ens.score(CORNER_STACK)
        assert calls == []
        for got, want in zip(scores, expect):
            assert_same_as_scalar(got, want)
            # Every other scenario scores every corner design.
            assert np.any(got[low] == 0.0)
            assert np.all(np.delete(got, low, axis=0) > 0.0)

    def test_failed_factorization_sends_only_its_model_to_the_scalar_path(
        self, monkeypatch
    ):
        # A day-1 predictor of 1e-3 (1e-6) at the centre weights its runs by
        # 1e6 (1e12).  The stacked reference then fails the SINGULAR_TOL test
        # (numpy's Cholesky rejects the matrix at 1e-6) and scores the centre
        # design 0; the scalar one strays by 1.6e-5 at 1e-3 and scores 0 at
        # 1e-6.  The kernel factors no matrix with LAPACK, scores
        # the centre design as the 60-digit oracle does, and still scores 0
        # the corner designs that leave the link domain.
        base = data.ESTIMATES["temperature"]
        velocity = Scenario(data.MODELS["velocity"], data.ESTIMATES["velocity"])
        stack = np.concatenate([np.zeros((1, 4, 4)), CORNER_STACK])
        # Four centre runs of weight 1e12 give U U^T entries near 1e17, and
        # the elimination's error grows with their square root: D is good to
        # 1e-8 there, and to 1e-12 at 1e-3, as D1 is at both.
        for predictor, rtol in ((1e-3, 1e-12), (1e-6, 1e-8)):
            near_zero = Scenario(data.MODELS["temperature"],
                                 ParamPoint(base.beta, predictor - base.beta[0]))
            ens = ScenarioEnsemble([near_zero, velocity], data.initial_design(), 4)
            expect = reference_phi(ens, stack[1:])
            calls = count_factorizations(monkeypatch)
            scores = ens.score(stack)
            assert calls == []
            near_zero = ens.scenarios[0]
            want = mp_scores(near_zero, stack[0], ens)
            # The reference scores 0 or strays by more than 1e-6.
            assert abs(phi_D(near_zero, stack[0], ens) - want[0]) > 1e-6 * want[0]
            assert_near_oracle([scores.D[0, 0]], want[:1], rtol)
            assert_near_oracle([scores.D1[0, 0]], want[1:], 1e-12)
            for got, want in zip(scores, expect):
                assert_same_as_scalar(got[:, 1:], want)
                assert np.any(got[0] == 0.0) and np.all(got[1] > 0.0)


def _temperature_with(intercept=None, predictor=None):
    """A temperature scenario with its intercept replaced, as CI's model
    files do, or with gamma set so that the centre's day-1 predictor is
    ``predictor``."""
    base = data.ESTIMATES["temperature"]
    beta = base.beta if intercept is None else (intercept, *base.beta[1:])
    gamma = base.gamma if predictor is None else predictor - beta[0]
    return Scenario(data.MODELS["temperature"], ParamPoint(beta, gamma))


def _oracle_ensemble():
    """STACK_ENSEMBLE's scenarios, one whose day-1 predictor is 1e-6 at the
    centre, so that the reference rejects any design with a centre run, and
    the temperature model with intercept 100, whose corner designs leave the
    link domain.  Its temperature and flame-width models have several beta
    each, and its models span the three links."""
    return ScenarioEnsemble(
        [*STACK_ENSEMBLE.scenarios, _temperature_with(predictor=1e-6),
         _temperature_with(intercept=100.0)],
        data.initial_design(), 4)


ORACLE_ENSEMBLE = _oracle_ensemble()
# Per model: its rows of the ensemble and their classes, and its scenarios'
# parameter points and initial blocks as the reference builds them.
ORACLE_MODELS = [
    (model, rows, lanes, params,
     assembly_oracle.initial_blocks(model.spec, params, ORACLE_ENSEMBLE.initial_design))
    for model in ORACLE_ENSEMBLE._models
    for rows, lanes in [model_rows(ORACLE_ENSEMBLE, model)]
    for params in [[ORACLE_ENSEMBLE.scenarios[i].params for i in rows]]
]


def oracle_stack(seed, shape, centre):
    """A (*shape, 4, 4) stack of designs in the box, about a third of its
    coordinates at -2 or 2, and with ``centre`` the centre design first in
    every row."""
    rng = np.random.default_rng(seed)
    stack = rng.uniform(-2.0, 2.0, size=(*shape, 4, 4))
    corner = rng.random(stack.shape) < 1 / 3
    stack[corner] = rng.choice([-2.0, 2.0], size=int(corner.sum()))
    if centre:
        stack[:, 0] = 0.0
    return stack


def assert_matches_reference(ens, model, rows, params, ref_base, stack, got):
    """``got``, the (2, S, k) scores of a (T, k, m, 4) stack under the
    model's S rows, against the reference kernel: 0 exactly where a
    predictor leaves the link domain, within 1e-12 relative where the
    reference scores the design, and, where the two differ by more than
    that, no farther than the reference from the 60-digit oracle, which
    also checks every design the reference calls singular inside the
    domain.  Returns how many designs the oracle decided."""
    want = assembly_oracle._score_model(model.spec, params, ref_base, stack)
    _, inside = assembly_oracle.augmented_info_entries(
        model.spec, params, stack, np.ones(stack.shape[:-1]))
    inside = np.broadcast_to(inside, want.shape[1:])
    assert got.shape == want.shape
    assert np.array_equal(got == 0.0, np.broadcast_to(~inside, got.shape))
    close = np.abs(got - want) <= 1e-12 * want
    decided = 0
    for j, d in zip(*np.nonzero(~close.all(axis=0) & inside)):
        design = stack[j if len(stack) > 1 else 0, d]
        oracle = mp_scores(ens.scenarios[rows[j]], design, ens)
        for g, w, o in zip(got[:, j, d], want[:, j, d], oracle):
            assert abs(g - o) <= max(abs(w - o), 1e-12 * o)
        decided += 1
    return decided


class TestKernelOracle:
    """``_score`` against the kernel before the day-0 whitening
    (``tests/assembly_oracle.py``), with the 60-digit oracle deciding where
    they differ."""

    def test_initial_blocks_equal_the_reference(self):
        # Each row's whitening factor and log-determinant are those of the
        # reference's day-0 block, bit for bit.
        for model, _, _, _, ref_base in ORACLE_MODELS:
            p = model.spec.p
            for block in ref_base[:, 0, :p, :p]:
                chol = np.linalg.cholesky(block)
                assert model.whiten.tobytes() == np.linalg.inv(chol).T.tobytes()
                assert model.log_det == factor_log_det(chol)

    def test_models_span_the_links_and_several_betas(self):
        links = {model.spec.link for model, *_ in ORACLE_MODELS}
        assert links == set(Link)
        groups = collections.Counter(model.spec.name for model, *_ in ORACLE_MODELS)
        counts = sorted(groups.values())
        assert counts[:2] == [1, 1] and counts[2] >= 2 and counts[3] >= 3
        assert all(groups[name] == 1 for name, spec in data.MODELS.items()
                   if spec.link is Link.LOG)

    def test_initial_design_outside_the_domain_is_rejected(self):
        # CI's temperature file with intercept -1 puts day-0 runs outside
        # the identity link's domain; the ensemble names the model.
        with pytest.raises(InvalidPredictorError, match="model 'temperature'"):
            ScenarioEnsemble([_temperature_with(intercept=-1.0)],
                             data.initial_design(), 4)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.one_of(st.integers(1, 40), st.sampled_from([100, 500, 1000])),
        aligned=st.booleans(),
        centre=st.booleans(),
    )
    @example(seed=1, k=1000, aligned=False, centre=True)
    @example(seed=2, k=100, aligned=True, centre=True)
    def test_kernel_equals_the_reference(self, seed, k, aligned, centre):
        # T = 1 scores k designs under every class of a model; T = S scores
        # row j under row j's class only.
        ens = ORACLE_ENSEMBLE
        for model, rows, lanes, params, ref_base in ORACLE_MODELS:
            stack = oracle_stack(seed, (len(rows) if aligned else 1, k), centre)
            if aligned:
                got = criteria._score([model], stack, ens._width, lanes)
            else:
                got = criteria._score([model], stack[0], ens._width)[:, lanes]
            assert_matches_reference(ens, model, rows, params, ref_base, stack, got)

    @pytest.mark.parametrize("aligned", [False, True], ids=["T=1", "T=S"])
    def test_stacks_hold_zeros_of_both_kinds(self, monkeypatch, aligned):
        # The reference scores 0 both outside the link domain (the low
        # intercept's corners) and where its factorization fails (the centre
        # design under a centre predictor of 1e-6).  The kernel keeps only
        # the first kind and factors no matrix with LAPACK; the oracle
        # decides the second.  The two rows lie in different (model, beta)
        # groups; the aligned stack holds one row per temperature scenario,
        # and each group scores its own rows of it.
        ens = ORACLE_ENSEMBLE
        low, near_zero = len(STACK_ENSEMBLE.scenarios) - 1, len(STACK_ENSEMBLE.scenarios)
        assert ens.scenarios[low].params == LOW.params
        temperature = [i for i, s in enumerate(ens.scenarios)
                       if s.spec.name == "temperature"]
        full = oracle_stack(1, (len(temperature) if aligned else 1, 100), True)
        calls = count_factorizations(monkeypatch)
        checked, decided = set(), 0
        for model, rows, lanes, params, ref_base in ORACLE_MODELS:
            if not {low, near_zero} & set(rows):
                continue
            stack = full[[temperature.index(i) for i in rows]] if aligned else full
            want = assembly_oracle._score_model(model.spec, params, ref_base, stack)
            before = len(calls)
            if aligned:
                got = criteria._score([model], stack, ens._width, lanes)
            else:
                got = criteria._score([model], stack[0], ens._width)[:, lanes]
            assert len(calls) == before
            if low in rows:
                j = rows.index(low)
                assert np.any(got[:, j] == 0.0) and np.any(got[:, j] > 0.0)
            if near_zero in rows:
                j = rows.index(near_zero)
                assert np.all(want[:, j, 0] == 0.0)
                assert np.all(got[:, j, 0] > 0.0)
            checked |= {low, near_zero} & set(rows)
            decided += assert_matches_reference(ens, model, rows, params, ref_base,
                                                stack, got)
        assert checked == {low, near_zero} and decided >= 1

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           k=st.sampled_from([1, 7, 100, 1000]))
    def test_score_equals_the_reference(self, seed, k):
        ens = ORACLE_ENSEMBLE
        stack = oracle_stack(seed, (1, k), seed % 2 == 0)
        got = np.stack(ens.score(stack[0]))
        for model, rows, _, params, ref_base in ORACLE_MODELS:
            assert_matches_reference(ens, model, rows, params, ref_base, stack,
                                     got[:, rows])

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    def test_fisher_info_equals_the_reference(self, seed, n):
        # Mixed day flags, through the information module's own call.
        rng = np.random.default_rng(seed)
        design = Design(oracle_stack(seed, (1, 3), False).reshape(-1, 4)[:n],
                        rng.integers(0, 2, size=n))
        for model, _, _, params, _ in ORACLE_MODELS:
            for q in params:
                want, inside = assembly_oracle.augmented_info_entries(
                    model.spec, (q,), design.coords[None], design.days[None])
                if np.all(inside):
                    got = fisher_info(model.spec, q, design)
                    assert got.tobytes() == want[0].tobytes()
                else:
                    with pytest.raises(InvalidPredictorError):
                        fisher_info(model.spec, q, design)


# Two or three beta per model, each the bundled estimate scaled by its own
# factor, for a model of each link.
beta_scales = st.lists(
    st.lists(st.floats(0.8, 1.25), min_size=2, max_size=3, unique=True),
    min_size=3, max_size=3,
)


def beta_group_scenarios(scales, order):
    """Scenarios of the temperature (identity), flame-width (inverse) and
    velocity (log) models, each beta scaled by a factor of ``scales`` and
    taken at two day effects, in an order drawn by ``order``.  Scaling
    beta by a positive factor keeps the initial design in the domain."""
    scenarios = []
    for name, factors in zip(("temperature", "flame_width", "velocity"), scales):
        base = data.ESTIMATES[name]
        for c in factors:
            beta = tuple(c * b for b in base.beta)
            scenarios += [Scenario(data.MODELS[name], ParamPoint(beta, g * base.gamma))
                          for g in (c, 1.5 * c)]
    order.shuffle(scenarios)
    return scenarios


def one_beta_ensembles(big, scenarios):
    """Per (model, beta) group of ``big``, its rows and an ensemble of its
    scenarios alone, padded to ``big``'s width."""
    groups = {}
    for i, s in enumerate(scenarios):
        log = s.spec.link is Link.LOG
        groups.setdefault((s.spec.name, None if log else s.params.beta), []).append(i)
    assert len(groups) == len(big._models)
    for rows in groups.values():
        one = ScenarioEnsemble([scenarios[i] for i in rows], big.initial_design, big.m)
        assert len(one._models) == 1
        one._width = big._width
        yield rows, one


class TestBetaGroups:
    """An ensemble whose models carry several beta scores and caches each
    scenario as the one-beta ensembles of its scenarios do, bit for bit."""

    @settings(max_examples=15, deadline=None)
    @given(scales=beta_scales, order=st.randoms(use_true_random=False),
           seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40),
           centre=st.booleans())
    def test_rows_equal_one_beta_ensembles(self, scales, order, seed, k, centre):
        scenarios = beta_group_scenarios(scales, order)
        big = ScenarioEnsemble(scenarios, data.initial_design(), 4)
        stack = oracle_stack(seed, (len(scenarios), k), centre)
        together = np.stack(big.score(stack[0]))
        aligned = aligned_scores(big, stack)
        for rows, one in one_beta_ensembles(big, scenarios):
            alone = np.stack(one.score(stack[0]))
            assert together[:, rows].tobytes() == alone.tobytes()
            assert aligned[:, rows].tobytes() == aligned_scores(one, stack[rows]).tobytes()

    @settings(max_examples=3, deadline=None)
    @given(scales=beta_scales, order=st.randoms(use_true_random=False))
    def test_cache_equals_one_beta_ensembles(self, scales, order):
        config = PsoConfig(swarm_size=6, iterations=8, restarts=1, seed=5)
        scenarios = beta_group_scenarios(scales, order)
        big = build_cache(ScenarioEnsemble(scenarios, data.initial_design(), 4), config)
        for rows, one in one_beta_ensembles(big, scenarios):
            build_cache(one, config)
            assert [row_optima(big, i) for i in rows] == [
                row_optima(one, i) for i in range(len(one.scenarios))]


# Up to three designs, box corners among them, and a sequence of calls that
# each pass one of them as a fresh Design or the pool's own Design object.
design_pool = st.lists(
    st.one_of(
        arrays(np.float64, (4, 4), elements=coordinate),
        st.sampled_from(list(CORNER_STACK)),
    ),
    min_size=1, max_size=3,
)
design_forms = ("new Design", "same Design")


class TestKeptDesign:
    """One design scored against every scenario once, and its kept scores."""

    @settings(max_examples=15, deadline=None)
    @given(
        pool=design_pool,
        calls=st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from(design_forms)),
            min_size=1, max_size=6,
        ),
    )
    def test_sequence_of_designs_matches_scalar_calls(self, pool, calls):
        ens = STACK_ENSEMBLE
        expected = scalar_criteria(ens, pool)
        designs = [Design.from_coords(c, day=1) for c in pool]
        for j, form in calls:
            j %= len(pool)
            new_runs = {
                "new Design": lambda: Design.from_coords(pool[j], day=1),
                "same Design": lambda: designs[j],
            }[form]()
            assert_criteria_are_scalar(ens, new_runs, expected, j)

    def test_day_zero_design_with_the_kept_coordinates_rejected(self):
        ens = STACK_ENSEMBLE
        s = ens.scenarios[0]
        coords = data.REFERENCE_DESIGN.coords
        design = Design.from_coords(coords, day=1)
        kept = eff_D(s, design, ens)
        with pytest.raises(ValueError, match="day=1"):
            eff_D(s, Design.from_coords(coords, day=0), ens)
        assert eff_D(s, design, ens) == kept

    @pytest.mark.parametrize("form", ["Design"])
    def test_full_table_scores_the_design_once(self, monkeypatch, form):
        ens = data.model_ensemble("pm10")
        for i, s in enumerate(ens.scenarios):
            ens.set_optimal(
                i, data.LOCAL_D_OPTIMAL[s.spec.name],
                data.LOCAL_D1_OPTIMAL[s.spec.name],
            )
        new_runs = Design.from_coords(data.BAYES_D_FIXED.coords, day=1)
        calls = []
        score, new_coords = ScenarioEnsemble.score, criteria._new_coords

        def counted_score(self, stack):
            calls.append("score")
            return score(self, stack)

        def counted_new_coords(new_runs):
            calls.append("coords")
            return new_coords(new_runs)

        monkeypatch.setattr(ScenarioEnsemble, "score", counted_score)
        monkeypatch.setattr(criteria, "_new_coords", counted_new_coords)
        for s in ens.scenarios:
            eff_D(s, new_runs, ens)
            eff_D1(s, new_runs, ens)
        phi_bayes(ens, new_runs, "D")
        phi_bayes(ens, new_runs, "D1")
        assert calls.count("score") == 1
        # A repeated Design is matched by identity.
        assert calls.count("coords") == 1


_AFFINE_CACHE = []


def _affine_ensemble():
    # hypothesis calls the affinity test many times; reuse one cached ensemble
    if not _AFFINE_CACHE:
        ens = data.model_ensemble("fixed")
        for i, name in enumerate(data.RESPONSES):
            ens.set_optimal(
                i, data.LOCAL_D_OPTIMAL[name], data.LOCAL_D1_OPTIMAL[name]
            )
        _AFFINE_CACHE.append(ens)
    return _AFFINE_CACHE[0]


@pytest.mark.parametrize("gammas", ["fixed", "pm10", "pm10pm20"])
def test_set_optimal_equals_the_scalar_criteria(gammas):
    # set_optimal scores both optima as one stack against the scenario's
    # model; every cached value equals the scalar one to 1e-12 and the
    # ensemble's own score of the optimum bit for bit.
    ens = data.model_ensemble(gammas)
    for i, s in enumerate(ens.scenarios):
        d_opt = data.LOCAL_D_OPTIMAL[s.spec.name]
        d1_opt = data.LOCAL_D1_OPTIMAL[s.spec.name]
        ens.set_optimal(i, d_opt, d1_opt)
        optima = row_optima(ens, i)
        np.testing.assert_allclose(optima, (
            phi_D(s, d_opt, ens), phi_D1(s, d1_opt, ens), phi_D1(s, d_opt, ens)
        ), rtol=1e-12, atol=0.0)
        assert optima == (ens.score_design(d_opt).D[i], ens.score_design(d1_opt).D1[i],
                          ens.score_design(d_opt).D1[i])
        assert all(type(v) is float for v in optima)


def test_set_optimal_rejects_optima_of_another_run_count():
    # The bundled optima have 4 runs; a 3-run ensemble must not cache them
    # as its denominators.  score still takes stacks of any run count.
    ens = data.model_ensemble("fixed", 3)
    d_opt = data.LOCAL_D_OPTIMAL["temperature"]
    d1_opt = data.LOCAL_D1_OPTIMAL["temperature"]
    d_three, d1_three = (Design(d.coords[:3], d.days[:3]) for d in (d_opt, d1_opt))
    for pair in ((d_opt, d1_opt), (d_three, d1_opt)):
        with pytest.raises(ValueError, match="4 runs .* m=3 new runs"):
            ens.set_optimal(0, *pair)
    assert all(optima is None for optima in ens._optima)
    ens.set_optimal(0, d_three, d1_three)
    assert row_optima(ens, 0)[0] > 0
    assert (ens.score(np.zeros((1, 0, 4))).D == 0).all()
    assert (ens.score(d_opt.coords[None]).D > 0).all()


def test_d1_ratio_uses_d_optimum_denominator(local_ensembles):
    ens = local_ensembles["temperature"]
    s = ens.scenarios[0]
    expect = phi_D1(s, data.REFERENCE_DESIGN, ens) / phi_D1(
        s, data.LOCAL_D_OPTIMAL["temperature"], ens
    )
    assert d1_ratio_vs_d_optimum(s, data.REFERENCE_DESIGN, ens) == pytest.approx(
        expect
    )
