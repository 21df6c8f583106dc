import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from augdesign import (
    Design,
    MissingCacheError,
    ParamPoint,
    Scenario,
    ScenarioEnsemble,
    d1_ratio_vs_d_optimum,
    eff_D,
    eff_D1,
    fisher_info,
    phi_D,
    phi_D1,
    phi_bayes,
    phi_compromise,
)
from augdesign import criteria, data


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

    def test_gamma_required(self):
        with pytest.raises(ValueError):
            Scenario(
                data.MODELS["velocity"],
                ParamPoint(data.ESTIMATES["velocity"].beta),
            )


class TestEnsemble:
    def test_weights_are_normalized(self):
        scenarios = [
            Scenario(data.MODELS[n], data.ESTIMATES[n], 2.0)
            for n in data.RESPONSES
        ]
        ens = ScenarioEnsemble(scenarios, data.initial_design(), 4)
        assert sum(s.weight for s in ens.scenarios) == pytest.approx(1.0)

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
            phi_D(other, data.REFERENCE_DESIGN, ens)

    def test_missing_cache_raises(self):
        ens = data.single_scenario_ensemble("velocity")
        with pytest.raises(MissingCacheError):
            eff_D(ens.scenarios[0], data.REFERENCE_DESIGN, ens)


# pm10pm20 holds five day-effect values per model, so drawing a model and a
# variant index covers all twenty scenarios.
PM10PM20 = data.model_ensemble("pm10pm20")
VARIANTS = 5
new_runs_strategy = st.lists(
    st.tuples(*[st.floats(-2, 2, allow_nan=False) for _ in range(4)]),
    min_size=4, max_size=4,
)


def direct_information(name, variant, new_runs):
    """The scenario and its information matrix, assembled from the whole
    design rather than the ensemble's cached initial block."""
    s = PM10PM20.scenarios[data.RESPONSES.index(name) * VARIANTS + variant]
    design = data.initial_design().concat(Design.from_coords(new_runs, day=1))
    return s, fisher_info(s.spec, s.params, design)


class TestPhi:
    """phi_D and phi_D1 (Cholesky) against an LU-based numpy oracle."""

    @pytest.mark.parametrize("name", data.RESPONSES)
    @settings(max_examples=25, deadline=None)
    @given(new_runs=new_runs_strategy, variant=st.integers(0, VARIANTS - 1))
    @example(new_runs=data.REFERENCE_DESIGN.coords, variant=2)
    def test_phi_d_matches_direct_information(self, name, new_runs, variant):
        s, info = direct_information(name, variant, new_runs)
        sign, logdet = np.linalg.slogdet(info)
        assert sign == 1.0
        expect = np.exp(logdet / len(info))
        assert phi_D(s, np.array(new_runs), PM10PM20) == pytest.approx(
            expect, rel=1e-9
        )

    @pytest.mark.parametrize("name", data.RESPONSES)
    @settings(max_examples=25, deadline=None)
    @given(new_runs=new_runs_strategy, variant=st.integers(0, VARIANTS - 1))
    @example(new_runs=data.REFERENCE_DESIGN.coords, variant=2)
    def test_phi_d1_matches_direct_information(self, name, new_runs, variant):
        s, info = direct_information(name, variant, new_runs)
        expect = 1.0 / np.linalg.inv(info)[-1, -1]
        assert phi_D1(s, np.array(new_runs), PM10PM20) == pytest.approx(
            expect, rel=1e-9
        )

    def test_no_new_runs_gives_zero(self):
        ens = data.single_scenario_ensemble("temperature")
        s = ens.scenarios[0]
        assert phi_D(s, None, ens) == 0.0
        assert phi_D1(s, None, ens) == 0.0

    def test_day_zero_new_runs_rejected(self):
        ens = data.single_scenario_ensemble("temperature")
        day0 = Design.from_coords(data.REFERENCE_DESIGN.coords, day=0)
        with pytest.raises(ValueError):
            phi_D(ens.scenarios[0], day0, ens)

    def test_infeasible_design_scores_zero(self):
        # Push the temperature predictor negative on a day-1 run.
        name = "temperature"
        base = data.ESTIMATES[name]
        s = Scenario(data.MODELS[name], ParamPoint(base.beta, -2000.0))
        ens = ScenarioEnsemble([s], data.initial_design(), 4)
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
        va = phi_D(ens_a.scenarios[0], data.REFERENCE_DESIGN, ens_a)
        vb = phi_D(ens_b.scenarios[0], data.REFERENCE_DESIGN, ens_b)
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


def test_d1_ratio_uses_d_optimum_denominator(local_ensembles):
    ens = local_ensembles["temperature"]
    s = ens.scenarios[0]
    expect = phi_D1(s, data.REFERENCE_DESIGN, ens) / phi_D1(
        s, data.LOCAL_D_OPTIMAL["temperature"], ens
    )
    assert d1_ratio_vs_d_optimum(s, data.REFERENCE_DESIGN, ens) == pytest.approx(
        expect
    )
