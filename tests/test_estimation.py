import dataclasses
import json
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from augdesign import (
    Dataset,
    Design,
    FittedModel,
    InvalidPredictorError,
    Link,
    MissingGammaError,
    ModelSpec,
    ParamPoint,
    RankDeficientError,
    Term,
    fisher_info,
    fit,
    observed_efficiency,
    predict,
    prediction_error,
)
from augdesign import data
from augdesign.estimation import (
    SHAPE_RANGE, _shape_score, _solve_shape, _starting_point, gamma_log_likelihood,
)
from augdesign.glm import regressor_matrix
from scalar_oracle import cholesky

TOLERANCES = {
    "temperature": 1e-2,
    "velocity": 1e-3,
    "flame_width": 1e-3,
    "flame_intensity": 1e-2,
}


class TestDataset:
    def test_nonpositive_response_rejected(self):
        with pytest.raises(ValueError):
            Dataset([[0, 0, 0, 0]], [0], {"y": np.array([-1.0])})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_response_rejected(self, value):
        with pytest.raises(ValueError, match="'y' has non-finite values"):
            Dataset([[0, 0, 0, 0], [1, 0, 0, 0]], [0, 0],
                    {"y": np.array([1.0, value])})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset([[0, 0, 0, 0]], [0], {"y": np.array([1.0, 2.0])})

    def test_caller_dict_left_unchanged(self):
        values = [1.0, 2.0]
        responses = {"y": values}
        ds = Dataset([[0, 0, 0, 0], [1, 0, 0, 0]], [0, 0], responses)
        assert responses == {"y": values} and responses["y"] is values
        assert isinstance(ds.responses["y"], np.ndarray)

    def test_csv_round_trip(self):
        ds = data.ccd_dataset()
        again = Dataset.from_csv(ds.to_csv())
        assert len(again) == len(ds)
        assert np.array_equal(again.coords, ds.coords)
        for name in data.RESPONSES:
            assert np.array_equal(again.responses[name], ds.responses[name])

    def test_csv_reports_bad_line(self):
        text = "run,L,K,D,FDV,day,y\n1,0,0,0,0,0,1.0\n2,0,x,0,0,0,1.0\n"
        with pytest.raises(ValueError, match="line 3"):
            Dataset.from_csv(text)

    def test_csv_names_the_line_of_a_run_outside_the_box(self):
        text = "run,L,K,D,FDV,day,y\n1,0,0,0,0,0,1.0\n2,0,0,0,2.5,1.0,1.0\n"
        with pytest.raises(ValueError, match=re.escape(
                "CSV line 3: coordinate 2.5 outside [-2.0, 2.0]")):
            Dataset.from_csv(text)

    def test_concat(self):
        merged = data.ccd_dataset().concat(data.validation_dataset())
        assert len(merged) == 44

    def test_equal_datasets(self):
        assert data.ccd_dataset() == data.ccd_dataset()
        assert not data.ccd_dataset() != data.ccd_dataset()

    def test_datasets_differing_in_a_response(self):
        ds = data.ccd_dataset()
        changed = dict(ds.responses, velocity=ds.responses["velocity"] + 1.0)
        assert ds != Dataset(ds.coords, ds.days, changed)
        renamed = {("speed" if k == "velocity" else k): v
                   for k, v in ds.responses.items()}
        assert ds != Dataset(ds.coords, ds.days, renamed)

    def test_datasets_differing_in_a_run(self):
        ds = data.ccd_dataset()
        days = ds.days.copy()
        days[0] = 1
        assert ds != Dataset(ds.coords, days, ds.responses)
        assert ds != Design(ds.coords, ds.days)

    def test_dataset_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(data.ccd_dataset())


class TestFitReproduction:
    @pytest.mark.parametrize("name", data.RESPONSES)
    def test_published_coefficients(self, name):
        model = fit(data.MODELS[name], data.ccd_dataset(), name)
        expect = np.asarray(data.ESTIMATES[name].beta)
        assert np.allclose(model.beta_hat, expect, atol=TOLERANCES[name])

    @pytest.mark.parametrize("name", data.RESPONSES)
    def test_published_standard_errors_loose(self, name):
        # informational band: the published dispersion convention is unknown
        model = fit(data.MODELS[name], data.ccd_dataset(), name)
        expect = np.asarray(data.STD_ERRORS[name])
        se = np.asarray(model.std_errors)
        if name == "flame_intensity":
            # the published table transposes the K^2 and FDV^2 entries:
            # every other published/ML ratio is the same constant ~1.19
            se = se.copy()
            se[[6, 7]] = se[[7, 6]]
        assert np.all(np.abs(se - expect) <= 0.2 * expect)

    @pytest.mark.parametrize("name", data.RESPONSES)
    def test_published_bic(self, name):
        model = fit(data.MODELS[name], data.ccd_dataset(), name)
        assert model.bic == pytest.approx(data.BIC_VALUES[name], abs=2e-3)

    def test_runtime_under_a_second(self):
        import time

        start = time.perf_counter()
        for name in data.RESPONSES:
            fit(data.MODELS[name], data.ccd_dataset(), name)
        assert time.perf_counter() - start < 1.0


class TestFitProperties:
    @pytest.mark.parametrize("name", data.RESPONSES)
    def test_score_vanishes_at_optimum(self, name):
        model = fit(data.MODELS[name], data.ccd_dataset(), name)
        ds = data.ccd_dataset()
        y = ds.responses[name]
        Z = regressor_matrix(model.spec, ds.coords)
        beta = np.asarray(model.beta_hat)

        def loglik(b):
            eta = Z @ b
            if model.spec.link is Link.IDENTITY:
                mu = eta
            elif model.spec.link is Link.LOG:
                mu = np.exp(eta)
            else:
                mu = 1.0 / eta
            return gamma_log_likelihood(y, mu, model.nu_hat)

        base = loglik(beta)
        h = 1e-6
        for i in range(len(beta)):
            step = np.zeros_like(beta)
            step[i] = h * max(1.0, abs(beta[i]))
            grad = (loglik(beta + step) - loglik(beta - step)) / (2 * step[i])
            assert abs(grad) <= 1e-5 * (1.0 + abs(base))

    @pytest.mark.parametrize("name", ["temperature", "velocity"])
    def test_refit_on_fitted_means_is_fixed_point(self, name):
        model = fit(data.MODELS[name], data.ccd_dataset(), name)
        ccd = data.ccd_dataset()
        mu = predict(model, ccd)
        synthetic = Dataset(ccd.coords, ccd.days, {name: mu})
        again = fit(data.MODELS[name], synthetic, name)
        assert np.allclose(again.beta_hat, model.beta_hat, rtol=1e-8, atol=1e-10)
        # No residuals: the shape equation has no root, and nu takes the
        # upper end of its range.
        assert again.nu_hat == SHAPE_RANGE[1]

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_log_link_scale_equivariance(self, c):
        name = "velocity"
        ds = data.ccd_dataset()
        scaled = Dataset(ds.coords, ds.days, {name: c * ds.responses[name]})
        a = fit(data.MODELS[name], ds, name)
        b = fit(data.MODELS[name], scaled, name)
        assert b.beta_hat[0] - a.beta_hat[0] == pytest.approx(
            math.log(c), abs=1e-8
        )
        assert np.allclose(b.beta_hat[1:], a.beta_hat[1:], atol=1e-8)

    def test_day_effect_fit(self):
        merged = data.ccd_dataset().concat(data.reference_augment_dataset())
        model = fit(data.MODELS["temperature"], merged, "temperature",
                    include_day_effect=True)
        assert model.gamma_hat is not None
        assert model.n == 34
        assert len(model.std_errors) == model.spec.p + 1

    def test_step_halving_keeps_the_fit_inside_the_domain(self, monkeypatch):
        # Temperature terms under the inverse link, on CCD temperatures times
        # lognormal noise: one Fisher step puts a predictor below 0 and is
        # halved.  The estimates are pinned; errstate makes a likelihood
        # evaluated outside the domain fail instead of halving on a NaN.
        base = data.MODELS["temperature"]
        spec = ModelSpec("temperature", Link.INVERSE, base.factors, base.terms)
        ccd = data.ccd_dataset()
        noise = np.exp(np.random.default_rng(3).normal(0.0, 0.6, len(ccd)))
        ds = Dataset(ccd.coords, ccd.days,
                     {"temperature": ccd.responses["temperature"] * noise})
        flags = []
        outside_domain = Link.outside_domain

        def spy(link, eta):
            flags.append(bool(np.any(outside_domain(link, eta))))
            return outside_domain(link, eta)

        monkeypatch.setattr(Link, "outside_domain", spy)
        with np.errstate(all="raise"):
            model = fit(spec, ds, "temperature")
        assert any(flags)
        expect = {
            "beta_hat": (0.0005167241463543978, -8.042396379527913e-05,
                         0.0002484446611775978, 5.513976874043851e-05,
                         8.674787210255371e-05),
            # The 40-digit mpmath root of the shape equation, and standard
            # errors scaled to it by 1/sqrt(nu).
            "nu_hat": 3.0393635710724984,
            "std_errors": (6.929144560374898e-05, 5.355192844185567e-05,
                           8.042016566114014e-05, 5.2873939538707e-05,
                           6.559487814167993e-05),
            "log_likelihood": -248.2681781209815,
            "bic": 516.9435405319359,
        }
        for key, value in expect.items():
            assert getattr(model, key) == pytest.approx(value, rel=1e-12), key

    def test_rank_deficient_rejected(self):
        spec = ModelSpec(
            "bad", Link.LOG, ("L",),
            (Term.intercept(), Term.main(0), Term.square(0)),
        )
        ds = Dataset(np.zeros((8, 4)), np.zeros(8, dtype=int), {"y": np.ones(8)})
        with pytest.raises(RankDeficientError):
            fit(spec, ds, "y")

    @pytest.mark.parametrize("day", [0, 1])
    def test_day_effect_needs_both_days(self, day):
        ds = data.ccd_dataset()
        one_day = Dataset(ds.coords, np.full(len(ds), day), ds.responses)
        with pytest.raises(RankDeficientError, match=(
            f"day effect needs runs on both day 0 and day 1, but every run has day {day}"
        )):
            fit(data.MODELS["temperature"], one_day, "temperature",
                include_day_effect=True)

    def test_too_few_runs_rejected(self):
        ds = Dataset([[0, 0, 0, 0], [1, 0, 0, 0]], [0, 0], {"y": np.array([1.0, 2.0])})
        with pytest.raises(RankDeficientError):
            fit(data.MODELS["temperature"], ds, "y")

    def test_unknown_response_rejected(self):
        with pytest.raises(KeyError):
            fit(data.MODELS["temperature"], data.ccd_dataset(), "pressure")


def mp_shape_score(nu):
    return mpmath.log(nu) - mpmath.digamma(nu)


class TestShapeSolver:
    """log nu - digamma(nu) = s against a 40-digit mpmath root."""

    @given(st.floats(-5.0, 14.0))
    @settings(max_examples=200, deadline=None)
    def test_newton_root_matches_mpmath(self, log_nu):
        with mpmath.workdps(40):
            s = float(mp_shape_score(mpmath.exp(log_nu)))
            root = mpmath.findroot(lambda v: mp_shape_score(v) - s,
                                   mpmath.exp(log_nu))
        # Rounding s to a double can move the root past an end of the range.
        expect = min(max(float(root), SHAPE_RANGE[0]), SHAPE_RANGE[1])
        assert _solve_shape(s) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, -1e-300, -1e-12, 1e-8])
    def test_small_mean_deviance_returns_the_upper_end(self, s):
        assert _solve_shape(s) == SHAPE_RANGE[1]

    def test_upper_end_is_where_the_score_meets_it(self):
        at_hi = _shape_score(SHAPE_RANGE[1])[0]
        assert _solve_shape(at_hi) == SHAPE_RANGE[1]
        assert _solve_shape(2.0 * at_hi) < SHAPE_RANGE[1]

    @pytest.mark.parametrize("factor", [1.0, 2.0, 1e6])
    def test_large_mean_deviance_returns_the_lower_end(self, factor):
        at_lo = _shape_score(SHAPE_RANGE[0])[0]
        assert _solve_shape(factor * at_lo) == SHAPE_RANGE[0]
        assert _solve_shape(0.5 * at_lo) > SHAPE_RANGE[0]


class TestSingularityRule:
    """fit and the design criteria decide singularity by one rule."""

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-6, 1e-7])
    def test_fit_rejects_exactly_the_singular_designs(self, eps):
        spec = ModelSpec("line", Link.LOG, ("L",), (Term.intercept(), Term.main(0)))
        coords = [[eps * (i % 2), 0, 0, 0] for i in range(12)]
        ds = Dataset(coords, [0] * 12, {"y": 1.0 + 0.1 * (np.arange(12) % 5)})
        # With a log link the information does not depend on beta.  The
        # pivot test puts the threshold near eps = 2e-6, so both arms run.
        info = fisher_info(spec, ParamPoint((0.0, 0.0)), ds, with_day_effect=False)
        if cholesky(info) is None:
            with pytest.raises(RankDeficientError):
                fit(spec, ds, "y")
        else:
            model = fit(spec, ds, "y")
            assert observed_efficiency(model, model) == 1.0


class TestFittedModel:
    def test_json_round_trip(self):
        model = fit(data.MODELS["flame_width"], data.ccd_dataset(), "flame_width")
        again = FittedModel.from_json(model.to_json())
        assert again.beta_hat == model.beta_hat
        assert again.nu_hat == model.nu_hat
        assert np.array_equal(again.covariance, model.covariance)
        assert again.spec == model.spec

    def test_parameter_count(self):
        model = fit(data.MODELS["temperature"], data.ccd_dataset(), "temperature")
        assert model.k == 6  # five coefficients plus the shape


class TestPredict:
    def test_center_run_identity_link(self):
        model = fit(data.MODELS["temperature"], data.ccd_dataset(), "temperature")
        mu = predict(model, Design.from_coords((0, 0, 0, 0)))
        assert mu[0] == pytest.approx(model.beta_hat[0])

    def test_center_run_log_link(self):
        model = fit(data.MODELS["velocity"], data.ccd_dataset(), "velocity")
        mu = predict(model, Design.from_coords((0, 0, 0, 0)))
        assert mu[0] == pytest.approx(math.exp(model.beta_hat[0]))
        assert mu[0] == pytest.approx(710.0, abs=1.0)

    def test_day_run_needs_gamma(self):
        model = fit(data.MODELS["temperature"], data.ccd_dataset(), "temperature")
        with pytest.raises(MissingGammaError):
            predict(model, Design.from_coords((0, 0, 0, 0), day=1))

    def test_predictor_outside_the_domain_names_the_model(self):
        model = fit(data.MODELS["temperature"], data.ccd_dataset(), "temperature")
        low = dataclasses.replace(model, beta_hat=(-5000.0, *model.beta_hat[1:]))
        with pytest.raises(InvalidPredictorError, match="under model 'temperature'"):
            predict(low, data.ccd_dataset())


class TestPredictionError:
    def test_perfect_fit_scores_zero(self):
        model = fit(data.MODELS["velocity"], data.ccd_dataset(), "velocity")
        ccd = data.ccd_dataset()
        mu = predict(model, ccd)
        synthetic = Dataset(ccd.coords, ccd.days, {"velocity": mu})
        for metric in ("mse", "rmse", "mae"):
            assert prediction_error(model, synthetic, "velocity", metric) == (
                pytest.approx(0.0, abs=1e-12)
            )

    def test_constant_offset_identities(self):
        model = fit(data.MODELS["temperature"], data.ccd_dataset(), "temperature")
        ccd = data.ccd_dataset()
        mu = predict(model, ccd)
        offset = Dataset(ccd.coords, ccd.days, {"temperature": mu + 3.0})
        assert prediction_error(model, offset, "temperature", "mse") == (
            pytest.approx(9.0, rel=1e-9)
        )
        assert prediction_error(model, offset, "temperature", "rmse") == (
            pytest.approx(3.0, rel=1e-9)
        )
        assert prediction_error(model, offset, "temperature", "mae") == (
            pytest.approx(3.0, rel=1e-9)
        )

    def test_unknown_metric(self):
        model = fit(data.MODELS["temperature"], data.ccd_dataset(), "temperature")
        with pytest.raises(ValueError):
            prediction_error(model, data.ccd_dataset(), "temperature", "r2")


class TestObservedEfficiency:
    def test_self_comparison_is_one(self):
        model = fit(data.MODELS["temperature"], data.ccd_dataset(), "temperature")
        assert observed_efficiency(model, model) == pytest.approx(1.0)

    def test_covariance_scaling_homogeneity(self):
        import dataclasses

        model = fit(data.MODELS["temperature"], data.ccd_dataset(), "temperature")
        c = 2.0
        inflated = dataclasses.replace(model, covariance=c * model.covariance)
        assert observed_efficiency(inflated, model) == pytest.approx(1.0 / c)

    def test_different_models_rejected(self):
        a = fit(data.MODELS["temperature"], data.ccd_dataset(), "temperature")
        b = fit(data.MODELS["velocity"], data.ccd_dataset(), "velocity")
        with pytest.raises(ValueError):
            observed_efficiency(a, b)

    @pytest.mark.parametrize("which", ["first", "second"])
    @pytest.mark.parametrize("fill", [0.0, np.nan], ids=["zero", "nan"])
    def test_singular_covariance_rejected(self, which, fill):
        import dataclasses

        model = fit(data.MODELS["temperature"], data.ccd_dataset(), "temperature")
        covariance = model.covariance.copy()
        covariance[-1, -1] = fill
        bad = dataclasses.replace(model, covariance=covariance)
        pair = (bad, model) if which == "first" else (model, bad)
        with pytest.raises(RankDeficientError, match="not positive definite"):
            observed_efficiency(*pair)


class TestStartingPoint:
    def test_ols_start_outside_the_domain_falls_back_to_the_mean(self):
        Z = np.column_stack([np.ones(5), [-1.0, -1.0, 0.0, 0.0, 1.0]])
        y = np.array([100.0, 100.0, 1.0, 1.0, 1.0])
        # The OLS line is negative at the last run.
        assert (Z @ np.linalg.lstsq(Z, y, rcond=None)[0])[-1] < 0.0
        assert _starting_point(Link.IDENTITY, Z, y).tolist() == [np.mean(y), 0.0]
        # Under the log link every predictor lies in the domain.
        ols = np.linalg.lstsq(Z, np.log(y), rcond=None)[0]
        assert np.array_equal(_starting_point(Link.LOG, Z, y), ols)
