"""Acceptance suite: nine criteria, one PASS/FAIL line printed per criterion.

Efficiency checks evaluate the bundled published designs against caches built
from the bundled locally optimal designs, so they are deterministic; swarm
searches run at reduced budget (swarm 40, 300 iterations) behind
lower-bound dominance assertions.
"""

import math
import os
import time

import numpy as np

from augdesign import (
    Design,
    PsoConfig,
    ScenarioEnsemble,
    build_cache,
    d1_ratio_vs_d_optimum,
    eff_D,
    eff_D1,
    fit,
    observed_efficiency,
    phi_D,
    phi_bayes,
    phi_compromise,
    prediction_error,
    pso_maximize,
    solve_bayes,
    solve_compromise,
)
from augdesign import data
from augdesign.estimation import gamma_log_likelihood
from augdesign.glm import Link, regressor_matrix

SEARCH = PsoConfig(swarm_size=40, iterations=300, restarts=2, seed=0)

# Published efficiency values (percent), in response order
# temperature, velocity, flame width, flame intensity.
REFERENCE_D_EFF = (80.03, 71.13, 68.11, 64.85)
CROSS_MODEL_D_EFF = {
    "temperature": (100.00, 85.19, 80.88, 72.91),
    "velocity": (96.15, 100.00, 84.81, 93.05),
    "flame_width": (91.79, 84.29, 100.00, 73.05),
    "flame_intensity": (96.19, 87.93, 65.77, 100.00),
}
REFERENCE_D1_VS_D_OPT = (100.17, 195.57, 76.31, 202.41)
REFERENCE_D1_EFF = (90.51, 86.51, 63.81, 90.85)
BAYES_D_FIXED_D_EFF = (98.04, 97.52, 91.45, 92.77)
COMPROMISE_D_EFF = (91.15, 77.84, 85.38, 76.12)
COMPROMISE_D1_EFF = (99.17, 98.50, 97.89, 91.02)
EXPERIMENT_D_EFF = (79.53, 75.35, 78.14, 69.34)
RMSE_OPTIMAL = (27.40, 12.65, 1.43, 1.89)
RMSE_REFERENCE = (16.97, 8.91, 4.10, 2.73)
OBSERVED_D_EFF = (39.34, 85.89, 86.46, 57.05)

COEFFICIENT_TOL = {
    "temperature": 1e-2,
    "velocity": 1e-3,
    "flame_width": 1e-3,
    "flame_intensity": 1e-2,
}


def report(number, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"\nACCEPTANCE {number} ({label}): {status}")
    for item in failures:
        print(f"  - {item}")
    assert not failures, f"criterion {number} ({label}): {failures}"


def test_criterion_1_fit_reproduction():
    failures = []
    start = time.perf_counter()
    for name in data.RESPONSES:
        model = fit(data.MODELS[name], data.ccd_dataset(), name)
        expect = np.asarray(data.ESTIMATES[name].beta)
        err = float(np.max(np.abs(np.asarray(model.beta_hat) - expect)))
        if err > COEFFICIENT_TOL[name]:
            failures.append(f"{name}: max coefficient error {err:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(1, "fit reproduction", failures)


def test_criterion_2_reference_d_efficiencies(local_ensembles):
    failures = []
    for name, expect in zip(data.RESPONSES, REFERENCE_D_EFF):
        ens = local_ensembles[name]
        got = 100 * eff_D(ens.scenarios[0], data.REFERENCE_DESIGN, ens)
        if abs(got - expect) > 1.0:
            failures.append(f"{name}: {got:.2f}% vs published {expect:.2f}%")
    report(2, "reference design D-efficiencies", failures)


def test_criterion_3_cross_model_grid(local_ensembles):
    failures = []
    for design_for, row in CROSS_MODEL_D_EFF.items():
        design = data.LOCAL_D_OPTIMAL[design_for]
        for model_name, expect in zip(data.RESPONSES, row):
            ens = local_ensembles[model_name]
            got = 100 * eff_D(ens.scenarios[0], design, ens)
            if design_for == model_name:
                if abs(got - 100.0) > 1e-9:
                    failures.append(f"diagonal {model_name}: {got:.6f}%")
            elif abs(got - expect) > 1.0:
                failures.append(
                    f"{design_for} design under {model_name}: "
                    f"{got:.2f}% vs published {expect:.2f}%"
                )
    report(3, "cross-model D-efficiency grid", failures)


def test_criterion_4_d1_ratios(local_ensembles):
    failures = []
    for name, expect in zip(data.RESPONSES, REFERENCE_D1_VS_D_OPT):
        ens = local_ensembles[name]
        got = 100 * d1_ratio_vs_d_optimum(
            ens.scenarios[0], data.REFERENCE_DESIGN, ens
        )
        if abs(got - expect) > 1.5:
            failures.append(
                f"vs D-optimum, {name}: {got:.2f}% vs published {expect:.2f}%"
            )
    for name, expect in zip(data.RESPONSES, REFERENCE_D1_EFF):
        ens = local_ensembles[name]
        got = 100 * eff_D1(ens.scenarios[0], data.REFERENCE_DESIGN, ens)
        if abs(got - expect) > 1.5:
            failures.append(
                f"vs D1-optimum, {name}: {got:.2f}% vs published {expect:.2f}%"
            )
    report(4, "D1 efficiency ratios", failures)


def test_criterion_5_bayesian_designs(fixed_gamma_ensemble):
    ens = fixed_gamma_ensemble
    failures = []
    for flavor, published_design in (
        ("D", data.BAYES_D_FIXED),
        ("D1", data.BAYES_D1_FIXED),
    ):
        result = solve_bayes(ens, flavor, SEARCH)
        published = phi_bayes(ens, published_design, flavor)
        if result.best_value < published - 1e-6:
            failures.append(
                f"bayes {flavor}: search {result.best_value:.6f} below "
                f"published design {published:.6f}"
            )
    for s, expect in zip(ens.scenarios, BAYES_D_FIXED_D_EFF):
        got = 100 * eff_D(s, data.BAYES_D_FIXED, ens)
        if abs(got - expect) > 1.5:
            failures.append(
                f"eff_D of Bayesian D-design, {s.spec.name}: "
                f"{got:.2f}% vs published {expect:.2f}%"
            )
    report(5, "Bayesian design quality", failures)


def test_criterion_6_compromise_design(fixed_gamma_ensemble):
    ens = fixed_gamma_ensemble
    failures = []
    for s, expect_d, expect_d1 in zip(
        ens.scenarios, COMPROMISE_D_EFF, COMPROMISE_D1_EFF
    ):
        got_d = 100 * eff_D(s, data.COMPROMISE_DESIGN, ens)
        got_d1 = 100 * eff_D1(s, data.COMPROMISE_DESIGN, ens)
        if abs(got_d - expect_d) > 1.5:
            failures.append(
                f"eff_D {s.spec.name}: {got_d:.2f}% vs published {expect_d:.2f}%"
            )
        if abs(got_d1 - expect_d1) > 1.5:
            failures.append(
                f"eff_D1 {s.spec.name}: {got_d1:.2f}% vs published "
                f"{expect_d1:.2f}%"
            )
    result = solve_compromise(ens, 0.5, SEARCH)
    published = phi_compromise(ens, data.COMPROMISE_DESIGN, 0.5)
    if result.best_value < published - 1e-6:
        failures.append(
            f"search {result.best_value:.6f} below published {published:.6f}"
        )
    report(6, "compromise design", failures)


def test_criterion_7_experimental_efficiencies():
    failures = []
    for name, expect in zip(data.RESPONSES, EXPERIMENT_D_EFF):
        ens = data.single_scenario_ensemble(name)
        s = ens.scenarios[0]
        got = 100 * (
            phi_D(s, data.REFERENCE_DESIGN, ens)
            / phi_D(s, data.BAYES_D_FIVE_GAMMA, ens)
        )
        if abs(got - expect) > 1.5:
            failures.append(f"{name}: {got:.2f}% vs published {expect:.2f}%")
    report(7, "experimental-section efficiencies", failures)


def test_criterion_8_property_suites(local_ensembles):
    failures = []

    # information permutation / additivity / monotonicity
    from augdesign import fisher_info, log_det

    spec, params = data.MODELS["velocity"], data.ESTIMATES["velocity"]
    full = data.initial_design().concat(data.REFERENCE_DESIGN)
    rng = np.random.default_rng(11)
    shuffled = Design(tuple(full.runs[i] for i in rng.permutation(len(full))))
    if not np.allclose(
        fisher_info(spec, params, full),
        fisher_info(spec, params, shuffled),
        rtol=1e-12,
    ):
        failures.append("information not permutation invariant")
    first, second = full.split()
    if not np.allclose(
        fisher_info(spec, params, full),
        fisher_info(spec, params, first) + fisher_info(spec, params, second),
        rtol=1e-12,
    ):
        failures.append("information not additive over blocks")
    grown = data.initial_design()
    last = log_det(fisher_info(spec, params, grown, with_day_effect=False))
    for run in data.REFERENCE_DESIGN.runs:
        grown = grown.concat(Design((run,)))
        now = log_det(fisher_info(spec, params, grown, with_day_effect=False))
        if now < last - 1e-12:
            failures.append("log-determinant decreased when adding a run")
        last = now

    # efficiency scale invariance under (beta, gamma) -> (c beta, c gamma)
    from augdesign import ParamPoint, Scenario

    for name in ("temperature", "flame_width"):
        base = data.ESTIMATES[name]
        scaled = Scenario(
            data.MODELS[name],
            ParamPoint(tuple(2.5 * b for b in base.beta), 2.5 * base.gamma),
        )
        ens_scaled = ScenarioEnsemble([scaled], data.initial_design(), 4)
        ens_scaled.set_optimal(
            0, data.LOCAL_D_OPTIMAL[name], data.LOCAL_D1_OPTIMAL[name]
        )
        plain = local_ensembles[name]
        a = eff_D(plain.scenarios[0], data.REFERENCE_DESIGN, plain)
        b = eff_D(ens_scaled.scenarios[0], data.REFERENCE_DESIGN, ens_scaled)
        if not math.isclose(a, b, rel_tol=1e-9):
            failures.append(f"{name}: efficiency not scale invariant")

    # log-link criterion independent of beta
    zero_beta = Scenario(
        data.MODELS["velocity"],
        ParamPoint(tuple(np.zeros(data.MODELS["velocity"].p)), 0.01),
    )
    ens_zero = ScenarioEnsemble([zero_beta], data.initial_design(), 4)
    va = phi_D(
        local_ensembles["velocity"].scenarios[0],
        data.REFERENCE_DESIGN,
        local_ensembles["velocity"],
    )
    vb = phi_D(ens_zero.scenarios[0], data.REFERENCE_DESIGN, ens_zero)
    if not math.isclose(va, vb, rel_tol=1e-12):
        failures.append("log-link criterion depends on beta")

    # compromise affinity in alpha
    ens = data.model_ensemble("fixed")
    for i, name in enumerate(data.RESPONSES):
        ens.set_optimal(i, data.LOCAL_D_OPTIMAL[name], data.LOCAL_D1_OPTIMAL[name])
    lhs = phi_compromise(ens, data.REFERENCE_DESIGN, 0.3)
    rhs = 0.3 * phi_bayes(ens, data.REFERENCE_DESIGN, "D") + 0.7 * phi_bayes(
        ens, data.REFERENCE_DESIGN, "D1"
    )
    if not math.isclose(lhs, rhs, rel_tol=1e-12):
        failures.append("compromise not affine in alpha")

    # eff <= 1.005 against self-built caches
    rng = np.random.default_rng(4)
    for name in data.RESPONSES:
        self_built = data.single_scenario_ensemble(name)
        build_cache(self_built, SEARCH)
        s = self_built.scenarios[0]
        candidates = [data.REFERENCE_DESIGN.coords,
                      data.LOCAL_D_OPTIMAL[name].coords,
                      data.LOCAL_D1_OPTIMAL[name].coords]
        candidates += [rng.uniform(-2, 2, size=(4, 4)) for _ in range(5)]
        for c in candidates:
            if eff_D(s, np.asarray(c), self_built) > 1.005:
                failures.append(f"{name}: eff_D exceeds self-built optimum")
                break
            if eff_D1(s, np.asarray(c), self_built) > 1.005:
                failures.append(f"{name}: eff_D1 exceeds self-built optimum")
                break

    # swarm determinism: the same seed gives a bit-identical search
    def sphere(f):
        return -float(np.sum((f - 0.5) ** 2))

    small = PsoConfig(swarm_size=12, iterations=40, restarts=2, seed=9)
    one = pso_maximize(sphere, 2, 4, small)
    again = pso_maximize(sphere, 2, 4, small)
    if not (np.array_equal(one.best_fragment, again.best_fragment)
            and one.history == again.history):
        failures.append("same-seed swarm searches differ")

    # finite-difference score check at every fitted optimum
    for name in data.RESPONSES:
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
        for i in range(len(beta)):
            h = 1e-6 * max(1.0, abs(beta[i]))
            step = np.zeros_like(beta)
            step[i] = h
            grad = (loglik(beta + step) - loglik(beta - step)) / (2 * h)
            if abs(grad) > 1e-5 * (1.0 + abs(base)):
                failures.append(f"{name}: score component {i} = {grad:.2e}")
                break

    report(8, "property suites", failures)


def test_criterion_9_report_style_reproductions():
    failures = []

    # exact BIC reproduction (stronger than the originally planned rank check,
    # which is not satisfied by this data; see the repository notes)
    for name in data.RESPONSES:
        model = fit(data.MODELS[name], data.ccd_dataset(), name)
        if abs(model.bic - data.BIC_VALUES[name]) > 2e-3:
            failures.append(
                f"BIC {name}: {model.bic:.3f} vs published "
                f"{data.BIC_VALUES[name]:.3f}"
            )

    # the published prediction-error table matches the RMSE metric
    for quad, augment in (
        (RMSE_OPTIMAL, data.optimal_augment_dataset()),
        (RMSE_REFERENCE, data.reference_augment_dataset()),
    ):
        merged = data.ccd_dataset().concat(augment)
        for name, expect in zip(data.RESPONSES, quad):
            model = fit(data.MODELS[name], merged, name, include_day_effect=True)
            got = prediction_error(
                model, data.validation_dataset(), name, "rmse"
            )
            if abs(got - expect) > 0.01:
                failures.append(
                    f"RMSE {name}: {got:.2f} vs published {expect:.2f}"
                )

    # observed efficiencies: report-style, wide band (the published
    # dispersion convention for the covariance estimate is unstated)
    for name, expect in zip(data.RESPONSES, OBSERVED_D_EFF):
        fits = []
        for augment in (data.optimal_augment_dataset(),
                        data.reference_augment_dataset()):
            merged = data.ccd_dataset().concat(augment)
            fits.append(
                fit(data.MODELS[name], merged, name, include_day_effect=True)
            )
        got = 100 * observed_efficiency(fits[0], fits[1])
        print(f"observed D-efficiency {name}: {got:.2f}% (published {expect}%)")
        if abs(got - expect) > 10.0:
            failures.append(
                f"observed efficiency {name}: {got:.2f}% vs {expect}%"
            )

    report(9, "BIC / prediction-error reproductions", failures)
