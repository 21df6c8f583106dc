"""Acceptance suite: nine criteria, one PASS/FAIL line printed per criterion.

Efficiency checks evaluate the bundled published designs against caches built
from the bundled locally optimal designs, so they are deterministic; swarm
searches run at reduced budget (swarm 40, 300 iterations) behind
lower-bound dominance assertions.

Four printed cells cannot be reproduced from the printed designs and
estimates under the documented criteria.  They are listed in
PUBLISHED_ERRATA with the evidence, and each is checked against the value
the bundled inputs determine, computed from the extended-precision
information oracle, instead of against its printed value.
"""

import math
import os
import time
from dataclasses import dataclass

import mpmath
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
    phi_bayes,
    phi_compromise,
    prediction_error,
    pso_maximize,
    solve_compromise,
)
from augdesign import data
from augdesign.estimation import gamma_log_likelihood
from augdesign.glm import Link, regressor_matrix
from mp_oracle import mp_info

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


def mp_phi(response, new_runs, flavor):
    """Phi_D or Phi_D1 of the initial design plus ``new_runs`` at the
    published estimates, from the 50-digit information matrix."""
    spec, params = data.MODELS[response], data.ESTIMATES[response]
    with mpmath.workdps(50):
        info = mp_info(spec, params, data.initial_design().concat(new_runs))
        last = info.rows - 1
        if flavor == "D":
            return float(mpmath.det(info) ** (mpmath.mpf(1) / info.rows))
        return float(1 / mpmath.inverse(info)[last, last])


@dataclass(frozen=True)
class Erratum:
    """A printed cell that the bundled printed inputs cannot give.

    The cell is checked against ``oracle()``, the efficiency (percent) of
    ``design`` relative to ``optimum`` under ``response``'s model, instead of
    against ``printed``.
    """

    printed: float
    response: str
    flavor: str
    design: Design
    optimum: Design
    evidence: str

    def oracle(self):
        return 100 * (
            mp_phi(self.response, self.design, self.flavor)
            / mp_phi(self.response, self.optimum, self.flavor)
        )


FLAME_WIDTH_D1_EVIDENCE = (
    "no nearby input gives the printed flame-width D1 values: full-precision "
    "fitted beta moves them < 0.05 points, rounding the designs by +-0.005 "
    "< 0.2%, gamma over [-0.03, 0.16] keeps the compromise eff_D1 <= 96.26%; "
    "the printed compromise-to-reference D1 ratio 97.89/63.81 = 1.534 "
    "(computed 1.578) involves neither optimum"
)

# Keyed by (criterion, cell) with the cell named as in the failure messages.
PUBLISHED_ERRATA = {
    (3, "temperature design under velocity"): Erratum(
        printed=CROSS_MODEL_D_EFF["temperature"][1],
        response="velocity",
        flavor="D",
        design=data.LOCAL_D_OPTIMAL["temperature"],
        optimum=data.LOCAL_D_OPTIMAL["velocity"],
        evidence=(
            "the paper prints no FDV for this design; every common FDV of the "
            "four runs gives 86.62%, the minimum over FDV in [-2, 2]^4 "
            "(maximum 90.07%), more than the tolerance above the printed value"
        ),
    ),
    (4, "vs D-optimum, flame_width"): Erratum(
        printed=REFERENCE_D1_VS_D_OPT[2],
        response="flame_width",
        flavor="D1",
        design=data.REFERENCE_DESIGN,
        optimum=data.LOCAL_D_OPTIMAL["flame_width"],
        evidence=FLAME_WIDTH_D1_EVIDENCE,
    ),
    (4, "vs D1-optimum, flame_width"): Erratum(
        printed=REFERENCE_D1_EFF[2],
        response="flame_width",
        flavor="D1",
        design=data.REFERENCE_DESIGN,
        optimum=data.LOCAL_D1_OPTIMAL["flame_width"],
        evidence=FLAME_WIDTH_D1_EVIDENCE,
    ),
    (6, "eff_D1 flame_width"): Erratum(
        printed=COMPROMISE_D1_EFF[2],
        response="flame_width",
        flavor="D1",
        design=data.COMPROMISE_DESIGN,
        optimum=data.LOCAL_D1_OPTIMAL["flame_width"],
        evidence=FLAME_WIDTH_D1_EVIDENCE,
    ),
}

COEFFICIENT_TOL = {
    "temperature": 1e-2,
    "velocity": 1e-3,
    "flame_width": 1e-3,
    "flame_intensity": 1e-2,
}


def check_cell(number, cell, got, printed, tol, failures, errata):
    """Compare a computed cell (percent) with its printed value or, for a
    published erratum, with the extended-precision oracle at rel 1e-9."""
    erratum = PUBLISHED_ERRATA.get((number, cell))
    if erratum is None:
        if abs(got - printed) > tol:
            failures.append(f"{cell}: {got:.2f}% vs published {printed:.2f}%")
        return
    expect = erratum.oracle()
    if not math.isclose(got, expect, rel_tol=1e-9):
        failures.append(f"erratum {cell}: {got!r}% vs oracle {expect!r}%")
    errata.append(
        f"erratum {cell}: printed {erratum.printed:.2f}%, computed "
        f"{got:.2f}%, gap {got - erratum.printed:+.2f} ({erratum.evidence})"
    )


def report(number, label, failures, errata=()):
    status = "FAIL" if failures else "PASS"
    print(f"\nACCEPTANCE {number} ({label}): {status}")
    for line in errata:
        print(f"  * {line}")
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
    failures, errata = [], []
    tol = 1.0
    for design_for, row in CROSS_MODEL_D_EFF.items():
        design = data.LOCAL_D_OPTIMAL[design_for]
        for model_name, expect in zip(data.RESPONSES, row):
            ens = local_ensembles[model_name]
            got = 100 * eff_D(ens.scenarios[0], design, ens)
            if design_for == model_name:
                if abs(got - 100.0) > 1e-9:
                    failures.append(f"diagonal {model_name}: {got:.6f}%")
            else:
                check_cell(3, f"{design_for} design under {model_name}",
                           got, expect, tol, failures, errata)

    # Evidence for the erratum.  The velocity information is free of beta
    # and gamma (log link), and a common FDV shift of the four new runs is
    # absorbed by the day column, so every common FDV gives one value: the
    # floor over all FDV completions of the temperature design.
    velocity = local_ensembles["velocity"]

    def with_fdv(fdv):
        coords = data.LOCAL_D_OPTIMAL["temperature"].coords.copy()
        coords[:, 3] = fdv
        design = Design.from_coords(coords, day=1)
        return 100 * eff_D(velocity.scenarios[0], design, velocity)

    floor = with_fdv(0.0)
    for fdv in (-2.0, -0.5, 1.0, 2.0):
        if not math.isclose(with_fdv(fdv), floor, rel_tol=1e-12):
            failures.append(f"common FDV {fdv} moves the floor {floor:.6f}%")
    rng = np.random.default_rng(3)
    for fdv in rng.uniform(-2, 2, size=(32, 4)):
        if with_fdv(fdv) < floor * (1 - 1e-12):
            failures.append(f"FDV {fdv} falls below the floor {floor:.6f}%")
            break
    printed = PUBLISHED_ERRATA[3, "temperature design under velocity"].printed
    if floor - printed <= tol:
        failures.append(
            f"printed {printed:.2f}% within {tol} of the FDV floor {floor:.2f}%"
        )
    report(3, "cross-model D-efficiency grid", failures, errata)


def test_criterion_4_d1_ratios(local_ensembles):
    failures, errata = [], []
    for name, expect in zip(data.RESPONSES, REFERENCE_D1_VS_D_OPT):
        ens = local_ensembles[name]
        got = 100 * d1_ratio_vs_d_optimum(
            ens.scenarios[0], data.REFERENCE_DESIGN, ens
        )
        check_cell(4, f"vs D-optimum, {name}", got, expect, 1.5,
                   failures, errata)
    for name, expect in zip(data.RESPONSES, REFERENCE_D1_EFF):
        ens = local_ensembles[name]
        got = 100 * eff_D1(ens.scenarios[0], data.REFERENCE_DESIGN, ens)
        check_cell(4, f"vs D1-optimum, {name}", got, expect, 1.5,
                   failures, errata)
    report(4, "D1 efficiency ratios", failures, errata)


def test_criterion_5_bayesian_designs(fixed_gamma_ensemble):
    ens = fixed_gamma_ensemble
    failures = []
    for flavor, alpha, published_design in (
        ("D", 1.0, data.BAYES_D_FIXED),
        ("D1", 0.0, data.BAYES_D1_FIXED),
    ):
        result = solve_compromise(ens, alpha, SEARCH)
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
    failures, errata = [], []
    for s, expect_d, expect_d1 in zip(
        ens.scenarios, COMPROMISE_D_EFF, COMPROMISE_D1_EFF
    ):
        got_d = 100 * eff_D(s, data.COMPROMISE_DESIGN, ens)
        got_d1 = 100 * eff_D1(s, data.COMPROMISE_DESIGN, ens)
        if abs(got_d - expect_d) > 1.5:
            failures.append(
                f"eff_D {s.spec.name}: {got_d:.2f}% vs published {expect_d:.2f}%"
            )
        check_cell(6, f"eff_D1 {s.spec.name}", got_d1, expect_d1, 1.5,
                   failures, errata)
    result = solve_compromise(ens, 0.5, SEARCH)
    published = phi_compromise(ens, data.COMPROMISE_DESIGN, 0.5)
    if result.best_value < published - 1e-6:
        failures.append(
            f"search {result.best_value:.6f} below published {published:.6f}"
        )
    report(6, "compromise design", failures, errata)


def test_criterion_7_experimental_efficiencies():
    failures = []
    for name, expect in zip(data.RESPONSES, EXPERIMENT_D_EFF):
        ens = data.single_scenario_ensemble(name)
        got = 100 * (
            ens.score_design(data.REFERENCE_DESIGN).D[0]
            / ens.score_design(data.BAYES_D_FIVE_GAMMA).D[0]
        )
        if abs(got - expect) > 1.5:
            failures.append(f"{name}: {got:.2f}% vs published {expect:.2f}%")
    report(7, "experimental-section efficiencies", failures)


def test_criterion_8_property_suites(local_ensembles):
    failures = []

    # information permutation / additivity / monotonicity
    from augdesign import fisher_info
    from scalar_oracle import log_det

    spec, params = data.MODELS["velocity"], data.ESTIMATES["velocity"]
    full = data.initial_design().concat(data.REFERENCE_DESIGN)
    rng = np.random.default_rng(11)
    order = rng.permutation(len(full))
    shuffled = Design(full.coords[order], full.days[order])
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
    for row, day in zip(data.REFERENCE_DESIGN.coords, data.REFERENCE_DESIGN.days):
        grown = grown.concat(Design.from_coords(row, day))
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
    va = local_ensembles["velocity"].score_design(data.REFERENCE_DESIGN).D[0]
    vb = ens_zero.score_design(data.REFERENCE_DESIGN).D[0]
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
            design = Design.from_coords(c, day=1)
            if eff_D(s, design, self_built) > 1.005:
                failures.append(f"{name}: eff_D exceeds self-built optimum")
                break
            if eff_D1(s, design, self_built) > 1.005:
                failures.append(f"{name}: eff_D1 exceeds self-built optimum")
                break

    # swarm determinism: the same seed gives a bit-identical search
    def sphere(f):
        return -np.sum((f - 0.5) ** 2, axis=(-2, -1))

    small = PsoConfig(swarm_size=12, iterations=40, restarts=2, seed=9)
    one = pso_maximize(sphere, 2, (0, 1, 2, 3), small)
    again = pso_maximize(sphere, 2, (0, 1, 2, 3), small)
    if not (one.best_design == again.best_design
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
