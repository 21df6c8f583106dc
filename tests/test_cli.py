import json

import numpy as np
import pytest

from augdesign import (
    Design,
    FittedModel,
    Link,
    ModelSpec,
    PsoConfig,
    Term,
    build_cache,
    eff_D,
    eff_D1,
    fit,
    predict,
)
from augdesign import cli, criteria, data
from augdesign.information import read_csv, write_csv
from augdesign.cli import (
    EXIT_CACHE,
    EXIT_DIMENSION,
    EXIT_DOMAIN,
    EXIT_FIT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TINY_SEARCH = ("--swarm", "4", "--iters", "2", "--restarts", "1")


@pytest.fixture
def reference_csv(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text(data.REFERENCE_DESIGN.to_csv())
    return path


@pytest.fixture
def degenerate_scenario(tmp_path):
    """Identity link with a day-1 predictor of 10 - 20 < 0 at every point, so
    every new run is infeasible and each local optimum scores zero."""
    spec = ModelSpec("flat", Link.IDENTITY, ("L",), (Term.intercept(), Term.main(0)))
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(
        {"model": spec.to_dict(), "beta": [10.0, 0.0], "gamma": -20.0}
    ))
    return path


@pytest.fixture
def short_beta_scenario(tmp_path):
    """The temperature model with two of its five coefficients."""
    path = tmp_path / "short.json"
    path.write_text(json.dumps({
        "model": data.MODELS["temperature"].to_dict(),
        "beta": [1500.0, -17.0],
        "gamma": -16.0,
    }))
    return path


class TestFitCommand:
    def test_bundled_temperature(self, capsys, tmp_path):
        out = tmp_path / "fit.json"
        code, stdout, _ = run_cli(
            capsys, "fit", "--bundled", "temperature", "--out", str(out)
        )
        assert code == EXIT_OK
        assert "1523.2627" in stdout
        model = FittedModel.from_json(out.read_text())
        assert model.spec.name == "temperature"

    def test_nonpositive_response_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "run,L,K,D,FDV,day,temperature\n1,0,0,0,0,0,10\n2,1,0,0,0,0,-3\n"
        )
        code, _, err = run_cli(
            capsys, "fit", "--bundled", "temperature", "--data", str(bad)
        )
        assert code == EXIT_PARSE
        assert "temperature" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_response_is_parse_error(self, capsys, tmp_path, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            f"run,L,K,D,FDV,day,temperature\n1,0,0,0,0,0,10\n2,1,0,0,0,0,{value}\n"
        )
        code, _, err = run_cli(
            capsys, "fit", "--bundled", "temperature", "--data", str(bad)
        )
        assert code == EXIT_PARSE
        assert "'temperature' has non-finite values" in err

    def test_missing_response_is_usage_error_as_in_predict(self, capsys, tmp_path):
        ccd = data.ccd_dataset()
        runs = tmp_path / "runs.csv"
        runs.write_text(
            write_csv(ccd.coords, ccd.days, {"y": ccd.responses["velocity"]})
        )
        model = tmp_path / "fit.json"
        assert run_cli(capsys, "fit", "--bundled", "temperature",
                       "--out", str(model))[0] == EXIT_OK
        code, _, fit_err = run_cli(
            capsys, "fit", "--bundled", "temperature", "--data", str(runs)
        )
        assert code == EXIT_USAGE
        assert "dataset has no response 'temperature'" in fit_err
        code, _, predict_err = run_cli(
            capsys, "predict", "--model", str(model), "--data", str(runs)
        )
        assert code == EXIT_USAGE
        assert predict_err == fit_err

    def test_singular_information_is_fit_error(self, capsys, tmp_path):
        # Twelve runs at one point cannot identify the five coefficients.
        flat = tmp_path / "flat.csv"
        flat.write_text("L,K,D,FDV,temperature\n" + "0,0,0,0,100\n" * 12)
        code, _, err = run_cli(
            capsys, "fit", "--bundled", "temperature", "--data", str(flat)
        )
        assert code == EXIT_FIT
        assert "fit error: expected information is singular" in err

    def test_day_effect_without_day_one_runs_is_fit_error(self, capsys):
        # The bundled data are the 30 day-0 runs of the initial design.
        code, _, err = run_cli(
            capsys, "fit", "--bundled", "temperature", "--day-effect"
        )
        assert code == EXIT_FIT
        assert ("fit error: the day effect needs runs on both day 0 and day 1, "
                "but every run has day 0") in err

    def test_link_override_worsens_bic(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "fit", "--bundled", "temperature", "--link", "log"
        )
        assert code == EXIT_OK
        bic = float(stdout.split("BIC")[1].split()[0])
        assert bic > data.BIC_VALUES["temperature"]

    def test_missing_model_is_usage_error(self, capsys, tmp_path):
        ds = tmp_path / "d.csv"
        ds.write_text(data.ccd_dataset().to_csv())
        code, _, err = run_cli(capsys, "fit", "--data", str(ds))
        assert code == EXIT_USAGE

    def test_unreadable_path_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "fit", "--model", "/nonexistent.json", "--response", "y"
        )
        assert code == EXIT_USAGE


TEMPERATURE_MODEL = data.MODELS["temperature"].to_dict()


def without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


MALFORMED_MODELS = [
    pytest.param("temperature", "a model must be a JSON object",
                 id="not-an-object"),
    pytest.param(without(TEMPERATURE_MODEL, "name"), 'a model needs a "name" key',
                 id="name-missing"),
    pytest.param(without(TEMPERATURE_MODEL, "link"), 'a model needs a "link" key',
                 id="link-missing"),
    pytest.param({**TEMPERATURE_MODEL, "factors": 4},
                 'a model needs a "factors" list', id="factors-number"),
    pytest.param({**TEMPERATURE_MODEL, "terms": 5}, 'a model needs a "terms" list',
                 id="terms-number"),
    pytest.param({**TEMPERATURE_MODEL, "terms": [["intercept"], 7]},
                 "a model term must be a non-empty list, got 7", id="term-number"),
    pytest.param({**TEMPERATURE_MODEL, "terms": [["intercept"], ["main"]]},
                 "['main'] is not a model term", id="term-without-factor"),
]


@pytest.mark.parametrize("model, named", MALFORMED_MODELS)
def test_malformed_model_file_is_parse_error(capsys, tmp_path, model, named):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    code, _, err = run_cli(
        capsys, "fit", "--model", str(path), "--response", "temperature"
    )
    assert code == EXIT_PARSE
    assert f"{path}: {named}" in err


@pytest.mark.parametrize(
    "model, named",
    [case for case in MALFORMED_MODELS if isinstance(case.values[0], dict)],
)
def test_malformed_scenario_model_is_parse_error_naming_the_file(
    capsys, tmp_path, model, named
):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "model": model,
        "beta": list(data.ESTIMATES["temperature"].beta),
        "gamma": data.ESTIMATES["temperature"].gamma,
    }))
    code, _, err = run_cli(
        capsys, "design", "--criterion", "D", "--models", str(path),
        *TINY_SEARCH,
    )
    assert code == EXIT_PARSE
    assert f"{path}: {named}" in err


class TestDesignCommand:
    def test_m_zero_warns(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "design", "--criterion", "D", "--m", "0"
        )
        assert code == EXIT_OK
        assert "warning" in stdout

    def test_m_zero_writes_the_design_csv_header(self, capsys, tmp_path):
        out = tmp_path / "empty.csv"
        code, _, _ = run_cli(
            capsys, "design", "--criterion", "D", "--m", "0", "--out", str(out)
        )
        assert code == EXIT_OK
        header = data.REFERENCE_DESIGN.to_csv().splitlines(keepends=True)[0]
        assert out.read_bytes() == header.encode()

    def test_m_zero_writes_a_report_of_value_zero(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "design", "--criterion", "bayesD", "--m", "0",
            "--report", str(report),
        )
        assert code == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload == {"criterion": "bayesD", "value": 0.0, "evaluations": 0}

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, flag):
        path = tmp_path / "missing" / "d.csv"
        code, _, err = run_cli(
            capsys, "design", "--criterion", "D", "--models", "temperature",
            *TINY_SEARCH, flag, str(path),
        )
        assert code == EXIT_USAGE
        assert f"cannot write {path}" in err

    def test_search_flag_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["design", "--criterion", "D"])
        assert cli._pso_config(args) == PsoConfig()

    def test_gammas_with_local_criterion_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "design", "--criterion", "D", "--gammas", "pm10pm20",
            *TINY_SEARCH,
        )
        assert code == EXIT_USAGE
        assert "--gammas" in err

    def test_bayes_d_is_compromise_at_alpha_one(self, capsys, tmp_path):
        outs = []
        for criterion in (["bayesD"], ["compromise", "--alpha", "1"]):
            out = tmp_path / f"{criterion[0]}.csv"
            code, _, _ = run_cli(
                capsys, "design", "--criterion", *criterion, *TINY_SEARCH,
                "--seed", "5", "--out", str(out),
            )
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_local_design_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "design.csv"
        report = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys, "design", "--criterion", "D", "--models", "temperature",
            "--swarm", "15", "--iters", "30", "--restarts", "1", "--seed", "3",
            "--out", str(out), "--report", str(report),
        )
        assert code == EXIT_OK
        design = Design.from_csv(out.read_text())
        assert len(design) == 4
        assert np.all(design.days == 1)
        payload = json.loads(report.read_text())
        assert payload["value"] > 0

    def test_bayes_reports_per_scenario(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "design", "--criterion", "bayesD", "--m", "4",
            "--swarm", "10", "--iters", "10", "--restarts", "1", "--seed", "1",
            "--report", str(report),
        )
        assert code == EXIT_OK
        payload = json.loads(report.read_text())
        assert len(payload["per_scenario"]) == 4
        for row in payload["per_scenario"]:
            assert row["eff_D"] > 0

    def test_multiple_models_for_local_criterion_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "design", "--criterion", "D",
            "--models", "temperature,velocity",
        )
        assert code == EXIT_USAGE

    def test_unknown_criterion_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "design", "--criterion", "E")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["--criterion", "compromise", "--alpha", "3"],
            ["--criterion", "bayesD", "--m", "-1"],
            ["--criterion", "D", "--swarm", "1"],
        ],
        ids=["alpha-outside-unit-interval", "negative-m", "swarm-of-one"],
    )
    def test_bad_search_argument_is_usage_error(self, capsys, argv):
        code, _, _ = run_cli(
            capsys, "design", "--iters", "2", "--restarts", "1", *argv
        )
        assert code == EXIT_USAGE

    def test_duplicate_models_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "design", "--criterion", "bayesD", "--gammas", "pm10",
            "--models", "temperature,temperature,velocity,velocity", *TINY_SEARCH,
        )
        assert code == EXIT_USAGE
        assert "twice" in err

    def test_gammas_expand_a_model_subset(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "design", "--criterion", "bayesD", "--gammas", "pm10",
            "--models", "temperature,velocity", *TINY_SEARCH, "--seed", "1",
            "--report", str(report),
        )
        assert code == EXIT_OK
        rows = json.loads(report.read_text())["per_scenario"]
        assert [(r["model"], r["gamma"]) for r in rows] == [
            (name, data.ESTIMATES[name].gamma * c)
            for name in ("temperature", "velocity")
            for c in (0.9, 1.0, 1.1)
        ]

    def test_degenerate_optimum_is_cache_error(self, capsys, degenerate_scenario):
        code, _, err = run_cli(
            capsys, "design", "--criterion", "bayesD",
            "--models", str(degenerate_scenario), *TINY_SEARCH,
        )
        assert code == EXIT_CACHE
        assert "cache error" in err


class TestEfficiencyCommand:
    def test_self_comparison_is_100(self, capsys, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_text(data.REFERENCE_DESIGN.to_csv())
        code, stdout, _ = run_cli(
            capsys, "efficiency", "--design", str(path),
            "--relative-to", str(path), "--model", "temperature",
        )
        assert code == EXIT_OK
        assert "100.00%" in stdout

    @pytest.mark.parametrize(
        "model, flavor, printed",
        [("temperature", "D", "81.63%"), ("temperature", "D1", "132.77%"),
         ("flame_width", "D", "75.86%"), ("flame_width", "D1", "83.90%"),
         ("flame_intensity", "D1", "516.60%")],
    )
    def test_relative_efficiency_of_bundled_designs(
        self, capsys, reference_csv, tmp_path, model, flavor, printed
    ):
        # The percentages the scalar criteria printed for these designs.
        other = tmp_path / "bayes.csv"
        other.write_text(data.BAYES_D_FIXED.to_csv())
        code, stdout, _ = run_cli(
            capsys, "efficiency", "--design", str(reference_csv),
            "--relative-to", str(other), "--model", model, "--flavor", flavor,
        )
        assert code == EXIT_OK
        assert stdout == f"eff_{flavor} relative to {other}: {printed}\n"

    def test_size_mismatch_is_dimension_error(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text(data.REFERENCE_DESIGN.to_csv())
        b = tmp_path / "b.csv"
        first_two = data.REFERENCE_DESIGN.coords[:2]
        b.write_text(Design.from_coords(first_two, day=1).to_csv())
        code, _, err = run_cli(
            capsys, "efficiency", "--design", str(a),
            "--relative-to", str(b), "--model", "temperature",
        )
        assert code == EXIT_DIMENSION

    @pytest.fixture
    def day0_csv(self, tmp_path):
        """A design file without a day column, so every run reads as day 0."""
        path = tmp_path / "day0.csv"
        path.write_text("L,K,D,FDV\n0,0,0,0\n1,1,1,1\n-1,1,-1,1\n1,-1,1,-1\n")
        return path

    @pytest.mark.parametrize("flag", ["--design", "--relative-to"])
    def test_day_zero_design_is_usage_error(
        self, capsys, reference_csv, day0_csv, flag
    ):
        other = "--relative-to" if flag == "--design" else "--design"
        code, _, err = run_cli(
            capsys, "efficiency", "--model", "temperature",
            flag, str(day0_csv), other, str(reference_csv),
        )
        assert code == EXIT_USAGE
        assert str(day0_csv) in err and "missing day column" in err

    def test_day_zero_design_rejected_before_the_search(
        self, capsys, monkeypatch, day0_csv
    ):
        monkeypatch.setattr(cli, "solve_local", None)
        code, _, err = run_cli(
            capsys, "efficiency", "--design", str(day0_csv),
            "--model", "temperature", *TINY_SEARCH,
        )
        assert code == EXIT_USAGE
        assert str(day0_csv) in err

    def test_reference_vs_local_optimum(self, capsys, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_text(data.REFERENCE_DESIGN.to_csv())
        code, stdout, _ = run_cli(
            capsys, "efficiency", "--design", str(path),
            "--model", "temperature", "--flavor", "D",
            "--swarm", "20", "--iters", "60", "--restarts", "1", "--seed", "2",
        )
        assert code == EXIT_OK
        value = float(stdout.split(":")[1].strip().rstrip("%"))
        assert value == pytest.approx(80.0, abs=1.0)

    @pytest.mark.parametrize("flavor", ["D", "D1"])
    def test_one_local_search_gives_the_cache_efficiency(
        self, capsys, monkeypatch, reference_csv, flavor
    ):
        calls, search = [], cli.solve_local

        def counted(ensemble, searches, *args):
            calls.append((len(ensemble.scenarios), searches))
            return search(ensemble, searches, *args)

        monkeypatch.setattr(cli, "solve_local", counted)
        code, stdout, _ = run_cli(
            capsys, "efficiency", "--design", str(reference_csv),
            "--model", "temperature", "--flavor", flavor, *TINY_SEARCH,
            "--seed", "4",
        )
        assert code == EXIT_OK
        assert calls == [(1, [(0, flavor)])]
        # The percentage that the cache of both local searches gives.
        ensemble = data.single_scenario_ensemble("temperature")
        config = PsoConfig(swarm_size=4, iterations=2, restarts=1, seed=4)
        build_cache(ensemble, config)
        eff = eff_D if flavor == "D" else eff_D1
        value = eff(ensemble.scenarios[0], data.REFERENCE_DESIGN, ensemble)
        assert stdout == f"eff_{flavor} vs local optimum: {100*value:.2f}%\n"

    def test_degenerate_optimum_is_cache_error(
        self, capsys, reference_csv, degenerate_scenario
    ):
        code, _, err = run_cli(
            capsys, "efficiency", "--design", str(reference_csv),
            "--model", str(degenerate_scenario), *TINY_SEARCH,
        )
        assert code == EXIT_CACHE
        assert "cache error" in err

    @pytest.fixture
    def corner_case(self, tmp_path):
        """The temperature model with intercept 100, under which the CCD lies
        inside the identity link's domain, and a design of day-1 runs with
        three corners where the predictor does not."""
        e = data.ESTIMATES["temperature"]
        model = tmp_path / "t100.json"
        model.write_text(json.dumps({
            "model": data.MODELS["temperature"].to_dict(),
            "beta": [100.0, *e.beta[1:]],
            "gamma": e.gamma,
        }))
        corner = tmp_path / "corner.csv"
        runs = [[2, -2, 2, 0], [-2, 2, -2, 0], [2, 2, -2, 0], [0, 0, 0, 0]]
        corner.write_text(Design.from_coords(runs, day=1).to_csv())
        return model, corner

    @pytest.mark.parametrize("swapped", [False, True], ids=["design", "relative-to"])
    def test_design_outside_the_domain_is_domain_error(
        self, capsys, reference_csv, corner_case, swapped
    ):
        # Scored, the corner design reads 0: as the design it printed 0.00%,
        # as the comparison a zero criterion value.
        model, corner = corner_case
        design, other = (reference_csv, corner) if swapped else (corner, reference_csv)
        code, stdout, err = run_cli(
            capsys, "efficiency", "--design", str(design),
            "--relative-to", str(other), "--model", str(model),
        )
        assert code == EXIT_DOMAIN
        assert stdout == ""
        assert (f"domain error: the design in {corner} lies outside the identity "
                "link's domain under model 'temperature'") in err

    def test_design_outside_the_domain_vs_local_optimum_is_domain_error(
        self, capsys, corner_case
    ):
        model, corner = corner_case
        code, stdout, err = run_cli(
            capsys, "efficiency", "--design", str(corner), "--model", str(model),
            *TINY_SEARCH,
        )
        assert code == EXIT_DOMAIN
        assert stdout == ""
        assert f"the design in {corner}" in err and "model 'temperature'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--criterion", "bayesD"],
        ["design", "--criterion", "D"],
        ["efficiency", "--model", "temperature"],
        ["efficiency", "--model", "temperature", "--relative-to"],
    ],
    ids=["design-bayesD", "design-D", "efficiency", "efficiency-relative-to"],
)
def test_negative_seed_is_usage_error(capsys, reference_csv, argv):
    # efficiency checks the search flags whether or not it searches.
    if argv[-1] == "--relative-to":
        argv = argv + [str(reference_csv)]
    if argv[0] == "efficiency":
        argv = argv + ["--design", str(reference_csv)]
    code, _, err = run_cli(capsys, *argv, *TINY_SEARCH, "--seed", "-1")
    assert code == EXIT_USAGE
    assert "seed" in err


@pytest.mark.parametrize(
    "argv, whitened",
    [
        (["design", "--criterion", "bayesD", "--gammas", "fixed"],
         sorted(data.RESPONSES)),
        (["design", "--criterion", "D"], ["temperature"]),
        (["efficiency", "--model", "temperature"], ["temperature"]),
    ],
    ids=["design-bayesD", "design-D", "efficiency"],
)
def test_each_day_zero_block_is_whitened_once(
    capsys, monkeypatch, reference_csv, argv, whitened
):
    # criteria.fisher_info forms only the ensemble's day-0 blocks, one per
    # (model, beta) group; the local searches run on the same ensemble.
    names, assemble = [], criteria.fisher_info

    def counted(spec, *args, **kwargs):
        names.append(spec.name)
        return assemble(spec, *args, **kwargs)

    monkeypatch.setattr(criteria, "fisher_info", counted)
    if argv[0] == "efficiency":
        argv = argv + ["--design", str(reference_csv)]
    code, _, _ = run_cli(capsys, *argv, *TINY_SEARCH)
    assert code == EXIT_OK
    assert sorted(names) == whitened


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--criterion", "bayesD"],
        ["design", "--criterion", "D"],
        ["efficiency"],
    ],
    ids=["design-bayesD", "design-D", "efficiency"],
)
def test_short_beta_is_parse_error_naming_the_model(
    capsys, reference_csv, short_beta_scenario, argv
):
    flag = "--model" if argv[0] == "efficiency" else "--models"
    argv = argv + [flag, str(short_beta_scenario)]
    if argv[0] == "efficiency":
        argv += ["--design", str(reference_csv)]
    code, _, err = run_cli(capsys, *argv, *TINY_SEARCH)
    assert code == EXIT_PARSE
    assert "model 'temperature' has 2 coefficients" in err


@pytest.mark.parametrize("criterion", ["D", "bayesD"])
@pytest.mark.parametrize("field", ["beta", "gamma"])
def test_non_finite_parameter_is_parse_error_naming_the_model(
    capsys, tmp_path, criterion, field
):
    # json reads NaN, so a scenario file can carry one.
    d = {
        "model": data.MODELS["temperature"].to_dict(),
        "beta": list(data.ESTIMATES["temperature"].beta),
        "gamma": data.ESTIMATES["temperature"].gamma,
    }
    if field == "beta":
        d["beta"][0] = float("nan")
    else:
        d["gamma"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(d))
    code, _, err = run_cli(
        capsys, "design", "--criterion", criterion, "--models", str(path),
        *TINY_SEARCH,
    )
    assert code == EXIT_PARSE
    assert "model 'temperature' has a non-finite" in err


@pytest.mark.parametrize("criterion", ["D", "bayesD"])
def test_initial_design_outside_the_domain_is_exit_6_naming_the_model(
    capsys, tmp_path, criterion
):
    # An intercept of -1 puts the initial design's centre runs at a
    # predictor of -1, outside the identity link's domain.
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "model": data.MODELS["temperature"].to_dict(),
        "beta": [-1.0, *data.ESTIMATES["temperature"].beta[1:]],
        "gamma": data.ESTIMATES["temperature"].gamma,
    }))
    code, _, err = run_cli(
        capsys, "design", "--criterion", criterion, "--models", str(path),
        *TINY_SEARCH,
    )
    assert code == EXIT_DOMAIN
    assert "domain error" in err and "model 'temperature'" in err


BETA = list(data.ESTIMATES["temperature"].beta)
NOT_A_NUMBER = (
    "model 'temperature' has a coefficient or day effect that is not a number"
)


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("beta", [BETA[0], "abc", *BETA[2:]], NOT_A_NUMBER),
        ("beta", [BETA[0], None, *BETA[2:]], NOT_A_NUMBER),
        ("beta", [True, *BETA[1:]], NOT_A_NUMBER),
        ("gamma", "abc", NOT_A_NUMBER),
        ("gamma", True, NOT_A_NUMBER),
        ("model", "temperature", 'scenario.json: a scenario needs a "model" object'),
        ("beta", 5.0, 'scenario.json: a scenario needs a "beta" list'),
        ("model", {**data.MODELS["temperature"].to_dict(),
                   "factors": ["L", "K", "D", "K"]},
         "scenario.json: factor 'K' is named twice"),
    ],
    ids=["beta-string", "beta-null", "beta-bool", "gamma-string", "gamma-bool",
         "model-string", "beta-number", "factor-twice"],
)
def test_malformed_scenario_is_parse_error(capsys, tmp_path, field, value, named):
    d = {
        "model": data.MODELS["temperature"].to_dict(),
        "beta": BETA,
        "gamma": data.ESTIMATES["temperature"].gamma,
    }
    d[field] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    code, _, err = run_cli(
        capsys, "design", "--criterion", "D", "--models", str(path),
        *TINY_SEARCH,
    )
    assert code == EXIT_PARSE
    assert named in err


INTERCEPT_ONLY = {"name": "c", "link": "log", "factors": [], "terms": [["intercept"]]}


@pytest.mark.parametrize("criterion", ["D", "bayesD"])
def test_model_without_factors_is_named_by_the_search(capsys, tmp_path, criterion):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": INTERCEPT_ONLY, "beta": [1.0],
                                "gamma": 0.1}))
    code, _, err = run_cli(
        capsys, "design", "--criterion", criterion, "--models", str(path),
        *TINY_SEARCH,
    )
    assert code == EXIT_PARSE
    assert "model 'c' has no factor to search" in err


def test_fit_accepts_a_model_without_factors(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(INTERCEPT_ONLY))
    code, _, _ = run_cli(capsys, "fit", "--model", str(path),
                         "--response", "temperature")
    assert code == EXIT_OK


def test_bad_design_cell_is_parse_error_naming_the_line(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("run,L,K,D,FDV,day\n1,0,0,0,0,1\n2,0,x,0,0,1\n")
    code, _, err = run_cli(
        capsys, "efficiency", "--design", str(path), "--relative-to", str(path),
        "--model", "temperature",
    )
    assert code == EXIT_PARSE
    assert "line 3" in err


class TestPredictCommand:
    @pytest.fixture
    def fitted(self, tmp_path):
        merged = data.ccd_dataset().concat(data.reference_augment_dataset())
        model = fit(data.MODELS["temperature"], merged, "temperature",
                    include_day_effect=True)
        path = tmp_path / "model.json"
        path.write_text(model.to_json())
        return path

    def test_metric_reported(self, capsys, fitted, tmp_path):
        out = tmp_path / "pred.csv"
        code, stdout, _ = run_cli(
            capsys, "predict", "--model", str(fitted), "--metric", "rmse",
            "--out", str(out),
        )
        assert code == EXIT_OK
        value = float(stdout.strip().split()[-1])
        assert value == pytest.approx(16.97, abs=0.02)
        assert out.read_bytes().startswith(
            b"run,L,K,D,FDV,day,observed,predicted,residual\r\n"
        )

    def test_csv_gives_runs_and_residuals(self, capsys, fitted, tmp_path):
        out = tmp_path / "pred.csv"
        code, stdout, _ = run_cli(
            capsys, "predict", "--model", str(fitted), "--out", str(out)
        )
        assert code == EXIT_OK
        text = out.read_bytes().decode()
        assert stdout.startswith(text)
        assert text.count("\r\n") == text.count("\n") == 15
        coords, days, columns = read_csv(text, responses=True)
        validation = data.validation_dataset()
        assert Design(coords, days) == Design(validation.coords, validation.days)
        observed = validation.responses["temperature"]
        predicted = predict(FittedModel.from_json(fitted.read_text()), validation)
        assert np.allclose(columns["observed"], observed, rtol=1e-9)
        assert np.allclose(columns["predicted"], predicted, rtol=1e-9)
        assert np.allclose(columns["residual"], predicted - observed, rtol=1e-9)

    def test_model_without_day_effect_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "fit.json"
        code, _, _ = run_cli(
            capsys, "fit", "--bundled", "temperature", "--out", str(path)
        )
        assert code == EXIT_OK
        code, _, err = run_cli(capsys, "predict", "--model", str(path))
        assert code == EXIT_USAGE
        assert "fit --day-effect" in err

    def test_unknown_metric_is_usage_error(self, capsys, fitted):
        code, _, _ = run_cli(
            capsys, "predict", "--model", str(fitted), "--metric", "r2"
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "change, named",
        [
            (lambda d: "x", "a fitted model must be a JSON object"),
            (lambda d: without(d, "model"), "a fitted model needs the keys ['model']"),
            (lambda d: {**d, "beta_hat": ["abc", *d["beta_hat"][1:]]},
             '"beta_hat" must hold 5 finite real numbers'),
            (lambda d: {**d, "beta_hat": d["beta_hat"][:-1]},
             '"beta_hat" must hold 5 finite real numbers'),
            (lambda d: {**d, "beta_hat": [float("nan"), *d["beta_hat"][1:]]},
             '"beta_hat" must hold 5 finite real numbers'),
            (lambda d: {**d, "beta_hat": [True, *d["beta_hat"][1:]]},
             '"beta_hat" must hold 5 finite real numbers'),
            (lambda d: {**d, "gamma_hat": "abc"},
             '"gamma_hat" must be a finite real number or null'),
            (lambda d: {**d, "gamma_hat": True},
             '"gamma_hat" must be a finite real number or null'),
            (lambda d: {**d, "nu_hat": None}, '"nu_hat" must be a finite real number'),
            (lambda d: {**d, "nu_hat": True}, '"nu_hat" must be a finite real number'),
            (lambda d: {**d, "std_errors": None},
             '"std_errors" must hold 6 finite real numbers'),
            (lambda d: {**d, "std_errors": 5},
             '"std_errors" must hold 6 finite real numbers'),
            (lambda d: {**d, "std_errors": d["std_errors"][:-1]},
             '"std_errors" must hold 6 finite real numbers'),
            (lambda d: {**d, "std_errors": [None, *d["std_errors"][1:]]},
             '"std_errors" must hold 6 finite real numbers'),
            (lambda d: {**d, "gamma_hat": None},
             '"std_errors" must hold 5 finite real numbers'),
            (lambda d: {**d, "covariance": None},
             '"covariance" must be a 6 by 6 array of finite real numbers'),
            (lambda d: {**d, "covariance": d["covariance"][:-1]},
             '"covariance" must be a 6 by 6 array of finite real numbers'),
            (lambda d: {**d, "covariance": [row[:-1] for row in d["covariance"]]},
             '"covariance" must be a 6 by 6 array of finite real numbers'),
            (lambda d: {**d, "covariance": [[float("inf"), *d["covariance"][0][1:]],
                                            *d["covariance"][1:]]},
             '"covariance" must be a 6 by 6 array of finite real numbers'),
            (lambda d: {**d, "log_likelihood": None},
             '"log_likelihood" must be a finite real number'),
            (lambda d: {**d, "log_likelihood": False},
             '"log_likelihood" must be a finite real number'),
            (lambda d: {**d, "bic": "516.9"}, '"bic" must be a finite real number'),
            (lambda d: {**d, "bic": float("nan")}, '"bic" must be a finite real number'),
            (lambda d: {**d, "n": 0}, '"n" must be a positive integer'),
            (lambda d: {**d, "n": 34.0}, '"n" must be a positive integer'),
            (lambda d: {**d, "n": True}, '"n" must be a positive integer'),
            (lambda d: {**d, "n": None}, '"n" must be a positive integer'),
        ],
        ids=["not-an-object", "model-missing", "beta-string", "beta-short",
             "beta-nan", "beta-bool", "gamma-string", "gamma-bool", "nu-null",
             "nu-bool", "se-null", "se-number", "se-short", "se-null-entry",
             "se-without-gamma", "cov-null", "cov-short", "cov-narrow", "cov-inf", "loglik-null",
             "loglik-bool", "bic-string", "bic-nan", "n-zero", "n-float",
             "n-bool", "n-null"],
    )
    def test_malformed_model_file_is_parse_error(
        self, capsys, fitted, tmp_path, change, named
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(change(json.loads(fitted.read_text()))))
        code, _, err = run_cli(capsys, "predict", "--model", str(path))
        assert code == EXIT_PARSE
        assert f"{path}: {named}" in err

    def test_domain_violation_is_exit_6(self, capsys, tmp_path):
        model = fit(data.MODELS["temperature"], data.ccd_dataset(),
                    "temperature", include_day_effect=False)
        import dataclasses

        broken = dataclasses.replace(
            model, beta_hat=(-5.0,) + model.beta_hat[1:]
        )
        path = tmp_path / "model.json"
        path.write_text(broken.to_json())
        ds = tmp_path / "d.csv"
        ds.write_text("run,L,K,D,FDV,day,temperature\n1,0,0,0,0,0,10\n")
        code, _, err = run_cli(
            capsys, "predict", "--model", str(path), "--data", str(ds)
        )
        assert code == EXIT_DOMAIN
        assert "outside the identity link's domain under model 'temperature'" in err
