"""Command-line interface: fit models, search designs, report efficiencies,
and score predictions, all runnable against the bundled experiment data."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import data
from .criteria import (
    DegenerateOptimumError,
    MissingCacheError,
    Scenario,
    ScenarioEnsemble,
    eff_D,
    eff_D1,
)
from .estimation import (
    Dataset,
    DivergenceError,
    FittedModel,
    METRICS,
    RankDeficientError,
    fit,
    predict,
    prediction_error,
)
from .glm import (
    InvalidPredictorError,
    Link,
    MissingGammaError,
    ModelSpec,
    ParamPoint,
    Term,
    TermKind,
)
from .information import Design, fisher_info, write_csv
from .optimizer import PsoConfig, build_cache, solve_compromise, solve_local

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_FIT = 3
EXIT_CACHE = 4
EXIT_DIMENSION = 5
EXIT_DOMAIN = 6


class UsageError(Exception):
    pass


class DimensionError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _parse_json(path: str, parse):
    """``parse`` applied to a file's JSON value; a ValueError names the file."""
    text = _read(path)
    try:
        return parse(json.loads(text))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _new_runs(path: str) -> Design:
    """A design file of new runs, which must all carry day=1."""
    design = Design.from_csv(_read(path))
    if (design.days == 0).any():
        raise UsageError(
            f"{path} has a day-0 run, but only new day-1 runs can be scored "
            "(a missing day column reads as day 0)"
        )
    return design


def _check_response(dataset: Dataset, response: str) -> None:
    if response not in dataset.responses:
        raise UsageError(f"dataset has no response {response!r}")


def _load_dataset(args) -> Dataset:
    if args.data:
        return Dataset.from_csv(_read(args.data))
    return data.ccd_dataset()


def _scenario_from_arg(value: str) -> Scenario:
    """A bundled response name, or a path to a scenario JSON
    {"model": ..., "beta": [...], "gamma": ...}."""
    if value in data.RESPONSES:
        return Scenario(data.MODELS[value], data.ESTIMATES[value], 1.0)
    return _parse_json(value, _scenario_from_dict)


def _scenario_from_dict(d) -> Scenario:
    if not isinstance(d, dict) or not isinstance(d.get("model"), dict):
        raise ValueError("a scenario needs a \"model\" object")
    if not isinstance(d.get("beta"), list):
        raise ValueError("a scenario needs a \"beta\" list")
    return Scenario(
        ModelSpec.from_dict(d["model"]),
        ParamPoint(tuple(d["beta"]), d.get("gamma")),
        1.0,
    )


def _pso_config(args) -> PsoConfig:
    try:
        return PsoConfig(
            swarm_size=args.swarm,
            iterations=args.iters,
            restarts=args.restarts,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _add_pso_flags(parser) -> None:
    default = PsoConfig()
    parser.add_argument("--swarm", type=int, default=default.swarm_size)
    parser.add_argument("--iters", type=int, default=default.iterations)
    parser.add_argument("--restarts", type=int, default=default.restarts)
    parser.add_argument("--seed", type=int, default=default.seed)


def cmd_fit(args) -> int:
    if args.bundled:
        spec = data.MODELS[args.bundled]
        response = args.bundled
    else:
        if not args.model or not args.response:
            raise UsageError("--model and --response are required without --bundled")
        spec = _parse_json(args.model, ModelSpec.from_dict)
        response = args.response
    if args.link:
        spec = ModelSpec(spec.name, Link(args.link), spec.factors, spec.terms)
    dataset = _load_dataset(args)
    _check_response(dataset, response)
    model = fit(spec, dataset, response, include_day_effect=args.day_effect)

    labels = [_term_label(spec, t) for t in spec.terms]
    estimates = list(model.beta_hat)
    if model.gamma_hat is not None:
        labels.append("day")
        estimates.append(model.gamma_hat)
    print(f"response: {response}   link: {spec.link.value}   n = {model.n}")
    for label, b, se in zip(labels, estimates, model.std_errors):
        print(f"  {label:<12} {b:14.4f}  ({se:.4f})")
    print(f"  shape nu     {model.nu_hat:14.4f}")
    print(f"  loglik {model.log_likelihood:.4f}   BIC {model.bic:.3f}")
    if args.out:
        _write(args.out, model.to_json())
    return EXIT_OK


def _term_label(spec: ModelSpec, term: Term) -> str:
    names = spec.factor_names(term)
    if term.kind is TermKind.SQUARE:
        return f"{names[0]}^2"
    return "*".join(names) or "intercept"


def _report_efficiencies(ensemble: ScenarioEnsemble, design: Design) -> list[dict]:
    rows = []
    for s in ensemble.scenarios:
        rows.append(
            {
                "model": s.spec.name,
                "gamma": s.params.gamma,
                "eff_D": eff_D(s, design, ensemble),
                "eff_D1": eff_D1(s, design, ensemble),
            }
        )
    return rows


def _local_optimum(ensemble: ScenarioEnsemble, flavor: str, config: PsoConfig):
    """The local ``flavor`` search on row 0 of the ensemble; a zero
    optimum, against which no efficiency exists, is a cache error."""
    (result,) = solve_local(ensemble, [(0, flavor)], config)
    if result.best_value <= 0:
        raise DegenerateOptimumError(f"the local {flavor} optimum is 0")
    return result


def cmd_design(args) -> int:
    config = _pso_config(args)
    if args.m < 0:
        raise UsageError(f"--m must be non-negative, got {args.m}")
    if not 0.0 <= args.alpha <= 1.0:
        raise UsageError(f"--alpha must lie in [0, 1], got {args.alpha}")
    if args.gammas and args.criterion in ("D", "D1"):
        raise UsageError(
            "--gammas applies only to the Bayesian and compromise criteria"
        )
    local = args.criterion in ("D", "D1")
    names = (args.models.split(",") if args.models
             else ["temperature"] if local else list(data.RESPONSES))
    if local and len(names) != 1:
        raise UsageError(f"criterion {args.criterion} takes exactly one model")
    if len(set(names)) != len(names):
        raise UsageError(f"--models names a model twice: {args.models}")
    scenarios = [_scenario_from_arg(n) for n in names]
    if args.m == 0:
        print("warning: m=0 requested; empty design, criterion value 0")
        if args.out:
            _write(args.out, write_csv((), ()))
        if args.report:
            report = {"criterion": args.criterion, "value": 0.0, "evaluations": 0}
            _write(args.report, json.dumps(report, indent=2))
        return EXIT_OK

    if local:
        ensemble = ScenarioEnsemble(scenarios, data.initial_design(), args.m)
        result = _local_optimum(ensemble, args.criterion, config)
        report = {"criterion": args.criterion, "value": result.best_value,
                  "evaluations": result.evaluations}
    else:
        ensemble = data.model_ensemble(args.gammas or "fixed", args.m, scenarios)
        build_cache(ensemble, config)
        alpha = {"bayesD": 1.0, "bayesD1": 0.0}.get(args.criterion, args.alpha)
        result = solve_compromise(ensemble, alpha, config)
        report = {
            "criterion": args.criterion,
            "value": result.best_value,
            "evaluations": result.evaluations,
            "per_scenario": _report_efficiencies(ensemble, result.best_design),
        }
        if args.criterion == "compromise":
            report["alpha"] = args.alpha

    csv_text = result.best_design.to_csv()
    print(csv_text, end="")
    print(f"criterion value: {result.best_value:.6g}")
    if args.out:
        _write(args.out, csv_text)
    if args.report:
        _write(args.report, json.dumps(report, indent=2))
    return EXIT_OK


def cmd_efficiency(args) -> int:
    config = _pso_config(args)
    scenario = _scenario_from_arg(args.model)
    design = _new_runs(args.design)
    m = len(design)
    ensemble = ScenarioEnsemble([scenario], data.initial_design(), m)
    if args.relative_to:
        other = _new_runs(args.relative_to)
        if len(other) != m:
            raise DimensionError(
                f"designs have different sizes: {m} vs {len(other)}"
            )
        # A run outside the link domain would score the design 0; raise
        # InvalidPredictorError (exit 6) instead.
        fisher_info(scenario.spec, scenario.params, other,
                    what=f"the design in {args.relative_to}")
        denom = getattr(ensemble.score_design(other), args.flavor)[0]
        if denom <= 0:
            raise DimensionError("comparison design has zero criterion value")
        label = f"relative to {args.relative_to}"
    else:
        denom = _local_optimum(ensemble, args.flavor, config).best_value
        label = "vs local optimum"
    fisher_info(scenario.spec, scenario.params, design,
                what=f"the design in {args.design}")
    ratio = getattr(ensemble.score_design(design), args.flavor)[0] / denom
    print(f"eff_{args.flavor} {label}: {100*ratio:.2f}%")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = _parse_json(args.model, FittedModel.from_dict)
    dataset = Dataset.from_csv(_read(args.data)) if args.data else data.validation_dataset()
    response = args.response or model.spec.name
    _check_response(dataset, response)
    observed = dataset.responses[response]
    predicted = predict(model, dataset)
    csv_text = write_csv(dataset.coords, dataset.days, {
        "observed": observed,
        "predicted": predicted,
        "residual": predicted - observed,
    })
    print(csv_text, end="")
    value = prediction_error(model, dataset, response, args.metric)
    print(f"{args.metric}: {value:.6g}")
    if args.out:
        _write(args.out, csv_text)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="augdesign")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a Gamma GLM to run data")
    p.add_argument("--bundled", choices=data.RESPONSES)
    p.add_argument("--data")
    p.add_argument("--model")
    p.add_argument("--response")
    p.add_argument("--link", choices=[l.value for l in Link])
    p.add_argument("--day-effect", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("design", help="search for an optimal augmentation design")
    p.add_argument("--criterion", required=True,
                   choices=["D", "D1", "bayesD", "bayesD1", "compromise"])
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--models")
    p.add_argument("--gammas", choices=["fixed", "pm10", "pm10pm20"])
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--out")
    p.add_argument("--report")
    _add_pso_flags(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("efficiency", help="evaluate a design against an optimum")
    p.add_argument("--design", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--relative-to")
    p.add_argument("--flavor", choices=["D", "D1"], default="D")
    _add_pso_flags(p)
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("predict", help="score a fitted model on run data")
    p.add_argument("--model", required=True)
    p.add_argument("--data")
    p.add_argument("--response")
    p.add_argument("--metric", choices=list(METRICS), default="rmse")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MissingGammaError as exc:
        print(f"usage error: {exc}; refit with `augdesign fit --day-effect` "
              "to predict day-1 runs", file=sys.stderr)
        return EXIT_USAGE
    except (json.JSONDecodeError, KeyError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DivergenceError, RankDeficientError) as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (MissingCacheError, DegenerateOptimumError) as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except DimensionError as exc:
        print(f"dimension error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except InvalidPredictorError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
