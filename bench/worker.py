"""One benchmark run in a fresh, pinned process; started by ``bench/run.py``.

Imports ``augdesign`` (the set-up), builds the workload's inputs from the
seed, runs timed jobs back to back until ``--seconds`` of measured time is
used, checks every output outside the timed region, and prints one JSON
object with the raw results.  With ``--trace 1`` half the time runs
untraced and the same jobs then run again under the tracer; the two
passes must give identical deterministic records.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from augdesign import cli, criteria, data, estimation, information, optimizer
from augdesign.criteria import ScenarioEnsemble
from augdesign.information import Design

from oracle import Oracle
from tracer import Tracer, rebind

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MAX_JOBS = 64
M = 4
# Relative tolerance of a program value against the oracle.  The program
# factors with Cholesky and the oracle with LU; they agree to about 5e-15
# on these matrices, so 1e-9 leaves room for a reordered factorization
# without hiding a wrong criterion.
RTOL = 1e-9
# Published prediction RMSEs on the 14 validation runs after fitting the
# initial runs plus the optimal or the reference augmentation (response
# order temperature, velocity, flame width, flame intensity).
RMSE_PUBLISHED = {
    "optimal": (27.40, 12.65, 1.43, 1.89),
    "reference": (16.97, 8.91, 4.10, 2.73),
}
RMSE_TOL = 0.01

SEARCH = {
    # Four scenarios, so per-particle Python overhead dominates and all
    # scenarios differ: the bypass case for scenario dedup.
    "bayesD-fixed": {
        "argv": ["--criterion", "bayesD", "--gammas", "fixed"],
        "gammas": "fixed", "alpha": 1.0,
        "budget": ("20", "80", "2"), "smoke": ("4", "3", "1"),
    },
    # Twenty scenarios, both D and D1 paths, O(S^2) index_of, and five
    # information-equivalent velocity scenarios: the dedup case.
    "compromise-pm10pm20": {
        "argv": ["--criterion", "compromise", "--alpha", "0.5",
                 "--gammas", "pm10pm20"],
        "gammas": "pm10pm20", "alpha": 0.5,
        "budget": ("10", "50", "1"), "smoke": ("4", "2", "1"),
    },
}
QUERIES_PER_JOB = 150
QUERIES_SMOKE = 6
PUBLISHED_EVERY = 10

# Traced bindings: (owner, attribute, span name, full spans, workloads on
# which the wrapper must fire).  Each name is wrapped where its caller
# looks it up.
ALL = frozenset(("bayesD-fixed", "compromise-pm10pm20", "efficiency-table"))
SEARCHES = frozenset(SEARCH)
BAYES_D = frozenset(("bayesD-fixed",))
COMPROMISE = frozenset(("compromise-pm10pm20",))
TABLE = frozenset(("efficiency-table",))
TRACED = [
    (cli, "main", "cli.main", True, SEARCHES),
    (cli, "build_cache", "optimizer.build_cache", True, SEARCHES),
    (cli, "solve_bayes", "optimizer.final_search", True, BAYES_D),
    (cli, "solve_compromise", "optimizer.final_search", True, COMPROMISE),
    (cli, "eff_D", "criteria.eff", False, SEARCHES),
    (cli, "eff_D1", "criteria.eff", False, SEARCHES),
    (data, "model_ensemble", "data.model_ensemble", False, ALL),
    (estimation, "fit", "estimation.fit", False, TABLE),
    (estimation, "predict", "estimation.predict", False, TABLE),
    (estimation, "regressor_matrix", "glm.regressor_matrix", False, TABLE),
    (optimizer, "solve_local", "optimizer.solve_local", True, SEARCHES),
    (optimizer, "pso_maximize", "optimizer.pso_maximize", True, SEARCHES),
    (optimizer, "phi_D", "criteria.phi_D", False, SEARCHES),
    (optimizer, "phi_D1", "criteria.phi_D1", False, SEARCHES),
    (optimizer, "phi_bayes", "criteria.phi_bayes", False, BAYES_D),
    (optimizer, "phi_compromise", "criteria.phi_compromise", False, COMPROMISE),
    (criteria, "phi_bayes", "criteria.phi_bayes", False, COMPROMISE | TABLE),
    (criteria, "eff_D", "criteria.eff", False, ALL),
    (criteria, "eff_D1", "criteria.eff", False, COMPROMISE | TABLE),
    (criteria, "phi_D", "criteria.phi_D", False, ALL),
    (criteria, "phi_D1", "criteria.phi_D1", False, ALL),
    (ScenarioEnsemble, "index_of", "criteria.index_of", False, ALL),
    (ScenarioEnsemble, "augmented_entries", "criteria.augmented_entries",
     False, ALL),
    (ScenarioEnsemble, "set_optimal", "criteria.set_optimal", False, ALL),
    (criteria, "augmented_info_entries", "information.augmented_info_entries",
     False, ALL),
    (criteria, "log_det", "information.log_det", False, ALL),
    (criteria, "inv_quadratic_form", "information.inv_quadratic_form",
     False, ALL),
    (information, "regressor_matrix", "glm.regressor_matrix", False, ALL),
]
ZERO = {
    "criteria.phi_D": lambda v: v == 0.0,
    "criteria.phi_D1": lambda v: v == 0.0,
    "information.log_det": lambda v: v == float("-inf"),
    "information.inv_quadratic_form": lambda v: v == 0.0,
}


def fingerprint(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= RTOL * abs(want) + 1e-300


def yardstick(gammas: str) -> Oracle:
    """Oracle over the ``gammas`` ensemble with bundled-design optima."""
    ens = data.model_ensemble(gammas, M)
    optima = {
        name: (data.LOCAL_D_OPTIMAL[name].coords, data.LOCAL_D1_OPTIMAL[name].coords)
        for name in data.RESPONSES
    }
    return Oracle(
        [(s.spec, s.params, s.weight) for s in ens.scenarios],
        data.initial_design().coords, optima,
    )


class SearchRecorder:
    """Records what every swarm search of a job did, and times each
    objective evaluation of the final search.  Installed in traced and
    untraced runs alike; it changes no value the program computes."""

    def __init__(self):
        self.phase = "final"
        self.searches: list[dict] = []
        self.query_s: list[float] = []
        self._bindings = []

    def install(self) -> None:
        def cache_wrapper(fn):
            def build_cache(*args, **kwargs):
                self.phase = "cache"
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.phase = "final"
            return build_cache

        def pso_wrapper(fn):
            def pso_maximize(objective, m, dims, config, *args, **kwargs):
                if self.phase == "final":
                    objective = self._timed(objective)
                result = fn(objective, m, dims, config, *args, **kwargs)
                self.searches.append({
                    "phase": self.phase,
                    "evaluations": result.evaluations,
                    "iterations": [len(h) - 1 for h in result.history],
                    "budget": config.iterations,
                })
                return result
            return pso_maximize

        for owner, attr, make in ((cli, "build_cache", cache_wrapper),
                                  (optimizer, "pso_maximize", pso_wrapper)):
            original = rebind(owner, attr, make)
            if original is None:
                raise RuntimeError(f"cannot record: {owner.__name__}.{attr} is gone")
            self._bindings.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def _timed(self, objective):
        samples = self.query_s

        def timed(x):
            start = perf_counter()
            value = objective(x)
            dt = perf_counter() - start
            if getattr(x, "ndim", 2) == 3:  # a batched (swarm, m, dims) call
                samples.extend([dt / len(x)] * len(x))
            else:
                samples.append(dt)
            return value

        return timed

    def reset(self) -> None:
        self.searches, self.query_s = [], []


class SearchWorkload:
    """One job is one in-process ``augdesign design`` CLI call."""

    def __init__(self, name: str, seed: int, smoke: bool, scratch: Path):
        spec = SEARCH[name]
        swarm, iters, restarts = spec["smoke" if smoke else "budget"]
        self.alpha = spec["alpha"]
        self.gammas = spec["gammas"]
        self.scratch = scratch
        self.argv = [
            ["design", *spec["argv"], "--m", str(M), "--swarm", swarm,
             "--iters", iters, "--restarts", restarts,
             "--seed", str(seed * 1000 + i),
             "--out", str(scratch / f"design-{i}.csv"),
             "--report", str(scratch / f"report-{i}.json")]
            for i in range(MAX_JOBS)
        ]
        self.recorder = SearchRecorder()
        self._oracle = None

    def install(self) -> None:
        self.recorder.install()

    def restore(self) -> None:
        self.recorder.restore()

    def job(self, i: int):
        self.recorder.reset()
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            try:
                code = cli.main(self.argv[i])
            except Exception as exc:  # a crash is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - start
        return wall, {"code": code, "searches": self.recorder.searches,
                      "query_s": self.recorder.query_s}

    def check(self, i: int, out: dict) -> dict:
        """Checks one job's outputs; returns ops, failures, the
        deterministic record, the yardstick score and query latencies."""
        failures = []
        csv_path = self.scratch / f"design-{i}.csv"
        report_path = self.scratch / f"report-{i}.json"
        coords, csv_text, report = None, "", {}
        if out["code"] != 0:
            failures.append(f"job {i}: exit code {out['code']}")
        else:
            csv_text = csv_path.read_text()
            report = json.loads(report_path.read_text())
            coords = self._design_coords(csv_text, failures, i)
            self._check_report(report, failures, i)
        for path in (csv_path, report_path):
            path.unlink(missing_ok=True)
        searches = out["searches"]
        effs = [v for row in report.get("per_scenario", [])
                for v in (row["eff_D"], row["eff_D1"])]
        record = {
            "pso_seed": int(self.argv[i][self.argv[i].index("--seed") + 1]),
            "best_value": report.get("value"),
            "design_sha256": fingerprint(csv_text.encode()),
            "cache_evals": sum(s["evaluations"] for s in searches
                               if s["phase"] == "cache"),
            "final_evals": sum(s["evaluations"] for s in searches
                               if s["phase"] == "final"),
            "restart_iterations": [s["iterations"] for s in searches],
            "max_scenario_eff": max(effs) if effs else None,
        }
        score = None
        if coords is not None:
            if self._oracle is None:
                self._oracle = yardstick(self.gammas)
            bayes = self._oracle.bayes(self._oracle.efficiencies(coords[None]))[0]
            score = float(self.alpha * bayes[0] + (1 - self.alpha) * bayes[1])
        return {"ops": 1, "failed": int(bool(failures)), "failures": failures,
                "record": record, "score": score, "query_s": out["query_s"],
                "searches": searches}

    @staticmethod
    def _design_coords(text: str, failures: list, i: int):
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["run", "L", "K", "D", "FDV", "day"]:
            failures.append(f"job {i}: bad CSV header")
            return None
        body = rows[1:]
        try:
            coords = np.array([[float(v) for v in r[1:5]] for r in body])
            days = [int(r[5]) for r in body]
        except (ValueError, IndexError):
            failures.append(f"job {i}: unparsable CSV row")
            return None
        if len(body) != M or coords.shape != (M, 4):
            failures.append(f"job {i}: {len(body)} runs, want {M}")
            return None
        if not np.all(np.isfinite(coords)) or np.any(np.abs(coords) > 2.0):
            failures.append(f"job {i}: run outside the [-2, 2] box")
            return None
        if any(d != 1 for d in days):
            failures.append(f"job {i}: run not on day 1")
            return None
        return coords

    def _check_report(self, report: dict, failures: list, i: int) -> None:
        rows = report.get("per_scenario", [])
        value = report.get("value")
        if not rows or not isinstance(value, float):
            failures.append(f"job {i}: report lacks value or per_scenario")
            return
        eff_d = statistics.fmean(r["eff_D"] for r in rows)
        eff_d1 = statistics.fmean(r["eff_D1"] for r in rows)
        want = self.alpha * eff_d + (1 - self.alpha) * eff_d1
        if not close(value, want):
            failures.append(
                f"job {i}: report value {value!r} != weighted efficiencies {want!r}"
            )


class EfficiencyWorkload:
    """One job refits the four models and scores them on the validation
    runs, fills a pm10 ensemble's cache from the bundled optima, and
    answers a stream of design queries."""

    def __init__(self, seed: int, smoke: bool):
        queries = QUERIES_SMOKE if smoke else QUERIES_PER_JOB
        rng = np.random.default_rng(seed)
        published = np.array([d.coords for d in data.PUBLISHED_DESIGNS.values()
                              if len(d) == M])
        self.inputs = []
        for _ in range(MAX_JOBS):
            coords = rng.uniform(-2.0, 2.0, size=(queries, M, 4))
            slots = coords[::PUBLISHED_EVERY]
            slots[:] = published[np.arange(len(slots)) % len(published)]
            self.inputs.append(coords)
        self.validation = data.validation_dataset()
        self.merged = {
            "optimal": data.ccd_dataset().concat(data.optimal_augment_dataset()),
            "reference": data.ccd_dataset().concat(data.reference_augment_dataset()),
        }
        self._oracle = None

    def install(self) -> None:
        pass

    def restore(self) -> None:
        pass

    def job(self, i: int):
        coords = self.inputs[i]
        start = perf_counter()
        rmse = {}
        for label, merged in self.merged.items():
            for name in data.RESPONSES:
                model = estimation.fit(data.MODELS[name], merged, name,
                                       include_day_effect=True)
                rmse[(label, name)] = estimation.prediction_error(
                    model, self.validation, name, "rmse")
        ens = data.model_ensemble("pm10", M)
        for k, s in enumerate(ens.scenarios):
            ens.set_optimal(k, data.LOCAL_D_OPTIMAL[s.spec.name],
                            data.LOCAL_D1_OPTIMAL[s.spec.name])
        answers = np.empty((len(coords), 2 * len(ens.scenarios) + 2))
        query_s = []
        for q, c in enumerate(coords):
            t0 = perf_counter()
            design = Design.from_coords(c, day=1)
            row = []
            for s in ens.scenarios:
                row.append(criteria.eff_D(s, design, ens))
                row.append(criteria.eff_D1(s, design, ens))
            row.append(criteria.phi_bayes(ens, design, "D"))
            row.append(criteria.phi_bayes(ens, design, "D1"))
            query_s.append(perf_counter() - t0)
            answers[q] = row
        wall = perf_counter() - start
        return wall, {"rmse": rmse, "answers": answers, "query_s": query_s}

    def check(self, i: int, out: dict) -> dict:
        """Checks the refit RMSEs against the published table and every
        query against the oracle; one operation per fit and per query."""
        failures = []
        for (label, name), got in out["rmse"].items():
            want = RMSE_PUBLISHED[label][data.RESPONSES.index(name)]
            if not (math.isfinite(got) and abs(got - want) <= RMSE_TOL):
                failures.append(f"job {i}: RMSE {label}/{name} {got!r} vs {want}")
        failed = len(failures)
        if self._oracle is None:
            self._oracle = yardstick("pm10")
        coords = self.inputs[i]
        effs = self._oracle.efficiencies(coords)
        bayes = self._oracle.bayes(effs)
        want = np.concatenate([effs.reshape(len(coords), -1), bayes], axis=1)
        got = out["answers"]
        bad = ~(np.isfinite(got) & (np.abs(got - want) <= RTOL * np.abs(want)))
        bad_queries = np.flatnonzero(bad.any(axis=1))
        failed += len(bad_queries)
        failures += [f"job {i} query {q}: differs from the oracle"
                     for q in bad_queries[:5]]
        record = {
            "answers_sha256": fingerprint(got.tobytes()),
            "rmse": {f"{k[0]}/{k[1]}": v for k, v in out["rmse"].items()},
        }
        scores = 0.5 * bayes[:, 0] + 0.5 * bayes[:, 1]
        return {
            "ops": len(coords) + len(out["rmse"]),
            "failed": failed,
            "failures": failures, "record": record,
            "score": float(scores.max()), "query_s": out["query_s"],
        }


def run_pass(workload, budget_s: float, jobs: int | None, tracer=None) -> list:
    """Runs jobs until the measured time would pass ``budget_s`` (or
    exactly ``jobs`` jobs); returns (wall, check) pairs."""
    done = []
    measured = 0.0
    while len(done) < MAX_JOBS:
        i = len(done)
        if tracer is not None:
            tracer.job = i
        gc.collect()
        wall, out = workload.job(i)
        measured += wall
        done.append((wall, workload.check(i, out)))
        if jobs is not None:
            if len(done) == jobs:
                break
        elif measured + statistics.median(w for w, _ in done) > budget_s:
            break
    return done


def install_tracer(tracer: Tracer) -> dict:
    """Wraps every TRACED binding; returns label -> workloads it must fire on."""
    expected = {}
    for owner, attr, name, full, workloads in TRACED:
        label = tracer.wrap(owner, attr, name, full=full, zero=ZERO.get(name))
        if label is not None:
            expected[label] = workloads
    return expected


def layer_metrics(tracer: Tracer, passes: list, overhead_s: float) -> dict:
    jobs = len(passes)
    totals = tracer.totals()

    def t(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0) / jobs

    searches = [s for _, c in passes for s in c.get("searches", [])]
    restarts = [n for s in searches for n in s["iterations"]]
    stagnated = sum(1 for s in searches for n in s["iterations"]
                    if n < s["budget"])
    evals = sum(s["evaluations"] for s in searches)
    pso_s = totals.get("optimizer.pso_maximize", {}).get("s", 0.0)

    def frac(names: tuple) -> float:
        """Share of the calls to ``names`` whose result was a zero."""
        calls = sum(totals.get(n, {}).get("calls", 0) for n in names)
        return sum(tracer.zeros.get(n, 0) for n in names) / calls if calls else 0.0

    def per_call_us(name: str) -> float:
        calls = totals.get(name, {}).get("calls", 0)
        return 1e6 * totals[name]["s"] / calls if calls else 0.0

    m = {
        "cli.main.s": (t("cli.main", "s"), "s"),
        "cli.self_s": (t("cli.main", "self_s"), "s"),
        "data.model_ensemble.s": (t("data.model_ensemble", "s"), "s"),
        "estimation.fit.calls": (t("estimation.fit", "calls"), "count"),
        "estimation.fit.s": (t("estimation.fit", "s"), "s"),
        "estimation.predict.s": (t("estimation.predict", "s"), "s"),
        "optimizer.build_cache.s": (t("optimizer.build_cache", "s"), "s"),
        "optimizer.solve_local.calls": (t("optimizer.solve_local", "calls"), "count"),
        "optimizer.cache_evals": (sum(s["evaluations"] for s in searches
                                      if s["phase"] == "cache") / jobs, "count"),
        "optimizer.final_search.s": (t("optimizer.final_search", "s"), "s"),
        "optimizer.final_evals": (sum(s["evaluations"] for s in searches
                                      if s["phase"] == "final") / jobs, "count"),
        "optimizer.pso_maximize.self_s": (t("optimizer.pso_maximize", "self_s"), "s"),
        "optimizer.evals_per_s": (evals / pso_s if pso_s else 0.0, "1/s"),
        "optimizer.iterations": (sum(restarts) / jobs, "count"),
        "optimizer.stagnation_stop_frac": (
            stagnated / len(restarts) if restarts else 0.0, "ratio"),
    }
    for name in ("phi_compromise", "phi_bayes", "eff", "phi_D", "phi_D1"):
        m[f"criteria.{name}.calls"] = (t(f"criteria.{name}", "calls"), "count")
        m[f"criteria.{name}.self_s"] = (t(f"criteria.{name}", "self_s"), "s")
    m["criteria.index_of.calls"] = (t("criteria.index_of", "calls"), "count")
    m["criteria.index_of.s"] = (t("criteria.index_of", "s"), "s")
    m["criteria.augmented_entries.self_s"] = (
        t("criteria.augmented_entries", "self_s"), "s")
    m["criteria.set_optimal.calls"] = (t("criteria.set_optimal", "calls"), "count")
    m["criteria.set_optimal.s"] = (t("criteria.set_optimal", "s"), "s")
    m["criteria.zero_frac"] = (frac(("criteria.phi_D", "criteria.phi_D1")), "ratio")
    m["information.augmented_info_entries.calls"] = (
        t("information.augmented_info_entries", "calls"), "count")
    m["information.augmented_info_entries.self_s"] = (
        t("information.augmented_info_entries", "self_s"), "s")
    for name in ("log_det", "inv_quadratic_form"):
        m[f"information.{name}.calls"] = (t(f"information.{name}", "calls"), "count")
        m[f"information.{name}.self_s"] = (t(f"information.{name}", "self_s"), "s")
        m[f"information.{name}.us_per_call"] = (
            per_call_us(f"information.{name}"), "us")
    m["information.singular_frac"] = (
        frac(("information.log_det", "information.inv_quadratic_form")), "ratio")
    m["glm.regressor_matrix.calls"] = (t("glm.regressor_matrix", "calls"), "count")
    m["glm.regressor_matrix.self_s"] = (t("glm.regressor_matrix", "self_s"), "s")
    m["tracing.overhead_s"] = (overhead_s, "s")
    return m


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    src = sorted((ROOT / "src" / "augdesign").glob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
        "src_sha256": fingerprint(*(p.read_bytes() for p in src)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "ODEX_THREADS": os.environ.get("ODEX_THREADS"),
    }


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(q / 100 * len(sorted_values)) - 1)
    return sorted_values[k]


def summarise(passes: list) -> dict:
    checks = [c for _, c in passes]
    queries = sorted(s for c in checks for s in c["query_s"])
    scores = [c["score"] for c in checks if c["score"] is not None]
    return {
        "walls": [w for w, _ in passes],
        "attempted": sum(c["ops"] for c in checks),
        "failed": sum(c["failed"] for c in checks),
        "failures": [f for c in checks for f in c["failures"]],
        "records": [c["record"] for c in checks],
        "design_score": statistics.median(scores) if scores else 0.0,
        "query_p50_us": 1e6 * statistics.median(queries) if queries else 0.0,
        "query_p99_us": 1e6 * percentile(queries, 99) if queries else 0.0,
        "query_samples": len(queries),
    }


def traced_results(args, tracer: Tracer, expected: dict, plain: dict,
                   traced: list) -> dict:
    """Folds the traced pass into the run's counts: its own checks, one
    record comparison per job and one fired-check per expected wrapper.
    Writes the span table and full spans; returns the updated fields."""
    again = summarise(traced)
    attempted = plain["attempted"] + again["attempted"]
    failed = plain["failed"] + again["failed"]
    failures = plain["failures"] + again["failures"]
    for i, (a, b) in enumerate(zip(plain["records"], again["records"])):
        attempted += 1
        if a != b:
            failed += 1
            failures.append(f"job {i}: traced record differs")
    for label, calls in tracer.fired.items():
        if args.workload in expected[label]:
            attempted += 1
            if calls == 0:
                failed += 1
                failures.append(f"wrapper {label} never fired")
    overhead = statistics.median(
        t - u for t, u in zip(again["walls"], plain["walls"]))
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
    trace_file.write_text(json.dumps(
        {"table": tracer.table(), "spans": tracer.spans}))
    return {
        "attempted": attempted, "failed": failed, "failures": failures,
        "per_layer": layer_metrics(tracer, traced, overhead),
        "tracing_missing": tracer.missing,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True,
                   choices=[*SEARCH, "efficiency-table"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    scratch = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.workload in SEARCH:
        scratch.mkdir(parents=True, exist_ok=True)
        workload = SearchWorkload(args.workload, args.seed, args.smoke, scratch)
    else:
        workload = EfficiencyWorkload(args.seed, args.smoke)
    if args.setup_only:
        shutil.rmtree(scratch, ignore_errors=True)
        return 0

    result = {"env": environment(args)}
    workload.install()
    try:
        budget = args.seconds / 2 if args.trace else args.seconds
        plain = run_pass(workload, budget, None)
        result.update(summarise(plain))
        if args.trace:
            tracer = Tracer()
            expected = install_tracer(tracer)
            try:
                traced = run_pass(workload, budget, len(plain), tracer)
            finally:
                tracer.restore()
    finally:
        workload.restore()
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        result.update(traced_results(args, tracer, expected, result, traced))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
