"""augdesign benchmark: one workload, one run, every metric by name and unit.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; nothing needs to be installed or
built.  Workloads (see ``bench/README.md`` for why each exists):

  bayesD-fixed         ``augdesign design --criterion bayesD --gammas fixed``
  compromise-pm10pm20  ``augdesign design --criterion compromise --gammas pm10pm20``
  efficiency-table     refits, cache writes and scalar design queries

The run happens in a fresh child process (``worker.py``) with BLAS/OpenMP
pinned to one thread and ``ODEX_THREADS`` removed.  With ``--trace 0`` the
set-up is also timed in several more fresh processes and the end-to-end
metrics are reported; with ``--trace 1`` the per-layer metrics are.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("bayesD-fixed", "compromise-pm10pm20", "efficiency-table")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("ODEX_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, extra: list, deadline: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.smoke:
        cmd.append("--smoke")
    return subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny search budgets and one set-up probe (tests)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "augdesign" / "cli.py").is_file():
        print(f"error: no augdesign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    try:
        setup = []
        if not args.trace:
            for _ in range(1 if args.smoke else SETUP_PROBES):
                start = time.perf_counter()
                probe = run_child(args, ["--setup-only"], deadline)
                setup.append(time.perf_counter() - start)
                if probe.returncode != 0:
                    print("error: set-up probe failed", file=sys.stderr)
                    return 1
        child = run_child(args, [], deadline)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"error: worker exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(child.stdout.strip().splitlines()[-1])

    print(f"augdesign benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for i, record in enumerate(result["records"]):
        print(f"record {i} " + json.dumps(record, sort_keys=True))
    if result["failures"]:
        print(f"failures: {len(result['failures'])} (first 20 below)")
    for failure in result["failures"][:20]:
        print("FAILED " + failure)
    walls = result["walls"]
    if args.trace:
        values = {name: tuple(vu) for name, vu in result["per_layer"].items()}
        print(f"traced jobs: {len(walls)}; spans in {result['trace_file']}")
        if result["tracing_missing"]:
            print("not traced (name gone): " + ", ".join(result["tracing_missing"]))
    else:
        values = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "query_p50_us": (result["query_p50_us"], "us"),
            "query_p99_us": (result["query_p99_us"], "us"),
            "design_score": (result["design_score"], "ratio"),
            "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        }
        print(f"samples: setup {len(setup)} fresh processes, wall {len(walls)} "
              f"jobs, queries {result['query_samples']}")
    for name, (value, unit) in values.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in declared["per_layer" if args.trace else "end_to_end"]:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            print(f"error: {m['name']} is in {unit}, declared {m['unit']}",
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": unit}
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'ops':<44} {attempted:>16d} count")
    print(f"  {'ops_failed_frac':<44} {failed / attempted:>16.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
