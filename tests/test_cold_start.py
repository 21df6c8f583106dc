"""scipy stays off the cold start: importing the package and running the
design, efficiency and predict commands load numpy alone, and only fitting a
model imports scipy.  Each check runs in a fresh interpreter, because this
test process has scipy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from augdesign import data, fit

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY_MODULES = ("scipy.linalg", "scipy.optimize", "scipy.special")

SCRIPT = """
import contextlib, io, json, sys

import augdesign
from augdesign import cli, data, fit

SCIPY_MODULES = {modules!r}
design_csv, model_json, day0_csv = sys.argv[1:]
tiny = ["--swarm", "4", "--iters", "2", "--restarts", "1"]
commands = [
    ["design", "--criterion", "D", *tiny],
    ["design", "--criterion", "compromise", "--gammas", "pm10pm20", *tiny],
    ["efficiency", "--design", design_csv, "--model", "temperature",
     "--relative-to", design_csv],
    ["predict", "--model", model_json, "--data", day0_csv],
]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        codes.append(cli.main(argv))
before = sorted(m for m in sys.modules if m.startswith(SCIPY_MODULES))
model = fit(data.MODELS["temperature"], data.ccd_dataset(), "temperature")
after = sorted(m for m in sys.modules if m.startswith(SCIPY_MODULES))
print(json.dumps({{
    "codes": codes,
    "before": before,
    "after": after,
    "beta_hat": [b.hex() for b in model.beta_hat],
    "nu_hat": model.nu_hat.hex(),
    "covariance": [[v.hex() for v in row] for row in model.covariance.tolist()],
}}))
"""


def run_fresh(script: str, *argv: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout


def test_commands_load_no_scipy_until_a_fit(tmp_path):
    model = fit(data.MODELS["temperature"], data.ccd_dataset(), "temperature")
    design_csv = tmp_path / "design.csv"
    design_csv.write_text(data.REFERENCE_DESIGN.to_csv())
    model_json = tmp_path / "model.json"
    model_json.write_text(model.to_json())
    day0_csv = tmp_path / "day0.csv"
    day0_csv.write_text(data.ccd_dataset().to_csv())

    out = run_fresh(
        SCRIPT.format(modules=SCIPY_MODULES),
        str(design_csv), str(model_json), str(day0_csv),
    )
    result = json.loads(out.splitlines()[-1])

    assert result["codes"] == [0, 0, 0, 0]
    assert result["before"] == []
    for name in SCIPY_MODULES:
        assert name in result["after"]
    assert [float.fromhex(b) for b in result["beta_hat"]] == list(model.beta_hat)
    assert float.fromhex(result["nu_hat"]) == model.nu_hat
    covariance = np.array(
        [[float.fromhex(v) for v in row] for row in result["covariance"]]
    )
    assert np.array_equal(covariance, model.covariance)


def test_log_likelihood_imports_its_own_scipy_function():
    out = run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "from augdesign.estimation import gamma_log_likelihood\n"
        "print('scipy.special' in sys.modules)\n"
        "y = np.array([1.0, 2.0, 3.0])\n"
        "print(gamma_log_likelihood(y, np.full(3, 2.0), 1.5).hex())\n"
    )
    from augdesign.estimation import gamma_log_likelihood

    loaded_before, value = out.split()
    y = np.array([1.0, 2.0, 3.0])
    assert loaded_before == "False"
    assert float.fromhex(value) == gamma_log_likelihood(y, np.full(3, 2.0), 1.5)
