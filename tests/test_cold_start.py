"""The package runs on numpy alone: importing it, running every command and
fitting a model load no scipy module.  Each check runs in a fresh
interpreter, so a module another test imported cannot hide or fake a load."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from augdesign import data, fit

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib, io, json, sys

import augdesign
from augdesign import cli, data, fit

design_csv, model_json, day0_csv, fit_json = sys.argv[1:]
tiny = ["--swarm", "4", "--iters", "2", "--restarts", "1"]
commands = [
    ["design", "--criterion", "D", *tiny],
    ["design", "--criterion", "compromise", "--gammas", "pm10pm20", *tiny],
    ["efficiency", "--design", design_csv, "--model", "temperature",
     "--relative-to", design_csv],
    ["predict", "--model", model_json, "--data", day0_csv],
    ["fit", "--bundled", "temperature", "--out", fit_json],
]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        codes.append(cli.main(argv))
model = fit(data.MODELS["temperature"], data.ccd_dataset(), "temperature")
print(json.dumps({
    "codes": codes,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "beta_hat": [b.hex() for b in model.beta_hat],
    "nu_hat": model.nu_hat.hex(),
    "covariance": [[v.hex() for v in row] for row in model.covariance.tolist()],
    "log_likelihood": model.log_likelihood.hex(),
}))
"""


def run_fresh(script: str, *argv: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout


def test_no_command_or_fit_loads_scipy(tmp_path):
    model = fit(data.MODELS["temperature"], data.ccd_dataset(), "temperature")
    design_csv = tmp_path / "design.csv"
    design_csv.write_text(data.REFERENCE_DESIGN.to_csv())
    model_json = tmp_path / "model.json"
    model_json.write_text(model.to_json())
    day0_csv = tmp_path / "day0.csv"
    day0_csv.write_text(data.ccd_dataset().to_csv())
    fit_json = tmp_path / "fit.json"

    out = run_fresh(
        SCRIPT, str(design_csv), str(model_json), str(day0_csv), str(fit_json)
    )
    result = json.loads(out.splitlines()[-1])

    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["scipy"] == []
    assert json.loads(fit_json.read_text()) == model.to_dict()
    assert [float.fromhex(b) for b in result["beta_hat"]] == list(model.beta_hat)
    assert float.fromhex(result["nu_hat"]) == model.nu_hat
    covariance = np.array(
        [[float.fromhex(v) for v in row] for row in result["covariance"]]
    )
    assert np.array_equal(covariance, model.covariance)
    assert float.fromhex(result["log_likelihood"]) == model.log_likelihood


def test_log_likelihood_loads_no_scipy():
    out = run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "from augdesign.estimation import gamma_log_likelihood\n"
        "y = np.array([1.0, 2.0, 3.0])\n"
        "print(gamma_log_likelihood(y, np.full(3, 2.0), 1.5).hex())\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    from augdesign.estimation import gamma_log_likelihood

    value, loaded = out.split()
    y = np.array([1.0, 2.0, 3.0])
    assert loaded == "False"
    assert float.fromhex(value) == gamma_log_likelihood(y, np.full(3, 2.0), 1.5)
