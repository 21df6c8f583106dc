"""Bundled thermal-spraying dataset, fitted estimates, and published designs."""

from __future__ import annotations

import hashlib

import numpy as np

from .criteria import Scenario, ScenarioEnsemble
from .estimation import Dataset
from .glm import Link, ModelSpec, ParamPoint, Term
from .information import Design

RESPONSES = ("temperature", "velocity", "flame_width", "flame_intensity")

# Initial-day central composite design: L, K, D, FDV, then the four responses.
CCD30 = np.array([
    [ 1, -1,  1, -1, 1450.5706, 674.1324,  7.9059, 13.1971],
    [ 1,  1,  1,  1, 1500.9382, 726.6706, 12.4912, 21.0029],
    [-1, -1,  1, -1, 1484.8952, 649.1190,  8.1238, 15.3929],
    [-1, -1, -1,  1, 1534.6750, 666.0781, 13.5563, 21.4375],
    [ 0,  0,  0,  0, 1519.4829, 709.3029, 11.9629, 19.7143],
    [ 0,  0,  0,  0, 1527.6065, 713.6581, 12.1742, 19.9419],
    [-1,  1,  1, -1, 1543.3053, 730.3474, 10.3711, 18.3579],
    [-1,  1, -1,  1, 1574.0970, 739.4212, 14.9909, 23.3667],
    [ 1,  1, -1,  1, 1536.2371, 756.7057, 13.7657, 21.8543],
    [ 1, -1, -1, -1, 1497.6209, 698.4093,  8.7767, 15.8093],
    [ 0,  0,  0,  0, 1527.8571, 710.8250, 11.9821, 19.9393],
    [-1,  1, -1, -1, 1564.3114, 753.5943, 11.1229, 18.7143],
    [ 1,  1, -1, -1, 1528.9267, 770.7367,  9.5000, 17.0000],
    [-1,  1,  1,  1, 1546.6594, 714.0031, 14.8187, 23.5625],
    [ 1, -1,  1,  1, 1484.7806, 665.0000, 12.3472, 20.5139],
    [-1, -1,  1,  1, 1502.0265, 640.9088, 13.2176, 21.3500],
    [-1, -1, -1, -1, 1525.3917, 678.9194, 10.0417, 17.2917],
    [ 1,  1,  1, -1, 1508.2706, 749.0647,  8.5206, 15.9706],
    [ 0,  0,  0,  0, 1535.5706, 714.2500, 12.3294, 20.1412],
    [ 1, -1, -1,  1, 1504.6000, 689.5364, 12.6121, 20.2879],
    [ 0,  0,  0,  0, 1521.7227, 708.9636, 11.7977, 19.6568],
    [ 0,  0, -2,  0, 1534.7182, 726.6697, 11.7939, 19.2697],
    [-2,  0,  0,  0, 1542.8600, 688.1171, 12.4971, 20.2914],
    [ 2,  0,  0,  0, 1462.0088, 723.5471,  9.1765, 16.7735],
    [ 0,  0,  0,  0, 1521.4765, 709.1412, 11.5176, 19.2412],
    [ 0,  0,  0, -2, 1516.5378, 708.6919, 11.3649, 19.0757],
    [ 0,  0,  2,  0, 1491.7684, 684.3026, 10.4868, 18.5632],
    [ 0,  2,  0,  0, 1512.7982, 755.1382, 10.8436, 18.8527],
    [ 0,  0,  0,  2, 1520.6485, 695.1848, 14.4455, 22.7879],
    [ 0, -2,  0,  0, 1435.7488, 612.6093,  8.9209, 16.0163],
])

# Fourteen later-day runs used for the prediction comparison.
VALIDATION14 = np.array([
    [ 0.01,  1.09, -0.20, -1.67, 1514.6610, 782.1146, 10.2951, 19.1976],
    [ 0.01,  1.09, -0.20, -1.67, 1521.8186, 786.4209, 10.0116, 18.6930],
    [ 1.82, -0.36,  0.46, -0.58, 1475.2022, 734.7978, 11.7778, 21.1467],
    [ 1.82, -0.36,  0.46, -0.58, 1488.6825, 737.3925, 11.1850, 20.0250],
    [ 1.27, -1.32,  0.38, -0.71, 1434.2327, 687.7714, 10.4510, 18.9408],
    [ 1.27, -1.32,  0.38, -0.71, 1456.8717, 689.5453, 10.0019, 17.7623],
    [ 0.00, -0.01,  0.20, -1.73, 1478.7136, 743.1182,  9.7227, 17.1773],
    [ 0.00, -0.01,  0.20, -1.73, 1520.9761, 747.9326,  9.3457, 16.3413],
    [-0.48,  0.50, -0.60,  1.78, 1529.3061, 726.5163, 17.9367, 27.6449],
    [-0.48,  0.50, -0.60,  1.78, 1521.4094, 721.4434, 17.4113, 27.1906],
    [ 1.00, -1.00, -1.00,  1.00, 1507.4579, 698.7368, 16.2667, 25.5053],
    [-1.00, -1.00, -1.00, -1.00, 1491.3108, 696.6215, 12.4585, 21.0092],
    [-1.00, -1.00,  1.00,  1.00, 1453.4762, 661.9381, 16.2333, 26.2127],
    [-1.00,  1.00, -1.00,  1.00, 1552.7875, 749.2734, 18.3484, 27.9703],
])

# Observed responses for the two sets of four additional runs.
OPTIMAL_AUGMENT = np.array([
    [ 2,  2.00,  2, -0.53, 1466.8123, 787.5585, 12.3446, 22.0938],
    [-2, -2.00,  2, -2.00, 1298.8123, 593.2692, 10.2261,  9.8646],
    [-2,  0.31, -2,  2.00, 1560.3545, 706.1242, 18.9030, 28.6333],
    [ 2, -2.00, -2, -2.00, 1437.7284, 687.5351,  7.4500, 13.8446],
])
REFERENCE_AUGMENT = np.array([
    [ 1,  1, -1, -1, 1527.1426, 778.2632, 13.2456, 22.3985],
    [-1,  1,  1, -1, 1493.9143, 752.6063, 12.4841, 22.3333],
    [ 1,  1,  1,  1, 1507.5667, 752.8273, 17.6909, 27.9348],
    [ 1, -1,  1, -1, 1443.8103, 696.7851, 10.4471, 18.8977],
])


def _spec(name, link, factors, terms):
    return ModelSpec(name=name, link=link, factors=tuple(factors), terms=tuple(terms))


def _terms(factors, mains, squares=(), interactions=()):
    idx = {f: i for i, f in enumerate(factors)}
    out = [Term.intercept()]
    out += [Term.main(idx[f]) for f in mains]
    out += [Term.square(idx[f]) for f in squares]
    out += [Term.interaction(idx[a], idx[b]) for a, b in interactions]
    return out


_F3 = ("L", "K", "D")
_F4 = ("L", "K", "D", "FDV")

MODELS: dict[str, ModelSpec] = {
    "temperature": _spec(
        "temperature", Link.IDENTITY, _F3, _terms(_F3, _F3, squares=("K",))
    ),
    "velocity": _spec(
        "velocity", Link.LOG, _F4,
        _terms(_F4, _F4, squares=("K",), interactions=(("L", "K"),)),
    ),
    "flame_width": _spec(
        "flame_width", Link.INVERSE, _F4, _terms(_F4, _F4, squares=("K",))
    ),
    "flame_intensity": _spec(
        "flame_intensity", Link.IDENTITY, _F4,
        _terms(_F4, _F4, squares=("L", "K", "FDV"), interactions=(("D", "FDV"),)),
    ),
}

# Day-effect values used in the local optimality criteria.
DAY_GAMMAS: dict[str, float] = {
    "temperature": -16.0,
    "velocity": 0.01,
    "flame_width": 0.002,
    "flame_intensity": 0.09,
}

# Published parameter estimates (coefficients ordered as the model terms).
ESTIMATES: dict[str, ParamPoint] = {
    "temperature": ParamPoint(
        (1523.2627, -17.7423, 19.6580, -13.8181, -9.9897), DAY_GAMMAS["temperature"]
    ),
    "velocity": ParamPoint(
        (6.5648, 0.0136, 0.0516, -0.0171, -0.0078, -0.0092, -0.0031),
        DAY_GAMMAS["velocity"],
    ),
    "flame_width": ParamPoint(
        (0.0863, 0.0053, -0.0044, 0.0029, -0.0123, 0.0039), DAY_GAMMAS["flame_width"]
    ),
    "flame_intensity": ParamPoint(
        (19.4784, -0.8887, 0.8646, -0.3709, 2.1661, -0.3096, -0.5615, 0.5092, 0.4095),
        DAY_GAMMAS["flame_intensity"],
    ),
}

# Published standard errors, same ordering (reported with an (n - p) dispersion
# convention; our ML-shape errors are ~10% smaller).
STD_ERRORS: dict[str, tuple[float, ...]] = {
    "temperature": (2.6722, 2.3136, 2.2939, 2.3136, 2.0813),
    "velocity": (0.0016, 0.0014, 0.0014, 0.0014, 0.0014, 0.0012, 0.0017),
    "flame_width": (0.0018, 0.0015, 0.0016, 0.0015, 0.0015, 0.0015),
    "flame_intensity": (0.3364, 0.1901, 0.1863, 0.1970, 0.2042, 0.1760, 0.1925,
                        0.1699, 0.2378),
}

# Published BIC values of the selected models.
BIC_VALUES: dict[str, float] = {
    "temperature": 245.744,
    "velocity": 196.979,
    "flame_width": 99.749,
    "flame_intensity": 106.148,
}


def _design(coords):
    return Design.from_coords(coords, day=1)


# Fractional-factorial reference design for the four additional runs.
REFERENCE_DESIGN = _design(
    [[1, 1, -1, -1], [-1, 1, 1, -1], [1, 1, 1, 1], [1, -1, 1, -1]]
)

# Locally D-optimal designs.  The temperature model has no FDV term, so the
# criterion is flat in that coordinate and the published table omits it.  The
# FDV values below were fitted to the flame-width and flame-intensity cells of
# the published cross-model efficiency grid and are otherwise arbitrary.  No
# FDV completion gives the printed velocity cell (85.19%): the velocity cell
# is at least 86.62% for every FDV, a value reached at any common FDV of the
# four runs.
LOCAL_D_OPTIMAL: dict[str, Design] = {
    "temperature": _design(
        [[-2, -0.07, -2, -0.58], [2, -0.13, 2, 0.32],
         [2, 2, -2, -0.39], [-2, -2, 2, 0.34]]
    ),
    "velocity": _design(
        [[-2, 2, -2, 2], [-2, -2, 2, 2], [2, 2, -2, -2], [2, -2, 2, -2]]
    ),
    "flame_width": _design(
        [[2, 0.37, 2, 2], [-2, 2, -2, 2], [-2, 0.08, -2, 2], [2, 0.37, -2, -2]]
    ),
    "flame_intensity": _design(
        [[2, 2, 2, -2], [-2, -2, 2, -2], [0.47, -0.95, 2, -0.64], [2, -2, -2, -2]]
    ),
}

# Locally D1-optimal designs (interior points; FDV for temperature again
# unidentified, set to 0).
LOCAL_D1_OPTIMAL: dict[str, Design] = {
    "temperature": _design(
        [[-1.23, -1.32, -0.05, 0], [0.10, 0.94, 0.81, 0],
         [0.28, 0.64, 0.42, 0], [1.20, -0.64, -0.89, 0]]
    ),
    "velocity": _design(
        [[0.00, 0.96, 0.64, -0.73], [-0.54, -0.62, -1.90, 0.84],
         [0.40, -1.12, 1.31, -1.25], [0.13, 0.79, -0.05, 1.14]]
    ),
    "flame_width": _design(
        [[-1.02, 0.29, 1.72, -1.83], [-1.81, 0.99, 0.29, 1.92],
         [0.07, -1.07, -1.40, -0.29], [1.54, 0.28, -1.58, 1.50]]
    ),
    "flame_intensity": _design(
        [[1.59, 1.03, 1.30, -1.075], [0.09, -1.53, 1.43, -0.51],
         [0.00, -0.61, -0.66, 0.64], [-0.85, 0.22, -1.79, -1.11]]
    ),
}

BAYES_D_FIXED = _design(
    [[2, 2, 2, 2], [2, -2, 2, -2], [-2, 0.34, -2, 2], [-2, -2, -2, -2]]
)
BAYES_D_PM10 = _design(
    [[2, 2, 2, -2], [2, -2, -2, -2], [-2, 0.37, -2, 2], [-2, -2, 2, 2]]
)
BAYES_D1_FIXED = _design(
    [[0.03, -1.62, 2.00, -0.65], [0.90, 0.36, 0.44, -0.57],
     [1.11, 0.53, -2.00, -0.70], [-1.83, 0.54, -0.53, 2.00]]
)
BAYES_D1_PM10 = _design(
    [[-0.57, 0.13, -1.15, -0.96], [0.46, -1.53, 1.97, -0.61],
     [-1.37, 0.45, -0.61, 1.83], [1.42, 0.84, -0.27, -0.60]]
)
COMPROMISE_DESIGN = _design(
    [[0.10, 0.17, 2.00, -0.76], [0.29, -2.00, -2.00, -1.05],
     [1.75, 0.58, 2.00, -0.08], [-2.00, 0.41, -2.00, 2.00]]
)
BAYES_D_FIVE_GAMMA = _design(
    [[2, 2, 2, -0.53], [-2, -2, 2, -2], [-2, 0.31, -2, 2], [2, -2, -2, -2]]
)

PUBLISHED_DESIGNS: dict[str, Design] = {
    "reference": REFERENCE_DESIGN,
    "bayes_d_fixed": BAYES_D_FIXED,
    "bayes_d_pm10": BAYES_D_PM10,
    "bayes_d1_fixed": BAYES_D1_FIXED,
    "bayes_d1_pm10": BAYES_D1_PM10,
    "compromise": COMPROMISE_DESIGN,
    "bayes_d_five_gamma": BAYES_D_FIVE_GAMMA,
    **{f"local_d_{k}": v for k, v in LOCAL_D_OPTIMAL.items()},
    **{f"local_d1_{k}": v for k, v in LOCAL_D1_OPTIMAL.items()},
}


def initial_design() -> Design:
    return Design.from_coords(CCD30[:, :4], day=0)


def _dataset(table: np.ndarray, day: int) -> Dataset:
    responses = {name: table[:, 4 + i].copy() for i, name in enumerate(RESPONSES)}
    return Dataset(table[:, :4], np.full(len(table), day), responses)


def ccd_dataset() -> Dataset:
    return _dataset(CCD30, day=0)


def validation_dataset() -> Dataset:
    return _dataset(VALIDATION14, day=1)


def optimal_augment_dataset() -> Dataset:
    return _dataset(OPTIMAL_AUGMENT, day=1)


def reference_augment_dataset() -> Dataset:
    return _dataset(REFERENCE_AUGMENT, day=1)


def single_scenario_ensemble(response: str, m: int = 4) -> ScenarioEnsemble:
    """One-model ensemble at the published estimates (local criteria)."""
    s = Scenario(MODELS[response], ESTIMATES[response], 1.0)
    return ScenarioEnsemble([s], initial_design(), m)


def model_ensemble(
    gammas: str = "fixed", m: int = 4, scenarios: list[Scenario] | None = None
) -> ScenarioEnsemble:
    """Ensemble over ``scenarios`` (default: the four bundled models), each
    expanded by the day-effect factors of ``gammas``.

    gammas: 'fixed' (one value per scenario), 'pm10' (gamma, gamma +- 10%),
    or 'pm10pm20' (gamma, +-10%, +-20%).
    """
    factors = {
        "fixed": (1.0,),
        "pm10": (0.9, 1.0, 1.1),
        "pm10pm20": (0.8, 0.9, 1.0, 1.1, 1.2),
    }[gammas]
    if scenarios is None:
        scenarios = [Scenario(MODELS[n], ESTIMATES[n], 1.0) for n in RESPONSES]
    expanded = [
        Scenario(s.spec, ParamPoint(s.params.beta, s.params.gamma * c), s.weight)
        for s in scenarios
        for c in factors
    ]
    return ScenarioEnsemble(expanded, initial_design(), m)


def table_checksums() -> dict[str, str]:
    """SHA-256 of the canonical text of each bundled table."""
    def digest(arr: np.ndarray) -> str:
        text = "\n".join(
            ",".join(format(v, ".10g") for v in row) for row in np.atleast_2d(arr)
        )
        return hashlib.sha256(text.encode()).hexdigest()

    return {
        "ccd30": digest(CCD30),
        "validation14": digest(VALIDATION14),
        "optimal_augment": digest(OPTIMAL_AUGMENT),
        "reference_augment": digest(REFERENCE_AUGMENT),
        "reference_design": digest(REFERENCE_DESIGN.coords),
        "estimates": digest(
            np.concatenate([np.asarray(ESTIMATES[r].beta) for r in RESPONSES])
        ),
    }
