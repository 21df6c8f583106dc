"""Extended-precision oracles shared by the test modules.

They share no numerical code with ``augdesign``: each term is expanded here
from its kind and factor indices, and every product is taken in mpmath.
"""

import mpmath

from augdesign.glm import Link

FACTORS = ("L", "K", "D", "FDV")


def mp_regressors(spec, coords):
    """Rows of mpmath regressors for an (n, 4) array of global coordinates.

    Products are taken at 50 digits, where a product of two doubles is
    exact, so rounding an entry to a double gives the IEEE product."""
    rows = []
    with mpmath.workdps(50):
        for point in coords:
            x = [mpmath.mpf(float(point[FACTORS.index(f)])) for f in spec.factors]
            row = []
            for term in spec.terms:
                kind = term.kind.value
                if kind == "intercept":
                    row.append(mpmath.mpf(1))
                elif kind == "main":
                    row.append(x[term.a])
                elif kind == "square":
                    row.append(x[term.a] * x[term.a])
                elif kind == "interaction":
                    row.append(x[term.a] * x[term.b])
                else:
                    raise ValueError(f"unknown term kind {kind!r}")
            rows.append(row)
    return rows


def mp_info(spec, params, design):
    """Extended-precision oracle for the day-effect information matrix."""
    rows = mp_regressors(spec, design.coords)
    dim = spec.p + 1
    total = mpmath.zeros(dim, dim)
    for row, day in zip(rows, design.days):
        z = row + [mpmath.mpf(int(day))]
        eta = mpmath.fsum(
            zi * mpmath.mpf(repr(b))
            for zi, b in zip(z[:-1], params.beta)
        ) + z[-1] * mpmath.mpf(repr(params.gamma))
        w = mpmath.mpf(1) if spec.link is Link.LOG else 1 / (eta * eta)
        for i in range(dim):
            for j in range(dim):
                total[i, j] += w * z[i] * z[j]
    return total


def mp_criteria(spec, params, design, dps=60):
    """The D criterion |I|^(1/(p+1)) and the D1 criterion 1 / (I^{-1})_nn of
    a design's day-effect information, as floats from ``dps``-digit
    arithmetic."""
    with mpmath.workdps(dps):
        info = mp_info(spec, params, design)
        det = mpmath.det(info)
        d1 = 1 / mpmath.inverse(info)[info.rows - 1, info.cols - 1]
        return float(det ** (mpmath.mpf(1) / info.rows)), float(d1)
