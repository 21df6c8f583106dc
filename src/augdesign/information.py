"""Fisher information matrices for augmented designs and their reductions."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .glm import (
    COORD_MAX,
    COORD_MIN,
    GLOBAL_FACTORS,
    InvalidPredictorError,
    Link,
    MissingGammaError,
    ModelSpec,
    ParamPoint,
    regressor_matrix,
)

#: Relative pivot threshold below which a symmetric factorization is
#: treated as singular.  It guards the information that ``fit`` solves
#: with, the covariances of ``observed_efficiency`` and the ensemble's
#: day-0 blocks; scoring a design factors no matrix.
SINGULAR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Design:
    """An ordered list of runs as two read-only arrays: ``coords`` (n, 4) over
    the global factors and ``days`` (n,) of day flags.  It may mix fixed
    day-0 and new day-1 runs.  Designs with equal arrays are equal; a Design
    is not hashable."""

    coords: np.ndarray
    days: np.ndarray

    def __post_init__(self) -> None:
        coords, days = np.array(self.coords, dtype=float), np.array(self.days)
        if coords.ndim != 2 or coords.shape[1] != len(GLOBAL_FACTORS):
            raise ValueError(
                f"a design's coordinates are an (n, 4) array, got shape {coords.shape}"
            )
        if not len(coords):
            raise ValueError("a design must contain at least one run")
        # min and max are NaN when a coordinate is, which fails both tests.
        if not (COORD_MIN <= coords.min() and coords.max() <= COORD_MAX):
            bad = coords[~((coords >= COORD_MIN) & (coords <= COORD_MAX))][0]
            raise ValueError(f"coordinate {bad} outside [{COORD_MIN}, {COORD_MAX}]")
        if days.shape != coords.shape[:1]:
            raise ValueError(f"a design needs one day flag per run, got {days.shape}")
        if not set(days.tolist()) <= {0, 1}:
            raise ValueError("day flag must be 0 or 1")
        days = days.astype(int, copy=False)
        coords.flags.writeable = days.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "days", days)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (np.array_equal(self.coords, other.coords)
                and np.array_equal(self.days, other.days))

    def __len__(self) -> int:
        return len(self.days)

    def split(self) -> tuple["Design | None", "Design | None"]:
        """Partition into the initial (day-0) and new (day-1) blocks."""
        return tuple(Design(self.coords[b], self.days[b]) if b.any() else None
                     for b in (self.days == 0, self.days == 1))

    def concat(self, other: "Design") -> "Design":
        return Design(np.concatenate([self.coords, other.coords]),
                      np.concatenate([self.days, other.days]))

    def to_csv(self) -> str:
        return write_csv(self.coords, self.days)

    @staticmethod
    def from_csv(text: str) -> "Design":
        return Design(*read_csv(text)[:2])

    @staticmethod
    def from_coords(coords, day: int = 0) -> "Design":
        """The runs of an (n, 4) array, or of one 4-vector, all on ``day``."""
        coords = np.atleast_2d(coords)
        return Design(coords, [day] * len(coords))


def write_csv(coords, days, columns: dict[str, np.ndarray] | None = None) -> str:
    """Runs as CSV: run number, the factors, day, then one column per entry of
    ``columns`` with one value per run."""
    columns = columns or {}
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["run", *GLOBAL_FACTORS, "day", *columns])
    for i, (row, day) in enumerate(zip(coords, days)):
        writer.writerow(
            [i + 1,
             *(format(c, ".10g") for c in row),
             day,
             *(format(v[i], ".10g") for v in columns.values())]
        )
    return buf.getvalue()


def read_csv(
    text: str, responses: bool = False
) -> tuple[np.ndarray, np.ndarray, dict[str, list[float]]]:
    """The (n, 4) coordinates and (n,) day flags of a CSV in the ``write_csv``
    layout, checked as a ``Design``.  With ``responses``, every column other
    than run, the factors and day is also read as numbers, one value per run;
    without, those columns are ignored.  A missing ``day`` column reads as
    day 0, and an error names the line of the bad cell or run."""
    reader = csv.DictReader(io.StringIO(text))
    skip = ("run", "day", *GLOBAL_FACTORS)
    names = [f for f in reader.fieldnames or () if f not in skip]
    coords, days, columns = [], [], ({n: [] for n in names} if responses else {})
    for line, row in enumerate(reader, start=2):
        try:
            coords.append([float(row[f]) for f in GLOBAL_FACTORS])
            days.append(float(row.get("day") or 0))
            for n, values in columns.items():
                values.append(float(row[n]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"CSV line {line}: {exc}") from exc
    coords, days = np.reshape(coords, (-1, len(GLOBAL_FACTORS))), np.array(days)
    try:
        design = Design(coords, days)
    except ValueError as exc:
        # The bad line holds the first run that Design rejects on its own.
        for i in range(len(days)):
            try:
                Design(coords[i : i + 1], days[i : i + 1])
            except ValueError as bad:
                raise ValueError(f"CSV line {i + 2}: {bad}") from exc
        raise
    return design.coords, design.days, columns


def weighted_gram(link: Link, Z: np.ndarray, eta: np.ndarray):
    """Z^T W Z of (n, q) regressors, with W the link weights of their (n,)
    predictors, and whether every predictor lies in the link domain.  A
    predictor outside the domain is weighted at the placeholder 1, so the
    matrix is then finite but means nothing."""
    outside = link.outside_domain(eta)
    inside = not outside.any()
    if not inside:
        eta = np.where(outside, 1.0, eta)
    w = link.weight(eta)
    return (Z * w[:, None]).T @ Z, inside


def require_inside(spec: ModelSpec, inside, what: str) -> None:
    """Raise ``InvalidPredictorError`` unless the domain mask is all True."""
    if not np.all(inside):
        raise InvalidPredictorError(f"{what} lies outside the {spec.link.value} "
                                    f"link's domain under model {spec.name!r}")


def fisher_info(
    spec: ModelSpec,
    params: ParamPoint,
    design: Design,
    with_day_effect: bool = True,
    what: str = "the design",
) -> np.ndarray:
    """Fisher information of a design, optionally with the day-effect column.

    With the day effect the regressor is extended by the day flag and the
    weight is evaluated at z^T beta + t*gamma; without it, day flags are
    ignored and the plain p-dimensional information is returned.  The shape
    parameter is fixed to 1 (criteria are positively homogeneous in it).
    A predictor outside the link domain raises ``InvalidPredictorError``,
    whose message names the design by ``what``.
    """
    if len(params.beta) != spec.p:
        raise ValueError("beta length must equal the spec's term count")
    if with_day_effect:
        if params.gamma is None:
            raise MissingGammaError("day-effect information requires gamma")
        days, gamma = design.days, params.gamma
    else:
        # All-zero day flags leave the p x p block equal to the plain
        # information.
        days, gamma = np.zeros(len(design)), 0.0
    Z = regressor_matrix(spec, design.coords)
    Zs = np.empty((len(Z), spec.p + 1))
    Zs[:, :-1] = Z
    Zs[:, -1] = days
    eta = Z @ np.asarray(params.beta) + days * gamma
    entries, inside = weighted_gram(spec.link, Zs, eta)
    require_inside(spec, inside, what)
    return entries if with_day_effect else entries[:-1, :-1]


def _nonsingular(a: np.ndarray, chol: np.ndarray):
    """Whether each factor passes the singularity test, over the last two
    axes: every squared pivot is at least SINGULAR_TOL times the largest
    diagonal entry of the matrix.  A NaN pivot or scale fails it."""
    scale = a.diagonal(0, -2, -1).max(-1)
    piv = chol.diagonal(0, -2, -1)
    return (scale > 0.0) & ((piv * piv).min(-1) >= SINGULAR_TOL * scale)


def cholesky(a: np.ndarray):
    """Lower Cholesky factor of one (n, n) matrix, or None when it is
    singular: when numpy does not factor it or it fails the SINGULAR_TOL
    test."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    return chol if _nonsingular(a, chol) else None


def factor_log_det(chol: np.ndarray):
    """log det(L L^T) = 2 sum log diag L, over the last two axes of ``chol``."""
    return 2.0 * np.log(chol.diagonal(0, -2, -1)).sum(-1)


def eliminate(u: np.ndarray, s: np.ndarray):
    """log det M and s^T M^{-1} s, M = I + U U^T, of an (m, N, q) stack of
    N matrices U of m rows, row i at u[i], and (m, N) vectors s: an LDL^T
    elimination of M over the stack, m steps of a few ufuncs each.  It works
    on U, not on M: the pivot of row j is 1 + |u_j|^2, and the rows below
    lose the share of u_j that makes I + U U^T of them the Schur complement,
    so the identity is never added to a large entry and lost.  Every dot
    product runs over the last axis, so a matrix's values do not depend on
    the rest of the stack.  Overwrites ``u`` and ``s``."""
    m = len(u)
    pivots = np.empty(s.shape)
    for j in range(m):
        # Row j's squared norm and its dot products with the rows below.
        dots = np.einsum("inq,nq->in", u[j:], u[j])
        pivot = np.add(dots[0], 1.0, out=pivots[j])
        if j + 1 < m:
            # (1 + c) + sqrt(1 + c) for c = |u_j|^2, without cancellation.
            share = dots[1:] / (pivot + np.sqrt(pivot))
            u[j + 1:] -= share[..., None] * u[j]
            s[j + 1:] -= dots[1:] * (s[j] / pivot)
    s *= s
    s /= pivots
    return np.log(pivots).sum(0), s.sum(0)
