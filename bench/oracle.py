"""Independent numpy oracle for the D and D1 criteria.

It shares no numerical code with ``augdesign``: it expands the monomials
of each ``ModelSpec`` itself, applies the 1/eta^2 information weights of
the identity and inverse links, and reduces the (p+1)x(p+1) information
matrix with ``slogdet`` (D) and ``inv`` (D1), batched over many designs.
Locally optimal denominators come from the bundled local-optimal designs,
never from a swarm search, so the oracle is a fixed yardstick.
"""

from __future__ import annotations

import numpy as np

FACTORS = ("L", "K", "D", "FDV")


def regressors(spec, coords: np.ndarray) -> np.ndarray:
    """(..., n, 4) global coordinates -> (..., n, p) model regressors."""
    x = coords[..., [FACTORS.index(f) for f in spec.factors]]
    cols = []
    for term in spec.terms:
        kind = term.kind.value
        if kind == "intercept":
            cols.append(np.ones(x.shape[:-1]))
        elif kind == "main":
            cols.append(x[..., term.a])
        elif kind == "square":
            cols.append(x[..., term.a] ** 2)
        elif kind == "interaction":
            cols.append(x[..., term.a] * x[..., term.b])
        else:
            raise ValueError(f"unknown term kind {kind!r}")
    return np.stack(cols, axis=-1)


def information(spec, params, coords: np.ndarray, day: float):
    """Information of runs at ``coords`` (..., n, 4), all on one day.

    Returns (matrices (..., p+1, p+1), feasible (...,)); a design is
    infeasible when a non-log link meets a predictor <= 0.
    """
    z = regressors(spec, coords)
    eta = z @ np.asarray(params.beta, dtype=float) + day * params.gamma
    if spec.link.value == "log":
        w = np.ones_like(eta)
        feasible = np.ones(eta.shape[:-1], dtype=bool)
    else:
        feasible = np.all(eta > 0.0, axis=-1)
        w = 1.0 / (eta * eta)
    zs = np.concatenate([z, np.full(z.shape[:-1] + (1,), float(day))], axis=-1)
    return np.einsum("...ni,...n,...nj->...ij", zs, w, zs), feasible


class Oracle:
    """D/D1 criterion values of day-1 augmentations for a scenario list.

    ``scenarios`` are (spec, params, weight) triples; weights are
    normalised.  ``optima`` maps a model name to its (D-optimal,
    D1-optimal) coordinate arrays, which give the efficiency denominators.
    """

    def __init__(self, scenarios, initial_coords: np.ndarray, optima: dict):
        total = sum(w for _, _, w in scenarios)
        self.scenarios = [(spec, params, w / total) for spec, params, w in scenarios]
        self._base = []
        for spec, params, _ in self.scenarios:
            base, feasible = information(spec, params, initial_coords, 0.0)
            if not feasible:
                raise ValueError(f"initial design infeasible for {spec.name}")
            self._base.append(base)
        self.denominators = []
        for k, (spec, _, _) in enumerate(self.scenarios):
            d_opt, d1_opt = optima[spec.name]
            phi_d, _ = self.phis(k, np.asarray(d_opt)[None])
            _, phi_d1 = self.phis(k, np.asarray(d1_opt)[None])
            self.denominators.append((float(phi_d[0]), float(phi_d1[0])))

    def phis(self, k: int, new_coords: np.ndarray):
        """(phi_D, phi_D1) of scenario k for each design in (Q, m, 4)."""
        spec, params, _ = self.scenarios[k]
        add, feasible = information(spec, params, new_coords, 1.0)
        full = self._base[k] + add
        dim = full.shape[-1]
        sign, logdet = np.linalg.slogdet(full)
        ok = feasible & (sign > 0)
        phi_d = np.where(ok, np.exp(np.where(ok, logdet, 0.0) / dim), 0.0)
        safe = np.where(ok[:, None, None], full, np.eye(dim))
        corner = np.linalg.inv(safe)[:, -1, -1]
        phi_d1 = np.where(ok & (corner > 0), 1.0 / np.where(ok, corner, 1.0), 0.0)
        return phi_d, phi_d1

    def efficiencies(self, new_coords: np.ndarray) -> np.ndarray:
        """(Q, S, 2) per-scenario (eff_D, eff_D1) for (Q, m, 4) designs."""
        out = np.empty((len(new_coords), len(self.scenarios), 2))
        for k, (den_d, den_d1) in enumerate(self.denominators):
            phi_d, phi_d1 = self.phis(k, new_coords)
            out[:, k, 0] = phi_d / den_d
            out[:, k, 1] = phi_d1 / den_d1
        return out

    def bayes(self, effs: np.ndarray) -> np.ndarray:
        """(Q, 2) weight-averaged (Phi_B^D, Phi_B^D1) from ``efficiencies``."""
        weights = np.array([w for _, _, w in self.scenarios])
        return np.einsum("qsk,s->qk", effs, weights)
