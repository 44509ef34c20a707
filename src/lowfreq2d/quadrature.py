"""Composite Gauss-Legendre panels with spectral partial integrals.

A PanelGrid is a partition of [a, b] into panels with n Gauss-Legendre nodes
each.  Values sampled on the nodes can be integrated, integrated cumulatively
(the key primitive for variation-of-parameters Green functions),
differentiated at the nodes, or evaluated anywhere on the covered interval by
way of the per-panel Legendre expansion.  Everything is exact for piecewise polynomials of degree
< n and spectrally accurate for piecewise-analytic data, which is why panel
edges are always aligned with potential breakpoints and cutoff transitions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as L

from .errors import ValidationError

GEOMETRIC_RATIO = 2.0   # growth of geometric_edges
GRADED_COUNT = 8        # panels of graded_inner_edges
GRADED_RATIO = 5.0      # shrink factor of graded_inner_edges toward 0


@lru_cache(maxsize=None)
def _reference(n: int):
    """GL nodes/weights on [-1, 1], the value->Legendre-coefficient map, and
    the node-value maps of the running integral from -1 and of d/dx."""
    x, w = L.leggauss(n)
    # c_k = (2k+1)/2 * sum_i w_i P_k(x_i) v_i  (exact for polynomial v, deg < n)
    V = L.legvander(x, n - 1)              # V[i, k] = P_k(x_i)
    to_coeff = ((2 * np.arange(n) + 1) / 2.0)[:, None] * (V.T * w[None, :])
    eye = np.eye(n)
    cum = L.legvander(x, n) @ L.legint(eye, lbnd=-1) @ to_coeff
    der = L.legvander(x, n - 2) @ L.legder(eye) @ to_coeff
    return x, w, to_coeff, cum, der


class PanelGrid:
    """Gauss-Legendre panels on [edges[0], edges[-1]]."""

    def __init__(self, edges, nodes_per_panel: int = 32):
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or len(edges) < 2 or not np.all(np.diff(edges) > 0):
            raise ValidationError("panel edges must be strictly increasing, >= 2 entries")
        self.edges = edges
        self.n = int(nodes_per_panel)
        x, w, to_coeff, cum, der = _reference(self.n)
        self._x, self._w, self._to_coeff = x, w, to_coeff
        self._cum, self._der = cum, der
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        self.npanels = len(half)
        self.nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        self.weights = (half[:, None] * w[None, :]).ravel()
        self._half = half
        self._mid = mid

    # -- basic statistics ----------------------------------------------------

    @property
    def rmin(self) -> float:
        return float(self.edges[0])

    @property
    def rmax(self) -> float:
        return float(self.edges[-1])

    def __len__(self) -> int:
        return len(self.nodes)

    def same(self, other: "PanelGrid") -> bool:
        return self is other or (
            self.n == other.n
            and len(self.edges) == len(other.edges)
            and np.array_equal(self.edges, other.edges)
        )

    # -- integration ----------------------------------------------------------

    # Node values may carry leading batch axes: vals has shape (..., len(self)).

    def integrate(self, vals: np.ndarray):
        """integral over the grid: a complex, or an array over the batch axes."""
        out = np.sum(np.asarray(vals) * self.weights, axis=-1)
        return complex(out) if out.ndim == 0 else out

    def _panels(self, vals: np.ndarray) -> np.ndarray:
        v = np.asarray(vals, dtype=complex)
        return v.reshape(v.shape[:-1] + (self.npanels, self.n))

    def _coeffs(self, vals: np.ndarray) -> np.ndarray:
        """Per-panel Legendre coefficients, shape (..., npanels, n)."""
        return self._panels(vals) @ self._to_coeff.T

    def cumulative(self, vals: np.ndarray) -> np.ndarray:
        """integral from rmin to each node, same shape as vals."""
        v = self._panels(vals)
        panel_totals = v @ self._w * self._half
        prefix = np.zeros_like(panel_totals)
        prefix[..., 1:] = np.cumsum(panel_totals, axis=-1)[..., :-1]
        out = prefix[..., None] + self._half[:, None] * (v @ self._cum.T)
        return out.reshape(np.shape(vals))

    def derivative(self, vals: np.ndarray) -> np.ndarray:
        """d/dr of the sampled function at the nodes (per-panel spectral)."""
        v = self._panels(vals)
        return ((v @ self._der.T) / self._half[:, None]).reshape(np.shape(vals))

    # -- pointwise evaluation --------------------------------------------------

    def _locate(self, r: float) -> tuple[int, float]:
        if not (self.rmin - 1e-12 <= r <= self.rmax + 1e-12):
            raise ValidationError(f"r={r} outside grid [{self.rmin}, {self.rmax}]")
        p = int(np.searchsorted(self.edges, r, side="right") - 1)
        p = min(max(p, 0), self.npanels - 1)
        x = (r - self._mid[p]) / self._half[p]
        return p, float(np.clip(x, -1.0, 1.0))

    def eval_at(self, vals: np.ndarray, r: float):
        """The sampled function at r: a complex, or an array over the batch axes."""
        p, x = self._locate(r)
        out = L.legval(x, np.moveaxis(self._coeffs(vals)[..., p, :], -1, 0))
        return complex(out) if np.ndim(out) == 0 else out


def geometric_edges(a: float, b: float) -> np.ndarray:
    """Edges from a to b growing by GEOMETRIC_RATIO (a > 0)."""
    if not (0 < a < b):
        raise ValidationError("need 0 < a < b")
    edges = [a]
    while edges[-1] * GEOMETRIC_RATIO < b:
        edges.append(edges[-1] * GEOMETRIC_RATIO)
    edges.append(b)
    return np.array(edges)


def graded_inner_edges(r_first: float) -> np.ndarray:
    """GRADED_COUNT panels grading [0, r_first] toward 0 by GRADED_RATIO (mild
    log singularities at the origin)."""
    pts = [r_first]
    for _ in range(GRADED_COUNT - 1):
        pts.append(pts[-1] / GRADED_RATIO)
    pts.append(0.0)
    return np.array(sorted(pts))
