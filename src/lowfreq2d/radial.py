"""Single-angular-mode functions on radial grids.

A RadialFunction is the radial profile of u(r) * e_l(theta) for one Fourier
mode l (e_0 = 1, e_l = cos(l theta) or sin(l theta) for l >= 1; the two trig
components share radial data and are told apart by the ``trig`` tag).  It
carries samples (and usually derivatives) on a PanelGrid, plus whatever is
known about the function beyond the sampled range: harmonic expansion
coefficients c0 + clog*log r + sum v_l r^l for zero-energy objects, which the
tail integrals read.  Point evaluation reads the samples alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .quadrature import PanelGrid

SOURCE_REL = 1e-17      # panels whose max|f| stays below this share of max|f| hold rounding alone


@dataclass
class Exterior:
    """Harmonic expansion coefficients valid beyond some radius."""

    c0: complex = 0.0
    clog: complex = 0.0
    v: dict[int, complex] = field(default_factory=dict)

    @property
    def decaying(self) -> bool:
        """Pure r^l terms with l <= -2, square-integrable: the exterior the tail integrals take."""
        return self.clog == 0 and self.c0 == 0 and all(l <= -2 for l in self.v)


@dataclass
class RadialFunction:
    mode: int
    grid: PanelGrid
    values: np.ndarray
    derivs: np.ndarray | None = None
    trig: str = "cos"
    exterior: Exterior | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.derivs is not None:
            self.derivs = np.asarray(self.derivs, dtype=complex)
        if self.mode == 0:
            self.trig = "cos"

    # -- angular bookkeeping ---------------------------------------------------

    @property
    def angular_weight(self) -> float:
        """integral of e_l(theta)^2 over the circle."""
        return 2.0 * math.pi if self.mode == 0 else math.pi

    def same_channel(self, other: "RadialFunction") -> bool:
        return self.mode == other.mode and (self.mode == 0 or self.trig == other.trig)

    # -- evaluation --------------------------------------------------------------

    def value_at(self, r: float) -> complex:
        return self.grid.eval_at(self.values, r)

    def deriv_at(self, r: float) -> complex:
        return self.grid.eval_at(self.deriv_values(), r)

    def deriv_values(self) -> np.ndarray:
        if self.derivs is not None:
            return self.derivs
        return self.grid.derivative(self.values)

    def scaled(self, c: complex) -> "RadialFunction":
        ext = None
        if self.exterior is not None:
            ext = Exterior(
                c0=self.exterior.c0 * c,
                clog=self.exterior.clog * c,
                v={l: w * c for l, w in self.exterior.v.items()},
            )
        return replace(
            self,
            values=self.values * c,
            derivs=None if self.derivs is None else self.derivs * c,
            exterior=ext,
        )


# ----------------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------------

def _bump(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(1 - 1/(1-t^2)) and its t-derivative, zero for |t| >= 1."""
    f, df = np.zeros_like(t), np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    f[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    df[inside] = f[inside] * (-2.0 * ti / (1.0 - ti * ti) ** 2)
    return f, df


def bump(grid: PanelGrid, center: float, halfwidth: float, mode: int = 0,
         trig: str = "cos") -> RadialFunction:
    """Smooth compactly supported bump exp(1 - 1/(1-t^2)), t = (r-center)/halfwidth.

    Build the grid with bump_edges(center, halfwidth) among its panel edges;
    the bump is flat-but-not-analytic at its endpoints and quadrature on
    panels straddling them loses ~8 digits otherwise.
    """
    f, df = _bump((grid.nodes - center) / halfwidth)
    return RadialFunction(mode, grid, f, df / halfwidth, trig)


#: grading toward the support endpoints; the first interior breakpoint already
#: puts the bump below double-precision underflow of exp(-1/s)
_BUMP_TS = (1.0, 0.999, 0.99, 0.96, 0.88, 0.72, 0.45, 0.0)


def bump_edges(center: float, halfwidth: float) -> list[float]:
    """Panel edges that make Gauss-Legendre quadrature of the bump machine-exact."""
    offs = sorted({center + s * halfwidth * t for t in _BUMP_TS for s in (-1.0, 1.0)})
    return offs


# ----------------------------------------------------------------------------
# inner products and norms on L^2(R^2)
# ----------------------------------------------------------------------------

def _tail(f: RadialFunction, g: RadialFunction) -> complex:
    """integral_R^inf f conj(g) r dr of the two exteriors beyond the grid end
    R: each pair of terms c r^l, d r^m adds c conj(d) R^(l+m+2) / -(l+m+2),
    defined because both exteriors are decaying (l, m <= -2)."""
    ef, eg = f.exterior, g.exterior
    if ef is None or eg is None:
        raise ValidationError("the tail integral needs exterior data on both sides")
    if not (ef.decaying and eg.decaying):
        raise ValidationError("tail integral only for decaying exteriors")
    R = f.grid.rmax
    return sum((cf * np.conj(cg) * R ** (l + m + 2) / -(l + m + 2)
                for l, cf in ef.v.items() for m, cg in eg.v.items()), 0.0)


def inner(f: RadialFunction, g: RadialFunction, tail: bool = False) -> complex:
    """<f, g> over the plane (conjugates g); 0 across distinct channels.

    With tail=True the exact integral of the decaying harmonic tails beyond
    the grid is added (both exteriors must be pure r^{-l}).
    """
    if not f.same_channel(g):
        return 0.0
    if not f.grid.same(g.grid):
        raise ValidationError("inner() needs both functions on the same grid")
    rad = f.grid.integrate(f.values * np.conj(g.values) * f.grid.nodes)
    total = f.angular_weight * rad
    if tail:
        total += f.angular_weight * _tail(f, g)
    return total


def norm_sq(f: RadialFunction, include_tail: bool = False) -> float:
    """|f|^2 over the plane; optionally adds the exact harmonic-tail integral."""
    total = (f.angular_weight *
             f.grid.integrate(np.abs(f.values) ** 2 * f.grid.nodes)).real
    if include_tail:
        total += (f.angular_weight * _tail(f, f)).real
    return total


def support_panels(*fs: RadialFunction) -> list[RadialFunction]:
    """The values of fs, on one grid, on the run of panels from the first to
    the last one where any f exceeds SOURCE_REL times its own peak: beyond
    that run every f is below rounding.  All f vanishing raises ValidationError."""
    g = fs[0].grid
    if not all(f.grid.same(g) for f in fs):
        raise ValidationError("support_panels() needs the functions on one grid")
    peaks = np.abs([f.values for f in fs]).reshape(len(fs), g.npanels, g.n).max(axis=2)
    rows = np.flatnonzero(np.any(peaks > SOURCE_REL * peaks.max(axis=1, keepdims=True), axis=0))
    if rows.size == 0:
        raise ValidationError("the functions vanish identically")
    lo, hi = rows[0], rows[-1] + 1
    grid = PanelGrid(g.edges[lo:hi + 1], g.n)
    return [RadialFunction(f.mode, grid, f.values[lo * g.n:hi * g.n], trig=f.trig) for f in fs]


def with_trig(f: RadialFunction, trig: str) -> RadialFunction:
    """The other angular copy sharing this radial data."""
    return RadialFunction(f.mode, f.grid, f.values, f.derivs, trig, f.exterior)


