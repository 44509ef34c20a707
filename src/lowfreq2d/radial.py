"""Single-angular-mode functions on radial grids.

A RadialFunction is the radial profile of u(r) * e_l(theta) for one Fourier
mode l (e_0 = 1, e_l = cos(l theta) or sin(l theta) for l >= 1; the two trig
components share radial data and are told apart by the ``trig`` tag).  It
carries samples (and usually derivatives) on a PanelGrid, plus whatever is
known about the function beyond the sampled range: harmonic expansion
coefficients c0 + clog*log r + sum v_l r^l for zero-energy objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .quadrature import PanelGrid


@dataclass
class Exterior:
    """Harmonic expansion coefficients valid beyond some radius."""

    c0: complex = 0.0
    clog: complex = 0.0
    v: dict[int, complex] = field(default_factory=dict)

    def value_at(self, r: float) -> complex:
        out = self.c0 + self.clog * math.log(r)
        for l, coeff in self.v.items():
            out += coeff * r**l
        return out

    def deriv_at(self, r: float) -> complex:
        out = self.clog / r
        for l, coeff in self.v.items():
            out += coeff * l * r ** (l - 1)
        return out

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
    exterior_start: float | None = None

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

    def _on_exterior(self, r: float) -> bool:
        """r lies past both the sampled range and the exterior expansion's start."""
        return (self.exterior is not None and self.exterior_start is not None
                and r > self.exterior_start and r > self.grid.rmax)

    def value_at(self, r: float) -> complex:
        if self._on_exterior(r):
            return self.exterior.value_at(r)
        return self.grid.eval_at(self.values, r)

    def deriv_at(self, r: float) -> complex:
        if self._on_exterior(r):
            return self.exterior.deriv_at(r)
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

def constant_one(grid: PanelGrid) -> RadialFunction:
    return RadialFunction(
        0, grid, np.ones(len(grid)), np.zeros(len(grid)),
        exterior=Exterior(c0=1.0), exterior_start=grid.rmin,
    )


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def _bump_deriv(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti)) * (-2.0 * ti / (1.0 - ti * ti) ** 2)
    return out


def bump(grid: PanelGrid, center: float, halfwidth: float, mode: int = 0,
         trig: str = "cos") -> RadialFunction:
    """Smooth compactly supported bump exp(1 - 1/(1-t^2)), t = (r-center)/halfwidth.

    Build the grid with bump_edges(center, halfwidth) among its panel edges;
    the bump is flat-but-not-analytic at its endpoints and quadrature on
    panels straddling them loses ~8 digits otherwise.
    """
    t = (grid.nodes - center) / halfwidth
    return RadialFunction(mode, grid, _bump(t), _bump_deriv(t) / halfwidth, trig)


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
        ef, eg = f.exterior, g.exterior
        if ef is None or eg is None:
            raise ValidationError("tail=True needs exterior data on both sides")
        if not (ef.decaying and eg.decaying):
            raise ValidationError("tail integral only for decaying exteriors")
        R = f.grid.rmax
        for l, cf in ef.v.items():
            if l in eg.v:
                total += f.angular_weight * cf * np.conj(eg.v[l]) * R ** (2 * l + 2) / (-2 * l - 2)
    return total


def norm_sq(f: RadialFunction, include_tail: bool = False) -> float:
    """|f|^2 over the plane; optionally adds the exact harmonic-tail integral."""
    total = (f.angular_weight *
             f.grid.integrate(np.abs(f.values) ** 2 * f.grid.nodes)).real
    if include_tail:
        ext = f.exterior
        if ext is None:
            raise ValidationError("no exterior data for the tail")
        if not ext.decaying:
            raise ValidationError("tail integral only for decaying exteriors")
        R = f.grid.rmax
        for l, c in ext.v.items():
            # integral_R^inf |c|^2 r^{2l} r dr, l <= -2
            total += f.angular_weight * abs(c) ** 2 * R ** (2 * l + 2) / (-2 * l - 2)
    return total


def plane_integral(f: RadialFunction) -> complex:
    """integral of f over R^2 (zero for modes >= 1 by angular oscillation)."""
    if f.mode != 0:
        return 0.0
    return 2.0 * math.pi * f.grid.integrate(f.values * f.grid.nodes)


def with_trig(f: RadialFunction, trig: str) -> RadialFunction:
    """The other angular copy sharing this radial data."""
    return RadialFunction(f.mode, f.grid, f.values, f.derivs, trig, f.exterior, f.exterior_start)


