"""Zero-energy analysis: nullspace ladder, resonance/eigenvalue classification.

For each angular mode l the regular zero-energy solution connects, outside the
scatterer support, to  g * (r^l or log r) + d * (r^{-l} or 1).  The vanishing
pattern of the growing coefficient g across modes decides everything:

  mode 0, g = 0   -> bounded nonzero solution: s-resonance (state tends to d)
  mode 1, g = 0   -> solution ~ d/r: p-resonance, multiplicity 2 (cos, sin)
  mode l >= 2, g = 0 -> solution ~ d r^{-l} is square integrable: eigenvalue

The report also carries the distinguished solutions and constants used by the
expansion and scattering modules: the bounded state normalized to 1 at
infinity, the log-growing state normalized to log r (whose finite part fixes
the pole shift a and, for obstacles, the logarithmic-capacity constant), the
1/r states with their norm constants alpha_m, and the L2-normalized
eigenfunctions.  Classification, c0(Ulog), a and the capacity read the
connection coefficients alone; the states, alpha_m and s_m are sampled on the
grid when first read, and the eigenfunctions' norm check with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateScattererError, NumericalError
from .quadrature import PanelGrid
from .radial import Exterior, RadialFunction, norm_sq, with_trig
from .radialsolve import PiecewiseSolution, regular_solution
from .scatterer import CutoffProfile, DiskObstacle, Scatterer, default_cutoff, standard_grid
from .specfun import GAMMA0

ZERO_COEFF_RTOL = 1e-10   # growing coefficient counts as zero below this, relative
DEGENERATE_ATOL = 1e-13
CLASSIFY_LMAX = 8         # classify reads the connections of modes 0 .. CLASSIFY_LMAX


@dataclass
class ThresholdMode:
    """Connection data of the regular zero-energy solution in one mode."""

    mode: int
    growing: complex          # coeff of r^l (log r when l = 0)
    decaying: complex         # coeff of r^{-l} (1 when l = 0)
    solution: PiecewiseSolution

    @property
    def growing_is_zero(self) -> bool:
        """|growing| below ZERO_COEFF_RTOL |decaying|, each term at the
        exterior's start R for l >= 1, where r^l and r^-l differ by R^2l;
        an R^2l beyond the float range compares logarithms."""
        R = self.solution.segments[-1].a
        g, d = abs(self.growing), ZERO_COEFF_RTOL * abs(self.decaying)
        try:
            return g * (R ** (2 * self.mode) if self.mode else 1.0) < d
        except OverflowError:
            return d > 0 and (g == 0 or math.log(g) + 2 * self.mode * math.log(R) < math.log(d))

    def on_grid(self, grid: PanelGrid, c: complex, decaying_only: bool) -> RadialFunction:
        """c times the solution sampled on grid, with its exterior expansion
        beyond the support; decaying_only drops the growing coefficient, which
        classification has found to be rounding (~1e-16)."""
        vals, ders = self.solution.eval(grid.nodes)[:, 0, 0]
        l = self.mode
        d = self.decaying * c
        if l == 0:
            ext = Exterior(c0=d, clog=0.0 if decaying_only else self.growing * c)
        else:
            ext = Exterior(v={-l: d} if decaying_only else {l: self.growing * c, -l: d})
        return RadialFunction(l, grid, vals * c, ders * c, "cos", ext)


@dataclass
class ThresholdReport:
    scatterer: Scatterer
    cutoff: CutoffProfile
    dim_g0_mod_g1: int                      # s-resonance count (0 or 1)
    dim_g1_mod_g2: int                      # p-resonance count M (0 or 2 here)
    c0_ulog: complex | None
    a: complex | None                       # pole shift gamma0 + c0(Ulog)
    capacity: float | None                  # obstacles: -Re c0(Ulog)
    modes: list[ThresholdMode]

    @property
    def has_s_resonance(self) -> bool:
        return self.dim_g0_mod_g1 == 1

    @property
    def eigen_mode_numbers(self) -> list[int]:
        """The modes l >= 2 with a zero eigenvalue, read off the connections."""
        return [m.mode for m in self.modes[2:] if m.growing_is_zero]

    @cached_property
    def grid(self) -> PanelGrid:
        """The grid the states are sampled on; classify sets the one it is given."""
        return standard_grid(self.scatterer, self.cutoff)

    def _sample(self, l: int, decaying_only: bool = True) -> RadialFunction:
        """Mode l's solution on the grid, with unit decaying (or growing) coefficient."""
        m = self.modes[l]
        return m.on_grid(self.grid, 1.0 / (m.decaying if decaying_only else m.growing), decaying_only)

    @cached_property
    def U0(self) -> RadialFunction | None:
        """The bounded state, 1 at infinity (s-resonance only)."""
        return self._sample(0) if self.dim_g0_mod_g1 else None

    @cached_property
    def Ulog(self) -> RadialFunction | None:
        """The log-growing state, log r + c0_ulog beyond the support."""
        return None if self.dim_g0_mod_g1 else self._sample(0, decaying_only=False)

    @cached_property
    def Uw(self) -> list[RadialFunction]:
        """The cos and sin copies of the 1/r state (p-resonance only)."""
        if not self.dim_g1_mod_g2:
            return []
        prof = self._sample(1)
        return [with_trig(prof, trig) for trig in ("cos", "sin")]

    @cached_property
    def alpha(self) -> list[float]:
        """The norm constant of each 1/r state."""
        if not self.Uw:
            return []
        # alpha = lim_{r1 -> inf} ( <U,U>_{|x|<r1} / pi - log r1 ); the profile is
        # exactly 1/r beyond the support, so the limit is reached at the grid end.
        quad = self.grid.integrate(np.abs(self.Uw[0].values) ** 2 * self.grid.nodes).real
        return [quad - math.log(self.grid.rmax)] * 2

    @cached_property
    def s(self) -> list[float]:
        """The pole shift gamma0 + alpha of each 1/r state."""
        return [GAMMA0 + al for al in self.alpha]

    @cached_property
    def eigen_modes(self) -> list[tuple[int, RadialFunction]]:
        """(l, L2-normalised eigenfunction) for each of eigen_mode_numbers."""
        eigen = []
        for l in self.eigen_mode_numbers:
            raw = self._sample(l)
            nrm = math.sqrt(norm_sq(raw, include_tail=True))
            if not 0.0 < nrm < math.inf:
                raise NumericalError(f"mode-{l} threshold eigenfunction has norm {nrm}")
            eigen.append((l, raw.scaled(1.0 / nrm)))
        return eigen


def solve_zero_mode(s: Scatterer, l) -> ThresholdMode | list[ThresholdMode]:
    """Exact transfer-matrix solve of the modes l at zero energy: a
    ThresholdMode per mode (for an int l, the one), from one solve of them
    all, checked in the order of l, so the first failing mode raises; each
    holds its one-mode slice of the solution, with the bits of its own solve."""
    sol = regular_solution(s, l, None)
    c1, c2 = (c.reshape(-1) for c in sol.coeffs[-1])
    out = []
    for i, m in enumerate(sol.segments[0].l.tolist()):
        # exterior basis (1, log r) for mode 0, (r^l, r^{-l}) above
        growing, decaying = (c2[i], c1[i]) if m == 0 else (c1[i], c2[i])
        if not np.isfinite([growing, decaying]).all():
            raise NumericalError(f"mode {m}: non-finite exterior connection coefficients")
        if max(abs(growing), abs(decaying)) < DEGENERATE_ATOL:
            raise DegenerateScattererError(f"mode {m}: both exterior connection coefficients vanish")
        out.append(ThresholdMode(m, growing, decaying, sol.mode(i)))
    return out if np.ndim(l) else out[0]


def classify(s: Scatterer, cutoff: CutoffProfile | None = None,
             grid: PanelGrid | None = None) -> ThresholdReport:
    """Classify the zero-energy nullspace from the connections of modes 0 ..
    CLASSIFY_LMAX, all from one transfer-matrix solve.  The report samples its
    states on grid, or on the standard grid of the cutoff, when first read."""
    if cutoff is None:
        cutoff = default_cutoff(s)
    modes = solve_zero_mode(s, np.arange(CLASSIFY_LMAX + 1))

    m0 = modes[0]
    c0_ulog = a = capacity = None
    if not m0.growing_is_zero:
        c0_ulog = complex(m0.decaying / m0.growing)
        a = GAMMA0 + c0_ulog
        if isinstance(s, DiskObstacle):
            capacity = -c0_ulog.real
    report = ThresholdReport(scatterer=s, cutoff=cutoff, dim_g0_mod_g1=1 if m0.growing_is_zero else 0,
                             dim_g1_mod_g2=2 if modes[1].growing_is_zero else 0,  # cos and sin
                             c0_ulog=c0_ulog, a=a, capacity=capacity, modes=modes)
    if grid is not None:
        report.grid = grid
    return report


def report_to_dict(report: ThresholdReport) -> dict:
    """JSON-ready summary (complex numbers as [re, im])."""
    def c(z):
        return None if z is None else [complex(z).real, complex(z).imag]

    return {
        "kind": report.scatterer.kind,
        "dimG0modG1": report.dim_g0_mod_g1,
        "dimG1modG2": report.dim_g1_mod_g2,
        "eigenModes": report.eigen_mode_numbers,
        "c0Ulog": c(report.c0_ulog),
        "a": c(report.a),
        "capacity": report.capacity,
        "alpha": [c(x) for x in report.alpha],
        "s": [c(x) for x in report.s],
        "connection": [
            {"mode": m.mode, "growing": c(m.growing), "decaying": c(m.decaying)}
            for m in report.modes
        ],
    }
