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
eigenfunctions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateScattererError, NumericalError, ValidationError
from .quadrature import PanelGrid
from .radial import Exterior, RadialFunction, norm_sq, with_trig
from .radialsolve import PiecewiseSolution, regular_solution
from .scatterer import CutoffProfile, DiskObstacle, Scatterer, default_cutoff, standard_grid
from .specfun import GAMMA0

ZERO_COEFF_RTOL = 1e-10   # growing coefficient counts as zero below this, relative
DEGENERATE_ATOL = 1e-13


@dataclass
class ThresholdMode:
    """Connection data of the regular zero-energy solution in one mode."""

    mode: int
    growing: complex          # coeff of r^l (log r when l = 0)
    decaying: complex         # coeff of r^{-l} (1 when l = 0)
    solution: PiecewiseSolution

    @property
    def growing_is_zero(self) -> bool:
        return abs(self.growing) < ZERO_COEFF_RTOL * abs(self.decaying)

    def on_grid(self, grid: PanelGrid, c: complex, decaying_only: bool) -> RadialFunction:
        """c times the solution sampled on grid, with its exterior expansion
        beyond the support; decaying_only drops the growing coefficient, which
        classification has found to be rounding (~1e-16)."""
        (vals,), (ders,) = self.solution.eval(grid.nodes)
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
    dim_g0_mod_g1: int                      # s-resonance count (0 or 1)
    dim_g1_mod_g2: int                      # p-resonance count M (0 or 2 here)
    eigen_modes: list[tuple[int, RadialFunction]]
    U0: RadialFunction | None
    Ulog: RadialFunction | None
    c0_ulog: complex | None
    a: complex | None                       # pole shift gamma0 + c0(Ulog)
    capacity: float | None                  # obstacles: -Re c0(Ulog)
    Uw: list[RadialFunction] = field(default_factory=list)
    alpha: list[complex] = field(default_factory=list)
    s: list[complex] = field(default_factory=list)
    modes: list[ThresholdMode] = field(default_factory=list)

    @property
    def has_s_resonance(self) -> bool:
        return self.dim_g0_mod_g1 == 1


def solve_zero_mode(s: Scatterer, l) -> ThresholdMode | list[ThresholdMode]:
    """Exact transfer-matrix solve of the mode-l equation at zero energy; for
    a 1-D array l, a ThresholdMode per mode from one solve of them all,
    checked in the order of l, so the first failing mode raises."""
    sol = regular_solution(s, l, None)
    many = np.ndim(l)
    modes = np.asarray(l).tolist() if many else [l]
    c1, c2 = (c.reshape(-1) for c in sol.coeffs[-1])
    out = []
    for i, m in enumerate(modes):
        if m == 0:
            growing, decaying = c2[i], c1[i]     # exterior basis (1, log r)
        else:
            growing, decaying = c1[i], c2[i]     # exterior basis (r^l, r^{-l})
        if not np.isfinite([growing, decaying]).all():
            raise NumericalError(f"mode {m}: non-finite exterior connection coefficients")
        if max(abs(growing), abs(decaying)) < DEGENERATE_ATOL:
            raise DegenerateScattererError(
                f"mode {m}: both exterior connection coefficients vanish"
            )
        out.append(ThresholdMode(m, growing, decaying, sol.mode(i) if many else sol))
    return out if many else out[0]


def classify(s: Scatterer, lmax: int = 8, cutoff: CutoffProfile | None = None,
             grid: PanelGrid | None = None) -> ThresholdReport:
    """Classify the zero-energy nullspace and build its distinguished elements.

    The connections of modes 0 .. lmax come from one transfer-matrix solve;
    only the states reported are sampled on the grid."""
    if lmax < 2:
        raise ValidationError("lmax must be at least 2")
    if cutoff is None:
        cutoff = default_cutoff(s)
    if grid is None:
        grid = standard_grid(s, cutoff)
    modes = solve_zero_mode(s, np.arange(lmax + 1))

    m0 = modes[0]
    U0 = Ulog = None
    c0_ulog = a = None
    capacity = None
    dim_s = 0
    if m0.growing_is_zero:
        dim_s = 1
        U0 = m0.on_grid(grid, 1.0 / m0.decaying, decaying_only=True)
    else:
        Ulog = m0.on_grid(grid, 1.0 / m0.growing, decaying_only=False)
        c0_ulog = complex(m0.decaying / m0.growing)
        a = GAMMA0 + c0_ulog
        if isinstance(s, DiskObstacle):
            capacity = -c0_ulog.real

    dim_p = 0
    Uw: list[RadialFunction] = []
    alpha: list[complex] = []
    s_shifts: list[complex] = []
    m1 = modes[1]
    if m1.growing_is_zero:
        dim_p = 2   # cos and sin copies of the same radial profile
        prof = m1.on_grid(grid, 1.0 / m1.decaying, decaying_only=True)
        # alpha = lim_{r1 -> inf} ( <U,U>_{|x|<r1} / pi - log r1 ); the profile is
        # exactly 1/r beyond the support, so the limit is reached at the grid end.
        r1 = grid.rmax
        quad = grid.integrate(np.abs(prof.values) ** 2 * grid.nodes).real
        al = quad - math.log(r1)
        for trig in ("cos", "sin"):
            Uw.append(with_trig(prof, trig))
            alpha.append(al)
            s_shifts.append(GAMMA0 + al)

    eigen: list[tuple[int, RadialFunction]] = []
    for m in modes[2:]:
        if m.growing_is_zero:
            raw = m.on_grid(grid, 1.0 / m.decaying, decaying_only=True)
            nrm = math.sqrt(norm_sq(raw, include_tail=True))
            if not 0.0 < nrm < math.inf:
                raise NumericalError(f"mode-{m.mode} threshold eigenfunction has norm {nrm}")
            eigen.append((m.mode, raw.scaled(1.0 / nrm)))

    return ThresholdReport(
        scatterer=s, dim_g0_mod_g1=dim_s, dim_g1_mod_g2=dim_p,
        eigen_modes=eigen, U0=U0, Ulog=Ulog, c0_ulog=c0_ulog, a=a,
        capacity=capacity, Uw=Uw, alpha=alpha, s=s_shifts, modes=modes,
    )


def report_to_dict(report: ThresholdReport) -> dict:
    """JSON-ready summary (complex numbers as [re, im])."""
    def c(z):
        return None if z is None else [complex(z).real, complex(z).imag]

    return {
        "kind": report.scatterer.kind,
        "dimG0modG1": report.dim_g0_mod_g1,
        "dimG1modG2": report.dim_g1_mod_g2,
        "eigenModes": [l for l, _ in report.eigen_modes],
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
