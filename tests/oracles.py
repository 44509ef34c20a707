"""Independent numerical oracles used by the tests.

Nothing here imports the package's special-function or pairing code paths it
is checking: the Bessel oracle is its own ascending series, validated in the
tests by the classical Wronskian identity, and the circle pairing is a plain
trapezoid rule in the angle.  The spherical Bessel recurrence is the scalar,
one-argument-at-a-time reference for the wave's moment table, and the ODE
residual checks a resolvent application against the mode equation by
numerical differentiation on its grid.  The free-kernel truncation error sets
the package's exact kernel against its low-frequency coefficient kernels,
det_s_modulus multiplies out a phase-shift table's S-matrix,
from_callable samples a plain function onto a grid, one node at a time, and
log_power_terms lists fit columns outside the structural shapes.
admissible is Re V >= 0 on the support.  The sequential pole finders are
the one-point-per-step Newton and bisection loops that the batched ones in
`lowfreq2d.scattering` must reproduce bit for bit; they reach the defect
through the module attribute, so a test can spy on both.
"""

from __future__ import annotations

import math

import numpy as np

from lowfreq2d import scattering
from lowfreq2d.errors import BasinError
from lowfreq2d.expansion import FitTerm
from lowfreq2d.quadrature import PanelGrid
from lowfreq2d.radial import Exterior, RadialFunction
from lowfreq2d.resolvent import FreeCoeffKernel, free_kernel
from lowfreq2d.scatterer import DiskObstacle, PiecewisePotential
from lowfreq2d.specfun import SpectralPoint
from lowfreq2d.util import log_grid

EULER_ORACLE = 0.57721566490153286


def j0_series(x, terms: int = 60):
    """J0 by its ascending series with a fixed term count; x is a number or a
    (complex) numpy array, and 60 terms reach double precision for |x| <= 12."""
    q = -0.25 * np.asarray(x) ** 2
    total = np.ones_like(q)
    term = np.ones_like(q)
    for m in range(1, terms):
        term = term * q / (m * m)
        total = total + term
    return total[()]


def y0_series(x, terms: int = 60):
    """Y0 by its ascending series, with the principal log."""
    x = np.asarray(x)
    q = -0.25 * x**2
    total = np.zeros_like(q)
    term = np.ones_like(q)
    h = 0.0
    for m in range(1, terms):
        term = term * q / (m * m)
        h += 1.0 / m
        total = total + term * h
    return (2.0 / math.pi * ((np.log(x / 2.0) + EULER_ORACLE) * j0_series(x, terms) - total))[()]


def j0_prime(x: float, h: float = 1e-6) -> float:
    return (j0_series(x + h) - j0_series(x - h)) / (2.0 * h)


def y0_prime(x: float, h: float = 1e-6) -> float:
    return (y0_series(x + h) - y0_series(x - h)) / (2.0 * h)


def circle_pairing(u_val, u_der, v_val, v_der, r1: float, mode_u: int, mode_v: int,
                   trig_u: str = "cos", trig_v: str = "cos", ntheta: int = 720) -> complex:
    """Trapezoid quadrature of the circle Wronskian pairing at radius r1.

    u(x) = u_val * e(theta), etc.; returns
    integral over the circle of (u dv*/dr - du/dr v*).
    """
    th = np.linspace(0.0, 2.0 * math.pi, ntheta, endpoint=False)

    def ang(mode, trig):
        if mode == 0:
            return np.ones_like(th)
        return np.cos(mode * th) if trig == "cos" else np.sin(mode * th)

    eu = ang(mode_u, trig_u)
    ev = ang(mode_v, trig_v)
    integrand = (u_val * eu) * np.conj(v_der * ev) - (u_der * eu) * np.conj(v_val * ev)
    return complex(np.sum(integrand) * (2.0 * math.pi / ntheta) * r1)


def born_phase_shift_mode0(depth: float, radius: float, lam: float,
                           n: int = 400) -> float:
    """First Born approximation: delta_0 ~ -(pi/2) integral V J_0(lam r)^2 r dr."""
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(n)
    r = 0.5 * radius * (x + 1.0)
    wr = 0.5 * radius * w
    integrand = depth * np.array([j0_series(lam * rr) for rr in r]) ** 2 * r
    return float(-(math.pi / 2.0) * np.sum(wr * integrand))


def spherical_jn_all(nmax: int, w: float) -> np.ndarray:
    """j_0..j_nmax at w >= 0; downward recurrence below the oscillatory regime."""
    out = np.zeros(nmax + 1)
    if w == 0.0:
        out[0] = 1.0
        return out
    if w > nmax + 12:
        out[0] = math.sin(w) / w
        if nmax >= 1:
            out[1] = out[0] / w - math.cos(w) / w
        for n in range(1, nmax):
            out[n + 1] = (2 * n + 1) / w * out[n] - out[n - 1]
        return out
    # Miller's downward recurrence j_{n-1} = (2n+1)/w j_n - j_{n+1}, normalized by j0
    N = nmax + 20 + int(w)
    jp = 0.0          # j_{n+1}
    jc = 1e-300       # j_n
    tail = np.zeros(nmax + 1)
    for n in range(N, 0, -1):
        jm = (2 * n + 1) / w * jc - jp
        jp, jc = jc, jm
        if n - 1 <= nmax:
            tail[n - 1] = jc
        if abs(jc) > 1e250:
            jp *= 1e-250
            jc *= 1e-250
            tail *= 1e-250
    j0 = math.sin(w) / w
    return tail * (j0 / jc)


def free_truncation_error(lam: SpectralPoint, pairs) -> float:
    """max |free kernel - coefficient expansion through j <= 1| over the point pairs."""
    worst = 0.0
    lg = lam.log
    l2 = lam.value ** 2
    for x, y in pairs:
        exact = free_kernel(lam, x, y)
        approx = (
            FreeCoeffKernel(0, 1).evaluate(x, y) * lg
            + FreeCoeffKernel(0, 0).evaluate(x, y)
            + FreeCoeffKernel(1, 1).evaluate(x, y) * l2 * lg
            + FreeCoeffKernel(1, 0).evaluate(x, y) * l2
        )
        worst = max(worst, abs(exact - approx))
    return worst


def det_s_modulus(table) -> float:
    """|det S| of a phase-shift table: |S_0| times |S_l|^2 for each l >= 1,
    whose cos and sin channels share S_l."""
    out = 1.0
    for l, s in table.smatrix.items():
        out *= abs(s) ** (1 if l == 0 else 2)
    return out


def from_callable(grid: PanelGrid, fn, dfn=None, mode: int = 0, trig: str = "cos",
                  exterior: Exterior | None = None, exterior_start: float | None = None) -> RadialFunction:
    """fn (and dfn, if given, as the derivatives) sampled on the grid nodes."""
    vals = np.array([fn(r) for r in grid.nodes], dtype=complex)
    ders = None if dfn is None else np.array([dfn(r) for r in grid.nodes], dtype=complex)
    return RadialFunction(mode, grid, vals, ders, trig, exterior, exterior_start)


def log_power_terms(jmax: int, kmin: int, kmax: int, capped: bool = True) -> list[FitTerm]:
    """lam^{2j} (log lam)^k for 0 <= j <= jmax and kmin <= k <= kmax, with k also
    at most 2j + 1 unless capped is false: a shape whose negative and uncapped
    log powers the resolvent does not have, so their fitted coefficients
    must come out at noise level."""
    return [FitTerm(j, k) for j in range(jmax + 1)
            for k in range(kmin, (min(2 * j + 1, kmax) if capped else kmax) + 1)]


def potential_values(s, r: np.ndarray) -> np.ndarray:
    """V at the radii r: the piecewise-constant values of a PiecewisePotential, 0 otherwise."""
    out = np.zeros(len(r), dtype=complex)
    if isinstance(s, PiecewisePotential):
        edges = s.segment_edges()
        for j, (a, b) in enumerate(zip(edges, edges[1:])):
            out[(r >= a) & (r < b)] = complex(s.values[j])
    return out


def ode_residual(sample, f, u) -> float:
    """| (P - lam^2) u - f | / |f| on the grid of a one-point ResolventSample.

    u'' comes from one numerical differentiation of the sampled u'; panels
    narrower than 1e-3 of the span (the origin-grading micro panels, where
    1/r and 1/h amplification swamps double precision) are excluded, which
    is the 'away from breakpoints' restriction in quadrature form.
    """
    g = sample.grid
    r = g.nodes
    d1 = u.deriv_values()
    d2 = g.derivative(d1)
    V = potential_values(sample.scatterer, r)
    lhs = -(d2 + d1 / r - sample.mode**2 * u.values / r**2) + (V - sample.lam.value**2) * u.values
    widths = np.repeat(np.diff(g.edges), g.n)
    keep = widths > 1e-3 * (g.rmax - g.rmin)
    num = np.sqrt(abs(g.integrate(np.where(keep, np.abs(lhs - f.values) ** 2, 0.0) * r)))
    den = np.sqrt(abs(g.integrate(np.abs(f.values) ** 2 * r)))
    return float(num / den)


def admissible(s) -> bool:
    """Re V >= 0 everywhere: every disk, and a potential by its values."""
    return isinstance(s, DiskObstacle) or all(complex(v).real >= 0.0 for v in s.values)


def sequential_find_pole(s, mode: int, seed: SpectralPoint):
    """`scattering.find_pole` as one defect call per value: the seed, each
    Newton step's central-difference pair, each line-search trial."""
    defect = scattering.outgoing_defect
    chart = scattering._Chart(reciprocal=seed.modulus < 0.2)
    x = chart.from_lam(seed)
    f = defect(s, mode, chart.to_lam(x))
    f0 = abs(f)
    for it in range(1, scattering.NEWTON_MAX_ITER + 1):
        h = 1e-7 * (1.0 + abs(x))
        fp, fm = (complex(d) for d in defect(s, mode, [chart.to_lam(x + h), chart.to_lam(x - h)]))
        dfdx = (fp - fm) / (2.0 * h)
        if dfdx == 0:
            break
        local_scale = abs(dfdx) * (1.0 + abs(x))
        lam = chart.to_lam(x)
        if abs(f) <= scattering.NEWTON_TOL_FACTOR * f0 or abs(f) <= 1e-11 * local_scale:
            kind = "boundState" if abs(lam.arg - math.pi / 2.0) < 1e-8 else "resonance"
            return scattering.ResonancePole(lam, mode, kind, abs(f) / max(local_scale, 1e-300), it)
        step = -f / dfdx
        t = 1.0
        while t > 1e-6:
            xn = x + t * step
            if chart.inside(xn):
                fn = defect(s, mode, chart.to_lam(xn))
                if abs(fn) < abs(f):
                    break
            t *= 0.5
        else:
            break
        x, f = xn, fn
    raise BasinError("pole iteration did not converge", [])


def sequential_axis_poles(s, mode: int, kmin: float = 1e-3, kmax: float = 2.0) -> list:
    """`scattering.imaginary_axis_poles` on a selfadjoint scatterer, with
    `sequential_find_pole` and one defect call per bisection step."""
    defect = scattering.outgoing_defect
    ks = log_grid(kmin, kmax, scattering.AXIS_COUNT)
    vals = [(1j ** mode * complex(d)).real
            for d in defect(s, mode, [SpectralPoint(float(k), math.pi / 2.0) for k in ks])]
    out = []
    for i in range(len(ks) - 1):
        if not (vals[i] == 0.0 or vals[i] * vals[i + 1] < 0):
            continue
        seed = SpectralPoint(float(math.sqrt(ks[i] * ks[i + 1])), math.pi / 2.0)
        try:
            pole = sequential_find_pole(s, mode, seed) if seed.modulus < 0.5 else None
        except BasinError:
            pole = None
        if pole is None:
            lo, hi, flo = float(ks[i]), float(ks[i + 1]), vals[i]
            steps = 0
            while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                fm = (1j ** mode * defect(s, mode, SpectralPoint(mid, math.pi / 2))).real
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
                steps += 1
            pole = scattering.ResonancePole(SpectralPoint(mid, math.pi / 2.0),
                                            mode, "boundState", 0.0, steps)
        out.append(pole)
    return out
