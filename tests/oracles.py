"""Numerical oracles and test-only references used by the tests.

The Bessel oracle is its own ascending series, validated in the tests by the
classical Wronskian identity, and circle_pairing is a plain trapezoid rule in
the angle; neither imports the package code it checks.  bessel_jh and
hankel1 are not independent: they read one point of
`lowfreq2d.specfun.bessel_pair` and add the order-raising recurrence for
the derivatives, as a scalar view of the package's Bessel functions for the
tests to hold against the oracles.
free_kernel (through hankel1) and FreeCoeffKernel are the free resolvent's
kernel and its low-frequency coefficient kernels; free_truncation_error sets
one against the other.  boundary_pairing_samples and boundary_pairing_fourier
are the circle pairing from sampled data and from exterior expansions.
The spherical Bessel recurrence is the scalar, one-argument-at-a-time
reference for the wave's moment table, and the ODE residual checks a
resolvent application against the mode equation by numerical
differentiation on its grid.  det_s_modulus multiplies out a phase-shift
table's S-matrix and breit_wigner_metrics reads a peak off a phase sweep.
eigen_projection projects onto a report's zero eigenspace with the package's
`inner`, `with_trig` and the exact tail integral beyond the grid of a
decaying f.  from_callable samples a plain function onto a
grid, one node at a time, constant_one is 1 with its exterior, and
plane_integral and laplacian_chi are the mode-0 integral over the plane and
Delta chi of a cutoff.  serialize_config writes a config that parse_config
reads back, and log_power_terms lists fit columns outside the structural
shapes.  admissible is Re V >= 0 on the support, and FREE is V = 0.
find_pole, find_pole_in_disk and imaginary_axis_poles run one Newton, disk
or axis search through `scattering.run_searches`.  The
sequential pole finders are the one-point-per-step Newton and bisection
loops that the batched ones in `lowfreq2d.scattering` must reproduce bit for
bit; they reach the defect through the module attribute, so a test can spy
on both; scan_pole_candidates gives the seeds of the disk search.
sequential_resonance and sequential_perturb run the searches (and the
sweeps) of `resonance` and `perturb` one after the other, perturb's on each
`shifted` member V + eps, as the lockstep runs must reproduce them.
sequential_classify_modes and sequential_phase_tables are the
one-mode-per-solve loops that `classify`'s one solve of every mode and the
phase sweep's blocks of modes must reproduce bit for bit, on the
MODE_AXIS_SCATTERERS, compared by bit_pattern.

MpModeMarch is the independent mode solver: it matches u and u' at each
break in mpmath at 40 digits, on (J, Y) inside the support and (J, H1)
outside, and gives the regular solution's exterior coefficients (so S_l),
phi and psi at given radii with their Wronskian (so G_l(x, y), paired by
radius), the resolvent applied at one radius as a quadrature sum over a
source's nodes, and the zero-energy connection coefficients.  It reads the
scatterer's fields alone and shares no code with `lowfreq2d`, as does
mp_bound_states, the bound states of a unit-step well by J/K matching.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from lowfreq2d import cli, scattering
from lowfreq2d.errors import BasinError, DomainError, NumericalError, ValidationError
from lowfreq2d.expansion import FitTerm
from lowfreq2d.quadrature import PanelGrid
from lowfreq2d.radial import Exterior, RadialFunction, _tail, inner, with_trig
from lowfreq2d.radialsolve import regular_solution
from lowfreq2d.scatterer import (CutoffProfile, DiskObstacle, PiecewisePotential,
                                 ScattererConfig, _laplacian)
from lowfreq2d.specfun import GAMMA0, SpectralBatch, bessel_pair
from lowfreq2d.threshold import ThresholdReport, solve_zero_mode
from lowfreq2d.util import log_grid

EULER_ORACLE = 0.57721566490153286

FREE = PiecewisePotential((1.0,), (0.0,))


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


def bessel_jh(l: int, s: SpectralBatch) -> tuple[complex, complex, complex, complex]:
    """(J_l, H^(1)_l, J_l', H^(1)_l') at a point of the log cover, from bessel_pair."""
    z = np.array([s.value])
    J, H = bessel_pair(l, z, np.array([s.log]))
    Jd, Hd = l / z * J[0] - J[1], l / z * H[0] - H[1]     # order-raising recurrence
    return complex(J[0, 0]), complex(H[0, 0]), complex(Jd[0]), complex(Hd[0])


def hankel1(l: int, s: SpectralBatch) -> tuple[complex, complex]:
    """(H^(1)_l, d/ds H^(1)_l) at a point of the log cover, from bessel_pair."""
    return bessel_jh(l, s)[1::2]


def _dist(x, y) -> float:
    rx, tx = x
    ry, ty = y
    d2 = rx * rx + ry * ry - 2.0 * rx * ry * math.cos(tx - ty)
    return math.sqrt(max(d2, 0.0))


def free_kernel(lam: SpectralBatch, x, y) -> complex:
    """(i/4) H^(1)_0(lam |x-y|); points given as (r, theta) pairs."""
    d = _dist(x, y)
    if d == 0.0:
        raise DomainError("free kernel is singular on the diagonal x = y")
    return 0.25j * hankel1(0, SpectralBatch(lam.modulus * d, lam.arg))[0]


@dataclass(frozen=True)
class FreeCoeffKernel:
    """Integral kernel of one lam^{2j} (log lam)^k coefficient of the free resolvent."""

    j: int
    k: int

    def evaluate(self, x, y) -> complex:
        d = _dist(x, y)
        if (self.j, self.k) == (0, 1):
            return -1.0 / (2.0 * math.pi)
        if (self.j, self.k) == (0, 0):
            if d == 0.0:
                raise DomainError("log kernel singular at x = y")
            return -(math.log(d) - GAMMA0) / (2.0 * math.pi)
        if (self.j, self.k) == (1, 1):
            return d * d / (8.0 * math.pi)
        if (self.j, self.k) == (1, 0):
            if d == 0.0:
                return 0.0
            return (math.log(d) - GAMMA0 - 1.0) * d * d / (8.0 * math.pi)
        if (self.j, self.k) == (2, 1):
            rx, tx = x
            ry, ty = y
            dot = rx * ry * math.cos(tx - ty)
            val = (rx * rx + ry * ry) ** 2 - 4.0 * rx * rx * dot + 4.0 * dot * dot - 4.0 * dot * ry * ry
            return -val / (128.0 * math.pi)
        raise ValidationError(f"coefficient kernel (j={self.j}, k={self.k}) not tabulated")


def boundary_pairing_samples(u: RadialFunction, v: RadialFunction, r1: float) -> complex:
    """integral over |x| = r1 of (u dv*/dr - du/dr v*), from sampled data."""
    if not u.same_channel(v):
        return 0.0
    uu, dup = u.value_at(r1), u.deriv_at(r1)
    vv, dvp = np.conj(v.value_at(r1)), np.conj(v.deriv_at(r1))
    return u.angular_weight * r1 * (uu * dvp - dup * vv)


def boundary_pairing_fourier(u: RadialFunction, v: RadialFunction, r1: float,
                             start: float) -> complex:
    """Same pairing from harmonic expansion coefficients (zero-energy data),
    whose exterior expansions hold from r = start outward."""
    if not u.same_channel(v):
        return 0.0
    eu, ev = u.exterior, v.exterior
    if eu is None or ev is None:
        raise ValidationError("fourier pairing needs exterior expansions on both sides")
    if start > r1:
        raise ValidationError(f"exterior expansion not valid at r1 = {r1}")
    total = eu.c0 * np.conj(ev.clog) - eu.clog * np.conj(ev.c0)
    for l in set(eu.v) | set(ev.v):
        total += l * eu.v.get(-l, 0.0) * np.conj(ev.v.get(l, 0.0))
    return 2.0 * math.pi * total


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


def free_truncation_error(lam: SpectralBatch, pairs) -> float:
    """max |free kernel - coefficient expansion through j <= 1| over the point pairs."""
    worst = 0.0
    lg = complex(lam.log)
    l2 = complex(lam.lam2)
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


def breit_wigner_metrics(lams, sigmas) -> dict:
    """Peak height/width of d sigma / d lam on a sweep (real part)."""
    lams = np.asarray(lams, dtype=float)
    sig = np.real(np.asarray(sigmas))
    ds = np.gradient(sig, lams)
    i = int(np.argmax(ds))
    height = float(ds[i])
    half = height / 2.0
    # walk out to the half-maximum crossings
    lo = i
    while lo > 0 and ds[lo] > half:
        lo -= 1
    hi = i
    while hi < len(ds) - 1 and ds[hi] > half:
        hi += 1

    def cross(j0, j1):
        d0, d1 = ds[j0], ds[j1]
        if d1 == d0:
            return lams[j0]
        t = (half - d0) / (d1 - d0)
        return lams[j0] + t * (lams[j1] - lams[j0])

    width = cross(hi - 1, hi) - cross(lo + 1, lo) if hi > lo + 1 else float("nan")
    return {"lam_peak": float(lams[i]), "height": height, "width": float(abs(width))}


def eigen_projection(report: ThresholdReport, f: RadialFunction) -> RadialFunction:
    """Project f onto the zero eigenspace (both trig copies per eigen mode)."""
    out_vals = np.zeros(len(f.grid), dtype=complex)
    hit = None
    f_decaying_tail = f.exterior is not None and f.exterior.decaying
    for l, e in report.eigen_modes:
        for trig in ("cos", "sin"):
            psi = with_trig(e, trig)
            if not f.same_channel(psi):
                continue
            if not f.grid.same(psi.grid):
                raise ValidationError("eigen projection needs f on the report grid")
            coeff = inner(f, psi) + (f.angular_weight * _tail(f, psi) if f_decaying_tail else 0.0)
            out_vals = out_vals + psi.values * coeff
            hit = psi
    if hit is None:
        return RadialFunction(f.mode, f.grid, out_vals, np.zeros_like(out_vals), f.trig)
    return RadialFunction(f.mode, f.grid, out_vals, None, f.trig)


def det_s_modulus(table) -> float:
    """|det S| of a phase-shift table: |S_0| times |S_l|^2 for each l >= 1,
    whose cos and sin channels share S_l."""
    out = 1.0
    for l, s in table.smatrix.items():
        out *= abs(s) ** (1 if l == 0 else 2)
    return out


def from_callable(grid: PanelGrid, fn, dfn=None, mode: int = 0, trig: str = "cos",
                  exterior: Exterior | None = None) -> RadialFunction:
    """fn (and dfn, if given, as the derivatives) sampled on the grid nodes."""
    vals = np.array([fn(r) for r in grid.nodes], dtype=complex)
    ders = None if dfn is None else np.array([dfn(r) for r in grid.nodes], dtype=complex)
    return RadialFunction(mode, grid, vals, ders, trig, exterior)


def constant_one(grid: PanelGrid) -> RadialFunction:
    """1 on the grid, with derivative 0 and the exterior c0 = 1."""
    return RadialFunction(0, grid, np.ones(len(grid)), np.zeros(len(grid)),
                          exterior=Exterior(c0=1.0))


def plane_integral(f: RadialFunction) -> complex:
    """integral of f over R^2 (zero for modes >= 1 by angular oscillation)."""
    if f.mode != 0:
        return 0.0
    return 2.0 * math.pi * f.grid.integrate(f.values * f.grid.nodes)


def laplacian_chi(chi: CutoffProfile, r) -> np.ndarray:
    """chi'' + chi'/r, the radial Laplacian of the cutoff, by commutator_apply's rule."""
    return _laplacian(np.asarray(r, dtype=float), *chi.jet(r)[1:])


def _format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def serialize_config(cfg: ScattererConfig) -> str:
    """cfg as config text, every key written out."""
    lines = []
    s = cfg.scatterer
    if isinstance(s, PiecewisePotential):
        lines.append("kind = potential")
        lines.append("breaks = " + ",".join(repr(b) for b in s.breaks))
        lines.append("values = " + ",".join(_format_complex(v) for v in s.values))
    else:
        lines.append("kind = disk")
        lines.append(f"radius = {s.radius!r}")
        lines.append(f"bc = {s.bc}")
    lines.append(f"cutoff.r0 = {cfg.cutoff.r0!r}")
    lines.append(f"cutoff.width = {cfg.cutoff.width!r}")
    lines.append(f"grid.argDeg = {cfg.grid_arg_deg!r}")
    lines.append(f"grid.min = {cfg.grid_min!r}")
    lines.append(f"grid.max = {cfg.grid_max!r}")
    lines.append(f"grid.count = {cfg.grid_count}")
    lines.append(f"fit.jmax = {cfg.fit_jmax}")
    lines.append(f"fit.kmax = {cfg.fit_kmax}")
    return "\n".join(lines) + "\n"


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
    lhs = -(d2 + d1 / r - sample.mode**2 * u.values / r**2) + (V - sample.lam.lam2) * u.values
    widths = np.repeat(np.diff(g.edges), g.n)
    keep = widths > 1e-3 * (g.rmax - g.rmin)
    num = np.sqrt(abs(g.integrate(np.where(keep, np.abs(lhs - f.values) ** 2, 0.0) * r)))
    den = np.sqrt(abs(g.integrate(np.abs(f.values) ** 2 * r)))
    return float(num / den)


def admissible(s) -> bool:
    """Re V >= 0 everywhere: every disk, and a potential by its values."""
    return isinstance(s, DiskObstacle) or all(complex(v).real >= 0.0 for v in s.values)


def find_pole(s, mode: int, seed: SpectralBatch):
    """One Newton search (`scattering._newton_steps`) from seed."""
    return scattering.settle(scattering.run_searches(
        s, [scattering.PoleSearch(mode, scattering._newton_steps(mode, seed))])[0])


def find_pole_in_disk(s, mode: int, r_search: float = 0.3):
    """One `scattering.disk_search`: its pole, or None."""
    return scattering.settle(scattering.run_searches(
        s, [scattering.disk_search(mode, r_search)])[0])


def imaginary_axis_poles(s, mode: int, kmin: float = 1e-3, kmax: float = 2.0) -> list:
    """One `scattering.axis_search`: its list of poles."""
    return scattering.settle(scattering.run_searches(
        s, [scattering.axis_search(s, mode, kmin, kmax)])[0])


def sequential_find_pole(s, mode: int, seed: SpectralBatch):
    """`find_pole` as one defect call per value: the seed, each
    Newton step's central-difference pair, each line-search trial."""
    defect = scattering.outgoing_defect
    chart = scattering._Chart(reciprocal=seed.modulus < 0.2)
    x = chart.from_lam(seed)
    f = complex(defect(s, mode, chart.to_lam(x))[0])
    f0 = abs(f)
    for it in range(1, scattering.NEWTON_MAX_ITER + 1):
        h = 1e-7 * (1.0 + abs(x))
        fp, fm = (complex(d) for d in defect(s, mode, chart.to_lam(x + h, x - h)))
        dfdx = (fp - fm) / (2.0 * h)
        if dfdx == 0:
            break
        local_scale = abs(dfdx) * (1.0 + abs(x))
        lam = chart.to_lam(x)[0]
        if abs(f) <= scattering.NEWTON_TOL_FACTOR * f0 or abs(f) <= 1e-11 * local_scale:
            kind = "boundState" if abs(lam.arg - math.pi / 2.0) < 1e-8 else "resonance"
            return scattering.ResonancePole(lam, mode, kind, abs(f) / max(local_scale, 1e-300), it)
        step = -f / dfdx
        t = 1.0
        while t > 1e-6:
            xn = x + t * step
            if chart.stencil(xn) is not None:
                fn = complex(defect(s, mode, chart.to_lam(xn))[0])
                if abs(fn) < abs(f):
                    break
            t *= 0.5
        else:
            break
        x, f = xn, fn
    raise BasinError("pole iteration did not converge")


def sequential_axis_poles(s, mode: int, kmin: float = 1e-3, kmax: float = 2.0) -> list:
    """`imaginary_axis_poles`, with `sequential_find_pole` and one
    defect call per bisection step; none on an empty range, kmax <= kmin."""
    if kmax <= kmin:
        return []
    defect = scattering.outgoing_defect
    ks = log_grid(kmin, kmax, scattering.AXIS_COUNT)
    ds = defect(s, mode, SpectralBatch(ks, math.pi / 2.0))
    vals = [(1j ** mode * complex(d)).real if s.selfadjoint else abs(complex(d)) for d in ds]
    out = []
    for i in range(len(ks) - 1):
        if s.selfadjoint and not (vals[i] == 0.0 or vals[i] * vals[i + 1] < 0):
            continue
        if not s.selfadjoint and not (0 < i and vals[i] < min(vals[i - 1], vals[i + 1], 1e-6)):
            continue
        seed = SpectralBatch(math.sqrt(ks[i] * ks[i + 1]), math.pi / 2.0)
        try:
            pole = sequential_find_pole(s, mode, seed) if seed.modulus < 0.5 else None
        except BasinError:
            pole = None
        if pole is None and s.selfadjoint:
            lo, hi, flo = float(ks[i]), float(ks[i + 1]), vals[i]
            steps = 0
            while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                fm = (1j ** mode * complex(defect(s, mode, SpectralBatch(mid, math.pi / 2)))).real
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
                steps += 1
            pole = scattering.ResonancePole(SpectralBatch(mid, math.pi / 2.0),
                                            mode, "boundState", 0.0, steps)
        if pole is not None:
            out.append(pole)
    return out


def scan_pole_candidates(s, mode: int, r_search: float = 0.3) -> list:
    """The seeds of `find_pole_in_disk`, best first: local minima
    of |defect| along the scan rays, from one defect call."""
    n, rays = scattering.SCAN_COUNT, scattering.SCAN_ARGS
    pts = SpectralBatch(np.tile(log_grid(1e-4, r_search * 0.98, n), len(rays)),
                        np.repeat(rays, n))
    v = [abs(complex(d)) for d in scattering.outgoing_defect(s, mode, pts)]
    minima = [k * n + i for k in range(len(rays)) for i in range(1, n - 1)
              if v[k * n + i] < v[k * n + i - 1] and v[k * n + i] < v[k * n + i + 1]]
    return [pts[j] for j in sorted(minima, key=lambda j: v[j])]


def sequential_disk_pole(s, mode: int, r_search: float = 0.3):
    """`find_pole_in_disk`: `sequential_find_pole` from the scan
    candidates, best first."""
    for seed in scan_pole_candidates(s, mode, r_search)[:scattering.MAX_CANDIDATES]:
        try:
            pole = sequential_find_pole(s, mode, seed)
        except BasinError:
            continue
        if pole.lam.modulus < r_search:
            return pole
    return None


def sequential_resonance(s) -> list:
    """`resonance`'s searches before they ran in lockstep: (disk pole or None,
    axis poles up to `scattering.bound_kappa_max(s)`) of modes 0, 1 and 2,
    one search after the other."""
    kmax = scattering.bound_kappa_max(s)
    return [(sequential_disk_pole(s, mode, 0.45), sequential_axis_poles(s, mode, kmax=kmax))
            for mode in (0, 1, 2)]


def shifted(s: PiecewisePotential, eps: float) -> PiecewisePotential:
    """V + eps on the support, the member that a per-point shift eps solves."""
    return PiecewisePotential(s.breaks, s.shifted_values(eps))


def sequential_perturb(s, mode: int, lams) -> list:
    """`perturb`'s members before they ran in lockstep: (pole or None, phase
    tables) of each V + eps, one member after the other, each on
    `shifted(s, eps)`, its pole search before its sweep."""
    out = []
    for eps in cli._DEFAULT_EPSILONS:
        s_eps = shifted(s, eps)
        if eps < 0:
            found = sequential_axis_poles(s_eps, mode)
            pole = found[-1] if found else None
        else:
            pole = sequential_disk_pole(s_eps, mode, 0.3)
        out.append((pole, scattering.phase_shift_sweep(s_eps, lams)))
    return out


# the scatterers on which one solve of every mode must match one solve per mode
MODE_AXIS_SCATTERERS = {
    "readme-well": PiecewisePotential((1.0,), (-2.5,)),
    "two-step-well": PiecewisePotential((0.55, 1.0), (-18.0, -6.3)),
    "repulsive-step": PiecewisePotential((0.5, 1.0), (5.0, 2.0)),
    "complex-potential": PiecewisePotential((1.0,), (complex(-2.0, 0.5),)),
    "dirichlet-disk": DiskObstacle(1.0, "dirichlet"),
    "neumann-disk": DiskObstacle(1.0, "neumann"),
}


def bit_pattern(x):
    """x as comparable bits: arrays and numbers by dtype and bytes (so signed
    zeros and NaNs count), containers and dataclasses field by field, with
    the grids and scatterers they share left out."""
    if is_dataclass(x):
        return (type(x).__name__,) + tuple(
            (f.name, bit_pattern(getattr(x, f.name))) for f in fields(x)
            if f.name not in ("grid", "scatterer"))
    if isinstance(x, dict):
        return tuple((k, bit_pattern(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(map(bit_pattern, x))
    if isinstance(x, (float, complex, np.number, np.ndarray)):
        a = np.asarray(x)
        return a.dtype.str, a.shape, a.tobytes()
    return x


class MpModeMarch:
    """The modes l of the scatterer s at the point lam = modulus e^{i arg} of
    the principal sheet (arg in (-pi, pi]), or at zero energy (modulus 0),
    each solved by matching u and u' at each break in mpmath at dps digits.

    Every segment takes (J_l(eta r), Y_l(eta r)) for eta = sqrt(lam^2 - V),
    principal root, or the harmonic pair (r^l, r^-l), (1, log r) for l = 0,
    where eta = 0; the exterior takes (J_l(lam r), H1_l(lam r)) at nonzero
    energy.  Orders 0 and 1 come from mpmath and the higher ones from the
    upward recurrence (DLMF 10.6.1), which for l <= 3 and |z| >= 0.01 keeps
    more than 25 of J's digits.  phi starts as the first segment's first
    basis function (a potential) or takes (u, u') = (0, 1) (Dirichlet) or
    (1, 0) (Neumann) at the disk; psi is H1_l(lam r) outside, marched
    inward.  phi[l] and psi[l] list mode l's coefficient pairs by segment,
    innermost first, the exterior last.
    """

    def __init__(self, s, modes, modulus: float, arg: float = 0.0, dps: int = 40):
        import mpmath
        self.mp, self.dps, self.top, self._orders = mpmath, dps, max(modes) + 1, {}
        with mpmath.workdps(dps):
            lam = mpmath.mpf(modulus) * mpmath.expjpi(mpmath.mpf(arg) / mpmath.pi)
            if isinstance(s, DiskObstacle):
                self.edges, values = [mpmath.mpf(s.radius)], []
            else:
                self.edges = [mpmath.mpf(0)] + [mpmath.mpf(b) for b in s.breaks]
                values = [mpmath.mpc(complex(v)) for v in s.values]
            # (eta, second basis function) per segment; the exterior's eta is lam itself
            self.segs = [(mpmath.sqrt(lam * lam - v), mpmath.bessely) for v in values]
            self.segs.append((lam, mpmath.hankel1))
            self.phi, self.psi, self.wronskian = {}, {}, {}
            for l in modes:
                if isinstance(s, DiskObstacle):
                    u = (0, 1) if s.bc == "dirichlet" else (1, 0)
                    phi = [self._match(l, 0, self.edges[0], *u)]
                else:
                    phi = [(mpmath.mpf(1), mpmath.mpf(0))]
                    for j, b in enumerate(self.edges[1:]):
                        phi.append(self._match(l, j + 1, b, *self._eval(l, j, b, phi[j])))
                psi = [(mpmath.mpf(0), mpmath.mpf(1))]
                for j in range(len(self.segs) - 2, -1, -1):
                    b = self.edges[j + 1]
                    psi.insert(0, self._match(l, j, b, *self._eval(l, j + 1, b, psi[0])))
                b = self.edges[-1]
                (p, dp), (q, dq) = self._eval(l, -1, b, phi[-1]), self._eval(l, -1, b, psi[-1])
                self.phi[l], self.psi[l], self.wronskian[l] = phi, psi, b * (p * dq - dp * q)

    def _basis(self, l: int, j: int, r):
        """(f1, f2, f1', f2') of mode l on segment j at r."""
        mp = self.mp
        eta, second = self.segs[j]
        if eta == 0:
            if l == 0:
                return mp.mpf(1), mp.log(r), mp.mpf(0), 1 / r
            return r**l, r**-l, l * r ** (l - 1), -l * r ** (-l - 1)
        z = eta * r
        if (j, r) not in self._orders:
            cols = []
            for fn in (mp.besselj, second):
                f = [fn(0, z), fn(1, z)]
                for n in range(1, self.top):
                    f.append(2 * n / z * f[n] - f[n - 1])
                cols.append(f)
            self._orders[j, r] = cols
        f, g = self._orders[j, r]
        return f[l], g[l], eta * (l / z * f[l] - f[l + 1]), eta * (l / z * g[l] - g[l + 1])

    def _eval(self, l: int, j: int, r, c):
        f1, f2, d1, d2 = self._basis(l, j, r)
        return c[0] * f1 + c[1] * f2, c[0] * d1 + c[1] * d2

    def _match(self, l: int, j: int, r, u, du):
        """Mode l's coefficients on segment j of the solution with (u, u') at r."""
        f1, f2, d1, d2 = self._basis(l, j, r)
        det = f1 * d2 - f2 * d1
        return (u * d2 - f2 * du) / det, (f1 * du - u * d1) / det

    def s_matrix_minus_one(self, l: int) -> complex:
        """S_l - 1 = 2 b / a for phi = a J_l + b H1_l outside."""
        with self.mp.workdps(self.dps):
            a, b = self.phi[l][-1]
            return complex(2 * b / a)

    def zero_energy(self, l: int) -> tuple[complex, complex]:
        """(growing, decaying) at zero energy: the coefficients of log r and 1
        for l = 0, of r^l and r^-l above."""
        c1, c2 = (complex(c) for c in self.phi[l][-1])
        return (c2, c1) if l == 0 else (c1, c2)

    def _values(self, l: int, r):
        """(phi(r), psi(r)) of mode l; at a potential's origin phi = J_l(0) =
        (l == 0), its first basis function alone, and psi is not finite."""
        mp = self.mp
        if r == 0:
            return mp.mpf(int(l == 0)), mp.inf
        j = max([0] + [k for k, b in enumerate(self.edges[1:], 1) if r > b])
        f1, f2 = self._basis(l, j, r)[:2]
        return tuple(c[0] * f1 + c[1] * f2 for c in (self.phi[l][j], self.psi[l][j]))

    def _kernel(self, l: int, x, px, sx, y, py, sy):
        """G_l(x, y) = phi(min) psi(max) / W from the two radii's (phi, psi)."""
        return (px * sy if x <= y else py * sx) / self.wronskian[l]

    def green(self, l: int, radii) -> np.ndarray:
        """G_l(x, y) = phi(min) psi(max) / W, W = r (phi psi' - phi' psi), at
        every pair of radii, paired by radius in any order of them: a
        (len(radii), len(radii)) complex array."""
        mp = self.mp
        with mp.workdps(self.dps):
            rs = [mp.mpf(x) for x in radii]
            vals = [self._values(l, r) for r in rs]
            return np.array([[complex(self._kernel(l, x, *a, y, *b)) for y, b in zip(rs, vals)]
                             for x, a in zip(rs, vals)])

    def point_read(self, l: int, x: float, nodes, f, weights) -> complex:
        """(R f)(x) = -sum_j G_l(x, y_j) f_j y_j w_j over quadrature nodes y_j
        with weights w_j and source values f_j, summed at dps digits: the
        kernel of R(lam) = (P - lam^2)^-1 is -G_l."""
        mp = self.mp
        with mp.workdps(self.dps):
            x = mp.mpf(x)
            at_x = self._values(l, x)
            total = mp.mpc(0)
            for y, fy, w in zip(nodes, f, weights):
                y = mp.mpf(y)
                g = self._kernel(l, x, *at_x, y, *self._values(l, y))
                total += g * mp.mpc(fy) * y * mp.mpf(w)
            return complex(-total)


def mp_bound_states(depth: float, radius: float, l: int, dps: int = 40) -> list:
    """The bound states lam = i kappa of mode l of the well V = -depth on
    r < radius, by J/K matching in mpmath at dps digits: the kappa in
    (0, sqrt(depth)), ascending, where u = J_l(k r) inside, k^2 = depth -
    kappa^2, meets K_l(kappa r) outside with equal log-derivatives, that is
    where kappa J_l(kR) K_l+1(kappa R) = k J_l+1(kR) K_l(kappa R).  The roots
    lie about pi / R apart in k: each is bracketed on a grid of k of step
    below pi / (4 R), closed by a point at kappa = 1.4e-6 sqrt(depth) (the
    sign there is that of J_l-1(kR), as at kappa = 0), and polished by a
    bracketing solver.  A state with a smaller kappa is not found."""
    import mpmath as mp
    with mp.workdps(dps):
        V, R = mp.mpf(depth), mp.mpf(radius)

        def match(k):
            kappa = mp.sqrt(V - k * k)
            return (kappa * mp.besselj(l, k * R) * mp.besselk(l + 1, kappa * R)
                    - k * mp.besselj(l + 1, k * R) * mp.besselk(l, kappa * R))

        n = int(mp.ceil(4 * mp.sqrt(V) * R / mp.pi)) + 1
        ks = [mp.sqrt(V) * j / n for j in range(1, n)] + [mp.sqrt(V) * (1 - mp.mpf(10) ** -12)]
        fs = [match(k) for k in ks]
        roots = [mp.findroot(match, (a, b), solver="anderson")
                 for a, b, fa, fb in zip(ks, ks[1:], fs, fs[1:]) if fa * fb < 0]
        return sorted(float(mp.sqrt(V - k * k)) for k in roots)


def sequential_classify_modes(s, lmax: int = 8) -> list:
    """The zero-energy connections of modes 0 .. lmax, one solve per mode."""
    return [solve_zero_mode(s, l) for l in range(lmax + 1)]


def sequential_phase_tables(s, lams: list[float]):
    """`scattering._phase_tables` as one solve per mode for the wavenumbers
    that have not yet met the truncation rule."""
    pts = SpectralBatch(lams, 0.0)
    shifts = [{} for _ in lams]
    smat = [{} for _ in lams]
    small_run = [0] * len(lams)
    active = list(range(len(lams)))
    l = 0
    while active:
        (c1,), (c2,) = regular_solution(s, np.array([l]), pts[active]).coeffs[-1]
        still = []
        for i, a, b in zip(active, c1, c2):
            S = 1.0 + 2.0 * complex(b) / complex(a) if a else complex(math.inf)
            if not cmath.isfinite(S):
                raise NumericalError(f"S-matrix of mode {l} at lam = {lams[i]!r} is not finite")
            shifts[i][l] = 0.5 * cmath.phase(S)
            smat[i][l] = S
            mag = abs(0.5 * cmath.log(S)) if S != 0 else math.inf
            small_run[i] = small_run[i] + 1 if mag < scattering.TRUNC_TOL else 0
            if small_run[i] < 2 and l < scattering.LMAX_HARD:
                still.append(i)
        active = still
        l += 1
    return shifts, smat
