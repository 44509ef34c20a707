"""Phase shifts, the scattering phase, its low-frequency law, and pole tracking.

Mode matching against the exterior Bessel pair gives each partial-wave
S-matrix eigenvalue; the scattering phase is the log-determinant with
multiplicity two for modes >= 1, with branches unwrapped downward from the
top of a sweep.  Poles of the meromorphic continuation are zeros of the
regular solution's outgoing-decomposition coefficient, found by damped
Newton on the log-cover chart (or its reciprocal near the origin, where the
logarithmic geometry makes plain charts useless).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BasinError, ContinuationError, ShapeMismatchError, ValidationError
from .radialsolve import regular_solution
from .scatterer import PiecewisePotential, Scatterer
from .specfun import SpectralPoint, jy_with_derivs
from .threshold import ThresholdReport
from .util import log_grid

LMAX_HARD = 40
TRUNC_TOL = 1e-14


@dataclass
class PhaseShiftTable:
    lam: float
    shifts: dict[int, float]          # continuous-branch delta_l (radians)
    smatrix: dict[int, complex]       # e^{2 i delta_l} per mode
    sigma: complex

    @property
    def det_s_modulus(self) -> float:
        out = 1.0
        for l, s in self.smatrix.items():
            out *= abs(s) ** (1 if l == 0 else 2)
        return out


@dataclass
class ResonancePole:
    lam: SpectralPoint
    mode: int
    epsilon: float
    kind: str                  # "boundState" | "resonance"
    residual: float            # |W| at the pole relative to the iteration start
    iterations: int


def _matching_coeffs(s: Scatterer, lam_real: float, l: int):
    """(A, B) with the regular solution ~ A J_l(lam r) + B Y_l(lam r) outside."""
    lam = SpectralPoint(lam_real, 0.0)
    R = s.support_radius
    sol = regular_solution(s, l, lam, R + 1.0)
    (u,), (du,) = sol.at(R)
    z = np.array([lam_real * R])
    logz = np.array([lam.log + math.log(R)])
    J, Y, Jd, Yd = (x[0] for x in jy_with_derivs(l, z, logz))
    D = lam_real * (J * Yd - Jd * Y)       # = 2/(pi R)
    A = (u * lam_real * Yd - du * Y) / D
    B = (du * J - u * lam_real * Jd) / D
    return complex(A), complex(B)


def phase_shifts(s: Scatterer, lam: float, lmax: int | None = None) -> PhaseShiftTable:
    """Partial-wave shifts at one real wavenumber, principal branches."""
    if lam <= 0:
        raise ValidationError("phase shifts need lam > 0")
    shifts: dict[int, float] = {}
    smat: dict[int, complex] = {}
    small_run = 0
    l = 0
    while True:
        A, B = _matching_coeffs(s, lam, l)
        S = (A - 1j * B) / (A + 1j * B)
        delta = 0.5 * cmath.phase(S)
        shifts[l] = delta
        smat[l] = S
        mag = abs(0.5 * cmath.log(S)) if S != 0 else math.inf
        small_run = small_run + 1 if mag < TRUNC_TOL else 0
        l += 1
        if lmax is not None and l > lmax:
            break
        if lmax is None and (small_run >= 2 or l > LMAX_HARD):
            break
    sigma = _sigma_from(shifts, smat)
    return PhaseShiftTable(lam, shifts, smat, sigma)


def _sigma_from(shifts: dict[int, float], smat: dict[int, complex]) -> complex:
    total = 0.0 + 0.0j
    for l, d in shifts.items():
        mult = 1 if l == 0 else 2
        total += mult * (2j * d + math.log(abs(smat[l])))
    return total / (2j * math.pi)


def phase_shift_sweep(s: Scatterer, lams, lmax: int | None = None) -> list[PhaseShiftTable]:
    """Tables on a lam grid with delta branches continuous downward from the top.

    The top-of-sweep branch is the principal one (continuous from 0), and each
    delta_l is unwrapped by half-pi-free steps as lam decreases.
    """
    lams = sorted(float(x) for x in lams)
    tables = [phase_shifts(s, x, lmax) for x in lams]
    all_l = sorted({l for t in tables for l in t.shifts})
    for l in all_l:
        prev = None
        for t in reversed(tables):            # downward in lam
            if l not in t.shifts:
                continue
            d = t.shifts[l]
            if prev is not None:
                k = round((prev - d) / math.pi)
                d += k * math.pi
                t.shifts[l] = d
            prev = d
        # sigma reassembled from unwrapped shifts
    for t in tables:
        t.sigma = _sigma_from(t.shifts, t.smatrix)
    return tables


def sigma_asymptotic(report: ThresholdReport, lam: float) -> complex:
    """Low-frequency scattering-phase law from the pole shift a.

    sigma ~ (1/2 pi i) log(1 + i pi / (log lam - a)); defined when there is no
    bounded zero-energy state (then a = gamma0 + c0(Ulog), and for obstacles
    log lam - a = log lam - log 2 + euler + C - i pi/2 with C the
    log-capacity constant).  Error of the law is O(lam^2 log lam).
    """
    if report.has_s_resonance:
        raise ShapeMismatchError("scattering-phase law assumes no bounded zero-energy state")
    if report.a is None:
        raise ShapeMismatchError("no pole shift available (mode-0 log coefficient vanished?)")
    D = math.log(lam) - report.a
    return cmath.log(1.0 + 1j * math.pi / D) / (2j * math.pi)


# ----------------------------------------------------------------------------
# pole finding on the log cover
# ----------------------------------------------------------------------------

def outgoing_defect(s: Scatterer, l: int, lam: SpectralPoint) -> complex:
    """J-component of the regular solution outside the support.

    Proportional to the Wronskian of the regular and outgoing solutions
    (the exterior basis Wronskian r(J H' - J' H) = 2i/pi is constant), so its
    zeros on the log cover are exactly the resolvent poles of the mode.
    """
    sol = regular_solution(s, l, lam, s.support_radius + 1.0)
    return complex(sol.coeffs[-1][0][0])


@dataclass
class _Chart:
    """Newton chart: zeta = log lam directly, or mu = 1/log lam near zero."""

    reciprocal: bool

    def to_lam(self, x: complex) -> SpectralPoint:
        zeta = 1.0 / x if self.reciprocal else x
        return SpectralPoint(math.exp(zeta.real), zeta.imag)

    def from_lam(self, lam: SpectralPoint) -> complex:
        zeta = lam.log
        return 1.0 / zeta if self.reciprocal else zeta


def find_pole(s: Scatterer, mode: int, seed: SpectralPoint, *,
              tol_factor: float = 1e-12, max_iter: int = 60) -> ResonancePole:
    """Damped Newton on the outgoing defect from a seed with |seed| < 0.5.

    Converges when the defect drops below tol_factor of its seed value or
    below 1e-11 of the local scale |dW/dx| (1 + |x|); near-pole seeds make the
    first criterion unreachable in double precision, the second not.
    """
    if seed.modulus >= 0.5:
        raise ValidationError("seed outside the small-|lam| basin (need |seed| < 0.5)")
    chart = _Chart(reciprocal=seed.modulus < 0.2)
    x = chart.from_lam(seed)
    f = outgoing_defect(s, mode, chart.to_lam(x))
    f0 = abs(f)
    trace = [(seed, f0)]
    local_scale = f0
    for it in range(1, max_iter + 1):
        h = 1e-7 * (1.0 + abs(x))
        fp = outgoing_defect(s, mode, chart.to_lam(x + h))
        fm = outgoing_defect(s, mode, chart.to_lam(x - h))
        dfdx = (fp - fm) / (2.0 * h)
        if dfdx == 0:
            break
        local_scale = abs(dfdx) * (1.0 + abs(x))
        lam = chart.to_lam(x)
        if abs(f) <= tol_factor * f0 or abs(f) <= 1e-11 * local_scale:
            kind = "boundState" if abs(lam.arg - math.pi / 2.0) < 1e-8 else "resonance"
            return ResonancePole(lam, mode, 0.0, kind,
                                 abs(f) / max(local_scale, 1e-300), it)
        step = -f / dfdx
        t = 1.0
        while t > 1e-6:
            xn = x + t * step
            fn = outgoing_defect(s, mode, chart.to_lam(xn))
            if abs(fn) < abs(f):
                break
            t *= 0.5
        else:
            break
        x, f = xn, fn
        trace.append((chart.to_lam(x), abs(f)))
    raise BasinError(
        f"pole iteration did not converge from |seed|={seed.modulus:.3e} "
        f"(final |W|/|W0| = {abs(f)/max(f0,1e-300):.3e}, "
        f"|W|/local = {abs(f)/max(local_scale,1e-300):.3e})", trace,
    )


def scan_pole_candidates(s: Scatterer, mode: int, r_search: float = 0.3,
                         n_r: int = 25, args=None) -> list[SpectralPoint]:
    """Coarse |defect| scan over the search disk; returns seeds, best first."""
    if args is None:
        args = [math.pi / 2, 0.3, -0.1, -0.35, -0.8, -1.5, -2.5]
    mods = log_grid(1e-4, r_search * 0.98, n_r)
    cands = []
    for th in args:
        vals = [abs(outgoing_defect(s, mode, SpectralPoint(float(m), th))) for m in mods]
        for i in range(1, len(mods) - 1):
            if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]:
                cands.append((vals[i], SpectralPoint(float(mods[i]), th)))
    cands.sort(key=lambda t: t[0])
    return [p for _, p in cands]


def find_pole_in_disk(s: Scatterer, mode: int, r_search: float = 0.3,
                      max_candidates: int = 6) -> ResonancePole | None:
    """Polish scan candidates; None when no pole converges inside the disk."""
    for seed in scan_pole_candidates(s, mode, r_search)[:max_candidates]:
        try:
            pole = find_pole(s, mode, seed)
        except BasinError:
            continue
        if pole.lam.modulus < r_search:
            return pole
    return None


def imaginary_axis_poles(s: Scatterer, mode: int, kmin: float = 1e-3,
                         kmax: float = 2.0, n: int = 80) -> list[ResonancePole]:
    """Bound-state search: sign changes of the (real-axis-symmetric) defect on i kappa."""
    ks = log_grid(kmin, kmax, n)
    vals = []
    for k in ks:
        d = outgoing_defect(s, mode, SpectralPoint(float(k), math.pi / 2.0))
        # for selfadjoint scatterers i^mode * defect is real on the axis
        vals.append((1j ** mode * d).real if s.selfadjoint else abs(d))
    out = []
    for i in range(len(ks) - 1):
        hit = (vals[i] == 0.0) or (vals[i] * vals[i + 1] < 0) if s.selfadjoint else \
            (0 < i and vals[i] < vals[i - 1] and vals[i] < vals[i + 1] and vals[i] < 1e-6)
        if hit:
            seed = SpectralPoint(float(math.sqrt(ks[i] * ks[i + 1])), math.pi / 2.0)
            try:
                pole = find_pole(s, mode, seed) if seed.modulus < 0.5 else None
            except BasinError:
                pole = None
            if pole is None:
                # bisect directly on the axis for kappa >= 0.5
                lo, hi = float(ks[i]), float(ks[i + 1])
                flo = vals[i]
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    fm = (1j ** mode * outgoing_defect(s, mode, SpectralPoint(mid, math.pi / 2))).real
                    if flo * fm <= 0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                pole = ResonancePole(SpectralPoint(0.5 * (lo + hi), math.pi / 2.0),
                                     mode, 0.0, "boundState", 0.0, 200)
            out.append(pole)
    return out


def perturbation_sweep(s0: PiecewisePotential, mode: int, epsilons,
                       v1=None, seed_fn=None) -> list[ResonancePole]:
    """Track the threshold pole of V0 + eps*V1 across the eps list.

    seed_fn(eps) supplies the first seed for each sign regime; afterwards the
    previous pole seeds the next step, with a 10x jump guard.
    """
    out: list[ResonancePole] = []
    prev: ResonancePole | None = None
    prev_step = None
    for eps in epsilons:
        s_eps = s0.shifted(eps, v1)
        if prev is not None:
            seed = prev.lam
        elif seed_fn is not None:
            seed = seed_fn(eps)
        else:
            seed = SpectralPoint(math.sqrt(abs(eps)), math.pi / 2.0 if eps < 0 else -0.2)
        pole = find_pole(s_eps, mode, seed)
        pole.epsilon = float(eps)
        if prev is not None:
            step = abs(pole.lam.value - prev.lam.value)
            if prev_step is not None and step > 10.0 * max(prev_step, 1e-14):
                raise ContinuationError(
                    f"pole trajectory jump {step:.3e} > 10x previous step {prev_step:.3e} at eps={eps}"
                )
            prev_step = step
        prev = pole
        out.append(pole)
    return out


# ----------------------------------------------------------------------------
# Breit-Wigner peak phenomenology
# ----------------------------------------------------------------------------

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
