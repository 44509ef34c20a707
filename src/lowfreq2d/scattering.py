"""Phase shifts, the scattering phase, its low-frequency law, and pole tracking.

Outside the support the regular solution of a mode is c1 J_l + c2 H^(1)_l.
Each partial-wave S-matrix eigenvalue is S_l = 1 + 2 c2 / c1; the scattering
phase is the log-determinant with multiplicity two for modes >= 1, with
branches unwrapped downward from the top of a sweep.  Poles of the
meromorphic continuation are zeros of c1, found by damped Newton on the
log-cover chart (or its reciprocal near the origin, where the logarithmic
geometry makes plain charts useless).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BasinError, NumericalError, ShapeMismatchError, ValidationError
from .radialsolve import regular_solution
from .scatterer import PiecewisePotential, Scatterer
from .specfun import SpectralBatch
from .threshold import ThresholdReport
from .util import log_grid

LMAX_HARD = 40
TRUNC_TOL = 1e-14

NEWTON_TOL_FACTOR = 1e-12   # Newton stops below this fraction of the seed defect
NEWTON_MAX_ITER = 60
SCAN_ARGS = (math.pi / 2, 0.3, -0.1, -0.35, -0.8, -1.5, -2.5)   # rays of the disk scan
SCAN_COUNT = 25             # moduli per scan ray
MAX_CANDIDATES = 6          # scan seeds polished by find_pole_in_disk
AXIS_COUNT = 80             # scan points of imaginary_axis_poles
BISECT_DEPTH = 5            # bisection levels per defect call (31 points)


@dataclass
class PhaseShiftTable:
    lam: float
    shifts: dict[int, float]          # continuous-branch delta_l (radians)
    smatrix: dict[int, complex]       # e^{2 i delta_l} per mode
    sigma: complex


@dataclass
class ResonancePole:
    lam: SpectralBatch         # one point, shape ()
    mode: int
    kind: str                  # "boundState" | "resonance"
    residual: float            # Newton's last |W| over |dW/dx| (1 + |x|); 0.0 when bisected
    iterations: int


def _phase_tables(s: Scatterer, lams: list[float]
                  ) -> tuple[list[dict[int, float]], list[dict[int, complex]]]:
    """Principal-branch shifts delta_l and S-matrix eigenvalues S_l, a dict
    each per real wavenumber.  Each mode is read for every lam that has not
    yet met the truncation rule: two consecutive modes with
    |delta_l| < TRUNC_TOL, or mode LMAX_HARD.  The modes are solved in
    blocks that double (0-1, 2-5, 6-13, ...), each block in one solve for
    the wavenumbers active at its start.  The block's modes past a
    wavenumber's stop are never read, so the solve shows no floating-point
    warnings; a non-finite S_l that is read raises NumericalError, the
    lowest mode first."""
    if not all(x > 0 for x in lams):
        raise ValidationError("phase shifts need lam > 0")
    pts = SpectralBatch(lams, 0.0)
    shifts: list[dict[int, float]] = [{} for _ in lams]
    smat: list[dict[int, complex]] = [{} for _ in lams]
    small_run = [0] * len(lams)
    active = list(range(len(lams)))
    l = 0
    while active:
        modes = np.arange(l, min(2 * l + 1, LMAX_HARD) + 1)
        with np.errstate(all="ignore"):
            c1, c2 = regular_solution(s, modes, pts[active]).coeffs[-1]
        col = {i: j for j, i in enumerate(active)}
        for m, c1_m, c2_m in zip(modes.tolist(), c1, c2):
            still = []
            for i in active:
                a, b = c1_m[col[i]], c2_m[col[i]]
                S = 1.0 + 2.0 * complex(b) / complex(a) if a else complex(math.inf)
                if not cmath.isfinite(S):
                    raise NumericalError(f"S-matrix of mode {m} at lam = {lams[i]!r} is not finite")
                shifts[i][m] = 0.5 * cmath.phase(S)
                smat[i][m] = S
                mag = abs(0.5 * cmath.log(S)) if S != 0 else math.inf
                small_run[i] = small_run[i] + 1 if mag < TRUNC_TOL else 0
                if small_run[i] < 2 and m < LMAX_HARD:
                    still.append(i)
            active = still
            if not active:
                break
        l = int(modes[-1]) + 1
    return shifts, smat


def _sigma_from(shifts: dict[int, float], smat: dict[int, complex]) -> complex:
    total = 0.0 + 0.0j
    for l, d in shifts.items():
        mult = 1 if l == 0 else 2
        total += mult * (2j * d + math.log(abs(smat[l])))
    return total / (2j * math.pi)


def phase_shift_sweep(s: Scatterer, lams) -> list[PhaseShiftTable]:
    """Tables on a lam grid with delta branches continuous downward from the top.

    The top-of-sweep branch is the principal one (continuous from 0), and each
    delta_l is unwrapped by half-pi-free steps as lam decreases.
    """
    lams = sorted(float(x) for x in lams)
    shifts, smat = _phase_tables(s, lams)
    for l in sorted({l for d in shifts for l in d}):
        prev = None
        for d in reversed(shifts):            # downward in lam
            if l not in d:
                continue
            if prev is not None:
                d[l] += round((prev - d[l]) / math.pi) * math.pi
            prev = d[l]
    return [PhaseShiftTable(x, d, sm, _sigma_from(d, sm)) for x, d, sm in zip(lams, shifts, smat)]


def sigma_asymptotic(report: ThresholdReport, lam: float) -> complex:
    """Low-frequency scattering-phase law from the pole shift a.

    sigma ~ (1/2 pi i) log(1 + i pi / (log lam - a)); defined when there is no
    bounded zero-energy state (then a = gamma0 + c0(Ulog), and for obstacles
    log lam - a = log lam - log 2 + euler + C - i pi/2 with C the
    log-capacity constant).  Error of the law is O(lam^2 log lam).  It reads
    only the mode-0 s-resonance, the one threshold state that leaves a
    undefined.
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

def outgoing_defect(s: Scatterer, l: int, lam: SpectralBatch, *, checked: bool = True):
    """J-component of the regular solution outside the support.

    Proportional to the Wronskian of the regular and outgoing solutions
    (the exterior basis Wronskian r(J H' - J' H) = 2i/pi is constant), so its
    zeros on the log cover are exactly the resolvent poles of the mode.  A
    potential's regular solution starts as J_l(eta0 r), eta0^2 = lam^2 - V0,
    which vanishes to order l at lam^2 = V0; rescaled by l! (2/eta0)^l it starts
    as r^l and has no zero there.  The defects take the batch's shape, so a
    batch of one point gives a complex number; a defect of non-finite
    modulus raises NumericalError, unless `checked` is false: then the
    caller checks, with `_finite`, only the values it reads.
    """
    sol = regular_solution(s, l, lam)
    c1 = sol.coeffs[-1][0]
    if l and isinstance(s, PiecewisePotential):
        norm = math.factorial(l)
        c1 = np.array([c * norm * (2.0 / e) ** l if e else c
                       for c, e in zip(c1, sol.segments[0].eta)])
    if checked:
        _finite(c1, l)
    return c1.reshape(lam.shape)[()]


def _finite(d, l: int):
    """d itself; NumericalError when any of its moduli is not finite."""
    if not np.all(np.isfinite(np.abs(d))):
        raise NumericalError(f"outgoing defect of mode {l} is not finite")
    return d


@dataclass
class _Chart:
    """Newton chart: zeta = log lam directly, or mu = 1/log lam near zero."""

    reciprocal: bool

    def to_lam(self, *xs: complex) -> SpectralBatch:
        """The spectral points of chart coordinates xs, one batch."""
        zetas = [1.0 / x if self.reciprocal else x for x in xs]
        return SpectralBatch([math.exp(z.real) for z in zetas], [z.imag for z in zetas])

    def from_lam(self, lam: SpectralBatch) -> complex:
        zeta = complex(lam.log)
        return 1.0 / zeta if self.reciprocal else zeta

    def inside(self, x: complex) -> bool:
        """Whether x maps into |lam| < 1, the region find_pole searches."""
        return (1.0 / x if self.reciprocal else x).real < 0.0


def find_pole(s: Scatterer, mode: int, seed: SpectralBatch) -> ResonancePole:
    """Damped Newton on the outgoing defect from a seed point with |seed| < 0.5.

    Converges when the defect drops below NEWTON_TOL_FACTOR of its seed value
    or below 1e-11 of the local scale |dW/dx| (1 + |x|); near-pole seeds make
    the first criterion unreachable in double precision, the second not.
    A trial step out of |lam| < 1 fails like one that does not reduce
    |defect|: a potential's defect of mode l >= 1 decays like |lam|^-l at
    large |lam|, and damped Newton would otherwise follow it there.  Each
    point x it visits (the seed, each line-search trial) is one defect call
    [x, x + h, x - h], h = 1e-7 (1 + |x|), so an accepted trial carries the
    central difference of the next step; the pair is checked for finiteness
    only when that step reads it.
    """
    if seed.modulus >= 0.5:
        raise ValidationError("seed outside the small-|lam| basin (need |seed| < 0.5)")
    chart = _Chart(reciprocal=seed.modulus < 0.2)

    def visit(x: complex):
        h = 1e-7 * (1.0 + abs(x))
        lams = chart.to_lam(x, x + h, x - h)
        d = outgoing_defect(s, mode, lams, checked=False)
        return complex(_finite(d[0], mode)), d[1:], h, lams[0]

    x = chart.from_lam(seed)
    f, pair, h, lam = visit(x)
    f0 = abs(f)
    trace = [(seed, f0)]
    local_scale = f0
    for it in range(1, NEWTON_MAX_ITER + 1):
        fp, fm = (complex(d) for d in _finite(pair, mode))
        dfdx = (fp - fm) / (2.0 * h)
        if dfdx == 0:
            break
        local_scale = abs(dfdx) * (1.0 + abs(x))
        if abs(f) <= NEWTON_TOL_FACTOR * f0 or abs(f) <= 1e-11 * local_scale:
            kind = "boundState" if abs(lam.arg - math.pi / 2.0) < 1e-8 else "resonance"
            return ResonancePole(lam, mode, kind,
                                 abs(f) / max(local_scale, 1e-300), it)
        step = -f / dfdx
        t = 1.0
        while t > 1e-6:
            xn = x + t * step
            if chart.inside(xn):
                fn, pair_n, h_n, lam_n = visit(xn)
                if abs(fn) < abs(f):
                    break
            t *= 0.5
        else:
            break
        x, f, pair, h, lam = xn, fn, pair_n, h_n, lam_n
        trace.append((lam, abs(f)))
    raise BasinError(
        f"pole iteration did not converge from |seed|={seed.modulus:.3e} "
        f"(final |W|/|W0| = {abs(f)/max(f0,1e-300):.3e}, "
        f"|W|/local = {abs(f)/max(local_scale,1e-300):.3e})", trace,
    )


def scan_pole_candidates(s: Scatterer, mode: int, r_search: float = 0.3) -> list[SpectralBatch]:
    """Local minima of |defect| along the SCAN_ARGS rays of the search disk
    (SCAN_COUNT moduli each, one batch); returns seeds, best first."""
    n = SCAN_COUNT
    pts = SpectralBatch(np.tile(log_grid(1e-4, r_search * 0.98, n), len(SCAN_ARGS)),
                        np.repeat(SCAN_ARGS, n))
    d = outgoing_defect(s, mode, pts)
    v = np.hypot(d.real, d.imag).reshape(len(SCAN_ARGS), n)    # abs() of each complex
    ray, i = np.nonzero((v[:, 1:-1] < v[:, :-2]) & (v[:, 1:-1] < v[:, 2:]))
    order = np.argsort(v[ray, i + 1], kind="stable")
    return [pts[k] for k in (ray * n + i + 1)[order]]


def find_pole_in_disk(s: Scatterer, mode: int, r_search: float = 0.3) -> ResonancePole | None:
    """Polish scan candidates; None when no pole converges inside the disk."""
    for seed in scan_pole_candidates(s, mode, r_search)[:MAX_CANDIDATES]:
        try:
            pole = find_pole(s, mode, seed)
        except BasinError:
            continue
        if pole.lam.modulus < r_search:
            return pole
    return None


def imaginary_axis_poles(s: Scatterer, mode: int, kmin: float = 1e-3,
                         kmax: float = 2.0) -> list[ResonancePole]:
    """Bound-state search: sign changes of the (real-axis-symmetric) defect on
    i kappa at AXIS_COUNT points (one batch), polished by Newton below
    kappa = 0.5 and otherwise, for selfadjoint scatterers, bisected to machine
    resolution (see `_bisect_axis`).  A non-selfadjoint scatterer's hits are
    local minima of |defect| below 1e-6, which carry no sign to bisect; those
    Newton does not polish are not reported."""
    ks = log_grid(kmin, kmax, AXIS_COUNT)
    defects = outgoing_defect(s, mode, SpectralBatch(ks, math.pi / 2.0))
    # for selfadjoint scatterers i^mode * defect is real on the axis
    vals = [(1j ** mode * complex(d)).real if s.selfadjoint else abs(complex(d))
            for d in defects]
    out = []
    for i in range(len(ks) - 1):
        hit = (vals[i] == 0.0) or (vals[i] * vals[i + 1] < 0) if s.selfadjoint else \
            (0 < i and vals[i] < vals[i - 1] and vals[i] < vals[i + 1] and vals[i] < 1e-6)
        if hit:
            seed = SpectralBatch(math.sqrt(ks[i] * ks[i + 1]), math.pi / 2.0)
            try:
                pole = find_pole(s, mode, seed) if seed.modulus < 0.5 else None
            except BasinError:
                pole = None
            if pole is None and s.selfadjoint:
                pole = _bisect_axis(s, mode, float(ks[i]), float(ks[i + 1]), vals[i])
            if pole is not None:
                out.append(pole)
    return out


def _bisect_axis(s: Scatterer, mode: int, lo: float, hi: float, flo: float) -> ResonancePole:
    """Bisection of the real i^mode * defect on [i lo, i hi] until the midpoint
    rounds to an end.  One defect call evaluates the next BISECT_DEPTH levels
    of the midpoint tree, each node 0.5 (a + b) of its own bracket, so the walk
    forms the floats of a one-point-per-step loop; only the nodes it reads are
    checked for finiteness."""
    steps = 0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        tree, brackets = [], [(lo, hi)]
        for _ in range(BISECT_DEPTH):
            mids = [0.5 * (a + b) for a, b in brackets]
            tree += mids
            brackets = [e for (a, b), m in zip(brackets, mids) for e in ((a, m), (m, b))]
        d = outgoing_defect(s, mode, SpectralBatch(tree, math.pi / 2), checked=False)
        k = 0           # heap order: node k has children 2k + 1 and 2k + 2
        while k < len(tree) and (mid := 0.5 * (lo + hi)) not in (lo, hi):
            fm = (1j ** mode * complex(_finite(d[k], mode))).real
            if flo * fm <= 0:
                hi, k = mid, 2 * k + 1
            else:
                lo, flo, k = mid, fm, 2 * k + 2
            steps += 1
    return ResonancePole(SpectralBatch(mid, math.pi / 2.0), mode, "boundState", 0.0, steps)
