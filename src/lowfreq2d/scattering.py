"""Phase shifts, the scattering phase, its low-frequency law, and pole tracking.

Outside the support the regular solution of a mode is c1 J_l + c2 H^(1)_l.
Each partial-wave S-matrix eigenvalue is S_l = 1 + 2 c2 / c1; the scattering
phase is the log-determinant with multiplicity two for modes >= 1, with
branches unwrapped downward from the top of a sweep.  Poles of the
meromorphic continuation are zeros of c1, found by damped Newton on the
log-cover chart (or its reciprocal near the origin, where the logarithmic
geometry makes plain charts useless).

Each pole search (`disk_search`: a disk scan and its Newton runs;
`axis_search`: an imaginary-axis scan and its Newton runs and bisections)
is a generator of the spectral points it needs next, and `run_searches`
runs one or several in lockstep, one outgoing_defect call per step over the
union of their points, each point with its search's mode and shift eps of
V + eps.  A point keeps the bits of a call of its own, so every search
takes the steps it takes alone.
`phase_shift_family` sweeps several members V + eps in one solve per block
of modes in the same way.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from .errors import (BasinError, DomainError, NumericalError, ShapeMismatchError,
                     ValidationError)
from .radialsolve import regular_solution
from .scatterer import DiskObstacle, PiecewisePotential, Scatterer
from .specfun import SpectralBatch
from .threshold import ThresholdReport
from .util import log_grid

LMAX_HARD = 40
TRUNC_TOL = 1e-14

NEWTON_TOL_FACTOR = 1e-12   # Newton stops below this fraction of the seed defect
NEWTON_MAX_ITER = 60
SCAN_ARGS = (math.pi / 2, 0.3, -0.1, -0.35, -0.8, -1.5, -2.5)   # rays of the disk scan
SCAN_COUNT = 25             # moduli per scan ray
MAX_CANDIDATES = 6          # scan seeds polished by disk_search
AXIS_COUNT = 80             # scan points of axis_search
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


def _member_tables(s: Scatterer, lams: list[float], epsilons: list) -> list:
    """Principal-branch shifts delta_l and S-matrix eigenvalues S_l, a dict
    each per real wavenumber, for each member V + eps of a family (eps in
    epsilons; None is V itself), or the error that member's own sweep
    raises.  Each mode is read for every (member, lam) that has not yet met
    the truncation rule: two consecutive modes with |delta_l| < TRUNC_TOL,
    or mode LMAX_HARD.  The modes are solved in blocks that double (0-1,
    2-5, 6-13, ...), each block in one solve for the (member, lam) points
    active at its start, every member's with its own shift.  The block's
    modes past a point's stop are never read, so the solve shows no
    floating-point warnings; a non-finite S_l that is read is its member's
    NumericalError, the lowest mode first, and takes the member's points out
    of the solves."""
    if not all(x > 0 for x in lams):
        return [ValidationError("phase shifts need lam > 0")] * len(epsilons)
    n = len(lams)
    pts = SpectralBatch(np.tile(lams, len(epsilons)), 0.0)
    eps = None if epsilons[0] is None else np.repeat(epsilons, n)
    errors: list[NumericalError | None] = [None] * len(epsilons)
    shifts: list[dict[int, float]] = [{} for _ in range(len(pts))]
    smat: list[dict[int, complex]] = [{} for _ in range(len(pts))]
    small_run = [0] * len(pts)
    active = list(range(len(pts)))
    l = 0
    while active:
        modes = np.arange(l, min(2 * l + 1, LMAX_HARD) + 1)
        with np.errstate(all="ignore"):
            c1, c2 = regular_solution(s, modes, pts[active],
                                      None if eps is None else eps[active]).coeffs[-1]
        col = {i: j for j, i in enumerate(active)}
        for m, c1_m, c2_m in zip(modes.tolist(), c1, c2):
            still = []
            for i in active:
                if errors[i // n] is not None:
                    continue
                a, b = c1_m[col[i]], c2_m[col[i]]
                S = 1.0 + 2.0 * complex(b) / complex(a) if a else complex(math.inf)
                if not cmath.isfinite(S):
                    errors[i // n] = NumericalError(
                        f"S-matrix of mode {m} at lam = {lams[i % n]!r} is not finite")
                    continue
                shifts[i][m] = 0.5 * cmath.phase(S)
                smat[i][m] = S
                mag = abs(0.5 * cmath.log(S)) if S != 0 else math.inf
                small_run[i] = small_run[i] + 1 if mag < TRUNC_TOL else 0
                if small_run[i] < 2 and m < LMAX_HARD:
                    still.append(i)
            active = [i for i in still if errors[i // n] is None]
            if not active:
                break
        l = int(modes[-1]) + 1
    return [(shifts[k * n:(k + 1) * n], smat[k * n:(k + 1) * n]) if e is None else e
            for k, e in enumerate(errors)]


def _phase_tables(s: Scatterer, lams: list[float]
                  ) -> tuple[list[dict[int, float]], list[dict[int, complex]]]:
    """The shifts and S-matrix eigenvalues of `_member_tables` for s alone;
    a non-finite S_l that is read raises NumericalError, the lowest mode
    first."""
    return settle(_member_tables(s, lams, [None])[0])


def _sigma_from(shifts: dict[int, float], smat: dict[int, complex]) -> complex:
    total = 0.0 + 0.0j
    for l, d in shifts.items():
        mult = 1 if l == 0 else 2
        total += mult * (2j * d + math.log(abs(smat[l])))
    return total / (2j * math.pi)


def _sweep(lams: list[float], shifts: list[dict[int, float]],
           smat: list[dict[int, complex]]) -> list[PhaseShiftTable]:
    """Tables from principal-branch shifts on a sorted lam grid, each delta_l
    unwrapped downward from the top of the sweep."""
    for l in sorted({l for d in shifts for l in d}):
        prev = None
        for d in reversed(shifts):            # downward in lam
            if l not in d:
                continue
            if prev is not None:
                d[l] += round((prev - d[l]) / math.pi) * math.pi
            prev = d[l]
    return [PhaseShiftTable(x, d, sm, _sigma_from(d, sm)) for x, d, sm in zip(lams, shifts, smat)]


def phase_shift_sweep(s: Scatterer, lams) -> list[PhaseShiftTable]:
    """Tables on a lam grid with delta branches continuous downward from the top.

    The top-of-sweep branch is the principal one (continuous from 0), and each
    delta_l is unwrapped by half-pi-free steps as lam decreases.
    """
    lams = sorted(float(x) for x in lams)
    return _sweep(lams, *_phase_tables(s, lams))


def phase_shift_family(s: PiecewisePotential, lams, epsilons) -> list:
    """phase_shift_sweep of each member V + eps of a family, eps in epsilons,
    with every member's wavenumbers in one solve per block of modes: each
    member's tables, with the bits of its own sweep, or the error its own
    sweep raises (see `settle`)."""
    lams = sorted(float(x) for x in lams)
    return [t if isinstance(t, Exception) else _sweep(lams, *t)
            for t in _member_tables(s, lams, list(epsilons))]


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

def outgoing_defect(s: Scatterer, l, lam: SpectralBatch, *, checked: bool = True, shift=None):
    """J-component of the regular solution outside the support.

    Proportional to the Wronskian of the regular and outgoing solutions
    (the exterior basis Wronskian r(J H' - J' H) = 2i/pi is constant), so its
    zeros on the log cover are exactly the resolvent poles of the mode.  A
    potential's regular solution starts as J_l(eta0 r), eta0^2 = lam^2 - V0,
    which vanishes to order l at lam^2 = V0; rescaled by l! (2/eta0)^l it starts
    as r^l and has no zero there.  The rescale is one out-of-place array
    expression over the points: an in-place product rounded some points
    apart from a call of their own.  l, the mode, and shift, make_segments' eps
    of V + eps, broadcast to the batch's shape (or raise ValidationError), so
    each point may take its own.  One solve serves every mode, on the
    distinct points (equal in modulus, arg and shift to the bit) when several
    modes share them, and each point reads and rescales its own, with the
    bits of a call of its own at every batch size.  The defects take the
    batch's shape, so a batch of one point gives a complex number; a defect
    of non-finite modulus raises NumericalError, unless `checked` is false:
    then the caller checks, with `_finite`, only the values it reads.
    """
    try:
        l, shift = (x if x is None else np.broadcast_to(x, lam.shape).ravel() for x in (l, shift))
    except ValueError:
        raise ValidationError(f"mode and shift must broadcast to shape {lam.shape}") from None
    modes = np.array(sorted(set(l.tolist())))    # np.unique costs more here, and imports numpy.ma
    pts, eps, at = lam, shift, np.arange(len(l))
    if len(modes) > 1:
        key = np.column_stack([np.ravel(p) for p in (lam.modulus, lam.arg, shift) if p is not None])
        _, first, at = np.unique(key.view(np.dtype((np.void, key.strides[0]))).ravel(),
                                 return_index=True, return_inverse=True)
        pts = lam[np.unravel_index(first, lam.shape)]
        eps = None if shift is None else key[first, 2]
    sol = regular_solution(s, modes, pts, eps)
    c1, eta = sol.coeffs[-1][0][np.searchsorted(modes, l), at], sol.segments[0].eta[at]
    if isinstance(s, PiecewisePotential):
        k = np.flatnonzero(l * (eta != 0))      # l >= 1 and eta0 != 0
        fact = np.cumprod(np.arange(1.0, modes[-1] + 1))     # m! at m - 1, exact to 22!
        c1[k] = c1[k] * fact[l[k] - 1] * (2.0 / eta[k]) ** l[k]
    if checked:
        _finite(c1, l)
    return c1.reshape(lam.shape)[()]


def _finite(d, l):
    """d itself; NumericalError when any of its moduli is not finite, naming
    the mode l (each point's, for an array) of the first."""
    bad = ~np.isfinite(np.abs(d))
    if bad.any():
        mode = int(np.broadcast_to(l, bad.shape)[bad][0])
        raise NumericalError(f"outgoing defect of mode {mode} is not finite")
    return d


@dataclass
class PoleSearch:
    """One pole search of one mode on V + shift (shift None: V itself).
    `steps` is a generator: it yields the SpectralBatch of the defects it
    needs next, receives them unchecked in the batch's shape, and returns the
    search's result; it checks, with `_finite`, the values it reads."""

    mode: int
    steps: Generator
    shift: float | None = None


def run_searches(s: Scatterer, searches: list[PoleSearch]) -> list:
    """Each search's result, or the exception it raised, with every search
    advanced in lockstep to its own end: a round makes one outgoing_defect
    call over the union of the live searches' requests, each point with its
    search's mode and shift (all searches shift, or none), and sends each
    search its own part.  A point's defect has the bits of a call of its
    own, whatever the batch's size and modes, so each search visits the
    points, and reaches the result, of a run on its own.  A failing search
    does not stop the others; callers `settle` the outcomes in order, and so
    raise the first error of a run of one search after the other.  The
    defects are formed without floating-point warnings."""
    out: list = [None] * len(searches)
    pending: dict[int, SpectralBatch] = {}

    def advance(i: int, defects) -> None:
        try:
            pending[i] = searches[i].steps.send(defects)
        except StopIteration as stop:
            out[i] = stop.value
        except Exception as e:      # raised again, in order, by the caller's settle
            out[i] = e

    for i in range(len(searches)):
        advance(i, None)
    while pending:
        order = sorted(pending)
        reqs = [pending.pop(i) for i in order]
        sizes = [len(r) for r in reqs]
        batch = reqs[0] if len(reqs) == 1 else SpectralBatch(
            np.concatenate([np.ravel(r.modulus) for r in reqs]),
            np.concatenate([np.ravel(r.arg) for r in reqs]))
        shifts = [searches[i].shift for i in order]
        with np.errstate(all="ignore"):
            d = np.ravel(outgoing_defect(
                s, np.repeat([searches[i].mode for i in order], sizes), batch,
                checked=False, shift=None if shifts[0] is None else np.repeat(shifts, sizes)))
        for i, r, stop in zip(order, reqs, np.cumsum(sizes).tolist()):
            advance(i, d[stop - len(r):stop].reshape(r.shape)[()])
    return out


def settle(outcome):
    """The result of a search or sweep outcome; an error outcome is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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

    def stencil(self, x: complex):
        """(h, the batch [x, x + h, x - h]) with h = 1e-7 (1 + |x|): the
        points Newton evaluates at x.  None when x maps out of |lam| < 1, the
        region Newton searches, or a point of the stencil has no positive
        float modulus (a reciprocal-chart stencil across x = 0 reaches lam =
        0 and lam = inf)."""
        if not (1.0 / x if self.reciprocal else x).real < 0.0:
            return None
        h = 1e-7 * (1.0 + abs(x))
        try:
            return h, self.to_lam(x, x + h, x - h)
        except (OverflowError, DomainError):
            return None


def _newton_steps(mode: int, seed: SpectralBatch):
    """Damped Newton on the outgoing defect from a seed point with |seed| <
    0.5, as the steps of a PoleSearch; a seed outside raises ValidationError.

    Converges when the defect drops below NEWTON_TOL_FACTOR of its seed value
    or below 1e-11 of the local scale |dW/dx| (1 + |x|); near-pole seeds make
    the first criterion unreachable in double precision, the second not.
    A trial step out of |lam| < 1 fails like one that does not reduce
    |defect|: a potential's defect of mode l >= 1 decays like |lam|^-l at
    large |lam|, and damped Newton would otherwise follow it there.  So does
    a trial whose difference stencil leaves the positive float range.  Each
    point x it visits (the seed, each line-search trial) is one defect call
    [x, x + h, x - h], h = 1e-7 (1 + |x|), so an accepted trial carries the
    central difference of the next step; the pair is checked for finiteness
    only when that step reads it.  No convergence raises BasinError.
    """
    if seed.modulus >= 0.5:
        raise ValidationError("seed outside the small-|lam| basin (need |seed| < 0.5)")
    chart = _Chart(reciprocal=seed.modulus < 0.2)

    def visit(h: float, lams: SpectralBatch):
        d = yield lams
        return complex(_finite(d[0], mode)), d[1:], h, lams[0]

    x = chart.from_lam(seed)
    f, pair, h, lam = yield from visit(*chart.stencil(x))
    f0 = abs(f)
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
            if (trial := chart.stencil(xn)) is not None:
                fn, pair_n, h_n, lam_n = yield from visit(*trial)
                if abs(fn) < abs(f):
                    break
            t *= 0.5
        else:
            break
        x, f, pair, h, lam = xn, fn, pair_n, h_n, lam_n
    raise BasinError(
        f"pole iteration did not converge from |seed|={seed.modulus:.3e} "
        f"(final |W|/|W0| = {abs(f)/max(f0,1e-300):.3e}, "
        f"|W|/local = {abs(f)/max(local_scale,1e-300):.3e})")


def _disk_steps(mode: int, r_search: float):
    n = SCAN_COUNT
    pts = SpectralBatch(np.tile(log_grid(1e-4, r_search * 0.98, n), len(SCAN_ARGS)),
                        np.repeat(SCAN_ARGS, n))
    d = _finite((yield pts), mode)
    v = np.abs(d).reshape(len(SCAN_ARGS), n)
    ray, i = np.nonzero((v[:, 1:-1] < v[:, :-2]) & (v[:, 1:-1] < v[:, 2:]))
    order = np.argsort(v[ray, i + 1], kind="stable")
    for k in (ray * n + i + 1)[order][:MAX_CANDIDATES]:
        try:
            pole = yield from _newton_steps(mode, pts[k])
        except BasinError:
            continue
        if pole.lam.modulus < r_search:
            return pole
    return None


def disk_search(mode: int, r_search: float = 0.3, shift: float | None = None) -> PoleSearch:
    """The pole search of V + shift in the disk |lam| < r_search: its seeds
    are the local minima of |defect| along the SCAN_ARGS rays (SCAN_COUNT
    moduli each, one batch), and Newton (`_newton_steps`) polishes the first
    MAX_CANDIDATES of them, best first.  The result is the first pole that
    converges inside the disk, or None."""
    return PoleSearch(mode, _disk_steps(mode, r_search), shift)


def _no_poles():
    return []
    yield               # a search that requests no point


def _axis_steps(selfadjoint: bool, mode: int, kmin: float, kmax: float):
    ks = log_grid(kmin, kmax, AXIS_COUNT)
    defects = _finite((yield SpectralBatch(ks, math.pi / 2.0)), mode)
    # for selfadjoint scatterers i^mode * defect is real on the axis
    vals = [(1j ** mode * complex(d)).real if selfadjoint else abs(complex(d))
            for d in defects]
    out = []
    for i in range(len(ks) - 1):
        hit = (vals[i] == 0.0) or (vals[i] * vals[i + 1] < 0) if selfadjoint else \
            (0 < i and vals[i] < vals[i - 1] and vals[i] < vals[i + 1] and vals[i] < 1e-6)
        if hit:
            seed = SpectralBatch(math.sqrt(ks[i] * ks[i + 1]), math.pi / 2.0)
            try:
                pole = (yield from _newton_steps(mode, seed)) if seed.modulus < 0.5 else None
            except BasinError:
                pole = None
            if pole is None and selfadjoint:
                pole = yield from _bisect_steps(mode, float(ks[i]), float(ks[i + 1]), vals[i])
            if pole is not None:
                out.append(pole)
    return out


def bound_kappa_max(s: Scatterer) -> float:
    """sqrt(max(0, -min Re V)): a bound state -kappa^2 of a real V lies above
    min V, so no kappa beyond it need be scanned; 0 for an obstacle."""
    if isinstance(s, DiskObstacle):
        return 0.0
    return math.sqrt(max(0.0, -min(complex(v).real for v in s.values)))


def axis_search(s: Scatterer, mode: int, kmin: float = 1e-3, kmax: float = 2.0,
                shift: float | None = None) -> PoleSearch:
    """The bound-state search of V + shift, whose result is the list of its
    poles: sign changes of the (real-axis-symmetric) defect on i kappa at
    AXIS_COUNT points in [kmin, kmax] (one batch), polished by Newton below
    kappa = 0.5 and otherwise, for selfadjoint scatterers, bisected to machine
    resolution (see `_bisect_steps`).  A non-selfadjoint scatterer's hits are
    local minima of |defect| below 1e-6, which carry no sign to bisect; those
    Newton does not polish are not reported.  An exterior Dirichlet or Neumann
    Laplacian has no negative eigenvalue, so an obstacle's search requests no
    point and finds none; with a shift its request raises ValidationError.
    An empty range, kmax <= kmin, requests no point either."""
    if (isinstance(s, DiskObstacle) and shift is None) or kmax <= kmin:
        return PoleSearch(mode, _no_poles(), shift)
    return PoleSearch(mode, _axis_steps(s.selfadjoint, mode, kmin, kmax), shift)


def _bisect_steps(mode: int, lo: float, hi: float, flo: float):
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
        d = yield SpectralBatch(tree, math.pi / 2)
        k = 0           # heap order: node k has children 2k + 1 and 2k + 2
        while k < len(tree) and (mid := 0.5 * (lo + hi)) not in (lo, hi):
            fm = (1j ** mode * complex(_finite(d[k], mode))).real
            if flo * fm <= 0:
                hi, k = mid, 2 * k + 1
            else:
                lo, flo, k = mid, fm, 2 * k + 2
            steps += 1
    return ResonancePole(SpectralBatch(mid, math.pi / 2.0), mode, "boundState", 0.0, steps)
