"""Piecewise-exact solutions of the radial mode equation.

For one angular mode l the equation  u'' + u'/r - l^2 u / r^2 + (lam^2 - V) u = 0
with piecewise-constant V has explicit solutions on every segment:
Bessel pairs J_l(eta r), Y_l(eta r) with eta^2 = lam^2 - V_j, or the harmonic
pair (r^l, r^-l) / (1, log r) when eta vanishes.  Solutions are represented as
per-segment coefficient pairs glued by 2x2 matching at the breakpoints, so
there is no ODE time-stepping anywhere and evaluations are accurate to the
special-function level.

Only the outgoing exterior solution H^(1)_l(lam r) carries log(lam); interior
pieces depend on lam^2 alone, which is what makes continuation of everything
downstream to the Riemann surface of log(lam) automatic.
"""

from __future__ import annotations

import cmath
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .scatterer import PiecewisePotential, Scatterer
from .specfun import SpectralPoint, bessel_pair

#: one spectral point, a batch of them solved together, or None (zero energy)
Spectral = SpectralPoint | Sequence[SpectralPoint] | None


@dataclass
class Segment:
    """One segment for a batch of spectral points: eta and logeta have shape (nlam,).

    Elements with eta = 0 take the harmonic pair (r^l, r^-l), or (1, log r)
    for l = 0; the others the Bessel pair (J, Y), or (J, H1) when kind is
    "hankel".
    """

    a: float
    b: float
    l: int
    kind: str                 # "bessel" | "hankel"
    eta: np.ndarray
    logeta: np.ndarray

    def pair(self, r: np.ndarray) -> tuple[np.ndarray, ...]:
        """(b1, b2, b1', b2') at radii r, each of shape (nlam, len(r))."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        flat = self.eta == 0
        if not flat.any():
            return self._bessel(r, self.eta[:, None], self.logeta[:, None])
        out = np.empty((4, len(self.eta), len(r)), dtype=complex)
        out[:, flat] = self._harmonic(r)[:, None, :]
        if not flat.all():
            wave = ~flat
            out[:, wave] = self._bessel(r, self.eta[wave, None], self.logeta[wave, None])
        return tuple(out)

    def _harmonic(self, r: np.ndarray) -> np.ndarray:
        l = self.l
        if l == 0:
            return np.array([np.ones(len(r)), np.log(r), np.zeros(len(r)), 1.0 / r])
        return np.array([r**l, r ** (-l), l * r ** (l - 1), -l * r ** (-l - 1)])

    def _bessel(self, r: np.ndarray, eta: np.ndarray, logeta: np.ndarray):
        # (J, H1) on the exterior: J is tame at small |z| where H1, H2 are
        # nearly parallel, H1 is tame at large Im z where J, Y blow up
        # together, so the matching determinant never suffers cancellation
        # on the unbounded exterior segment.
        l = self.l
        z = eta * r
        J, Y, H = bessel_pair(l, z, logeta + np.log(r))
        second = H if self.kind == "hankel" else Y
        for f in (J, second):            # order l + 1 slot -> derivative of order l
            f[1] = eta * (l / z * f[0] - f[1])
        return J[0], second[0], J[1], second[1]


def _spectral_batch(lam: Spectral):
    """(lam, lam^2, log lam) arrays of shape (nlam,); None is zero energy.

    lam^2 and the logs are taken in scalar arithmetic, element by element:
    numpy's vector complex multiply and log round differently in the last bit.
    """
    if lam is None:
        return np.zeros(1, dtype=complex), np.zeros(1, dtype=complex), np.zeros(1, dtype=complex)
    pts = [lam] if isinstance(lam, SpectralPoint) else list(lam)
    return (np.array([p.value for p in pts]), np.array([p.value ** 2 for p in pts]),
            np.array([p.log for p in pts]))


def make_segments(s: Scatterer, l: int, lam: Spectral, rmax: float) -> list[Segment]:
    """Segments covering [inner_radius, rmax] for a SpectralPoint, a sequence
    of them (one batch), or lam=None meaning zero energy.

    The exterior (V = 0) segment at nonzero energy uses the (J, H1) basis on
    the log cover of lam itself, so only that segment carries log(lam).
    """
    value, lam2, log = _spectral_batch(lam)
    segs: list[Segment] = []
    inner = s.inner_radius
    if isinstance(s, PiecewisePotential):
        edges = s.segment_edges()
        for j, (a, b) in enumerate(zip(edges, edges[1:])):
            eta = np.sqrt(lam2 - complex(s.values[j]))
            logeta = np.array([cmath.log(e) if e else 0j for e in eta])
            segs.append(Segment(a, b, l, "bessel", eta, logeta))
        inner = edges[-1]
    segs.append(Segment(inner, rmax, l, "hankel", value, log))
    return segs


@dataclass
class PiecewiseSolution:
    """Per-segment coefficient pairs, each an array over the spectral batch
    (shape (nlam,), or (2, nlam) for the stacked pair of green_pair)."""

    segments: list[Segment]
    coeffs: list[tuple[np.ndarray, np.ndarray]]

    def at(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        u, du = self.eval(np.array([r]))
        return u[..., 0], du[..., 0]

    def eval(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u, u' at radii r, each of shape coefficient shape + (len(r),)."""
        r = np.asarray(r, dtype=float)
        shape = self.coeffs[0][0].shape + (len(r),)
        u = np.empty(shape, dtype=complex)
        du = np.empty(shape, dtype=complex)
        done = np.zeros(len(r), dtype=bool)
        for seg, (c1, c2) in zip(self.segments, self.coeffs):
            last = seg is self.segments[-1]
            mask = (~done) & (r >= seg.a - 1e-14) & ((r <= seg.b + 1e-14) if not last else True)
            if not mask.any():
                continue
            b1, b2, b1p, b2p = seg.pair(r[mask])
            c1, c2 = c1[..., None], c2[..., None]
            u[..., mask] = c1 * b1 + c2 * b2
            du[..., mask] = c1 * b1p + c2 * b2p
            done |= mask
        if not done.all():
            raise ValueError("radii outside the segment cover")
        return u, du


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b with each real product rounded on its own, as in scalar complex
    arithmetic; numpy's vector loop fuses multiply-adds instead.  The 2x2
    glue is tiny, and ill-conditioned fits downstream amplify its last bit,
    so it keeps the scalar rounding for any batch size."""
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _solve_2x2(seg: Segment, r: float, u: np.ndarray, du: np.ndarray):
    """Coefficients on seg of the solution with value u, derivative du at r."""
    b = np.array(seg.pair(np.array([r])))[:, :, 0]          # b1, b2, b1', b2'
    p = _mul(np.array([b[0], b[2], u, du, du, u]), b[[3, 1, 3, 1, 0, 2]])
    det = p[0] - p[1]
    return (p[2] - p[3]) / det, (p[4] - p[5]) / det


def _value_at(seg: Segment, r: float, c: tuple[np.ndarray, np.ndarray]):
    """(u, u') at r of the solution with coefficients c on seg."""
    p = _mul(np.array([c[0], c[1], c[0], c[1]]), np.array(seg.pair(np.array([r])))[:, :, 0])
    return p[0] + p[1], p[2] + p[3]


def march_outward(segments: list[Segment], c_first) -> PiecewiseSolution:
    coeffs = [c_first]
    for prev, seg in zip(segments, segments[1:]):
        coeffs.append(_solve_2x2(seg, prev.b, *_value_at(prev, prev.b, coeffs[-1])))
    return PiecewiseSolution(segments, coeffs)


def march_inward(segments: list[Segment], c_last) -> PiecewiseSolution:
    coeffs = [c_last]
    for nxt, seg in zip(segments[::-1], segments[-2::-1]):
        coeffs.insert(0, _solve_2x2(seg, seg.b, *_value_at(nxt, seg.b, coeffs[0])))
    return PiecewiseSolution(segments, coeffs)


# ----------------------------------------------------------------------------
# the two distinguished solutions of the resolvent construction
# ----------------------------------------------------------------------------

def _unit_pair(segs: list[Segment]) -> tuple[np.ndarray, np.ndarray]:
    n = len(segs[0].eta)
    return np.ones(n, dtype=complex), np.zeros(n, dtype=complex)


def regular_solution(s: Scatterer, l: int, lam: Spectral, rmax: float) -> PiecewiseSolution:
    """Regular at r = 0 (potential) or satisfying the boundary condition (obstacle)."""
    segs = make_segments(s, l, lam, rmax)
    one, zero = _unit_pair(segs)
    if isinstance(s, PiecewisePotential):
        return march_outward(segs, (one, zero))
    u, du = (zero, one) if s.bc == "dirichlet" else (one, zero)
    return PiecewiseSolution(segs, [_solve_2x2(segs[0], s.radius, u, du)])


def green_pair(s: Scatterer, l: int, lam: Spectral, rmax: float) -> PiecewiseSolution:
    """The regular solution and the outgoing one (H^(1)_l(lam r) outside the
    support, continued inward) on one set of segments, stacked along a leading
    axis of length 2: one eval evaluates each segment's basis once for both."""
    phi = regular_solution(s, l, lam, rmax)
    one, zero = _unit_pair(phi.segments)
    psi = march_inward(phi.segments, (zero, one))
    return PiecewiseSolution(phi.segments, [tuple(map(np.stack, zip(a, b)))
                                            for a, b in zip(phi.coeffs, psi.coeffs)])
