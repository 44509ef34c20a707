"""Piecewise-exact solutions of the radial mode equation.

For an angular mode l the equation  u'' + u'/r - l^2 u / r^2 + (lam^2 - V) u = 0
with piecewise-constant V has explicit solutions on every segment:
Bessel pairs J_l(eta r), Y_l(eta r) with eta^2 = lam^2 - V_j, or the harmonic
pair (r^l, r^-l) / (1, log r) when eta vanishes.  Solutions are represented as
per-segment coefficient pairs glued by 2x2 matching at the breakpoints, so
there is no ODE time-stepping anywhere and evaluations are accurate to the
special-function level.  A solve takes one mode (an int l) or several (a 1-D
array of modes): eta depends on lam alone, so the segments and their
breakpoint radii serve every mode, one bessel_pair call evaluates the bases of
all of them, and each mode gets the bits of its own solve.

Only the outgoing exterior solution H^(1)_l(lam r) carries log(lam); interior
pieces depend on lam^2 alone, which is what makes continuation of everything
downstream to the Riemann surface of log(lam) automatic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError
from .scatterer import PiecewisePotential, Scatterer
from .specfun import SpectralBatch, _mul, bessel_pair


@dataclass
class Segment:
    """One segment for a batch of spectral points: eta and logeta have shape
    (nlam,), and l is one mode (an int) or a 1-D array of modes, which lead
    the shape of the bases, (*l.shape, nlam, len(r)).

    Elements with eta = 0 take the harmonic pair (r^l, r^-l), or (1, log r)
    for l = 0; the others the Bessel pair (J, Y), or (J, H1) when kind is
    "hankel".
    """

    a: float
    b: float
    l: int | np.ndarray
    kind: str                 # "bessel" | "hankel"
    eta: np.ndarray
    logeta: np.ndarray

    def pair(self, r: np.ndarray) -> tuple[np.ndarray, ...]:
        """(b1, b2, b1', b2') at radii r, each of shape (*l.shape, nlam, len(r))."""
        return _bases([self], [np.atleast_1d(np.asarray(r, dtype=float))], None)[0]

    def _harmonic(self, r: np.ndarray) -> np.ndarray:
        """The harmonic pair and its derivatives, (4, *l.shape, len(r)).  Each
        mode takes its own scalar exponents: numpy rounds r ** 2 and r ** -1
        by fast paths that a power with an array of exponents does not take."""
        def rows(l: int) -> list[np.ndarray]:
            if l == 0:
                return [np.ones(len(r)), np.log(r), np.zeros(len(r)), 1.0 / r]
            return [r**l, r ** (-l), l * r ** (l - 1), -l * r ** (-l - 1)]

        if np.ndim(self.l):
            return np.array([rows(l) for l in self.l.tolist()]).swapaxes(0, 1)
        return np.array(rows(self.l))

    def _bessel_args(self, r: np.ndarray):
        """(mask of the Bessel elements or None for all of them, their eta and
        log eta as columns, z = eta r), or None when every element is harmonic."""
        flat = self.eta == 0
        if not flat.any():
            wave, eta, logeta = None, self.eta[:, None], self.logeta[:, None]
        elif flat.all():
            return None
        else:
            wave = ~flat
            eta, logeta = self.eta[wave, None], self.logeta[wave, None]
        return wave, eta, logeta, eta * r

    def _derivs(self, r, eta, z, logeta, f0, f1) -> tuple[np.ndarray, ...]:
        """Order-l derivatives eta (l / z f - g) of the Bessel pair, from its
        order-l values f in f0 and order-(l + 1) values g in f1."""
        if np.ndim(self.l):
            lz = self.l[:, None, None] / z
        elif self.l == 0 and not logeta.imag.any() and (r > 0).all():
            # every z > 0, where 0 / z is +0 + 0j (as a mode array's order 0
            # takes it): skip the division, keep the products by zero, which
            # fix the sign of any zero part
            lz = np.zeros_like(z)
        else:
            lz = self.l / z
        return tuple(eta * (lz * f - g) for f, g in zip(f0, f1))


def _bessel_each(l, zs: list[np.ndarray], logzs: list[np.ndarray], slot: int | None):
    """bessel_pair at each array of zs, by one call: every point is evaluated
    on its own, so each array gets the bits of its own call."""
    if len(zs) == 1:
        return [bessel_pair(l, zs[0], logzs[0], slot)]
    fs = bessel_pair(l, np.concatenate([z.ravel() for z in zs]),
                     np.concatenate([x.ravel() for x in logzs]), slot)
    ends = np.cumsum([z.size for z in zs])
    return [tuple(f[..., e - z.size:e].reshape(f.shape[:-1] + z.shape) for f in fs)
            for z, e in zip(zs, ends)]


def _bases(segs: list[Segment], radii: list[np.ndarray], slot: int | None):
    """For each segment at its radii, rows of (b1, b2, b1', b2'), each of
    shape (*l.shape, nlam, len(r)): all four (slot None), or the values alone (slot 0),
    which take the order-l Bessel slot alone and so the bits all four give
    them.  The Bessel elements of every segment share one bessel_pair call.

    (J, H1) on the exterior: J is tame at small |z| where H1, H2 are nearly
    parallel, H1 is tame at large Im z where J, Y blow up together, so the
    matching determinant never suffers cancellation on the unbounded
    exterior segment.
    """
    args = [seg._bessel_args(r) for seg, r in zip(segs, radii)]
    live = [(a[3], a[2] + np.log(r)) for a, r in zip(args, radii) if a is not None]
    fs = iter(_bessel_each(segs[0].l, *zip(*live), slot) if live else ())
    out = []
    for seg, r, a in zip(segs, radii, args):
        if a is not None:
            wave, eta, logeta, z = a
            J, Y, H = next(fs)
            b = (J, H if seg.kind == "hankel" else Y)
            if slot is None:
                f0 = (b[0][0], b[1][0])
                b = f0 + seg._derivs(r, eta, z, logeta, f0, (b[0][1], b[1][1]))
            if wave is None:
                out.append(b)
                continue
        rows = [0, 1, 2, 3] if slot is None else [0, 1]
        flat = seg.eta == 0
        full = np.empty((len(rows),) + np.shape(seg.l) + (len(seg.eta), len(r)), dtype=complex)
        full[:, ..., flat, :] = seg._harmonic(r)[rows][..., None, :]
        if a is not None:
            full[:, ..., ~flat, :] = b
        out.append(tuple(full))
    return out


def make_segments(s: Scatterer, l, lam: SpectralBatch | None, shift=None) -> list[Segment]:
    """Segments covering [inner_radius, inf) for one mode l or a 1-D array of
    modes and a batch of spectral points, or lam=None meaning zero energy;
    (eta, log eta) are formed once per lam, for every mode.

    shift, when given, is a real eps per point in the batch's shape: each
    point takes the potential V + eps, its support values formed as
    `PiecewisePotential.shifted` forms them, so a point gets the bits of a
    solve of `s.shifted(eps)`.  One solve then serves a family of potentials
    that share their breaks.

    The exterior (V = 0) segment at nonzero energy uses the (J, H1) basis on
    the log cover of lam itself, so only that segment carries log(lam).  A
    lam^2 that leaves the float range raises NumericalError.
    """
    if np.ndim(l):
        l = np.asarray(l)
    zero = np.zeros(1, dtype=complex)
    value, lam2, log = (zero,) * 3 if lam is None else map(np.ravel, (lam.value, lam.lam2, lam.log))
    if not np.isfinite(lam2).all():
        raise NumericalError("lam^2 overflows the float range")
    segs: list[Segment] = []
    inner = s.inner_radius
    if isinstance(s, PiecewisePotential):
        edges = s.segment_edges()
        support = map(complex, s.values) if shift is None else s.shifted_values(np.ravel(shift))
        for (a, b), v in zip(zip(edges, edges[1:]), support):
            eta = np.sqrt(lam2 - v)
            logeta = np.array([cmath.log(e) if e else 0j for e in eta])
            segs.append(Segment(a, b, l, "bessel", eta, logeta))
        inner = edges[-1]
    segs.append(Segment(inner, math.inf, l, "hankel", value, log))
    return segs


@dataclass
class PiecewiseSolution:
    """Per-segment coefficient pairs, each an array over the modes and the
    spectral batch (shape (*l.shape, nlam), led by an axis of length 2 for
    the stacked pair of green_pair)."""

    segments: list[Segment]
    coeffs: list[tuple[np.ndarray, np.ndarray]]

    def _combine(self, r: np.ndarray, slot: int | None) -> np.ndarray:
        """The solution's rows of (u, u') at radii r, each of shape coefficient
        shape + (len(r),), from _bases' rows of slot, each radius on the first
        segment that holds it."""
        r = np.asarray(r, dtype=float)
        pieces = []
        done = np.zeros(len(r), dtype=bool)
        for seg, (c1, c2) in zip(self.segments, self.coeffs):
            mask = (~done) & (r >= seg.a - 1e-14) & (r <= seg.b + 1e-14)
            idx = np.flatnonzero(mask)
            if not idx.size:
                continue
            if idx[-1] - idx[0] + 1 == idx.size:         # a contiguous run of radii
                idx = slice(idx[0], idx[-1] + 1)
            pieces.append((seg, c1[..., None], c2[..., None], idx))
            done |= mask
        if not done.all():
            raise ValueError("radii outside the segment cover")
        bases = _bases([p[0] for p in pieces], [r[p[3]] for p in pieces], slot) if pieces else []
        out = np.empty((2 if slot is None else 1,) + self.coeffs[0][0].shape + (len(r),), dtype=complex)
        for (_, c1, c2, idx), b in zip(pieces, bases):
            for k, row in enumerate(out):
                row[..., idx] = c1 * b[2 * k] + c2 * b[2 * k + 1]
        return out

    def mode(self, i: int) -> PiecewiseSolution:
        """The solution of the i-th of the modes it was solved for, with the
        segments and coefficients a solve of that mode alone gives."""
        segs = [replace(seg, l=int(seg.l[i])) for seg in self.segments]
        return PiecewiseSolution(segs, [(c1[i], c2[i]) for c1, c2 in self.coeffs])

    def eval(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u, u' at radii r, each of shape coefficient shape + (len(r),)."""
        u, du = self._combine(r, None)
        return u, du

    def values(self, r: np.ndarray) -> np.ndarray:
        """u at radii r, as eval gives it, from the order-l basis alone."""
        return self._combine(r, 0)[0]


def _junctions(segs: list[Segment]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The basis (b1, b2, b1', b2'), shape (4, *l.shape, nlam), of the segments on
    either side of each breakpoint, at the breakpoint, from one bessel_pair
    call: a (left, right) pair per breakpoint, outward."""
    sides = [seg for pair in zip(segs, segs[1:]) for seg in pair]
    radii = [np.array([seg.b]) for seg in segs[:-1] for _ in (0, 1)]
    b = [np.array(rows)[..., 0] for rows in _bases(sides, radii, None)]
    return list(zip(b[0::2], b[1::2]))


def _solve_2x2(b: np.ndarray, u: np.ndarray, du: np.ndarray):
    """Coefficients of the solution with value u, derivative du where the
    basis takes the values b = (b1, b2, b1', b2')."""
    p = _mul(np.array([b[0], b[2], u, du, du, u]), b[[3, 1, 3, 1, 0, 2]])
    det = p[0] - p[1]
    return (p[2] - p[3]) / det, (p[4] - p[5]) / det


def _value_at(b: np.ndarray, c: tuple[np.ndarray, np.ndarray]):
    """(u, u') of the solution with coefficients c where the basis takes the values b."""
    p = _mul(np.array([c[0], c[1], c[0], c[1]]), b)
    return p[0] + p[1], p[2] + p[3]


# ----------------------------------------------------------------------------
# the two distinguished solutions of the resolvent construction
# ----------------------------------------------------------------------------

def _unit_pair(segs: list[Segment]) -> tuple[np.ndarray, np.ndarray]:
    shape = np.shape(segs[0].l) + segs[0].eta.shape
    return np.ones(shape, dtype=complex), np.zeros(shape, dtype=complex)


def _regular(s: Scatterer, segs: list[Segment]):
    """The regular solution on segs, a potential's marched outward from
    (1, 0), and the breakpoint bases it was glued with."""
    one, zero = _unit_pair(segs)
    if isinstance(s, PiecewisePotential):
        junctions, coeffs = _junctions(segs), [(one, zero)]
        for left, right in junctions:
            coeffs.append(_solve_2x2(right, *_value_at(left, coeffs[-1])))
        return PiecewiseSolution(segs, coeffs), junctions
    u, du = (zero, one) if s.bc == "dirichlet" else (one, zero)
    b = np.array(segs[0].pair(np.array([s.radius])))[..., 0]
    return PiecewiseSolution(segs, [_solve_2x2(b, u, du)]), []


def regular_solution(s: Scatterer, l, lam: SpectralBatch | None, shift=None) -> PiecewiseSolution:
    """Regular at r = 0 (potential) or satisfying the boundary condition
    (obstacle), for one mode l or every mode of a 1-D array l, all on one
    set of segments: the coefficient arrays take shape (*l.shape, nlam), and
    each mode has the bits of its own solve.  A potential's points take
    make_segments' per-point shift."""
    return _regular(s, make_segments(s, l, lam, shift))[0]


def green_pair(s: Scatterer, l: int, lam: SpectralBatch) -> PiecewiseSolution:
    """The regular solution and the outgoing one (H^(1)_l(lam r) outside the
    support, continued inward) on one set of segments, stacked along a leading
    axis of length 2: one eval evaluates each segment's basis once for both,
    and both are glued with the same breakpoint bases."""
    phi, junctions = _regular(s, make_segments(s, l, lam))
    one, zero = _unit_pair(phi.segments)
    psi = [(zero, one)]            # marched inward
    for left, right in junctions[::-1]:
        psi.insert(0, _solve_2x2(left, *_value_at(right, psi[0])))
    return PiecewiseSolution(phi.segments, [tuple(map(np.stack, zip(a, b)))
                                            for a, b in zip(phi.coeffs, psi)])
