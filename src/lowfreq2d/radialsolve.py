"""Piecewise-exact solutions of the radial mode equation.

For an angular mode l the equation  u'' + u'/r - l^2 u / r^2 + (lam^2 - V) u = 0
with piecewise-constant V has explicit solutions on every segment: the
Bessel pair J_l(eta r), H^(1)_l(eta r) with eta^2 = lam^2 - V_j, or the
harmonic pair (r^l, r^-l) / (1, log r) when eta vanishes.  Solutions are
per-segment coefficient pairs glued by 2x2 matching at the breakpoints, so
there is no ODE time-stepping anywhere and evaluations are accurate to the
special-function level.  A solve takes a 1-D array of modes, which leads the
shape of its coefficients and rows: eta depends on lam alone, so the segments
and their breakpoint radii serve every mode, one bessel_pair call evaluates
the bases of all of them, and each mode and each spectral point, at every
batch size, has the bits of a one-mode solve of that point alone.  A Green
solve can keep (u, u') at an array of radii, evaluated in its boundary
bases' call, and serves every read of those radii from that table.

Only the outgoing exterior solution H^(1)_l(lam r) carries log(lam); interior
pieces depend on lam^2 alone, which is what makes continuation of everything
downstream to the Riemann surface of log(lam) automatic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ValidationError
from .scatterer import PiecewisePotential, Scatterer
from .specfun import SpectralBatch, _mul, bessel_pair

BESSEL_BATCH = 20480    # Bessel points (spectral points x radii) per evaluation of a sweep


@dataclass
class Segment:
    """One segment for a batch of spectral points: eta and logeta have shape
    (nlam,), and l is the 1-D int array of modes, which leads the shape of
    the bases, (len(l), nlam, len(r)).

    Elements with eta = 0 take the harmonic pair (r^l, r^-l), or (1, log r)
    for l = 0; the others the Bessel pair (J, H1).
    """

    a: float
    b: float
    l: np.ndarray
    eta: np.ndarray
    logeta: np.ndarray

    def _harmonic(self, r: np.ndarray) -> np.ndarray:
        """The harmonic pair and its derivatives, (4, len(l), len(r)).  Each
        mode takes its own scalar exponents: numpy rounds r ** 2 and r ** -1
        by fast paths that a power with an array of exponents does not take."""
        return np.array([[np.ones(len(r)), np.log(r), np.zeros(len(r)), 1.0 / r] if l == 0 else
                         [r**l, r ** (-l), l * r ** (l - 1), -l * r ** (-l - 1)]
                         for l in self.l.tolist()]).swapaxes(0, 1)

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

    def _derivs(self, eta, z, f0, f1) -> tuple[np.ndarray, ...]:
        """Order-l derivatives eta (l / z f - g) of the Bessel pair, from its
        order-l values f in f0 and order-(l + 1) values g in f1; eta takes the
        mode axis, so one point rounds alike in every batch."""
        l, eta = self.l[:, None, None], eta[None]
        return tuple(eta * (l / z * f - g) for f, g in zip(f0, f1))


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
    shape (len(l), nlam, len(r)): all four (slot None), or the values alone (slot 0),
    which take the order-l Bessel slot alone and so the bits all four give
    them.  The Bessel elements of every segment share one bessel_pair call.

    (J, H1) on every segment: J is tame at small |z| where H1, H2 are nearly
    parallel, and H1 is recessive where Im z > 0 (DLMF 10.2), where J and Y
    blow up together, so the matching determinant does not cancel there, in
    a barrier as outside; where Im z < 0, J and H1 grow together as J, Y do.
    """
    args = [seg._bessel_args(r) for seg, r in zip(segs, radii)]
    live = [(a[3], a[2] + np.log(r)) for a, r in zip(args, radii) if a is not None]
    fs = iter(_bessel_each(segs[0].l, *zip(*live), slot) if live else ())
    out = []
    for seg, r, a in zip(segs, radii, args):
        if a is not None:
            wave, eta, _, z = a
            b = next(fs)
            if slot is None:
                f0 = (b[0][0], b[1][0])
                b = f0 + seg._derivs(eta, z, f0, (b[0][1], b[1][1]))
            if wave is None:
                out.append(b)
                continue
        rows = [0, 1, 2, 3] if slot is None else [0, 1]
        flat = seg.eta == 0
        full = np.empty((len(rows), len(seg.l), len(seg.eta), len(r)), dtype=complex)
        full[:, ..., flat, :] = seg._harmonic(r)[rows][..., None, :]
        if a is not None:
            full[:, ..., ~flat, :] = b
        out.append(tuple(full))
    return out


def make_segments(s: Scatterer, l, lam: SpectralBatch | None, shift=None) -> list[Segment]:
    """Segments covering [inner_radius, inf) for the modes l, made here the 1-D
    mode array of every solve (a negative, non-integer, empty or 2-D l raises
    ValidationError), and a batch of spectral points, or lam=None meaning
    zero energy; (eta, log eta) are formed once per lam, for every mode.

    shift, when given, is a real eps per point in the batch's shape: each
    point takes the potential V + eps, its support values formed by
    `PiecewisePotential.shifted_values`, so a point gets the bits of a solve
    of the potential with those values.  One solve then serves a family of
    potentials that share their breaks.  A shift for an obstacle raises
    ValidationError.

    The exterior (V = 0) segment at nonzero energy uses the (J, H1) basis on
    the log cover of lam itself, so only that segment carries log(lam).  A
    lam^2 that leaves the float range raises NumericalError.
    """
    l = np.atleast_1d(l)
    if l.ndim != 1 or not l.size or l.dtype.kind not in "iu" or l.min() < 0:
        raise ValidationError(f"modes must be a 1-D array of integers l >= 0, got {l.tolist()}")
    if shift is not None and not isinstance(s, PiecewisePotential):
        raise ValidationError("a shift eps of V + eps needs a potential")
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
            segs.append(Segment(a, b, l, eta, logeta))
        inner = edges[-1]
    segs.append(Segment(inner, math.inf, l, value, log))
    return segs


def _cover(segs: list[Segment], r: np.ndarray) -> list[tuple[int, slice | np.ndarray]]:
    """(segment index, radii index: a slice for a run) of each segment with radii
    of r, each on the first that holds it; one off the segments raises ValidationError."""
    pieces = []
    done = np.zeros(len(r), dtype=bool)
    for i, seg in enumerate(segs):
        mask = (~done) & (r >= seg.a - 1e-14) & (r <= seg.b + 1e-14)
        idx = np.flatnonzero(mask)
        if not idx.size:
            continue
        if idx[-1] - idx[0] + 1 == idx.size:         # a contiguous run of radii
            idx = slice(idx[0], idx[-1] + 1)
        pieces.append((i, idx))
        done |= mask
    if not done.all():
        raise ValidationError(f"radius {r[~done][0]} lies outside [{segs[0].a}, inf)")
    return pieces


@dataclass
class PiecewiseSolution:
    """Per-segment coefficient pairs, each an array over the modes and the
    spectral batch (shape (len(l), nlam), led by an axis of length 2 for
    the stacked pair of green_pair).  solution[sl], sl a slice of the batch
    axis, is the solution of those spectral points.  kept, when not None, is
    green_pair's table (sorted radii, rows of (u, u') there): a read of radii
    that all lie in it takes its columns, a run of them as a view."""

    segments: list[Segment]
    coeffs: list[tuple[np.ndarray, np.ndarray]]
    kept: tuple[np.ndarray, np.ndarray] | None = None

    def _combine(self, r: np.ndarray, slot: int | None, bases=None) -> np.ndarray:
        """The solution's rows of (u, u') at radii r, or u alone (slot 0, from
        _bases' values alone), each of shape coefficient shape + (len(r),);
        bases, when given, are the pair rows of _cover's pieces."""
        r = np.asarray(r, dtype=float)
        if self.kept is not None and len(r) <= len(self.kept[0]):
            radii, table = self.kept
            table = table[:1] if slot == 0 else table
            if np.array_equal(r, radii):
                return table
            at = radii.searchsorted(r)
            if (radii.take(at, mode="clip") == r).all():
                if len(at) and (np.diff(at) == 1).all():
                    return table[..., at[0]:at[-1] + 1]     # a run of columns: a view
                return table.take(at, axis=-1)
        cover = _cover(self.segments, r)
        if bases is None:
            bases = _bases([self.segments[i] for i, _ in cover], [r[idx] for _, idx in cover], slot)
        out = np.empty((2 if slot is None else 1,) + self.coeffs[0][0].shape + (len(r),),
                       dtype=complex)
        for (i, idx), b in zip(cover, bases):
            c1, c2 = (c[..., None] for c in self.coeffs[i])
            for k, row in enumerate(out):
                row[..., idx] = c1 * b[2 * k] + c2 * b[2 * k + 1]
        return out

    def __getitem__(self, sl: slice) -> PiecewiseSolution:
        segs = [replace(seg, eta=seg.eta[sl], logeta=seg.logeta[sl]) for seg in self.segments]
        return PiecewiseSolution(segs, [(c1[..., sl], c2[..., sl]) for c1, c2 in self.coeffs],
                                 self.kept and (self.kept[0], self.kept[1][..., sl, :]))

    def mode(self, i: int) -> PiecewiseSolution:
        """The one-mode slice of the i-th of the modes it was solved for, with
        the segments and coefficients a solve of that mode alone gives."""
        segs = [replace(seg, l=seg.l[i:i + 1]) for seg in self.segments]
        return PiecewiseSolution(segs, [(c1[i:i + 1], c2[i:i + 1]) for c1, c2 in self.coeffs])

    def member(self, k: int) -> PiecewiseSolution:
        """The k-th solution of green_pair's stacked pair (0 phi, 1 psi) on its
        own, with its kept columns: a read combines that solution alone."""
        return PiecewiseSolution(self.segments, [(c1[k], c2[k]) for c1, c2 in self.coeffs],
                                 self.kept and (self.kept[0], self.kept[1][:, k]))

    def eval(self, r: np.ndarray) -> np.ndarray:
        """The rows u, u' at radii r, each of shape coefficient shape + (len(r),)."""
        return self._combine(r, None)

    def values(self, r: np.ndarray) -> np.ndarray:
        """u at radii r, as eval gives it, from the order-l basis alone."""
        return self._combine(r, 0)[0]


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
    shape = segs[0].l.shape + segs[0].eta.shape
    return np.ones(shape, dtype=complex), np.zeros(shape, dtype=complex)


def _regular(s: Scatterer, segs: list[Segment], extra=()):
    """The regular solution on segs, a potential's marched outward from (1, 0),
    the breakpoint bases it was glued with ((left, right) pairs of (b1, b2, b1',
    b2'), outward) and the bases of each (segment, radii) of extra, from one call."""
    one, zero = _unit_pair(segs)
    if isinstance(s, PiecewisePotential):
        sides = [seg for pair in zip(segs, segs[1:]) for seg in pair]
        radii = [np.array([seg.b]) for seg in segs[:-1] for _ in (0, 1)]
    else:
        sides, radii = segs[:1], [np.array([s.radius])]
    b = _bases(sides + [seg for seg, _ in extra], radii + [r for _, r in extra], None)
    at, rest = [np.array(rows)[..., 0] for rows in b[:len(sides)]], b[len(sides):]
    if not isinstance(s, PiecewisePotential):
        u, du = (zero, one) if s.bc == "dirichlet" else (one, zero)
        return PiecewiseSolution(segs, [_solve_2x2(at[0], u, du)]), [], rest
    junctions, coeffs = list(zip(at[0::2], at[1::2])), [(one, zero)]
    for left, right in junctions:
        coeffs.append(_solve_2x2(right, *_value_at(left, coeffs[-1])))
    return PiecewiseSolution(segs, coeffs), junctions, rest


def regular_solution(s: Scatterer, l, lam: SpectralBatch | None, shift=None) -> PiecewiseSolution:
    """Regular at r = 0 (potential) or satisfying the boundary condition
    (obstacle), for every mode of make_segments' mode array, all on one set
    of segments: the coefficient arrays take shape (len(l), nlam), and each
    mode has the bits of a solve of that mode alone.  A potential's points take
    make_segments' per-point shift."""
    return _regular(s, make_segments(s, l, lam, shift))[0]


def green_pair(s: Scatterer, l, lam: SpectralBatch,
               keep: np.ndarray | None = None) -> PiecewiseSolution:
    """The regular solution and the outgoing one (H^(1)_l(lam r) outside the
    support, continued inward) of each mode on one set of segments, stacked
    along a leading axis of length 2: one eval evaluates each segment's basis
    once for both, and both are glued with the same breakpoint bases.

    keep, when given, is a 1-D array of radii that reads to come name; the
    solution keeps (u, u') there, sorted by radius, evaluated in the
    obstacle's or breakpoints' bessel_pair call."""
    segs = make_segments(s, l, lam)
    radii = None if keep is None else np.sort(keep)
    cover = [] if keep is None else _cover(segs, radii)
    phi, junctions, bases = _regular(s, segs, [(segs[i], radii[idx]) for i, idx in cover])
    one, zero = _unit_pair(segs)
    psi = [(zero, one)]            # marched inward
    for left, right in junctions[::-1]:
        psi.insert(0, _solve_2x2(left, *_value_at(right, psi[0])))
    sol = PiecewiseSolution(segs, [tuple(map(np.stack, zip(a, b)))
                                   for a, b in zip(phi.coeffs, psi)])
    if keep is not None:
        sol.kept = radii, sol._combine(radii, None, bases)
        sol.kept[1].flags.writeable = False
    return sol
