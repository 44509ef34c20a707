"""Per-mode application of the free and perturbed resolvents on the log cover.

The Green function of one angular mode is built from the regular solution
(entire in lam^2) and the outgoing solution (H^(1)_l(lam r) outside the
support, continued inward); only the outgoing factor carries log(lam), which
is how everything continues across sheets.  Cumulative Gauss-Legendre
integrals make the variation-of-parameters formula spectrally accurate, and
the constancy of the Wronskian is tracked as a structural invariant, at five
probe radii.  A sample forms its node data on first read; a point read off
the source's grid combines only the one solution it integrates against f.

Also here: residual evaluations of the one-sided and two-spectral-parameter
resolvent identities and of the exterior pairing identity, each against the
free resolvent of V = 0 (FREE).  Each solves its own Green pairs, or takes
them solved already, as mode_green takes its solution: `verify` solves s
once at the points of all three identities and FREE once at those of the
two that read it, and hands each identity its slices, which have the bits
of its own solves.  Every identity solve keeps (u, u') on the nodes from its
boundary bases' call for mode_green, and each identity one cutoff jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import AtPoleError, NumericalError, ValidationError
from .quadrature import PanelGrid
from .radial import RadialFunction
from .radialsolve import BESSEL_BATCH, PiecewiseSolution, green_pair
from .scatterer import CutoffProfile, PiecewisePotential, Scatterer, commutator_apply
from .specfun import SpectralBatch, bessel_pair

POLE_GUARD = 1e-13

FREE = PiecewisePotential((1.0,), (0.0,))


# ----------------------------------------------------------------------------
# per-mode Green machinery
# ----------------------------------------------------------------------------

@dataclass
class ResolventSample:
    """phi/psi data of one scatterer and mode on a grid, at a batch of
    spectral points, phi and psi as solved.  Their one Wronskian W = c1 2i/pi
    (c1 phi's exterior J coefficient) has the batch's shape, and
    wronskian_spread is the largest relative deviation of the one sampled
    at the five probes from it, over the batch.

    The node values (_nodes, phi and psi, each of the batch's shape +
    (nodes,)) are formed together on first read and the node derivatives
    (_ders) on the first apply; apply_values and value_at never form the
    derivatives, and value_at off the grid forms neither."""

    scatterer: Scatterer
    lam: SpectralBatch
    mode: int
    grid: PanelGrid
    wronskian: complex | np.ndarray   # W of phi and psi
    wronskian_spread: float
    solutions: PiecewiseSolution      # phi and psi, stacked

    @cached_property
    def _nodes(self) -> np.ndarray:
        return self.solutions.values(self.grid.nodes).reshape((2,) + self.lam.shape + (-1,))

    @cached_property
    def _ders(self) -> np.ndarray:
        return self.solutions.eval(self.grid.nodes)[1].reshape((2,) + self.lam.shape + (-1,))

    def _check_source(self, f: RadialFunction) -> None:
        if not f.grid.same(self.grid):
            raise ValidationError("source not sampled on the resolvent grid")
        if f.mode != self.mode:
            raise ValidationError(f"source mode {f.mode} != resolvent mode {self.mode}")

    def _integrals(self, f: RadialFunction):
        """C = integral(phi f r dr) from rmin and D = integral(psi f r dr) to
        rmax at each node, and the Wronskian, for variation of parameters."""
        self._check_source(f)
        g = self.grid
        phi, psi = self._nodes
        inner1 = phi * f.values * g.nodes
        inner2 = psi * f.values * g.nodes
        C = g.cumulative(inner1)
        Dtail = np.asarray(g.integrate(inner2))[..., None] - g.cumulative(inner2)
        return C, Dtail, np.asarray(self.wronskian)[..., None]

    def apply(self, f: RadialFunction) -> RadialFunction:
        """u with (P - lam^2) u = f, outgoing at infinity, and its exact u'."""
        parts = self._integrals(f)
        return RadialFunction(self.mode, self.grid, _vary(self._nodes, *parts),
                              _vary(self._ders, *parts), f.trig)

    def apply_values(self, f: RadialFunction) -> RadialFunction:
        """apply(f)'s values alone, with derivs None: no node derivatives are formed."""
        u = _vary(self._nodes, *self._integrals(f))
        return RadialFunction(self.mode, self.grid, u, None, f.trig)

    def value_at(self, f: RadialFunction, x: float):
        """(R(lam) f)(x): a complex, or an array over the batch.

        Off the grid f vanishes, so u(x) = -sol(x) integral(partner f r dr) / W,
        the partner psi and sol phi below the grid, phi and psi above it.  The
        partner alone is combined on the nodes and integrated against f r;
        sol(x) is read off the kept table, or is (l == 0) at x = 0, where phi
        starts as J_l(eta r) or r^l.  On the grid, apply_values.  A non-finite
        x raises ValidationError.
        """
        if not math.isfinite(x):
            raise ValidationError(f"observation radius must be finite, got {x}")
        g = self.grid
        if g.rmin <= x <= g.rmax:
            return self.apply_values(f).value_at(x)
        self._check_source(f)
        if x < self.scatterer.inner_radius:
            raise ValidationError(f"r = {x} lies inside the obstacle")
        k = int(x < g.rmin)         # the partner: psi (1) below the grid, phi (0) above it
        partner = self.solutions.member(k).values(g.nodes)
        w = np.reshape(self.wronskian, -1)
        coeff = -g.integrate(partner * (f.values * g.nodes)) / w
        if x == 0.0:
            sol_x = float(self.mode == 0)
        else:
            sol_x = self.solutions.values(np.array([x]))[1 - k, ..., 0]
        return (sol_x * coeff).reshape(self.lam.shape)[()]


def _vary(pair: np.ndarray, C: np.ndarray, Dtail: np.ndarray, w: np.ndarray) -> np.ndarray:
    """-(psi C + phi D) / W for pair = (phi, psi) at the nodes: u from the
    node values, u' from the node derivatives."""
    phi_x, psi_x = pair
    # psi blows up toward r = 0 for l >= 1; C vanishes identically there
    return -(np.where(C == 0.0, 0.0, psi_x * C) + phi_x * Dtail) / w


@lru_cache(maxsize=None)
def _probe_index(n: int) -> np.ndarray:
    """The five of n nodes, away from the endpoints, that probe the Wronskian."""
    idx = np.linspace(0, n - 1, 7).astype(int)[1:-1]
    idx.flags.writeable = False
    return idx


def mode_green(s: Scatterer, lam: SpectralBatch, l: int, grid: PanelGrid,
               solution: PiecewiseSolution | None = None) -> ResolventSample:
    """The mode-l Green function data on grid, for a batch of spectral points.

    phi and psi share one segment set and every basis evaluation.
    mode_green reads (u, u') at the five Wronskian probes alone, from the
    solution's kept table when that holds them, and takes the spread and
    the pole guard from them and W = c1 2i/pi from phi's exterior
    coefficient: the one Wronskian of phi as solved, which apply,
    apply_values and value_at all divide by.  The node values and
    derivatives wait for their first read (see ResolventSample).  A Wronskian that is not finite, exact or at a probe,
    raises NumericalError, and one of modulus at most POLE_GUARD times the
    least r (|phi psi'| + |phi' psi|) at the probes raises AtPoleError, with
    that W, for the first such point.

    solution, when given, is green_pair(s, l, lam) solved already, its one
    mode read as a view, typically a slice of one solve of many points
    (green_sweep, verify); without, mode_green solves keeping the probes.
    """
    # the Wronskian sampled at five nodes away from the endpoints is the invariant check
    r = grid.nodes[_probe_index(len(grid.nodes))]
    sols = solution or green_pair(s, l, lam, r)
    (phi_v, psi_v), (phi_d, psi_d) = sols.eval(r)[:, :, 0]
    # outside the support psi = H1 and phi = c1 J + c2 H1, and the (J, H1)
    # basis has Wronskian 2i/pi
    w = sols.coeffs[-1][0][0, 0] * (2j / math.pi)
    terms = phi_v * psi_d, phi_d * psi_v
    w_all = r * (terms[0] - terms[1])
    size = np.min(r * (np.abs(terms[0]) + np.abs(terms[1])), axis=-1)
    absw = np.abs(w)
    if not (np.all(np.isfinite(absw)) and np.all(np.isfinite(w_all))):
        raise NumericalError("mode Wronskian is not finite")
    spread = float(np.max(np.max(np.abs(w_all - w[:, None]), axis=-1) / np.maximum(absw, 1e-300)))
    at_pole = np.flatnonzero(absw <= POLE_GUARD * size)
    if at_pole.size:
        i = at_pole[0]
        raise AtPoleError(lam[np.unravel_index(i, lam.shape)], w[i])
    # to the batch's shape; [()] makes a 0-d result a scalar
    return ResolventSample(s, lam, l, grid, w.reshape(lam.shape)[()], spread, sols)


def green_sweep(s: Scatterer, lam: SpectralBatch, l: int, grid: PanelGrid, read,
                x: float | None = None) -> np.ndarray:
    """read(mode_green(...)) over a 1-D batch, concatenated.

    The Green pair is solved once, keeping (u, u') at the Wronskian probes
    and at x, read's value_at radius, when x lies off the grid.  Each mode_green
    call takes a slice of that solve, as many consecutive points as make
    about BESSEL_BATCH Bessel points on grid, so the slice, not the batch,
    sets the size of the temporaries (one solution's node values per slice
    for a value_at off the grid).  read runs on each slice's sample before
    the next is formed."""
    keep = grid.nodes[_probe_index(len(grid.nodes))]
    if x is not None and x > 0 and x >= s.inner_radius and not grid.rmin <= x <= grid.rmax:
        keep = np.append(keep, x)
    sols = green_pair(s, l, lam, keep)
    step = max(1, BESSEL_BATCH // len(grid))
    return np.concatenate([read(mode_green(s, lam[i:i + step], l, grid, solution=sols[i:i + step]))
                           for i in range(0, len(lam), step)])


# ----------------------------------------------------------------------------
# resolvent identities as numerical residual checks
# ----------------------------------------------------------------------------

def _grid_norm(grid: PanelGrid, vals: np.ndarray) -> float:
    return float(np.sqrt(abs(grid.integrate(np.abs(vals) ** 2 * grid.nodes))))


def one_sided_identity_residual(s: Scatterer, lam: SpectralBatch, chi: CutoffProfile,
                                g: RadialFunction,
                                solutions: tuple[PiecewiseSolution, ...] | None = None) -> float:
    """R(lam)(1-chi) g vs {1 - chi - R(lam)[Delta, chi]} R0(lam) g, relative,
    at the point lam (a batch of shape ()).

    solutions, when given, is the pair (green_pair(s, l, lam),
    green_pair(FREE, l, lam)) solved already, each typically a slice of a
    solve of more points; else both are solved keeping (u, u') on the nodes."""
    grid = g.grid
    chi_v = (jet := chi.jet(grid.nodes))[0]
    sols = solutions or [green_pair(x, g.mode, lam, grid.nodes) for x in (s, FREE)]
    green, green0 = (mode_green(x, lam, g.mode, grid, solution=sol)
                     for x, sol in zip((s, FREE), sols))
    # only r0g's derivatives are read (by the commutator); the masked source has none
    lhs = green.apply_values(RadialFunction(g.mode, grid, (1.0 - chi_v) * g.values, None, g.trig))
    r0g = green0.apply(g)
    rhs = (1.0 - chi_v) * r0g.values - green.apply_values(commutator_apply(chi, r0g, jet)).values
    return _grid_norm(grid, lhs.values - rhs) / max(_grid_norm(grid, lhs.values), 1e-300)


def two_parameter_identity_residual(s: Scatterer, lam: SpectralBatch, z: SpectralBatch,
                            chi: CutoffProfile, f: RadialFunction,
                            solutions: tuple[PiecewiseSolution, ...] | None = None) -> float:
    """Two-spectral-parameter identity applied to f at the points lam and z,
    relative residual.

    R(lam) - R(z) = (lam^2 - z^2) R(lam) chi(2-chi) R(z)
                    + {1 - chi - R(lam)[Delta, chi]} (R0(lam) - R0(z)) K1,
    with K1 = 1 - chi + [Delta, chi] R(z).

    solutions, when given, is (green_pair(s, l, lam), green_pair(s, l, z),
    green_pair(FREE, l, [lam, z])) solved already, each typically a slice
    of a solve of more points; else each keeps (u, u') on the nodes.
    """
    grid = f.grid
    l = f.mode
    chi_v = (jet := chi.jet(grid.nodes))[0]
    points = ((s, lam), (s, z), (FREE, SpectralBatch([lam.modulus, z.modulus], [lam.arg, z.arg])))
    sols = solutions or [green_pair(x, l, at, grid.nodes) for x, at in points]
    green_l, green_z, free = (mode_green(x, at, l, grid, solution=sol)
                              for (x, at), sol in zip(points, sols))

    rzf = green_z.apply(f)
    lhs = green_l.apply_values(f).values - rzf.values

    k1f_vals = (1.0 - chi_v) * f.values + commutator_apply(chi, rzf, jet).values
    k1f = RadialFunction(l, grid, k1f_vals, None, f.trig)
    v = free.apply(k1f)           # rows R0(lam) K1 f and R0(z) K1 f
    diff = RadialFunction(l, grid, v.values[0] - v.values[1], v.derivs[0] - v.derivs[1], f.trig)

    mid = RadialFunction(l, grid, chi_v * (2.0 - chi_v) * rzf.values, None, f.trig)
    term1 = (complex(lam.lam2) - complex(z.lam2)) * green_l.apply_values(mid).values
    term2 = (1.0 - chi_v) * diff.values - green_l.apply_values(commutator_apply(chi, diff, jet)).values
    rhs = term1 + term2
    return _grid_norm(grid, lhs - rhs) / max(_grid_norm(grid, lhs), 1e-300)


def pairing_identity_residual(s: Scatterer, lam: SpectralBatch, phi_src: RadialFunction,
                              r1: float, solution: PiecewiseSolution | None = None) -> float:
    """Exterior pairing of R(lam)phi against the conjugated free kernel at the
    origin, at the point lam.

    <phi, conj(R0(lam))( . , 0)>_{|x|>r1} = -B_{r1}( R(lam) phi, conj(R0(lam))( . , 0) )
    for mode-0 phi; returns the relative defect.  solution is green_pair(s,
    0, lam) keeping (u, u') on the nodes, solved here when not given.
    """
    if phi_src.mode != 0:
        raise ValidationError("pairing identity implemented for mode 0")
    grid = phi_src.grid
    r = grid.nodes
    mask = r > r1
    s1 = SpectralBatch(lam.modulus * r1, lam.arg)
    # one call: H0 at lam r on the nodes above r1, then H0 and H1 at lam r1
    H = bessel_pair(0, np.append((lam.value * r)[mask], s1.value),
                    np.append((lam.log + np.log(r))[mask], s1.log))[1]
    paired = np.zeros(len(r), dtype=complex)
    paired[mask] = phi_src.values[mask] * (0.25j * H[0, :-1]) * r[mask]
    lhs = 2.0 * math.pi * grid.integrate(paired)
    u = mode_green(s, lam, 0, grid, solution=solution or green_pair(s, 0, lam, r)
                   ).apply(phi_src)
    kr1, kr1p = 0.25j * H[0, -1], 0.25j * complex(lam.value) * -H[1, -1]     # H0' = -H1
    b = 2.0 * math.pi * r1 * (u.value_at(r1) * kr1p - u.deriv_at(r1) * kr1)
    return abs(lhs + b) / max(abs(lhs), 1e-300)
