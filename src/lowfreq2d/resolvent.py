"""Per-mode application of the free and perturbed resolvents on the log cover.

The Green function of one angular mode is built from the regular solution
(entire in lam^2) and the outgoing solution (H^(1)_l(lam r) outside the
support, continued inward); only the outgoing factor carries log(lam), which
is how everything continues across sheets.  Cumulative Gauss-Legendre
integrals make the variation-of-parameters formula spectrally accurate, and
the constancy of the Wronskian is tracked as a structural invariant.

Also here: residual evaluations of the one-sided and two-spectral-parameter
resolvent identities and of the exterior pairing identity, each against the
free resolvent of V = 0 (FREE).  Each solves its own Green pairs, or takes
them solved already, as mode_green takes its solution: `verify` solves s
once at the points of all three identities and FREE once at those of the
two that read it, and hands each identity its slices, which have the bits
of its own solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    spectral points: the node arrays have the batch's shape + (nodes,), the
    Wronskian and phi_scale the batch's shape.  The Wronskian is exact, from
    phi's exterior J coefficient; wronskian_spread is the largest relative
    deviation of the sampled one from it, over the batch.

    The node values take the order-l basis alone.  The node derivatives
    (_ders) are formed the first time apply reads them, by one pair
    evaluation of the solutions on the nodes, so apply_values and every
    caller of the values alone never form them."""

    scatterer: Scatterer
    lam: SpectralBatch
    mode: int
    grid: PanelGrid
    phi_vals: np.ndarray
    psi_vals: np.ndarray
    wronskian: complex | np.ndarray
    wronskian_spread: float
    solutions: PiecewiseSolution      # phi (unscaled) and psi, stacked
    phi_scale: np.ndarray             # phi_vals = phi / phi_scale

    @cached_property
    def _ders(self) -> tuple[np.ndarray, np.ndarray]:
        phi_d, psi_d = self.solutions.eval(self.grid.nodes)[1]
        phi_d = phi_d / np.reshape(self.phi_scale, (-1, 1))
        shape = self.lam.shape + phi_d.shape[-1:]
        return phi_d.reshape(shape), psi_d.reshape(shape)

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
        inner1 = self.phi_vals * f.values * g.nodes
        inner2 = self.psi_vals * f.values * g.nodes
        C = g.cumulative(inner1)
        Dtail = np.asarray(g.integrate(inner2))[..., None] - g.cumulative(inner2)
        return C, Dtail, np.asarray(self.wronskian)[..., None]

    def apply(self, f: RadialFunction) -> RadialFunction:
        """u with (P - lam^2) u = f, outgoing at infinity, and its exact u'."""
        parts = self._integrals(f)
        phi_d, psi_d = self._ders
        return RadialFunction(self.mode, self.grid, _vary(self.psi_vals, self.phi_vals, *parts),
                              _vary(psi_d, phi_d, *parts), f.trig)

    def apply_values(self, f: RadialFunction) -> RadialFunction:
        """apply(f)'s values alone, with derivs None: no node derivatives are formed."""
        u = _vary(self.psi_vals, self.phi_vals, *self._integrals(f))
        return RadialFunction(self.mode, self.grid, u, None, f.trig)

    def value_at(self, f: RadialFunction, x: float):
        """(R(lam) f)(x): a complex, or an array over the batch.

        Off the grid f vanishes, so u is phi(x) times -integral(psi f r dr) / W
        below it and psi(x) times -integral(phi f r dr) / W above it: the end
        values of apply's two cumulative integrals; on the grid apply_values.
        No node derivatives are formed.  A non-finite x raises ValidationError.
        """
        if not math.isfinite(x):
            raise ValidationError(f"observation radius must be finite, got {x}")
        g = self.grid
        if g.rmin <= x <= g.rmax:
            return self.apply_values(f).value_at(x)
        self._check_source(f)
        if x < self.scatterer.inner_radius:
            raise ValidationError(f"r = {x} lies inside the obstacle")
        below = x < g.rmin
        partner = self.psi_vals if below else self.phi_vals
        coeff = -np.asarray(g.integrate(partner * f.values * g.nodes)) / self.wronskian
        if below and x == 0.0:
            # phi starts as J_l(eta r) or r^l: 1 at the origin for mode 0, else 0
            return float(self.mode == 0) / self.phi_scale * coeff
        phi_x, psi_x = self.solutions.values(np.array([x]))[..., 0]
        sol_x = phi_x / self.phi_scale if below else psi_x
        return sol_x.reshape(np.shape(coeff)) * coeff


def _vary(psi_x: np.ndarray, phi_x: np.ndarray, C: np.ndarray, Dtail: np.ndarray,
          w: np.ndarray) -> np.ndarray:
    """-(psi_x C + phi_x D) / W: u from psi and phi at the nodes, u' from psi' and phi'."""
    # psi blows up toward r = 0 for l >= 1; C vanishes identically there
    return -(np.where(C == 0.0, 0.0, psi_x * C) + phi_x * Dtail) / w


def mode_green(s: Scatterer, lam: SpectralBatch, l: int, grid: PanelGrid,
               solution: PiecewiseSolution | None = None) -> ResolventSample:
    """The mode-l Green function data on grid, for a batch of spectral points.

    phi and psi share one segment set and every basis evaluation: the node
    values take the order-l basis alone, and only the five Wronskian probes
    take derivatives; the node derivatives wait for the first apply.  A
    non-finite Wronskian raises NumericalError, one of modulus at most
    POLE_GUARD AtPoleError for the first such point.

    solution, when given, is green_pair(s, l, lam) solved already, typically
    a slice of one solve of many points: green_sweep solves once and samples
    in slices, and the probes and the observation radius of every slice are
    then evaluated once on the whole solve (SolutionSlice).
    """
    sols = green_pair(s, l, lam) if solution is None else solution
    phi_v, psi_v = sols.values(grid.nodes)
    # scale-free regular solution: keeps the pole guard meaningful
    scale = np.max(np.abs(phi_v), axis=-1)
    scale[scale == 0] = 1.0
    phi_v = phi_v / scale[:, None]
    # outside the support psi = H1 and phi = (c1 J + c2 H1) / scale, and the
    # (J, H1) basis has Wronskian 2i/pi
    w = sols.coeffs[-1][0][0] / scale * (2j / math.pi)
    # the sampled Wronskian, probed at five nodes away from the endpoints, is
    # the invariant check
    idx = np.linspace(0, len(grid.nodes) - 1, 7).astype(int)[1:-1]
    phi_d, psi_d = sols.eval(grid.nodes[idx])[1]
    phi_d = phi_d / scale[:, None]
    w_all = grid.nodes[idx] * (phi_v[:, idx] * psi_d - phi_d * psi_v[:, idx])
    absw = np.abs(w)
    if not np.all(np.isfinite(absw)):
        raise NumericalError("mode Wronskian is not finite")
    spread = float(np.max(np.max(np.abs(w_all - w[:, None]), axis=-1) / np.maximum(absw, 1e-300)))
    # np.hypot rounds as abs() of one complex does; np.abs's vector loop may not
    at_pole = np.flatnonzero(np.hypot(w.real, w.imag) <= POLE_GUARD)
    if at_pole.size:
        i = at_pole[0]
        raise AtPoleError(lam[np.unravel_index(i, lam.shape)], w[i])
    # to the batch's shape; [()] makes a 0-d result a scalar
    phi_v, psi_v = (a.reshape(lam.shape + a.shape[-1:]) for a in (phi_v, psi_v))
    w, scale = (a.reshape(lam.shape)[()] for a in (w, scale))
    return ResolventSample(s, lam, l, grid, phi_v, psi_v, w, spread, sols, scale)


def green_sweep(s: Scatterer, lam: SpectralBatch, l: int, grid: PanelGrid, read) -> np.ndarray:
    """read(mode_green(...)) over a 1-D batch, concatenated.

    The Green pair is solved once for the whole batch; each mode_green call
    takes a slice of that solve, as many consecutive points as make about
    BESSEL_BATCH Bessel points on grid, so the slice, not the batch, sets
    the size of the temporaries.  read runs on each slice's sample before the
    next is formed."""
    sols = green_pair(s, l, lam)
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
    solve of more points."""
    grid = g.grid
    chi_v = chi.chi(grid.nodes)
    sol, sol0 = solutions or (None, None)
    green = mode_green(s, lam, g.mode, grid, solution=sol)
    green0 = mode_green(FREE, lam, g.mode, grid, solution=sol0)
    # only r0g's derivatives are read (by the commutator); the masked source has none
    lhs = green.apply_values(RadialFunction(g.mode, grid, (1.0 - chi_v) * g.values, None, g.trig))
    r0g = green0.apply(g)
    rhs = (1.0 - chi_v) * r0g.values - green.apply_values(commutator_apply(chi, r0g)).values
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
    of a solve of more points.
    """
    grid = f.grid
    l = f.mode
    chi_v = chi.chi(grid.nodes)
    sol_l, sol_z, sol0 = solutions or (None,) * 3
    green_l = mode_green(s, lam, l, grid, solution=sol_l)
    green_z = mode_green(s, z, l, grid, solution=sol_z)
    free = mode_green(FREE, SpectralBatch([lam.modulus, z.modulus], [lam.arg, z.arg]), l, grid,
                      solution=sol0)

    rzf = green_z.apply(f)
    lhs = green_l.apply_values(f).values - rzf.values

    k1f_vals = (1.0 - chi_v) * f.values + commutator_apply(chi, rzf).values
    k1f = RadialFunction(l, grid, k1f_vals, None, f.trig)
    v = free.apply(k1f)           # rows R0(lam) K1 f and R0(z) K1 f
    diff = RadialFunction(l, grid, v.values[0] - v.values[1], v.derivs[0] - v.derivs[1], f.trig)

    mid = RadialFunction(l, grid, chi_v * (2.0 - chi_v) * rzf.values, None, f.trig)
    term1 = (complex(lam.lam2) - complex(z.lam2)) * green_l.apply_values(mid).values
    term2 = (1.0 - chi_v) * diff.values - green_l.apply_values(commutator_apply(chi, diff)).values
    rhs = term1 + term2
    return _grid_norm(grid, lhs - rhs) / max(_grid_norm(grid, lhs), 1e-300)


def pairing_identity_residual(s: Scatterer, lam: SpectralBatch, phi_src: RadialFunction,
                              r1: float, solution: PiecewiseSolution | None = None) -> float:
    """Exterior pairing of R(lam)phi against the conjugated free kernel at the
    origin, at the point lam.

    <phi, conj(R0(lam))( . , 0)>_{|x|>r1} = -B_{r1}( R(lam) phi, conj(R0(lam))( . , 0) )
    for mode-0 phi; returns the relative defect.  solution, when given, is
    green_pair(s, 0, lam) solved already, as mode_green takes it.
    """
    if phi_src.mode != 0:
        raise ValidationError("pairing identity implemented for mode 0")
    grid = phi_src.grid
    r = grid.nodes
    mask = r > r1
    s1 = SpectralBatch(lam.modulus * r1, lam.arg)
    # one call: H0 at lam r on the nodes above r1, then H0 and H1 at lam r1
    H = bessel_pair(0, np.append((lam.value * r)[mask], s1.value),
                    np.append((lam.log + np.log(r))[mask], s1.log))[2]
    paired = np.zeros(len(r), dtype=complex)
    paired[mask] = phi_src.values[mask] * (0.25j * H[0, :-1]) * r[mask]
    lhs = 2.0 * math.pi * grid.integrate(paired)
    u = mode_green(s, lam, 0, grid, solution=solution).apply(phi_src)
    kr1, kr1p = 0.25j * H[0, -1], 0.25j * complex(lam.value) * -H[1, -1]     # H0' = -H1
    b = 2.0 * math.pi * r1 * (u.value_at(r1) * kr1p - u.deriv_at(r1) * kr1)
    return abs(lhs + b) / max(abs(lhs), 1e-300)
