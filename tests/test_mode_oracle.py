"""The mode solves against an independent one: S_l, Green values, the
zero-energy connection coefficients of modes 0-2 and the mode-0 point read
off a source grid (value_at), each held against `oracles.MpModeMarch` at 40
digits.

The cases are the MODE_AXIS_SCATTERERS and the repulsive steps V = 30 to
800 on the unit disk, at lam = 0.05 and 1.5 on arg 0 and pi/4.  Each bound
is a relative error: twice the largest one measured over the case's modes
and points, rounded up to one significant digit, so a rounding move either
way stays inside it.  Where Y_l and J_l of a step's interior grow together,
the Green values are bounded by what the (J, H1) glue measures there; the
error left on the steps is that of the power series' H = J + iY at large
|Im z| (ROADMAP item 3).
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from lowfreq2d import PiecewisePotential, SpectralBatch, bump, mode_green
from lowfreq2d.quadrature import PanelGrid
from lowfreq2d.radialsolve import regular_solution
from lowfreq2d.threshold import solve_zero_mode

from oracles import MODE_AXIS_SCATTERERS, MpModeMarch

CASES = {**MODE_AXIS_SCATTERERS,
         **{f"repulsive-step-{v}": PiecewisePotential((1.0,), (float(v),))
            for v in (30, 100, 300, 500, 800)}}
MODES = np.arange(3)
LAM = SpectralBatch([0.05, 0.05, 1.5, 1.5], [0.0, math.pi / 4] * 2)

S_BOUND = 4e-15         # S_l - 1
ZERO_BOUND = 2e-14      # each of the growing and decaying coefficients
GREEN_BOUND = {
    "readme-well": 3e-14,
    "two-step-well": 4e-14,
    "repulsive-step": 3e-14,
    "complex-potential": 3e-14,
    "dirichlet-disk": 5e-13,
    "neumann-disk": 5e-13,
    "repulsive-step-30": 8e-12,
    "repulsive-step-100": 2e-7,
    "repulsive-step-300": 3e-10,
    "repulsive-step-500": 3e-8,
    "repulsive-step-800": 4e-6,
}


@lru_cache(maxsize=None)
def _marches(name: str) -> tuple:
    """The oracle at each point of LAM, every mode of MODES at once."""
    s = CASES[name]
    return tuple(MpModeMarch(s, MODES.tolist(), m, a) for m, a in zip(LAM.modulus, LAM.arg))


def _rel(got, ref) -> float:
    return float(np.max(np.abs(np.asarray(got) - ref) / np.abs(ref)))


@pytest.fixture(autouse=True)
def _mpmath():
    pytest.importorskip("mpmath")


@pytest.mark.parametrize("name", CASES)
def test_s_matrix_against_the_mode_march(name):
    # S_l - 1 = 2 c2 / c1 from the regular solution's exterior (J, H1) coefficients
    c1, c2 = regular_solution(CASES[name], MODES, LAM).coeffs[-1]
    ref = [[o.s_matrix_minus_one(l) for o in _marches(name)] for l in MODES]
    assert _rel(2 * c2 / c1, ref) <= S_BOUND


@pytest.mark.parametrize("name", GREEN_BOUND)
def test_green_values_against_the_mode_march(name):
    # G_l(x, y) = phi(min) psi(max) / W at every pair of four nodes, two inside
    # a potential's support and two outside (a disk's at 1.1 to 3.5 radii)
    s = CASES[name]
    R, inner = s.support_radius, s.inner_radius
    grid = PanelGrid(np.linspace(inner, inner + 3 * R, 7))
    at = (1.1, 1.5, 2.0, 3.5) if inner else (0.4, 0.9, 1.3, 2.5)
    idx = [int(np.argmin(np.abs(grid.nodes - f * R))) for f in at]
    lo, hi = np.minimum.outer(idx, idx), np.maximum.outer(idx, idx)
    worst = 0.0
    for l in MODES:
        g = mode_green(s, LAM, int(l), grid)
        ours = g.phi_vals[:, lo] * g.psi_vals[:, hi] / g.scaled_wronskian[:, None, None]
        ref = [o.green(int(l), grid.nodes[idx]) for o in _marches(name)]
        worst = max(worst, _rel(ours, ref))
    assert worst <= GREEN_BOUND[name]


@pytest.mark.parametrize("name", CASES)
def test_zero_energy_coefficients_against_the_mode_march(name):
    o = MpModeMarch(CASES[name], MODES.tolist(), 0.0)
    for m in solve_zero_mode(CASES[name], MODES):
        growing, decaying = o.zero_energy(m.mode)
        assert abs(m.decaying - decaying) <= ZERO_BOUND * abs(decaying)
        assert abs(m.growing - growing) <= ZERO_BOUND * abs(growing)


# the wave's point read off the grid: below and above a disk's source, and at
# the origin and above on a potential, on a source of two 12-node panels; the
# errors at lam = 30 (4e-14 to 6e-14) set the bounds
POINT_LAM = SpectralBatch([0.5, 30.0, 1.5], [0.0, 0.0, math.pi / 4])
POINT_GRID = PanelGrid(np.array([1.5, 2.0, 2.5]), 12)
POINT_BOUND = {
    ("dirichlet-disk", 1.2): 2e-13,
    ("dirichlet-disk", 3.0): 9e-14,
    ("readme-well", 0.0): 1e-13,
    ("readme-well", 3.0): 9e-14,
}


@lru_cache(maxsize=None)
def _point_marches(name: str) -> tuple:
    s = MODE_AXIS_SCATTERERS[name]
    return tuple(MpModeMarch(s, [0], m, a) for m, a in zip(POINT_LAM.modulus, POINT_LAM.arg))


@pytest.mark.parametrize("name, x", POINT_BOUND)
def test_point_read_against_the_mode_march(name, x):
    # value_at off the grid, -sol(x) integral(partner f r dr) / W, against the
    # oracle's sum of G_0(x, y) f(y) y over the source's quadrature nodes
    g = POINT_GRID
    f = bump(g, 2.0, 0.5, 0)
    got = mode_green(MODE_AXIS_SCATTERERS[name], POINT_LAM, 0, g).value_at(f, x)
    ref = [o.point_read(0, x, g.nodes, f.values, g.weights) for o in _point_marches(name)]
    assert _rel(got, ref) <= POINT_BOUND[name, x]


def test_green_pairs_radii_by_radius():
    # the oracle pairs phi(min) with psi(max) by radius, whatever the order of
    # the radii it is given
    o = _point_marches("dirichlet-disk")[0]
    radii = [3.0, 1.2, 2.0]
    order = np.argsort(radii)
    assert np.array_equal(o.green(0, radii)[np.ix_(order, order)], o.green(0, sorted(radii)))
