"""Shared fixtures: the tuned test scatterers and their sampled matrix elements.

The threshold-tuned wells are *constructed* here by bisection on the exact
transfer-matrix connection coefficient (the classification itself is
discontinuous in the depth, so tests pin depths rather than trusting
detection on arbitrary inputs).  Everything heavy is session-scoped and
shared between the module tests and the acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from lowfreq2d import (DiskObstacle, PiecewisePotential, RadialFunction, bump,
                       bump_edges, classify, default_cutoff, expansion_grid,
                       sample_matrix_element, solve_zero_mode, standard_grid)

from oracles import FREE


def tune_depth(shape_breaks, shape_vals, mode: int, lo: float, hi: float,
               iters: int = 90):
    """Bisect the overall depth c of V = -c * shape until the mode's growing
    connection coefficient vanishes (to ~1e-13 relative in c)."""

    def gcoef(c: float) -> float:
        s = PiecewisePotential(shape_breaks, tuple(-c * v for v in shape_vals))
        return solve_zero_mode(s, mode).growing.real

    glo = gcoef(lo)
    ghi = gcoef(hi)
    assert glo * ghi < 0, f"no sign change in [{lo}, {hi}]: {glo}, {ghi}"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gm = gcoef(mid)
        if glo * gm <= 0:
            hi = mid
        else:
            lo, glo = mid, gm
    c = 0.5 * (lo + hi)
    return c, PiecewisePotential(shape_breaks, tuple(-c * v for v in shape_vals))


@dataclass
class Fixture:
    """A scatterer with its cutoff, grid, classification, and a canonical source."""

    name: str
    scatterer: object
    chi: object
    grid: object
    report: object
    f: RadialFunction
    f_center: float
    f_half: float

    def source(self, mode: int, trig: str = "cos") -> RadialFunction:
        return bump(self.grid, self.f_center, self.f_half, mode, trig)


def _make_fixture(name, s, fc=None, fh=None, mode=0) -> Fixture:
    chi = default_cutoff(s)
    if fc is None:
        fc = 0.5 * (s.inner_radius + chi.r0)
        fh = 0.8 * 0.5 * (chi.r0 - s.inner_radius)
    grid = standard_grid(s, chi, extra_edges=bump_edges(fc, fh))
    report = classify(s, cutoff=chi, grid=grid)
    f = bump(grid, fc, fh, mode)
    return Fixture(name, s, chi, grid, report, f, fc, fh)


@pytest.fixture(scope="session")
def free_fx() -> Fixture:
    return _make_fixture("free", FREE, fc=1.0, fh=0.35)


@pytest.fixture(scope="session")
def dirichlet_fx() -> Fixture:
    return _make_fixture("dirichlet-disk", DiskObstacle(1.0, "dirichlet"), fc=1.25, fh=0.2)


@pytest.fixture(scope="session")
def neumann_fx() -> Fixture:
    return _make_fixture("neumann-disk", DiskObstacle(1.0, "neumann"), fc=1.25, fh=0.2)


@pytest.fixture(scope="session")
def generic_well_fx() -> Fixture:
    return _make_fixture("generic-well", PiecewisePotential((1.0,), (-2.5,)), fc=0.9, fh=0.35)


@pytest.fixture(scope="session")
def s_well_fx() -> Fixture:
    _, s = tune_depth((0.55, 1.0), (1.0, 0.35), 0, 20.0, 24.0)
    return _make_fixture("s-well", s, fc=0.9, fh=0.35)


@pytest.fixture(scope="session")
def p_well_fx() -> Fixture:
    _, s = tune_depth((1.0,), (1.0,), 1, 3.0, 9.0)
    return _make_fixture("p-well", s, fc=0.9, fh=0.35)


@pytest.fixture(scope="session")
def eig_well_fx() -> Fixture:
    _, s = tune_depth((0.55, 1.0), (1.0, 0.35), 2, 30.0, 34.0)
    return _make_fixture("eig-well", s, fc=0.9, fh=0.35)


@pytest.fixture(scope="session")
def wave_well_fx() -> Fixture:
    return _make_fixture("wave-well", PiecewisePotential((1.0,), (30.0,)), fc=1.0, fh=0.35)


# -- cached matrix-element sweeps (the expensive part) -------------------------

@pytest.fixture(scope="session")
def default_grid_pts():
    return expansion_grid()


@pytest.fixture(scope="session")
def samples_dirichlet(dirichlet_fx, default_grid_pts):
    return sample_matrix_element(dirichlet_fx.scatterer, dirichlet_fx.f,
                                 dirichlet_fx.f, default_grid_pts.points)


@pytest.fixture(scope="session")
def samples_neumann(neumann_fx, default_grid_pts):
    return sample_matrix_element(neumann_fx.scatterer, neumann_fx.f,
                                 neumann_fx.f, default_grid_pts.points)


@pytest.fixture(scope="session")
def samples_free(free_fx, default_grid_pts):
    return sample_matrix_element(free_fx.scatterer, free_fx.f,
                                 free_fx.f, default_grid_pts.points)


@pytest.fixture(scope="session")
def samples_s_well(s_well_fx, default_grid_pts):
    return sample_matrix_element(s_well_fx.scatterer, s_well_fx.f,
                                 s_well_fx.f, default_grid_pts.points)


@pytest.fixture(scope="session")
def samples_p_well(p_well_fx, default_grid_pts):
    f = p_well_fx.source(1)
    return f, sample_matrix_element(p_well_fx.scatterer, f, f, default_grid_pts.points)


@pytest.fixture(scope="session")
def eig_grid_pts():
    # above the threshold-Wronskian cancellation floor; see the expansion tests
    return expansion_grid(count=24, modmin=1e-3, modmax=3e-2)


@pytest.fixture(scope="session")
def samples_eig_well(eig_well_fx, eig_grid_pts):
    f = eig_well_fx.source(2)
    return f, sample_matrix_element(eig_well_fx.scatterer, f, f, eig_grid_pts.points)


# -- wave results shared between test_wave and the acceptance suite -----------

@pytest.fixture(scope="session")
def wave_free_result(free_fx):
    from lowfreq2d import WaveQuery, evolve
    ts = tuple(float(t) for t in np.exp(np.linspace(math.log(1e2), math.log(1e4), 9)))
    q = WaveQuery(free_fx.scatterer, free_fx.f, 0.0, ts)
    return q, evolve(q)


@pytest.fixture(scope="session")
def wave_well_result(wave_well_fx):
    from lowfreq2d import WaveQuery, evolve
    ts = tuple(float(t) for t in np.exp(np.linspace(math.log(1e4), math.log(1e6), 7)))
    q = WaveQuery(wave_well_fx.scatterer, wave_well_fx.f, 0.0, ts)
    return q, evolve(q)
