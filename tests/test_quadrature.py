"""Panel Gauss-Legendre machinery: integrals, partial integrals, evaluation."""

import math

import numpy as np
import pytest
from numpy.polynomial import legendre as L

from lowfreq2d import (DiskObstacle, PiecewisePotential, RadialFunction, ValidationError,
                       bump, bump_edges, default_cutoff, inner, norm_sq, standard_grid)
from lowfreq2d.radial import Exterior
from lowfreq2d.quadrature import PanelGrid, geometric_edges, graded_inner_edges


@pytest.fixture
def grid():
    return PanelGrid([0.0, 0.3, 1.0, 2.5], 24)


def test_integrate_and_cumulative_analytic(grid):
    r = grid.nodes
    f = np.exp(-r) * np.sin(3 * r)

    def F(t):
        return (-np.exp(-t) * (np.sin(3 * t) + 3 * np.cos(3 * t)) + 3) / 10.0

    assert abs(grid.integrate(f) - F(2.5)) < 1e-14
    assert np.max(np.abs(grid.cumulative(f) - F(r))) < 1e-13


def test_eval_and_derivative(grid):
    r = grid.nodes
    f = np.exp(-r) * np.sin(3 * r)
    assert abs(grid.eval_at(f, 1.7) - np.exp(-1.7) * np.sin(5.1)) < 1e-13
    d = grid.derivative(f)
    exact = np.exp(-r) * (3 * np.cos(3 * r) - np.sin(3 * r))
    assert np.max(np.abs(d - exact)) < 1e-9


def _tailed(grid, exterior):
    return RadialFunction(2, grid, np.ones(len(grid)), exterior=exterior,
                          exterior_start=None if exterior is None else grid.rmax)


@pytest.mark.parametrize("case", ["grids", "inner-missing", "inner-growing",
                                  "norm-missing", "norm-log", "norm-1/r"])
def test_inner_and_norm_raise_validation_errors(grid, case):
    # mismatched grids, a missing exterior and one whose square does not
    # integrate (growing, log or 1/r) are bad input, reported as ValidationError
    decaying = _tailed(grid, Exterior(v={-2: 1.0}))
    call = {
        "grids": lambda: inner(decaying, _tailed(PanelGrid(grid.edges, 8), None)),
        "inner-missing": lambda: inner(decaying, _tailed(grid, None), tail=True),
        "inner-growing": lambda: inner(decaying, _tailed(grid, Exterior(v={-2: 1.0, 2: 1.0})),
                                       tail=True),
        "norm-missing": lambda: norm_sq(_tailed(grid, None), include_tail=True),
        "norm-log": lambda: norm_sq(_tailed(grid, Exterior(clog=1.0)), include_tail=True),
        "norm-1/r": lambda: norm_sq(_tailed(grid, Exterior(v={-1: 1.0})), include_tail=True),
    }[case]
    with pytest.raises(ValidationError):
        call()
    assert abs(inner(decaying, decaying, tail=True) - norm_sq(decaying, include_tail=True)) < 1e-12


def test_tail_adds_every_pair_of_exterior_terms():
    # integral_2^inf (r^-2 + r^-3)^2 r dr = 1/8 + 2/24 + 1/64, times pi for mode 1;
    # the cross term is the 1/12
    grid = PanelGrid([1.0, 2.0], 16)
    r = grid.nodes
    f = RadialFunction(1, grid, r**-2 + r**-3, exterior=Exterior(v={-2: 1.0, -3: 1.0}),
                       exterior_start=1.0)
    tail = norm_sq(f, include_tail=True) - norm_sq(f)
    assert abs(tail - math.pi * (1 / 8 + 1 / 12 + 1 / 64)) < 1e-14
    assert abs(inner(f, f, tail=True) - norm_sq(f, include_tail=True)) < 1e-14


def test_polynomial_exactness():
    g = PanelGrid([0.0, 1.0], 8)
    f = g.nodes**13            # degree < 2n-1: exact for the integral
    assert abs(g.integrate(f) - 1.0 / 14.0) < 1e-15


def test_graded_edges_resolve_log():
    g = PanelGrid(graded_inner_edges(1.0), 32)
    v = np.log(g.nodes)
    assert abs(g.integrate(v) + 1.0) < 1e-7


def test_geometric_edges():
    e = geometric_edges(1e-3, 1.0)
    assert e[0] == 1e-3 and e[-1] == 1.0
    assert np.all(np.diff(e) > 0)


def test_bad_edges_rejected():
    with pytest.raises(ValidationError):
        PanelGrid([1.0, 0.5])
    with pytest.raises(ValidationError):
        PanelGrid([0.5])


def test_locate_outside():
    g = PanelGrid([0.0, 1.0], 8)
    with pytest.raises(ValidationError):
        g.eval_at(np.zeros(8), 2.0)


def _legendre_route(grid, vals):
    """Per-panel Legendre coefficients integrated/differentiated by legint and
    legder and summed back with legval: the node-matrix route's reference."""
    c = grid._coeffs(vals)
    half = 0.5 * np.diff(grid.edges)
    x = grid._x
    totals = np.asarray(vals, complex).reshape(grid.npanels, grid.n) @ grid._w * half
    prefix = np.concatenate([[0.0], np.cumsum(totals)[:-1]])
    cum = np.array([prefix[p] + half[p] * L.legval(x, L.legint(c[p], lbnd=-1))
                    for p in range(grid.npanels)])
    der = np.array([L.legval(x, L.legder(c[p])) / half[p] for p in range(grid.npanels)])
    return cum, der


@pytest.mark.parametrize("scatterer", [DiskObstacle(1.0, "dirichlet"),
                                       PiecewisePotential((0.55, 1.0), (-20.0, -7.0))],
                         ids=["dirichlet-disk", "two-step-well"])
def test_cumulative_derivative_match_legendre_route(scatterer):
    chi = default_cutoff(scatterer)
    center = 0.5 * (scatterer.inner_radius + chi.r0)
    halfwidth = 0.8 * 0.5 * (chi.r0 - scatterer.inner_radius)
    grid = standard_grid(scatterer, chi, extra_edges=bump_edges(center, halfwidth))
    half = 0.5 * np.diff(grid.edges)
    r = grid.nodes
    oscillatory = np.exp(1j * 7.0 * r) * np.cos(3.0 * r)
    for vals in (bump(grid, center, halfwidth).values, oscillatory, np.log(r)):
        cum_ref, der_ref = _legendre_route(grid, vals)
        cum = grid.cumulative(vals).reshape(grid.npanels, grid.n)
        der = grid.derivative(vals).reshape(grid.npanels, grid.n)
        assert np.max(np.abs(cum - cum_ref)) <= 1e-14 * np.max(np.abs(cum_ref))
        vmax = np.max(np.abs(np.asarray(vals).reshape(grid.npanels, grid.n)), axis=1)
        bound = 1e-12 * vmax / half
        assert np.all(np.max(np.abs(der - der_ref), axis=1) <= bound)
