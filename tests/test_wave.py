"""Spectral wave evolution: free and perturbed decay laws."""

import math

import numpy as np
import pytest

from lowfreq2d import (PiecewisePotential, WaveQuery, bump, decay_fit, evolve,
                       inner, plane_integral)
from lowfreq2d.errors import BoundStateRefusal, ValidationError
from lowfreq2d.wave import OscillatoryPanels, spherical_jn_all
from lowfreq2d.quadrature import PanelGrid, geometric_edges


def test_filon_machinery_against_analytic():
    edges = np.concatenate([[1e-9], np.arange(0.25, 30.0001, 0.25)])
    g = PanelGrid(edges, 12)
    osc = OscillatoryPanels(edges, g._coeffs(np.exp(-g.nodes)))
    for t in (1.0, 10.0, 100.0, 1e4):
        exact = t / (1 + t * t)
        assert abs(osc.sin_integral(t) - exact) < 1e-10 * abs(exact)


def _sin_integral_loop(osc, t):
    """The panel-by-panel, term-by-term reference for OscillatoryPanels.sin_integral."""
    half = 0.5 * np.diff(osc.edges)
    mid = 0.5 * (osc.edges[:-1] + osc.edges[1:])
    n = osc.coeffs.shape[1]
    total = 0.0 + 0.0j
    for p in range(len(half)):
        jn = spherical_jn_all(n - 1, t * half[p])
        inner = sum(osc.coeffs[p, k] * (1j**k) * 2.0 * jn[k] for k in range(n))
        total += half[p] * np.exp(1j * t * mid[p]) * inner
    return float(np.imag(total))


def test_sin_integral_matches_panel_loop():
    # evolve's panel layout, with an integrand whose panels cancel at large t
    edges = np.concatenate([geometric_edges(1e-9, 0.5), np.arange(0.75, 60.01, 0.25)])
    g = PanelGrid(edges, 16)
    vals = np.exp(-0.3 * g.nodes) * np.cos(3.0 * g.nodes) / (1.0 + np.log(g.nodes) ** 2)
    osc = OscillatoryPanels(edges, g._coeffs(vals))
    for t in np.exp(np.linspace(math.log(1e-2), math.log(1e6), 25)):
        ref = _sin_integral_loop(osc, t)
        assert abs(osc.sin_integral(t) - ref) <= 1e-14 * abs(ref)


def test_spherical_bessel_recurrences():
    # downward and upward branches agree on their overlap
    for w in (20.0, 22.0, 23.5):
        down = spherical_jn_all(11, w)       # w <= nmax + 12 path
        up = spherical_jn_all(5, w)          # upward path for small nmax
        assert np.max(np.abs(down[:6] - up)) < 1e-14
    assert spherical_jn_all(4, 0.0)[0] == 1.0
    assert np.all(spherical_jn_all(4, 0.0)[1:] == 0.0)


def test_free_initial_condition(wave_free_result):
    q, _ = wave_free_result
    res0 = evolve(WaveQuery(q.scatterer, q.f, 0.0, (0.0,)))
    assert abs(res0.values[0]) < 1e-8 * math.sqrt(plane_integral(q.f).real)


def test_free_decay_and_coefficient(wave_free_result):
    q, res = wave_free_result
    intf = plane_integral(q.f).real
    int_x2f = (2 * math.pi * q.f.grid.integrate(q.f.values * q.f.grid.nodes**3)).real
    Cs = []
    for t, w in zip(q.times, res.values):
        Cs.append(abs(2 * math.pi * t * w.real - intf) * t * t)
    # |2 pi t w - int f| <= C/t^2 with stable C
    assert max(Cs) / min(Cs) < 2.0
    # and C matches the quadrature of |x|^2 f / 2 where the correction dominates
    assert abs(Cs[0] - int_x2f / 2.0) < 1e-2 * Cs[0]


def test_free_amplitude_bound(wave_free_result):
    q, res = wave_free_result
    l1 = (2 * math.pi * q.f.grid.integrate(np.abs(q.f.values) * q.f.grid.nodes)).real
    t, w = q.times[-1], res.values[-1]
    assert abs(w) <= 1.05 * l1 / (2 * math.pi * t)


def test_well_log_decay_ratio(wave_well_fx, wave_well_result):
    q, res = wave_well_result
    rep = wave_well_fx.report
    u0 = rep.Ulog.value_at(0.0).real
    int_ulog_f = inner(q.f, rep.Ulog).real
    ratios = [2 * math.pi * t * math.log(t) ** 2 * w.real / (u0 * int_ulog_f)
              for t, w in zip(q.times, res.values)]
    assert 0.8 <= ratios[-1] <= 1.2
    gaps = [abs(1.0 - r) for r in ratios]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_law_selection(wave_free_result, wave_well_result):
    qf, rf = wave_free_result
    qw, rw = wave_well_result
    free_fit = decay_fit(list(zip(qf.times, rf.values)))
    well_fit = decay_fit(list(zip(qw.times, rw.values)))
    assert free_fit.law == "t^-1"
    assert well_fit.law == "t^-1 (log t)^-2"
    intf = plane_integral(qf.f).real
    assert abs(free_fit.coefficient - intf / (2 * math.pi)) < 1e-3 * intf


def test_synthetic_roundtrips():
    ts = np.exp(np.linspace(math.log(1e2), math.log(1e5), 9))
    fit1 = decay_fit([(t, 3.0 / t) for t in ts])
    assert fit1.law == "t^-1" and abs(fit1.coefficient - 3.0) < 1e-6
    fit2 = decay_fit([(t, 5.0 / (t * math.log(t) ** 2)) for t in ts])
    assert fit2.law == "t^-1 (log t)^-2" and abs(fit2.coefficient - 5.0) < 1e-4


def test_decay_fit_validations():
    with pytest.raises(ValidationError):
        decay_fit([(1.0, 1.0), (2.0, 0.5)])
    ts = np.exp(np.linspace(math.log(1e2), math.log(1e5), 9))
    rng = np.random.default_rng(0)
    noisy = [(t, math.exp(rng.uniform(-1, 1)) / t**1.6) for t in ts]
    rep = decay_fit(noisy)
    assert rep.law == "inconclusive"


def test_quadrature_convergence(wave_free_result, wave_well_fx):
    # doubling the per-panel order on the free evolution moves nothing at the
    # reported times
    q, a = wave_free_result
    b = evolve(q, nodes_per_panel=32)
    for x, y in zip(a.values, b.values):
        assert abs(x - y) < 1e-6 * abs(y)
    # the deep repulsive well at t = 1e6 rides a five-decade oscillatory
    # cancellation; there the integrand's own sample floor dominates and only
    # a coarser stability guard is meaningful
    ts = (1e4, 1e6)
    qw = WaveQuery(wave_well_fx.scatterer, wave_well_fx.f, 0.0, ts)
    aw = evolve(qw, nodes_per_panel=16)
    bw = evolve(qw, nodes_per_panel=24)
    assert abs(aw.values[0] - bw.values[0]) < 2e-3 * abs(bw.values[0])
    assert abs(aw.values[1] - bw.values[1]) < 2e-2 * abs(bw.values[1])


def test_bound_state_refusal():
    s = PiecewisePotential((1.0,), (-5.0,))
    from lowfreq2d import default_cutoff, standard_grid, bump_edges
    chi = default_cutoff(s)
    grid = standard_grid(s, chi, extra_edges=bump_edges(1.0, 0.3))
    f = bump(grid, 1.0, 0.3, 0)
    with pytest.raises(BoundStateRefusal):
        evolve(WaveQuery(s, f, 0.0, (100.0,)))


def test_mode_zero_required(free_fx):
    with pytest.raises(ValidationError):
        WaveQuery(free_fx.scatterer, free_fx.source(1), 0.0, (1.0,))


def test_source_panel_integrand_matches_full_apply(dirichlet_fx, generic_well_fx):
    # evolve's integrand, from the Green data on the panels carrying f only,
    # agrees with the full Green application below the support, including on
    # obstacle grids starting at a0
    from lowfreq2d import mode_green, SpectralPoint
    from lowfreq2d.wave import _source_panels
    for fx, x_obs in ((dirichlet_fx, 1.02), (generic_well_fx, 0.0)):
        src = _source_panels(fx.f)
        assert x_obs < src.grid.rmin
        for lam in (SpectralPoint(0.3, 0.0), SpectralPoint(2.4, 0.0)):
            G = mode_green(fx.scatterer, lam, 0, src.grid).value_at(src, x_obs)
            full = mode_green(fx.scatterer, lam, 0, fx.grid).apply(fx.f)
            assert abs(G.imag - full.value_at(x_obs).imag) < 1e-11


def test_source_panel_integrand_inside_and_above_support(dirichlet_fx, generic_well_fx):
    # the same integrand for x inside the source support (apply on the source
    # panels) and above it (psi(x) times the phi moment), one batch per call
    from lowfreq2d import mode_green, SpectralPoint
    from lowfreq2d.wave import _source_panels
    lams = [SpectralPoint(0.3, 0.0), SpectralPoint(2.4, 0.0), SpectralPoint(7.0, 0.0)]
    for fx in (dirichlet_fx, generic_well_fx):
        src = _source_panels(fx.f)
        inside, above = fx.f_center + 0.5 * fx.f_half, src.grid.rmax + 0.7
        assert src.grid.rmin < inside < src.grid.rmax < above < fx.grid.rmax
        for x_obs in (inside, above):
            G = mode_green(fx.scatterer, lams, 0, src.grid).value_at(src, x_obs)
            assert G.shape == (len(lams),)
            for lam, g in zip(lams, G):
                full = mode_green(fx.scatterer, lam, 0, fx.grid).apply(fx.f)
                assert abs(g - full.value_at(x_obs)) < 1e-11


@pytest.mark.parametrize("edges", [(0.125, 0.25), (40.0, 40.25)])
def test_batched_integrand_matches_per_point(dirichlet_fx, generic_well_fx, edges):
    # one call per panel (a geometric panel of the base chunk, a tail panel)
    # gives the per-point values of the source-panel integrand
    from lowfreq2d import mode_green, SpectralPoint
    from lowfreq2d.wave import _source_panels
    nodes = PanelGrid(np.array(edges), 16).nodes
    for fx, x_obs in ((dirichlet_fx, 1.02), (generic_well_fx, 0.0)):
        src = _source_panels(fx.f)
        pts = [SpectralPoint(float(m), 0.0) for m in nodes]
        batch = mode_green(fx.scatterer, pts, 0, src.grid).value_at(src, x_obs).imag
        point = np.array([mode_green(fx.scatterer, p, 0, src.grid).value_at(src, x_obs).imag
                          for p in pts])
        assert batch.shape == nodes.shape
        assert np.max(np.abs(batch - point) / np.abs(point)) <= 1e-13


def test_tail_status_reported(wave_free_result, wave_well_result):
    from lowfreq2d.wave import LAM_CAP
    # the free sweep runs into the cap before its tail criterion holds; the
    # repulsive well's integrand dies out inside the base chunk
    _, free = wave_free_result
    assert free.lam_max == LAM_CAP and free.tail_converged is False
    _, well = wave_well_result
    assert well.lam_max < LAM_CAP and well.tail_converged is True
