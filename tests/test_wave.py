"""Spectral wave evolution: free and perturbed decay laws."""

import math

import numpy as np
import pytest

from lowfreq2d import PiecewisePotential, WaveQuery, bump, decay_fit, evolve, inner
from lowfreq2d.errors import BoundStateRefusal, ValidationError
from lowfreq2d.wave import OscillatoryPanels, _green_source, spherical_jn_table
from lowfreq2d.quadrature import PanelGrid, geometric_edges

from oracles import plane_integral, spherical_jn_all


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
    # evolve's panel layout, with an integrand whose panels cancel at large t;
    # the moment table of each time has the bits of the scalar recurrence,
    # panel by panel (its own Miller start and rescaling, math's sin and cos)
    edges = np.concatenate([geometric_edges(1e-9, 0.5), np.arange(0.75, 60.01, 0.25)])
    g = PanelGrid(edges, 16)
    vals = np.exp(-0.3 * g.nodes) * np.cos(3.0 * g.nodes) / (1.0 + np.log(g.nodes) ** 2)
    osc = OscillatoryPanels(edges, g._coeffs(vals))
    half = 0.5 * np.diff(edges)
    for t in np.exp(np.linspace(math.log(1e-2), math.log(1e6), 25)):
        ref = _sin_integral_loop(osc, t)
        assert abs(osc.sin_integral(t) - ref) <= 1e-14 * abs(ref)
        table = spherical_jn_table(15, t * half)
        assert np.array_equal(table, np.array([spherical_jn_all(15, t * h) for h in half]))


def test_spherical_bessel_recurrences():
    # downward and upward branches agree on their overlap
    for w in (20.0, 22.0, 23.5):
        down = spherical_jn_all(11, w)       # w <= nmax + 12 path
        up = spherical_jn_all(5, w)          # upward path for small nmax
        assert np.max(np.abs(down[:6] - up)) < 1e-14
    assert spherical_jn_all(4, 0.0)[0] == 1.0
    assert np.all(spherical_jn_all(4, 0.0)[1:] == 0.0)
    # the table mixes zero, both paths, Miller starts from nmax + 20 up and
    # the 1e250 rescaling of tiny w, each row as its own scalar recurrence
    w = np.array([0.0, 1e-9, 1e-3, 0.7, 5.0, 17.9, 23.0, 23.5, 40.0, 1e4])
    for nmax in (0, 1, 11):
        table = spherical_jn_table(nmax, w)
        assert np.array_equal(table, np.array([spherical_jn_all(nmax, x) for x in w]))


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
    # evolve's own t = 0 row (w(0) = 0), t <= 1, and a zero or non-finite w
    # leave log t, log log t or log|w| undefined
    clean = [(t, 1.0 / t) for t in ts]
    for bad in ([(0.0, 0j)] + clean, [(1.0, 1.0)] + clean, [(math.inf, 0.0)] + clean,
                clean + [(1e6, 0j)], clean + [(1e6, complex(math.nan, 0.0))],
                clean + [(1e6, complex(math.inf, 1.0))]):
        with pytest.raises(ValidationError):
            decay_fit(bad)


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


@pytest.mark.parametrize("breaks, value, kappas", [
    (1.0, -10.0, [2.6013]),
    (1.0, -100.0, [6.302, 8.662, 9.758]),
    (0.01, -25000.0, [81.0027]),
])
def test_bound_states_above_kappa_2_are_refused(breaks, value, kappas):
    # a bound state -kappa^2 of a real V lies above min V, so the mode-0 scan
    # runs to kappa = sqrt(-min V) and refuses these wells, whose bound
    # states all lie above kappa = 2, where a scan that stops there finds none
    import json
    import re
    from lowfreq2d import default_cutoff, standard_grid, bump_edges
    s = PiecewisePotential((breaks,), (value,))
    chi = default_cutoff(s)
    fc, fh = 0.5 * chi.r0, 0.4 * chi.r0
    f = bump(standard_grid(s, chi, extra_edges=bump_edges(fc, fh)), fc, fh, 0)
    with pytest.raises(BoundStateRefusal) as err:
        evolve(WaveQuery(s, f, 0.0, (100.0,)))
    found = json.loads(re.search(r"\[.*\]", str(err.value)).group())
    assert found == pytest.approx(kappas, rel=2e-4)


def test_mode_zero_required(free_fx):
    with pytest.raises(ValidationError):
        WaveQuery(free_fx.scatterer, free_fx.source(1), 0.0, (1.0,))


def test_source_panels_drop_only_rounding_panels(dirichlet_fx):
    # the bump's two outermost nonzero panels at each end peak at 3.8e-22 and
    # 7.6e-218 of max|f|: they are dropped, and every panel between stays
    from lowfreq2d.radial import SOURCE_REL, support_panels
    f, g = dirichlet_fx.f, dirichlet_fx.f.grid
    peaks = np.abs(f.values).reshape(g.npanels, g.n).max(axis=1)
    nonzero = np.flatnonzero(peaks > 0)
    (src,) = support_panels(f)
    lo = int(np.searchsorted(g.edges, src.grid.rmin))
    kept = np.arange(lo, lo + src.grid.npanels)
    assert np.array_equal(kept, nonzero[2:-2])
    assert np.all(peaks[nonzero[[0, 1, -2, -1]]] < SOURCE_REL * peaks.max())
    assert np.array_equal(src.grid.edges, g.edges[lo:lo + src.grid.npanels + 1])
    assert np.array_equal(src.values, f.values[lo * g.n:(lo + kept.size) * g.n])
    with pytest.raises(ValidationError):
        support_panels(f.scaled(0.0))


def test_source_trim_keeps_tail_rule(wave_free_result, wave_well_result, monkeypatch):
    # the trim moves the integrand by rounding only: lam_max and
    # tail_converged are those of the sweep on every nonzero source panel
    from lowfreq2d import radial
    monkeypatch.setattr(radial, "SOURCE_REL", 0.0)
    for q, trimmed in (wave_free_result, wave_well_result):
        full = evolve(q)
        assert (trimmed.lam_max, trimmed.tail_converged) == (full.lam_max, full.tail_converged)
        for a, b in zip(trimmed.values, full.values):
            assert abs(a - b) <= 1e-10 * abs(b)


def test_source_below_rounding_moves_no_output(wave_well_fx):
    # a bump 1e-19 times the source's peak, far outside it, is trimmed away,
    # and the tail rule reads the trimmed support: the sweep, its stopping
    # point and w are those of the plain bump (with the tail rule on the
    # untrimmed support the far bump would carry the sweep to lam = 36)
    from lowfreq2d import RadialFunction, bump_edges, default_cutoff, standard_grid
    s, fc, fh = wave_well_fx.scatterer, wave_well_fx.f_center, wave_well_fx.f_half
    grid = standard_grid(s, default_cutoff(s), extra_edges=bump_edges(fc, fh) + bump_edges(3.0, 0.3))
    plain = bump(grid, fc, fh)
    far = RadialFunction(0, grid, plain.values + 1e-19 * bump(grid, 3.0, 0.3).values)
    a, b = (evolve(WaveQuery(s, f, 0.0, (1e3, 2e3))) for f in (plain, far))
    assert (b.lam_max, b.tail_converged) == (12.0, True)
    assert (a.lam_max, a.tail_converged) == (b.lam_max, b.tail_converged)
    assert a.values == b.values


def test_source_panel_integrand_matches_full_apply(dirichlet_fx, generic_well_fx):
    # evolve's integrand, from the Green data on its source quadrature, agrees
    # with the full Green application below the support, including on
    # obstacle grids starting at a0
    from lowfreq2d import mode_green, SpectralBatch
    for fx, x_obs in ((dirichlet_fx, 1.02), (generic_well_fx, 0.0)):
        src = _green_source(fx.f, x_obs)
        assert x_obs < src.grid.rmin
        for lam in (SpectralBatch(0.3, 0.0), SpectralBatch(2.4, 0.0)):
            G = mode_green(fx.scatterer, lam, 0, src.grid).value_at(src, x_obs)
            full = mode_green(fx.scatterer, lam, 0, fx.grid).apply(fx.f)
            assert abs(G.imag - full.value_at(x_obs).imag) < 1e-11


def test_source_panel_integrand_inside_and_above_support(dirichlet_fx, generic_well_fx):
    # the same integrand for x inside the source support (apply on the source
    # quadrature, whose partial integrals take SUPPORT_NODES per panel: at
    # SOURCE_NODES the generic well's reads 1.1e-11 off at the cap) and above
    # it (psi(x) times the phi moment), one batch per call, up to the cap
    from lowfreq2d import SpectralBatch, mode_green
    from lowfreq2d.radial import support_panels
    from lowfreq2d.wave import LAM_CAP, SOURCE_NODES, SUPPORT_NODES
    lams = SpectralBatch([0.3, 2.4, 7.0, LAM_CAP], 0.0)
    for fx in (dirichlet_fx, generic_well_fx):
        support = support_panels(fx.f)[0].grid
        inside, above = fx.f_center + 0.5 * fx.f_half, support.rmax + 0.7
        assert support.rmin < inside < support.rmax < above < fx.grid.rmax
        for x_obs, n in ((inside, SUPPORT_NODES), (above, SOURCE_NODES)):
            src = _green_source(fx.f, x_obs)
            assert src.grid.n == n
            G = mode_green(fx.scatterer, lams, 0, src.grid).value_at(src, x_obs)
            assert G.shape == (len(lams),)
            for lam, g in zip(lams, G):
                full = mode_green(fx.scatterer, lam, 0, fx.grid).apply(fx.f)
                assert abs(g - full.value_at(x_obs)) < 1e-11


@pytest.mark.parametrize("edges", [0.5 * 2.0 ** np.arange(-12.0, 1.0),
                                   40.0 + 0.25 * np.arange(13)])
def test_batched_integrand_matches_per_point(dirichlet_fx, generic_well_fx, edges):
    # one full call of the sweep's batch on the fixture's source quadrature,
    # across panel edges (geometric panels of the base chunk, tail panels),
    # gives each point the bits of its own one-point call of the integrand
    from lowfreq2d import SpectralBatch, mode_green
    from lowfreq2d.radialsolve import BESSEL_BATCH
    nodes = PanelGrid(edges, 16).nodes
    for fx, x_obs in ((dirichlet_fx, 1.02), (generic_well_fx, 0.0)):
        src = _green_source(fx.f, x_obs)
        batch = BESSEL_BATCH // len(src.grid)
        assert 16 < batch <= nodes.size
        pts = SpectralBatch(nodes[:batch], 0.0)
        full = mode_green(fx.scatterer, pts, 0, src.grid).value_at(src, x_obs).imag
        point = np.array([mode_green(fx.scatterer, p, 0, src.grid).value_at(src, x_obs).imag
                          for p in pts])
        assert full.shape == (batch,)
        assert np.array_equal(full, point)


def test_chunk_solve_slices_match_their_own_calls(dirichlet_fx, generic_well_fx):
    # a resolvent sweep's calls on slices of its one solve give the bits of
    # calls that solve on their own, below the source (phi(x) through the
    # sweep's solve), inside it and above it (psi(x) through the sweep's solve)
    from lowfreq2d import SpectralBatch, mode_green
    from lowfreq2d.radial import support_panels
    from lowfreq2d.radialsolve import BESSEL_BATCH
    from lowfreq2d.resolvent import green_sweep
    lams = SpectralBatch(PanelGrid(np.arange(0.5, 6.01, 0.25), 16).nodes[:400], 0.0)
    for fx in (dirichlet_fx, generic_well_fx):
        support = support_panels(fx.f)[0].grid
        for x_obs in (0.5 * (fx.scatterer.inner_radius + support.rmin), fx.f_center,
                      support.rmax + 0.7):
            src = _green_source(fx.f, x_obs)
            spreads = []

            def read(green):
                spreads.append(green.wronskian_spread)
                return green.value_at(src, x_obs)

            got = green_sweep(fx.scatterer, lams, 0, src.grid, read)
            step = BESSEL_BATCH // len(src.grid)
            refs = [mode_green(fx.scatterer, lams[i:i + step], 0, src.grid)
                    for i in range(0, len(lams), step)]
            assert len(refs) > 1
            assert np.array_equal(got, np.concatenate([r.value_at(src, x_obs) for r in refs]))
            assert spreads == [r.wronskian_spread for r in refs]


@pytest.mark.parametrize("cfg_text, splits", [
    ("kind = potential; breaks = 1; values = 2.5; cutoff.r0 = 8", True),
    ("kind = potential; breaks = 1; values = 2.5", True),
    ("kind = disk; radius = 1.06; bc = dirichlet", False),
    ("kind = disk; radius = 1.06; bc = neumann", False),
])
def test_wide_source_panels_split_for_the_sweep(cfg_text, splits):
    # on a repulsive well with cutoff.r0 = 8 the CLI source's widest trimmed
    # panels have LAM_CAP x half-width = 43: the source quadrature splits them
    # (the plain well's two panels around r = 0.75 in two each, while the CLI
    # disks' panels fit as they are), and on every CLI source its integrand
    # at the CLI's observation radius matches the exact bump on every trimmed
    # panel split 8 ways at 32 nodes, from lam = 0.01 to the cap (the trimmed
    # 32-node panels alone are off by 5e-8 max|G| at lam = 60 with
    # cutoff.r0 = 8)
    from lowfreq2d import PiecewisePotential, SpectralBatch, mode_green, standard_grid
    from lowfreq2d.cli import _source_edges, _source_geometry, canonical_source
    from lowfreq2d.scatterer import parse_config
    from lowfreq2d.radial import support_panels
    from lowfreq2d.wave import LAM_CAP, SOURCE_NODES
    cfg = parse_config(cfg_text + "\n")
    s = cfg.scatterer
    edges = _source_edges(cfg)
    f = canonical_source(cfg, standard_grid(s, cfg.cutoff, extra_edges=edges))
    x_obs = 0.0 if isinstance(s, PiecewisePotential) else 0.5 * (s.inner_radius + edges[0])
    e = support_panels(f)[0].grid.edges
    src = _green_source(f, x_obs)
    assert x_obs < src.grid.rmin
    assert (src.grid.npanels > len(e) - 1) == splits
    assert LAM_CAP * 0.5 * np.max(np.diff(src.grid.edges)) <= SOURCE_NODES / 2
    fine = PanelGrid(np.append(np.linspace(e[:-1], e[1:], 9, axis=1)[:, :-1].ravel(), e[-1]), 32)
    exact = bump(fine, *_source_geometry(cfg))
    lams = SpectralBatch([0.01, 0.5, 7.0, 30.0, LAM_CAP], 0.0)
    G = mode_green(s, lams, 0, src.grid).value_at(src, x_obs).imag
    ref = mode_green(s, lams, 0, fine).value_at(exact, x_obs).imag
    assert np.max(np.abs(G - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_cli_wave_work(tmp_path, monkeypatch):
    # a CLI wave on the Dirichlet disk of radius 1.06 takes its Green data on
    # the 12-node source quadrature in calls of about BESSEL_BATCH points,
    # with the lam chunks above 20 at half order: 380 064 Bessel points in
    # 22 mode_green calls (713 504 in 34 with every chunk at full order on
    # the 16-node source, 1 397 024 in 67 on the 32-node source with 64
    # spectral points per call).  Each of the 7 chunks is solved once, with
    # its probes and observation radius in its boundary's bessel_pair call:
    # 7 green_pair and 29 bessel_pair calls (22 node calls and 7 boundary
    # calls; an obstacle has no bound state to scan for), where a solve per
    # mode_green call made 22 and 89.  No call takes more than BESSEL_BATCH node points, which
    # bounds the temporaries (one call per chunk would raise peak memory)
    from lowfreq2d import radialsolve, resolvent
    from lowfreq2d.cli import main
    points, bessel_calls, solves, calls = [0], [0], [0], [0]

    def count_points(l, z, logz, slot=None):
        points[0] += np.size(z)
        bessel_calls[0] += 1
        return bessel_pair(l, z, logz, slot)

    def count_solves(*args):
        solves[0] += 1
        return green_pair(*args)

    def count_calls(s, lam, l, grid, **kwargs):
        calls[0] += 1
        assert len(lam) * len(grid) <= radialsolve.BESSEL_BATCH
        return mode_green(s, lam, l, grid, **kwargs)

    bessel_pair, green_pair, mode_green = (radialsolve.bessel_pair, resolvent.green_pair,
                                           resolvent.mode_green)
    monkeypatch.setattr(radialsolve, "bessel_pair", count_points)
    monkeypatch.setattr(resolvent, "green_pair", count_solves)
    monkeypatch.setattr(resolvent, "mode_green", count_calls)
    cfg = tmp_path / "disk.cfg"
    cfg.write_text("kind = disk; radius = 1.06; bc = dirichlet\n")
    assert main(["wave", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert points[0] <= 400_000
    assert calls[0] <= 22
    assert solves[0] <= 7
    assert bessel_calls[0] == 29


def test_moment_table_matches_per_time_calls(tmp_path, monkeypatch):
    # on the panels of the 1.06 Dirichlet disk's sweep, each time of one
    # moment table, and of one tail completion, has the bits of its own call,
    # for times from 1e-2 to 1e6 in any array shape
    res, _, _ = _cli_wave(tmp_path, monkeypatch, "kind = disk; radius = 1.06; bc = dirichlet")
    osc = res.panels
    times = np.concatenate([np.exp(np.linspace(math.log(1e-2), math.log(1e6), 25)),
                            [1.0, 10.0, 100.0]])
    for method in (osc.sin_integral, osc.tail_completion):
        table = method(times)
        assert table.shape == times.shape
        assert np.array_equal(table, [method(float(t)) for t in times])
        assert np.array_equal(method(times.reshape(4, 7)), table.reshape(4, 7))
        assert method(np.array([])).shape == (0,)


@pytest.mark.parametrize("x, times", [
    (0.0, (100.0, float("nan"))),      # `t > 0` is false for NaN: it would read w = 0
    (0.0, (float("inf"),)),            # sin(inf) in the moments
    (float("nan"), (100.0,)),          # phi(nan) only after the whole sweep
    (-0.5, (100.0,)),
    (float("inf"), (100.0,)),
    (0.0, (-1.0,)),
])
def test_wave_query_rejects_non_finite_or_negative_input(free_fx, x, times):
    # rejected when the query is made, before any solve
    with pytest.raises(ValidationError):
        WaveQuery(free_fx.scatterer, free_fx.f, x, times)


def test_below_support_value_leaves_node_derivatives_unbuilt(dirichlet_fx, generic_well_fx,
                                                            monkeypatch):
    # evolve's integrand reads values only: no order-(l + 1) Bessel slot on
    # the grid nodes (one pair call takes the boundary radius or the
    # breakpoint sides and the five Wronskian probes per spectral point),
    # and no node derivatives until apply asks for them
    from lowfreq2d import SpectralBatch, mode_green, radialsolve
    seen = []

    def spy(l, z, logz, slot=None):
        seen.append((np.size(z), slot))
        return bessel_pair(l, z, logz, slot)

    bessel_pair = radialsolve.bessel_pair
    monkeypatch.setattr(radialsolve, "bessel_pair", spy)
    lams = SpectralBatch([0.3, 2.4, 7.0], 0.0)
    for fx, x_obs in ((dirichlet_fx, 1.02), (generic_well_fx, 0.0)):
        src = _green_source(fx.f, x_obs)
        s = fx.scatterer
        fused = 5 + (2 * len(s.breaks) if isinstance(s, PiecewisePotential) else 1)
        seen.clear()
        sample = mode_green(s, lams, 0, src.grid)
        sample.value_at(src, x_obs)
        assert [n for n, slot in seen if slot != 0] == [fused * len(lams)]
        assert fused * len(lams) < len(lams) * len(src.grid)
        assert "_ders" not in vars(sample)
        sample.apply(src)
        assert "_ders" in vars(sample)


def test_below_support_value_leaves_the_node_values_until_read(dirichlet_fx, generic_well_fx):
    # value_at below the source reads psi on the nodes and phi at x alone:
    # the node values of phi and psi are formed on first read, with the bits
    # of the solutions on the nodes, phi as solved
    from lowfreq2d import SpectralBatch, mode_green
    for fx, x_obs in ((dirichlet_fx, 1.02), (generic_well_fx, 0.0)):
        src = _green_source(fx.f, x_obs)
        for lams in (SpectralBatch([0.3, 2.4, 7.0], 0.0), SpectralBatch(1.3, 0.2)):
            sample = mode_green(fx.scatterer, lams, 0, src.grid)
            sample.value_at(src, x_obs)
            assert "_nodes" not in vars(sample)
            eager = sample.solutions.values(src.grid.nodes).reshape((2,) + lams.shape + (-1,))
            assert sample._nodes.dtype == complex
            assert np.array_equal(sample._nodes.view(np.uint64), eager.view(np.uint64))


def test_point_read_off_the_source_combines_its_partner_alone(dirichlet_fx, generic_well_fx,
                                                             monkeypatch):
    # value_at off the source combines one solution on the nodes, the partner
    # (psi below the source, phi above it), and forms no node table of the
    # other: mode_green reads the Wronskian probes alone
    from lowfreq2d import SpectralBatch, mode_green, radialsolve
    from lowfreq2d.radial import support_panels
    combine, shapes = radialsolve.PiecewiseSolution._combine, []

    def spy(self, r, slot, bases=None):
        out = combine(self, r, slot, bases)
        shapes.append((len(r), out.shape))
        return out

    monkeypatch.setattr(radialsolve.PiecewiseSolution, "_combine", spy)
    lams = SpectralBatch([0.3, 2.4, 7.0], 0.0)
    for fx, below in ((dirichlet_fx, 1.02), (generic_well_fx, 0.0)):
        for x in (below, support_panels(fx.f)[0].grid.rmax + 0.7):
            src = _green_source(fx.f, x)
            shapes.clear()
            sample = mode_green(fx.scatterer, lams, 0, src.grid)
            sample.value_at(src, x)
            assert [shape for n, shape in shapes if n == len(src.grid)] == [(1, 1, 3, len(src.grid))]
            assert not {"_nodes", "_ders"} & set(vars(sample))


def test_tail_status_reported(wave_free_result, wave_well_result):
    from lowfreq2d.wave import LAM_CAP
    # the free sweep runs into the cap before its tail criterion holds; the
    # repulsive well's integrand dies out inside the base chunk
    _, free = wave_free_result
    assert free.lam_max == LAM_CAP and free.tail_converged is False
    _, well = wave_well_result
    assert well.lam_max < LAM_CAP and well.tail_converged is True


def _cli_wave(tmp_path, monkeypatch, cfg_text, code=0):
    """(result, spectral samples, decay.json) of a CLI wave on cfg_text that
    exits with code."""
    import json
    from lowfreq2d import cli, resolvent, wave
    from lowfreq2d.cli import main
    seen, samples = [], [0]

    def count_samples(s, lams, *args, **kwargs):
        samples[0] += len(lams)
        return mode_green(s, lams, *args, **kwargs)

    def keep(q):
        seen.append(evolve(q))
        return seen[-1]

    mode_green, evolve = resolvent.mode_green, wave.evolve
    monkeypatch.setattr(resolvent, "mode_green", count_samples)
    monkeypatch.setattr(cli, "evolve", keep)
    cfg = tmp_path / "wave.cfg"
    cfg.write_text(cfg_text + "\n")
    assert main(["wave", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
    return seen[0], samples[0], json.loads((tmp_path / "out" / "decay.json").read_text())


def test_half_order_chunks_keep_the_lam_edges(tmp_path, monkeypatch):
    # on the Dirichlet disk of radius 1.06 the chunks above lam = 20 run at
    # 8 nodes per panel: 2992 spectral samples where every chunk at full
    # order takes 4272, on the same lam edges, and its panels' top two
    # sampled Legendre coefficients stay at 2.7e-12 of max|G|
    from lowfreq2d.wave import LAM_FLOOR, LAM_GEOMETRIC_TOP
    res, samples, decay = _cli_wave(tmp_path, monkeypatch, "kind = disk; radius = 1.06; bc = dirichlet")
    edges = np.concatenate([geometric_edges(LAM_FLOOR, LAM_GEOMETRIC_TOP)[:-1],
                            np.arange(LAM_GEOMETRIC_TOP, 60.0 + 1e-9, 0.25)])
    assert np.array_equal(res.panels.edges, edges)
    assert res.panels.coeffs.shape == (len(edges) - 1, 16)
    assert samples <= 3000
    assert decay["legendreTail"] == res.legendre_tail < 1e-10


def test_unresolved_sweep_stays_at_full_order(tmp_path, monkeypatch):
    # the shell barrier (no bound state) is not resolved by 16-node panels:
    # their top two Legendre coefficients reach 0.34 max|G|, decay.json
    # reports it, the run exits 3, and no chunk drops to half order or is
    # sampled twice
    res, samples, decay = _cli_wave(tmp_path, monkeypatch,
                                    "kind = potential; breaks = 0.5, 1; values = 0, 300", code=3)
    assert decay["legendreTail"] == res.legendre_tail > 1e-3
    assert samples == res.panels.coeffs.size


def test_half_order_chunk_resampled_when_its_tail_is_unresolved():
    # a chunk tried at half order keeps it only when its panels' top two
    # coefficients sit within TAIL_REL of max|G|; cos(40 lam) on 0.25-wide
    # panels needs more than 8 nodes, 1 + lam does not
    from lowfreq2d.wave import _sample_chunk
    chunk = np.arange(12.0, 20.0 + 1e-9, 0.25)
    for g, orders in ((lambda lam: np.cos(40.0 * lam), [8, 16]), (lambda lam: 1.0 + lam, [8])):
        seen = []

        def sample(lam):
            seen.append(lam.size // (chunk.size - 1))
            return g(lam)

        nodes, vals, coeffs = _sample_chunk(sample, chunk, 8, 16, 1.0)
        assert seen == orders
        assert nodes.size == vals.size == coeffs.size == (chunk.size - 1) * orders[-1]
