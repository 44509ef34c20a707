"""Matrix-element sampling and log-Laurent structure recovery."""

import math

import numpy as np
import pytest

from lowfreq2d import (FitTerm, GAMMA0, SpectralBatch, expansion_grid, fit_log_laurent,
                       fit_shape, inner, nonresonant_terms,
                       predict_leading_terms, resonant_terms, sample_matrix_element)
from lowfreq2d.errors import IllConditionedFitError, ShapeMismatchError, ValidationError

from oracles import log_power_terms, plane_integral


def _max_contrib(fit, term, pts):
    c = fit.coefficient(term)
    return max(abs(c * t) for t in term.evaluate(pts, fit.shift_estimate))


# -- sampling ------------------------------------------------------------------

def test_orthogonal_channels_sample_to_zero(free_fx, default_grid_pts):
    f = free_fx.source(1, "cos")
    g = free_fx.source(1, "sin")
    vals = sample_matrix_element(free_fx.scatterer, f, g, default_grid_pts.points[:3])
    assert np.all(vals == 0.0)


def test_batched_samples_match_per_point(dirichlet_fx, p_well_fx):
    # one full slice of the sweep and a partial one, on two rays and both
    # modes a sweep can carry; reference is one mode_green per point
    from lowfreq2d import mode_green
    from lowfreq2d.radial import support_panels
    from lowfreq2d.radialsolve import BESSEL_BATCH
    for fx, mode in ((dirichlet_fx, 0), (p_well_fx, 1)):
        f = fx.source(mode)
        n = BESSEL_BATCH // len(support_panels(f, f)[0].grid) + 5
        mods = np.geomspace(1e-6, 1e-2, n)
        pts = SpectralBatch(mods, np.where(np.arange(n) % 2, 1.2, math.pi / 4))
        batch = sample_matrix_element(fx.scatterer, f, f, pts)
        point = np.array([inner(mode_green(fx.scatterer, p, mode, fx.grid).apply(f), f)
                          for p in pts])
        assert batch.shape == (n,)
        assert np.max(np.abs(batch - point) / np.abs(point)) <= 1e-14


def test_matrix_elements_build_no_node_derivatives(dirichlet_fx, monkeypatch):
    # <R(lam) f, g> reads u alone: no order-(l + 1) Bessel slot on the grid
    # nodes, only the boundary solve and the five Wronskian probes per point;
    # the order-l slot takes only the nodes of the trimmed support
    from lowfreq2d import radialsolve
    from lowfreq2d.radial import support_panels
    bessel_pair, seen = radialsolve.bessel_pair, []

    def spy(l, z, logz, slot=None):
        seen.append((np.size(z), slot))
        return bessel_pair(l, z, logz, slot)

    monkeypatch.setattr(radialsolve, "bessel_pair", spy)
    pts = SpectralBatch([1e-4, 1e-3, 1e-2], math.pi / 4)
    for mode in (0, 2):
        f = dirichlet_fx.source(mode)
        seen.clear()
        sample_matrix_element(dirichlet_fx.scatterer, f, f, pts)
        assert max(n for n, slot in seen if slot != 0) <= 6 * len(pts) < len(dirichlet_fx.grid)
        support = support_panels(f, f)[0].grid
        assert len(support) < len(dirichlet_fx.grid)
        assert sum(n for n, slot in seen if slot == 0) == len(pts) * len(support)


@pytest.mark.parametrize("g_center, g_half", [
    (1.1, 0.25),        # overlaps f's support and ends past it
    (1.25, 0.6),        # covers f's support and reaches far past it
    (1.6, 0.2),         # beyond f's support, with a gap between
])
def test_trimmed_samples_match_full_grid(generic_well_fx, g_center, g_half):
    # the samples on the run of panels where f or g is above rounding match
    # the Green data on every node of the grid
    from lowfreq2d import bump, mode_green
    fx = generic_well_fx
    g = bump(fx.grid, g_center, g_half)
    pts = SpectralBatch(np.tile([1e-6, 1e-3, 1e-2, 0.3], 2), np.repeat([math.pi / 4, math.pi / 3], 4))
    trimmed = sample_matrix_element(fx.scatterer, fx.f, g, pts)
    full = np.array([inner(mode_green(fx.scatterer, p, 0, fx.grid).apply_values(fx.f), g)
                     for p in pts])
    assert np.max(np.abs(trimmed - full) / np.abs(full)) <= 1e-14


def test_vanishing_pair_samples_to_zero(generic_well_fx, default_grid_pts):
    f = generic_well_fx.f.scaled(0.0)
    vals = sample_matrix_element(generic_well_fx.scatterer, f, f, default_grid_pts.points[:3])
    assert vals.shape == (3,) and np.all(vals == 0.0)
    # an empty batch samples to an empty array
    f = generic_well_fx.f
    vals = sample_matrix_element(generic_well_fx.scatterer, f, f, default_grid_pts.points[:0])
    assert vals.shape == (0,) and vals.dtype == complex


def test_cli_expand_work(tmp_path, monkeypatch):
    # a CLI expand on the Dirichlet disk of radius 1.06 takes its Green data
    # on the trimmed support of the source in one resolvent sweep: its 32
    # points make 10 432 Bessel points, one slice of the sweep, in 1 green_pair
    # solve, 1 mode_green call and 2 bessel_pair calls, the Wronskian probes
    # in the boundary's (30 912 in 4 calls on every node of the grid with 8
    # points per call)
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

    def count_calls(*args, **kwargs):
        calls[0] += 1
        return mode_green(*args, **kwargs)

    bessel_pair, green_pair, mode_green = (radialsolve.bessel_pair, resolvent.green_pair,
                                           resolvent.mode_green)
    monkeypatch.setattr(radialsolve, "bessel_pair", count_points)
    monkeypatch.setattr(resolvent, "green_pair", count_solves)
    monkeypatch.setattr(resolvent, "mode_green", count_calls)
    cfg = tmp_path / "disk.cfg"
    cfg.write_text("kind = disk; radius = 1.06; bc = dirichlet\n")
    assert main(["expand", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert points[0] <= 11_000
    assert calls[0] == 1
    assert solves[0] == 1
    assert bessel_calls[0] <= 2


def test_selfadjoint_pairing_symmetry(generic_well_fx):
    fx = generic_well_fx
    lam = SpectralBatch([0.3], math.pi / 2)
    from lowfreq2d import bump
    g = bump(fx.grid, 1.1, 0.25, 0)
    a = sample_matrix_element(fx.scatterer, fx.f, g, lam)[0]
    b = sample_matrix_element(fx.scatterer, g, fx.f, lam)[0]
    assert abs(a - np.conj(b)) < 1e-10 * abs(a)   # real symmetric kernel at iK


def test_free_leading_log_coefficient(free_fx):
    # difference of two samples isolates the log coefficient -(1/2pi)(int f)^2
    pts = SpectralBatch([1e-7, 1e-5], math.pi / 4)
    v = sample_matrix_element(free_fx.scatterer, free_fx.f, free_fx.f, pts)
    slope = (v[1] - v[0]) / (pts[1].log - pts[0].log)
    intf = plane_integral(free_fx.f)
    expected = -intf * intf / (2.0 * math.pi)
    assert abs(slope - expected) < 2e-3 * abs(expected)


# -- fitting --------------------------------------------------------------------

def test_synthetic_roundtrip():
    eg = expansion_grid()
    terms = [FitTerm(0, 0), FitTerm(0, 1), FitTerm(1, 1), FitTerm(0, 1, pole=True)]
    coefficients = [1.3 - 0.2j, -0.4j, 2.0, 0.7 + 0.1j]
    shift = GAMMA0 + 0.3
    samples = sum(c * t.evaluate(eg.points, shift) for t, c in zip(terms, coefficients))
    fit = fit_log_laurent(samples, eg, terms, shift0=GAMMA0 + 0.2 - 0.05j)
    assert abs(fit.shift_estimate - shift) < 1e-7
    for t, c in zip(terms, coefficients):
        assert abs(fit.coefficient(t) - c) < 1e-8 * max(1.0, abs(c))
    assert fit.residual < 1e-9


def test_fit_evaluates_regular_terms_then_pole_terms(p_well_fx, samples_p_well,
                                                     default_grid_pts):
    # the 1/r shape interleaves its terms: lam^-2, a pole, the regular terms,
    # then the j = 0 poles; the series sums the regular terms and then the
    # pole terms, each group in terms order, bit for bit, and the held-out
    # residual reads that sum
    f, samples = samples_p_well
    terms, shift0 = fit_shape(p_well_fx.report, f, jmax=1, kmax=1)
    assert [t.pole for t in terms[:3]] == [False, True, False]
    fit = fit_log_laurent(samples, default_grid_pts, terms, shift0=shift0)
    held = np.flatnonzero(default_grid_pts.held_out)
    pts = default_grid_pts.points[held]
    expected = np.zeros(len(pts), dtype=complex)
    for t in [t for t in terms if not t.pole] + [t for t in terms if t.pole]:
        expected += fit.coefficient(t) * t.evaluate(pts, fit.shift_estimate)
    got = fit.evaluate(pts)
    assert got.tobytes() == expected.tobytes()
    assert fit.residual == float(np.max(np.abs(got - samples[held]) / np.abs(samples[held])))
    assert fit.coefficient(FitTerm(2, 0)) == 0.0     # a term not fitted


def test_needs_enough_samples():
    eg = expansion_grid(count=6)        # 12 training samples for 10 terms
    with pytest.raises(ValidationError, match="2x"):
        fit_log_laurent(np.ones(14, dtype=complex), eg, resonant_terms(2, 3))


def test_ill_conditioned_fit_raises(samples_dirichlet, default_grid_pts):
    terms = [FitTerm(0, 0), FitTerm(0, 0)]   # exactly collinear columns
    with pytest.raises(IllConditionedFitError):
        fit_log_laurent(samples_dirichlet, default_grid_pts, terms)


def test_dirichlet_nonresonant_fit(dirichlet_fx, samples_dirichlet, default_grid_pts):
    rep = dirichlet_fx.report
    fit = fit_log_laurent(samples_dirichlet, default_grid_pts, nonresonant_terms(1, 2),
                          shift0=GAMMA0 + 0.05 + 0.03j)
    assert abs(fit.shift_estimate - rep.a) < 1e-3
    pred = predict_leading_terms(rep, dirichlet_fx.f, dirichlet_fx.f)
    fitted = fit.coefficient(FitTerm(0, 1, pole=True))
    assert abs(fitted - pred["(log-a)^-1"]) < 1e-2 * abs(pred["(log-a)^-1"])
    assert fit.residual < 1e-6
    # no zero eigenspace: the lam^-2 prediction is exactly zero
    assert pred["lam^-2"] == 0.0


def test_neumann_resonant_fit_and_spurious_terms(neumann_fx, samples_neumann, default_grid_pts):
    rep = neumann_fx.report
    terms = log_power_terms(jmax=1, kmin=-2, kmax=2, capped=False)
    fit = fit_log_laurent(samples_neumann, default_grid_pts, terms)
    pred = predict_leading_terms(rep, neumann_fx.f, neumann_fx.f)
    c_log = fit.coefficient(FitTerm(0, 1))
    assert abs(c_log - pred["log^1"]) < 1e-2 * abs(pred["log^1"])
    # U0 = 1 outside the disk, so the prediction equals -(1/2pi)(int f)^2
    intf = plane_integral(neumann_fx.f)
    assert abs(pred["log^1"] + intf * intf / (2 * math.pi)) < 1e-10 * abs(intf) ** 2
    lead = _max_contrib(fit, FitTerm(0, 1), default_grid_pts.points)
    for t in (FitTerm(0, 2), FitTerm(0, -1), FitTerm(0, -2)):
        assert _max_contrib(fit, t, default_grid_pts.points) < 1e-4 * lead
    assert fit.residual < 1e-6


def test_free_resonant_fit(free_fx, samples_free, default_grid_pts):
    rep = free_fx.report
    fit = fit_log_laurent(samples_free, default_grid_pts, resonant_terms(1, 3))
    pred = predict_leading_terms(rep, free_fx.f, free_fx.f)
    c_log = fit.coefficient(FitTerm(0, 1))
    assert abs(c_log - pred["log^1"]) < 1e-2 * abs(pred["log^1"])
    assert fit.residual < 1e-6


def test_s_well_resonant_fit_and_noneglog(s_well_fx, samples_s_well, default_grid_pts):
    rep = s_well_fx.report
    terms = log_power_terms(jmax=1, kmin=-2, kmax=3)
    fit = fit_log_laurent(samples_s_well, default_grid_pts, terms)
    pred = predict_leading_terms(rep, s_well_fx.f, s_well_fx.f)
    c_log = fit.coefficient(FitTerm(0, 1))
    assert abs(c_log - pred["log^1"]) < 1e-2 * abs(pred["log^1"])
    # s-resonance without p-resonance: no negative log powers
    lead = _max_contrib(fit, FitTerm(0, 1), default_grid_pts.points)
    for t in (FitTerm(0, -1), FitTerm(0, -2)):
        assert _max_contrib(fit, t, default_grid_pts.points) < 1e-4 * lead
    assert fit.residual < 1e-6


def test_shape_selection_matches_classification(samples_dirichlet, samples_neumann,
                                                default_grid_pts):
    # resonant shape on the resonant scatterer fits; on the non-resonant one
    # it structurally cannot reach the held-out tolerance (and vice versa)
    res_on_neumann = fit_log_laurent(samples_neumann, default_grid_pts, resonant_terms(1, 3))
    assert res_on_neumann.residual < 1e-6
    res_on_dirichlet = fit_log_laurent(samples_dirichlet, default_grid_pts,
                                       resonant_terms(1, 3))
    assert res_on_dirichlet.residual > 1e-6
    nonres_on_dirichlet = fit_log_laurent(samples_dirichlet, default_grid_pts,
                                          nonresonant_terms(1, 2), shift0=GAMMA0)
    assert nonres_on_dirichlet.residual < 1e-6


def test_easysum_geometric_ladder(dirichlet_fx):
    # unshifted negative powers: B_{0,-2}/B_{0,-1} ~ a; the slowly-converging
    # free ladder needs a denser grid and a deeper truncation than the
    # resummed pole form
    rep = dirichlet_fx.report
    eg = expansion_grid(count=36)
    samples = sample_matrix_element(dirichlet_fx.scatterer, dirichlet_fx.f,
                                    dirichlet_fx.f, eg.points)
    terms = log_power_terms(jmax=1, kmin=-5, kmax=1)
    fit = fit_log_laurent(samples, eg, terms)
    b1 = fit.coefficient(FitTerm(0, -1))
    b2 = fit.coefficient(FitTerm(0, -2))
    assert abs(b2 / b1 - rep.a) < 1e-2 * abs(rep.a)
    pred = predict_leading_terms(rep, dirichlet_fx.f, dirichlet_fx.f)
    assert abs(b1 - pred["log^-1"]) < 1e-2 * abs(pred["log^-1"])


def test_p_well_singular_term(p_well_fx, samples_p_well, default_grid_pts):
    rep = p_well_fx.report
    f, samples = samples_p_well
    pred = predict_leading_terms(rep, f, f)
    terms, shift0 = fit_shape(rep, f, jmax=1, kmax=1)
    fit = fit_log_laurent(samples, default_grid_pts, terms, shift0=shift0)
    fitted = fit.coefficient(FitTerm(-1, 1, pole=True))
    expected = pred["lam^-2*(log-s1)^-1"]
    assert abs(expected - inner(f, rep.Uw[0]) * inner(rep.Uw[0], f) / math.pi) < 1e-12
    assert abs(fitted - expected) < 1e-2 * abs(expected)
    # no zero eigenvalue: the plain lam^-2 coefficient is noise-level
    lam_m2 = abs(fit.coefficient(FitTerm(-1, 0)))
    assert lam_m2 < 1e-3 * abs(expected)


def test_p_well_shift_recovery(p_well_fx, samples_p_well, default_grid_pts):
    rep = p_well_fx.report
    f, samples = samples_p_well
    terms, shift0 = fit_shape(rep, f, jmax=1, kmax=1)
    fit = fit_log_laurent(samples, default_grid_pts, terms, shift0=shift0 + 0.05 - 0.03j)
    assert abs(fit.shift_estimate - rep.s[0]) < 5e-2


def test_eig_well_coefficients(eig_well_fx, samples_eig_well, eig_grid_pts):
    rep = eig_well_fx.report
    f, samples = samples_eig_well
    pred = predict_leading_terms(rep, f, f)
    l, psi = rep.eigen_modes[0]
    assert abs(pred["lam^-2"] + abs(inner(f, psi)) ** 2) < 1e-10
    terms, shift0 = fit_shape(rep, f, jmax=1, kmax=1)
    fit = fit_log_laurent(samples, eig_grid_pts, terms, shift0=shift0)
    c_m2 = fit.coefficient(FitTerm(-1, 0))
    c_log = fit.coefficient(FitTerm(0, 1))
    assert abs(c_m2 - pred["lam^-2"]) < 1e-2 * abs(pred["lam^-2"])
    assert abs(c_log - pred["log^1"]) < 5e-2 * abs(pred["log^1"])


def test_fit_shape_reads_the_source_channel(neumann_fx, dirichlet_fx, p_well_fx, eig_well_fx,
                                            generic_well_fx):
    regular = resonant_terms(1, 2)
    # mode 0 holds U0 or Ulog, whatever the other modes hold; the resonant
    # shape, with no pole terms, runs one order past jmax
    assert fit_shape(neumann_fx.report, neumann_fx.f, 1, 2) == (resonant_terms(2, 2), None)
    for fx in (dirichlet_fx, p_well_fx, eig_well_fx):
        assert fit_shape(fx.report, fx.source(0), 1, 2) == (nonresonant_terms(1, 2), fx.report.a)
    # the 1/r state: lam^-2, its shifted pole and the j = 0 poles to k = 2, from s_m
    rep = p_well_fx.report
    for trig, sm in zip(("cos", "sin"), rep.s):
        terms, shift0 = fit_shape(rep, p_well_fx.source(1, trig), 1, 2)
        assert shift0 == sm
        assert terms == ([FitTerm(-1, 0), FitTerm(-1, 1, pole=True)] + regular
                         + [FitTerm(0, 1, pole=True), FitTerm(0, 2, pole=True)])
    # the eigenfunction: lam^-2 on top of the regular terms, no pole
    for trig in ("cos", "sin"):
        assert fit_shape(eig_well_fx.report, eig_well_fx.source(2, trig), 1, 2) == (
            [FitTerm(-1, 0)] + regular, None)
    for fx, mode in ((generic_well_fx, 1), (p_well_fx, 2), (eig_well_fx, 3)):
        with pytest.raises(ShapeMismatchError, match=f"mode-{mode}"):
            fit_shape(fx.report, fx.source(mode), 1, 2)


def test_log_a_pole_prediction_follows_the_source_channel(p_well_fx, eig_well_fx):
    # a 1/r state or an eigenfunction outside mode 0 leaves the mode-0
    # source's (log-a)^-1 term as it is; a mode-1 source sharing the 1/r
    # state's channel has none
    for fx in (p_well_fx, eig_well_fx):
        f = fx.source(0)
        pred = predict_leading_terms(fx.report, f, f)
        assert pred["(log-a)^-1"] != 0
    f1 = p_well_fx.source(1)
    assert "(log-a)^-1" not in predict_leading_terms(p_well_fx.report, f1, f1)


def test_prediction_shape_guard(s_well_fx, neumann_fx):
    # a bounded zero-energy state leaves no shifted pole to predict
    for fx in (s_well_fx, neumann_fx):
        assert "(log-a)^-1" not in predict_leading_terms(fx.report, fx.f, fx.f)


def test_fit_discrepancies_follow_its_predictions(dirichlet_fx, samples_dirichlet,
                                                  default_grid_pts):
    rep = dirichlet_fx.report
    fit = fit_log_laurent(samples_dirichlet, default_grid_pts, nonresonant_terms(1, 2),
                          shift0=rep.a)
    assert fit.discrepancies == {}
    fit.predicted = predict_leading_terms(rep, dirichlet_fx.f, dirichlet_fx.f)
    assert fit.discrepancies["(log-a)^-1"] < 1e-2
    d = fit.to_dict()
    assert any(t["label"] == "(log-a)^-1" for t in d["terms"])
    assert {t["label"]: t["relError"] for t in d["terms"]
            if t["relError"] is not None} == fit.discrepancies


def test_shift_newton_wide_basin(dirichlet_fx, samples_dirichlet, default_grid_pts):
    rep = dirichlet_fx.report
    for off in (0.5, 2.0, -1.5 + 1.0j):
        fit = fit_log_laurent(samples_dirichlet, default_grid_pts,
                              nonresonant_terms(1, 2), shift0=GAMMA0 + off)
        assert abs(fit.shift_estimate - rep.a) < 1e-6


def test_generic_well_shift_matches_threshold(generic_well_fx, default_grid_pts):
    # independent routes to the pole shift: transfer-matrix threshold data vs
    # the variable-projection fit of resolvent samples
    fx = generic_well_fx
    rep = fx.report
    assert (rep.dim_g0_mod_g1, rep.dim_g1_mod_g2, rep.eigen_modes) == (0, 0, [])
    samples = sample_matrix_element(fx.scatterer, fx.f, fx.f, default_grid_pts.points)
    fit = fit_log_laurent(samples, default_grid_pts, nonresonant_terms(1, 2),
                          shift0=GAMMA0)
    assert abs(fit.shift_estimate - rep.a) < 1e-6
    pred = predict_leading_terms(rep, fx.f, fx.f)
    fitted = fit.coefficient(FitTerm(0, 1, pole=True))
    assert abs(fitted - pred["(log-a)^-1"]) < 1e-4 * abs(pred["(log-a)^-1"])


def test_fit_reuses_the_solves_of_shifts_it_has_solved(dirichlet_fx, samples_dirichlet,
                                                       default_grid_pts, monkeypatch):
    # the next iteration's r0 at the accepted line-search trial and the final
    # solve at the converged shift read solves already made (two solves
    # fewer on expand's fit for the unit Dirichlet disk); fit.json keeps the
    # bits of a fit that solves every shift again
    import json
    from lowfreq2d import expansion
    calls = []
    lstsq = expansion._weighted_lstsq

    def counted(A, y, w):
        calls.append(len(A))
        return lstsq(A, y, w)

    def fit_json():
        calls.clear()
        terms, shift0 = fit_shape(dirichlet_fx.report, dirichlet_fx.f, 1, 2)
        fit = fit_log_laurent(samples_dirichlet, default_grid_pts, terms, shift0=shift0)
        fit.predicted = predict_leading_terms(dirichlet_fx.report, dirichlet_fx.f, dirichlet_fx.f)
        return json.dumps(fit.to_dict()), len(calls)

    monkeypatch.setattr(expansion, "_weighted_lstsq", counted)
    cached, n_cached = fit_json()
    monkeypatch.setattr(expansion, "_shift_key", lambda sh: object())   # every key new
    every, n_every = fit_json()
    assert cached == every
    assert n_cached == n_every - 2


@pytest.mark.parametrize("moved", [False, True])
def test_fit_reports_a_shift_it_solved(tmp_path, monkeypatch, moved):
    # a line search finds no trial that beats its base; the fit stops at the
    # last solved shift, so the final solve at the reported shift reads a
    # solve already made.  Both failures are synthetic, on expand's fit for
    # the unit Dirichlet disk: a residual that grows with the distance from
    # the starting shift fails the first line search (moved False), and one
    # inflated on every shift solved after the fit's first accepted step
    # (the first solve read back) fails the second (moved True)
    from lowfreq2d import expansion
    from lowfreq2d.cli import main
    keys, solves, shifts, first = [], [], [], []
    shift_key, lstsq = expansion._shift_key, expansion._weighted_lstsq

    def recorded(sh):
        shifts.append(sh)
        keys.append(shift_key(sh))
        return keys[-1]

    def counted(A, y, w):
        solves.append(keys[-1])
        coef, r, As = lstsq(A, y, w)
        first.append(r)
        if not moved:
            r = first[0] * (1.0 + abs(shifts[-1] - shifts[0]))
        elif len(set(keys)) < len(keys):
            r = 1e3 * r
        return coef, r, As

    monkeypatch.setattr(expansion, "_shift_key", recorded)
    monkeypatch.setattr(expansion, "_weighted_lstsq", counted)
    cfg = tmp_path / "expand.cfg"
    cfg.write_text("kind = disk; radius = 1; bc = dirichlet\n")
    assert main(["expand", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert keys[-1] in keys[:-1] and solves[-1] != keys[-1]
    # the first fit stops at its start, the second at its first step
    assert (shifts[-1] == shifts[0]) is not moved
