"""Matrix-element sampling and log-Laurent structure recovery."""

import math

import numpy as np
import pytest

from lowfreq2d import (FitTerm, GAMMA0, SpectralPoint, expansion_grid, fit_log_laurent,
                       general_terms, inner, nonresonant_terms, plane_integral,
                       predict_leading_terms, resonant_terms, sample_matrix_element)
from lowfreq2d.errors import IllConditionedFitError, ShapeMismatchError, ValidationError
from lowfreq2d.expansion import LogLaurentSeries, attach_predictions


def _max_contrib(fit, term, pts):
    c = fit.coefficient(term)
    return max(abs(c * t) for t in term.evaluate(list(pts), fit.shift_estimate))


# -- sampling ------------------------------------------------------------------

def test_orthogonal_channels_sample_to_zero(free_fx, default_grid_pts):
    f = free_fx.source(1, "cos")
    g = free_fx.source(1, "sin")
    vals = sample_matrix_element(free_fx.scatterer, f, g, default_grid_pts.points[:3])
    assert np.all(vals == 0.0)


def test_batched_samples_match_per_point(dirichlet_fx, p_well_fx):
    # 11 points: one full batch of SAMPLE_BATCH and a partial one, on two rays
    # and both modes a batch can carry; reference is one mode_green per point
    from lowfreq2d import mode_green
    pts = [SpectralPoint(m, a) for a in (math.pi / 4, 1.2) for m in np.geomspace(1e-6, 1e-2, 6)][:11]
    for fx, mode in ((dirichlet_fx, 0), (p_well_fx, 1)):
        f = fx.source(mode)
        batch = sample_matrix_element(fx.scatterer, f, f, pts)
        point = np.array([inner(mode_green(fx.scatterer, p, mode, fx.grid).apply(f), f)
                          for p in pts])
        assert batch.shape == (11,)
        assert np.max(np.abs(batch - point) / np.abs(point)) <= 1e-14


def test_matrix_elements_build_no_node_derivatives(dirichlet_fx, monkeypatch):
    # <R(lam) f, g> reads u alone: no order-(l + 1) Bessel slot on the grid
    # nodes, only the boundary solve and the five Wronskian probes per point
    from lowfreq2d import radialsolve
    bessel_pair, seen = radialsolve.bessel_pair, []

    def spy(l, z, logz, slot=None):
        seen.append((np.size(z), slot))
        return bessel_pair(l, z, logz, slot)

    monkeypatch.setattr(radialsolve, "bessel_pair", spy)
    pts = [SpectralPoint(m, math.pi / 4) for m in (1e-4, 1e-3, 1e-2)]
    for mode in (0, 2):
        f = dirichlet_fx.source(mode)
        seen.clear()
        sample_matrix_element(dirichlet_fx.scatterer, f, f, pts)
        assert max(n for n, slot in seen if slot != 0) <= 6 * len(pts) < len(dirichlet_fx.grid)
        assert sum(n for n, slot in seen if slot == 0) == len(pts) * len(dirichlet_fx.grid)


def test_selfadjoint_pairing_symmetry(generic_well_fx):
    fx = generic_well_fx
    lam = [SpectralPoint(0.3, math.pi / 2)]
    from lowfreq2d import bump
    g = bump(fx.grid, 1.1, 0.25, 0)
    a = sample_matrix_element(fx.scatterer, fx.f, g, lam)[0]
    b = sample_matrix_element(fx.scatterer, g, fx.f, lam)[0]
    assert abs(a - np.conj(b)) < 1e-10 * abs(a)   # real symmetric kernel at iK


def test_free_leading_log_coefficient(free_fx):
    # difference of two samples isolates the log coefficient -(1/2pi)(int f)^2
    pts = [SpectralPoint(1e-7, math.pi / 4), SpectralPoint(1e-5, math.pi / 4)]
    v = sample_matrix_element(free_fx.scatterer, free_fx.f, free_fx.f, pts)
    slope = (v[1] - v[0]) / (pts[1].log - pts[0].log)
    intf = plane_integral(free_fx.f)
    expected = -intf * intf / (2.0 * math.pi)
    assert abs(slope - expected) < 2e-3 * abs(expected)


# -- fitting --------------------------------------------------------------------

def test_synthetic_roundtrip():
    eg = expansion_grid()
    series = LogLaurentSeries(
        regular={(0, 0): 1.3 - 0.2j, (0, 1): -0.4j, (1, 1): 2.0},
        poles={(0, 1): 0.7 + 0.1j},
        shift=GAMMA0 + 0.3,
    )
    samples = series.evaluate(list(eg.points))
    terms = [FitTerm(0, 0), FitTerm(0, 1), FitTerm(1, 1), FitTerm(0, 1, pole=True)]
    fit = fit_log_laurent(samples, eg, terms, shift0=GAMMA0 + 0.2 - 0.05j)
    assert abs(fit.shift_estimate - series.shift) < 1e-7
    for t in terms:
        assert abs(fit.coefficient(t) - series.coefficient(t)) < 1e-8 * max(
            1.0, abs(series.coefficient(t)))
    assert fit.residual < 1e-9


def test_needs_enough_samples():
    eg = expansion_grid(count=6, extra_arg=None)
    with pytest.raises(ValidationError, match="2x"):
        fit_log_laurent(np.ones(6, dtype=complex), eg, resonant_terms(2, 3))


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
    terms = general_terms(jmax=1, kmax=2, kneg=2, full_k=True)
    fit = fit_log_laurent(samples_neumann, default_grid_pts, terms, optimize_shift=False)
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
    fit = fit_log_laurent(samples_free, default_grid_pts, resonant_terms(1, 3),
                          optimize_shift=False)
    pred = predict_leading_terms(rep, free_fx.f, free_fx.f)
    c_log = fit.coefficient(FitTerm(0, 1))
    assert abs(c_log - pred["log^1"]) < 1e-2 * abs(pred["log^1"])
    assert fit.residual < 1e-6


def test_s_well_resonant_fit_and_noneglog(s_well_fx, samples_s_well, default_grid_pts):
    rep = s_well_fx.report
    terms = general_terms(jmax=1, kmax=3, kneg=2)
    fit = fit_log_laurent(samples_s_well, default_grid_pts, terms, optimize_shift=False)
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
    res_on_neumann = fit_log_laurent(samples_neumann, default_grid_pts,
                                     resonant_terms(1, 3), optimize_shift=False)
    assert res_on_neumann.residual < 1e-6
    res_on_dirichlet = fit_log_laurent(samples_dirichlet, default_grid_pts,
                                       resonant_terms(1, 3), optimize_shift=False)
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
    terms = general_terms(jmax=1, kmax=1, kneg=5)
    fit = fit_log_laurent(samples, eg, terms, optimize_shift=False)
    b1 = fit.coefficient(FitTerm(0, -1))
    b2 = fit.coefficient(FitTerm(0, -2))
    assert abs(b2 / b1 - rep.a) < 1e-2 * abs(rep.a)
    pred = predict_leading_terms(rep, dirichlet_fx.f, dirichlet_fx.f)
    assert abs(b1 - pred["log^-1"]) < 1e-2 * abs(pred["log^-1"])


def test_p_well_singular_term(p_well_fx, samples_p_well, default_grid_pts):
    rep = p_well_fx.report
    f, samples = samples_p_well
    pred = predict_leading_terms(rep, f, f)
    terms = general_terms(jmax=1, kmax=1, lam_m2=True, lam_m2_pole=True,
                          pole_kmax={0: 2})
    fit = fit_log_laurent(samples, default_grid_pts, terms,
                          shift0=rep.s[0], optimize_shift=False)
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
    terms = general_terms(jmax=1, kmax=1, lam_m2=True, lam_m2_pole=True,
                          pole_kmax={0: 2})
    fit = fit_log_laurent(samples, default_grid_pts, terms,
                          shift0=rep.s[0] + 0.05 - 0.03j, optimize_shift=True)
    assert abs(fit.shift_estimate - rep.s[0]) < 5e-2


def test_eig_well_coefficients(eig_well_fx, samples_eig_well, eig_grid_pts):
    rep = eig_well_fx.report
    f, samples = samples_eig_well
    pred = predict_leading_terms(rep, f, f)
    l, psi = rep.eigen_modes[0]
    assert abs(pred["lam^-2"] + abs(inner(f, psi, tail=False)) ** 2) < 1e-10
    fit = fit_log_laurent(samples, eig_grid_pts, general_terms(jmax=1, kmax=1, lam_m2=True),
                          optimize_shift=False)
    c_m2 = fit.coefficient(FitTerm(-1, 0))
    c_log = fit.coefficient(FitTerm(0, 1))
    assert abs(c_m2 - pred["lam^-2"]) < 1e-2 * abs(pred["lam^-2"])
    assert abs(c_log - pred["log^1"]) < 5e-2 * abs(pred["log^1"])


def test_prediction_shape_guard(s_well_fx, neumann_fx):
    with pytest.raises(ShapeMismatchError):
        predict_leading_terms(s_well_fx.report, s_well_fx.f, s_well_fx.f,
                              want=["(log-a)^-1"])
    with pytest.raises(ShapeMismatchError):
        predict_leading_terms(neumann_fx.report, neumann_fx.f, neumann_fx.f,
                              want=["(log-a)^-1"])


def test_attach_predictions_discrepancies(dirichlet_fx, samples_dirichlet, default_grid_pts):
    rep = dirichlet_fx.report
    fit = fit_log_laurent(samples_dirichlet, default_grid_pts, nonresonant_terms(1, 2),
                          shift0=rep.a)
    attach_predictions(fit, predict_leading_terms(rep, dirichlet_fx.f, dirichlet_fx.f))
    assert fit.discrepancies["(log-a)^-1"] < 1e-2
    d = fit.to_dict()
    assert any(t["label"] == "(log-a)^-1" for t in d["terms"])


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
    assert not rep.has_zero_resonance and not rep.has_eigenvalue
    samples = sample_matrix_element(fx.scatterer, fx.f, fx.f, default_grid_pts.points)
    fit = fit_log_laurent(samples, default_grid_pts, nonresonant_terms(1, 2),
                          shift0=GAMMA0)
    assert abs(fit.shift_estimate - rep.a) < 1e-6
    pred = predict_leading_terms(rep, fx.f, fx.f)
    fitted = fit.coefficient(FitTerm(0, 1, pole=True))
    assert abs(fitted - pred["(log-a)^-1"]) < 1e-4 * abs(pred["(log-a)^-1"])
