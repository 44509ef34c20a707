"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Tolerances are pinned here, in code, exactly as stated; the fixtures are the
session-scoped tuned scatterers from conftest.
"""

import math

import numpy as np
import pytest

from lowfreq2d import (FitTerm, GAMMA0, PanelGrid, SpectralPoint, bump, bump_edges,
                       classify, commutator_apply, find_pole_in_disk, fit_log_laurent,
                       fit_shape, imaginary_axis_poles, inner, nonresonant_terms,
                       one_sided_identity_residual, pairing_identity_residual,
                       phase_shift_sweep, predict_leading_terms,
                       sigma_asymptotic, standard_grid, two_parameter_identity_residual)
from lowfreq2d.radial import Exterior

from oracles import (bessel_jy, boundary_pairing_fourier, breit_wigner_metrics,
                     circle_pairing, constant_one, free_truncation_error, from_callable,
                     hankel1, j0_series, log_power_terms, plane_integral, y0_series)


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_criterion_1_special_functions():
    ok = True
    # H0(1) against the independent J/Y series oracle, 1e-8
    oracle = complex(j0_series(1.0), y0_series(1.0))
    ok &= abs(hankel1(0, SpectralPoint(1.0, 0.0))[0] - oracle) < 1e-8
    # Wronskian identity across l <= 10, s in [1e-4, 10], rel 1e-9
    for l in range(11):
        for mod in np.exp(np.linspace(math.log(1e-4), math.log(10.0), 7)):
            s = SpectralPoint(float(mod), 0.0)
            J, Y, Jd, Yd = bessel_jy(l, s)
            t = 2.0 / (math.pi * s.value)
            ok &= abs(J * Yd - Jd * Y - t) < 1e-9 * abs(t)
    # sheet-shift identity, 20 random points, 1e-10
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = float(np.exp(rng.uniform(np.log(0.02), np.log(4.0))))
        th = float(rng.uniform(-6.0, 6.0))
        a = hankel1(0, SpectralPoint(rho, th + 2 * math.pi))[0]
        b = hankel1(0, SpectralPoint(rho, th))[0]
        J0 = bessel_jy(0, SpectralPoint(rho, th))[0]
        ok &= abs(a - b + 4.0 * J0) < 1e-10 * max(1.0, abs(b))
    _report(1, "log-cover special functions (oracle, Wronskian, sheet shift)", bool(ok))


def test_criterion_2_free_expansion_order():
    pairs = [((2.0, 0.0), (8.5, 2.0)), ((3.0, 1.0), (7.0, -0.5)), ((6.0, 3.0), (4.0, 0.3))]
    errs = [free_truncation_error(SpectralPoint(2.0**-n, math.pi / 4), pairs)
            for n in range(8, 16)]
    ratios = [errs[i] / errs[i + 1] for i in range(7)]
    ok = all(8.0 <= r <= 40.0 for r in ratios)
    _report(2, f"free-resolvent truncation halving ratios in [8, 40]: "
               f"{[round(r, 1) for r in ratios]}", ok)


def test_criterion_3_identity_suite(free_fx, generic_well_fx, dirichlet_fx, neumann_fx):
    ok = True
    worst = 0.0
    for fx in (free_fx, dirichlet_fx, neumann_fx, generic_well_fx):
        s, chi = fx.scatterer, fx.chi
        gc, gh = chi.r_end + 0.7, 0.5
        grid = standard_grid(s, chi, rmax=chi.pairing_radius + 2.0,
                             extra_edges=bump_edges(fx.f_center, fx.f_half) + bump_edges(gc, gh))
        f = bump(grid, fx.f_center, fx.f_half, 0)
        g = bump(grid, gc, gh, 0)
        lam = SpectralPoint(0.01, math.pi / 4)
        z = SpectralPoint(0.02, math.pi / 2)
        res = [
            two_parameter_identity_residual(s, lam, z, chi, f),
            one_sided_identity_residual(s, lam, chi, g),
            pairing_identity_residual(s, SpectralPoint(0.4, math.pi / 2), bump(
                grid, chi.pairing_radius + 0.9, 0.5, 0), chi.pairing_radius),
        ]
        # circle-pairing Fourier formula vs direct quadrature on the circle
        r1 = chi.pairing_radius
        u = from_callable(grid, lambda r: r, lambda r: 1.0, mode=1,
                          exterior=Exterior(v={1: 1.0}))
        v = from_callable(grid, lambda r: 1.0 / r, lambda r: -1.0 / r**2, mode=1,
                          exterior=Exterior(v={-1: 1.0}))
        oracle = circle_pairing(r1, 1.0, 1.0 / r1, -1.0 / r1**2, r1, 1, 1)
        res.append(abs(boundary_pairing_fourier(u, v, r1, grid.rmin) - oracle) / abs(oracle))
        # commutator log-coefficient identity on the mode-0 nullspace element
        rep = fx.report
        for w in (rep.U0, rep.Ulog):
            if w is None:
                continue
            val = inner(commutator_apply(chi, w), constant_one(fx.grid))
            res.append(abs(w.exterior.clog + val / (2 * math.pi)))
        worst = max(worst, max(res))
        ok &= all(r < 1e-6 for r in res)
    _report(3, f"resolvent identity suite residuals < 1e-6 (worst {worst:.2e})", bool(ok))


def test_criterion_4_classification(free_fx, neumann_fx, dirichlet_fx,
                                    s_well_fx, p_well_fx, eig_well_fx):
    ok = free_fx.report.has_s_resonance
    ok &= neumann_fx.report.has_s_resonance
    ok &= (dirichlet_fx.report.dim_g0_mod_g1, dirichlet_fx.report.dim_g1_mod_g2,
           dirichlet_fx.report.eigen_modes) == (0, 0, [])
    ok &= (s_well_fx.report.dim_g0_mod_g1, s_well_fx.report.dim_g1_mod_g2,
           len(s_well_fx.report.eigen_modes)) == (1, 0, 0)
    ok &= (p_well_fx.report.dim_g0_mod_g1, p_well_fx.report.dim_g1_mod_g2,
           len(p_well_fx.report.eigen_modes)) == (0, 2, 0)
    ok &= (eig_well_fx.report.dim_g0_mod_g1, eig_well_fx.report.dim_g1_mod_g2) == (0, 0)
    ok &= [l for l, _ in eig_well_fx.report.eigen_modes] == [2]
    for fx in (s_well_fx, p_well_fx, eig_well_fx):
        fine = classify(fx.scatterer, cutoff=fx.chi, grid=PanelGrid(fx.grid.edges, 2 * fx.grid.n))
        ok &= fine.dim_g0_mod_g1 == fx.report.dim_g0_mod_g1
        ok &= fine.dim_g1_mod_g2 == fx.report.dim_g1_mod_g2
        ok &= [l for l, _ in fine.eigen_modes] == [l for l, _ in fx.report.eigen_modes]
    _report(4, "threshold classification (free, disks, tuned wells, grid-doubling)", bool(ok))


def test_criterion_5_nonresonant_disk(dirichlet_fx, samples_dirichlet, default_grid_pts):
    rep = dirichlet_fx.report
    fit = fit_log_laurent(samples_dirichlet, default_grid_pts, nonresonant_terms(1, 2),
                          shift0=GAMMA0 + 0.05 + 0.03j)
    pred = predict_leading_terms(rep, dirichlet_fx.f, dirichlet_fx.f)
    shift_err = abs(fit.shift_estimate - GAMMA0)     # C = 0 so a = gamma0
    coeff = fit.coefficient(FitTerm(0, 1, pole=True))
    coeff_err = abs(coeff - pred["(log-a)^-1"]) / abs(pred["(log-a)^-1"])
    ok = shift_err < 1e-3 and coeff_err < 1e-2
    _report(5, f"non-resonant pole shift (err {shift_err:.1e}) and "
               f"(log-a)^-1 coefficient (rel {coeff_err:.1e})", ok)


def test_criterion_6_resonant_neumann(neumann_fx, samples_neumann, default_grid_pts):
    rep = neumann_fx.report
    terms = log_power_terms(jmax=1, kmin=-2, kmax=2, capped=False)
    fit = fit_log_laurent(samples_neumann, default_grid_pts, terms)
    intf = plane_integral(neumann_fx.f)
    target = -intf * intf / (2 * math.pi)
    c_log = fit.coefficient(FitTerm(0, 1))
    coeff_err = abs(c_log - target) / abs(target)
    pts = default_grid_pts.points
    lead = max(abs(c_log * p.log) for p in pts)
    spurious = 0.0
    for t in (FitTerm(0, 2), FitTerm(0, -1), FitTerm(0, -2)):
        c = fit.coefficient(t)
        spurious = max(spurious, max(abs(c * p.log**t.k) for p in pts) / lead)
    ok = coeff_err < 1e-2 and spurious < 1e-4
    _report(6, f"resonant log-coefficient -(1/2pi)(int f)^2 (rel {coeff_err:.1e}), "
               f"spurious k>=2 and k<0 terms ({spurious:.1e})", ok)


def test_criterion_7_singular_terms(p_well_fx, samples_p_well, eig_well_fx,
                                    samples_eig_well, default_grid_pts, eig_grid_pts):
    rep_p = p_well_fx.report
    f_p, samp_p = samples_p_well
    pred_p = predict_leading_terms(rep_p, f_p, f_p)
    # the shift starts at s1 = gamma0 + alpha_1 from quadrature
    terms_p, s1 = fit_shape(rep_p, f_p, jmax=1, kmax=1)
    fit_p = fit_log_laurent(samp_p, default_grid_pts, terms_p, shift0=s1)
    cp = fit_p.coefficient(FitTerm(-1, 1, pole=True))
    p_err = abs(cp - pred_p["lam^-2*(log-s1)^-1"]) / abs(pred_p["lam^-2*(log-s1)^-1"])

    rep_e = eig_well_fx.report
    f_e, samp_e = samples_eig_well
    pred_e = predict_leading_terms(rep_e, f_e, f_e)
    terms_e, shift_e = fit_shape(rep_e, f_e, jmax=1, kmax=1)
    fit_e = fit_log_laurent(samp_e, eig_grid_pts, terms_e, shift0=shift_e)
    e_m2_err = (abs(fit_e.coefficient(FitTerm(-1, 0)) - pred_e["lam^-2"])
                / abs(pred_e["lam^-2"]))
    e_log_err = (abs(fit_e.coefficient(FitTerm(0, 1)) - pred_e["log^1"])
                 / abs(pred_e["log^1"]))
    ok = p_err < 2e-2 and e_m2_err < 1e-2 and e_log_err < 5e-2
    _report(7, f"singular terms: p-well pole coeff (rel {p_err:.1e}), eigen-well "
               f"lam^-2 (rel {e_m2_err:.1e}) and quadrupole-corrected log (rel {e_log_err:.1e})", ok)


def test_criterion_8_scattering_phase(dirichlet_fx):
    rep = dirichlet_fx.report
    rel = []
    for lam in (1e-4, 1e-5, 1e-6):
        t = phase_shift_sweep(dirichlet_fx.scatterer, [lam])[0]
        rel.append(abs(sigma_asymptotic(rep, lam) - t.sigma) / abs(t.sigma))
    rep2 = classify(__import__("lowfreq2d").DiskObstacle(2.0, "dirichlet"))
    shift_ok = abs(rep2.capacity - math.log(2.0)) < 1e-12 and \
        abs(sigma_asymptotic(rep2, 1e-4) - sigma_asymptotic(rep, 2e-4)) < 1e-14
    ok = rel[0] < 2e-2 and rel[0] > rel[1] > rel[2] and shift_ok
    _report(8, f"scattering-phase law rel errs {[f'{r:.1e}' for r in rel]} "
               f"(decreasing), capacity shift for a0=2", bool(ok))


def test_criterion_9_perturbation_phenomenology(s_well_fx, p_well_fx, eig_well_fx):
    # eps < 0: imaginary-axis pole with kappa decreasing to 0
    ks = []
    for eps in (-1e-2, -1e-3, -1e-4):
        poles = imaginary_axis_poles(eig_well_fx.scatterer.shifted(eps), 2, 1e-4, 1.0)
        ks.append(poles[0].lam.modulus if poles else math.nan)
    ladder_ok = ks[0] > ks[1] > ks[2] > 0
    # eps > 0 from the s-resonance: no pole inside |lam| < 0.3
    absence_ok = find_pole_in_disk(s_well_fx.scatterer.shifted(3e-3), 0, 0.3) is None
    # eps > 0 from the eigenvalue: off-axis pole, peak taller and narrower than p
    eps = 3e-3
    mets = {}
    poles = {}
    for name, fx, mode in (("eig", eig_well_fx, 2), ("p", p_well_fx, 1)):
        s = fx.scatterer.shifted(eps)
        pole = find_pole_in_disk(s, mode, 0.3)
        poles[name] = pole
        lr, width = pole.lam.value.real, 2 * abs(pole.lam.value.imag)
        lams = np.linspace(max(lr - 6 * width, 1e-4), lr + 6 * width, 201)
        tables = phase_shift_sweep(s, lams)
        mets[name] = breit_wigner_metrics([t.lam for t in tables],
                                          [t.sigma for t in tables])
    off_axis_ok = poles["eig"].kind == "resonance" and poles["eig"].lam.value.imag < 0
    peak_ok = (mets["eig"]["height"] > mets["p"]["height"]
               and mets["eig"]["width"] < mets["p"]["width"])
    ok = ladder_ok and absence_ok and off_axis_ok and peak_ok
    _report(9, f"perturbed thresholds: kappa ladder {[f'{k:.1e}' for k in ks]}, "
               f"s-disappearance, eigen peak {mets['eig']['height']:.0f} vs "
               f"p peak {mets['p']['height']:.0f}", bool(ok))


@pytest.mark.slow
def test_criterion_10_wave_decay(wave_free_result, wave_well_fx, wave_well_result):
    q, res = wave_free_result
    intf = plane_integral(q.f).real
    pick = {100.0: None, 1000.0: None, 10000.0: None}
    for t, w in zip(q.times, res.values):
        for target in pick:
            if abs(t - target) < 1e-6 * target:
                pick[target] = abs(2 * math.pi * t * w.real - intf) * t * t
    Cs = [v for v in pick.values() if v is not None]
    free_ok = len(Cs) == 3 and max(Cs) / min(Cs) < 2.0

    qw, rw = wave_well_result
    repw = wave_well_fx.report
    u0 = repw.Ulog.value_at(0.0).real
    iuf = inner(qw.f, repw.Ulog).real
    ratios = {}
    for t, w in zip(qw.times, rw.values):
        for target in (1e4, 1e5, 1e6):
            if abs(t - target) < 1e-6 * target:
                ratios[target] = 2 * math.pi * t * math.log(t) ** 2 * w.real / (u0 * iuf)
    band_ok = 0.8 <= ratios[1e6] <= 1.2
    gaps = [abs(1 - ratios[t]) for t in (1e4, 1e5, 1e6)]
    monotone_ok = gaps[0] > gaps[1] > gaps[2]
    ok = free_ok and band_ok and monotone_ok
    _report(10, f"wave decay: free C(t) stable {[f'{c:.3f}' for c in Cs]}, well ratio "
                f"{[f'{ratios[t]:.3f}' for t in (1e4, 1e5, 1e6)]} -> 1", bool(ok))