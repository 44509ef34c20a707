"""Phase shifts, scattering-phase law, pole tracking, peak phenomenology."""

import math

import numpy as np
import pytest

from lowfreq2d import (DiskObstacle, GAMMA0, PiecewisePotential, SpectralPoint,
                       breit_wigner_metrics, find_pole, find_pole_in_disk,
                       free_scatterer, imaginary_axis_poles, phase_shift_sweep,
                       phase_shifts, sigma_asymptotic)
from lowfreq2d.errors import BasinError, ShapeMismatchError, ValidationError

from oracles import born_phase_shift_mode0, j0_series, y0_series


def test_free_shifts_vanish():
    t = phase_shifts(free_scatterer(), 0.3)
    assert all(abs(d) < 1e-14 for d in t.shifts.values())
    assert abs(t.sigma) < 1e-14


def test_dirichlet_disk_delta0_oracle():
    lam = 0.1
    t = phase_shifts(DiskObstacle(1.0, "dirichlet"), lam)
    expected = math.atan(j0_series(lam) / y0_series(lam))
    assert abs(t.shifts[0] - expected) < 1e-12


def test_born_sign_flip_and_magnitude():
    lam = 0.7
    eps = 1e-3
    d_minus = phase_shifts(PiecewisePotential((1.0,), (-eps,)), lam).shifts[0]
    d_plus = phase_shifts(PiecewisePotential((1.0,), (+eps,)), lam).shifts[0]
    assert d_minus > 0 > d_plus
    assert abs(d_minus + d_plus) < 1e-2 * abs(d_minus)     # odd at first order
    born = born_phase_shift_mode0(-eps, 1.0, lam)
    assert abs(d_minus - born) < 5e-3 * abs(born)


def test_unitarity_across_sweep(generic_well_fx):
    lams = np.linspace(0.05, 1.2, 25)
    for t in phase_shift_sweep(generic_well_fx.scatterer, lams):
        assert abs(t.det_s_modulus - 1.0) < 1e-10


def test_branch_continuity(p_well_fx):
    s = p_well_fx.scatterer.shifted(3e-3)
    lams = np.linspace(0.005, 0.06, 120)
    tables = phase_shift_sweep(s, lams)
    for l in tables[0].shifts:
        d = [t.shifts[l] for t in tables if l in t.shifts]
        jumps = np.abs(np.diff(d))
        assert np.max(jumps) < math.pi / 2


def test_sigma_asymptotic_dirichlet(dirichlet_fx):
    rep = dirichlet_fx.report
    rel = []
    for lam in (1e-4, 1e-5, 1e-6):
        t = phase_shifts(dirichlet_fx.scatterer, lam)
        sa = sigma_asymptotic(rep, lam)
        rel.append(abs(sa - t.sigma) / abs(t.sigma))
    assert rel[0] < 2e-2
    assert rel[0] > rel[1] > rel[2]


def test_sigma_capacity_shift():
    rep1 = __import__("lowfreq2d").classify(DiskObstacle(1.0, "dirichlet"))
    rep2 = __import__("lowfreq2d").classify(DiskObstacle(2.0, "dirichlet"))
    lam = 1e-4
    # C = log 2 is the same as evaluating the C = 0 law at 2 lam
    assert abs(sigma_asymptotic(rep2, lam) - sigma_asymptotic(rep1, 2 * lam)) < 1e-14


def test_sigma_asymptotic_rejects_s_resonance(neumann_fx):
    with pytest.raises(ShapeMismatchError):
        sigma_asymptotic(neumann_fx.report, 1e-4)


def test_consistency_of_pole_shift(dirichlet_fx, samples_dirichlet, default_grid_pts):
    from lowfreq2d import fit_log_laurent, nonresonant_terms
    rep = dirichlet_fx.report
    fit = fit_log_laurent(samples_dirichlet, default_grid_pts, nonresonant_terms(1, 2),
                          shift0=GAMMA0 + 0.02j)
    # threshold a, fitted shift, and the sigma-law denominator root agree
    assert abs(fit.shift_estimate - rep.a) < 1e-3
    assert abs((GAMMA0 - rep.capacity) - rep.a) < 1e-12


def test_free_has_no_pole():
    with pytest.raises((BasinError, ValidationError)):
        find_pole(free_scatterer(), 0, SpectralPoint(0.1, -0.3))


def test_seed_outside_basin_rejected(p_well_fx):
    with pytest.raises(ValidationError):
        find_pole(p_well_fx.scatterer, 1, SpectralPoint(0.6, 0.0))


def test_bound_state_ladder_eig_well(eig_well_fx):
    ks = []
    for eps in (-1e-2, -1e-3, -1e-4):
        poles = imaginary_axis_poles(eig_well_fx.scatterer.shifted(eps), 2, 1e-4, 1.0)
        assert len(poles) == 1
        p = poles[0]
        assert p.kind == "boundState"
        assert abs(p.lam.arg - math.pi / 2) < 1e-8
        ks.append(p.lam.modulus)
    assert ks[0] > ks[1] > ks[2] > 0


def test_bound_state_ladder_p_well(p_well_fx):
    ks = []
    for eps in (-1e-2, -1e-3):
        poles = imaginary_axis_poles(p_well_fx.scatterer.shifted(eps), 1, 1e-4, 1.0)
        assert poles and poles[0].kind == "boundState"
        ks.append(poles[0].lam.modulus)
    assert ks[0] > ks[1] > 0


def test_s_well_binding_below_resolution(s_well_fx):
    # deepening an s-resonance binds exponentially weakly: log kappa ~ -d/g;
    # nothing is findable above kappa = 1e-6 at eps = -1e-2
    poles = imaginary_axis_poles(s_well_fx.scatterer.shifted(-1e-2), 0, 1e-6, 1.0)
    assert poles == []


def test_s_well_pole_disappears_for_positive_eps(s_well_fx):
    pole = find_pole_in_disk(s_well_fx.scatterer.shifted(3e-3), 0, 0.3)
    assert pole is None


def test_resonance_poles_off_axis(eig_well_fx, p_well_fx):
    eps = 3e-3
    pe = find_pole_in_disk(eig_well_fx.scatterer.shifted(eps), 2, 0.3)
    pp = find_pole_in_disk(p_well_fx.scatterer.shifted(eps), 1, 0.3)
    assert pe is not None and pp is not None
    assert pe.kind == "resonance" and pp.kind == "resonance"
    assert pe.lam.value.imag < 0 and pp.lam.value.imag < 0
    assert pe.residual < 1e-10
    # threshold tuning: at eps = 0 the defect vanishes at lam = 0 by construction


def test_perturbation_sweep_continuity(eig_well_fx):
    # the CLI's perturb route: each eps scanned on its own, deepest bound state
    eps_list = [-1e-2, -6e-3, -3e-3, -1.5e-3]
    poles = [imaginary_axis_poles(eig_well_fx.scatterer.shifted(eps), 2)[-1] for eps in eps_list]
    ks = [p.lam.modulus for p in poles]
    assert all(a > b for a, b in zip(ks, ks[1:]))
    assert all(p.kind == "boundState" for p in poles)


def test_breit_wigner_ordering(eig_well_fx, p_well_fx):
    eps = 3e-3
    metrics = {}
    for name, fx, mode in (("eig", eig_well_fx, 2), ("p", p_well_fx, 1)):
        s = fx.scatterer.shifted(eps)
        pole = find_pole_in_disk(s, mode, 0.3)
        lr, width = pole.lam.value.real, 2 * abs(pole.lam.value.imag)
        lams = np.linspace(max(lr - 6 * width, 1e-4), lr + 6 * width, 201)
        tables = phase_shift_sweep(s, lams)
        metrics[name] = breit_wigner_metrics([t.lam for t in tables],
                                             [t.sigma for t in tables])
    assert metrics["eig"]["height"] > metrics["p"]["height"]
    assert metrics["eig"]["width"] < metrics["p"]["width"]


def test_phase_shifts_need_positive_lambda(free_fx):
    with pytest.raises(ValidationError):
        phase_shifts(free_fx.scatterer, -0.1)


def test_admissible_complex_potential_formal_sigma():
    # Re V >= 0 complex scatterer: det S computed formally, no unitarity claim
    s = PiecewisePotential((1.0,), (1.0 + 0.5j,))
    assert s.admissible and not s.selfadjoint
    t = phase_shifts(s, 0.4)
    assert abs(t.sigma.imag) > 0
    assert abs(t.det_s_modulus - 1.0) > 1e-3


def test_no_bound_state_where_lam_squared_equals_v0():
    # unit well of depth 20: bound states of mode l >= 1 need a depth above
    # j_{l-1,1}^2 (5.78 for l = 1, 14.68 for l = 2, 26.37 for l = 3).  The
    # kappa values solve eta J_l'(eta)/J_l(eta) = kappa K_l'(kappa)/K_l(kappa)
    # with eta^2 = 20 - kappa^2 (scipy.special, brentq).  At kappa = sqrt(20),
    # where lam^2 = V0, the regular solution's start J_l(eta0 r) vanishes; no
    # state may be reported there.
    s = PiecewisePotential((1.0,), (-20.0,))
    expected = {1: [3.2448468418337346], 2: [1.8841145802735124], 3: []}
    for mode, kappas in expected.items():
        poles = imaginary_axis_poles(s, mode, 1e-3, 5.0)
        assert [p.kind for p in poles] == ["boundState"] * len(kappas)
        for p, k in zip(poles, kappas):
            assert abs(p.lam.modulus - k) < 1e-10 * k
            # kappa >= 0.5 is bisected, and stops at machine resolution
            assert p.iterations <= 60
        assert all(abs(p.lam.modulus - math.sqrt(20.0)) > 1e-3 for p in poles)


def test_batched_defect_matches_single_points(generic_well_fx, p_well_fx):
    from lowfreq2d import outgoing_defect
    from lowfreq2d.scattering import SCAN_ARGS
    pts = [SpectralPoint(m, th) for th in SCAN_ARGS for m in (1e-4, 0.02, 0.3)]
    pts += [SpectralPoint(k, math.pi / 2) for k in (0.05, 0.8, 1.9)]
    for s in (generic_well_fx.scatterer, p_well_fx.scatterer, DiskObstacle(1.0, "neumann")):
        for mode in (0, 1, 2):
            batch = outgoing_defect(s, mode, pts)
            assert batch.shape == (len(pts),)
            assert [complex(d) for d in batch] == [outgoing_defect(s, mode, p) for p in pts]


def _projected_smatrix(s, lam, l):
    """S_l by projecting the regular solution at the support radius onto
    J, Y and their derivatives (the route the coefficients replace)."""
    from lowfreq2d import bessel_jy
    from lowfreq2d.radialsolve import regular_solution
    R = s.support_radius
    (u,), (du,) = regular_solution(s, l, SpectralPoint(lam, 0.0), R + 1.0).at(R)
    J, Y, Jd, Yd = bessel_jy(l, SpectralPoint(lam * R, 0.0))
    D = lam * (J * Yd - Jd * Y)
    A = (u * lam * Yd - du * Y) / D
    B = (du * J - u * lam * Jd) / D
    return (A - 1j * B) / (A + 1j * B)


def test_smatrix_from_coefficients_matches_projection(generic_well_fx):
    scatterers = (generic_well_fx.scatterer, DiskObstacle(1.0, "dirichlet"),
                  DiskObstacle(0.8, "neumann"), PiecewisePotential((0.5, 1.0), (4.0, 1.5)),
                  PiecewisePotential((1.0,), (1.0 + 0.5j,)))
    for s in scatterers:
        for lam in (1e-4, 0.03, 0.7, 2.5):
            t = phase_shifts(s, lam)
            for l in range(4):
                ref = _projected_smatrix(s, lam, l)
                assert abs(t.smatrix[l] - ref) <= 1e-14 * abs(ref)


def test_sweep_is_the_batched_single_point_table(generic_well_fx):
    lams = [0.05, 0.2, 0.9, 1.2]
    for t in phase_shift_sweep(generic_well_fx.scatterer, lams):
        single = phase_shifts(generic_well_fx.scatterer, t.lam)
        assert t.smatrix == single.smatrix
