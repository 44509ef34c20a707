"""Phase shifts, scattering-phase law, pole tracking, peak phenomenology."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from lowfreq2d import (DiskObstacle, GAMMA0, PiecewisePotential, SpectralBatch,
                       phase_shift_sweep, sigma_asymptotic)
from lowfreq2d import scattering
from lowfreq2d.errors import BasinError, NumericalError, ShapeMismatchError, ValidationError
from lowfreq2d.scattering import AXIS_COUNT, BISECT_DEPTH, MAX_CANDIDATES
from lowfreq2d.util import log_grid

from oracles import (FREE, MODE_AXIS_SCATTERERS, admissible, bessel_jh, born_phase_shift_mode0,
                     bit_pattern, breit_wigner_metrics, det_s_modulus, find_pole,
                     find_pole_in_disk, imaginary_axis_poles, j0_series,
                     scan_pole_candidates, sequential_axis_poles, sequential_find_pole,
                     sequential_phase_tables, shifted, y0_series)


def test_free_shifts_vanish():
    t = phase_shift_sweep(FREE, [0.3])[0]
    assert all(abs(d) < 1e-14 for d in t.shifts.values())
    assert abs(t.sigma) < 1e-14


def test_dirichlet_disk_delta0_oracle():
    lam = 0.1
    t = phase_shift_sweep(DiskObstacle(1.0, "dirichlet"), [lam])[0]
    expected = math.atan(j0_series(lam) / y0_series(lam))
    assert abs(t.shifts[0] - expected) < 1e-12


def test_born_sign_flip_and_magnitude():
    lam = 0.7
    eps = 1e-3
    d_minus = phase_shift_sweep(PiecewisePotential((1.0,), (-eps,)), [lam])[0].shifts[0]
    d_plus = phase_shift_sweep(PiecewisePotential((1.0,), (+eps,)), [lam])[0].shifts[0]
    assert d_minus > 0 > d_plus
    assert abs(d_minus + d_plus) < 1e-2 * abs(d_minus)     # odd at first order
    born = born_phase_shift_mode0(-eps, 1.0, lam)
    assert abs(d_minus - born) < 5e-3 * abs(born)


def test_unitarity_across_sweep(generic_well_fx):
    lams = np.linspace(0.05, 1.2, 25)
    for t in phase_shift_sweep(generic_well_fx.scatterer, lams):
        assert abs(det_s_modulus(t) - 1.0) < 1e-10


def test_branch_continuity(p_well_fx):
    s = shifted(p_well_fx.scatterer, 3e-3)
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
        t = phase_shift_sweep(dirichlet_fx.scatterer, [lam])[0]
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
        find_pole(FREE, 0, SpectralBatch(0.1, -0.3))


def test_seed_outside_basin_rejected(p_well_fx):
    with pytest.raises(ValidationError):
        find_pole(p_well_fx.scatterer, 1, SpectralBatch(0.6, 0.0))


def test_bound_state_ladder_eig_well(eig_well_fx):
    ks = []
    for eps in (-1e-2, -1e-3, -1e-4):
        poles = imaginary_axis_poles(shifted(eig_well_fx.scatterer, eps), 2, 1e-4, 1.0)
        assert len(poles) == 1
        p = poles[0]
        assert p.kind == "boundState"
        assert abs(p.lam.arg - math.pi / 2) < 1e-8
        ks.append(p.lam.modulus)
    assert ks[0] > ks[1] > ks[2] > 0


def test_bound_state_ladder_p_well(p_well_fx):
    ks = []
    for eps in (-1e-2, -1e-3):
        poles = imaginary_axis_poles(shifted(p_well_fx.scatterer, eps), 1, 1e-4, 1.0)
        assert poles and poles[0].kind == "boundState"
        ks.append(poles[0].lam.modulus)
    assert ks[0] > ks[1] > 0


def test_s_well_binding_below_resolution(s_well_fx):
    # deepening an s-resonance binds exponentially weakly: log kappa ~ -d/g;
    # nothing is findable above kappa = 1e-6 at eps = -1e-2
    poles = imaginary_axis_poles(shifted(s_well_fx.scatterer, -1e-2), 0, 1e-6, 1.0)
    assert poles == []


def test_s_well_pole_disappears_for_positive_eps(s_well_fx):
    pole = find_pole_in_disk(shifted(s_well_fx.scatterer, 3e-3), 0, 0.3)
    assert pole is None


def test_resonance_poles_off_axis(eig_well_fx, p_well_fx):
    eps = 3e-3
    pe = find_pole_in_disk(shifted(eig_well_fx.scatterer, eps), 2, 0.3)
    pp = find_pole_in_disk(shifted(p_well_fx.scatterer, eps), 1, 0.3)
    assert pe is not None and pp is not None
    assert pe.kind == "resonance" and pp.kind == "resonance"
    assert pe.lam.value.imag < 0 and pp.lam.value.imag < 0
    assert pe.residual < 1e-10
    # threshold tuning: at eps = 0 the defect vanishes at lam = 0 by construction


def test_perturbation_sweep_continuity(eig_well_fx):
    # the CLI's perturb route: each eps scanned on its own, deepest bound state
    eps_list = [-1e-2, -6e-3, -3e-3, -1.5e-3]
    poles = [imaginary_axis_poles(shifted(eig_well_fx.scatterer, eps), 2)[-1] for eps in eps_list]
    ks = [p.lam.modulus for p in poles]
    assert all(a > b for a, b in zip(ks, ks[1:]))
    assert all(p.kind == "boundState" for p in poles)


def test_breit_wigner_ordering(eig_well_fx, p_well_fx):
    eps = 3e-3
    metrics = {}
    for name, fx, mode in (("eig", eig_well_fx, 2), ("p", p_well_fx, 1)):
        s = shifted(fx.scatterer, eps)
        pole = find_pole_in_disk(s, mode, 0.3)
        lr, width = pole.lam.value.real, 2 * abs(pole.lam.value.imag)
        lams = np.linspace(max(lr - 6 * width, 1e-4), lr + 6 * width, 201)
        tables = phase_shift_sweep(s, lams)
        metrics[name] = breit_wigner_metrics([t.lam for t in tables],
                                             [t.sigma for t in tables])
    assert metrics["eig"]["height"] > metrics["p"]["height"]
    assert metrics["eig"]["width"] < metrics["p"]["width"]


def test_phase_shift_sweep_needs_positive_lambda(free_fx):
    with pytest.raises(ValidationError):
        phase_shift_sweep(free_fx.scatterer, [-0.1])


def test_admissible_complex_potential_formal_sigma():
    # Re V >= 0 complex scatterer: det S computed formally, no unitarity claim
    s = PiecewisePotential((1.0,), (1.0 + 0.5j,))
    assert admissible(s) and not s.selfadjoint
    t = phase_shift_sweep(s, [0.4])[0]
    assert abs(t.sigma.imag) > 0
    assert abs(det_s_modulus(t) - 1.0) > 1e-3


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
    pts = SpectralBatch(np.append(np.tile([1e-4, 0.02, 0.3], len(SCAN_ARGS)), [0.05, 0.8, 1.9]),
                        np.append(np.repeat(SCAN_ARGS, 3), [math.pi / 2] * 3))
    for s in (generic_well_fx.scatterer, p_well_fx.scatterer, DiskObstacle(1.0, "neumann")):
        for mode in (0, 1, 2):
            batch = outgoing_defect(s, mode, pts)
            assert batch.shape == (len(pts),)
            assert [complex(d) for d in batch] == [outgoing_defect(s, mode, p) for p in pts]


def _projected_smatrix(s, lam, l):
    """S_l by projecting the regular solution at the support radius onto
    J, Y and their derivatives (the route the coefficients replace)."""
    from lowfreq2d.radialsolve import regular_solution
    R = s.support_radius
    sol = regular_solution(s, l, SpectralBatch(lam, 0.0))
    (u,), (du,) = (a[..., 0] for a in sol.eval(np.array([R])))
    J, H, Jd, Hd = bessel_jh(l, SpectralBatch(lam * R, 0.0))
    Y, Yd = H.imag, Hd.imag         # on the real axis H.imag is Y bit for bit
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
            t = phase_shift_sweep(s, [lam])[0]
            for l in range(4):
                ref = _projected_smatrix(s, lam, l)
                assert abs(t.smatrix[l] - ref) <= 1e-14 * abs(ref)


def test_sweep_is_the_batched_single_point_table(generic_well_fx):
    lams = [0.05, 0.2, 0.9, 1.2]
    for t in phase_shift_sweep(generic_well_fx.scatterer, lams):
        single = phase_shift_sweep(generic_well_fx.scatterer, [t.lam])[0]
        assert t.smatrix == single.smatrix


def test_bound_state_scan_ends_at_sqrt_of_minus_min_v():
    # a bound state -kappa^2 of a real V lies above min V, so no kappa beyond
    # sqrt(-min V) is scanned; V >= 0 and an obstacle give an empty range,
    # whose search requests no point and finds nothing
    assert scattering.bound_kappa_max(PiecewisePotential((0.5, 1.0), (-3.0, 2.0))) == math.sqrt(3.0)
    for s in (PiecewisePotential((1.0,), (2.5,)), DiskObstacle(1.0, "dirichlet")):
        assert scattering.bound_kappa_max(s) == 0.0
        steps = scattering.axis_search(s, 0, kmax=scattering.bound_kappa_max(s)).steps
        with pytest.raises(StopIteration) as stop:
            next(steps)
        assert stop.value.value == []


def test_non_selfadjoint_axis_hit_is_not_bisected():
    # V = -c on r < 1 puts the mode-0 bound state on the scan node kappa0; a
    # 1e-13 imaginary part leaves |defect| without a sign change, so the hit
    # is a local minimum that Newton does not polish (kappa0 >= 0.5)
    c, kappa0 = 3.1140094941891103, 1.0198438162734804
    (pole,) = imaginary_axis_poles(PiecewisePotential((1.0,), (-c,)), 0)
    assert abs(pole.lam.modulus - kappa0) < 1e-15
    assert imaginary_axis_poles(PiecewisePotential((1.0,), (complex(-c, 1e-13),)), 0) == []
    assert imaginary_axis_poles(PiecewisePotential((1.0,), (complex(-2.5, 1e-12),)), 0) == []


# -- batched pole finding against the one-point-per-step loops ------------------

def _spy(monkeypatch, poison=None):
    """Point lists of every outgoing_defect call, in order.  `poison(points)`
    names the indices of an unchecked call whose defects become NaN."""
    calls = []
    real = scattering.outgoing_defect

    def spy(s, l, lam, checked=True, shift=None):
        pts = list(lam) if lam.shape else [lam]
        calls.append(pts)
        if poison is None or checked:
            return real(s, l, lam, checked=checked, shift=shift)
        d = real(s, l, lam, checked=False, shift=shift)
        d[poison(pts)] = complex("nan")
        return d

    monkeypatch.setattr(scattering, "outgoing_defect", spy)
    return calls


def _key(p: SpectralBatch):
    return p.modulus, p.arg


def _pole_key(p):
    """A pole's fields, with its point as (modulus, arg); None for no pole."""
    return None if p is None else (_key(p.lam), p.mode, p.kind, p.residual, p.iterations)


def _bisection_steps(poles):
    return [p.iterations for p in poles if p.residual == 0.0]   # bisected poles carry 0


@pytest.mark.parametrize("depth, mode, kmax", [
    (2.5, 0, 2.0), (2.5, 1, 2.0), (2.5, 2, 2.0),      # the README well
    (20.0, 1, 5.0), (20.0, 2, 5.0),
])
def test_axis_poles_match_sequential_loops(depth, mode, kmax, monkeypatch):
    s = PiecewisePotential((1.0,), (-depth,))
    calls = _spy(monkeypatch)
    ref = sequential_axis_poles(s, mode, 1e-3, kmax)
    calls.clear()
    poles = imaginary_axis_poles(s, mode, 1e-3, kmax)
    assert list(map(_pole_key, poles)) == list(map(_pole_key, ref))
    # a bisection of n steps takes ceil(n / BISECT_DEPTH) calls
    bisect_calls = [c for c in calls if len(c) not in (AXIS_COUNT, 3)]
    assert len(bisect_calls) <= sum(-(-n // BISECT_DEPTH) for n in _bisection_steps(poles))
    if mode == 0:
        assert _bisection_steps(poles) and len(bisect_calls) > 0


@pytest.mark.parametrize("eps", [-1e-2, -1e-3, 1e-3, 1e-2])
def test_newton_matches_sequential_loop(s_well_fx, p_well_fx, eps, monkeypatch):
    calls = _spy(monkeypatch)
    for fx, mode in ((s_well_fx, 0), (p_well_fx, 1)):
        s = shifted(fx.scatterer, eps)
        for seed in scan_pole_candidates(s, mode)[:MAX_CANDIDATES]:
            calls.clear()
            try:
                ref = sequential_find_pole(s, mode, seed)
            except BasinError:
                ref = None
            visited = [c[0] for c in calls if len(c) == 1]      # the seed, each trial
            calls.clear()
            try:
                pole = find_pole(s, mode, seed)
            except BasinError:
                pole = None
            assert _pole_key(pole) == _pole_key(ref)
            # one call [x, x + h, x - h] per visited point
            assert [len(c) for c in calls] == [3] * len(visited)
            assert [_key(c[0]) for c in calls] == list(map(_key, visited))
        assert (list(map(_pole_key, imaginary_axis_poles(s, mode)))
                == list(map(_pole_key, sequential_axis_poles(s, mode))))


def test_unread_defects_do_not_raise(s_well_fx, generic_well_fx, monkeypatch):
    # Newton evaluates the central-difference pair of every trial, bisection
    # five levels of midpoints; a non-finite value there raises only when
    # the one-point-per-step loop would have evaluated it
    s, mode = shifted(s_well_fx.scatterer, 1e-3), 0
    seeds = scan_pole_candidates(s, mode)[:MAX_CANDIDATES]
    calls = _spy(monkeypatch)
    for seed in seeds:
        with pytest.raises(BasinError):
            sequential_find_pole(s, mode, seed)
    read = {_key(p) for c in calls if len(c) != 3 for p in c}
    poisoned = []

    def unread(pts):
        idx = [i for i, p in enumerate(pts) if _key(p) not in read]
        poisoned.extend(idx)
        return idx

    _spy(monkeypatch, poison=unread)
    for seed in seeds:
        with pytest.raises(BasinError):
            find_pole(s, mode, seed)
    assert poisoned          # some trial was rejected, its pair never read

    well = generic_well_fx.scatterer
    calls = _spy(monkeypatch)
    ref = sequential_axis_poles(well, 0)
    read = {_key(p) for c in calls for p in c}
    poisoned.clear()
    _spy(monkeypatch, poison=unread)
    assert list(map(_pole_key, imaginary_axis_poles(well, 0))) == list(map(_pole_key, ref))
    assert poisoned

    # a value the loop reads still raises
    _spy(monkeypatch, poison=lambda pts: [1, 2] if len(pts) == 3 else [])
    with pytest.raises(NumericalError, match="not finite"):
        find_pole(s, mode, seeds[0])


# -- blocks of modes against one solve per mode -----------------------------------

@pytest.mark.parametrize("name", sorted(MODE_AXIS_SCATTERERS))
def test_mode_blocks_match_one_solve_per_mode(name, monkeypatch):
    # up to lam = 12 the sweep reads modes up to about 30, so it takes the
    # blocks 0-1, 2-5, 6-13 and 14-29; each lam keeps its modes and bits
    s = MODE_AXIS_SCATTERERS[name]
    lams = [float(x) for x in log_grid(1e-4, 12.0, 25)]
    shifts, smat = scattering._phase_tables(s, lams)
    ref_shifts, ref_smat = sequential_phase_tables(s, lams)
    assert [list(d) for d in shifts] == [list(d) for d in ref_shifts]
    assert max(max(d) for d in shifts) >= 14
    assert bit_pattern((shifts, smat)) == bit_pattern((ref_shifts, ref_smat))
    tables = phase_shift_sweep(s, lams)
    monkeypatch.setattr(scattering, "_phase_tables", sequential_phase_tables)
    assert bit_pattern(tables) == bit_pattern(phase_shift_sweep(s, lams))


# a break at 1e-10: past every wavenumber's stop (mode 27 at lam = 12) the
# block 14-29 overflows Y_l(eta r) there, which one solve per mode never forms
TINY_CORE = PiecewisePotential((1e-10, 1.0), (-1.0, -2.5))
TINY_CORE_LAMS = [float(x) for x in log_grid(0.5, 12.0, 6)]


def test_unread_block_modes_neither_raise_nor_warn(monkeypatch):
    s, lams = TINY_CORE, TINY_CORE_LAMS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = sequential_phase_tables(s, lams)
        assert bit_pattern(scattering._phase_tables(s, lams)) == bit_pattern(ref)
    # every (mode, lam) the rule does not read becomes c1 = 0, c2 = NaN,
    # which raises when read
    real, at, poisoned = scattering.regular_solution, {x: i for i, x in enumerate(lams)}, []

    def poison(s, l, lam, shift=None):
        sol = real(s, l, lam, shift)
        c1, c2 = sol.coeffs[-1]
        for k, m in enumerate(l.tolist()):
            for j, x in enumerate(lam.modulus.tolist()):
                if m not in ref[0][at[x]]:
                    c1[k, j], c2[k, j] = 0.0, complex("nan")
                    poisoned.append((m, x))
        return sol

    monkeypatch.setattr(scattering, "regular_solution", poison)
    assert bit_pattern(scattering._phase_tables(s, lams)) == bit_pattern(ref)
    assert poisoned


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_read_block_mode_raises_lowest_first():
    # with the break at 1e-12 mode 25 at lam = 12 is read and not finite
    s = PiecewisePotential((1e-12, 1.0), (-1.0, -2.5))
    with pytest.raises(NumericalError) as ref:
        sequential_phase_tables(s, TINY_CORE_LAMS)
    with pytest.raises(NumericalError) as got:
        scattering._phase_tables(s, TINY_CORE_LAMS)
    assert str(got.value) == str(ref.value)


def test_wide_phase_sweep_writes_nothing_to_stderr(tmp_path):
    cfg = tmp_path / "core.cfg"
    cfg.write_text("kind = potential\nbreaks = 1e-10,1.0\nvalues = -1.0,-2.5\n"
                   "grid.min = 0.5\ngrid.max = 12\ngrid.count = 6\n")
    proc = subprocess.run([sys.executable, "-m", "lowfreq2d.cli", "phase", "--config", str(cfg),
                           "--out", str(tmp_path / "o")], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
