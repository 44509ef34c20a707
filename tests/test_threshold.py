"""Zero-energy classification, distinguished solutions, and their constants."""

import math

import numpy as np
import pytest

from lowfreq2d import (DiskObstacle, GAMMA0, PanelGrid, PiecewisePotential, bump,
                       classify, commutator_apply, default_cutoff, inner, norm_sq,
                       solve_zero_mode, standard_grid)
from lowfreq2d import threshold
from lowfreq2d.errors import DegenerateScattererError, NumericalError
from lowfreq2d.radial import with_trig

from conftest import tune_depth
from oracles import (FREE, MODE_AXIS_SCATTERERS, bit_pattern, constant_one, eigen_projection,
                     sequential_classify_modes)

# the report fields sampled on the grid when first read
LAZY_FIELDS = ("U0", "Ulog", "Uw", "alpha", "s", "eigen_modes")


def test_free_mode0_connection():
    m = solve_zero_mode(FREE, 0)
    assert m.growing == 0.0
    assert m.decaying == 1.0


def test_dirichlet_disk_mode0_connection():
    m = solve_zero_mode(DiskObstacle(1.0, "dirichlet"), 0)
    # u = log(r / a0): unit log coefficient, constant -log a0 = 0
    assert abs(m.decaying / m.growing) < 1e-14
    m2 = solve_zero_mode(DiskObstacle(2.0, "dirichlet"), 0)
    assert abs(m2.decaying / m2.growing + math.log(2.0)) < 1e-13


def test_free_classification(free_fx):
    rep = free_fx.report
    assert rep.dim_g0_mod_g1 == 1 and rep.dim_g1_mod_g2 == 0 and not rep.eigen_modes
    # U0 is identically one
    assert np.max(np.abs(rep.U0.values - 1.0)) < 1e-13


def test_disk_classifications(dirichlet_fx, neumann_fx):
    d, n = dirichlet_fx.report, neumann_fx.report
    assert d.dim_g0_mod_g1 == 0 and d.dim_g1_mod_g2 == 0 and not d.eigen_modes
    assert n.dim_g0_mod_g1 == 1 and n.dim_g1_mod_g2 == 0 and not n.eigen_modes
    assert abs(d.capacity - 0.0) < 1e-13
    assert abs(d.a - GAMMA0) < 1e-13


def test_capacity_scales_with_radius():
    rep = classify(DiskObstacle(2.0, "dirichlet"))
    assert abs(rep.capacity - math.log(2.0)) < 1e-12
    assert abs(rep.a - (GAMMA0 - math.log(2.0))) < 1e-12


def test_single_well_s_resonance_depth_is_bessel_zero():
    # bisection on the transfer-matrix coefficient lands at the first positive
    # root of J1, i.e. depth j_{1,1}^2; frozen from an off-line bisection run
    c, _ = tune_depth((1.0,), (1.0,), 0, 10.0, 20.0)
    assert abs(c - 14.681970642123893) < 1e-9


def test_single_well_mode0_and_mode2_coincide():
    # the same depth carries a mode-2 eigenvalue: a clean s-resonance needs a
    # non-constant well profile (hence the two-step fixtures)
    c, s = tune_depth((1.0,), (1.0,), 0, 10.0, 20.0)
    m2 = solve_zero_mode(s, 2)
    assert abs(m2.growing) < 1e-8 * abs(m2.decaying)


def test_p_well_depth_is_bessel_zero(p_well_fx):
    c = -p_well_fx.scatterer.values[0].real
    assert abs(c - 5.783185962946785) < 1e-9     # j_{0,1}^2


def test_tuned_well_classifications(s_well_fx, p_well_fx, eig_well_fx):
    s, p, e = s_well_fx.report, p_well_fx.report, eig_well_fx.report
    assert (s.dim_g0_mod_g1, s.dim_g1_mod_g2, len(s.eigen_modes)) == (1, 0, 0)
    assert (p.dim_g0_mod_g1, p.dim_g1_mod_g2, len(p.eigen_modes)) == (0, 2, 0)
    assert (e.dim_g0_mod_g1, e.dim_g1_mod_g2) == (0, 0)
    assert [l for l, _ in e.eigen_modes] == [2]


def test_classification_stable_under_grid_refinement(s_well_fx, p_well_fx, eig_well_fx):
    for fx in (s_well_fx, p_well_fx, eig_well_fx):
        fine = classify(fx.scatterer, cutoff=fx.chi, grid=PanelGrid(fx.grid.edges, 2 * fx.grid.n))
        rep = fx.report
        assert fine.dim_g0_mod_g1 == rep.dim_g0_mod_g1
        assert fine.dim_g1_mod_g2 == rep.dim_g1_mod_g2
        assert [l for l, _ in fine.eigen_modes] == [l for l, _ in rep.eigen_modes]


def _dilated(s, c: float):
    """s dilated by c: radii times c, values over c^2; its class is s's."""
    if isinstance(s, DiskObstacle):
        return DiskObstacle(s.radius * c, s.bc)
    return PiecewisePotential(tuple(b * c for b in s.breaks), tuple(v / c**2 for v in s.values))


def test_classification_is_dilation_invariant(s_well_fx, p_well_fx, eig_well_fx):
    # r^l and r^-l differ by R^2l at the support, so the zero test weighs the
    # growing coefficient there; with fixed weights a disk of radius 10 read
    # modes 5-8 as eigenvalues, and tuned wells lost theirs at small c
    scatterers = [DiskObstacle(1.0, "dirichlet"), DiskObstacle(1.0, "neumann"),
                  PiecewisePotential((1.0,), (-2.5,)), PiecewisePotential((0.55, 1.0), (-18.0, -6.3)),
                  PiecewisePotential((1.0,), (30.0,)),
                  s_well_fx.scatterer, p_well_fx.scatterer, eig_well_fx.scatterer]
    for s in scatterers:
        classes = set()
        for k in range(-3, 4):
            r = classify(_dilated(s, 10.0**k))
            classes.add((r.dim_g0_mod_g1, r.dim_g1_mod_g2, tuple(r.eigen_mode_numbers)))
        assert len(classes) == 1, (s, classes)
    assert (s_well_fx.report.dim_g0_mod_g1, p_well_fx.report.dim_g1_mod_g2,
            eig_well_fx.report.eigen_mode_numbers) == (1, 2, [2])


def test_p_well_alpha_degenerate_and_exact(p_well_fx):
    rep = p_well_fx.report
    assert len(rep.alpha) == 2
    assert abs(rep.alpha[0] - rep.alpha[1]) < 1e-12      # forced by symmetry
    # closed form: the tuned single well has alpha = 1/2 exactly
    assert abs(rep.alpha[0] - 0.5) < 1e-10
    assert abs(rep.s[0] - (GAMMA0 + 0.5)) < 1e-10


def test_alpha_stable_under_doubling_r1(p_well_fx):
    # the limit defining alpha is reached exactly beyond the support: compare
    # the r1-truncated value at the grid end and at twice that radius
    s = p_well_fx.scatterer
    chi = p_well_fx.chi
    rep = p_well_fx.report
    big = standard_grid(s, chi, rmax=2.0 * p_well_fx.grid.rmax)
    rep2 = classify(s, cutoff=chi, grid=big)
    assert abs(rep2.alpha[0] - rep.alpha[0]) < 1e-6


def test_ulog_normalization_and_a(dirichlet_fx, generic_well_fx):
    for fx in (dirichlet_fx, generic_well_fx):
        rep = fx.report
        if rep.Ulog is None:
            continue
        assert abs(rep.Ulog.exterior.clog - 1.0) < 1e-13
        assert abs(rep.a - (GAMMA0 + rep.c0_ulog)) < 1e-13


def test_commutator_log_coefficient_identity(free_fx, dirichlet_fx, generic_well_fx, s_well_fx):
    # for each computed mode-0 nullspace element: c_log = -(1/2pi) <[D,chi] u, 1>
    for fx in (free_fx, dirichlet_fx, generic_well_fx, s_well_fx):
        rep = fx.report
        for u in (rep.U0, rep.Ulog):
            if u is None:
                continue
            out = commutator_apply(fx.chi, u)
            val = inner(out, constant_one(fx.grid))
            clog = u.exterior.clog
            assert abs(clog + val / (2.0 * math.pi)) < 1e-9


def test_connection_count_bound(s_well_fx, p_well_fx, eig_well_fx):
    # per mode: one growing-normalized or one decaying-normalized global
    # solution per trig component, never both
    for fx in (s_well_fx, p_well_fx, eig_well_fx):
        for m in fx.report.modes:
            growing_dirs = 0 if m.growing_is_zero else 1
            decaying_dirs = 1 if m.growing_is_zero else 0
            assert growing_dirs + decaying_dirs <= 2


def test_eigen_projection_cases(eig_well_fx, dirichlet_fx):
    rep = eig_well_fx.report
    l, psi = rep.eigen_modes[0]
    assert abs(norm_sq(psi, include_tail=True) - 1.0) < 1e-12
    # projector fixes its range
    proj = eigen_projection(rep, psi)
    assert np.max(np.abs(proj.values - psi.values)) < 1e-10
    # angular orthogonality: a mode-0 source projects to zero
    f0 = bump(eig_well_fx.grid, 0.9, 0.35, 0)
    z = eigen_projection(rep, f0)
    assert np.max(np.abs(z.values)) == 0.0
    # trivial eigenspace
    z2 = eigen_projection(dirichlet_fx.report, dirichlet_fx.f)
    assert np.max(np.abs(z2.values)) == 0.0


def test_lmax_validation():
    with pytest.raises(Exception):
        classify(FREE, lmax=1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_underflowed_well_raises_where_the_nan_arises():
    # eta r underflows, so Y_l of it and both connection coefficients are NaN
    with pytest.raises(NumericalError):
        classify(PiecewisePotential((9.4e-283,), (9.4e-283,)))


def test_samples_match_exterior_expansion(s_well_fx, p_well_fx, eig_well_fx):
    # beyond the support radius the sampled values reproduce the harmonic form
    for fx in (s_well_fx, p_well_fx, eig_well_fx):
        for m in fx.report.modes[:4]:
            u = m.on_grid(fx.grid, 1.0, decaying_only=False)
            R = fx.scatterer.support_radius
            for r in (1.3 * R, 2.0 * R):
                if r >= u.grid.rmax:
                    continue
                sampled = u.grid.eval_at(u.values, r)
                e = u.exterior
                closed = e.c0 + e.clog * math.log(r) + sum(c * r**l for l, c in e.v.items())
                assert abs(sampled - closed) < 1e-10 * max(1.0, abs(closed))


def test_classify_samples_only_the_states_it_reports(monkeypatch, generic_well_fx,
                                                     dirichlet_fx, p_well_fx):
    # each mode's connection is solved once; classify evaluates nothing on the
    # grid, and reading every state evaluates only U0 or Ulog, the 1/r
    # profile and the eigenfunctions
    from lowfreq2d.radialsolve import PiecewiseSolution
    sizes = []
    real_eval = PiecewiseSolution.eval

    def spy(self, r):
        sizes.append(len(r))
        return real_eval(self, r)

    monkeypatch.setattr(PiecewiseSolution, "eval", spy)
    for fx, expected in ((generic_well_fx, 1), (dirichlet_fx, 1), (p_well_fx, 2)):
        sizes.clear()
        rep = classify(fx.scatterer, cutoff=fx.chi, grid=fx.grid)
        assert sizes == []
        for name in LAZY_FIELDS:
            getattr(rep, name)
        assert sizes.count(len(fx.grid.nodes)) == expected


def test_obstacle_higher_mode_connections():
    # exterior harmonics r^l +- a0^{2l} r^{-l} for Neumann/Dirichlet disks
    for bc, sign in (("neumann", 1.0), ("dirichlet", -1.0)):
        for l in (1, 2, 3):
            m = solve_zero_mode(DiskObstacle(1.0, bc), l)
            assert abs(m.decaying / m.growing - sign * l / l) < 1e-12


# -- one solve of every mode against one solve per mode --------------------------

@pytest.mark.parametrize("name", sorted(MODE_AXIS_SCATTERERS))
def test_one_solve_of_every_mode_matches_one_solve_per_mode(name, monkeypatch):
    # the connection coefficients, each mode's solution and every report
    # field, bit for bit
    s = MODE_AXIS_SCATTERERS[name]
    report = classify(s)
    assert bit_pattern(report.modes) == bit_pattern(sequential_classify_modes(s))
    monkeypatch.setattr(threshold, "solve_zero_mode",
                        lambda s, l: sequential_classify_modes(s, len(l) - 1))
    sequential = classify(s)
    assert bit_pattern(report) == bit_pattern(sequential)
    for name in LAZY_FIELDS:
        assert bit_pattern(getattr(report, name)) == bit_pattern(getattr(sequential, name))


def test_classify_solves_its_connections_in_one_bessel_call(monkeypatch):
    from lowfreq2d import radialsolve
    calls = []
    bessel_pair, solve = radialsolve.bessel_pair, threshold.regular_solution

    def spy(l, z, logz, slot):
        calls.append(np.shape(l))
        return bessel_pair(l, z, logz, slot)

    def counted(s, l, lam):
        before = len(calls)
        sol = solve(s, l, lam)
        solves.append((np.shape(l), calls[before:]))
        return sol

    monkeypatch.setattr(radialsolve, "bessel_pair", spy)
    monkeypatch.setattr(threshold, "regular_solution", counted)
    for name in ("readme-well", "two-step-well", "complex-potential"):
        solves = []
        classify(MODE_AXIS_SCATTERERS[name])
        assert solves == [((9,), [(9,)])]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("s", [
    PiecewisePotential((1e-40,), (-1.0,)),        # modes 7 and 8 non-finite
    PiecewisePotential((1.0,), (-1e-3,)),         # modes 6 to 8 vanish
    DiskObstacle(1e-200, "dirichlet"),            # mode 0 vanishes, 1 to 8 non-finite
    DiskObstacle(1e-200, "neumann"),              # modes 1 to 8 non-finite
])
def test_lowest_failing_mode_names_the_error(s):
    with pytest.raises((NumericalError, DegenerateScattererError)) as ref:
        sequential_classify_modes(s)
    with pytest.raises(type(ref.value)) as got:
        classify(s)
    assert str(got.value) == str(ref.value)


# -- threshold states formed on first read ------------------------------------

def _spy_sampling(monkeypatch) -> list:
    """The names of the sampling calls threshold makes from now on:
    `standard_grid` and `ThresholdMode.on_grid`."""
    calls = []
    on_grid, grid = threshold.ThresholdMode.on_grid, threshold.standard_grid

    def spy_on_grid(*args, **kwargs):
        calls.append("on_grid")
        return on_grid(*args, **kwargs)

    def spy_grid(*args, **kwargs):
        calls.append("standard_grid")
        return grid(*args, **kwargs)

    monkeypatch.setattr(threshold.ThresholdMode, "on_grid", spy_on_grid)
    monkeypatch.setattr(threshold, "standard_grid", spy_grid)
    return calls


def _direct_states(rep, grid) -> dict:
    """Each threshold state of rep by its own on_grid call on grid, with
    alpha, s and the eigenfunction norms formed from those samples."""
    m0, m1 = rep.modes[:2]
    out = {"U0": None, "Ulog": None, "Uw": [], "alpha": [], "s": []}
    if m0.growing_is_zero:
        out["U0"] = m0.on_grid(grid, 1.0 / m0.decaying, decaying_only=True)
    else:
        out["Ulog"] = m0.on_grid(grid, 1.0 / m0.growing, decaying_only=False)
    if m1.growing_is_zero:
        prof = m1.on_grid(grid, 1.0 / m1.decaying, decaying_only=True)
        al = grid.integrate(np.abs(prof.values) ** 2 * grid.nodes).real - math.log(grid.rmax)
        out.update(Uw=[with_trig(prof, "cos"), with_trig(prof, "sin")],
                   alpha=[al, al], s=[GAMMA0 + al, GAMMA0 + al])
    out["eigen_modes"] = []
    for m in rep.modes[2:]:
        if m.growing_is_zero:
            raw = m.on_grid(grid, 1.0 / m.decaying, decaying_only=True)
            out["eigen_modes"].append(
                (m.mode, raw.scaled(1.0 / math.sqrt(norm_sq(raw, include_tail=True)))))
    return out


@pytest.mark.parametrize("name", sorted(MODE_AXIS_SCATTERERS) + ["s_well_fx", "p_well_fx",
                                                                 "eig_well_fx"])
def test_lazy_states_are_formed_once_with_the_bits_of_a_direct_sample(name, request,
                                                                      monkeypatch):
    s = (MODE_AXIS_SCATTERERS[name] if name in MODE_AXIS_SCATTERERS
         else request.getfixturevalue(name).scatterer)
    calls = _spy_sampling(monkeypatch)
    rep = classify(s)
    assert calls == []
    first = {field: getattr(rep, field) for field in LAZY_FIELDS}
    assert all(getattr(rep, field) is first[field] for field in LAZY_FIELDS)
    # one grid, then U0 or Ulog, the 1/r profile and each eigenfunction once
    assert calls == ["standard_grid"] + ["on_grid"] * (
        1 + (rep.dim_g1_mod_g2 > 0) + len(rep.eigen_mode_numbers))
    direct = _direct_states(rep, standard_grid(s, default_cutoff(s)))
    for field in LAZY_FIELDS:
        assert bit_pattern(first[field]) == bit_pattern(direct[field]), field
    assert [l for l, _ in rep.eigen_modes] == rep.eigen_mode_numbers
    if name == "eig_well_fx":
        assert rep.eigen_mode_numbers == [2]


# the README well and disk, and the threshold-tuned wells of tools/compare_outputs.py
POLES_CONFIGS = {
    "readme-well": "kind = potential\nbreaks = 1\nvalues = -2.5\n",
    "readme-disk": "kind = disk\nradius = 1\nbc = dirichlet\n",
    "tuned-well": ("kind = potential\nbreaks = 0.5512959285134055, 1.0\n"
                   "values = -31.638610685432084, -11.37666104513994\n"),
    "tuned-p-well": "kind = potential\nbreaks = 1.015948443352384\nvalues = -5.603041241773262\n",
}


@pytest.mark.parametrize("name", sorted(POLES_CONFIGS))
def test_poles_commands_sample_no_threshold_state(name, tmp_path, monkeypatch):
    # the connection coefficients answer classify, capacity, phase and
    # perturb; only classify on a p-resonance samples: its 1/r state, once,
    # for alpha
    import json
    from lowfreq2d.cli import main
    calls = _spy_sampling(monkeypatch)
    cfg = tmp_path / "in.cfg"
    cfg.write_text(POLES_CONFIGS[name])
    for command in ("classify", "capacity", "phase", "perturb"):
        calls.clear()
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / command)])
        assert code == (2 if command == "perturb" and "disk" in name else 0), command
        sampled = name == "tuned-p-well" and command == "classify"
        assert calls == (["standard_grid", "on_grid"] if sampled else []), command
    doc = json.loads((tmp_path / "classify" / "classify.json").read_text())
    assert doc["eigenModes"] == ([2] if name == "tuned-well" else [])
