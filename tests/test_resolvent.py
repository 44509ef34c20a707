"""Free kernel, per-mode resolvent application, pairings, operator identities."""

import math

import numpy as np
import pytest

from lowfreq2d import (SpectralBatch, bump, bump_edges, inner, mode_green,
                       one_sided_identity_residual,
                       pairing_identity_residual, standard_grid,
                       two_parameter_identity_residual)
from lowfreq2d.errors import AtPoleError, DomainError, ValidationError
from lowfreq2d.radial import Exterior

from oracles import (FREE, MODE_AXIS_SCATTERERS, FreeCoeffKernel, bit_pattern,
                     boundary_pairing_fourier, boundary_pairing_samples, circle_pairing,
                     free_kernel, free_truncation_error, from_callable, j0_series, ode_residual,
                     shifted, y0_series)


def test_kernel_symmetry():
    lam = SpectralBatch(0.3, 0.7)
    rng = np.random.default_rng(3)
    for _ in range(8):
        x = (float(rng.uniform(0.1, 3.0)), float(rng.uniform(0, 2 * math.pi)))
        y = (float(rng.uniform(0.1, 3.0)), float(rng.uniform(0, 2 * math.pi)))
        if abs(x[0] - y[0]) < 1e-3:
            continue
        a = free_kernel(lam, x, y)
        b = free_kernel(lam, y, x)
        assert abs(a - b) < 1e-14 * max(1.0, abs(a))


def test_kernel_diagonal_rejected():
    with pytest.raises(DomainError):
        free_kernel(SpectralBatch(1.0, 0.0), (1.0, 0.3), (1.0, 0.3))


def test_kernel_decay_on_upper_axis():
    lam = SpectralBatch(1.0, math.pi / 2)         # lam = i
    k10 = free_kernel(lam, (10.0, 0.0), (0.0, 0.0))
    k20 = free_kernel(lam, (20.0, 0.0), (0.0, 0.0))
    # |H0(i d)| ~ sqrt(2/(pi d)) e^{-d}: the ratio carries e^{-10} sqrt(1/2)
    ratio = abs(k20 / k10)
    assert abs(ratio * math.sqrt(2.0) / math.exp(-10.0) - 1.0) < 0.1


def test_kernel_coefficient_extraction():
    x, y = (0.7, 0.4), (1.3, 2.0)
    r00 = FreeCoeffKernel(0, 0).evaluate(x, y)
    assert FreeCoeffKernel(0, 1).evaluate(x, y) == -1.0 / (2.0 * math.pi)
    vals = []
    for mod in (1e-3, 1e-4, 1e-5):
        lam = SpectralBatch(mod, 0.0)
        vals.append(free_kernel(lam, x, y) - (0.25j) * (2j / math.pi) * lam.log)
    assert abs(vals[-1] - r00) < 1e-8
    assert abs(vals[-1] - r00) < abs(vals[0] - r00)


def test_expansion_order_halving():
    # separations of a few units keep the lam^4 log lam term well above the
    # double-precision floor of the O(1) kernels through n = 15
    pairs = [((2.0, 0.0), (8.5, 2.0)), ((3.0, 1.0), (7.0, -0.5)), ((6.0, 3.0), (4.0, 0.3))]
    errs = []
    for n in range(8, 16):
        lam = SpectralBatch(2.0**-n, math.pi / 4)
        errs.append(free_truncation_error(lam, pairs))
    ratios = [errs[i] / errs[i + 1] for i in range(7)]
    assert all(8.0 <= r <= 40.0 for r in ratios), ratios


@pytest.fixture(scope="module")
def free_setup():
    s = FREE
    from lowfreq2d import default_cutoff
    chi = default_cutoff(s)
    grid = standard_grid(s, chi, extra_edges=bump_edges(1.0, 0.35))
    return s, chi, grid


def test_free_apply_matches_kernel_quadrature(free_setup):
    s, chi, grid = free_setup
    lam = SpectralBatch(0.37, math.pi / 4)
    f = bump(grid, 1.0, 0.35, 0)
    u = mode_green(s, lam, 0, grid).apply(f)
    # oracle: direct angular quadrature of the kernel against f
    for robs in (0.4, 1.9, 3.2):
        th = np.linspace(0, 2 * math.pi, 481)[:-1]
        acc = np.zeros(len(grid.nodes), dtype=complex)
        for i, ry in enumerate(grid.nodes):
            if abs(f.values[i]) == 0.0:
                continue
            z = lam.value * np.sqrt(robs**2 + ry**2 - 2 * robs * ry * np.cos(th))
            ker = 0.25j * (j0_series(z) + 1j * y0_series(z))   # arg z = pi/4: principal log
            acc[i] = f.values[i] * np.mean(ker) * 2 * math.pi
        oracle = grid.integrate(acc * grid.nodes)
        assert abs(u.value_at(robs) - oracle) < 1e-7 * abs(oracle)


def test_selfadjoint_symmetry(generic_well_fx):
    fx = generic_well_fx
    lam = SpectralBatch(0.5, math.pi / 2)
    f = bump(fx.grid, 0.8, 0.25, 0)
    g = bump(fx.grid, 1.6, 0.3, 0)
    green = mode_green(fx.scatterer, lam, 0, fx.grid)
    a = inner(green.apply(f), g)
    b = inner(f, green.apply(g))
    assert abs(a - b) < 1e-9 * abs(a)


def test_dirichlet_boundary_value(dirichlet_fx):
    fx = dirichlet_fx
    u = mode_green(fx.scatterer, SpectralBatch(0.3, 0.1), 0, fx.grid).apply(fx.f)
    assert abs(u.value_at(1.0)) < 1e-10


@pytest.mark.parametrize("x", [float("nan"), float("inf")])
def test_value_at_rejects_non_finite_radius(dirichlet_fx, x):
    # a NaN radius fails every comparison and an infinite one lies beyond every grid
    from lowfreq2d.errors import ValidationError
    sample = mode_green(dirichlet_fx.scatterer, SpectralBatch(0.5, 0.0), 0, dirichlet_fx.grid)
    with pytest.raises(ValidationError):
        sample.value_at(dirichlet_fx.f, x)


def test_wronskian_spread_and_green_residual(free_fx, generic_well_fx, dirichlet_fx):
    for fx in (free_fx, generic_well_fx, dirichlet_fx):
        for lam in (SpectralBatch(0.37, math.pi / 4), SpectralBatch(0.02, math.pi / 2)):
            green = mode_green(fx.scatterer, lam, 0, fx.grid)
            assert green.wronskian_spread < 1e-9
            u = green.apply(fx.f)
            assert ode_residual(green, fx.f, u) < 1e-8


def test_at_pole_error(p_well_fx):
    from oracles import imaginary_axis_poles
    s = shifted(p_well_fx.scatterer, -1e-2)
    pole = imaginary_axis_poles(s, 1)[0]
    with pytest.raises(AtPoleError):
        green = mode_green(s, pole.lam, 1, p_well_fx.grid)
        # fall through only if the guard failed
        green.apply(p_well_fx.source(1))
    # in a batch, the error names the first point at the pole: the second
    # lies one ulp of modulus further out, and is at the pole as well
    first = pole.lam
    second = SpectralBatch(math.nextafter(first.modulus, 1.0), first.arg)
    with pytest.raises(AtPoleError) as err:
        mode_green(s, SpectralBatch([0.5, first.modulus, second.modulus],
                                    [1.0, first.arg, second.arg]), 1, p_well_fx.grid)
    hit = err.value.lam
    assert hit.shape == ()
    assert (hit.modulus, hit.arg) == (first.modulus, first.arg) != (second.modulus, second.arg)
    with pytest.raises(AtPoleError):
        mode_green(s, second, 1, p_well_fx.grid)


# -- boundary pairing ------------------------------------------------------------

def test_pairing_log_against_one(free_fx):
    grid = free_fx.grid
    u = from_callable(grid, lambda r: math.log(r) if r > 0 else 0.0,
                      lambda r: 1.0 / r if r > 0 else 0.0,
                      exterior=Exterior(clog=1.0))
    one = from_callable(grid, lambda r: 1.0, lambda r: 0.0,
                        exterior=Exterior(c0=1.0))
    r1 = free_fx.chi.pairing_radius
    assert abs(boundary_pairing_fourier(u, one, r1, grid.rmin) + 2.0 * math.pi) < 1e-12
    assert abs(boundary_pairing_samples(u, one, r1) + 2.0 * math.pi) < 1e-10


def test_pairing_antisymmetry_real(free_fx):
    u = from_callable(free_fx.grid, lambda r: 1.0 + r * r, lambda r: 2.0 * r)
    r1 = free_fx.chi.pairing_radius
    assert abs(boundary_pairing_samples(u, u, r1)) < 1e-12


def test_pairing_mode1_both_routes(free_fx):
    grid = free_fx.grid
    u = from_callable(grid, lambda r: r, lambda r: 1.0, mode=1,
                      exterior=Exterior(v={1: 1.0}))
    v = from_callable(grid, lambda r: 1.0 / r, lambda r: -1.0 / r**2, mode=1,
                      exterior=Exterior(v={-1: 1.0}))
    r1 = free_fx.chi.pairing_radius
    fourier = boundary_pairing_fourier(u, v, r1, grid.rmin)
    samples = boundary_pairing_samples(u, v, r1)
    oracle = circle_pairing(r1, 1.0, 1.0 / r1, -1.0 / r1**2, r1, 1, 1)
    assert abs(fourier - samples) < 1e-10
    assert abs(fourier - oracle) < 1e-9
    assert abs(fourier + 2.0 * math.pi) < 1e-12      # = -2 pi for (r, 1/r)


@pytest.mark.parametrize("derivs", [False, True])
def test_off_grid_rule_shared_by_value_and_derivative(derivs):
    # off the grid neither the value nor the derivative is known, whatever
    # the exterior expansion
    from lowfreq2d import PanelGrid, RadialFunction, ValidationError
    grid = PanelGrid([1.0, 2.0], 16)
    u = RadialFunction(0, grid, np.log(grid.nodes), 1.0 / grid.nodes if derivs else None,
                       exterior=Exterior(clog=1.0))
    for at in (u.value_at, u.deriv_at):
        with pytest.raises(ValidationError):
            at(2.5)
    assert abs(u.deriv_at(1.5) - 1.0 / 1.5) < 1e-10


def test_pairing_channel_orthogonality(free_fx):
    u = from_callable(free_fx.grid, lambda r: r, None, mode=1, trig="cos")
    v = from_callable(free_fx.grid, lambda r: 1.0 / r, None, mode=1, trig="sin")
    assert boundary_pairing_samples(u, v, free_fx.chi.pairing_radius) == 0.0


def test_pairing_requires_exterior(free_fx):
    u = from_callable(free_fx.grid, lambda r: r, None, mode=1)
    from lowfreq2d.errors import ValidationError
    with pytest.raises(ValidationError):
        boundary_pairing_fourier(u, u, free_fx.chi.pairing_radius, free_fx.grid.rmin)


# -- operator identities ----------------------------------------------------------

@pytest.mark.parametrize("case", ["free", "well", "dirichlet", "neumann"])
def test_identity_suite(case, free_fx, generic_well_fx, dirichlet_fx, neumann_fx):
    fx = {"free": free_fx, "well": generic_well_fx,
          "dirichlet": dirichlet_fx, "neumann": neumann_fx}[case]
    s, chi = fx.scatterer, fx.chi
    gc, gh = chi.r_end + 0.7, 0.5
    grid = standard_grid(s, chi, rmax=chi.pairing_radius + 2.0,
                         extra_edges=bump_edges(fx.f_center, fx.f_half) + bump_edges(gc, gh))
    f = bump(grid, fx.f_center, fx.f_half, 0)
    gfun = bump(grid, gc, gh, 0)
    lam = SpectralBatch(0.01, math.pi / 4)
    z = SpectralBatch(0.02, math.pi / 2)
    assert two_parameter_identity_residual(s, lam, z, chi, f) < 1e-6
    assert one_sided_identity_residual(s, lam, chi, gfun) < 1e-7
    outer = bump(grid, chi.pairing_radius + 0.9, 0.5, 0)
    assert pairing_identity_residual(s, SpectralBatch(0.4, math.pi / 2), outer,
                                     chi.pairing_radius) < 1e-7


@pytest.mark.parametrize("name", [*MODE_AXIS_SCATTERERS, "dirichlet-disk-1.06", "neumann-disk-1.06"])
def test_identities_on_slices_of_shared_solves_keep_their_bits(name):
    # verify's inputs: each identity handed its slices of one solve of s at
    # lam, z and lam_b and one of V = 0 at lam and z returns the float it
    # returns solving alone
    from lowfreq2d import DiskObstacle, default_cutoff
    from lowfreq2d.radialsolve import green_pair
    disks = {"dirichlet-disk-1.06": DiskObstacle(1.06, "dirichlet"),
             "neumann-disk-1.06": DiskObstacle(1.06, "neumann")}
    s = MODE_AXIS_SCATTERERS.get(name) or disks[name]
    chi = default_cutoff(s)
    fc, fh = 0.5 * (s.inner_radius + chi.r0), 0.4 * (chi.r0 - s.inner_radius)
    gc, gh = chi.r_end + 0.7, 0.5
    grid = standard_grid(s, chi, rmax=chi.pairing_radius + 2.0,
                         extra_edges=bump_edges(fc, fh) + bump_edges(gc, gh))
    f, gfun = bump(grid, fc, fh, 0), bump(grid, gc, gh, 0)
    outer = bump(grid, chi.pairing_radius + 0.9, 0.5, 0)
    lam, z, lam_b = (SpectralBatch(0.01, math.pi / 4), SpectralBatch(0.02, math.pi / 2),
                     SpectralBatch(0.4, math.pi / 2))
    sols = green_pair(s, 0, SpectralBatch([0.01, 0.02, 0.4], [math.pi / 4, math.pi / 2, math.pi / 2]))
    free = green_pair(FREE, 0, SpectralBatch([0.01, 0.02], [math.pi / 4, math.pi / 2]))
    shared = (two_parameter_identity_residual(s, lam, z, chi, f,
                                              solutions=(sols[0:1], sols[1:2], free[0:2])),
              one_sided_identity_residual(s, lam, chi, gfun, solutions=(sols[0:1], free[0:1])),
              pairing_identity_residual(s, lam_b, outer, chi.pairing_radius, solution=sols[2:3]))
    alone = (two_parameter_identity_residual(s, lam, z, chi, f),
             one_sided_identity_residual(s, lam, chi, gfun),
             pairing_identity_residual(s, lam_b, outer, chi.pairing_radius))
    assert shared == alone


@pytest.mark.parametrize("name", [*MODE_AXIS_SCATTERERS, "dirichlet-disk-1.06", "neumann-disk-1.06"])
def test_one_pass_sample_keeps_the_bits_of_values_then_lazy_derivatives(name, monkeypatch):
    # mode_green on a solution that kept (u, u') on the nodes reads values,
    # the Wronskian probes and, on first read, the node derivatives off that
    # one pair evaluation, with no bessel_pair call; the sample has the bits
    # of a self-solved sample's values and lazy derivatives, for one point,
    # a batch and a slice of a shared solve
    from lowfreq2d import DiskObstacle, default_cutoff, radialsolve
    from lowfreq2d.radialsolve import green_pair
    disks = {"dirichlet-disk-1.06": DiskObstacle(1.06, "dirichlet"),
             "neumann-disk-1.06": DiskObstacle(1.06, "neumann")}
    s = MODE_AXIS_SCATTERERS.get(name) or disks[name]
    grid = standard_grid(s, default_cutoff(s))
    batch = SpectralBatch([0.01, 0.02, 0.4], [math.pi / 4, math.pi / 2, math.pi / 2])
    fields = ("_nodes", "wronskian", "wronskian_spread", "_ders")
    calls = []
    bessel_pair = radialsolve.bessel_pair
    monkeypatch.setattr(radialsolve, "bessel_pair", lambda *a: calls.append(a) or bessel_pair(*a))
    for l in (0, 2):
        cases = ((batch[0], green_pair(s, l, batch[0], grid.nodes), None),
                 (batch, green_pair(s, l, batch, grid.nodes), None),
                 (batch[1], green_pair(s, l, batch, grid.nodes)[1:2], green_pair(s, l, batch)[1:2]))
        for lam, sol_one, sol_ref in cases:
            calls.clear()
            one = mode_green(s, lam, l, grid, solution=sol_one)
            assert "_ders" not in vars(one)
            one._ders
            assert calls == []
            ref = mode_green(s, lam, l, grid, solution=sol_ref)
            assert "_ders" not in vars(ref)
            for field in fields:
                assert bit_pattern(getattr(one, field)) == bit_pattern(getattr(ref, field)), field


@pytest.mark.parametrize("l", [0, 2])
def test_apply_on_a_kept_nodes_solve_keeps_the_bits_of_a_plain_solve(dirichlet_fx, l):
    # apply reads the node values and derivatives off a solve that kept the
    # nodes, as verify's identities do; values and derivatives have the bits
    # of apply on a solve that kept nothing, for batches of 2 and 3 points
    from lowfreq2d import PiecewisePotential, default_cutoff
    from lowfreq2d.radialsolve import green_pair
    well = PiecewisePotential((0.5, 1.0), (-3.0, 2.0))
    grid = standard_grid(well, default_cutoff(well), extra_edges=bump_edges(0.8, 0.35))
    cases = ((dirichlet_fx.scatterer, dirichlet_fx.grid, bump(dirichlet_fx.grid, 1.25, 0.2, l)),
             (well, grid, bump(grid, 0.8, 0.35, l)))
    for s, g, f in cases:
        for lam in (SpectralBatch([0.7, 1.3], [0.0, -0.4]),
                    SpectralBatch([0.01, 0.02, 0.4], [math.pi / 4, math.pi / 2, math.pi / 2])):
            kept, plain = (mode_green(s, lam, l, g, solution=green_pair(s, l, lam, keep)).apply(f)
                           for keep in (g.nodes, None))
            assert bit_pattern(kept.values) == bit_pattern(plain.values)
            assert bit_pattern(kept.derivs) == bit_pattern(plain.derivs)


def test_two_parameter_identity_free_is_sharp(free_fx):
    # with V = 0 the identity is algebraic; the residual is essentially machine
    fx = free_fx
    lam = SpectralBatch(0.05, math.pi / 3)
    z = SpectralBatch(0.02, math.pi / 2)
    assert two_parameter_identity_residual(fx.scatterer, lam, z, fx.chi, fx.f) < 1e-10


def test_two_parameter_identity_lambda_equals_z(free_fx, generic_well_fx):
    # both sides vanish identically at lam = z: check the raw difference
    fx = generic_well_fx
    lam = SpectralBatch(0.02, math.pi / 2)
    green = mode_green(fx.scatterer, lam, 0, fx.grid)
    lhs = green.apply(fx.f).values - green.apply(fx.f).values
    assert np.max(np.abs(lhs)) == 0.0


def test_mode_mismatch_rejected(free_fx):
    green = mode_green(free_fx.scatterer, SpectralBatch(0.3, 0.0), 0, free_fx.grid)
    from lowfreq2d.errors import ValidationError
    with pytest.raises(ValidationError):
        green.apply(free_fx.source(1))


def test_solution_wronskian_free():
    # regular against outgoing for the free operator: r(J H' - J' H) = 2i/pi
    from lowfreq2d.radialsolve import green_pair
    pair = green_pair(FREE, 0, SpectralBatch(0.8, 0.6))
    for r in (0.3, 1.4, 4.2):
        (phi, psi), (dphi, dpsi) = (a[..., 0] for a in pair.eval(np.array([r])))
        assert abs(r * (phi * dpsi - dphi * psi)[0] - 2j / math.pi) < 1e-13


@pytest.mark.parametrize("l", [0, 2])
def test_lazy_derivatives_match_eager_evaluation(dirichlet_fx, l):
    # the node values come from the order-l basis alone and the derivatives,
    # built on the first apply, from the pair evaluation: u and du carry the
    # bits of the eager pair evaluation
    import dataclasses
    from lowfreq2d import PiecewisePotential, default_cutoff
    well = PiecewisePotential((0.5, 1.0), (-3.0, 2.0))
    grid = standard_grid(well, default_cutoff(well), extra_edges=bump_edges(0.8, 0.35))
    cases = ((dirichlet_fx.scatterer, dirichlet_fx.grid, bump(dirichlet_fx.grid, 1.25, 0.2, l)),
             (well, grid, bump(grid, 0.8, 0.35, l)))
    for s, g, f in cases:
        for lam in (SpectralBatch(0.7, 0.0), SpectralBatch(1.3, -0.4),
                    SpectralBatch([0.7, 1.3, 9.0], [0.0, -0.4, 0.2])):
            sample = mode_green(s, lam, l, g)
            vals, ders = sample.solutions.eval(g.nodes)[:, :, 0]
            if lam.shape == ():
                vals, ders = vals[:, 0], ders[:, 0]
            assert np.array_equal(sample._nodes, vals)
            eager = dataclasses.replace(sample)
            eager.__dict__["_ders"] = ders
            u, ref = sample.apply(f), eager.apply(f)
            assert np.array_equal(u.values, ref.values) and np.array_equal(u.derivs, ref.derivs)
            assert np.array_equal(sample._ders, ders)


@pytest.mark.parametrize("l", [0, 2])
def test_apply_values_matches_apply_bit_for_bit(dirichlet_fx, l):
    # the values-only sibling shares apply's arithmetic and forms no node
    # derivatives, for one spectral point and for a batch
    f = dirichlet_fx.source(l)
    for lam in (SpectralBatch(0.7, 0.3), SpectralBatch([0.7, 1e-3], [0.3, 1.2])):
        sample = mode_green(dirichlet_fx.scatterer, lam, l, dirichlet_fx.grid)
        u = sample.apply_values(f)
        assert u.derivs is None and "_ders" not in vars(sample)
        assert np.array_equal(u.values, sample.apply(f).values)


def test_batched_solutions_match_single_points():
    # a batch holding an element with lam^2 = V exactly: that element takes
    # the harmonic (power) basis on the segment and agrees with its own
    # single-point solve, as do the Bessel elements beside it
    from lowfreq2d import PiecewisePotential
    from lowfreq2d.radialsolve import green_pair, make_segments, regular_solution
    s = PiecewisePotential((0.6, 1.0), (0.25, -1.5))
    lams = SpectralBatch([0.5, 0.7, 2.0], [0.0, 0.3, -0.1])
    assert list(make_segments(s, 0, lams)[0].eta == 0) == [True, False, False]
    r = np.array([0.3, 0.8, 2.5])
    for solve, lead in ((regular_solution, ()), (green_pair, (2,))):
        for l in (0, 2):
            u, du = solve(s, l, lams).eval(r)
            assert u.shape == du.shape == lead + (1, 3, 3)
            for i, lam in enumerate(lams):
                u1, du1 = solve(s, l, lam).eval(r)
                assert np.allclose(u[..., i, :], u1[..., 0, :], rtol=1e-13, atol=0)
                assert np.allclose(du[..., i, :], du1[..., 0, :], rtol=1e-13, atol=0)


@pytest.mark.parametrize("arg", [0.0, math.pi / 4])
def test_solution_slices_keep_the_bits_of_their_own_solve(arg):
    # a slice of one solve along its spectral points (a wave chunk's solve,
    # read per resolvent call) has the values and eval of a green_pair solve
    # of the slice alone, on a disk and on a two-step well: the table of
    # (u, u') the solve keeps (at five probe radii and an observation radius
    # below them, evaluated with the boundary bases, or on 600 radii), sorted
    # by radius, read by column, and any other read on the slice's own points
    from lowfreq2d import DiskObstacle, PiecewisePotential
    from lowfreq2d.radialsolve import PiecewiseSolution, green_pair
    # on arg pi/4, |lam| <= 6 keeps the junction solve of the well in range
    lams = SpectralBatch(np.geomspace(1e-3, 6.0 if arg else 60.0, 40), arg)
    probes = np.array([1.1, 1.3, 1.7, 2.2, 3.5])
    x = np.array([1.08])
    nodes = np.linspace(1.06, 4.0, 600)
    for s in (DiskObstacle(1.06, "dirichlet"), PiecewisePotential((0.5, 1.0), (-3.0, 2.0))):
        assert green_pair(s, 0, lams).kept is None
        for keep in (np.append(probes, x), nodes):
            whole = green_pair(s, 0, lams, keep)
            assert np.array_equal(whole.kept[0], np.sort(keep))
            for sl in (slice(0, 17), slice(17, 34), slice(34, 40)):
                part, alone = whole[sl], green_pair(s, 0, lams[sl])
                own = PiecewiseSolution(part.segments, part.coeffs)
                for r in (probes, x, nodes, nodes[[599, 3, 100]]):
                    for sol in (part, own):
                        assert np.array_equal(sol.values(r), alone.values(r))
                        for got, ref in zip(sol.eval(r), alone.eval(r)):
                            assert np.array_equal(got, ref)


def test_subset_reads_of_a_kept_table_make_no_bessel_call(monkeypatch):
    # the probes read from a solve that kept the nodes (verify's), and the
    # observation radius read from one that kept the probes and x (a sweep's),
    # whole or sliced: columns of the table, no bessel_pair call, with the bits
    # of a solve that kept nothing; the spread probes are a C-contiguous copy,
    # and x, a run of one column, a view of the table
    from lowfreq2d import DiskObstacle, PiecewisePotential, default_cutoff, radialsolve
    from lowfreq2d.radialsolve import green_pair
    from lowfreq2d.resolvent import _probe_index
    calls = []
    bessel_pair = radialsolve.bessel_pair
    monkeypatch.setattr(radialsolve, "bessel_pair", lambda *a: calls.append(a) or bessel_pair(*a))
    lams = SpectralBatch([0.3, 2.4, 7.0], 0.0)
    for s, x in ((DiskObstacle(1.06, "dirichlet"), 1.08), (PiecewisePotential((1.0,), (-2.5,)), 0.4)):
        grid = standard_grid(s, default_cutoff(s))
        probes = grid.nodes[_probe_index(len(grid.nodes))]
        plain = green_pair(s, 0, lams)
        for keep, r in ((grid.nodes, probes), (np.append(probes, x), np.array([x]))):
            kept = green_pair(s, 0, lams, keep)
            for sl in (slice(None), slice(1, 3)):
                calls.clear()
                reads = kept[sl].values(r), kept[sl].eval(r), kept[sl].eval(r)[1]
                assert calls == []
                refs = plain[sl].values(r), plain[sl].eval(r), plain[sl].eval(r)[1]
                for got, ref in zip(reads, refs):
                    if len(r) == 1:
                        assert np.shares_memory(got, kept.kept[1])
                    else:
                        assert got.flags.c_contiguous
                    assert bit_pattern(got) == bit_pattern(ref)


def test_radii_off_the_segments_raise_validation_error():
    # below an obstacle's radius or NaN: a read, also of a solve that kept
    # other radii, or a kept radius
    from lowfreq2d import DiskObstacle, PiecewisePotential
    from lowfreq2d.radialsolve import green_pair
    lam, nan = SpectralBatch(0.5, 0.0), float("nan")
    for s, radii in ((DiskObstacle(1.0, "dirichlet"), ([0.5], [nan], [2.0, 0.99])),
                     (PiecewisePotential((1.0,), (2.0,)), ([nan], [2.0, -1.0]))):
        for sol in (green_pair(s, 0, lam), green_pair(s, 0, lam, np.array([1.5, 2.0, 3.0]))):
            for r in radii:
                for read in (sol.values, sol.eval, lambda r: sol.eval(r)[1]):
                    with pytest.raises(ValidationError):
                        read(np.array(r))
        for r in radii:
            with pytest.raises(ValidationError):
                green_pair(s, 0, lam, np.array(r))


def test_eval_matches_single_radii_bit_for_bit():
    # unsorted radii that interleave the three segments of a two-break well:
    # a segment's radii are a contiguous run (a slice) or not (indices), and
    # either way each radius gets the bits of its own one-radius eval
    from lowfreq2d import PiecewisePotential
    from lowfreq2d.radialsolve import green_pair, regular_solution
    s = PiecewisePotential((0.5, 1.0), (-3.0, 2.0))
    lams = SpectralBatch([0.7, 1.3], [0.0, -0.2])
    for r in ([2.5, 0.3, 0.8, 0.35, 1.2], [0.3, 0.35, 0.8, 1.2, 2.5]):
        for solve in (regular_solution, green_pair):
            for l in (0, 2):
                sol = solve(s, l, lams)
                u, du = sol.eval(np.array(r))
                for i, x in enumerate(r):
                    u1, du1 = (a[..., 0] for a in sol.eval(np.array([x])))
                    assert np.array_equal(u[..., i], u1) and np.array_equal(du[..., i], du1)


def test_harmonic_rows_of_a_mode_array_keep_scalar_exponent_bits():
    # numpy takes r ** 2 and r ** -1 by fast paths (r * r, 1 / r) that a
    # power with an array of exponents rounds differently: each mode's rows
    # (r^l, r^-l and their derivatives; 1, log r, 0, 1 / r for l = 0) have
    # the bits of the scalar formulas
    from lowfreq2d.radialsolve import Segment
    r = np.linspace(0.3, 7.0, 2000)
    flat = np.zeros(1, dtype=complex)
    h = Segment(1.0, math.inf, np.arange(4), flat, flat)._harmonic(r)
    assert h.shape == (4, 4, r.size)
    scalar = ([np.ones(r.size), np.log(r), np.zeros(r.size), 1.0 / r],
              [r, 1.0 / r, np.ones(r.size), -1 * r ** -2],
              [r * r, r ** -2, 2 * r, -2 * r ** -3],
              [r ** 3, r ** -3, 3 * (r * r), -3 * r ** -4])
    for mode, rows in enumerate(scalar):
        assert np.array_equal(h[:, mode].view(np.uint64), np.array(rows).view(np.uint64)), mode


def test_order_zero_derivative_on_positive_z_keeps_every_bit(monkeypatch):
    # at l = 0 with every z > 0 the derivative step takes l / z as zeros
    # instead of dividing; each sign of zero in f[0] and f[1] must come out
    # as the division's +0 + 0j gives it
    from lowfreq2d import radialsolve
    parts = [complex(a, b) for a in (0.0, -0.0, 0.5, -0.5) for b in (0.0, -0.0, 0.5, -0.5)]
    f0, f1 = (np.array(x).reshape(1, 2, 128) for x in np.meshgrid(parts, parts))
    monkeypatch.setattr(radialsolve, "bessel_pair", lambda l, z, logz, slot: np.array([[f0, f1]] * 2))
    eta, r = np.array([0.7, 1.3]) + 0j, np.linspace(0.5, 2.0, 128)
    seg = radialsolve.Segment(0.5, 2.0, np.array([0]), eta, np.log(eta))
    _, _, d1, d2 = radialsolve._bases([seg], [r], None)[0]
    ref = eta[:, None] * (0 / (eta[:, None] * r) * f0 - f1)
    for d in (d1, d2):
        assert np.array_equal(d.view(np.uint64), ref.view(np.uint64))


def test_lam4_log_coefficient_kernel():
    # extract the lam^4 log(lam) coefficient of the free kernel numerically and
    # compare with the tabulated quadrupole-order kernel
    x, y = (1.3, 0.4), (2.1, 2.2)
    base = [FreeCoeffKernel(j, k).evaluate(x, y) for j, k in ((0, 1), (0, 0), (1, 1), (1, 0))]

    def remainder(lam):
        trunc = base[0] * lam.log + base[1] + base[2] * lam.value**2 * lam.log \
            + base[3] * lam.value**2
        return free_kernel(lam, x, y) - trunc

    # two moduli, two args: solve for the lam^4 log and lam^4 coefficients
    import numpy.linalg as la
    pts = [SpectralBatch(m, a) for m in (2.0**-8, 2.0**-9) for a in (0.3, 1.1)]
    A = np.array([[p.value**4 * p.log, p.value**4] for p in pts])
    b = np.array([remainder(p) for p in pts])
    coef, *_ = la.lstsq(A, b, rcond=None)
    r41 = FreeCoeffKernel(2, 1).evaluate(x, y)
    assert abs(coef[0] - r41) < 1e-4 * abs(r41)


@pytest.mark.parametrize("mode", [1, 2])
def test_identity_suite_higher_modes(generic_well_fx, mode):
    fx = generic_well_fx
    s, chi = fx.scatterer, fx.chi
    grid = standard_grid(s, chi, extra_edges=bump_edges(fx.f_center, fx.f_half))
    f = bump(grid, fx.f_center, fx.f_half, mode)
    lam = SpectralBatch(0.01, math.pi / 4)
    z = SpectralBatch(0.02, math.pi / 2)
    assert two_parameter_identity_residual(s, lam, z, chi, f) < 1e-6
