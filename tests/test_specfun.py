"""Special functions on the log cover: series, asymptotics, sheet structure."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowfreq2d import EULER, GAMMA0, SpectralBatch
from lowfreq2d.errors import DomainError
from lowfreq2d.specfun import _jh_big, _jh_series

from oracles import (EULER_ORACLE, bessel_jh, hankel1, j0_series, j0_prime, point_formulas,
                     y0_series, y0_prime)


def test_gamma_constants():
    assert abs(EULER - EULER_ORACLE) < 1e-15
    assert GAMMA0 == complex(math.log(2.0) - EULER, math.pi / 2.0)


def test_modulus_zero_rejected():
    with pytest.raises(DomainError):
        SpectralBatch(0.0, 0.0)


def _bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


def test_spectral_batch_rounds_as_its_points():
    # a batch's value, lam2 and log carry, bit for bit and sign of zero
    # included, Python's scalar formulas at each point: on these 10 000
    # moduli np.log differs from math.log on 10, so a vector log fails here
    from lowfreq2d.scattering import SCAN_ARGS
    mods = np.geomspace(1e-9, 60.0, 10_000)
    args = (0.0, math.pi / 4, math.pi / 3, math.pi / 2) + SCAN_ARGS
    m, a = np.tile(mods, len(args)), np.repeat(args, mods.size)
    batch = SpectralBatch(m, a)
    assert batch.shape == (len(batch),) == m.shape
    ref = np.array([point_formulas(*p) for p in zip(m.tolist(), a.tolist())])
    for k, name in enumerate(("value", "lam2", "log")):
        assert np.array_equal(_bits(getattr(batch, name)), _bits(ref[:, k]))
    # a point built on its own has shape (), numpy scalars and the same bits
    for i in range(0, m.size, 37):
        one = SpectralBatch(m[i], a[i])
        assert one.shape == () and len(one) == 1
        assert isinstance(one.modulus, float) and isinstance(one.value, complex)
        assert np.array_equal(_bits([one.value, one.lam2, one.log]), _bits(ref[i]))
    for bad in (0.0, -1.0, float("nan")):
        for mod in (bad, [0.5, bad]):
            with pytest.raises(DomainError):
                SpectralBatch(mod, 0.0)


def test_spectral_batch_iterates_its_points_and_a_point_refuses():
    batch = SpectralBatch([0.5, 0.7, 2.0], [0.1, -0.2, 0.0])
    parts = list(batch)
    assert len(parts) == len(batch) == 3
    for i, p in enumerate(parts):
        assert p.shape == ()
        assert (p.modulus, p.arg, p.log) == (batch.modulus[i], batch.arg[i], batch.log[i])
    # a point has no first axis, as a 0-d numpy array has none
    with pytest.raises(TypeError):
        list(SpectralBatch(0.5, 0.1))
    with pytest.raises(TypeError):
        iter(batch[1])


def test_spectral_batch_slices_carry_the_formed_arrays():
    # slices, index arrays and integers hand on the parent's arrays: each
    # part is bit-equal to a batch built afresh from its moduli and args
    from lowfreq2d.scattering import SCAN_ARGS
    m = np.tile(np.geomspace(1e-6, 50.0, 40), len(SCAN_ARGS))
    a = np.repeat(SCAN_ARGS, 40)
    batch = SpectralBatch(m, a)
    for idx in (slice(3, 50), slice(None, None, 7), [5, 0, 120, 5], np.flatnonzero(m < 0.1), 17, -1):
        part, fresh = batch[idx], SpectralBatch(m[idx], a[idx])
        assert part.shape == fresh.shape == np.shape(m[idx]) and len(part) == len(fresh)
        for name in ("modulus", "arg", "value", "lam2", "log"):
            assert np.array_equal(_bits(getattr(part, name)), _bits(getattr(fresh, name)))
    # a slice is a view of the arrays the parent formed, not formed again
    assert all(np.shares_memory(getattr(batch[3:50], k), getattr(batch, k))
               for k in ("value", "lam2", "log"))
    point = batch[17]
    assert point[()].log == point.log == batch.log[17]


def test_hankel0_against_independent_series_oracle():
    # oracle sanity first: the classical Wronskian for the oracle itself
    for x in (0.5, 1.0, 2.0):
        w = j0_series(x) * y0_prime(x) - j0_prime(x) * y0_series(x)
        assert abs(w - 2.0 / (math.pi * x)) < 1e-9
    # frozen from the oracle: J0(1) + i Y0(1)
    expected = complex(j0_series(1.0), y0_series(1.0))
    assert abs(expected - complex(0.76519769, 0.08825696)) < 1e-7
    got = hankel1(0, SpectralBatch(1.0, 0.0))[0]
    assert abs(got - expected) < 1e-8


def test_hankel0_small_argument_leading_term():
    s = SpectralBatch(1e-5, 0.0)
    lead = 2j / math.pi * (s.log - GAMMA0)
    assert abs(hankel1(0, s)[0] - lead) < 5e-10 * abs(lead)


def test_sheet_shift_identity_seeded():
    rng = np.random.default_rng(42)
    for _ in range(20):
        rho = float(np.exp(rng.uniform(np.log(0.01), np.log(5.0))))
        th = float(rng.uniform(-6.0, 6.0))
        a = hankel1(0, SpectralBatch(rho, th + 2.0 * math.pi))[0]
        b = hankel1(0, SpectralBatch(rho, th))[0]
        J0 = bessel_jh(0, SpectralBatch(rho, th))[0]
        assert abs(a - b + 4.0 * J0) < 1e-10 * max(1.0, abs(b))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.02, 4.0), st.floats(-6.0, 6.0))
def test_sheet_shift_identity_property(rho, th):
    a = hankel1(0, SpectralBatch(rho, th + 2.0 * math.pi))[0]
    b = hankel1(0, SpectralBatch(rho, th))[0]
    J0 = bessel_jh(0, SpectralBatch(rho, th))[0]
    assert abs(a - b + 4.0 * J0) < 1e-10 * max(1.0, abs(b))


@pytest.mark.parametrize("l", range(11))
def test_wronskian_identity(l):
    for mod in np.exp(np.linspace(math.log(1e-4), math.log(10.0), 9)):
        s = SpectralBatch(float(mod), 0.0)
        J, H, Jd, Hd = bessel_jh(l, s)
        target = 2.0 / (math.pi * s.value)
        assert abs(J * Hd - Jd * H - 1j * target) < 1e-9 * abs(target)     # W(J, H1) = i W(J, Y)


def test_wronskian_identity_triple_at_half():
    for l in (0, 1, 2):
        s = SpectralBatch(0.5, 0.0)
        J, H, Jd, Hd = bessel_jh(l, s)
        assert abs(J * Hd - Jd * H - 2j / (math.pi * 0.5)) < 1e-12


def test_series_leading_terms():
    s = SpectralBatch(1e-8, 0.0)
    J, H, _, _ = bessel_jh(0, s)
    assert abs(J - 1.0) < 1e-14
    lead = 2.0 / math.pi * (math.log(1e-8 / 2.0) + EULER)
    assert abs(H.imag - lead) < 1e-12 * abs(lead)      # on the real axis H.imag is Y


def test_hankel_derivative_relation():
    # fourth-order finite-difference oracle on H0
    h = 3e-4
    vals = [hankel1(0, SpectralBatch(0.3 + k * h, 0.0))[0] for k in (-2, -1, 1, 2)]
    fd = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
    H1, _ = hankel1(1, SpectralBatch(0.3, 0.0))
    assert abs(fd + H1) < 1e-10


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_series_asymptotic_crossover(l):
    worst = 0.0
    for mod in (11.1, 11.7, 12.3, 12.9):
        for th in (0.0, 0.7, math.pi / 2, 2.6, -2.8):
            z = np.array([mod * np.exp(1j * th)])
            lz = np.array([math.log(mod) + 1j * th])
            (Js, _), (Hs, _) = (f[:, 0] for f in _jh_series((l,), z, lz))
            (Jb, _), (Hb, _) = (f[:, 0] for f in _jh_big((l,), z, lz))
            scale = abs(Js[0]) + abs(Hs[0] - Js[0])         # |J| + |Y|
            worst = max(worst, (abs(Js[0] - Jb[0]) + abs(Hs[0] - Hb[0])) / scale)
    assert worst < 1e-8


def test_hankel1_consistent_with_jy():
    # H and H' against J + iY and J' + iY' of mpmath at 30 digits, relative
    # to |J| + |Y| as in the crossover test
    mpmath = pytest.importorskip("mpmath")
    for mod, th in ((0.4, 0.3), (3.0, -1.0), (9.0, 2.0)):
        s = SpectralBatch(mod, th)
        H, Hd = hankel1(2, s)
        with mpmath.workdps(30):
            z = mpmath.mpc(s.value)
            j, y = (f(2, z) for f in (mpmath.besselj, mpmath.bessely))
            jd, yd = ((f(1, z) - f(3, z)) / 2 for f in (mpmath.besselj, mpmath.bessely))
            scale, dscale = float(abs(j) + abs(y)), float(abs(jd) + abs(yd))
            h, hd = complex(j + 1j * y), complex(jd + 1j * yd)
        assert abs(H - h) < 1e-12 * scale
        assert abs(Hd - hd) < 1e-12 * max(dscale, 1.0)


def test_hankel_decay_upper_imaginary_axis():
    # |H0(i x)| ~ sqrt(2/(pi x)) e^{-x}
    for x in (2.0, 8.0, 20.0):
        H = hankel1(0, SpectralBatch(x, math.pi / 2.0))[0]
        model = math.sqrt(2.0 / (math.pi * x)) * math.exp(-x)
        assert 0.8 < abs(H) / model < 1.2


def _bessel_pair_error(l, mods, args):
    """Worst error of bessel_pair's J and H against scipy (AMOS) over orders
    l, l + 1, relative to |J| + |Y| as in the crossover test."""
    sp = pytest.importorskip("scipy.special")
    from lowfreq2d.specfun import bessel_pair
    m, t = (a.ravel() for a in np.meshgrid(mods, args))
    z = m * np.exp(1j * t)
    J, H = bessel_pair(l, z, np.log(m) + 1j * t)
    worst = 0.0
    for k in (0, 1):
        ref_j, ref_y = sp.jv(l + k, z), sp.yv(l + k, z)
        scale = np.abs(ref_j) + np.abs(ref_y)
        for ours, ref in ((J[k], ref_j), (H[k], sp.hankel1(l + k, z))):
            worst = max(worst, float(np.max(np.abs(ours - ref) / scale)))
    return worst


_PRINCIPAL_ARGS = np.linspace(-math.pi, math.pi, 25)[1:]


@pytest.mark.parametrize("l", range(5))
def test_bessel_pair_against_scipy(l):
    mods = np.concatenate([[0.05, 0.5, 2.0, 6.0, 9.0, 20.0, 40.0],
                           np.linspace(11.0, 13.0, 21)])       # the series/asymptotic seam
    assert _bessel_pair_error(l, mods, _PRINCIPAL_ARGS) < 1e-9
    assert _bessel_pair_error(l, mods, np.array([0.0])) < 1e-11


@pytest.mark.parametrize("l", [9, 10, 11])
def test_bessel_pair_order_switch_against_scipy(l):
    # beyond SERIES_RADIUS the series still serves orders above 0.75|z|; both
    # orders of the pair follow order l + 1 across that switch
    mods = np.linspace(12.0, 15.5, 15)
    assert _bessel_pair_error(l, mods, _PRINCIPAL_ARGS) < 5e-9
    assert _bessel_pair_error(l, mods, np.array([0.0])) < 1e-11


@pytest.mark.parametrize("l", [0, 1, 3])
def test_block_term_count_matches_single_points(l):
    # one block mixes both branches and the seam, where the series' cancellation
    # at |z| = 11.9 near the real axis would magnify a one-ulp change to ~1e-12;
    # term counts are read from each point's |z|, so its block-mates cannot
    # change its value
    from lowfreq2d.specfun import bessel_pair
    mods = np.array([0.01, 3.0, 11.9, 12.01, 12.5, 20.0, 60.0])
    # arg = +-2 pi: real z off sheet 0, so the block mixes the float64 and complex routes
    args = np.array([0.0, 0.7, math.pi / 2, -math.pi / 2, math.pi - 0.1, 0.1 - math.pi,
                     2 * math.pi, -2 * math.pi])
    m, t = (a.ravel() for a in np.meshgrid(mods, args))
    z, logz = m * np.exp(1j * t), np.log(m) + 1j * t
    J, H = bessel_pair(l, z, logz)
    for i in range(z.size):
        j, h = (f[:, 0] for f in bessel_pair(l, z[i:i + 1], logz[i:i + 1]))
        scale = np.abs(j) + np.abs(h - j)           # |J| + |Y|
        assert np.all(np.abs(J[:, i] - j) <= 1e-14 * scale)
        assert np.all(np.abs(H[:, i] - h) <= 1e-14 * np.abs(h))


def _mixed_route_points(n: int, seed: int):
    """n points over 0.01 <= |z| <= 200: real z on sheet 0 (the float64 route),
    real z on sheets +-1 and complex z on sheets 0 and +-1, across both branches."""
    rng = np.random.default_rng(seed)
    mods = np.exp(rng.uniform(math.log(0.01), math.log(200.0), n))
    sheets = 2 * math.pi * rng.integers(-1, 2, n)
    args = sheets + np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-math.pi, math.pi, n))
    return mods * np.exp(1j * args), np.log(mods) + 1j * args


@pytest.mark.parametrize("l", [0, 1, 3])
def test_large_call_matches_single_points_bit_for_bit(l):
    # a call of 6000 points: each point is routed, summed and written
    # exactly as in its own one-point call, and a permuted call permutes
    # the bits
    from lowfreq2d.specfun import bessel_pair
    z, logz = _mixed_route_points(6000, l)
    assert (logz.imag == 0).any() and (np.abs(logz.imag) > math.pi).any()
    assert (np.abs(z) <= 12.0).any() and (np.abs(z) > 12.0).any()
    J, H = bessel_pair(l, z, logz)
    for i in range(z.size):
        j, h = bessel_pair(l, z[i:i + 1], logz[i:i + 1])
        assert np.array_equal(J[:, i:i + 1], j) and np.array_equal(H[:, i:i + 1], h)
    perm = np.random.default_rng(7).permutation(z.size)
    for ours, ref in zip(bessel_pair(l, z[perm], logz[perm]), (J, H)):
        assert np.array_equal(ours, ref[:, perm])


@pytest.mark.parametrize("l", [0, 1, 3, 10])
def test_slot_calls_match_the_pair_bit_for_bit(l):
    # order l alone is that order of the pair call:
    # the float64 and complex routes, both branches, sheets 0 and +-1, the
    # |z| = 12 seam and (at l = 10, where it lies beyond the seam) both sides
    # of the 0.75|z| order switch, on a 2-D batch
    from lowfreq2d.specfun import bessel_pair
    z, logz = _mixed_route_points(3000, 20 + l)
    mods = np.array([11.9, 12.0, 12.1, (l + 1) / 0.75 - 0.05, (l + 1) / 0.75 + 0.05])
    args = np.array([0.0, 0.4, -2.0, 2 * math.pi, -2 * math.pi + 0.3])
    m, t = (a.ravel() for a in np.meshgrid(mods, args))
    z = np.concatenate([z, m * np.exp(1j * t)]).reshape(-1, 5)
    logz = np.concatenate([logz, np.log(m) + 1j * t]).reshape(-1, 5)
    for ours, ref in zip(bessel_pair(l, z, logz, 0), bessel_pair(l, z, logz)):
        assert ours.shape == z.shape
        assert np.array_equal(ours, ref[0])


def test_bessel_pair_work_memory_is_linear_in_points():
    # the masked Horner rows are formed one at a time, so a large mixed-route
    # call peaks at a few times its (2, 2, P) complex output (about 4.2 times)
    import tracemalloc
    from lowfreq2d.specfun import bessel_pair
    z, logz = _mixed_route_points(60_000, 5)
    bessel_pair(1, z[:64], logz[:64])         # the cached tables
    tracemalloc.start()
    try:
        bessel_pair(1, z, logz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * (2 * 2 * z.size * 16)


def _seam_points(orders):
    """_mixed_route_points and, on five args (sheets 0 and +-1), both sides of
    the |z| = 12 seam and of every order's 0.75|z| switch, as a 2-D batch."""
    z, logz = _mixed_route_points(3000, 40)
    mods = np.concatenate([[11.9, 12.0, 12.1],
                           [(l + 1) / 0.75 + d for l in orders for d in (-0.05, 0.05)]])
    args = np.array([0.0, 0.4, -2.0, 2 * math.pi, -2 * math.pi + 0.3])
    m, t = (a.ravel() for a in np.meshgrid(mods, args))
    z = np.concatenate([z, m * np.exp(1j * t)])
    logz = np.concatenate([logz, np.log(m) + 1j * t])
    n = z.size - z.size % 5
    return z[:n].reshape(-1, 5), logz[:n].reshape(-1, 5)


@pytest.mark.parametrize("slot", [None, 0])
def test_order_array_matches_each_order_bit_for_bit(slot):
    # one call over orders 0-11 is, order by order, the call for that order
    # alone: the float64 and complex routes, both branches, sheets 0 and +-1,
    # the |z| = 12 seam and each order's 0.75|z| switch; orders 1-3 take
    # numpy's scalar-power fast paths, which an array of exponents would not
    from lowfreq2d.specfun import bessel_pair
    orders = np.arange(12)
    z, logz = _seam_points(orders)
    assert (logz.imag == 0).any() and (np.abs(np.abs(z) - 12.0) < 0.2).any()
    lead = (2,) if slot is None else ()
    for ours, ref in zip(bessel_pair(orders, z, logz, slot),
                         zip(*(bessel_pair(int(l), z, logz, slot) for l in orders))):
        assert ours.shape == lead + (len(orders),) + z.shape
        for k, f in enumerate(ref):
            assert np.array_equal(_bits(ours[..., k, :, :]), _bits(f))
    # any order list, in any order, is a choice of those orders
    pick = np.array([7, 0, 3])
    for ours, ref in zip(bessel_pair(pick, z, logz, slot), bessel_pair(orders, z, logz, slot)):
        assert np.array_equal(_bits(ours), _bits(ref[..., pick, :, :]))


def test_series_powers_keep_numpy_scalar_exponent_bits():
    # below |z| = 1e-9 the series is its leading term, so J_2 is (z/2)^2 / 2
    # with numpy's scalar square, which an array of exponents rounds
    # differently in about 15% of these points
    from lowfreq2d.specfun import bessel_pair
    rng = np.random.default_rng(3)
    m = np.exp(rng.uniform(math.log(1e-12), math.log(1e-9), 2000))
    t = np.where(rng.random(m.size) < 0.5, 0.0, rng.uniform(-3.0, 3.0, m.size))
    z, logz = m * np.exp(1j * t), np.log(m) + 1j * t
    square = (0.5 * z) ** 2 * 0.5
    ref = np.where(t == 0, square.real + 0j, square)
    J = bessel_pair(np.arange(4), z, logz)[0]
    assert np.array_equal(_bits(J[0, 2]), _bits(ref))


def test_order_array_work_memory_is_linear_in_its_output():
    # nine orders at once: the series columns and the recurrence's orders
    # stack on the order axis, and the peak stays a few times the
    # (2, 2, 9, P) complex output (about 2.9 times)
    import tracemalloc
    from lowfreq2d.specfun import bessel_pair
    orders = np.arange(9)
    z, logz = _mixed_route_points(12_000, 5)
    bessel_pair(orders, z[:64], logz[:64])         # the cached tables
    tracemalloc.start()
    try:
        bessel_pair(orders, z, logz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (2 * 2 * len(orders) * z.size * 16)


@pytest.mark.parametrize("l", [0, 1, 3])
def test_float64_route_matches_complex_route(l):
    # real z with a real log runs both branches in float64; the same points as
    # complex numbers take the complex route (sheet reduction, exponentials)
    for fn, x in ((_jh_series, np.linspace(0.01, 12.0, 300)),
                  (_jh_big, np.linspace(12.01, 90.0, 400))):
        real = fn((l,), x, np.log(x))
        cplx = fn((l,), x + 0j, np.log(x) + 0j)
        assert real[0].dtype == np.float64 and real[1].dtype == complex
        scale = np.abs(cplx[0]) + np.abs(cplx[1].imag)      # |J| + |Y|
        for ours, ref in zip(real, cplx):
            assert np.all(np.abs(ours - ref) <= 1e-14 * scale)


@pytest.mark.parametrize("slot", [None, 0])
@pytest.mark.parametrize("l", [0, 3, (0, 1, 2, 3), (0, 9, 12)])
def test_real_axis_calls_return_float64_j(l, slot):
    # real z with a real log: J comes back float64 and H complex, with
    # the bits a call gives them when one complex point added to it makes
    # every output complex; on a block all on the series, one all on the
    # asymptotics and one across the seam and (orders 9 and 12, beyond the
    # seam) each order's 0.75|z| switch
    from lowfreq2d.specfun import bessel_pair
    l = np.array(l) if isinstance(l, tuple) else l
    extra = np.array([2.0 * np.exp(0.3j)])
    for x in (np.linspace(0.01, 3.0, 50), np.linspace(13.0, 60.0, 50), np.linspace(0.01, 60.0, 400)):
        ours = bessel_pair(l, x + 0j, np.log(x) + 0j, slot)
        ref = bessel_pair(l, np.append(x, extra), np.append(np.log(x), np.log(extra)), slot)
        for k, (f, g) in enumerate(zip(ours, ref)):
            g = g[..., :-1]
            if k == 0:
                assert f.dtype == np.float64
                assert np.array_equal(_bits(f), _bits(g.real)) and not _bits(g.imag).any()
            else:
                assert f.dtype == complex and np.array_equal(_bits(f), _bits(g))


def test_underflowing_argument_takes_one_term_without_warning():
    # q = -z^2/4 underflows at |z| = 1e-170 and u = 1/z^2 at |z| = 1e170
    from lowfreq2d.specfun import bessel_pair
    mods = np.array([1e-170, 1e-170, 1e170])
    args = np.array([0.0, 1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        J, H = bessel_pair(0, mods * np.exp(1j * args), np.log(mods) + 1j * args)
    assert J[0, 0] == 1.0 and J[0, 1] == 1.0
    assert np.all(np.isfinite(H[0, :2]))
    assert np.all(np.isfinite(J[:, 2:])) and np.all(np.isfinite(H[:, 2:]))


def test_bessel_pair_feeds_the_single_order_functions():
    from lowfreq2d.specfun import bessel_pair
    z = np.array([0.3 + 0.1j, 4.0, 12.5 - 3.0j, 30.0j])
    for mod, arg in zip(np.abs(z), np.angle(z)):
        s = SpectralBatch(float(mod), float(arg))
        J, H = (f[:, 0] for f in bessel_pair(2, np.array([s.value]), np.array([s.log])))
        j, h, jd, hd = bessel_jh(2, s)
        assert (j, h) == (J[0], H[0]) and hankel1(2, s) == (h, hd)
        # derivatives by the order-raising recurrence f_2' = (2/z) f_2 - f_3
        for d, f in ((jd, J), (hd, H)):
            assert abs(d - (2.0 / s.value * f[0] - f[1])) <= 1e-14 * (abs(d) + abs(f[1]))


@pytest.mark.parametrize("l", [0, 1, 3, 10])
def test_bessel_pair_off_principal_sheet_against_mpmath(l):
    # DLMF 10.11: J_n(z e^{m pi i}) = (-1)^{mn} J_n(z) and
    # Y_n(z e^{m pi i}) = (-1)^{mn} (Y_n(z) + 2 i m J_n(z)), with J_n(z), Y_n(z)
    # from mpmath at 30 digits on the principal branch.  The moduli straddle
    # the SERIES_RADIUS = 12 seam and, for l = 10, the l + 1 > 0.75|z| switch
    # (|z| = 14 takes the series, 15.5 the asymptotics).
    mpmath = pytest.importorskip("mpmath")
    from lowfreq2d.specfun import bessel_pair
    mods = (0.05, 0.9, 4.0, 11.5, 12.5, 14.0, 15.5, 40.0)
    args = (-2.6, -0.9, 0.5, 2.2)
    sheets = (-4, -2, -1, 1, 2, 4)
    worst = 0.0
    for mod in mods:
        for arg in args:
            with mpmath.workdps(30):
                zp = mpmath.mpc(mod) * mpmath.exp(1j * mpmath.mpf(arg))
                ref = [(complex(mpmath.besselj(n, zp)), complex(mpmath.bessely(n, zp)))
                       for n in (l, l + 1)]
            for m in sheets:
                th = arg + m * math.pi
                J, H = bessel_pair(l, np.array([mod * complex(math.cos(th), math.sin(th))]),
                                   np.array([complex(math.log(mod), th)]))
                for k, (j0, y0) in enumerate(ref):
                    sign = (-1) ** (m * (l + k))
                    jr, yr = sign * j0, sign * (y0 + 2j * m * j0)
                    scale = abs(jr) + abs(yr)
                    for ours, want in ((J[k, 0], jr), (H[k, 0], jr + 1j * yr)):
                        worst = max(worst, abs(ours - want) / scale)
    assert worst < 1e-9, worst
