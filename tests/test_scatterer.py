"""Scatterer models, the cutoff bridge, the commutator, config ingestion."""

import math

import numpy as np
import pytest

from lowfreq2d import (CutoffProfile, DiskObstacle, PiecewisePotential,
                       commutator_apply, default_cutoff, parse_config, standard_grid)
from lowfreq2d.errors import ConfigError, ValidationError

from oracles import (FREE, admissible, circle_pairing, constant_one, from_callable,
                     laplacian_chi, serialize_config)


# -- config --------------------------------------------------------------------

def test_parse_potential_example():
    cfg = parse_config("kind=potential; breaks=1; values=-2.5")
    s = cfg.scatterer
    assert isinstance(s, PiecewisePotential)
    assert s.breaks == (1.0,) and s.values == (complex(-2.5),)
    assert s.selfadjoint and not admissible(s)


def test_parse_disk_example():
    cfg = parse_config("kind=disk; radius=1; bc=dirichlet")
    s = cfg.scatterer
    assert isinstance(s, DiskObstacle)
    assert s.radius == 1.0 and s.bc == "dirichlet"


def test_parse_complex_values():
    cfg = parse_config("kind=potential; breaks=0.5,1; values=1+0.5i,2")
    assert cfg.scatterer.values == (1 + 0.5j, 2 + 0j)
    assert admissible(cfg.scatterer)


def test_nonincreasing_breaks_rejected():
    with pytest.raises(ConfigError, match="not increasing"):
        parse_config("kind=potential; breaks=1,0.5; values=1,2")


def test_unknown_key_rejected_with_name():
    with pytest.raises(ConfigError, match="frob"):
        parse_config("kind=disk; radius=1; frob=3")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("kind=disk\nradius=1\nradius=2")


def test_negative_radius_rejected():
    with pytest.raises(ConfigError, match="radius"):
        parse_config("kind=disk; radius=-1")


@pytest.mark.parametrize("build", [
    lambda: PiecewisePotential((1.0,), (math.nan,)),
    lambda: PiecewisePotential((1.0,), (complex(0.0, math.inf),)),
    lambda: PiecewisePotential((math.nan,), (-2.5,)),
    lambda: PiecewisePotential((1.0, math.inf), (-2.5, 1.0)),
    lambda: DiskObstacle(math.inf, "dirichlet"),
    lambda: DiskObstacle(math.nan, "neumann"),
    lambda: CutoffProfile(math.nan, 1.0),
    lambda: CutoffProfile(1.5, math.inf),
], ids=["V-nan", "V-inf", "break-nan", "break-inf", "disk-inf", "disk-nan",
        "r0-nan", "width-inf"])
def test_constructors_reject_nonfinite_data(build):
    with pytest.raises(ValidationError):
        build()


def test_constructor_errors_carry_the_config_key():
    for text, line, key in (("kind=disk\nradius=1\ncutoff.width=0", 3, "cutoff.width"),
                            ("kind=disk\nbc=robin\nradius=1", 2, "bc"),
                            ("kind=potential\nbreaks=1,2\nvalues=-1", 3, "values")):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert (err.value.line, err.value.key) == (line, key)


def test_error_carries_line_number():
    try:
        parse_config("kind = disk\nradius = 1\nnope = 2\n")
    except ConfigError as e:
        assert e.line == 3 and e.key == "nope"
    else:
        pytest.fail("expected ConfigError")


def test_roundtrip_identity():
    text = ("kind=potential; breaks=0.5,1.25; values=-2.5,1e-1+0.25i;"
            " cutoff.r0=2.0; cutoff.width=0.75; grid.count=16; fit.jmax=2")
    cfg = parse_config(text)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert parse_config(serialize_config(again)) == again


# -- cutoff bridge --------------------------------------------------------------

def test_chi_values_and_smoothness():
    chi = CutoffProfile(1.5, 1.0)
    r = np.linspace(1.0, 3.0, 41)
    v = chi.chi(r)
    assert np.all((0.0 <= v) & (v <= 1.0))
    assert v[0] == 1.0 and v[-1] == 0.0
    rr = np.linspace(1.55, 2.45, 13)
    h = 1e-4
    fd1 = (chi.chi(rr + h) - chi.chi(rr - h)) / (2 * h)
    fd2 = (chi.chi(rr + h) - 2 * chi.chi(rr) + chi.chi(rr - h)) / h**2
    _, d1, d2 = chi.jet(rr)
    assert np.max(np.abs(fd1 - d1)) < 1e-6
    assert np.max(np.abs(fd2 - d2)) < 1e-4


def test_laplacian_chi_integrates_to_zero():
    s = FREE
    chi = default_cutoff(s)
    g = standard_grid(s, chi)
    total = 2.0 * math.pi * g.integrate(laplacian_chi(chi, g.nodes) * g.nodes)
    assert abs(total) < 1e-10
    # same statement for w = (1/2pi) Delta chi: <w, 1> = 0
    w_total = g.integrate(laplacian_chi(chi, g.nodes) / (2 * math.pi) * g.nodes) * 2 * math.pi
    assert abs(w_total) < 1e-10


def test_commutator_of_constant_is_laplacian_chi():
    s = FREE
    chi = default_cutoff(s)
    g = standard_grid(s, chi)
    out = commutator_apply(chi, constant_one(g))
    assert np.max(np.abs(out.values - laplacian_chi(chi, g.nodes))) == 0.0
    support = np.abs(out.values) > 0
    assert np.all(g.nodes[support] >= chi.r0) and np.all(g.nodes[support] <= chi.r_end)


def test_commutator_log_pairs_with_one():
    # quadrature oracle for the pairing of [Delta,chi] log r against 1:
    # c_log(log r) = 1 should equal -(1/2pi) <[Delta,chi] log r, 1>
    s = FREE
    chi = default_cutoff(s)
    g = standard_grid(s, chi)
    u = from_callable(g, lambda r: math.log(r) if r > 0 else 0.0,
                      lambda r: 1.0 / r if r > 0 else 0.0)
    out = commutator_apply(chi, u)
    inner = 2.0 * math.pi * g.integrate(out.values * g.nodes)
    assert abs(1.0 + inner / (2.0 * math.pi)) < 1e-9


def test_commutator_inverse_mode_pairing():
    # u = 1/r in mode 1 pairs against r (same mode) to the circle Wronskian value
    s = FREE
    chi = default_cutoff(s)
    g = standard_grid(s, chi)
    u = from_callable(g, lambda r: 1.0 / r, lambda r: -1.0 / r**2, mode=1)
    out = commutator_apply(chi, u)
    got = math.pi * g.integrate(out.values * g.nodes * g.nodes)  # <[D,chi]u, r cos>
    r1 = chi.pairing_radius
    oracle = circle_pairing(1.0 / r1, -1.0 / r1**2, r1, 1.0, r1, 1, 1)
    assert abs(got - oracle) < 1e-9
    assert abs(got - 2.0 * math.pi) < 1e-9


def test_commutator_needs_resolved_bridge():
    s = FREE
    chi = default_cutoff(s)
    from lowfreq2d.quadrature import PanelGrid
    coarse = PanelGrid([0.0, chi.r0, chi.r_end, chi.r_end + 1.0], 8)
    with pytest.raises(ValidationError, match="coarse"):
        commutator_apply(chi, constant_one(coarse))


def test_cutoff_must_cover_support():
    with pytest.raises(ConfigError, match="cutoff.r0"):
        parse_config("kind=potential; breaks=2; values=-1; cutoff.r0=1.5")


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.05, 5.0), min_size=1, max_size=4, unique=True),
    st.lists(st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
             min_size=4, max_size=4),
)
def test_config_roundtrip_property(raw_breaks, raw_values):
    breaks = tuple(sorted(raw_breaks))
    values = tuple(raw_values[: len(breaks)])
    cfg = parse_config(
        "kind=potential; breaks=" + ",".join(repr(b) for b in breaks)
        + "; values=" + ",".join(
            f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}i" for v in values)
    )
    assert parse_config(serialize_config(cfg)) == cfg


def test_bridge_closed_ends_exact():
    # the bridge is evaluated on the open interval only; the closed ends are
    # assigned, so chi is exactly 1 / 0 there with vanishing derivatives
    chi = CutoffProfile(1.5, 1.0)
    r = np.array([1.0, 1.5, 2.0, 2.5, 3.0])
    c, d, d2 = chi.jet(r)
    assert list(c) == [1.0, 1.0, 0.5, 0.0, 0.0]
    assert list(d[[0, 1, 3, 4]]) == [0.0] * 4 and d[2] < 0.0
    assert list(d2[[0, 1, 3, 4]]) == [0.0] * 4
    assert np.all(np.isfinite(laplacian_chi(chi, np.linspace(0.0, 4.0, 4001))))
