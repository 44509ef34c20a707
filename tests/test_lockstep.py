"""Lockstep pole searches: `resonance`'s and `perturb`'s searches share one
defect call per step, and each keeps the results, the errors and the silence
of a run of one search after the other."""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest

from lowfreq2d import PiecewisePotential, SpectralBatch, cli, scattering
from lowfreq2d.cli import main
from lowfreq2d.errors import NumericalError, ValidationError
from lowfreq2d.radialsolve import regular_solution
from lowfreq2d.scatterer import parse_config
from lowfreq2d.threshold import classify
from lowfreq2d.util import log_grid

from oracles import (MODE_AXIS_SCATTERERS, bit_pattern, imaginary_axis_poles, sequential_perturb,
                     sequential_resonance, shifted)

# a p-wave threshold state: every negative member's pole is Newton-polished from the axis
TUNED_P_WELL = "kind = potential\nbreaks = 1.015948443352384\nvalues = -5.603041241773262\n"
REPULSIVE_STEP = "kind = potential\nbreaks = 1\nvalues = 5\n"
WIDE_WELL = "kind = potential\nbreaks = 100\nvalues = -0.001\n"
LAMS = [float(x) for x in log_grid(1e-4, 1.0, 12)]


def _pole_bits(p):
    """A pole's point, mode, kind, residual and iterations as bits; None for no pole."""
    if p is None:
        return None
    return bit_pattern((p.lam.modulus, p.lam.arg, p.mode, p.kind, p.residual, p.iterations))


def _resonance_bits(found):
    return [(_pole_bits(disk), list(map(_pole_bits, axis))) for disk, axis in found]


def _perturb_bits(members):
    return [(_pole_bits(pole), bit_pattern(tables)) for pole, tables in members]


@pytest.fixture(scope="module")
def lockstep_cases(s_well_fx, p_well_fx):
    cases = dict(MODE_AXIS_SCATTERERS)
    cases.update({"tuned-s-well": s_well_fx.scatterer, "tuned-p-well": p_well_fx.scatterer,
                  "tuned-p-well-cfg": parse_config(TUNED_P_WELL).scatterer})
    return cases


@pytest.mark.parametrize("name", sorted(MODE_AXIS_SCATTERERS) + ["tuned-s-well", "tuned-p-well",
                                                                 "tuned-p-well-cfg"])
def test_lockstep_resonance_matches_sequential_searches(lockstep_cases, name):
    s = lockstep_cases[name]
    assert _resonance_bits(cli._resonance_searches(s)) == _resonance_bits(sequential_resonance(s))


@pytest.mark.parametrize("name", sorted(n for n, s in MODE_AXIS_SCATTERERS.items()
                                        if isinstance(s, PiecewisePotential))
                         + ["tuned-s-well", "tuned-p-well", "tuned-p-well-cfg"])
def test_lockstep_perturb_matches_sequential_members(lockstep_cases, name):
    s = lockstep_cases[name]
    mode = cli._tuned_mode(classify(s))
    got = cli._perturb_members(s, mode, LAMS)
    ref = sequential_perturb(s, mode, LAMS)
    assert _perturb_bits(got) == _perturb_bits(ref)
    if name.startswith("tuned-p-well"):
        # mode 1; both negative members have an axis pole that Newton polished
        assert mode == 1
        assert [p.residual > 0.0 for p, _ in got[:2]] == [True, True]


def test_shifted_segments_are_the_shifted_potentials():
    s = PiecewisePotential((0.55, 1.0), (-18.0, complex(-6.3, 0.25)))
    lam = SpectralBatch(np.tile([1e-3, 0.05, 0.4, 2.0], 3), np.repeat([0.0, math.pi / 2, -0.8], 4))
    eps = np.repeat([-1e-2, 1e-3, 3.5], 4)
    modes = np.array([0, 1, 3])
    got = regular_solution(s, modes, lam, eps).coeffs
    for j in range(len(lam)):
        ref = regular_solution(shifted(s, float(eps[j])), modes, lam[j:j + 1]).coeffs
        assert bit_pattern([(c1[:, j], c2[:, j]) for c1, c2 in got]) == \
            bit_pattern([(c1[:, 0], c2[:, 0]) for c1, c2 in ref])


def test_per_point_modes_read_their_own_defects():
    s = MODE_AXIS_SCATTERERS["two-step-well"]
    lam = SpectralBatch([0.02, 0.3, 0.02, 1.1, 0.3], [1.0, math.pi / 2, -0.4, 0.0, math.pi / 2])
    modes = np.array([2, 0, 1, 2, 1])
    eps = np.array([1e-3, -1e-2, 1e-3, 0.0, 1e-2])
    got = scattering.outgoing_defect(s, modes, lam, shift=eps)
    ref = [scattering.outgoing_defect(shifted(s, float(e)), int(m), lam[j])
           for j, (m, e) in enumerate(zip(modes, eps))]
    assert bit_pattern(list(got)) == bit_pattern(ref)
    # a batch of any shape: the points as a column
    col = SpectralBatch(lam.modulus.reshape(5, 1), lam.arg.reshape(5, 1))
    got = scattering.outgoing_defect(s, modes.reshape(5, 1), col, shift=eps.reshape(5, 1))
    assert got.shape == (5, 1) and bit_pattern(list(got[:, 0])) == bit_pattern(ref)


def _column(coeffs, *idx):
    """The bits of every exterior and interior coefficient of a solution at idx."""
    return [bit_pattern(np.complex128(c[idx])) for pair in coeffs for c in pair]


@pytest.mark.parametrize("name,shifted", [(n, False) for n in sorted(MODE_AXIS_SCATTERERS)] + [
    (n, True) for n, s in sorted(MODE_AXIS_SCATTERERS.items()) if isinstance(s, PiecewisePotential)])
def test_one_point_keeps_its_bits_in_every_mode_array_and_batch(name, shifted):
    # a spectral point has the bits of a one-mode solve of the point alone in
    # a one-mode array, in a batch of 2, 3 or 33 points, in regular_solution's
    # coefficients and in outgoing_defect, with and without per-point shifts
    s = MODE_AXIS_SCATTERERS[name]
    rng = np.random.default_rng(3)
    mods, args = rng.uniform(1e-3, 2.0, 32), rng.uniform(-2.5, math.pi / 2, 32)
    shifts = rng.uniform(-1e-2, 1e-2, 32) if shifted else None
    for mod, arg in ((0.02, 1.0), (0.3, -0.4), (1.7, math.pi / 2)):
        point, eps = SpectralBatch(mod, arg), 1e-3 if shifted else None
        for m in range(5):
            ref = _column(regular_solution(s, np.array([m]), point, eps).coeffs, 0, 0)
            ref_d = bit_pattern(complex(scattering.outgoing_defect(s, m, point, shift=eps)))
            for n in (1, 2, 3, 33):
                k = n // 2
                batch = SpectralBatch(np.insert(mods[:n - 1], k, mod), np.insert(args[:n - 1], k, arg))
                beps = None if eps is None else np.insert(shifts[:n - 1], k, eps)
                got = regular_solution(s, np.array([m]), batch, beps).coeffs
                assert _column(got, 0, k) == ref, (m, n)
                d = scattering.outgoing_defect(s, np.full(n, m), batch, shift=beps)
                assert bit_pattern(complex(d[k])) == ref_d, (m, n)


def test_a_shift_needs_a_potential():
    # V + eps has no meaning on an obstacle: a shift raises, where it was ignored
    disk, lam = MODE_AXIS_SCATTERERS["dirichlet-disk"], SpectralBatch(0.3, 0.2)
    with pytest.raises(ValidationError):
        scattering.outgoing_defect(disk, 0, lam, shift=0.5)
    for search in (scattering.disk_search(0, shift=0.5), scattering.axis_search(disk, 0, shift=0.5)):
        with pytest.raises(ValidationError):
            scattering.run_searches(disk, [search])


def test_mode_and_shift_broadcast_to_the_batch():
    # a scalar shift serves several per-point modes as it serves one, each
    # point with the bits of a call of its own; a mode or shift array that
    # does not broadcast to the batch raises ValidationError
    s, lam = PiecewisePotential((1.0,), (-2.5,)), SpectralBatch([0.1, 0.2, 0.3], 0.3)
    got = scattering.outgoing_defect(s, np.array([0, 1, 2]), lam, shift=1e-3)
    ref = [scattering.outgoing_defect(s, m, lam[j], shift=1e-3) for j, m in enumerate((0, 1, 2))]
    assert bit_pattern(list(got)) == bit_pattern(ref)
    for modes, eps in ((np.array([0, 1]), None), (0, np.array([1e-3, 2e-3])),
                       (np.array([0, 1]), 1e-3), (np.array([0, 1, 2]), np.ones((2, 3)))):
        with pytest.raises(ValidationError):
            scattering.outgoing_defect(s, modes, lam, shift=eps)


@pytest.mark.parametrize("modes", [-1, 1.5, np.array([], dtype=int), [], np.zeros((2, 2), int),
                                   np.array([0, -2]), np.array([0.0, 1.0])])
def test_malformed_modes_raise_validation_error(modes):
    # the mode axis is formed in one place, which refuses a negative, non-integer,
    # empty or 2-D mode argument, for every solve and without a warning
    from lowfreq2d.radialsolve import green_pair
    from lowfreq2d.threshold import solve_zero_mode
    s = PiecewisePotential((1.0,), (-2.5,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (lambda: regular_solution(s, modes, SpectralBatch(0.5, 0.0)),
                      lambda: green_pair(s, modes, SpectralBatch(0.5, 0.0)),
                      lambda: solve_zero_mode(s, modes)):
            with pytest.raises(ValidationError):
                solve()


# -- work done: one solve per lockstep step --------------------------------------

def _count_solves(monkeypatch, tmp_path, command: str, cfg_text: str) -> int:
    calls = []
    real = scattering.regular_solution

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scattering, "regular_solution", spy)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(cfg_text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    return len(calls)


def test_perturb_solves_once_per_lockstep_step(monkeypatch, tmp_path):
    # one scan round, the Newton rounds of the longest member and two mode blocks
    assert _count_solves(monkeypatch, tmp_path, "perturb", TUNED_P_WELL) <= 9


def test_resonance_scans_every_mode_in_one_solve(monkeypatch, tmp_path):
    assert _count_solves(monkeypatch, tmp_path, "resonance", REPULSIVE_STEP) <= 2


# -- errors: the first a one-after-the-other run raises ---------------------------


def _cli_error(tmp_path, command: str, cfg_text: str) -> tuple[int, list[str]]:
    cfg = tmp_path / "c.cfg"
    cfg.write_text(cfg_text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    return code, err.getvalue().splitlines()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
# perturb tracks mode 0, the one mode classify finds at threshold on this well
@pytest.mark.parametrize("command, mode", [("perturb", 0), ("resonance", 0)])
def test_wide_well_exits_3_with_the_sequential_message(tmp_path, command, mode):
    code, lines = _cli_error(tmp_path, command, WIDE_WELL)
    assert code == 3
    assert [json.loads(x) for x in lines] == [
        {"error": "NumericalError", "message": f"outgoing defect of mode {mode} is not finite"}]


def _poison_members(monkeypatch, members: dict):
    """regular_solution whose c1 is NaN at the points of the members V + eps
    that `members` names, eps -> (where, mode): where is "all" or "real" (the
    real axis alone), mode one mode or None for every mode; on
    `shifted(s, eps)` and on s with a per-point shift alike."""
    real = scattering.regular_solution

    def poisoned(s, l, lam, shift=None):
        sol = real(s, l, lam, shift)
        v0 = np.broadcast_to(s.values[0] if shift is None else s.shifted_values(shift)[0],
                             np.shape(lam.modulus)).ravel()
        on_axis = np.ravel(lam.arg) == 0.0
        c1 = sol.coeffs[-1][0]
        rows = c1.reshape(-1, c1.shape[-1])                 # (modes, points), a view
        for k, m in enumerate(np.ravel(l).tolist()):
            hit = np.zeros(v0.shape, dtype=bool)
            for eps, (where, mode) in members.items():
                if mode in (None, m):
                    mine = v0 == complex(BASE.values[0]) + eps
                    hit |= mine & on_axis if where == "real" else mine
            rows[k, hit] = complex("nan")
        return sol

    monkeypatch.setattr(scattering, "regular_solution", poisoned)


BASE = PiecewisePotential((1.0,), (-2.5,))
BASE_CFG = ("kind = potential\nbreaks = 1\nvalues = -2.5\n"
            "grid.min = 1e-4\ngrid.max = 1\ngrid.count = 12\n")      # LAMS


def test_a_failing_search_does_not_stop_the_searches_after_it():
    newton = scattering.PoleSearch(0, scattering._newton_steps(0, SpectralBatch(0.6, -0.3)))
    failed, axis = scattering.run_searches(BASE, [newton, scattering.axis_search(BASE, 0)])
    assert isinstance(failed, ValidationError)          # |seed| >= 0.5
    assert axis
    assert list(map(_pole_bits, axis)) == list(map(_pole_bits, imaginary_axis_poles(BASE, 0)))
    with pytest.raises(ValidationError):
        [scattering.settle(x) for x in (failed, axis)]


@pytest.mark.parametrize("members", [
    # a later member's scan breaks
    {1e-3: ("all", None)},
    # the first member's sweep breaks, and then the searches of later members
    {-1e-2: ("real", None), -1e-3: ("all", None), 1e-2: ("all", None)},
    # the first member's search and sweep break: its search first
    {-1e-2: ("all", None)},
    # the first member's sweep breaks at mode 2, the second's at mode 0
    {-1e-2: ("real", 2), -1e-3: ("real", 0)},
])
def test_family_raises_the_sequentially_first_error(monkeypatch, tmp_path, members):
    _poison_members(monkeypatch, members)
    with pytest.raises(NumericalError) as ref:
        sequential_perturb(BASE, 0, LAMS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as got:
            cli._perturb_members(BASE, 0, LAMS)
    assert (type(got.value), str(got.value)) == (type(ref.value), str(ref.value))
    code, lines = _cli_error(tmp_path, "perturb", BASE_CFG)
    assert code == 3
    assert [json.loads(x) for x in lines] == [
        {"error": "NumericalError", "message": str(ref.value)}]
