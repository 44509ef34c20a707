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
from lowfreq2d.errors import NumericalError
from lowfreq2d.radialsolve import regular_solution
from lowfreq2d.scatterer import parse_config
from lowfreq2d.threshold import classify
from lowfreq2d.util import log_grid

from oracles import MODE_AXIS_SCATTERERS, bit_pattern, sequential_perturb, sequential_resonance

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
        ref = regular_solution(s.shifted(float(eps[j])), modes, lam[j:j + 1]).coeffs
        assert bit_pattern([(c1[:, j], c2[:, j]) for c1, c2 in got]) == \
            bit_pattern([(c1[:, 0], c2[:, 0]) for c1, c2 in ref])


def test_per_point_modes_read_their_own_defects():
    s = MODE_AXIS_SCATTERERS["two-step-well"]
    lam = SpectralBatch([0.02, 0.3, 0.02, 1.1, 0.3], [1.0, math.pi / 2, -0.4, 0.0, math.pi / 2])
    modes = np.array([2, 0, 1, 2, 1])
    eps = np.array([1e-3, -1e-2, 1e-3, 0.0, 1e-2])
    got = scattering.outgoing_defect(s, modes, lam, shift=eps)
    ref = [scattering.outgoing_defect(s.shifted(float(e)), int(m), lam[j])
           for j, (m, e) in enumerate(zip(modes, eps))]
    assert bit_pattern(list(got)) == bit_pattern(ref)


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
@pytest.mark.parametrize("command, mode", [("perturb", 3), ("resonance", 0)])
def test_wide_well_exits_3_with_the_sequential_message(tmp_path, command, mode):
    code, lines = _cli_error(tmp_path, command, WIDE_WELL)
    assert code == 3
    assert [json.loads(x) for x in lines] == [
        {"error": "NumericalError", "message": f"outgoing defect of mode {mode} is not finite"}]


def _poison_members(monkeypatch, members: dict):
    """regular_solution whose c1 is NaN at the points of the members V + eps
    that `members` names, eps -> (where, mode): where is "all" or "real" (the
    real axis alone), mode one mode or None for every mode; on
    `s.shifted(eps)` and on s with a per-point shift alike."""
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
