"""Command-line surface: outputs, manifests, exit codes, determinism."""

import contextlib
import importlib.util
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lowfreq2d import cli
from lowfreq2d.cli import main

DISK_CFG = "kind = disk\nradius = 1\nbc = dirichlet\n"
WELL_CFG = "kind = potential\nbreaks = 1\nvalues = -2.5\n"
NEUMANN_CFG = "kind = disk\nradius = 1\nbc = neumann\ngrid.count = 18\n"


def _run(tmp_path, name, cfg_text, command, sub="out"):
    cfg = tmp_path / name
    cfg.write_text(cfg_text)
    out = tmp_path / sub
    code = main([command, "--config", str(cfg), "--out", str(out)])
    return code, out


def test_classify_disk(tmp_path):
    code, out = _run(tmp_path, "disk.cfg", DISK_CFG, "classify")
    assert code == 0
    doc = json.loads((out / "classify.json").read_text())
    assert doc["dimG0modG1"] == 0 and doc["dimG1modG2"] == 0
    assert abs(doc["capacity"]) < 1e-12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "classify"
    assert manifest["outputs"] == ["classify.json"]


def test_capacity_disk(tmp_path):
    code, out = _run(tmp_path, "disk.cfg", DISK_CFG, "capacity")
    assert code == 0
    doc = json.loads((out / "capacity.json").read_text())
    assert abs(doc["capacity"]) < 1e-12
    assert abs(doc["a"][0] - (math.log(2) - 0.5772156649015329)) < 1e-12


def test_capacity_rejects_s_resonance(tmp_path, capsys):
    code, _ = _run(tmp_path, "neu.cfg", NEUMANN_CFG, "capacity")
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValidationError"


def test_verify_well(tmp_path):
    code, out = _run(tmp_path, "well.cfg", WELL_CFG, "verify")
    _check_verify(code, out)


def test_verify_disk(tmp_path):
    code, out = _run(tmp_path, "disk.cfg", DISK_CFG, "verify")
    _check_verify(code, out)


@pytest.mark.parametrize("cfg", ["kind = disk\nradius = 100\nbc = dirichlet\n",
                                 DISK_CFG + "cutoff.width = 100\n"])
def test_verify_passes_where_phi_grows_across_the_grid(tmp_path, cfg):
    # phi grows like e^{0.4 r} over the grid at lam_b = 0.4i, so |W| over
    # phi's largest value fell to 7e-18; the pole guard weighs |W| against the
    # probes' own r (|phi psi'| + |phi' psi|) and finds no pole there
    code, out = _run(tmp_path, "disk.cfg", cfg, "verify")
    _check_verify(code, out)


def _check_verify(code, out):
    assert code == 0
    lines = (out / "verify.csv").read_text().strip().splitlines()
    assert lines[0].startswith("identity,")
    for line in lines[1:]:
        assert line.endswith("pass")
        assert float(line.split(",")[5]) < 1e-6
        assert "nan" not in line.lower().split(",")
    # single-parameter identities leave the second spectral point blank
    for line in lines[2:]:
        assert line.split(",")[3:5] == ["", ""]


def test_verify_fails_on_a_failing_identity(tmp_path, capsys):
    # a 3000-high barrier: the two-parameter residual is about 1
    code, out = _run(tmp_path, "step.cfg", "kind = potential\nbreaks = 1\nvalues = 3000\n", "verify")
    assert code == 3
    rows = [line.split(",") for line in (out / "verify.csv").read_text().splitlines()[1:]]
    failed = [(r[0], float(r[5])) for r in rows if r[6] == "fail"]
    assert [name for name, _ in failed] == ["two-parameter"]
    assert not (out / "manifest.json").exists()
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(x) for x in lines] == [{
        "error": "NumericalError",
        "message": f"identity residuals above 1e-6: two-parameter {failed[0][1]:.3g}"}]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_names_the_identities_with_non_finite_residuals(tmp_path, capsys, monkeypatch):
    # a 400000-high barrier: the two-parameter identity's solves break down
    # and its residual is NaN; nothing is written
    code, out = _run(tmp_path, "step.cfg", "kind = potential\nbreaks = 1\nvalues = 400000\n", "verify")
    assert code == 3
    assert not (out / "verify.csv").exists()
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(x) for x in lines] == [{
        "error": "NumericalError", "message": "non-finite identity residuals: two-parameter nan"}]
    # no input found makes two residuals NaN: with both made NaN, both are named
    for name in ("two_parameter_identity_residual", "one_sided_identity_residual"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: math.nan)
    code, out = _run(tmp_path, "well.cfg", WELL_CFG, "verify", sub="nan")
    assert code == 3
    assert not (out / "verify.csv").exists()
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(x) for x in lines] == [{
        "error": "NumericalError",
        "message": "non-finite identity residuals: two-parameter nan, one-sided nan"}]


def test_cli_verify_work(tmp_path, monkeypatch):
    # a CLI verify on the README well solves s once at the identities' three
    # points and V = 0 once at their two, and every identity reads slices of
    # those solves, each evaluated on the nodes by one pair pass in its
    # junctions' call: 2 green_pair solves and 3 bessel_pair calls (2
    # junction-and-node calls and 1 pairing-kernel call; 5 when the node pass
    # was a call of its own), and one cutoff jet per identity that has one
    from lowfreq2d import radialsolve, resolvent
    from lowfreq2d.scatterer import CutoffProfile
    counts = {"green_pair": 0, "bessel_pair": 0, "jet": 0}

    def counted(fn):
        def spy(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return spy

    for module in (radialsolve, resolvent, cli):
        for name in counts:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    monkeypatch.setattr(CutoffProfile, "jet", counted(CutoffProfile.jet))
    code, out = _run(tmp_path, "well.cfg", WELL_CFG, "verify")
    _check_verify(code, out)
    assert counts["green_pair"] <= 2
    assert counts["bessel_pair"] <= 3
    assert counts["jet"] <= 2


def test_expand_fails_on_its_held_out_fit_residual(tmp_path, capsys):
    # a 3000-high barrier: the held-out fit residual is about 1.6
    code, out = _run(tmp_path, "step.cfg", "kind = potential\nbreaks = 1\nvalues = 3000\n", "expand")
    assert code == 3
    residual = json.loads((out / "fit.json").read_text())["residualHeldOut"]
    assert residual > 1e-6
    assert not (out / "manifest.json").exists()
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(x) for x in lines] == [{
        "error": "NumericalError", "message": f"held-out fit residual {residual:.3g} above 1e-6"}]


@pytest.mark.parametrize("values", [300, 500, 800])
def test_verify_and_expand_pass_on_a_high_barrier(tmp_path, values):
    # J_l and Y_l grow together inside a barrier, and H1_l is recessive there:
    # the (J, H1) glue keeps the two-parameter residual and the held-out fit
    # residual small, where a (J, Y) glue lost them from V = 300 on
    cfg = f"kind = potential\nbreaks = 1\nvalues = {values}\n"
    code, out = _run(tmp_path, "step.cfg", cfg, "verify")
    assert code == 0
    rows = [line.split(",") for line in (out / "verify.csv").read_text().splitlines()[1:]]
    assert [r[6] for r in rows] == ["pass"] * 3
    assert float(rows[0][5]) <= 2e-7                 # two-parameter
    code, out = _run(tmp_path, "step.cfg", cfg, "expand", sub="expand")
    assert code == 0
    assert json.loads((out / "fit.json").read_text())["residualHeldOut"] <= 1e-7


def test_an_allocation_failure_is_one_json_error(tmp_path, capsys):
    # numpy refuses a 745 GiB spectral grid with a subclass of MemoryError;
    # the error names the builtin, and expand exits before writing any output
    code, out = _run(tmp_path, "well.cfg", WELL_CFG + "grid.count = 100000000000\n", "expand")
    assert code == 3
    assert list(out.iterdir()) == []
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "MemoryError" and "Unable to allocate" in err["message"]


def test_expand_refuses_a_jmax_no_fit_shape_can_fit(tmp_path, capsys):
    # every shape has at least jmax + 2 terms, and the default grid 24
    # training points: jmax = 11 is refused before its terms are built,
    # after samples.csv is written; jmax = 10 reaches the fit's own check
    code, out = _run(tmp_path, "well.cfg", WELL_CFG + "fit.jmax = 11\n", "expand")
    assert code == 2
    assert sorted(p.name for p in out.iterdir()) == ["samples.csv"]
    code, _ = _run(tmp_path, "well.cfg", WELL_CFG + "fit.jmax = 10\n", "expand", sub="out10")
    assert code == 2
    assert [json.loads(x) for x in capsys.readouterr().err.strip().splitlines()] == [
        {"error": "ValidationError",
         "message": "24 training samples for at least 13 terms (fit.jmax = 11); need at least 2x"},
        {"error": "ValidationError", "message": "24 training samples for 60 terms; need at least 2x"}]


def test_wave_fails_on_an_unresolved_legendre_tail(tmp_path, capsys):
    # a 1000-high barrier: the lambda panels' top two Legendre coefficients
    # reach about 0.24 of max|G|, so w is not resolved
    code, out = _run(tmp_path, "step.cfg", "kind = potential\nbreaks = 1\nvalues = 1000\n", "wave")
    assert code == 3
    tail = json.loads((out / "decay.json").read_text())["legendreTail"]
    assert tail > 1e-6
    assert (out / "wave.csv").exists()
    assert not (out / "manifest.json").exists()
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(x) for x in lines] == [{
        "error": "NumericalError",
        "message": f"wave legendreTail {tail:.3g} above 1e-6"}]


@pytest.mark.parametrize("support", ["kind = disk\nradius = 1", "kind = potential\nbreaks = 1\nvalues = 1"])
def test_wave_refuses_a_source_beyond_one_slice(tmp_path, capsys, support):
    # cutoff.r0 = 1e15 puts the source 1e15 out: its split quadrature would
    # hold 4.75e16 nodes, which np.repeat failed to allocate (exit 1); a split
    # of more than BESSEL_BATCH nodes exits 3 before any of it is formed
    code, out = _run(tmp_path, "far.cfg", f"{support}\ncutoff.r0 = 1e15\n", "wave")
    assert code == 3
    assert not (out / "wave.csv").exists() and not (out / "manifest.json").exists()
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(x)["error"] for x in lines] == ["NumericalError"]


@pytest.mark.parametrize("support", ["breaks = 1\nvalues = 1+0.5i",
                                     "breaks = 0.5,1\nvalues = -2.5,1e-3i"])
def test_wave_refuses_a_non_real_potential(tmp_path, capsys, support):
    # Im R(lam + i0) f is Stone's density only for real V: with V = 1 + 0.5i
    # it gave w(100) = -1.5225e-3 with w_im 0 on every row and exit 0, where
    # the general density gives 2.0143e-4 - 1.9404e-4i
    code, out = _run(tmp_path, "complex.cfg", f"kind = potential\n{support}\n", "wave")
    assert code == 2
    assert not (out / "wave.csv").exists() and not (out / "manifest.json").exists()
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(x)["error"] for x in lines] == ["ValidationError"]
    assert json.loads(lines[0])["message"] == "wave needs a real potential"


def test_expand_neumann_matches_prediction(tmp_path):
    code, out = _run(tmp_path, "neu.cfg", NEUMANN_CFG, "expand")
    assert code == 0
    fit = json.loads((out / "fit.json").read_text())
    log_term = next(t for t in fit["terms"] if t["label"] == "log^1")
    assert log_term["relError"] is not None and log_term["relError"] < 1e-2
    samples = (out / "samples.csv").read_text().strip().splitlines()
    assert samples[0] == "modulus,arg,re,im"
    assert len(samples) == 1 + 18 + 8


def test_phase_dirichlet(tmp_path):
    cfg = DISK_CFG + "grid.min = 1e-5\ngrid.max = 1e-4\ngrid.count = 5\n"
    code, out = _run(tmp_path, "disk.cfg", cfg, "phase")
    assert code == 0
    lines = (out / "phase.csv").read_text().strip().splitlines()
    assert len(lines) == 6
    lam, sre, sim, are, aim = (float(x) for x in lines[1].split(","))
    assert abs(sre - are) < 2e-2 * abs(sre)


def test_determinism_excluding_walltime(tmp_path):
    _, out1 = _run(tmp_path, "neu.cfg", NEUMANN_CFG, "expand", sub="o1")
    _, out2 = _run(tmp_path, "neu2.cfg", NEUMANN_CFG, "expand", sub="o2")
    for name in ("samples.csv", "fit.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("wallTimeSeconds"), m2.pop("wallTimeSeconds")
    assert m1 == m2


def test_manifest_lists_every_output(tmp_path):
    _, out = _run(tmp_path, "neu.cfg", NEUMANN_CFG, "expand")
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert manifest["outputs"] == on_disk


def test_bad_config_exits_2(tmp_path, capsys):
    code, _ = _run(tmp_path, "bad.cfg", "kind = disk\nradius = -1\n", "classify")
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"


@pytest.mark.parametrize("cfg_text", [
    "kind = disk\nradius = abc\n",
    "kind = disk\nradius = inf\n",
    "kind = disk\nradius = 1\ncutoff.r0 = x\n",
    "kind = disk\nradius = 1\ncutoff.width = x\n",
    "kind = disk\nradius = 1\ncutoff.r0 = inf\n",
    "kind = disk\nradius = 1\ncutoff.r0 = 1\n",
    "kind = disk\nradius = 1\ncutoff.width = nan\n",
    "kind = disk\nradius = 1\ncutoff.width = 0\n",
    "kind = disk\nradius = 1\ncutoff.width = -1\n",
    "kind = potential\nbreaks = nan\nvalues = -2.5\n",
    "kind = potential\nbreaks = 1\nvalues = nan\n",
    "kind = potential\nbreaks = 1\nvalues = 1+infi\n",
    "kind = disk\nradius = 1\ngrid.max = inf\n",
    "kind = disk\nradius = 1\ngrid.min = nan\n",
    "kind = disk\nradius = 1\ngrid.argDeg = inf\n",
])
def test_malformed_or_nonfinite_config_exits_2(tmp_path, capsys, cfg_text):
    code, out = _run(tmp_path, "bad.cfg", cfg_text, "classify")
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert not (out / "classify.json").exists()


def test_missing_config_exits_2(tmp_path):
    assert main(["classify", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")]) == 2


def test_unknown_flag_exits_64(tmp_path):
    assert main(["classify", "--config", "x", "--out", "y", "--frobnicate"]) == 64


def test_unknown_command_exits_64():
    assert main(["transmogrify", "--config", "x", "--out", "y"]) == 64


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "disk.cfg"
    cfg.write_text(DISK_CFG)
    proc = subprocess.run(
        [sys.executable, "-m", "lowfreq2d.cli", "classify",
         "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0


# barrier steps where the solve breaks down: numpy warns on the way to the
# NumericalError, and stderr must hold the JSON error alone
@pytest.mark.parametrize("command, values", [("wave", 10000), ("expand", 1000000), ("verify", 1000000)])
def test_breakdown_stderr_is_one_json_line(tmp_path, command, values):
    cfg = tmp_path / "step.cfg"
    cfg.write_text(f"kind = potential\nbreaks = 1\nvalues = {values}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "lowfreq2d.cli", command,
         "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "NumericalError"


@pytest.mark.parametrize("fails", [False, True])
def test_warnings_show_only_after_a_successful_run(tmp_path, monkeypatch, capsys, fails):
    classify = cli._HANDLERS["classify"]

    def warn_then_classify(run):
        warnings.warn("probe", FutureWarning)
        if fails:
            raise cli.NumericalError("probe failure")
        classify(run)

    monkeypatch.setitem(cli._HANDLERS, "classify", warn_then_classify)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        code, _ = _run(tmp_path, "disk.cfg", DISK_CFG, "classify")
    assert code == (3 if fails else 0)
    assert [str(w.message) for w in shown] == ([] if fails else ["probe"])
    err = capsys.readouterr().err
    assert err == ("" if not fails else json.dumps({"error": "NumericalError",
                                                    "message": "probe failure"}) + "\n")


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the CLI sets malloc thresholds on glibc only")
def test_wave_reuses_freed_heap_pages(tmp_path):
    # with glibc's dynamic thresholds every panel's freed temporaries are
    # trimmed and faulted back in: about 190 000 minor faults per op
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    code, _ = _run(tmp_path, "disk.cfg", "kind = disk\nradius = 1.06\nbc = dirichlet\n", "wave")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert code == 0
    assert faults < 20_000


def test_allocator_policy_is_a_silent_noop_without_glibc(tmp_path, monkeypatch, capsys):
    def not_glibc(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    def no_libc(*args):
        raise AssertionError("mallopt looked up without glibc")

    monkeypatch.setattr(cli.os, "confstr", not_glibc)
    monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
    cli._keep_freed_heap.cache_clear()
    try:
        code, _ = _run(tmp_path, "disk.cfg", DISK_CFG, "classify")
    finally:
        cli._keep_freed_heap.cache_clear()
    assert code == 0
    assert capsys.readouterr().err == ""


def test_allocator_policy_repeats_harmlessly(tmp_path):
    for _ in range(2):
        cli._keep_freed_heap.cache_clear()
        cli._keep_freed_heap()
    for sub in ("a", "b"):
        code, _ = _run(tmp_path, "disk.cfg", DISK_CFG, "classify", sub)
        assert code == 0


def test_traced_layers_importable():
    # perfbench/spans.py traces each lowfreq2d.<layer> it names and needs every
    # one of them loaded by the CLI import alone
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, lowfreq2d.cli; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
    )
    loaded = set(json.loads(proc.stdout))
    missing = [layer for layer in spans.LAYERS if f"lowfreq2d.{layer}" not in loaded]
    assert not missing


def test_no_command_imports_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, about 9 ms and 1 MB of resident memory per
    # process: all eight commands, on the README well and disk (each runs to
    # exit 0 on one of them), run in one fresh interpreter without loading it
    for name, text in (("well.cfg", WELL_CFG), ("disk.cfg", DISK_CFG)):
        (tmp_path / name).write_text(text)
    code = ("import sys\nfrom pathlib import Path\nfrom lowfreq2d.cli import _HANDLERS, main\n"
            "tmp = Path(sys.argv[1])\n"
            "runs = [main([c, '--config', str(tmp / cfg), '--out', str(tmp / cfg[:4] / c)])\n"
            "        for cfg in ('well.cfg', 'disk.cfg') for c in _HANDLERS]\n"
            "print(len(_HANDLERS), len(runs), 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["8", "16", "False"]


def test_ill_conditioned_fit_exits_3(tmp_path, capsys):
    cfg = DISK_CFG + "grid.count = 60\nfit.jmax = 3\nfit.kmax = 3\n"
    code, _ = _run(tmp_path, "dense.cfg", cfg, "expand")
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "IllConditionedFitError"


def test_resonance_command(tmp_path):
    code, out = _run(tmp_path, "well.cfg", WELL_CFG, "resonance")
    assert code == 0
    doc = json.loads((out / "resonance.json").read_text())
    # the one bound state of the -2.5 unit well; nothing at lam^2 = V0 (|lam| = 1.581)
    assert len(doc["poles"]) == 1
    p = doc["poles"][0]
    assert (p["mode"], p["kind"]) == (0, "boundState")
    assert abs(p["modulus"] - 0.81003) < 1e-5


# kappa = 0.288 < 0.45: the disk scan's pi/2 ray and the axis scan both reach
# it, and the axis entry, at arg = pi/2 exactly, is the one kept; kappa =
# 4.8e-4 lies below the axis scan's kmin = 1e-3, so only the disk search has it
@pytest.mark.parametrize("depth, kappa", [(1.2, 0.288497148228), (0.25, 0.000484970527)])
def test_resonance_lists_a_shallow_bound_state_once(tmp_path, depth, kappa):
    code, out = _run(tmp_path, "shallow.cfg", f"kind = potential\nbreaks = 1\nvalues = -{depth}\n",
                     "resonance")
    assert code == 0
    poles = json.loads((out / "resonance.json").read_text())["poles"]
    bound = [p for p in poles if (p["mode"], p["kind"]) == (0, "boundState")]
    assert len(bound) == 1
    assert abs(bound[0]["modulus"] - kappa) < 1e-11
    if kappa > 1e-3:
        assert bound[0]["arg"] == math.pi / 2


# the axis scan reaches kappa = sqrt(-min V), past the default kappa = 2:
# the -10 unit well's ground state at 2.6013i, and the -100 well's 8 states
# (3, 3 and 2 in modes 0, 1 and 2), the deepest at 9.7585i
@pytest.mark.parametrize("depth, counts, deepest", [(10, [1, 1, 0], 2.60131995706862),
                                                    (100, [3, 3, 2], 9.758477216080248)])
def test_resonance_lists_bound_states_above_kappa_2(tmp_path, depth, counts, deepest):
    code, out = _run(tmp_path, "deep.cfg", f"kind = potential\nbreaks = 1\nvalues = -{depth}\n",
                     "resonance")
    assert code == 0
    poles = json.loads((out / "resonance.json").read_text())["poles"]
    assert all(p["kind"] == "boundState" and p["arg"] == math.pi / 2 for p in poles)
    assert [sum(p["mode"] == m for p in poles) for m in (0, 1, 2)] == counts
    assert abs(max(p["modulus"] for p in poles) - deepest) < 1e-11


def test_perturb_command(tmp_path):
    cfg = WELL_CFG + "grid.min = 0.02\ngrid.max = 0.2\ngrid.count = 6\n"
    code, out = _run(tmp_path, "well.cfg", cfg, "perturb")
    assert code == 0
    lines = (out / "perturb.csv").read_text().strip().splitlines()
    assert lines[0] == "eps,lambda,sigma_re,sigma_im"
    assert len(lines) == 1 + 4 * 6
    json.loads((out / "perturb_poles.json").read_text())


def test_expand_attractive_well(tmp_path):
    code, out = _run(tmp_path, "well.cfg", WELL_CFG, "expand")
    assert code == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["residualHeldOut"] < 1e-6
    assert fit["shift"] is not None



@pytest.mark.parametrize("name", ["p_well_fx", "eig_well_fx"])
def test_expand_fits_the_source_channel_on_tuned_wells(tmp_path, request, name):
    # the threshold state lies in mode 1 or 2, outside the mode-0 source's
    # channel: the fit takes the non-resonant shape and predicts (log-a)^-1
    s = request.getfixturevalue(name).scatterer
    cfg = (f"kind = potential\nbreaks = {', '.join(repr(float(b)) for b in s.breaks)}\n"
           f"values = {', '.join(repr(float(v)) for v in s.values)}\n")
    assert cli.parse_config(cfg).scatterer == s
    code, out = _run(tmp_path, "well.cfg", cfg, "expand")
    assert code == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["residualHeldOut"] <= 1e-9
    pole = next(t for t in fit["terms"] if t["label"] == "(log-a)^-1")
    assert pole["relError"] is not None and pole["relError"] <= 1e-8


@pytest.mark.parametrize("name", ["neumann-0.8", "neumann-1.2", "s_well_fx"])
def test_expand_resonant_fit_runs_one_order_past_jmax(tmp_path, request, name):
    # U0 in the source's channel: the pole-free resonant shape, fitted through
    # lam^4 at the default jmax = 1, holds the default grid's held-out points
    # to the non-resonant shape's level (through lam^2 alone, 1.6e-9 to 6.2e-9
    # on these disks)
    if name.startswith("neumann"):
        cfg = f"kind = disk\nradius = {name.split('-')[1]}\nbc = neumann\n"
    else:
        s = request.getfixturevalue(name).scatterer
        cfg = (f"kind = potential\nbreaks = {', '.join(repr(float(b)) for b in s.breaks)}\n"
               f"values = {', '.join(repr(float(v)) for v in s.values)}\n")
    code, out = _run(tmp_path, "res.cfg", cfg, "expand")
    assert code == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["residualHeldOut"] <= 1e-10
    log_term = next(t for t in fit["terms"] if t["label"] == "log^1")
    assert log_term["relError"] is not None and log_term["relError"] <= 1e-10
    assert max(t["j"] for t in fit["terms"]) == 2
    assert not any(t["pole"] for t in fit["terms"])


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


# the one documented NaN: phase.csv's low-frequency law for an s-resonance
_DOCUMENTED_NAN = {"phase.csv": ("sigma_asym_re", "sigma_asym_im")}


def _assert_finite_outputs(out: Path) -> None:
    """No written file holds NaN or Infinity (JSON constants or CSV cells),
    apart from the documented NaN columns."""
    if not out.exists():
        return
    for path in out.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=_reject_constant)
            continue
        header, *rows = (line.split(",") for line in text.splitlines())
        for row in rows:
            for col, cell in zip(header, row):
                try:
                    x = float(cell)
                except ValueError:
                    continue
                nan_ok = col in _DOCUMENTED_NAN.get(path.name, ()) and math.isnan(x)
                assert math.isfinite(x) or nan_ok, f"{path.name} holds {col} = {cell}"


# extreme inputs overflow inside numpy on purpose; the contract is checked below
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cfg_text", [
    "kind = potential\nbreaks = 1\nvalues = 1e308\n",
    "kind = potential\nbreaks = 1\nvalues = 1e300i\n",
    "kind = potential\nbreaks = 1e-300\nvalues = -2.5\n",
])
def test_nonfinite_result_exits_3(tmp_path, capsys, cfg_text):
    code, out = _run(tmp_path, "extreme.cfg", cfg_text, "classify")
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NumericalError"
    _assert_finite_outputs(out)
    assert not (out / "classify.json").exists()


# The two README configs; numeric fields are mutated and keys dropped.
_README_CONFIGS = (
    {"kind": "potential", "breaks": "1", "values": "-2.5"},
    {"kind": "disk", "radius": "1", "bc": "dirichlet"},
)
_NUMERIC_KEYS = {"breaks", "values", "radius"}
_MUTANT_NUMBERS = st.one_of(
    st.sampled_from(["1e308", "-1e308", "1e-300", "-1e-300", "5e-324", "0", "-0",
                     "1e300i", "-1e300i", "1e308+1e308i", "1e-300+1e300i", "1,2", "2,1"]),
    st.sampled_from(["nan", "inf", "-inf", "1+nani", "infi", "-nan+1i", "1e999"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet="0123456789.,+-eEijn x", max_size=8),
)


@st.composite
def _mutated_config(draw) -> str:
    base = draw(st.sampled_from(_README_CONFIGS))
    lines = []
    for key, value in base.items():
        action = draw(st.sampled_from(("keep", "drop", "mutate") if key in _NUMERIC_KEYS
                                      else ("keep", "keep", "drop")))
        if action == "drop":
            continue
        if action == "mutate":
            value = draw(_MUTANT_NUMBERS)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _check_contract(command: str, cfg_text: str) -> int:
    """Run one command; exit in {0, 2, 3}, one JSON object on stderr on
    failure, no NaN or Infinity written.  Returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "mutant.cfg", Path(tmp) / "out"
        cfg.write_text(cfg_text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3)
        if code:
            assert isinstance(json.loads(err.getvalue()), dict)
        _assert_finite_outputs(out)
    return code


# derandomize: every run draws the same examples, so each run of the suite is
# the same test; a crash found some other way joins the former crashes below
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=800, deadline=None, derandomize=True)
@given(_mutated_config())
def test_mutated_readme_configs_keep_the_cli_contract(cfg_text):
    event(f"exit {_check_contract('classify', cfg_text)}")


# 2-3 s per command: most mutants exit 2 at once, a valid one takes 20-100 ms
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["capacity", "phase", "resonance", "perturb",
                                     "expand", "verify"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(cfg_text=_mutated_config())
def test_mutated_readme_configs_keep_the_contract_of(command, cfg_text):
    event(f"exit {_check_contract(command, cfg_text)}")


# a valid wave takes about a second, so a handful of examples; most mutants
# exit 2 at once, and wells are refused for their bound states
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=10, deadline=None, derandomize=True)
@given(cfg_text=_mutated_config())
def test_mutated_readme_configs_keep_the_contract_of_wave(cfg_text):
    event(f"exit {_check_contract('wave', cfg_text)}")


# configs that once ended in an uncaught exception (exit 1) under the command
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, cfg_text, code", [
    ("phase", "kind = potential\nbreaks = 1\nvalues = 1e308\n", 3),
    ("perturb", "kind = potential\nbreaks = 1\nvalues = 1e308\n", 3),
    ("phase", "kind = potential\nbreaks = 1\nvalues = 1e300i\n", 3),
    ("perturb", "kind = potential\nbreaks = 1\nvalues = 1e300i\n", 3),
    ("phase", "kind = disk\nradius = 5e-324\n", 3),
    ("resonance", "kind = potential\nbreaks = 1\nvalues = 1e308\n", 3),
    ("resonance", "kind = disk\nradius = 9952918244981884.0\n", 2),
    ("expand", "kind = potential\nbreaks = 1\nvalues = 1e308\n", 3),
    ("expand", "kind = potential\nbreaks = 1\nvalues = 1e-300+1e300i\n", 3),
    ("expand", "kind = disk\nradius = 1e308\n", 2),
    ("expand", "kind = potential\nbreaks = 9.4e-283\nvalues = 9.4e-283\n", 3),
    ("verify", "kind = disk\nradius = 1e308\n", 2),
    ("phase", "kind = potential\nbreaks = 1\nvalues = -2.5\ngrid.count = -1\n", 2),
    ("phase", "kind = potential\nbreaks = 1\nvalues = -2.5\ngrid.count = 0\n", 2),
    ("perturb", "kind = potential\nbreaks = 1\nvalues = -2.5\ngrid.count = 0\n", 2),
    ("expand", "kind = potential\nbreaks = 1\nvalues = -2.5\ngrid.count = 0\n", 2),
    ("perturb", "kind = potential\nbreaks = 1\nvalues = -2.5\ngrid.count = -1\n", 2),
    ("expand", "kind = potential\nbreaks = 1\nvalues = -2.5\ngrid.count = -1\n", 2),
    ("expand", "kind = potential\nbreaks = 1\nvalues = -2.5\nfit.jmax = -1\n", 2),
    ("expand", "kind = potential\nbreaks = 1\nvalues = -2.5\nfit.kmax = -3\n", 2),
    ("phase", "kind = potential\nbreaks = 1\nvalues = -2.5\ngrid.max = 1e300\n", 3),
    ("perturb", "kind = potential\nbreaks = 1\nvalues = -2.5\ngrid.max = 1e300\n", 3),
    ("wave", "kind = potential\nbreaks = 1\nvalues = 10000\n", 3),
    # Newton's difference stencil once reached lam = 0 and lam = inf (OverflowError)
    ("perturb", "kind = potential\nbreaks = 1.192092896e-07\nvalues = 0.0\n", 0),
    # the cutoff's jet once squared a huge width as a Python float (OverflowError)
    ("verify", "kind = disk\nradius = 1\ncutoff.width = 1e300\n", 3),
    ("verify", "kind = potential\nbreaks = 1\nvalues = -2.5\ncutoff.width = 1.7976931348623157e308\n", 3),
    # log_grid cannot allocate 1e11 points (numpy's MemoryError)
    ("expand", "kind = potential\nbreaks = 1\nvalues = -2.5\ngrid.count = 100000000000\n", 3),
    ("phase", "kind = potential\nbreaks = 1\nvalues = -2.5\ngrid.count = 100000000000\n", 3),
    ("perturb", "kind = potential\nbreaks = 1\nvalues = -2.5\ngrid.count = 100000000000\n", 3),
    # classify's R^2l at mode 8 once overflowed a Python float (OverflowError)
    ("classify", "kind = potential\nbreaks = 1.8446744073709552e+19\nvalues = -2.5\n", 0),
    # refused before its term list is built (once too many terms to hold in memory)
    ("expand", "kind = disk\nradius = 1\nfit.jmax = 1000000000\n", 2),
])
def test_former_crash_configs_keep_the_cli_contract(command, cfg_text, code):
    assert _check_contract(command, cfg_text) == code
