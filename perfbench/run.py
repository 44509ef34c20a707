"""lowfreq2d benchmark: CLI time to solution and the accuracy it bought.

    python3 perfbench/run.py --workload {wave,expand,poles} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --selfcheck

Run from the repository root; the program is imported from ./src.  One
process, one client, closed loop: each CLI op (`lowfreq2d.cli.main`) starts
when the previous one has returned and its outputs have been checked.  A
workload is a fixed list of ops ("a round", see workloads.py) whose inputs
come from --seed.  Rounds repeat while another one fits in --seconds; at
least one always runs.

--trace 0 prints the end-to-end metrics.  Their times are in reference-host
seconds: the CPU time (user + system) of each op, and of five fresh
interpreters doing the set-up, multiplied by the host speed that a sampler
process on the same CPU measured while it ran (speed.py).  The ops are
single-threaded, so on an idle host CPU time is wall time; on a shared host
other tenants' load changed both by up to 2x for minutes at a time, and the
scaling takes most of that out (evidence/clocks.json compares the three
clocks over the same runs).  The unscaled CPU and wall times are printed
too.  --trace 1 prints the per-layer metrics of one traced round (spans.py),
whatever --seconds says, in wall seconds.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}: `failed` counts ops that failed any output check, `correct` is
false when a check found a wrong answer (see checks.py).  The lines before it
give sample counts and the environment.  Run outputs, results, host-speed
samples and spans go to .perfbench_run/ in the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
WORK = Path.cwd() / ".perfbench_run"
SETUP_REPEATS = 5          # fresh child processes timed per run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


def pin_threads() -> dict:
    """BLAS/OpenMP pools at one thread (never above nproc); LOWFREQ2D_THREADS
    at its default of 1.  Set before numpy is imported, inherited by children."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            ok = 1 <= int(os.environ.get(var, "")) <= nproc
        except ValueError:
            ok = False
        if not ok:
            os.environ[var] = "1"
    os.environ["LOWFREQ2D_THREADS"] = "1"
    return {var: os.environ[var] for var in (*THREAD_VARS, "LOWFREQ2D_THREADS")}


def environment(pinned: dict) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(), "threads": pinned}


# ----------------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------------

def setup(workload: str, seed: int, workdir: Path):
    """Import, seeded generation (tuned wells included), config files, and a
    warm-up op that fills lazy caches."""
    if not (SRC / "lowfreq2d" / "__init__.py").is_file():
        raise FileNotFoundError(f"no lowfreq2d sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from lowfreq2d import cli
    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        raise ImportError(f"lowfreq2d imported from {cli.__file__}, not from {SRC}")
    plan = workloads.make_plan(workload, seed)
    if workdir.exists():
        shutil.rmtree(workdir)
    workloads.write_configs(plan, workdir / "cfg")
    first = plan.ops[0].config
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["classify", "--config", str(workdir / "cfg" / first),
                         "--out", str(workdir / "warmup")])
    if code != 0:
        raise RuntimeError(f"warm-up classify failed with exit {code}")
    return plan


def setup_probe(workload: str, seed: int) -> tuple[float, float, float]:
    """CPU time of a fresh interpreter doing the same set-up as this one,
    from its start, with the interval it ran in."""
    t0 = perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    t1 = perf_counter()
    shutil.rmtree(WORK / f"{workload}-probe", ignore_errors=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]), t0, t1


# ----------------------------------------------------------------------------
# running ops
# ----------------------------------------------------------------------------

@dataclass
class Tally:
    op_times: list[float] = field(default_factory=list)   # CPU seconds
    op_walls: list[float] = field(default_factory=list)   # wall seconds
    intervals: list[tuple[float, float]] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)     # host speed per op
    op_names: list[str] = field(default_factory=list)
    round_times: list[float] = field(default_factory=list)   # wall seconds
    digits: list[float] = field(default_factory=list)
    laws: list[str] = field(default_factory=list)
    failed: int = 0
    wrong: int = 0

    @property
    def attempted(self) -> int:
        return len(self.op_times)


def load_reference():
    path = HERE / "wave_reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def run_op(op, plan, workdir: Path, reference, tally: Tally) -> float:
    """Run and check one op; return its wall time."""
    from lowfreq2d import cli
    cfg = workdir / "cfg" / op.config
    out = workdir / op.name
    t0, c0 = perf_counter(), process_time()
    try:
        code = cli.main([op.command, "--config", str(cfg), "--out", str(out)])
    except Exception:       # an uncaught error is the CLI's exit 1
        traceback.print_exc()
        code = 1
    cpu, wall = process_time() - c0, perf_counter() - t0
    tally.intervals.append((t0, t0 + wall))
    ref = reference.get(op.ref_key)
    res = checks.check_op(op.command, code, out, reference=ref, expect_law=op.expect_law)
    tally.op_times.append(cpu)
    tally.op_walls.append(wall)
    tally.op_names.append(op.name)
    if res.law is not None:
        tally.laws.append(res.law)
    if res.digits is not None:
        tally.digits.append(res.digits)
    if not res.ok:
        tally.failed += 1
        tally.wrong += not res.correct
        print(f"FAIL {plan.workload} seed {plan.seed} {op.name}: {'; '.join(res.problems)}",
              file=sys.stderr)
    return wall


def run_rounds(plan, workdir: Path, seconds: float, reference, tally: Tally):
    """Whole rounds while the next one is expected to fit in `seconds`."""
    t0 = perf_counter()
    while True:
        tr = sum(run_op(op, plan, workdir, reference, tally) for op in plan.ops)
        tally.round_times.append(tr)
        if perf_counter() - t0 + statistics.fmean(tally.round_times) > seconds:
            return


def round_and_p50(times: list[float], names: list[str]) -> tuple[float, float]:
    """Time of one round and the median op time, from each op's median over
    the rounds (robust to the odd op a burst of host load hits)."""
    per: dict[str, list[float]] = {}
    for name, t in zip(names, times):
        per.setdefault(name, []).append(t)
    typical = [statistics.median(v) for v in per.values()]
    return sum(typical), statistics.median(typical)


# ----------------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(tally: Tally, setup_s: float) -> dict:
    """Times are in reference-host seconds: each op's CPU time is multiplied
    by the host speed the sampler measured while it ran (1 without one)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = [t * f for t, f in zip(tally.op_times, tally.speeds or [1.0] * tally.attempted)]
    wall, p50 = round_and_p50(times, tally.op_names)
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall, "s"),
        "op_p50_s": metric(p50, "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
        "ok_frac": metric((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "acc_digits": metric(min(tally.digits) if tally.digits else 0.0, "digits"),
    }


def per_layer(tracer, traced: Tally, warns: list) -> dict:
    calls, c = tracer.calls, tracer.counts
    selfs = tracer.self_times()
    wall = sum(traced.round_times)

    def ncalls(*names):
        return float(sum(calls.get(n, 0) for n in names))

    points = c["specfun.points"]
    attempts = calls.get("scattering.find_pole", 0)
    ok = attempts - tracer.raised.get("scattering.find_pole", 0)
    m = {
        "specfun.calls": metric(ncalls("specfun.jy_arrays", "specfun.hankel1_arrays"), "count"),
        "specfun.points": metric(points, "count"),
        "specfun.big_z_points": metric(c["specfun.big_z_points"], "count"),
        "specfun.us_per_point": metric(1e6 * selfs["specfun"] / points if points else 0.0, "us"),
        "radialsolve.calls": metric(ncalls("radialsolve.regular_solution",
                                           "radialsolve.outgoing_solution"), "count"),
        "quadrature.calls": metric(ncalls("quadrature.PanelGrid.cumulative",
                                          "quadrature.PanelGrid.derivative",
                                          "quadrature.PanelGrid.integrate"), "count"),
        "quadrature.nodes": metric(c["quadrature.nodes"], "count"),
        "resolvent.calls": metric(ncalls("resolvent.mode_green",
                                         "resolvent.ResolventSample.apply"), "count"),
        "resolvent.wronskian_spread_max": metric(c["resolvent.wronskian_spread_max"], "ratio"),
        "threshold.calls": metric(ncalls("threshold.classify", "threshold.solve_zero_mode"), "count"),
        "expansion.samples": metric(c["expansion.samples"], "count"),
        "expansion.fit_calls": metric(ncalls("expansion.fit_log_laurent"), "count"),
        "expansion.fit_cond_max": metric(c["expansion.fit_cond_max"], "ratio"),
        "expansion.heldout_resid_max": metric(c["expansion.heldout_resid_max"], "ratio"),
        "scattering.defect_evals": metric(ncalls("scattering.outgoing_defect"), "count"),
        "scattering.newton_iters": metric(c["scattering.newton_iters"], "count"),
        "scattering.pole_attempts": metric(float(attempts), "count"),
        "scattering.pole_ok_frac": metric(ok / attempts if attempts else 0.0, "ratio"),
        "scattering.phase_tables": metric(ncalls("scattering.phase_shifts"), "count"),
        "wave.calls": metric(ncalls("wave.evolve"), "count"),
        "wave.spectral_samples": metric(c["wave.spectral_samples"], "count"),
        "wave.cap_hits": metric(c["wave.cap_hits"], "count"),
        "wave.lam_max": metric(c["wave.lam_max"], "lam"),
        "wave.inconclusive": metric(float(traced.laws.count("inconclusive")), "count"),
        "wave.sin_integral_s": metric(tracer.total_time("wave.OscillatoryPanels.sin_integral"), "s"),
        "scatterer.warnings": metric(float(sum("scatterer" in Path(w.filename).stem
                                               for w in warns)), "count"),
        "util.map_items": metric(c["util.map_items"], "count"),
    }
    from spans import LAYERS
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(selfs[layer], "s")
    accounted = sum(selfs.values())
    overhead = tracer.overhead_s()
    m.update({
        "trace.self_s": metric(selfs["trace"], "s"),
        "trace.spans": metric(float(len(tracer.spans)), "count"),
        "trace.wall_s": metric(wall, "s"),
        "trace.unaccounted_frac": metric((wall - accounted) / wall, "ratio"),
        "trace.overhead_frac": metric(overhead / (wall - overhead), "ratio"),
    })
    return m


# ----------------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------------

def run_untraced(plan, workdir, seconds, reference):
    import speed
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sampler = speed.Sampler(WORK / f"speed-{plan.workload}-seed{plan.seed}.txt", cpu)
    try:
        tally = Tally()
        run_rounds(plan, workdir, seconds, reference, tally)
        probes = [setup_probe(plan.workload, plan.seed) for _ in range(SETUP_REPEATS)]
    finally:
        samples = sampler.stop()
    tally.speeds = [speed.speed_factor(samples, t0, t1) for t0, t1 in tally.intervals]
    setups = [s * speed.speed_factor(samples, t0, t1) for s, t0, t1 in probes]
    metrics = end_to_end(tally, statistics.median(setups))
    cpu_wall, cpu_p50 = round_and_p50(tally.op_times, tally.op_names)
    wall, p50 = round_and_p50(tally.op_walls, tally.op_names)
    unscaled = {"cpu": {"wall_s": cpu_wall, "op_p50_s": cpu_p50,
                        "setup_s": statistics.median(s for s, _, _ in probes)},
                "wall": {"wall_s": wall, "op_p50_s": p50},
                "speed_mean": statistics.fmean(tally.speeds), "speed_samples": len(samples)}
    counts = {"setup_s": len(setups), "wall_s": len(tally.round_times),
              "op_p50_s": tally.attempted, "ok_frac": tally.attempted,
              "acc_digits": len(tally.digits), "unscaled": unscaled}
    return tally, metrics, counts


def run_traced(plan, workdir, reference, tag: str):
    """One traced round.  Its overhead comes from the span count and a
    calibrated cost per wrapped call: the difference against an untraced
    round would be a few percent read off two measurements that the
    machine's own drift moves by tens of percent."""
    from spans import Tracer
    tally = Tally()
    tracer = Tracer()
    tracer.install()
    t_origin = perf_counter()
    try:
        with warnings.catch_warnings(record=True) as warns:
            warnings.simplefilter("always")
            run_rounds(plan, workdir, 0.0, reference, tally)
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"spans-{tag}.jsonl", t_origin)
    counts = {"trace.wall_s": len(tally.op_times), "trace.spans": len(tracer.spans)}
    return tally, per_layer(tracer, tally, warns), counts


def report(workload, seed, trace, tally, metrics, counts, env) -> dict:
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    for name, m in metrics.items():
        n = counts.get(name)
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}" + (f" (n={n})" if n else ""))
    if "unscaled" in counts:
        print(f"{workload} unscaled {json.dumps(counts['unscaled'])}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    record = {"workload": workload, "seed": seed, "trace": trace, "env": env,
              "samples": counts, "laws": tally.laws,
              "ops": list(zip(tally.op_names, tally.op_times, tally.op_walls,
                              tally.speeds or [None] * tally.attempted,
                              [t0 for t0, _ in tally.intervals])), **result}
    (WORK / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result


def bench(workload: str, seed: int, seconds: float, trace: int, pinned: dict) -> dict:
    workdir = WORK / workload
    plan = setup(workload, seed, workdir)
    env = environment(pinned)
    reference = load_reference()
    if trace:
        tally, metrics, counts = run_traced(plan, workdir, reference, f"{workload}-seed{seed}")
    else:
        tally, metrics, counts = run_untraced(plan, workdir, seconds, reference)
    return report(workload, seed, trace, tally, metrics, counts, env)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true", help="one op per workload, then checker tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    pinned = pin_threads()
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, WORK / f"{args.workload}-probe")
            print(json.dumps({"setup_s": process_time()}))
            return 0
        WORK.mkdir(exist_ok=True)
        if args.selfcheck:
            from selfcheck import selfcheck
            return selfcheck()
        if args.workload is None:
            ap.error("--workload is required")
        result = bench(args.workload, args.seed, args.seconds, args.trace, pinned)
    except (OSError, ImportError, RuntimeError, subprocess.SubprocessError) as e:
        print(f"benchmark error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
