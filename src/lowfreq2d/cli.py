"""Command-line surface: reproducible runs with manifests.

Every subcommand reads one config file, writes lossless CSV/JSON outputs into
--out, and records a manifest (command, config hash, tool version, grid
parameters, wall time, output list).  Outputs are bit-reproducible across
runs on the same config; the wall-time field is the only varying entry.

Exit codes: 0 success, 2 validation error, 3 numerical failure (an
allocation that fails too), 64 usage.
Errors are mirrored as one JSON object on stderr, which then holds nothing
else: warnings raised during a run are shown only when it succeeds.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path

from . import __version__
from .errors import LowfreqError, NumericalError, ValidationError
from .expansion import (expansion_grid, fit_log_laurent, fit_shape, predict_leading_terms,
                        sample_matrix_element)
from .radial import RadialFunction, bump, bump_edges
from .radialsolve import green_pair
from .resolvent import (FREE, one_sided_identity_residual, pairing_identity_residual,
                        two_parameter_identity_residual)
from .scatterer import (PiecewisePotential, ScattererConfig, parse_config,
                        standard_grid)
from .scattering import (axis_search, bound_kappa_max, disk_search, phase_shift_family,
                         phase_shift_sweep, run_searches, settle, sigma_asymptotic)
from .specfun import SpectralBatch
from .threshold import classify, report_to_dict
from .util import log_grid
from .wave import WaveQuery, decay_fit, evolve

USAGE_EXIT = 64
VALIDATION_EXIT = 2
NUMERICAL_EXIT = 3

_DEFAULT_EPSILONS = (-1e-2, -1e-3, 1e-3, 1e-2)
# the one documented NaN: phase.csv's low-frequency law fails for an s-resonance
_NAN_COLUMNS = ("sigma_asym_re", "sigma_asym_im")
_DEFAULT_TIMES = tuple(float(t) for t in log_grid(1e2, 1e6, 9))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _dumps(name: str, payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise NumericalError(f"{name}: the computation produced a non-finite value") from None


class _Run:
    """Gathers outputs and writes the manifest; refuses non-finite numbers."""

    def __init__(self, command: str, cfg_text: str, cfg: ScattererConfig, outdir: Path):
        self.command = command
        self.cfg = cfg
        self.outdir = outdir
        self.outputs: list[str] = []
        self.t0 = time.monotonic()
        self.config_sha = hashlib.sha256(cfg_text.encode()).hexdigest()
        outdir.mkdir(parents=True, exist_ok=True)

    def write_csv(self, name: str, header: list[str], rows) -> None:
        path = self.outdir / name
        lines = [",".join(header)]
        for row in rows:
            for col, v in zip(header, row):
                if isinstance(v, float) and not math.isfinite(v) and col not in _NAN_COLUMNS:
                    raise NumericalError(f"{name}: non-finite {col} = {v}")
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.outputs.append(name)

    def write_json(self, name: str, payload: dict) -> None:
        path = self.outdir / name
        path.write_text(_dumps(name, payload), encoding="utf-8")
        self.outputs.append(name)

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "configSha256": self.config_sha,
            "toolVersion": __version__,
            "grid": {
                "argDeg": self.cfg.grid_arg_deg,
                "min": self.cfg.grid_min,
                "max": self.cfg.grid_max,
                "count": self.cfg.grid_count,
            },
            "fit": {"jmax": self.cfg.fit_jmax, "kmax": self.cfg.fit_kmax},
            "outputs": sorted(self.outputs),
            "wallTimeSeconds": time.monotonic() - self.t0,
        }
        (self.outdir / "manifest.json").write_text(_dumps("manifest.json", manifest),
                                                  encoding="utf-8")


def _source_geometry(cfg: ScattererConfig) -> tuple[float, float]:
    """Centre and half-width of the canonical source bump: centred between the
    scatterer's inner radius and cutoff.r0, with 0.8 of that half-gap."""
    inner = cfg.scatterer.inner_radius
    return 0.5 * (inner + cfg.cutoff.r0), 0.8 * 0.5 * (cfg.cutoff.r0 - inner)


def canonical_source(cfg: ScattererConfig, grid) -> RadialFunction:
    """The documented default test function, a mode-0 bump between the
    scatterer's inner radius and the cutoff start: outside a disk obstacle,
    but over a potential's support, since a potential's inner radius is 0
    (on values = 2.5, breaks = 1 the trimmed source runs from r = 0.156 to
    r = 1.344)."""
    return bump(grid, *_source_geometry(cfg))


def _source_edges(cfg: ScattererConfig) -> list[float]:
    return bump_edges(*_source_geometry(cfg))


def _lambda_grid(cfg: ScattererConfig):
    return expansion_grid(cfg.grid_count, cfg.grid_min, cfg.grid_max,
                          math.radians(cfg.grid_arg_deg))


def _tuned_mode(report) -> int:
    """The mode whose poles perturb tracks; it reads every mode, because the
    threshold state perturb follows need not share the source's channel."""
    if report.dim_g1_mod_g2:
        return 1
    return (report.eigen_mode_numbers or [0])[0]


# ----------------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------------

def _cmd_classify(run: _Run) -> None:
    cfg = run.cfg
    report = classify(cfg.scatterer, cutoff=cfg.cutoff)
    run.write_json("classify.json", report_to_dict(report))


def _cmd_capacity(run: _Run) -> None:
    cfg = run.cfg
    report = classify(cfg.scatterer, cutoff=cfg.cutoff)
    if report.c0_ulog is None:
        raise ValidationError(
            "capacity/pole-shift undefined: scatterer has a bounded zero-energy state"
        )
    run.write_json("capacity.json", {
        "capacity": report.capacity,
        "a": [report.a.real, report.a.imag],
        "c0Ulog": [complex(report.c0_ulog).real, complex(report.c0_ulog).imag],
    })


def _cmd_expand(run: _Run) -> None:
    cfg = run.cfg
    grid = standard_grid(cfg.scatterer, cfg.cutoff, extra_edges=_source_edges(cfg))
    report = classify(cfg.scatterer, cutoff=cfg.cutoff, grid=grid)
    f = canonical_source(cfg, grid)
    eg = _lambda_grid(cfg)
    samples = sample_matrix_element(cfg.scatterer, f, f, eg.points)
    run.write_csv(
        "samples.csv", ["modulus", "arg", "re", "im"],
        [(m, a, v.real, v.imag)
         for m, a, v in zip(eg.points.modulus.tolist(), eg.points.arg.tolist(), samples)],
    )
    # every fit shape has at least jmax + 2 terms: refuse a jmax no shape can
    # fit before its term list is built
    train = eg.held_out.count(False)
    if 2 * (cfg.fit_jmax + 2) > train:
        raise ValidationError(f"{train} training samples for at least {cfg.fit_jmax + 2} terms "
                              f"(fit.jmax = {cfg.fit_jmax}); need at least 2x")
    terms, shift0 = fit_shape(report, f, cfg.fit_jmax, cfg.fit_kmax)
    fit = fit_log_laurent(samples, eg, terms, shift0=shift0)
    fit.predicted = predict_leading_terms(report, f, f)
    run.write_json("fit.json", fit.to_dict())
    if fit.residual > 1e-6:
        raise NumericalError(f"held-out fit residual {fit.residual:.3g} above 1e-6")


def _cmd_phase(run: _Run) -> None:
    cfg = run.cfg
    report = classify(cfg.scatterer, cutoff=cfg.cutoff)
    lams = log_grid(cfg.grid_min, cfg.grid_max, cfg.grid_count)
    tables = phase_shift_sweep(cfg.scatterer, lams)
    rows = []
    for t in tables:
        try:
            sa = sigma_asymptotic(report, t.lam)
        except LowfreqError:
            sa = complex(float("nan"), float("nan"))
        rows.append((t.lam, t.sigma.real, t.sigma.imag, sa.real, sa.imag))
    run.write_csv("phase.csv", ["lambda", "sigma_re", "sigma_im", "sigma_asym_re", "sigma_asym_im"], rows)


def _resonance_searches(s) -> list[tuple]:
    """(disk pole or None, axis poles up to bound_kappa_max(s)) of modes 0,
    1 and 2, every search in one lockstep run; the first error in the order
    mode by mode, disk search first, is raised."""
    kmax = bound_kappa_max(s)
    found = run_searches(s, [q for mode in (0, 1, 2)
                             for q in (disk_search(mode, 0.45), axis_search(s, mode, kmax=kmax))])
    return [(settle(disk), settle(axis)) for disk, axis in zip(found[0::2], found[1::2])]


def _found_on_axis(pole, axis) -> bool:
    """Whether the disk search's pole is a bound state that the axis search
    found too: an axis pole within 1e-8 of it, relative (Newton and
    bisection both polish far below that)."""
    return pole.kind == "boundState" and any(
        abs(p.lam.value - pole.lam.value) <= 1e-8 * p.lam.modulus for p in axis)


def _cmd_resonance(run: _Run) -> None:
    cfg = run.cfg
    poles = []
    for pole, axis in _resonance_searches(cfg.scatterer):
        found = ([] if pole is None or _found_on_axis(pole, axis) else [pole]) + axis
        poles += [{
            "mode": p.mode, "kind": p.kind,
            "re": p.lam.value.real, "im": p.lam.value.imag,
            "modulus": p.lam.modulus, "arg": p.lam.arg,
            "residual": p.residual,
        } for p in found]
    run.write_json("resonance.json", {"poles": poles})


def _perturb_members(s: PiecewisePotential, mode: int, lams) -> list[tuple]:
    """(pole or None, phase tables) of each member V + eps, eps in
    _DEFAULT_EPSILONS: the deepest axis pole below 0, the disk pole above.
    The four pole searches run in one lockstep run and the four sweeps as
    one family; the first error in the order member by member, pole search
    first, is raised."""
    found = run_searches(s, [axis_search(s, mode, shift=eps) if eps < 0 else
                             disk_search(mode, 0.3, shift=eps) for eps in _DEFAULT_EPSILONS])
    sweeps = phase_shift_family(s, lams, _DEFAULT_EPSILONS)
    out = []
    for eps, pole, tables in zip(_DEFAULT_EPSILONS, found, sweeps):
        pole = settle(pole)
        if eps < 0:
            pole = pole[-1] if pole else None
        out.append((pole, settle(tables)))
    return out


def _cmd_perturb(run: _Run) -> None:
    cfg = run.cfg
    if not isinstance(cfg.scatterer, PiecewisePotential):
        raise ValidationError("perturb needs a potential scatterer")
    report = classify(cfg.scatterer, cutoff=cfg.cutoff)
    mode = _tuned_mode(report)
    lams = log_grid(cfg.grid_min, cfg.grid_max, cfg.grid_count)
    rows = []
    poles = []
    for eps, (pole, tables) in zip(_DEFAULT_EPSILONS, _perturb_members(cfg.scatterer, mode, lams)):
        if pole is not None:
            poles.append({
                "eps": eps, "mode": mode, "kind": pole.kind,
                "re": pole.lam.value.real, "im": pole.lam.value.imag,
            })
        rows += [(eps, t.lam, t.sigma.real, t.sigma.imag) for t in tables]
    run.write_csv("perturb.csv", ["eps", "lambda", "sigma_re", "sigma_im"], rows)
    run.write_json("perturb_poles.json", {"poles": poles})


def _cmd_wave(run: _Run) -> None:
    cfg = run.cfg
    edges = _source_edges(cfg)
    grid = standard_grid(cfg.scatterer, cfg.cutoff, extra_edges=edges)
    f = canonical_source(cfg, grid)
    s = cfg.scatterer
    x_obs = 0.0 if isinstance(s, PiecewisePotential) else 0.5 * (s.inner_radius + edges[0])
    q = WaveQuery(s, f, x_obs, _DEFAULT_TIMES)
    res = evolve(q)
    run.write_csv("wave.csv", ["t", "w_re", "w_im"],
                  [(t, w.real, w.imag) for t, w in zip(q.times, res.values)])
    law = decay_fit(list(zip(q.times, res.values)))
    run.write_json("decay.json", {
        "law": law.law, "coefficient": law.coefficient,
        "residual": law.residual, "residuals": law.residuals,
        "lamMax": res.lam_max, "tailConverged": res.tail_converged,
        "legendreTail": res.legendre_tail,
    })
    if res.legendre_tail > 1e-6:
        raise NumericalError(f"wave legendreTail {res.legendre_tail:.3g} above 1e-6")


def _cmd_verify(run: _Run) -> None:
    cfg = run.cfg
    s = cfg.scatterer
    chi = cfg.cutoff
    gc, gh = chi.r_end + 0.7, 0.5
    grid = standard_grid(s, chi, rmax=chi.pairing_radius + 2.0,
                         extra_edges=_source_edges(cfg) + bump_edges(gc, gh))
    f = canonical_source(cfg, grid)
    gfun = bump(grid, gc, gh, 0)
    lam = SpectralBatch(0.01, math.pi / 4)
    z = SpectralBatch(0.02, math.pi / 2)
    lam_b = SpectralBatch(0.4, math.pi / 2)
    outer = bump(grid, chi.pairing_radius + 0.9, 0.5, 0)
    # s solved once at lam, z and lam_b, V = 0 once at lam and z, each keeping (u, u')
    # on the nodes: each identity reads slices with the bits of solves of its own
    sols = green_pair(s, 0, SpectralBatch([lam.modulus, z.modulus, lam_b.modulus],
                                          [lam.arg, z.arg, lam_b.arg]), grid.nodes)
    free = green_pair(FREE, 0, SpectralBatch([lam.modulus, z.modulus], [lam.arg, z.arg]),
                      grid.nodes)
    # single-parameter identities have no second spectral point: blank z cells
    rows = [
        ("two-parameter", lam.modulus, lam.arg, z.modulus, z.arg,
         two_parameter_identity_residual(s, lam, z, chi, f,
                                         solutions=(sols[0:1], sols[1:2], free[0:2]))),
        ("one-sided", lam.modulus, lam.arg, "", "",
         one_sided_identity_residual(s, lam, chi, gfun, solutions=(sols[0:1], free[0:1]))),
        ("boundary-pairing", lam_b.modulus, lam_b.arg, "", "",
         pairing_identity_residual(s, lam_b, outer, chi.pairing_radius, solution=sols[2:3])),
    ]
    unfinite = [f"{name} {r:.3g}" for name, *_, r in rows if not math.isfinite(r)]
    if unfinite:
        raise NumericalError("non-finite identity residuals: " + ", ".join(unfinite))
    out = [(name, lm, la, zm, za, r, "pass" if r < 1e-6 else "fail")
           for (name, lm, la, zm, za, r) in rows]
    run.write_csv("verify.csv",
                  ["identity", "lambda_mod", "lambda_arg", "z_mod", "z_arg", "residual", "status"],
                  out)
    failed = [f"{name} {r:.3g}" for name, *_, r, status in out if status == "fail"]
    if failed:
        raise NumericalError("identity residuals above 1e-6: " + ", ".join(failed))


_HANDLERS = {
    "classify": _cmd_classify,
    "capacity": _cmd_capacity,
    "expand": _cmd_expand,
    "phase": _cmd_phase,
    "resonance": _cmd_resonance,
    "perturb": _cmd_perturb,
    "wave": _cmd_wave,
    "verify": _cmd_verify,
}


def dispatch(argv) -> int:
    parser = _Parser(prog="lowfreq2d", description=__doc__)
    parser.add_argument("command", choices=list(_HANDLERS))
    parser.add_argument("--config", required=True, help="path to a scatterer config file")
    parser.add_argument("--out", required=True, help="output directory")
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(parser.format_usage(), file=sys.stderr)
        print(json.dumps({"error": "usage", "message": str(e)}), file=sys.stderr)
        return USAGE_EXIT

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as e:
        print(json.dumps({"error": "ValidationError", "message": str(e)}), file=sys.stderr)
        return VALIDATION_EXIT

    # warnings (numpy's floating-point ones) pass the filters as they arise
    # and are shown once the run succeeds: a failed run's stderr holds its
    # one JSON error alone
    try:
        with warnings.catch_warnings(record=True) as caught:
            cfg = parse_config(text)
            run = _Run(args.command, text, cfg, Path(args.out))
            _HANDLERS[args.command](run)
            run.finish()
    except ValidationError as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return VALIDATION_EXIT
    except NumericalError as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return NUMERICAL_EXIT
    except MemoryError as e:     # numpy raises a subclass: name the builtin
        print(json.dumps({"error": "MemoryError", "message": str(e)}), file=sys.stderr)
        return NUMERICAL_EXIT
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return 0


# glibc mallopt (parameter, value) pairs: M_MMAP_THRESHOLD (-3) at 32 MiB, the
# ceiling of glibc's own dynamic threshold on 64-bit hosts, then
# M_TRIM_THRESHOLD (-1) at twice that, the ratio glibc's dynamic rule keeps
_MALLOC_SETTINGS = ((-3, 32 << 20), (-1, 64 << 20))


@functools.cache
def _keep_freed_heap() -> None:
    """Keep freed heap pages in this process instead of returning them to the
    kernel; runs once per process (glibc only; elsewhere, or when mallopt
    refuses, a no-op).

    Each `wave` batch of spectral points allocates and frees a few MB of
    temporaries; under glibc's dynamic thresholds the freed top of the heap
    is trimmed after every batch and faulted back in, zero-filled, by the
    next: about 190 000 minor faults per op on a Dirichlet disk of radius
    1.06.  Fixed
    thresholds keep those pages for reuse, and the peak resident size stays
    the same.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):   # no confstr, or not glibc
        return
    if not (libc or "").startswith("glibc"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOC_SETTINGS:
        if mallopt(param, value) != 1:
            break


def main(argv=None) -> int:
    _keep_freed_heap()
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
