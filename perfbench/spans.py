"""Span tracing of the lowfreq2d layers from outside the package.

`Tracer.install()` wraps every public function and every public method of a
public class in each lowfreq2d module (the layer is the module name), and
rebinds the wrapper in every lowfreq2d module that imported the original with
`from .x import y`.  A reference to an original left anywhere else in a
module namespace would let calls escape their span, so install() refuses to
trace in that case rather than under-count silently.

Spans (name, start, end, parent) stay in memory until `write()`.  Counters
that need arguments or results (points per Bessel call, Newton iterations,
...) are read by hooks; a hook's own time is recorded as a `trace.hook` span
so that it is charged to the tracer, not to the layer it observes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("specfun", "quadrature", "radial", "scatterer", "radialsolve", "threshold",
          "resolvent", "expansion", "scattering", "wave", "util", "cli")


class Tracer:
    def __init__(self):
        self.spans: list = []          # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.raised: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, pre=None, post=None):
        spans, stack, calls, raised = self.spans, self._stack, self.calls, self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            calls[name] += 1
            if pre is not None:
                h0 = perf_counter()
                pre(self, args, kwargs)
                spans.append(("trace.hook", h0, perf_counter(), parent))
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if post is not None:
                h0 = perf_counter()
                post(self, out)
                spans.append(("trace.hook", h0, perf_counter(), parent))
            return out

        return traced

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items()
                if m is not None and (n == "lowfreq2d" or n.startswith("lowfreq2d."))}
        hooks = _hooks()
        swap: dict[int, tuple] = {}        # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"lowfreq2d.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    qual = f"{layer}.{name}"
                    w = self._wrap(qual, obj, *hooks.get(qual, (None, None)))
                    swap[id(obj)] = (obj, w)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        qual = f"{layer}.{name}.{mname}"
                        w = self._wrap(qual, meth, *hooks.get(qual, (None, None)))
                        self._restore.append((obj, mname, meth))
                        setattr(obj, mname, w)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                hit = swap.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        leftovers = _find_references(mods.values(), swap)
        if leftovers:
            self.uninstall()
            raise RuntimeError(f"untraceable references to wrapped functions: {leftovers}")

    def uninstall(self) -> None:
        for obj, attr, val in reversed(self._restore):
            setattr(obj, attr, val)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span duration minus the time its children cover."""
        child = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (t1 - t0) - child[i]
        return out

    def overhead_s(self, n: int = 20000) -> float:
        """Estimated time the tracing added: wrapped calls times the measured
        extra cost of one wrapped call, plus the hooks' own time."""
        def noop():
            return None

        probe = Tracer()
        wrapped = probe._wrap("trace.probe", noop)
        t0 = perf_counter()
        for _ in range(n):
            noop()
        t1 = perf_counter()
        for _ in range(n):
            wrapped()
        t2 = perf_counter()
        per_call = max(0.0, ((t2 - t1) - (t1 - t0)) / n)
        hooks = self.total_time("trace.hook")
        return sum(self.calls.values()) * per_call + hooks

    def total_time(self, name: str) -> float:
        return sum(t1 - t0 for n, t0, t1, _ in self.spans if n == name)

    def write(self, path: Path, t_origin: float) -> None:
        names: dict[str, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent in self.spans:
                nid = names.setdefault(name, len(names))
                fh.write(f"[{nid},{t0 - t_origin:.9f},{t1 - t_origin:.9f},{parent}]\n")
            fh.write(json.dumps({"names": {v: k for k, v in names.items()}}) + "\n")


def _find_references(mods, swap) -> list[str]:
    """Originals still held one level inside a module-level dict, list or
    tuple (dispatch tables, default hooks), where rebinding cannot reach."""
    found = []
    for mod in mods:
        for attr, val in vars(mod).items():
            if isinstance(val, dict):
                items = list(val.values())
            elif isinstance(val, (list, tuple)):
                items = list(val)
            else:
                continue
            if any(id(it) in swap and swap[id(it)][0] is it for it in items):
                found.append(f"{mod.__name__}.{attr}")
    return found


def _hooks():
    """(pre, post) readers per qualified name; pre sees (args, kwargs)."""
    import numpy as np

    from lowfreq2d.specfun import SERIES_RADIUS
    from lowfreq2d.wave import LAM_CAP

    def bessel_points(tr, args, kwargs):
        z = np.asarray(args[1] if len(args) > 1 else kwargs["z"])
        tr.counts["specfun.points"] += z.size
        tr.counts["specfun.big_z_points"] += int(np.count_nonzero(np.abs(z) > SERIES_RADIUS))

    def panel_nodes(tr, args, kwargs):
        tr.counts["quadrature.nodes"] += len(args[1] if len(args) > 1 else kwargs["vals"])

    def spread(tr, sample):
        c = tr.counts
        c["resolvent.wronskian_spread_max"] = max(c["resolvent.wronskian_spread_max"],
                                                  float(sample.wronskian_spread))

    def samples(tr, args, kwargs):
        tr.counts["expansion.samples"] += len(args[3] if len(args) > 3 else kwargs["pts"])

    def fit(tr, report):
        c = tr.counts
        c["expansion.fit_cond_max"] = max(c["expansion.fit_cond_max"], float(report.conditioning))
        c["expansion.heldout_resid_max"] = max(c["expansion.heldout_resid_max"], float(report.residual))

    def newton(tr, pole):
        tr.counts["scattering.newton_iters"] += pole.iterations

    def evolve(tr, res):
        c = tr.counts
        c["wave.spectral_samples"] += int(res.panels.coeffs.size)
        c["wave.cap_hits"] += res.lam_max >= LAM_CAP
        c["wave.lam_max"] = max(c["wave.lam_max"], float(res.lam_max))

    def map_items(tr, args, kwargs):
        tr.counts["util.map_items"] += len(args[1] if len(args) > 1 else kwargs["items"])

    return {
        "specfun.jy_arrays": (bessel_points, None),
        "specfun.hankel1_arrays": (bessel_points, None),
        "quadrature.PanelGrid.cumulative": (panel_nodes, None),
        "quadrature.PanelGrid.derivative": (panel_nodes, None),
        "quadrature.PanelGrid.integrate": (panel_nodes, None),
        "resolvent.mode_green": (None, spread),
        "expansion.sample_matrix_element": (samples, None),
        "expansion.fit_log_laurent": (None, fit),
        "scattering.find_pole": (None, newton),
        "wave.evolve": (None, evolve),
        "util.parallel_map": (map_items, None),
    }
