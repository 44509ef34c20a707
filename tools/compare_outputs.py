"""Compare the CLI outputs of two lowfreq2d source trees.

    python tools/compare_outputs.py OLD_SRC NEW_SRC [CONFIG ...]

OLD_SRC and NEW_SRC are either a checkout (with a `src/lowfreq2d` package)
or a directory that holds the `lowfreq2d` package itself.  Every CLI command
runs on the built-in configs (the two README examples and configs that reach
particular branches and failures, from a Neumann disk and a threshold-tuned
well to a cutoff too wide to square and a spectral grid too large to
allocate) and any CONFIG files given, once per tree, each in a fresh
interpreter.
For each output file the script prints `identical`, or the largest relative
difference over the numeric values with where it occurs, and the largest
absolute difference; `wallTimeSeconds` is ignored.  A complex number is one
value with relative difference |x - y| / max(|x|, |y|): CSV column pairs
`<name>_re`/`<name>_im` or `re`/`im`, JSON lists of two numbers and sibling
JSON keys `re`/`im`.  Exit codes and error messages are compared as well,
and so are the warnings a successful run prints on stderr, each by its
category and message, without the file path and line number that differ
between trees.
Each CONFIG is labelled by the path as given, so configs of one file name in
different directories stay apart.  A last line sums up the run, with each
tree's summed CPU time (user and system) and minor page faults over its CLI
runs, each tree's CPU time per command, and each tree's CPU time per command
inside `cli.main` alone, which the child times with `time.process_time()` and
prints on its one stdout line, so a saving shows on the commands it lands on
without the interpreter's start-up, and each tree's largest peak resident
size per command, the `ru_maxrss` the child prints on that line, so an import
or a buffer that a change adds shows; these figures are for information.  The
exit status is 1 when any file, exit code, error message or warning differs,
and 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import cmath
import csv
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("classify", "capacity", "expand", "phase", "resonance", "perturb", "wave", "verify")
BUILTIN_CONFIGS = {
    "readme-well": "kind = potential; breaks = 1; values = -2.5\n",
    "readme-disk": "kind = disk; radius = 1; bc = dirichlet\n",
    "neumann-disk": "kind = disk; radius = 1; bc = neumann\n",
    # threshold-tuned: expand's fit is ill-conditioned here, where rounding moves show
    "tuned-well": ("kind = potential; breaks = 0.5512959285134055,1.0; "
                   "values = -31.638610685432084,-11.37666104513994\n"),
    # a bound state at kappa = 0.29 that both resonance searches reach
    "shallow-well": "kind = potential; breaks = 1; values = -1.2\n",
    # resonance and perturb exit 3 on a non-finite defect, which error text compares
    "wide-well": "kind = potential; breaks = 100; values = -0.001\n",
    # a p-wave threshold state: perturb Newton-polishes every negative member from the axis
    "tuned-p-well": "kind = potential; breaks = 1.015948443352384; values = -5.603041241773262\n",
    # no bound state: wave exits 0 on a potential, and its widest source panels split eight ways
    "repulsive-wide-source": "kind = potential; breaks = 1; values = 2.5; cutoff.r0 = 8\n",
    # a high barrier: verify's two-parameter residual fails its gate, and verify exits 3
    "repulsive-step-300": "kind = potential; breaks = 1; values = 300\n",
    # expand's 308 spectral points take several slices of its one resolvent sweep
    "long-grid-disk": "kind = disk; radius = 1; bc = neumann; grid.count = 300\n",
    # wave refuses non-real potentials (exit 2): Im R f is the spectral density only for real V
    "complex-step": "kind = potential; breaks = 1; values = 1+0.5i\n",
    # verify's cutoff jet squares a width whose square overflows: exit 3 on a non-finite Wronskian
    "wide-cutoff-disk": "kind = disk; radius = 1; cutoff.width = 1e300\n",
    "wide-cutoff-well": "kind = potential; breaks = 1; values = -2.5; cutoff.width = 1.7976931348623157e308\n",
    # expand, phase and perturb cannot allocate the spectral grid: exit 3 on MemoryError
    "huge-count-well": "kind = potential; breaks = 1; values = -2.5; grid.count = 100000000000\n",
    "huge-count-disk": "kind = disk; radius = 1; bc = dirichlet; grid.count = 100000000000\n",
    # the benchmark's tightest wave case: 1.08e-8 from its reference wave
    "dirichlet-1.06": "kind = disk; radius = 1.06; bc = dirichlet\n",
    # a mode-0 bound state at kappa = 2.6013, above kappa = 2: wave refuses it (exit 2)
    "deep-well": "kind = potential; breaks = 1; values = -10\n",
}
IGNORED_KEYS = {"wallTimeSeconds"}
WARNING_LINE = re.compile(r"^.+?:\d+: (\w+): (.*)$", re.MULTILINE)    # path:line: Category: message


def package_root(path: str) -> Path:
    p = Path(path).resolve()
    for cand in (p / "src", p):
        if (cand / "lowfreq2d" / "__init__.py").is_file():
            return cand
    sys.exit(f"no lowfreq2d package under {p}")


def run_cli(src: Path, command: str, cfg: Path, out: Path,
            cost: list) -> tuple[int, str, float, float]:
    """Exit code, stderr, CPU seconds in `cli.main` and peak resident MB of
    one CLI run; adds its user and system CPU seconds and minor faults to `cost`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import resource, sys, time\nfrom lowfreq2d.cli import main\nt = time.process_time()\n"
            "try:\n    sys.exit(main(sys.argv[1:]))\n"
            "finally:\n    print(time.process_time() - t,"
            " resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-c", code, command, "--config", str(cfg),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cost[0] += after.ru_utime - before.ru_utime
    cost[1] += after.ru_stime - before.ru_stime
    cost[2] += after.ru_minflt - before.ru_minflt
    cpu, maxrss_kb = (proc.stdout.split() or [0.0, 0.0])[-2:]
    return proc.returncode, proc.stderr.strip(), float(cpu), float(maxrss_kb) / 1024


def warnings_in(stderr: str) -> list[tuple[str, str]]:
    """(category, message) of each warning that stderr shows, in order."""
    return WARNING_LINE.findall(stderr)


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def leaves(obj, path=""):
    """(path, value) for every number or other scalar of a JSON document; a
    list of two numbers and sibling `re`/`im` keys are one complex value."""
    if isinstance(obj, dict):
        pair = is_number(obj.get("re")) and is_number(obj.get("im"))
        if pair:
            yield f"{path}.re+im", complex(obj["re"], obj["im"])
        for k in sorted(obj):
            if k not in IGNORED_KEYS and not (pair and k in ("re", "im")):
                yield from leaves(obj[k], f"{path}.{k}")
    elif isinstance(obj, list) and len(obj) == 2 and all(map(is_number, obj)):
        yield path, complex(*obj)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def csv_leaves(path: Path):
    """(cell, value) for every CSV cell below the header, with the `re`/`im`
    and `<name>_re`/`<name>_im` column pairs read as one complex value."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    pairs = {}
    for j, name in enumerate(header):
        im = "im" if name == "re" else name[:-3] + "_im" if name.endswith("_re") else None
        if im in header:
            pairs[j] = header.index(im)
    paired = set(pairs) | set(pairs.values())
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if j in paired and j not in pairs:
                continue            # an imaginary part, read with its real part
            key = f"[{i}][{header[j]}]"
            try:
                yield key, complex(float(cell), float(row[pairs[j]])) if j in pairs else float(cell)
            except ValueError:
                yield key, f"{cell},{row[pairs[j]]}" if j in pairs else cell


def read_leaves(path: Path) -> dict:
    if path.suffix == ".json":
        return dict(leaves(json.loads(path.read_text(encoding="utf-8"))))
    return dict(csv_leaves(path))


def compare_file(old: Path, new: Path) -> str:
    if not old.exists() or not new.exists():
        return "only in " + ("new" if new.exists() else "old")
    if old.read_bytes() == new.read_bytes():
        return "identical"
    a, b = read_leaves(old), read_leaves(new)
    if a.keys() != b.keys():
        only_old = sorted(a.keys() - b.keys())
        only_new = sorted(b.keys() - a.keys())
        return (f"shape differs: {len(only_old)} cells only in old {only_old[:6]}, "
                f"{len(only_new)} only in new {only_new[:6]}")
    rel = absd = 0.0
    worst, text = None, []
    for key, x in a.items():
        y = b[key]
        if all(is_number(v) or isinstance(v, complex) for v in (x, y)):
            if x == y or (cmath.isnan(x) and cmath.isnan(y)):
                continue
            d = abs(x - y)
            absd = max(absd, d)
            if d / max(abs(x), abs(y)) > rel:
                rel, worst = d / max(abs(x), abs(y)), key
        elif x != y:
            text.append(f"{key}: {x!r} -> {y!r}")
    if text:
        return f"text differs ({len(text)} cells): " + "; ".join(text[:4])
    if rel == 0.0:
        return "identical"      # the ignored keys are the only difference
    return f"max rel {rel:.3g} at {worst}, max abs {absd:.3g}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_src, new_src = package_root(args[0]), package_root(args[1])
    tally = dict.fromkeys(("identical files", "differing files", "exit-code mismatches",
                           "error-text mismatches", "warning mismatches"), 0)
    cost = {"old": [0.0, 0.0, 0], "new": [0.0, 0.0, 0]}     # user s, sys s, minor faults
    cpu = {tag: dict.fromkeys(COMMANDS, 0.0) for tag in cost}  # user + sys s per command
    in_main = {tag: dict.fromkeys(COMMANDS, 0.0) for tag in cost}  # CPU s in cli.main
    peak = {tag: dict.fromkeys(COMMANDS, 0.0) for tag in cost}     # largest max RSS, MB
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        configs = {}
        for name, text in BUILTIN_CONFIGS.items():
            configs[name] = work / f"{name}.cfg"
            configs[name].write_text(text, encoding="utf-8")
        for extra in args[2:]:
            configs[extra] = Path(extra).resolve()
        for i, (name, cfg) in enumerate(configs.items()):
            for command in COMMANDS:
                dirs, runs = [], []
                for tag, src in (("old", old_src), ("new", new_src)):
                    out = work / tag / str(i) / command
                    before = cost[tag][0] + cost[tag][1]
                    runs.append(run_cli(src, command, cfg, out, cost[tag]))
                    cpu[tag][command] += cost[tag][0] + cost[tag][1] - before
                    in_main[tag][command] += runs[-1][2]
                    peak[tag][command] = max(peak[tag][command], runs[-1][3])
                    dirs.append(out)
                head = f"{name} {command}"
                if runs[0][0] != runs[1][0]:
                    tally["exit-code mismatches"] += 1
                    print(f"{head}: exit {runs[0][0]} -> {runs[1][0]} ({runs[1][1][-200:]})")
                    continue
                if runs[0][0] != 0:
                    same = "same error" if runs[0][1] == runs[1][1] else "error differs"
                    tally["error-text mismatches"] += same == "error differs"
                    print(f"{head}: exit {runs[0][0]} both, {same}")
                    continue
                warned = [warnings_in(run[1]) for run in runs]
                if warned[0] != warned[1]:
                    tally["warning mismatches"] += 1
                    print(f"{head}: warnings differ: {warned[0][:3]} -> {warned[1][:3]}")
                names = sorted({p.name for d in dirs for p in d.iterdir()})
                for fname in names:
                    verdict = compare_file(dirs[0] / fname, dirs[1] / fname)
                    tally["identical files" if verdict == "identical" else "differing files"] += 1
                    print(f"{head} {fname}: {verdict}")
    print("summary: " + ", ".join(f"{n} {k}" for k, n in tally.items()) + "; "
          + "; ".join(f"{tag} {u:.2f} s user, {t:.2f} s sys, {f} minor faults"
                      for tag, (u, t, f) in cost.items())
          + "; CPU s per command, old -> new: "
          + ", ".join(f"{c} {cpu['old'][c]:.2f} -> {cpu['new'][c]:.2f}" for c in COMMANDS)
          + "; CPU s in main per command, old -> new: "
          + ", ".join(f"{c} {in_main['old'][c]:.3f} -> {in_main['new'][c]:.3f}" for c in COMMANDS)
          + "; peak RSS MB per command, old -> new: "
          + ", ".join(f"{c} {peak['old'][c]:.1f} -> {peak['new'][c]:.1f}" for c in COMMANDS))
    return int(any(n for k, n in tally.items() if k != "identical files"))


if __name__ == "__main__":
    sys.exit(main())
