"""Compare the CLI outputs of two lowfreq2d source trees.

    python tools/compare_outputs.py OLD_SRC NEW_SRC [CONFIG ...]

OLD_SRC and NEW_SRC are either a checkout (with a `src/lowfreq2d` package)
or a directory that holds the `lowfreq2d` package itself.  Every CLI command
runs on the two README example configs, a Neumann disk, a threshold-tuned
well and any CONFIG files given, once per tree, each in a fresh interpreter.
For each output file the script prints `identical`, or the largest relative
difference over the numeric values with where it occurs, and the largest
absolute difference; `wallTimeSeconds` is ignored.  A complex number is one
value with relative difference |x - y| / max(|x|, |y|): CSV column pairs
`<name>_re`/`<name>_im` or `re`/`im`, JSON lists of two numbers and sibling
JSON keys `re`/`im`.  Exit codes and error messages are compared as well.
Each CONFIG is labelled by the path as given, so configs of one file name in
different directories stay apart.  A last line sums up the run, with each
tree's summed CPU time (user and system) and minor page faults over its CLI
runs; the exit status is 1 when any file, exit code or error message
differs, and 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import cmath
import csv
import json
import os
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
}
IGNORED_KEYS = {"wallTimeSeconds"}


def package_root(path: str) -> Path:
    p = Path(path).resolve()
    for cand in (p / "src", p):
        if (cand / "lowfreq2d" / "__init__.py").is_file():
            return cand
    sys.exit(f"no lowfreq2d package under {p}")


def run_cli(src: Path, command: str, cfg: Path, out: Path, cost: list) -> tuple[int, str]:
    """Exit code and stderr of one CLI run; adds its user and system CPU
    seconds and minor faults to `cost`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys; from lowfreq2d.cli import main; sys.exit(main(sys.argv[1:]))"
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-c", code, command, "--config", str(cfg),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cost[0] += after.ru_utime - before.ru_utime
    cost[1] += after.ru_stime - before.ru_stime
    cost[2] += after.ru_minflt - before.ru_minflt
    return proc.returncode, proc.stderr.strip()


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
                           "error-text mismatches"), 0)
    cost = {"old": [0.0, 0.0, 0], "new": [0.0, 0.0, 0]}     # user s, sys s, minor faults
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
                    runs.append(run_cli(src, command, cfg, out, cost[tag]))
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
                names = sorted({p.name for d in dirs for p in d.iterdir()})
                for fname in names:
                    verdict = compare_file(dirs[0] / fname, dirs[1] / fname)
                    tally["identical files" if verdict == "identical" else "differing files"] += 1
                    print(f"{head} {fname}: {verdict}")
    print("summary: " + ", ".join(f"{n} {k}" for k, n in tally.items()) + "; "
          + "; ".join(f"{tag} {u:.2f} s user, {t:.2f} s sys, {f} minor faults"
                      for tag, (u, t, f) in cost.items()))
    return int(any(n for k, n in tally.items() if k != "identical files"))


if __name__ == "__main__":
    sys.exit(main())
