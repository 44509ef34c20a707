"""Compare the benchmark configs that two lowfreq2d trees generate.

    python tools/compare_bench_configs.py OLD NEW [SEEDS]

OLD and NEW are checkouts, each with `perfbench/workloads.py` and
`src/lowfreq2d`.  For each tree a fresh interpreter, with that tree's `src`
first on its path and bytecode writing off, loads the tree's workloads.py
from its file and generates the config files of every workload for every
seed, threshold-tuned wells included: those are tuned by the tree's own
library, so a change that moves a zero-energy solve by an ulp shows here as
a well that differs.  SEEDS is a comma list of seeds and inclusive ranges
(default 1-3,61-63).  One line per workload and seed says `identical` or
names each config that differs with its first differing line; the last line
sums up, and the exit status is 1 when any config differs, 0 otherwise.
Nothing is written to either tree.  Standard library only.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

DEFAULT_SEEDS = "1-3,61-63"

CHILD = """
import importlib.util, json, sys
tree, seeds = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, tree + "/src")
spec = importlib.util.spec_from_file_location("bench_workloads", tree + "/perfbench/workloads.py")
mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mod)
print(json.dumps({w: {str(s): mod.make_plan(w, s).configs for s in seeds} for w in mod.WORKLOADS}))
"""


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def generated(tree: Path, seeds: list[int]) -> dict:
    """{workload: {seed: {file name: text}}} as the tree's workloads.py makes them."""
    if not (tree / "perfbench" / "workloads.py").is_file():
        sys.exit(f"no perfbench/workloads.py under {tree}")
    proc = subprocess.run([sys.executable, "-B", "-c", CHILD, str(tree), json.dumps(seeds)],
                          capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"generating the configs of {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def first_difference(old: str, new: str) -> str:
    a, b = old.splitlines(), new.splitlines()
    for x, y in zip(a, b):
        if x != y:
            return f"{x!r} -> {y!r}"
    return f"{len(a)} lines -> {len(b)} lines"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    seeds = parse_seeds(args[2] if len(args) == 3 else DEFAULT_SEEDS)
    old, new = (generated(Path(a).resolve(), seeds) for a in args[:2])
    same = differ = 0
    for workload in sorted(old.keys() | new.keys()):
        for seed in map(str, seeds):
            a, b = old.get(workload, {}).get(seed, {}), new.get(workload, {}).get(seed, {})
            diffs = [f"{name}: " + ("only in " + ("new" if name in b else "old")
                                    if name not in a or name not in b
                                    else first_difference(a[name], b[name]))
                     for name in sorted(a.keys() | b.keys()) if a.get(name) != b.get(name)]
            same += len(a.keys() | b.keys()) - len(diffs)
            differ += len(diffs)
            print(f"{workload} seed {seed}: " + ("; ".join(diffs) if diffs else "identical"))
    print(f"summary: {same} identical configs, {differ} differing configs")
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(main())
