"""Harness self-check: `python3 perfbench/run.py --selfcheck`.

Runs one traced op per workload and asserts that every metric named in
BENCHMARK.json is computed with its unit.  Then it corrupts copies of the
op's outputs and asserts that the checker rejects each corruption (an
injected NaN, a flipped verify status, a wrong decay law) as a wrong answer,
fails but does not call wrong a NaN placeholder in a single-parameter
`z_mod` of verify.csv, and accepts the NaN the phase.csv format documents; a
wave value 1% off its reference must read as two digits.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from pathlib import Path

import checks
import run

# (seed, op) per workload: an op that exercises a checker rule; wave seed 2
# draws the Neumann disk, whose decay law is checked
PICKS = {"wave": (2, "wave-neumann"), "expand": (0, "verify-dirichlet"),
         "poles": (0, "phase-neumann")}


def _rewrite(path: Path, edit) -> None:
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    header = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, header, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def _identity(name: str, **change):
    def edit(rows):
        next(r for r in rows if r["identity"] == name).update(change)
    return edit


def _corruptions(op, ref):
    """(description, file, edit, should the op pass, should its answer count
    as correct)."""
    if op.command == "wave":
        def off(rows):
            rows[3]["w_re"] = repr(ref[3][1] * 1.01)
        return [
            ("NaN in wave.csv", "wave.csv", lambda rows: rows[0].update(w_re="nan"), False, False),
            ("w(t) 1% off", "wave.csv", off, True, True),
            ("decay law flipped", "decay.json", lambda doc: doc.update(law="inconclusive"),
             False, False),
        ]
    if op.command == "verify":
        return [
            ("flipped verify status", "verify.csv", _identity("one-sided", status="fail"),
             False, False),
            ("NaN residual", "verify.csv", _identity("two-parameter", residual="nan"), False, False),
            ("NaN lambda_mod", "verify.csv", _identity("one-sided", lambda_mod="nan"), False, False),
            ("NaN z_mod of the two-parameter identity", "verify.csv",
             _identity("two-parameter", z_mod="nan"), False, False),
            ("NaN z_mod placeholder of a one-sided identity", "verify.csv",
             _identity("one-sided", z_mod="nan"), False, True),
        ]
    return [
        ("NaN in sigma_re", "phase.csv", lambda rows: rows[2].update(sigma_re="nan"), False, False),
        ("NaN in documented sigma_asym_re", "phase.csv",
         lambda rows: rows[2].update(sigma_asym_re="nan"), True, True),
    ]


def selfcheck() -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload, (seed, pick) in PICKS.items():
        workdir = run.WORK / f"selfcheck-{workload}"
        plan = run.setup(workload, seed, workdir)
        plan.ops = [op for op in plan.ops if op.name == pick]
        reference = run.load_reference()
        tally, layer, _ = run.run_traced(plan, workdir, reference, f"selfcheck-{workload}")
        e2e = run.end_to_end(tally, 0.0)
        for kind, got in (("end_to_end", e2e), ("per_layer", layer)):
            want = {m["name"]: m["unit"] for m in spec[kind]}
            if set(got) != set(want):
                problems.append(f"{workload} {kind}: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            for name, m in got.items():
                if m["unit"] != want.get(name, m["unit"]) or not math.isfinite(m["value"]):
                    problems.append(f"{workload} {name}: {m}")
        if tally.wrong:
            problems.append(f"{workload} {pick}: wrong answer from the unmodified program")
        op = plan.ops[0]
        src = workdir / op.name
        ref = reference.get(op.ref_key)
        for desc, fname, edit, ok, correct in _corruptions(op, ref):
            bad = workdir / "corrupt"
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(src, bad)
            _rewrite(bad / fname, edit)
            res = checks.check_op(op.command, 0, bad, reference=ref, expect_law=op.expect_law)
            if (res.ok, res.correct) != (ok, correct):
                problems.append(f"{workload}: checker gave ok={res.ok}, correct={res.correct} "
                                f"for {desc}")
            if op.command == "wave" and ok and not 1.9 < res.digits < 2.1:
                problems.append(f"{workload}: {desc} read as {res.digits} digits")
        print(f"selfcheck {workload}: {pick} checked, {len(e2e)} + {len(layer)} metrics")
    for p in problems:
        print(f"selfcheck problem: {p}")
    print("selfcheck " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0
