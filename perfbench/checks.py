"""Output checks run on every op, and the error figures behind `acc_digits`.

An op fails on a non-zero exit code or on any problem listed here.  Errors
are relative errors against a check independent of the op's own arithmetic:
closed-form predictions and held-out residuals of `expand`, the identity
residuals of `verify`, Newton residuals and the low-frequency phase law of
`resonance`/`phase`, and reference values for `wave` recorded with a finer
spectral quadrature.

Every problem fails the op.  Most also mark its answer wrong, which makes the
run's `correct` false.  One does not: `verify` writes NaN into `z_mod`/`z_arg`
of its single-parameter identities, which have no second spectral point.  No
output format documents that NaN, so the op fails, but the value is a
placeholder for a coordinate that does not apply, not a wrong answer.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# an error of exactly zero reads as this many digits
DIGITS_CAP = 17.0
# Wave errors below this read as this error.  Against the 32-node reference,
# the CLI's 16-node spectral quadrature is good to 8.0-8.7 digits on the
# Dirichlet disks of the workload and 11.8-12.3 on the Neumann disks.  With
# the floor a wave op reads 8 digits on either disk unless it falls below.
WAVE_ERROR_FLOOR = 1e-8

# The one NaN an output format documents: the asymptotic phase law is
# undefined for an s-resonance.
_NAN_ALLOWED = {
    "phase.csv": lambda row, col: col in ("sigma_asym_re", "sigma_asym_im"),
}
# Undocumented NaN that fails the op without marking its answer wrong.
_NAN_PLACEHOLDER = {
    "verify.csv": lambda row, col: col in ("z_mod", "z_arg") and row["identity"] != "two-parameter",
}


@dataclass
class OpResult:
    ok: bool = True          # passed every check
    correct: bool = True     # no check found a wrong answer
    problems: list[str] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)
    law: str | None = None

    def fail(self, msg: str, wrong: bool = True) -> None:
        self.ok = False
        self.correct = self.correct and not wrong
        self.problems.append(msg)

    @property
    def digits(self) -> float | None:
        if not self.errors:
            return None
        return digits(max(self.errors))


def digits(err: float) -> float:
    if not math.isfinite(err):
        return 0.0
    return min(DIGITS_CAP, -math.log10(err)) if err > 0 else DIGITS_CAP


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _json_nans(obj, where: str, out: list[str]) -> None:
    if isinstance(obj, float) and not math.isfinite(obj):
        out.append(where)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _json_nans(v, f"{where}.{k}", out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _json_nans(v, f"{where}[{i}]", out)


def _scan_outputs(outdir: Path, res: OpResult) -> dict:
    docs = {}
    try:
        manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        res.fail(f"manifest.json unreadable: {e}")
        return docs
    for name in manifest.get("outputs", []):
        path = outdir / name
        try:
            if name.endswith(".csv"):
                rows = _read_csv(path)
                allowed = _NAN_ALLOWED.get(name, lambda row, col: False)
                placeholder = _NAN_PLACEHOLDER.get(name, lambda row, col: False)
                for i, row in enumerate(rows):
                    for col, val in row.items():
                        try:
                            x = float(val)
                        except ValueError:
                            continue
                        if not math.isfinite(x) and not allowed(row, col):
                            res.fail(f"{name} row {i + 1} column {col} is {val}",
                                     wrong=not placeholder(row, col))
                docs[name] = rows
            else:
                doc = json.loads(path.read_text(encoding="utf-8"))
                bad: list[str] = []
                _json_nans(doc, name, bad)
                for where in bad:
                    res.fail(f"non-finite value at {where}")
                docs[name] = doc
        except (OSError, ValueError) as e:
            res.fail(f"{name} unreadable: {e}")
    return docs


def _check_expand(docs, res: OpResult) -> None:
    fit = docs.get("fit.json")
    if fit is None:
        res.fail("fit.json missing")
        return
    res.errors.extend(float(t["relError"]) for t in fit["terms"] if t.get("relError") is not None)
    res.errors.append(float(fit["residualHeldOut"]))


def _check_verify(docs, res: OpResult) -> None:
    rows = docs.get("verify.csv")
    if not rows:
        res.fail("verify.csv missing or empty")
        return
    for row in rows:
        if row["status"] != "pass":
            res.fail(f"verify identity {row['identity']} has status {row['status']}")
        res.errors.append(float(row["residual"]))


def _check_resonance(docs, res: OpResult) -> None:
    doc = docs.get("resonance.json")
    if doc is None:
        res.fail("resonance.json missing")
        return
    res.errors.extend(float(p["residual"]) for p in doc["poles"])


def _check_phase(docs, res: OpResult) -> None:
    rows = docs.get("phase.csv")
    if not rows:
        res.fail("phase.csv missing or empty")
        return
    low = min(rows, key=lambda r: float(r["lambda"]))
    sigma = complex(float(low["sigma_re"]), float(low["sigma_im"]))
    asym = complex(float(low["sigma_asym_re"]), float(low["sigma_asym_im"]))
    if math.isfinite(asym.real) and math.isfinite(asym.imag) and sigma != 0:
        res.errors.append(abs(sigma - asym) / abs(sigma))


def _check_wave(docs, res: OpResult, reference, expect_law) -> None:
    rows = docs.get("wave.csv")
    decay = docs.get("decay.json")
    if not rows or decay is None:
        res.fail("wave.csv or decay.json missing")
        return
    res.law = decay["law"]
    if expect_law is not None and res.law != expect_law:
        res.fail(f"decay law {res.law!r}, expected {expect_law!r}")
    if reference is None:
        res.fail("no reference values recorded for this config")
        return
    if len(reference) != len(rows):
        res.fail(f"wave.csv has {len(rows)} times, reference has {len(reference)}")
        return
    for row, (t, re, im) in zip(rows, reference):
        if float(row["t"]) != t:
            res.fail(f"wave.csv time {row['t']} differs from reference time {t!r}")
            return
        w = complex(float(row["w_re"]), float(row["w_im"]))
        ref = complex(re, im)
        res.errors.append(max(abs(w - ref) / abs(ref), WAVE_ERROR_FLOOR))


def check_op(command: str, code: int, outdir: Path, *, reference=None,
             expect_law: str | None = None) -> OpResult:
    res = OpResult()
    if code != 0:
        res.fail(f"exit code {code}")
        return res
    docs = _scan_outputs(outdir, res)
    if command == "expand":
        _check_expand(docs, res)
    elif command == "verify":
        _check_verify(docs, res)
    elif command == "resonance":
        _check_resonance(docs, res)
    elif command == "phase":
        _check_phase(docs, res)
    elif command == "wave":
        _check_wave(docs, res, reference, expect_law)
    return res
