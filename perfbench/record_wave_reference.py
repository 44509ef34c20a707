"""Record the wave reference table that `acc_digits` compares against.

Runs the CLI `wave` command on every disk the `wave` workload can draw (both
boundary conditions, every radius in workloads.WAVE_RADII) with the spectral
quadrature refined from 16 to REFERENCE_NODES Gauss-Legendre nodes per panel,
and stores the resulting w(t) in perfbench/wave_reference.json.  The CLI
itself runs at 16 nodes, so `acc_digits` of a wave op reads the digits that
its quadrature and round-off leave, not how closely it repeats an earlier run.

    python3 perfbench/record_wave_reference.py        # from the repository root
"""

from __future__ import annotations

import csv
import functools
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from lowfreq2d import cli, wave  # noqa: E402

from workloads import WAVE_RADII, disk, reference_key  # noqa: E402

REFERENCE_NODES = 32


def main_record() -> int:
    cli.evolve = functools.partial(wave.evolve, nodes_per_panel=REFERENCE_NODES)
    table = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for bc in ("dirichlet", "neumann"):
            for radius in WAVE_RADII:
                cfg = Path(tmp) / "disk.cfg"
                cfg.write_text(disk(radius, bc), encoding="utf-8")
                out = Path(tmp) / "out"
                code = cli.main(["wave", "--config", str(cfg), "--out", str(out)])
                if code != 0:
                    print(f"wave failed on {bc} radius {radius}: exit {code}", file=sys.stderr)
                    return 1
                with open(out / "wave.csv", newline="") as fh:
                    rows = [[float(r["t"]), float(r["w_re"]), float(r["w_im"])]
                            for r in csv.DictReader(fh)]
                table[reference_key(bc, radius)] = rows
                print(reference_key(bc, radius), "recorded", flush=True)
    (HERE / "wave_reference.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main_record())
