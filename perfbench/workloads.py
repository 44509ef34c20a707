"""Seeded workload generation: config files and the CLI ops that read them.

Every workload is a fixed list of op classes ("a round"); the seed only moves
the parameters inside each class (radii, depths, break positions), so a round
costs about the same on every seed while its inputs differ.  The program sees
nothing but the config files written here.

Domain rules kept by construction, nothing else is filtered:
  * `wave` only on scatterers without bound states (disks),
  * `capacity` only on scatterers without a bounded zero-energy state,
  * `perturb` only on potentials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# the wave reference table (wave_reference.json) is recorded on this radius set
WAVE_RADII = (0.9, 0.94, 0.98, 1.02, 1.06, 1.1)


@dataclass(frozen=True)
class Op:
    name: str          # unique within the round, also the output directory
    command: str       # CLI subcommand
    config: str        # config file name inside the workload's cfg directory
    expect_law: str | None = None   # decay law the paper makes definite
    ref_key: str | None = None      # wave_reference.json entry for a wave op


@dataclass
class Plan:
    workload: str
    seed: int
    configs: dict[str, str]   # file name -> text
    ops: list[Op]


def _fmt(x: float) -> str:
    return repr(float(x))


def reference_key(bc: str, radius: float) -> str:
    return f"{bc}:{radius!r}"


def disk(radius: float, bc: str) -> str:
    return f"kind = disk\nradius = {_fmt(radius)}\nbc = {bc}\n"


def potential(breaks, values) -> str:
    b = ",".join(_fmt(x) for x in breaks)
    v = ",".join(_fmt(x) for x in values)
    return f"kind = potential\nbreaks = {b}\nvalues = {v}\n"


def tune_depth(breaks, shape, mode: int, lo: float, hi: float, steps: int = 24):
    """Depth c with the mode-`mode` growing zero-energy coefficient of
    V = -c * shape at zero: scan [lo, hi] for a sign change, then bisect to
    the last representable bit.  Goes through the public solve_zero_mode."""
    from lowfreq2d import PiecewisePotential, solve_zero_mode

    def g(c: float) -> float:
        s = PiecewisePotential(tuple(breaks), tuple(-c * v for v in shape))
        return solve_zero_mode(s, mode).growing.real

    cs = [lo + (hi - lo) * i / steps for i in range(steps + 1)]
    prev_c, prev_g = cs[0], g(cs[0])
    for c in cs[1:]:
        gc = g(c)
        if prev_g * gc <= 0:
            break
        prev_c, prev_g = c, gc
    else:
        raise RuntimeError(f"no mode-{mode} threshold depth in [{lo}, {hi}] for {breaks}, {shape}")
    a, b, ga = prev_c, c, prev_g
    while True:
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        gm = g(mid)
        if ga * gm <= 0:
            b = mid
        else:
            a, ga = mid, gm
    return 0.5 * (a + b)


def _tuned_well(rng: random.Random, mode: int, steps: int = 2) -> str:
    """Threshold-tuned wells of the test fixtures, with jittered shapes: a
    one-step well (mode 0 or 1) or the two-step well (mode 0 or 2).  All use
    the CLI's default lam grid."""
    if steps == 1:
        breaks, shape = (rng.uniform(0.95, 1.05),), (1.0,)
        lo, hi = (3.0, 9.0) if mode == 1 else (12.0, 18.0)
    else:
        breaks = (rng.uniform(0.52, 0.58), 1.0)
        shape = (1.0, rng.uniform(0.33, 0.37))
        lo, hi = (17.0, 27.0) if mode == 0 else (27.0, 38.0)
    c = tune_depth(breaks, shape, mode, lo, hi)
    return potential(breaks, [-c * v for v in shape])


def _wave(rng: random.Random) -> tuple[dict, list]:
    # One op per round: a wave op sweeps 4272 spectral samples (tens of
    # seconds), and Dirichlet and Neumann disks of equal radius do the same
    # work.  The Dirichlet disk is the generic case (its decay fit reads
    # "inconclusive" at the CLI's default times); the s-resonant Neumann disk
    # is where the paper makes the law definite.
    bc = rng.choice(("dirichlet", "neumann"))
    radius = rng.choice(WAVE_RADII)
    law = "t^-1" if bc == "neumann" else None
    return ({"disk.cfg": disk(radius, bc)},
            [Op(f"wave-{bc}", "wave", "disk.cfg", law, reference_key(bc, radius))])


def _expand(rng: random.Random) -> tuple[dict, list]:
    cfgs = {
        "dirichlet.cfg": disk(rng.uniform(0.8, 1.2), "dirichlet"),
        "neumann.cfg": disk(rng.uniform(0.8, 1.2), "neumann"),
        "generic.cfg": potential((rng.uniform(0.9, 1.1),), (-rng.uniform(2.2, 2.8),)),
        "swell.cfg": _tuned_well(rng, 0),
        "pwell.cfg": _tuned_well(rng, 1, steps=1),
        "eigwell.cfg": _tuned_well(rng, 2),
    }
    ops = [Op(f"expand-{c[:-4]}", "expand", c) for c in cfgs]
    ops += [Op("verify-dirichlet", "verify", "dirichlet.cfg"),
            Op("verify-generic", "verify", "generic.cfg"),
            Op("verify-swell", "verify", "swell.cfg")]
    return cfgs, ops


def _poles(rng: random.Random) -> tuple[dict, list]:
    # one-step wells keep the Newton-heavy ops near a second each
    cfgs = {
        "dirichlet.cfg": disk(rng.uniform(0.8, 1.2), "dirichlet"),
        "neumann.cfg": disk(rng.uniform(0.8, 1.2), "neumann"),
        "attractive.cfg": potential((rng.uniform(0.9, 1.1),), (-rng.uniform(2.2, 2.8),)),
        "repulsive.cfg": potential((rng.uniform(0.9, 1.1),), (rng.uniform(4.0, 6.0),)),
        "steps.cfg": potential(sorted((rng.uniform(0.4, 0.6), rng.uniform(0.9, 1.1))),
                               (rng.uniform(4.0, 6.0), rng.uniform(1.5, 2.5))),
        "swell.cfg": _tuned_well(rng, 0, steps=1),
        "pwell.cfg": _tuned_well(rng, 1, steps=1),
    }
    ops = [
        Op("classify-dirichlet", "classify", "dirichlet.cfg"),
        Op("classify-swell", "classify", "swell.cfg"),
        Op("capacity-dirichlet", "capacity", "dirichlet.cfg"),
        Op("capacity-steps", "capacity", "steps.cfg"),
        Op("phase-neumann", "phase", "neumann.cfg"),
        Op("phase-attractive", "phase", "attractive.cfg"),
        Op("resonance-attractive", "resonance", "attractive.cfg"),
        Op("resonance-repulsive", "resonance", "repulsive.cfg"),
        Op("perturb-swell", "perturb", "swell.cfg"),
        Op("perturb-pwell", "perturb", "pwell.cfg"),
    ]
    return cfgs, ops


WORKLOADS = {"wave": _wave, "expand": _expand, "poles": _poles}


def make_plan(workload: str, seed: int) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    cfgs, ops = WORKLOADS[workload](rng)
    return Plan(workload, seed, cfgs, ops)


def write_configs(plan: Plan, cfg_dir: Path) -> None:
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for name, text in plan.configs.items():
        (cfg_dir / name).write_text(text, encoding="utf-8")
