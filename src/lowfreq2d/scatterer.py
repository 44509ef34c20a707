"""Radially symmetric scatterers, the radial cutoff, and config ingestion.

Two concrete models: piecewise-constant compactly supported potentials and
disk obstacles with Dirichlet or Neumann condition.  Piecewise-constant data
is deliberate: interior solutions become explicit Bessel transfer matrices,
so downstream modules get machine-precision oracles instead of ODE steppers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .quadrature import PanelGrid, graded_inner_edges
from .radial import Exterior, RadialFunction

STANDARD_NODES = 32     # Gauss-Legendre nodes per panel of standard_grid


@dataclass(frozen=True)
class PiecewisePotential:
    """V = values[j] on (breaks[j-1], breaks[j]), with breaks[-1] the support radius."""

    breaks: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.breaks) == 0 or len(self.breaks) != len(self.values):
            raise ValidationError("values need one entry per break")
        edges = self.segment_edges()
        if not all(a < b < math.inf for a, b in zip(edges, edges[1:])):
            raise ValidationError(f"breaks not increasing from 0 and finite, got {self.breaks}")
        if not all(map(cmath.isfinite, self.values)):
            raise ValidationError(f"values must be finite, got {self.values}")

    @property
    def kind(self) -> str:
        return "potential"

    @property
    def support_radius(self) -> float:
        return self.breaks[-1]

    @property
    def inner_radius(self) -> float:
        return 0.0

    @property
    def selfadjoint(self) -> bool:
        return all(abs(complex(v).imag) == 0.0 for v in self.values)

    def segment_edges(self) -> list[float]:
        return [0.0, *self.breaks]

    def shifted_values(self, eps) -> tuple:
        """The support values of V + eps, eps a number or an array of them
        (then each value is an array of eps's shape, with the bits of the
        number's formula at each element)."""
        return tuple(complex(v) + eps for v in self.values)


@dataclass(frozen=True)
class DiskObstacle:
    radius: float
    bc: str  # "dirichlet" | "neumann"

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValidationError(f"radius must be positive and finite, got {self.radius}")
        if self.bc not in ("dirichlet", "neumann"):
            raise ValidationError(f"bc must be 'dirichlet' or 'neumann', got '{self.bc}'")

    @property
    def kind(self) -> str:
        return "disk"

    @property
    def support_radius(self) -> float:
        return self.radius

    @property
    def inner_radius(self) -> float:
        return self.radius

    @property
    def selfadjoint(self) -> bool:
        return True


Scatterer = PiecewisePotential | DiskObstacle


# ----------------------------------------------------------------------------
# radial cutoff chi_1: 1 inside r0, 0 beyond r0 + width, smooth bridge between
# ----------------------------------------------------------------------------

def _h(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    pos = t > 1e-3 / 745.0  # exp(-1/t) underflow guard
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _bridge(t: np.ndarray):
    """S, S', S'' for the exp(-1/t) partition bridge; S(0)=1, S(1)=0."""
    t = np.asarray(t, dtype=float)
    S = np.where(t <= 0.0, 1.0, 0.0)     # the closed ends; S', S'' vanish there
    Sp = np.zeros_like(S)
    Spp = np.zeros_like(S)
    open_ = (t > 0.0) & (t < 1.0)
    tt = t[open_]
    st = 1.0 - tt
    A = _h(st)
    B = _h(tt)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Ap = -A / st**2
        App = A * (1.0 - 2.0 * st) / st**4
        Bp = B / tt**2
        Bpp = B * (1.0 - 2.0 * tt) / tt**4
    D = A + B                            # > 0: t or 1 - t is at least 1/2
    num = Ap * B - A * Bp
    S[open_] = A / D
    Sp[open_] = num / (D * D)
    Spp[open_] = (App * B - A * Bpp) / (D * D) - 2.0 * (num * (Ap + Bp) / (D * D * D))
    return S, Sp, Spp


@dataclass(frozen=True)
class CutoffProfile:
    r0: float
    width: float

    def __post_init__(self):
        for name in ("r0", "width"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be positive and finite, got {getattr(self, name)}")

    @property
    def r_end(self) -> float:
        return self.r0 + self.width

    @property
    def pairing_radius(self) -> float:
        """Radius r1 with chi = 0 for r > r1 - 1."""
        return self.r_end + 1.0

    def jet(self, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(chi, chi', chi'') at r, from one evaluation of the bridge."""
        r = np.asarray(r, dtype=float)
        inside = (r > self.r0) & (r < self.r_end)
        S, Sp, Spp = _bridge(np.clip((r - self.r0) / self.width, 0.0, 1.0))
        return (np.where(r <= self.r0, 1.0, np.where(r >= self.r_end, 0.0, S)),
                np.where(inside, Sp / self.width, 0.0),
                np.where(inside, Spp / np.float64(self.width) ** 2, 0.0))

    def chi(self, r) -> np.ndarray:
        return self.jet(r)[0]


def _laplacian(r: np.ndarray, dchi: np.ndarray, d2chi: np.ndarray) -> np.ndarray:
    return d2chi + np.where(r > 0, dchi / np.where(r > 0, r, 1.0), 0.0)


def default_cutoff(s: Scatterer) -> CutoffProfile:
    return CutoffProfile(r0=s.support_radius + 0.5, width=1.0)


def commutator_apply(chi: CutoffProfile, u: RadialFunction, jet=None) -> RadialFunction:
    """[Laplacian, chi] u = (Delta chi) u + 2 chi' u', supported on the bridge.
    jet, when given, is chi.jet(u.grid.nodes) evaluated already."""
    grid = u.grid
    in_bridge = (grid.nodes >= chi.r0) & (grid.nodes <= chi.r_end)
    if int(np.count_nonzero(in_bridge)) < 32:
        raise ValidationError(
            f"grid too coarse: {int(np.count_nonzero(in_bridge))} nodes across the cutoff bridge (need >= 32)"
        )
    _, dchi, d2chi = chi.jet(grid.nodes) if jet is None else jet
    vals = _laplacian(grid.nodes, dchi, d2chi) * u.values + 2.0 * dchi * u.deriv_values()
    return RadialFunction(u.mode, grid, vals, None, u.trig, exterior=Exterior())


# ----------------------------------------------------------------------------
# standard grids
# ----------------------------------------------------------------------------

def standard_grid(s: Scatterer, chi: CutoffProfile, rmax: float | None = None,
                  extra_edges=()) -> PanelGrid:
    """Panels aligned with potential breakpoints and the cutoff bridge.

    The grid reaches one unit past the pairing radius so circle pairings at r1
    and sources supported outside the cutoff stay on-grid.
    """
    if rmax is None:
        rmax = chi.pairing_radius + 1.0
    # the bridge is C-infinity but not analytic at its endpoints; grading the
    # panels toward both ends keeps its quadratures machine-exact
    ts = (0.0, 0.001, 0.01, 0.04, 0.12, 0.28, 0.5, 0.72, 0.88, 0.96, 0.99, 0.999, 1.0)
    core = {chi.r0 + t * chi.width for t in ts}
    core.update({chi.pairing_radius, rmax})
    core.update(float(e) for e in extra_edges)
    if isinstance(s, DiskObstacle):
        edges = sorted(e for e in core if e > s.radius)
        all_edges = [s.radius, *edges]
    else:
        core.update(s.breaks)
        edges = sorted(e for e in core if e > 0)
        inner = graded_inner_edges(edges[0])
        all_edges = [*inner[:-1], *edges]
    return PanelGrid(np.array(all_edges), STANDARD_NODES)


# ----------------------------------------------------------------------------
# config files: line-oriented `key = value`, '#' comments, ';' separators
# ----------------------------------------------------------------------------

_KNOWN_KEYS = {
    "kind", "breaks", "values", "radius", "bc",
    "cutoff.r0", "cutoff.width",
    "grid.argDeg", "grid.min", "grid.max", "grid.count",
    "fit.jmax", "fit.kmax",
}

_GRID_DEFAULTS = dict(argDeg=45.0, min=1e-6, max=1e-2, count=24)
_FIT_DEFAULTS = dict(jmax=1, kmax=2)


@dataclass(frozen=True)
class ScattererConfig:
    scatterer: Scatterer
    cutoff: CutoffProfile
    grid_arg_deg: float
    grid_min: float
    grid_max: float
    grid_count: int
    fit_jmax: int
    fit_kmax: int


def _parse_float(text: str, line: int | None, key: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise ConfigError(f"cannot parse number '{text}'", line, key) from None
    if not math.isfinite(x):
        raise ConfigError(f"number must be finite, got '{text}'", line, key)
    return x


def _parse_complex(text: str, line: int, key: str) -> complex:
    t = text.strip().replace(" ", "")
    try:
        z = complex(t.replace("i", "j"))
    except ValueError:
        raise ConfigError(f"cannot parse complex number '{text}'", line, key) from None
    if not cmath.isfinite(z):
        raise ConfigError(f"complex number must be finite, got '{text}'", line, key)
    return z


def _construct(cls, args: tuple, lines: dict[str, int | None]):
    """cls(*args), its ValidationError re-raised as a ConfigError at the key
    of lines (key -> line) whose last part is the field the message starts with."""
    try:
        return cls(*args)
    except ValidationError as e:
        key = next((k for k in lines if str(e).startswith(k.rsplit(".", 1)[-1] + " ")), None)
        raise ConfigError(str(e), lines.get(key), key) from None


def parse_config(text: str) -> ScattererConfig:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines() or [""], start=1):
        line = raw.split("#", 1)[0]
        for piece in line.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise ConfigError(f"expected key = value, got '{piece}'", lineno)
            key, val = (p.strip() for p in piece.split("=", 1))
            if key not in _KNOWN_KEYS:
                raise ConfigError("unknown key", lineno, key)
            if key in entries:
                raise ConfigError("duplicate key", lineno, key)
            entries[key] = (val, lineno)

    def take(key, default=None):
        if key in entries:
            return entries.pop(key)
        return (default, None)

    kind, kline = take("kind")
    if kind is None:
        raise ConfigError("missing required key 'kind'")
    if kind == "potential":
        breaks_s, bl = take("breaks")
        values_s, vl = take("values")
        if breaks_s is None or values_s is None:
            raise ConfigError("potential needs 'breaks' and 'values'", kline)
        breaks = tuple(_parse_float(b, bl, "breaks") for b in breaks_s.split(","))
        values = tuple(_parse_complex(v, vl, "values") for v in values_s.split(","))
        scatterer: Scatterer = _construct(PiecewisePotential, (breaks, values),
                                          {"breaks": bl, "values": vl})
    elif kind == "disk":
        radius_s, rl = take("radius")
        bc, bcl = take("bc", "dirichlet")
        if radius_s is None:
            raise ConfigError("disk needs 'radius'", kline)
        radius = _parse_float(radius_s, rl, "radius")
        scatterer = _construct(DiskObstacle, (radius, bc), {"radius": rl, "bc": bcl})
    else:
        raise ConfigError(f"unknown kind '{kind}'", kline, "kind")

    r0_s, r0l = take("cutoff.r0")
    w_s, wl = take("cutoff.width")
    default = default_cutoff(scatterer)
    r0 = _parse_float(r0_s, r0l, "cutoff.r0") if r0_s is not None else default.r0
    width = _parse_float(w_s, wl, "cutoff.width") if w_s is not None else default.width
    # a disk needs r0 > radius: the canonical source lives between the two,
    # and radius + 0.5 rounds to the radius itself beyond ~1e16
    if r0 < scatterer.support_radius or r0 <= scatterer.inner_radius:
        raise ConfigError(
            f"cutoff.r0 = {r0} leaves no room outside the scatterer support "
            f"(radius {scatterer.support_radius})", r0l, "cutoff.r0",
        )
    cutoff = _construct(CutoffProfile, (r0, width), {"cutoff.r0": r0l, "cutoff.width": wl})

    g = dict(_GRID_DEFAULTS)
    for name in ("argDeg", "min", "max"):
        v, ln = take(f"grid.{name}")
        if v is not None:
            g[name] = _parse_float(v, ln, f"grid.{name}")
    v, ln = take("grid.count")
    if v is not None:
        try:
            g["count"] = int(v)
        except ValueError:
            raise ConfigError(f"cannot parse '{v}'", ln, "grid.count") from None
        if g["count"] < 1:
            raise ConfigError("grid.count must be positive", ln, "grid.count")
    if not (0 < g["min"] < g["max"]):
        raise ConfigError("need 0 < grid.min < grid.max")
    f = dict(_FIT_DEFAULTS)
    for name in ("jmax", "kmax"):
        v, ln = take(f"fit.{name}")
        if v is not None:
            try:
                f[name] = int(v)
            except ValueError:
                raise ConfigError(f"cannot parse '{v}'", ln, f"fit.{name}") from None
            if f[name] < 0:
                raise ConfigError(f"fit.{name} must be nonnegative", ln, f"fit.{name}")

    return ScattererConfig(
        scatterer=scatterer, cutoff=cutoff,
        grid_arg_deg=g["argDeg"], grid_min=g["min"], grid_max=g["max"],
        grid_count=g["count"], fit_jmax=f["jmax"], fit_kmax=f["kmax"],
    )

