"""Long-time wave evolution through the spectral representation.

The solution of  w_tt + P w = 0,  w(0) = 0,  w_t(0) = f  is

    w(x, t) = (2/pi) integral_0^inf sin(lam t) Im[R(lam + i0) f](x) dlam,

with the imaginary part of the outgoing resolvent sampled once on a composite
panel grid (geometric toward lam = 0, where the integrand varies in log lam,
then uniform until the tail is negligible).  Each panel carries a Legendre
expansion of the integrand, and the oscillatory factor is integrated exactly
against Legendre polynomials via spherical Bessel moments

    integral_{-1}^{1} P_n(x) e^{i w x} dx = 2 i^n j_n(w),

so one set of samples serves every requested time, from t = 0 to 1e6, with
no stationary-phase bookkeeping.

Scatterers with discrete spectrum are refused: a bound state would add an
oscillatory term the spectral integral over the continuum misses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundStateRefusal, ValidationError
from .quadrature import PanelGrid, geometric_edges
from .radial import RadialFunction
from .resolvent import mode_green
from .scatterer import Scatterer
from .scattering import imaginary_axis_poles
from .specfun import SpectralPoint

LAM_FLOOR = 1e-9
LAM_GEOMETRIC_TOP = 0.5
LAM_CAP = 60.0
TAIL_REL = 1e-12


def spherical_jn_all(nmax: int, w: float) -> np.ndarray:
    """j_0..j_nmax at w >= 0; downward recurrence below the oscillatory regime."""
    out = np.zeros(nmax + 1)
    if w == 0.0:
        out[0] = 1.0
        return out
    if w > nmax + 12:
        out[0] = math.sin(w) / w
        if nmax >= 1:
            out[1] = out[0] / w - math.cos(w) / w
        for n in range(1, nmax):
            out[n + 1] = (2 * n + 1) / w * out[n] - out[n - 1]
        return out
    # Miller's downward recurrence j_{n-1} = (2n+1)/w j_n - j_{n+1}, normalized by j0
    N = nmax + 20 + int(w)
    jp = 0.0          # j_{n+1}
    jc = 1e-300       # j_n
    tail = np.zeros(nmax + 1)
    for n in range(N, 0, -1):
        jm = (2 * n + 1) / w * jc - jp
        jp, jc = jc, jm
        if n - 1 <= nmax:
            tail[n - 1] = jc
        if abs(jc) > 1e250:
            jp *= 1e-250
            jc *= 1e-250
            tail *= 1e-250
    j0 = math.sin(w) / w
    return tail * (j0 / jc)


@dataclass
class OscillatoryPanels:
    """Legendre data of a sampled integrand, ready to hit against sin(t lam)."""

    edges: np.ndarray
    coeffs: np.ndarray        # (npanels, n) complex Legendre coefficients

    def sin_integral(self, t: float) -> float:
        """integral G(lam) sin(t lam) dlam over the covered range."""
        half = 0.5 * np.diff(self.edges)
        mid = 0.5 * (self.edges[:-1] + self.edges[1:])
        n = self.coeffs.shape[1]
        jn = np.array([spherical_jn_all(n - 1, t * h) for h in half])
        moments = jn * (2.0 * 1j ** np.arange(n))
        # Im of each panel's term, summed in order over k and then over the
        # panels: at large t the panels cancel, and the order sets the last digits
        inner = np.cumsum(self.coeffs * moments, axis=1)[:, -1]
        phase = half * np.exp(1j * t * mid)
        return float(np.cumsum(phase.real * inner.imag + phase.imag * inner.real)[-1])

    def endpoint_derivatives(self, m: int = 3) -> list[float]:
        """G, G', ..., G^(m) at the top edge, from the last panel's expansion."""
        from numpy.polynomial import legendre as L
        h = 0.5 * (self.edges[-1] - self.edges[-2])
        c = self.coeffs[-1]
        out = []
        for k in range(m + 1):
            out.append(float(np.real(L.legval(1.0, c))) / h**k)
            c = L.legder(c)
        return out

    def tail_completion(self, t: float) -> float:
        """integral over (top, inf) of G sin(t lam), by endpoint asymptotics.

        Repeated integration by parts gives
            G cos(tL)/t - G' sin(tL)/t^2 - G'' cos(tL)/t^3 + G''' sin(tL)/t^4
        with remainder O(G''''/t^5 scale), assuming G keeps decaying beyond
        the sampled range.
        """
        L = float(self.edges[-1])
        g0, g1, g2, g3 = self.endpoint_derivatives(3)
        c, s = math.cos(t * L), math.sin(t * L)
        return g0 * c / t - g1 * s / t**2 - g2 * c / t**3 + g3 * s / t**4


@dataclass
class WaveQuery:
    scatterer: Scatterer
    f: RadialFunction             # mode-0 smooth compactly supported initial velocity
    x: float                      # observation radius
    times: tuple[float, ...]

    def __post_init__(self):
        if self.f.mode != 0:
            raise ValidationError("initial data must be a mode-0 radial function")
        if any(t < 0 for t in self.times):
            raise ValidationError("times must be nonnegative")


@dataclass
class WaveResult:
    query: WaveQuery
    values: list[complex]
    lam_max: float
    npanels: int
    tail_converged: bool          # False: the sweep stopped at LAM_CAP instead
    panels: OscillatoryPanels = field(repr=False, default=None)


def _source_panels(f: RadialFunction) -> RadialFunction:
    """f on the run of panels from its first to its last nonzero one."""
    g = f.grid
    rows = np.flatnonzero((np.abs(f.values) > 0).reshape(g.npanels, g.n).any(axis=1))
    if rows.size == 0:
        raise ValidationError("initial data vanish identically")
    lo, hi = rows[0], rows[-1] + 1
    return RadialFunction(f.mode, PanelGrid(g.edges[lo:hi + 1], g.n), f.values[lo * g.n:hi * g.n])


def evolve(q: WaveQuery, nodes_per_panel: int = 16) -> WaveResult:
    """w(x, t) for each requested time; one resolvent sweep serves all times."""
    poles = imaginary_axis_poles(q.scatterer, 0, 1e-3, 2.0)
    if poles:
        ks = [p.lam.modulus for p in poles]
        raise BoundStateRefusal(
            f"scatterer has bound states (kappa ~ {ks}); the continuum integral "
            "does not represent the evolution"
        )
    # the integrand Im R(lam + i0) f (x) needs the Green data only where f lives
    src = _source_panels(q.f)

    def sample_chunk(edges: np.ndarray):
        # one batched resolvent per panel; a whole chunk per call would
        # multiply the solution arrays, and so the peak memory
        panel = PanelGrid(edges, nodes_per_panel)
        vals = np.concatenate([
            mode_green(q.scatterer, [SpectralPoint(float(m), 0.0) for m in row], 0,
                       src.grid).value_at(src, q.x).imag
            for row in panel.nodes.reshape(-1, nodes_per_panel)
        ])
        return panel, vals

    # base chunk: geometric into the origin, uniform through moderate lam
    base = list(geometric_edges(LAM_FLOOR, LAM_GEOMETRIC_TOP))
    lam = LAM_GEOMETRIC_TOP
    while lam < 12.0:
        lam = min(lam + 0.25, 12.0)
        base.append(lam)
    all_edges = np.array(base)
    panel, vals = sample_chunk(all_edges)
    coeff_rows = [panel._coeffs(vals)]
    gmax = float(np.max(np.abs(vals)))
    tmin = min((t for t in q.times if t > 0), default=1.0)
    # the tail beyond the sampled range is completed by endpoint asymptotics
    # with remainder ~ |G(top)| (sigma/t)^4, sigma the source support radius
    sigma = max(float(src.grid.nodes[np.abs(src.values) > 0][-1]), 1.0)

    def tail_ok(tail_mag: float) -> bool:
        return tail_mag * min(1.0, (sigma / tmin) ** 4) < TAIL_REL * gmax

    tail = float(np.max(np.abs(vals[panel.nodes > all_edges[-1] - 2.0])))
    while not tail_ok(tail) and all_edges[-1] < LAM_CAP:
        top = all_edges[-1]
        new_top = min(top + 8.0, LAM_CAP)
        chunk_edges = np.arange(top, new_top + 1e-9, 0.25)
        cpanel, cvals = sample_chunk(chunk_edges)
        coeff_rows.append(cpanel._coeffs(cvals))
        all_edges = np.concatenate([all_edges, chunk_edges[1:]])
        gmax = max(gmax, float(np.max(np.abs(cvals))))
        tail = float(np.max(np.abs(cvals[cpanel.nodes > new_top - 2.0])))
    osc = OscillatoryPanels(all_edges, np.vstack(coeff_rows))
    values = [
        complex((2.0 / math.pi) * (osc.sin_integral(float(t)) + osc.tail_completion(float(t))))
        if t > 0 else 0.0j
        for t in q.times
    ]
    return WaveResult(q, values, float(all_edges[-1]), len(all_edges) - 1,
                      tail_converged=tail_ok(tail), panels=osc)


# ----------------------------------------------------------------------------
# decay-law fitting
# ----------------------------------------------------------------------------

@dataclass
class DecayReport:
    law: str                   # "t^-1" | "t^-1 (log t)^-2" | "inconclusive"
    coefficient: float
    residual: float
    residuals: dict[str, float]


def decay_fit(samples) -> DecayReport:
    """Pick between 1/t and 1/(t log^2 t) decay on (t, w) pairs.

    Both models have fixed slope; only the prefactor is fitted, and the law
    with the smaller rms misfit of log|w| wins.  Needs >= 6 times spanning at
    least two decades.
    """
    ts = np.array([float(t) for t, _ in samples])
    ws = np.array([complex(w) for _, w in samples])
    if len(ts) < 6 or np.max(ts) / np.min(ts) < 99.0:
        raise ValidationError("need >= 6 times spanning >= 2 decades")
    logw = np.log(np.abs(ws))
    models = {
        "t^-1": -np.log(ts),
        "t^-1 (log t)^-2": -np.log(ts) - 2.0 * np.log(np.log(ts)),
    }
    fits = {}
    for name, base in models.items():
        c = float(np.mean(logw - base))
        resid = float(np.sqrt(np.mean((logw - base - c) ** 2)))
        fits[name] = (c, resid)
    name = min(fits, key=lambda k: fits[k][1])
    c, resid = fits[name]
    residuals = {k: v[1] for k, v in fits.items()}
    if all(v > 0.1 for v in residuals.values()):
        return DecayReport("inconclusive", math.exp(c), resid, residuals)
    sign = 1.0 if np.median(np.real(ws * ts)) >= 0 else -1.0
    return DecayReport(name, sign * math.exp(c), resid, residuals)
