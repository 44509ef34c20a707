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
no stationary-phase bookkeeping, and one table of those moments serves all
the requested times at once.

The lam panels come in chunks: geometric panels into lam = 0 and uniform
0.25-wide panels to lam = 12 first, then 8-unit chunks of 0.25-wide panels.
Only the node count per chunk follows the integrand (the chop rule of
Aurentz and Trefethen, ACM TOMS 43, 2017): with h = nodes_per_panel // 2,
the first chunk runs at nodes_per_panel, and a later one at h nodes when
every panel of the chunk before it has its Legendre coefficients of index
h - 2 and up within TAIL_REL of the running max|G|, else at full order.  A
chunk sampled at h nodes whose top two coefficients pass that bound is
sampled again at full order.  Rows are zero-padded to nodes_per_panel, and
the panel edges do not depend on the orders.

The Green data are taken on the source alone: on the run of panels where f
is above rounding (radial.support_panels, the rule expand's matrix elements
share), resampled on SOURCE_NODES Gauss nodes per panel, with
each panel split until LAM_CAP times its half-width is at most half that
count, so the source quadrature of e^{i lam r} f r dr holds to rounding at
every lam of the sweep.  An observation radius on the source's support reads
partial integrals of that integrand as well, which hold to rounding only on
SUPPORT_NODES nodes per panel under the same split rule.  Each chunk
sampling is one resolvent sweep (resolvent.green_sweep, which expand's matrix
elements share): one Green solve, whose boundary bases' call also takes
the Wronskian probes and the observation radius, read by its slices.  Off
the source a slice forms one solution on the source nodes, the one paired
with f (psi below the source, phi above it), and reads the other at the
observation radius from that call.

Scatterers with discrete spectrum are refused: a bound state would add an
oscillatory term the spectral integral over the continuum misses.  f is
mode 0, so the mode-0 bound states are looked for, on kappa in [1e-3,
sqrt(-min V)], where every bound state -kappa^2 of a real V lies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre

from .errors import BoundStateRefusal, NumericalError, ValidationError
from .quadrature import PanelGrid, geometric_edges
from .radial import RadialFunction, support_panels
from .radialsolve import BESSEL_BATCH
from .resolvent import green_sweep
from .scatterer import Scatterer
from .scattering import axis_search, bound_kappa_max, run_searches, settle
from .specfun import SpectralBatch

LAM_FLOOR = 1e-9
LAM_GEOMETRIC_TOP = 0.5
LAM_CAP = 60.0
TAIL_REL = 1e-12
SOURCE_NODES = 12       # Gauss nodes per source panel of the Green data, x off the support
SUPPORT_NODES = 16      # the same, x on the support: apply's partial integrals need 16


def spherical_jn_table(nmax: int, w: np.ndarray) -> np.ndarray:
    """j_0..j_nmax at each w >= 0, shape (len(w), nmax + 1).

    Each w runs on its own: the upward recurrence for w > nmax + 12, else
    Miller's downward recurrence j_{n-1} = (2n+1)/w j_n - j_{n+1} from its
    start N = nmax + 20 + int(w), rescaled by 1e-250 whenever its j_n passes
    1e250 and normalized by j_0.  sin w and cos w are numpy's array
    kernels, so each row has the bits of a table of that w alone.
    """
    w = np.asarray(w, dtype=float)
    out = np.zeros((w.size, nmax + 1))
    out[w == 0.0, 0] = 1.0
    sin = np.sin(w)
    up = w > nmax + 12
    if up.any():
        wu, j = w[up], out[up]
        j[:, 0] = sin[up] / wu
        if nmax >= 1:
            j[:, 1] = j[:, 0] / wu - np.cos(wu) / wu
        for n in range(1, nmax):
            j[:, n + 1] = (2 * n + 1) / wu * j[:, n] - j[:, n - 1]
        out[up] = j
    down = ~up & (w != 0.0)
    if down.any():
        wd = w[down]
        start = nmax + 20 + wd.astype(int)
        jp, jc = np.zeros(wd.size), np.full(wd.size, 1e-300)       # j_{n+1}, j_n
        tail = np.zeros((wd.size, nmax + 1))
        for n in range(int(start.max()), 0, -1):
            on = start >= n
            jp, jc = np.where(on, jc, jp), np.where(on, (2 * n + 1) / wd * jc - jp, jc)
            if n - 1 <= nmax:
                tail[:, n - 1] = jc
            big = np.abs(jc) > 1e250
            if big.any():
                jp[big] *= 1e-250
                jc[big] *= 1e-250
                tail[big] *= 1e-250
        out[down] = tail * (sin[down] / wd / jc)[:, None]
    return out


@dataclass
class OscillatoryPanels:
    """Legendre data of a sampled integrand, ready to hit against sin(t lam)."""

    edges: np.ndarray
    coeffs: np.ndarray        # (npanels, n) complex Legendre coefficients

    def sin_integral(self, times) -> np.ndarray:
        """integral G(lam) sin(t lam) dlam over the covered range, for each t
        of times (a float or an array, whose shape the result takes).

        One spherical_jn_table call forms the moments of every (time, panel)
        pair, each row its own recurrence, so each time has the bits of a
        table of its own."""
        t = np.asarray(times, dtype=float)
        tcol = t.reshape(-1, 1)
        half = 0.5 * np.diff(self.edges)
        mid = 0.5 * (self.edges[:-1] + self.edges[1:])
        n = self.coeffs.shape[1]
        jn = spherical_jn_table(n - 1, (tcol * half).ravel()).reshape(tcol.size, half.size, n)
        moments = jn * (2.0 * 1j ** np.arange(n))
        # Im of each panel's term, summed in order over k and then over the
        # panels: at large t the panels cancel, and the order sets the last digits
        inner = np.cumsum(self.coeffs * moments, axis=-1)[..., -1]
        phase = half * np.exp(1j * tcol * mid)
        total = np.cumsum(phase.real * inner.imag + phase.imag * inner.real, axis=-1)[:, -1]
        return total.reshape(t.shape)[()]

    def tail_completion(self, times) -> np.ndarray:
        """integral over (top, inf) of G sin(t lam), by endpoint asymptotics,
        for each t of times (a float or an array, whose shape the result takes).

        Repeated integration by parts gives
            G cos(tL)/t - G' sin(tL)/t^2 - G'' cos(tL)/t^3 + G''' sin(tL)/t^4
        with remainder O(G''''/t^5 scale), assuming G keeps decaying beyond
        the sampled range.  G, ..., G''' come from the last panel's expansion,
        once for all times, and the formula is one array expression over the
        times, so each time has the bits of a call of its own.
        """
        top = float(self.edges[-1])
        h = 0.5 * (self.edges[-1] - self.edges[-2])
        c = self.coeffs[-1]
        g = []
        for k in range(4):
            g.append(float(np.real(legendre.legval(1.0, c))) / h**k)
            c = legendre.legder(c)
        t = np.asarray(times, dtype=float)
        x = t.reshape(-1)       # 1-D: numpy's scalar power may round apart from its array kernel
        cos, sin = np.cos(x * top), np.sin(x * top)
        out = g[0] * cos / x - g[1] * sin / x**2 - g[2] * cos / x**3 + g[3] * sin / x**4
        return out.reshape(t.shape)[()]


@dataclass
class WaveQuery:
    scatterer: Scatterer
    f: RadialFunction             # mode-0 smooth compactly supported initial velocity
    x: float                      # observation radius
    times: tuple[float, ...]

    def __post_init__(self):
        if self.f.mode != 0:
            raise ValidationError("initial data must be a mode-0 radial function")
        if not self.scatterer.selfadjoint:      # Stone's formula holds for real V
            raise ValidationError("wave needs a real potential")
        if not all(math.isfinite(t) and t >= 0 for t in self.times):
            raise ValidationError("times must be finite and nonnegative")
        if not (math.isfinite(self.x) and self.x >= 0):
            raise ValidationError(f"observation radius must be finite and nonnegative, got {self.x}")


@dataclass
class WaveResult:
    values: list[complex]
    lam_max: float
    tail_converged: bool          # False: the sweep stopped at LAM_CAP instead
    legendre_tail: float          # max over panels of the top two sampled coefficients / max|G|
    panels: OscillatoryPanels = field(repr=False)


def _source_quadrature(src: RadialFunction, n: int) -> RadialFunction:
    """src on n Gauss-Legendre nodes per panel, each panel split into the
    fewest equal parts on which LAM_CAP times the half-width is at most n / 2,
    where n nodes integrate e^{i lam r} f r dr to rounding for every lam of the
    sweep.  f at each new node comes from its own panel's Legendre expansion
    to its full degree: on the bump's graded panels the terms past degree 15
    reach 2e-11 of max|f|, which a 16-node interpolant would drop.  A split
    grid of more than BESSEL_BATCH nodes, where one spectral point no longer
    fits a sweep's slice, raises NumericalError before any of it is formed."""
    g = src.grid
    width = np.diff(g.edges)
    parts = np.ceil(LAM_CAP * width / n)
    if n * parts.sum() > BESSEL_BATCH:
        raise NumericalError(f"the wave source quadrature needs {n * parts.sum():.3g} nodes; "
                             f"one spectral point takes at most {BESSEL_BATCH}")
    parts = parts.astype(int)
    panel = np.repeat(np.arange(g.npanels), parts)      # the old panel of each new one
    pos = np.arange(panel.size) - np.repeat(np.cumsum(parts) - parts, parts)
    m = parts[panel]
    edges = np.append(g.edges[panel] + width[panel] * pos / m, g.edges[-1])
    x = legendre.leggauss(n)[0]
    coeffs = g._coeffs(src.values)
    vals = np.empty((panel.size, n), dtype=complex)
    # one Legendre-Vandermonde matrix per subpanel position (m parts, part j)
    for k, j in sorted(set(zip(m.tolist(), pos.tolist()))):
        rows = (m == k) & (pos == j)
        vals[rows] = coeffs[panel[rows]] @ legendre.legvander((x + 2 * j + 1 - k) / k, g.n - 1).T
    return RadialFunction(src.mode, PanelGrid(edges, n), vals.ravel())


def _sample_chunk(sample, chunk: np.ndarray, order: int, full: int, gmax: float):
    """(nodes, vals, coeffs) of the integrand on the panels of `chunk`.

    `sample` maps lam nodes to G.  Each panel takes `order` nodes, and the
    chunk is sampled again at `full` nodes when the top two Legendre
    coefficients of any panel pass TAIL_REL times the running max|G| (`gmax`
    before this chunk, or this chunk's own max if larger).  The coefficient
    rows have the sampled order.  A G that is not finite raises NumericalError.
    """
    while True:
        panel = PanelGrid(chunk, order)
        vals = sample(panel.nodes)
        if not np.all(np.isfinite(vals)):
            raise NumericalError("wave Green data are not finite")
        coeffs = panel._coeffs(vals)
        bound = TAIL_REL * max(gmax, float(np.max(np.abs(vals))))
        if order == full or np.all(np.abs(coeffs[:, -2:]) <= bound):
            return panel.nodes, vals, coeffs
        order = full


def _green_source(f: RadialFunction, x: float) -> RadialFunction:
    """The source quadrature of evolve's Green data at observation radius x."""
    (src,) = support_panels(f)
    on_support = src.grid.rmin <= x <= src.grid.rmax
    return _source_quadrature(src, SUPPORT_NODES if on_support else SOURCE_NODES)


def evolve(q: WaveQuery, nodes_per_panel: int = 16) -> WaveResult:
    """w(x, t) for each requested time; one resolvent sweep serves all times.

    A mode-0 bound state of any depth, scanned for on kappa up to
    scattering.bound_kappa_max, raises BoundStateRefusal before the sweep."""
    s = q.scatterer
    poles = settle(run_searches(s, [axis_search(s, 0, kmax=bound_kappa_max(s))])[0])
    if poles:
        ks = [float(p.lam.modulus) for p in poles]
        raise BoundStateRefusal(
            f"scatterer has bound states (kappa ~ {ks}); the continuum integral "
            "does not represent the evolution"
        )
    # the integrand Im R(lam + i0) f (x) needs the Green data only where f
    # lives, and there only on the nodes that integrate it to rounding
    src = _green_source(q.f, q.x)
    # the tail beyond the sampled range is completed by endpoint asymptotics
    # with remainder ~ |G(top)| (sigma/t)^4, sigma the source support radius:
    # the end of the trimmed panels, since f beyond them moves no digit of G
    tmin = min((t for t in q.times if t > 0), default=1.0)
    tail_weight = min(1.0, (max(src.grid.rmax, 1.0) / tmin) ** 4)

    def sample(lam: np.ndarray) -> np.ndarray:
        return green_sweep(q.scatterer, SpectralBatch(lam, 0.0), 0, src.grid,
                           lambda green: green.value_at(src, q.x).imag, q.x)

    # chunk 0 runs geometric into the origin, then uniform through moderate
    # lam, at full order; 8-unit chunks follow until the tail test passes or
    # lam = LAM_CAP, each at half order where the chunk before allows it
    chunk = np.concatenate([geometric_edges(LAM_FLOOR, LAM_GEOMETRIC_TOP)[:-1],
                            np.arange(LAM_GEOMETRIC_TOP, 12.0 + 1e-9, 0.25)])
    full, half = nodes_per_panel, nodes_per_panel // 2
    edges, coeff_rows, gmax, top_two, order = [chunk[:1]], [], 0.0, 0.0, full
    while True:
        nodes, vals, coeffs = _sample_chunk(sample, chunk, order, full, gmax)
        gmax = max(gmax, float(np.max(np.abs(vals))))
        top_two = max(top_two, float(np.max(np.abs(coeffs[:, -2:]))))
        coeff_rows.append(np.pad(coeffs, ((0, 0), (0, full - coeffs.shape[1]))))
        edges.append(chunk[1:])
        top = float(chunk[-1])
        tail = float(np.max(np.abs(vals[nodes > top - 2.0])))
        converged = tail * tail_weight < TAIL_REL * gmax
        if converged or top >= LAM_CAP:
            break
        chunk = np.arange(top, min(top + 8.0, LAM_CAP) + 1e-9, 0.25)
        order = half if np.all(np.abs(coeffs[:, max(half - 2, 0):]) <= TAIL_REL * gmax) else full
    osc = OscillatoryPanels(np.concatenate(edges), np.vstack(coeff_rows))
    ts = [float(t) for t in q.times if t > 0]
    w = iter((2.0 / math.pi) * (osc.sin_integral(ts) + osc.tail_completion(ts)))
    values = [complex(next(w)) if t > 0 else 0.0j for t in q.times]
    return WaveResult(values, top, converged, top_two / gmax, osc)


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
    least two decades, every t finite and above 1, every w finite and nonzero.
    """
    ts = np.array([float(t) for t, _ in samples])
    ws = np.array([complex(w) for _, w in samples])
    if not (np.isfinite(ts).all() and (ts > 1.0).all() and np.isfinite(ws).all() and ws.all()):
        raise ValidationError("decay fit needs finite times above 1 and finite nonzero w")
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
