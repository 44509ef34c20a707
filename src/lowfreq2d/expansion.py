"""Low-frequency structure of cutoff-resolvent matrix elements.

Matrix elements m(lam) = <R(lam) f, g> are sampled on rays into the origin,
in one resolvent sweep (resolvent.green_sweep, which wave shares) on the run
of panels where f or g is above rounding (radial.support_panels, the rule
wave shares too), and fitted against the bases

    lam^{2j} (log lam)^k           (regular terms, k of either sign)
    lam^{2j} (log lam - a)^{-k}    (shifted-pole terms, k >= 1)

with the shift found by variable projection: linear least squares inside a
small Gauss-Newton iteration on the complex shift.  Rows are weighted by
1/|sample| so the fit controls relative error across the (potentially 1e12)
dynamic range, and columns are normalized to unit max before solving.  A
FitReport is the fitted series: the terms, one coefficient each, the shift.

Closed-form predictions of the leading coefficients come from the threshold
report: the zero-eigenspace projection at lam^-2, the 1/r states at
lam^-2 (log lam - s_m)^-1, the bounded state (plus an exact quadrupole-tail
correction from the zero eigenspace) at log lam, and the log-growing state at
(log lam - a)^-1 with its geometric ladder in unshifted negative powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (IllConditionedFitError, NumericalError, ShapeMismatchError,
                     ValidationError)
from .radial import RadialFunction, inner, support_panels, with_trig
from .resolvent import green_sweep
from .scatterer import Scatterer
from .specfun import SpectralBatch
from .threshold import ThresholdReport
from .util import log_grid

CONDITION_LIMIT = 1e12
EXTRA_COUNT = 8         # points on expansion_grid's secondary ray
SHIFT_MAX_ITER = 40     # Gauss-Newton steps on the pole shift


# ----------------------------------------------------------------------------
# sampling grids
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionGrid:
    points: SpectralBatch
    held_out: tuple[bool, ...]


def expansion_grid(count: int = 24, modmin: float = 1e-6, modmax: float = 1e-2,
                   arg: float = math.pi / 4, extra_arg: float | None = math.pi / 3
                   ) -> ExpansionGrid:
    """Log-spaced moduli on a main ray (every third point held out) plus
    EXTRA_COUNT on a secondary ray for robustness across log-branch mistakes."""
    mods, args = log_grid(modmin, modmax, count), np.full(count, arg)
    held = [(i % 3 == 2) for i in range(count)]
    if extra_arg is not None:
        mods = np.concatenate((mods, log_grid(modmin, modmax, EXTRA_COUNT)))
        args = np.concatenate((args, np.full(EXTRA_COUNT, extra_arg)))
        held += [False] * EXTRA_COUNT
    return ExpansionGrid(SpectralBatch(mods, args), tuple(held))


def sample_matrix_element(s: Scatterer, f: RadialFunction, g: RadialFunction,
                          pts: SpectralBatch) -> np.ndarray:
    """<R(lam) f, g> per spectral point (pole-guarded), in one resolvent
    sweep on the panels where f or g is above rounding."""
    if not (len(pts) and f.same_channel(g) and (f.values.any() or g.values.any())):
        return np.zeros(len(pts), dtype=complex)
    f, g = support_panels(f, g)
    return green_sweep(s, pts, f.mode, f.grid, lambda green: inner(green.apply_values(f), g))


# ----------------------------------------------------------------------------
# term bookkeeping
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class FitTerm:
    j: int            # power lam^{2j}
    k: int            # log power; pole terms use (log lam - shift)^{-k}, k >= 1
    pole: bool = False

    def label(self) -> str:
        parts = []
        if self.j != 0:
            parts.append(f"lam^{2*self.j}")
        if self.pole:
            parts.append(f"(log-a)^-{self.k}")
        elif self.k != 0:
            parts.append(f"log^{self.k}")
        return "*".join(parts) if parts else "1"

    def evaluate(self, pts: SpectralBatch, shift: complex | None) -> np.ndarray:
        """The term at each point of pts."""
        if self.pole and shift is None:
            raise ValidationError("pole term without a shift")
        vals = pts.value ** (2 * self.j) if self.j != 0 else np.ones(len(pts), dtype=complex)
        if self.pole:
            return vals * (pts.log - shift) ** (-self.k)
        return vals * pts.log**self.k if self.k != 0 else vals


def resonant_terms(jmax: int, kmax: int) -> list[FitTerm]:
    """lam^{2j}(log)^k, 0 <= k <= min(2j+1, kmax); the zero-resonance shape."""
    return [FitTerm(j, k) for j in range(jmax + 1) for k in range(min(2 * j + 1, kmax) + 1)]


def nonresonant_terms(jmax: int, kmax: int) -> list[FitTerm]:
    """Regular k <= min(j, kmax) plus shifted poles k <= min(j+1, kmax+1)."""
    terms = [FitTerm(j, k) for j in range(jmax + 1) for k in range(min(j, kmax) + 1)]
    terms += [
        FitTerm(j, k, pole=True)
        for j in range(jmax + 1)
        for k in range(1, min(j + 1, kmax + 1) + 1)
    ]
    return terms


def fit_shape(report: ThresholdReport, f: RadialFunction, jmax: int, kmax: int
              ) -> tuple[list[FitTerm], complex | None]:
    """The terms and the starting pole shift that fit <R(lam) f, f>.

    A radial scatterer's resolvent does not couple angular channels, so only
    the threshold state in f's own channel shapes the expansion: U0 gives the
    resonant shape, one order past jmax; Ulog the non-resonant one, shifted
    from a; a 1/r state adds lam^-2, its shifted pole and the j = 0 poles up
    to k = 2, shifted from its s_m; an eigenfunction adds lam^-2.  A channel
    with none of these raises ShapeMismatchError.

    The resonant shape has no pole terms.  Through jmax alone its held-out
    residual on the default grid is two to three orders above the
    non-resonant shape's: 1.6e-9 to 6.2e-9 on Neumann disks of radius 0.8 to
    1.2, against 2e-12 to 8e-12 on Dirichlet disks of those radii.  The next
    order brings it to 3e-12 to 1.6e-11.
    """
    regular = resonant_terms(jmax, kmax)
    if report.U0 is not None and f.same_channel(report.U0):
        return resonant_terms(jmax + 1, kmax), None
    if report.Ulog is not None and f.same_channel(report.Ulog):
        return nonresonant_terms(jmax, kmax), report.a
    for uw, sm in zip(report.Uw, report.s):
        if f.same_channel(uw):
            poles = [FitTerm(0, k, pole=True) for k in (1, 2)]
            return [FitTerm(-1, 0), FitTerm(-1, 1, pole=True)] + regular + poles, sm
    if _eigen_in_channel(report, f):
        return [FitTerm(-1, 0)] + regular, None
    raise ShapeMismatchError(f"no threshold state in the mode-{f.mode} {f.trig} channel")


# ----------------------------------------------------------------------------
# the fitted series
# ----------------------------------------------------------------------------

@dataclass
class FitReport:
    """A fitted log-Laurent series: one coefficient per term of `terms`, in
    its order, and the pole shift (None without pole terms); the held-out
    residual and the design's conditioning; and the closed-form predictions
    by term label, which `discrepancies` compares with the fit."""
    terms: list[FitTerm]
    coefficients: list[complex]
    shift_estimate: complex | None
    residual: float              # max relative error on held-out points
    conditioning: float
    predicted: dict[str, complex] = field(default_factory=dict)

    def evaluate(self, pts: SpectralBatch) -> np.ndarray:
        """The series at each point of pts: the regular terms, then the pole
        terms, each in `terms` order."""
        out = np.zeros(len(pts), dtype=complex)
        for t, c in sorted(zip(self.terms, self.coefficients), key=lambda tc: tc[0].pole):
            out += c * t.evaluate(pts, self.shift_estimate)
        return out

    def coefficient(self, term: FitTerm) -> complex:
        """The fitted coefficient of term; 0.0 for a term not fitted."""
        return self.coefficients[self.terms.index(term)] if term in self.terms else 0.0

    @property
    def discrepancies(self) -> dict[str, float]:
        """|fitted - predicted| / |predicted| by label, for each fitted term
        with a nonzero prediction."""
        pred = self.predicted
        return {t.label(): float(abs(c - pred[t.label()]) / abs(pred[t.label()]))
                for t, c in zip(self.terms, self.coefficients) if pred.get(t.label(), 0) != 0}

    def to_dict(self) -> dict:
        def c(z):
            return [complex(z).real, complex(z).imag]

        rel = self.discrepancies
        return {
            "terms": [
                {
                    "j": t.j, "k": t.k, "pole": t.pole, "label": t.label(),
                    "fitted": c(fitted),
                    "predicted": c(self.predicted[t.label()]) if t.label() in self.predicted else None,
                    "relError": rel.get(t.label()),
                }
                for t, fitted in zip(self.terms, self.coefficients)
            ],
            "shift": c(self.shift_estimate) if self.shift_estimate is not None else None,
            "residualHeldOut": self.residual,
            "conditioning": self.conditioning,
        }


# ----------------------------------------------------------------------------
# the fit
# ----------------------------------------------------------------------------

def _weighted_lstsq(A, y, w):
    """Row-weighted, column-normalized least squares: the coefficients, the
    weighted residual vector and the normalized matrix."""
    Aw = A * w[:, None]
    yw = y * w
    if not (np.all(np.isfinite(Aw)) and np.all(np.isfinite(yw))):
        raise NumericalError("fit design or samples are not finite")
    scale = np.max(np.abs(Aw), axis=0)
    scale[scale == 0] = 1.0
    As = Aw / scale[None, :]
    coef, *_ = np.linalg.lstsq(As, yw, rcond=None)
    return coef / scale, As @ coef - yw, As


def _shift_key(sh) -> bytes:
    """A shift's exact bits (None as NaN), the key of a fit's solve cache."""
    return np.complex128(sh).tobytes()


def fit_log_laurent(samples: np.ndarray, grid: ExpansionGrid, terms: list[FitTerm],
                    shift0: complex | None = None) -> FitReport:
    """Least-squares fit of the term set; with pole terms, Gauss-Newton on
    the pole shift from shift0."""
    samples = np.asarray(samples, dtype=complex)
    held = np.array(grid.held_out, dtype=bool)
    tr, te = np.flatnonzero(~held), np.flatnonzero(held)
    if len(tr) < 2 * len(terms):
        raise ValidationError(
            f"{len(tr)} training samples for {len(terms)} terms; need at least 2x"
        )
    pts_tr = grid.points[tr]
    y_tr = samples[tr]
    w = 1.0 / np.maximum(np.abs(y_tr), 1e-14 * np.max(np.abs(y_tr)))

    has_pole = any(t.pole for t in terms)
    if has_pole and shift0 is None:
        raise ValidationError("pole terms need an initial shift (threshold a or gamma0)")

    # only the pole columns move with the shift: the others are built once;
    # a shift solved before (line-search trial, converged shift) reuses its solve
    cols = [None if t.pole else t.evaluate(pts_tr, None) for t in terms]
    solved = {}

    def solve(sh):
        if (key := _shift_key(sh)) not in solved:
            A = np.column_stack([t.evaluate(pts_tr, sh) if c is None else c for t, c in zip(terms, cols)])
            solved[key] = _weighted_lstsq(A, y_tr, w)
        return solved[key]

    def rvec(xv):
        r = solve(complex(xv[0], xv[1]))[1]
        return np.concatenate([r.real, r.imag])

    shift = None
    if has_pole:
        x = np.array([shift0.real, shift0.imag])
        for _ in range(SHIFT_MAX_ITER):
            r0 = rvec(x)
            h = 1e-7 * (1.0 + np.abs(x))
            J = np.column_stack([
                (rvec(x + np.array([h[0], 0.0])) - r0) / h[0],
                (rvec(x + np.array([0.0, h[1]])) - r0) / h[1],
            ])
            step, *_ = np.linalg.lstsq(J, -r0, rcond=None)
            if not np.all(np.isfinite(step)):
                break
            # backtrack; when no trial beats x, stop at x, the last shift solved
            t = 1.0
            base = np.linalg.norm(r0)
            while t > 1e-4:
                if np.linalg.norm(rvec(x + t * step)) < base:
                    break
                t *= 0.5
            else:
                break
            x = x + t * step
            if np.linalg.norm(t * step) < 1e-12 * (1.0 + np.linalg.norm(x)):
                break
        shift = complex(x[0], x[1])
    coef, _, As = solve(shift)
    cond = np.linalg.cond(As)
    if cond > CONDITION_LIMIT:
        raise IllConditionedFitError(cond)

    fit = FitReport(terms, [complex(c) for c in coef], shift, float("nan"), float(cond))
    if te.size:
        model = fit.evaluate(grid.points[te])
        rel = np.abs(model - samples[te]) / np.maximum(np.abs(samples[te]), 1e-300)
        fit.residual = float(np.max(rel))
    return fit


# ----------------------------------------------------------------------------
# closed-form predictions from threshold data
# ----------------------------------------------------------------------------

def _eigen_in_channel(report: ThresholdReport, f: RadialFunction
                      ) -> list[tuple[int, RadialFunction]]:
    """(l, psi) for each zero eigenfunction, cos or sin copy, in f's channel."""
    return [(l, psi) for l, e in report.eigen_modes
            for psi in (with_trig(e, "cos"), with_trig(e, "sin")) if f.same_channel(psi)]


def predict_leading_terms(report: ThresholdReport, f: RadialFunction,
                          g: RadialFunction) -> dict[str, complex]:
    """Leading expansion coefficients of <R(lam)f, g> from threshold data.

    A term whose hypothesis fails in f's channel (e.g. the shifted pole while
    a bounded zero-energy state exists) is absent from the result.
    """
    out: dict[str, complex] = {}
    eigen = _eigen_in_channel(report, f)

    # lam^-2: minus the zero-eigenspace projection
    val = 0.0 + 0.0j
    for _, psi in eigen:
        val += -inner(f, psi) * inner(psi, g)
    out["lam^-2"] = val

    # lam^-2 (log - s_m)^-1 for the 1/r states; the combined channel-filtered
    # value doubles as the prediction for a fitted lam^-2 pole term
    pole_total = 0.0 + 0.0j
    for m, (uw, sm) in enumerate(zip(report.Uw, report.s), start=1):
        coeff = inner(f, uw) * inner(uw, g) / math.pi
        out[f"lam^-2*(log-s{m})^-1"] = coeff
        pole_total += coeff
    if report.Uw:
        out["lam^-2*(log-a)^-1"] = pole_total

    # log lam: bounded state plus exact quadrupole-tail correction
    logc = 0.0 + 0.0j
    if report.U0 is not None and f.same_channel(report.U0):
        logc += -inner(f, report.U0) * inner(report.U0, g) / (2.0 * math.pi)
    for l, psi in eigen:
        if l == 2:
            d = psi.exterior.v[-2]
            logc += -(math.pi / 4.0) * abs(d) ** 2 * inner(f, psi) * np.conj(inner(g, psi))
    out["log^1"] = logc

    # shifted pole at a (needs Ulog, so no bounded state, and no 1/r state in f's channel)
    if report.Ulog is not None and not any(f.same_channel(uw) for uw in report.Uw):
        base = inner(f, report.Ulog) * inner(report.Ulog, g) / (2.0 * math.pi)
        out["(log-a)^-1"] = base
        out["log^-1"] = base
        out["log^-2"] = report.a * base

    return out
