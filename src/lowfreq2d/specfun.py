"""Bessel and Hankel functions with an explicit log branch.

Everything here is built so that the logarithm of the argument is carried
*explicitly* instead of being recomputed from a principal branch.  A point of
the logarithmic cover is a pair (modulus, arg) with unbounded real arg, so
continuation of H^(1)_0, Y_l, etc. across sheets is just arithmetic on the
stored arg.  Power series are used for |z| <= 12, large-argument asymptotics
beyond, and the two branches are cross-checked by tests on the overlap ring.
Every sum is a Horner recurrence over a cached coefficient table.  How many
terms a point takes is read from its |z| against the table's thresholds
before the recurrence starts, never by a test inside it, and a point's value
does not depend on the points evaluated with it.

All functions are pure; inputs are value types, so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

EULER = 0.5772156649015328606
LOG2 = math.log(2.0)

#: gamma0 = log 2 - euler + i pi/2, so that H^(1)_0(s) ~ (2i/pi)(log s - gamma0) as s -> 0.
GAMMA0 = complex(LOG2 - EULER, math.pi / 2.0)

SERIES_RADIUS = 12.0  # |z| crossover between power series and asymptotics
SERIES_CAP = 80       # length of the coefficient tables
SERIES_EPS = 1e-17    # terms below this are not summed (each table's first term is 1)
DISPATCH_BLOCK = 2048 # points per branch dispatch in bessel_pair


@dataclass(frozen=True)
class SpectralPoint:
    """A point on the Riemann surface of log z: modulus > 0, unreduced arg.

    ``value`` collapses to a plain complex number (losing the sheet),
    ``log`` is single-valued and continuous in (modulus, arg).
    """

    modulus: float
    arg: float

    def __post_init__(self):
        if not self.modulus > 0.0:
            raise DomainError(f"modulus must be positive, got {self.modulus}")

    @property
    def value(self) -> complex:
        return self.modulus * complex(math.cos(self.arg), math.sin(self.arg))

    @property
    def log(self) -> complex:
        return complex(math.log(self.modulus), self.arg)

    def scale(self, r: float) -> "SpectralPoint":
        """Multiply the modulus by r > 0 (same sheet)."""
        return SpectralPoint(self.modulus * r, self.arg)


# ----------------------------------------------------------------------------
# term counts and Horner sums over cached coefficient tables
# ----------------------------------------------------------------------------

def _count_thresholds(coef: np.ndarray) -> np.ndarray:
    """log|x| from which each term k >= 1 of sum_k coef[k] x^k reaches
    SERIES_EPS, sorted."""
    k = np.arange(1, coef.size)
    return np.sort((math.log(SERIES_EPS) - np.log(np.abs(coef[1:]))) / k)


def _term_count(thresholds: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-point term counts from |x|: the terms |coef[k] x^k| >= SERIES_EPS.

    Each table's terms rise to one peak and then fall (the asymptotic table
    is cut where they would grow again), so these terms are a leading run,
    and their number is one plus the count of thresholds at or below log|x|.
    """
    return 1 + np.searchsorted(thresholds, np.log(np.abs(x)), side="right")


def _horner(coef: np.ndarray, x: np.ndarray, n) -> np.ndarray:
    """sum_{k < n} coef[k] x^k by Horner's rule, with a term count n per point.

    The terms that only some points take come as rows that are zero for the
    others, so a point enters the recurrence exactly at its own top term and
    its sum is the one it gets alone, whatever the other points.
    """
    top = int(np.max(n, initial=1))
    base = int(np.min(n, initial=top))
    k = np.arange(base, top)[:, None]
    acc = np.zeros(np.shape(x), dtype=complex)
    for row in np.where(k < n, coef[k], 0.0)[::-1]:
        acc = acc * x + row
    for c in coef[base - 1::-1]:
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def _series_table(l: int):
    """Coefficients of the order-l ascending series in q = -z^2/4 (DLMF 10.8).

    J_l = (z/2)^l / l! sum_k c_k q^k with c_k = l!/(k!(k+l)!), the psi sum of
    Y_l has coefficients (psi(k+1) + psi(k+l+1)) c_k, both for k < SERIES_CAP,
    and Y_l's finite part (z/2)^{-l} sum_{k<l} ((l-1-k)!/k!) (-q)^k / pi has
    coefficients (l-1-k)!/k!.  The count thresholds are those of the c_k.
    """
    k = np.arange(1, SERIES_CAP)
    c = np.cumprod(np.concatenate(([1.0], 1.0 / (k * (k + l)))))
    psi = -EULER + np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, SERIES_CAP + l))))
    d = (psi[:SERIES_CAP] + psi[l:l + SERIES_CAP]) * c
    finite = np.array([math.factorial(l - 1 - j) / math.factorial(j) for j in range(l)])
    return c, d, finite, _count_thresholds(c)


@lru_cache(maxsize=None)
def _asym_table(l: int):
    """i^k a_k(l) of the Hankel expansion in w = 1/z (DLMF 10.17.1), cut at
    its optimal truncation for |z| = SERIES_RADIUS, the smallest modulus the
    branch serves, and the table's count thresholds.

    Beyond that radius the terms of the table decrease throughout, so each
    point's count is its run of terms above SERIES_EPS; on |arg z| <= pi/2,
    which _h12_window ensures, DLMF 10.17(iii) bounds the truncation error by
    a modest multiple of the first neglected term.
    """
    k = np.arange(1, SERIES_CAP)
    full = np.cumprod(np.concatenate(([1.0], 1j * (4.0 * l * l - (2 * k - 1) ** 2) / (8.0 * k))))
    mags = np.abs(full) / SERIES_RADIUS ** np.arange(SERIES_CAP)
    coef = full[:1 + int(np.argmax(mags[1:] > mags[:-1]))]
    return coef, _count_thresholds(coef)


# ----------------------------------------------------------------------------
# power-series branch (|z| <= SERIES_RADIUS)
# ----------------------------------------------------------------------------

def _jy_series(l: int, z: np.ndarray, logz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_l and Y_l by ascending series; logz supplies the branch of log z."""
    z = np.asarray(z, dtype=complex)
    logz = np.asarray(logz, dtype=complex)
    c, d, finite, thresholds = _series_table(l)
    q = -0.25 * z * z
    n = _term_count(thresholds, q)
    half_pow = (0.5 * z) ** l * (1.0 / math.factorial(l))
    J = half_pow * _horner(c, q, n)
    fin = (0.5 * z) ** (-l) * _horner(finite, -q, l) / math.pi if l else 0.0
    Y = (2.0 / math.pi) * (logz - LOG2) * J - fin - half_pow * _horner(d, q, n) / math.pi
    return J, Y


# ----------------------------------------------------------------------------
# asymptotic branch (|z| > SERIES_RADIUS), principal sheet
# ----------------------------------------------------------------------------

def _hankel_pm_asym(l: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H^(1)_l and H^(2)_l on the principal sheet by the large-argument expansion.

    The H^(2) terms are (-1)^k times the H^(1) terms, so the two sums are
    one polynomial at w = 1/z and at -w.
    """
    z = np.asarray(z, dtype=complex)
    coef, thresholds = _asym_table(l)
    w = 1.0 / z
    splus, sminus = _horner(coef, np.stack((w, -w)), _term_count(thresholds, w))
    front = np.sqrt(2.0 / (math.pi * z))   # principal sqrt
    omega = z - l * math.pi / 2.0 - math.pi / 4.0
    h1 = front * np.exp(1j * omega) * splus
    h2 = front * np.exp(-1j * omega) * sminus
    return h1, h2


def _sheet_index(arg: float | np.ndarray) -> np.ndarray:
    return np.round(np.asarray(arg) / (2.0 * math.pi) - 1e-12 * np.sign(np.asarray(arg)))


def _raise_order(l: int, z: np.ndarray, f0: np.ndarray, f1: np.ndarray):
    """Orders l and l + 1 from orders 0 and 1 by the three-term recurrence.

    Stable upward for J, Y and H together as long as l stays below ~|z|
    (oscillatory regime); callers switch to the series otherwise.
    """
    lo, hi = f0, f1
    for n in range(1, l + 1):
        lo, hi = hi, (2.0 * n / z) * hi - lo
    return lo, hi


def _h12_window(l: int, zp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H^(1)_l, H^(2)_l on the principal window, |z| large.

    The raw expansion loses accuracy near arg = +-pi, so for |arg| > pi/2 the
    argument is rotated by a half turn (where the expansion is clean) and the
    exact connection formulas
        H1(z e^{+ipi}) = -(-1)^l H2(z),   H2(z e^{+ipi}) = (-1)^l (H1(z) + 2 H2(z)),
        H1(z e^{-ipi}) = (-1)^l (2 H1(z) + H2(z)),   H2(z e^{-ipi}) = -(-1)^l H1(z),
    are applied; the exponentially small member is always computed directly,
    so there is no cancellation.
    """
    sign = -1.0 if l % 2 else 1.0
    theta = np.angle(zp)
    up = theta > math.pi / 2.0
    dn = theta < -math.pi / 2.0
    zr = zp.copy()
    zr[up] *= np.exp(-1j * math.pi)
    zr[dn] *= np.exp(1j * math.pi)
    a1, a2 = _hankel_pm_asym(l, zr)
    h1, h2 = a1.copy(), a2.copy()
    h1[up], h2[up] = -sign * a2[up], sign * (a1[up] + 2.0 * a2[up])
    h1[dn], h2[dn] = sign * (2.0 * a1[dn] + a2[dn]), -sign * a1[dn]
    return h1, h2


def _jyh_big(l: int, z: np.ndarray, logz: np.ndarray):
    """(J, Y, H^(1)) at orders (l, l + 1) for |z| > SERIES_RADIUS.

    One sheet reduction and the asymptotics at orders 0 and 1 serve every
    order through the recurrence; H^(1) is formed directly from the window
    values, avoiding the J + iY cancellation.
    """
    arg = np.imag(logz)
    k = _sheet_index(arg)
    zp = np.abs(z) * np.exp(1j * (arg - 2.0 * math.pi * k))
    low = []
    for n in (0, 1):
        h1, h2 = _h12_window(n, zp)
        J = 0.5 * (h1 + h2)
        low.append((J, (h1 - h2) / 2j + 4j * k * J, h1 - 4.0 * k * J))
    return tuple(_raise_order(l, zp, f0, f1) for f0, f1 in zip(*low))


# ----------------------------------------------------------------------------
# branch dispatch on the log cover (vectorized core)
# ----------------------------------------------------------------------------

def _series_mask(l: int, z: np.ndarray) -> np.ndarray:
    absz = np.abs(z)
    return (absz <= SERIES_RADIUS) | (l > 0.75 * absz)


def bessel_pair(l: int, z: np.ndarray, logz: np.ndarray):
    """(J, Y, H) on the log cover, each of shape (2, *z.shape): orders l, l + 1.

    Both orders take the branch of order l + 1 (series for |z| <=
    SERIES_RADIUS or l + 1 > 0.75|z|, asymptotics beyond), so one dispatch
    and one sheet reduction serve all six functions, and the upward
    recurrence never runs past the order its branch was chosen for.  Points
    go through in blocks of DISPATCH_BLOCK, which bounds the work arrays of
    the series and asymptotic loops.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    logz = np.atleast_1d(np.asarray(logz, dtype=complex))
    out = np.empty((3, 2, z.size), dtype=complex)
    zf, logf = z.reshape(-1), logz.reshape(-1)
    for start in range(0, z.size, DISPATCH_BLOCK):
        blk = slice(start, start + DISPATCH_BLOCK)
        zb, logb, ob = zf[blk], logf[blk], out[:, :, blk]
        small = _series_mask(l + 1, zb)
        if small.any():
            zs, logzs = zb[small], logb[small]
            (J0, Y0), (J1, Y1) = (_jy_series(l + m, zs, logzs) for m in (0, 1))
            ob[..., small] = [[J0, J1], [Y0, Y1], [J0 + 1j * Y0, J1 + 1j * Y1]]
        big = ~small
        if big.any():
            ob[..., big] = _jyh_big(l, zb[big], logb[big])
    out = out.reshape((3, 2) + z.shape)
    return out[0], out[1], out[2]


# ----------------------------------------------------------------------------
# scalar API on SpectralPoint
# ----------------------------------------------------------------------------

def bessel_jy(l: int, s: SpectralPoint) -> tuple[complex, complex, complex, complex]:
    """(J_l, Y_l, J_l', Y_l') at a point of the log cover."""
    if l < 0:
        raise DomainError("order must be a nonnegative integer")
    z = np.array([s.value])
    J, Y, _ = bessel_pair(l, z, np.array([s.log]))
    Jd, Yd = l / z * J[0] - J[1], l / z * Y[0] - Y[1]     # order-raising recurrence
    return complex(J[0, 0]), complex(Y[0, 0]), complex(Jd[0]), complex(Yd[0])


def hankel1(l: int, s: SpectralPoint) -> tuple[complex, complex]:
    """(H^(1)_l, d/ds H^(1)_l) at a point of the log cover."""
    if l < 0:
        raise DomainError("order must be a nonnegative integer")
    z = np.array([s.value])
    _, _, H = bessel_pair(l, z, np.array([s.log]))
    return complex(H[0, 0]), complex((l / z * H[0] - H[1])[0])
