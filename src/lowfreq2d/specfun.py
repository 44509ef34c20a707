"""Bessel and Hankel functions with an explicit log branch.

Everything here is built so that the logarithm of the argument is carried
*explicitly* instead of being recomputed from a principal branch.  A point of
the logarithmic cover is a pair (modulus, arg) with unbounded real arg, so
continuation of H^(1)_0, Y_l, etc. across sheets is just arithmetic on the
stored arg.  Power series are used for |z| <= 12, large-argument asymptotics
beyond, and the two branches are cross-checked by tests on the overlap ring.

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

#: gamma0 = log 2 - euler + i pi/2; the m-th constant adds the harmonic number H_m.
GAMMA0 = complex(LOG2 - EULER, math.pi / 2.0)

SERIES_RADIUS = 12.0  # |z| crossover between power series and asymptotics
SERIES_CAP = 80       # hard cap on series terms
SERIES_EPS = 1e-17    # term/partial-sum stopping ratio
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


@lru_cache(maxsize=None)
def _harmonic(n: int) -> float:
    return 0.0 if n == 0 else _harmonic(n - 1) + 1.0 / n


def _digamma_int(n: int) -> float:
    """psi(n) for integer n >= 1."""
    return -EULER + _harmonic(n - 1)


# ----------------------------------------------------------------------------
# power-series branch (|z| <= SERIES_RADIUS)
# ----------------------------------------------------------------------------

def _jy_series(l: int, z: np.ndarray, logz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_l and Y_l by ascending series; logz supplies the branch of log z."""
    z = np.asarray(z, dtype=complex)
    logz = np.asarray(logz, dtype=complex)
    q = -0.25 * z * z
    term = np.ones_like(z)           # q^k / (k! (k+l)!) * l!-normalization below
    fact_shift = 1.0 / math.factorial(l)
    jsum = term.copy()
    psum = (_digamma_int(1) + _digamma_int(l + 1)) * term
    for k in range(1, SERIES_CAP):
        term = term * q / (k * (k + l))
        jsum = jsum + term
        psum = psum + (_digamma_int(k + 1) + _digamma_int(l + k + 1)) * term
        if np.max(np.abs(term)) <= SERIES_EPS * max(np.max(np.abs(jsum)), 1e-300):
            break
    half_pow = (0.5 * z) ** l * fact_shift
    J = half_pow * jsum
    finite = np.zeros_like(z)
    if l >= 1:
        # (z/2)^{-l} sum_{k<l} ((l-1-k)!/k!) (z^2/4)^k; consecutive summands
        # differ by (z^2/4)/((k+1)(l-1-k)), and -q = z^2/4.
        acc = np.zeros_like(z)
        t = np.full_like(z, float(math.factorial(l - 1)))
        for k in range(l):
            acc = acc + t
            if k + 1 < l:
                t = t * (-q) / ((k + 1) * (l - 1 - k))
        finite = (0.5 * z) ** (-l) * acc / math.pi
    logfac = logz - LOG2          # log(z/2) on the cover
    Y = (2.0 / math.pi) * logfac * J - finite - half_pow * psum / math.pi
    return J, Y


# ----------------------------------------------------------------------------
# asymptotic branch (|z| > SERIES_RADIUS), principal sheet
# ----------------------------------------------------------------------------

def _hankel_pm_asym(l: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H^(1)_l and H^(2)_l on the principal sheet by the large-argument expansion."""
    z = np.asarray(z, dtype=complex)
    mu = 4.0 * l * l
    splus = np.ones_like(z)
    sminus = np.ones_like(z)
    term = np.ones_like(z)
    prev = np.full(z.shape, np.inf)
    frozen = np.zeros(z.shape, dtype=bool)
    for k in range(1, 40):
        factor = (mu - (2 * k - 1) ** 2) / (8.0 * k)
        term = term * (1j * factor) / z      # the H^(2) term is (-1)^k times this
        mag = np.abs(term)
        frozen |= mag > prev
        keep = ~frozen
        add = np.where(keep, term, 0.0)
        splus += add
        if k % 2:
            sminus -= add
        else:
            sminus += add
        np.copyto(prev, mag, where=keep)
        if frozen.all() or np.max(mag, where=keep, initial=0.0) < SERIES_EPS:
            break
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
    h1 = np.empty_like(zp)
    h2 = np.empty_like(zp)
    mid = np.abs(theta) <= math.pi / 2.0
    if mid.any():
        h1[mid], h2[mid] = _hankel_pm_asym(l, zp[mid])
    up = theta > math.pi / 2.0
    if up.any():
        a1, a2 = _hankel_pm_asym(l, zp[up] * np.exp(-1j * math.pi))
        h1[up] = -sign * a2
        h2[up] = sign * (a1 + 2.0 * a2)
    dn = theta < -math.pi / 2.0
    if dn.any():
        a1, a2 = _hankel_pm_asym(l, zp[dn] * np.exp(1j * math.pi))
        h1[dn] = sign * (2.0 * a1 + a2)
        h2[dn] = -sign * a1
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


def hankel1_arrays(l: int, z: np.ndarray, logz: np.ndarray) -> np.ndarray:
    """H^(1)_l on the log cover; avoids J + iY cancellation for large |z|."""
    return bessel_pair(l, z, logz)[2][0]


# ----------------------------------------------------------------------------
# scalar API on SpectralPoint
# ----------------------------------------------------------------------------

def hankel0(s: SpectralPoint) -> complex:
    """H^(1)_0 at a point of the log cover.

    For |s| <= 12 this is the low-argument series
        (2i/pi) sum_m (log s - gamma_m) (-s^2/4)^m / (m!)^2,
    summed pairwise and truncated when a term drops below 1e-17 of the
    partial sum (cap 80 terms); beyond, the large-argument expansion.
    """
    if s.modulus > SERIES_RADIUS:
        return complex(hankel1_arrays(0, np.array([s.value]), np.array([s.log]))[0])
    logs = s.log
    q = -0.25 * s.value * s.value
    gamma_m = GAMMA0
    coeff = 1.0 + 0.0j            # (-s^2/4)^m / (m!)^2
    terms = [(logs - gamma_m) * coeff]
    partial = terms[0]
    for m in range(1, SERIES_CAP):
        gamma_m = gamma_m + 1.0 / m
        coeff = coeff * q / (m * m)
        t = (logs - gamma_m) * coeff
        terms.append(t)
        partial = partial + t
        if abs(t) <= SERIES_EPS * abs(partial):
            break
    total = np.sum(np.array(terms))   # pairwise summation
    return complex(2j / math.pi * total)


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
