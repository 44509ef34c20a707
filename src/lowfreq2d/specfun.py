"""Bessel and Hankel functions with an explicit log branch.

Everything here is built so that the logarithm of the argument is carried
*explicitly* instead of being recomputed from a principal branch.  A point of
the logarithmic cover is a pair (modulus, arg) with unbounded real arg, so
continuation of H^(1)_0, Y_l, etc. across sheets is just arithmetic on the
stored arg.  Power series are used for |z| <= 12, large-argument asymptotics
beyond, and the two branches are cross-checked by tests on the overlap ring.
Each branch runs one Horner recurrence over a cached table of stacked columns
(the series: J and psi sums of orders l, l + 1 in q = -z^2/4; the asymptotics:
even and odd parts of the Hankel sums of orders 0, 1 in u = 1/z^2).  Which
terms a point takes is read from its own |q| or |u| before the recurrence
starts, never by a test inside it, so its value does not depend on the points
evaluated with it.  A point whose log z is real (sheet 0, z > 0) runs either
branch in float64, any other point in complex arithmetic.

All functions are pure; inputs are value types, so concurrent use is safe.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError

EULER = 0.5772156649015328606
LOG2 = math.log(2.0)

#: gamma0 = log 2 - euler + i pi/2, so that H^(1)_0(s) ~ (2i/pi)(log s - gamma0) as s -> 0.
GAMMA0 = complex(LOG2 - EULER, math.pi / 2.0)

SERIES_RADIUS = 12.0  # |z| crossover between power series and asymptotics
SERIES_CAP = 80       # length of the coefficient tables
SERIES_EPS = 1e-17    # terms below this are not summed (the J and P sums start at 1)


def _from_parts(re, im):
    """The complex array re + i im, each part kept as given, signed zeros too;
    a numpy scalar when re is one."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out[()]


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b with each real product rounded on its own, as in scalar complex
    arithmetic; numpy's vector loop fuses multiply-adds instead.  The 2x2
    glue of radialsolve is tiny, and ill-conditioned fits downstream amplify
    its last bit, so it keeps the scalar rounding for any batch size."""
    return _from_parts(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


class SpectralBatch:
    """Points of the log cover, the one type every solver takes: float arrays
    of modulus and (unreduced) arg in the batch's shape.  A batch of shape ()
    is one point, and its modulus and arg are numpy scalars.  A modulus that
    is not positive raises DomainError.

    value, lam2 = value ** 2 and log take the batch's shape, and each element
    has the bits of Python's scalar formulas m * complex(cos a, sin a), its
    square and complex(math.log m, a): cos, sin and the real products round
    as in math and Python's complex multiply, lam2 takes _mul's split
    products, and log takes math.log per modulus (np.log differs in about
    0.1% of them).  Indexing gives the batch of the points indexed (a point
    for an integer) with the parent's value, lam2 and log sliced, formed
    once on the parent and never validated or formed again.  len counts the
    points; a point takes only the index ().
    """

    def __init__(self, modulus, arg):
        modulus, arg = np.broadcast_arrays(np.asarray(modulus, dtype=float),
                                           np.asarray(arg, dtype=float))
        ok = modulus > 0.0
        if not ok.all():
            raise DomainError(f"modulus must be positive, got {float(modulus[~ok][0])}")
        self.shape = modulus.shape
        # own contiguous copies: the caller's arrays may change, and a broadcast one has stride 0
        self.modulus, self.arg = modulus.copy()[()], arg.copy()[()]

    def __len__(self) -> int:
        return self.modulus.size

    def __getitem__(self, idx) -> SpectralBatch:
        part = object.__new__(SpectralBatch)
        part.modulus, part.arg = self.modulus[idx], self.arg[idx]
        part.shape = np.shape(part.modulus)
        part.value, part.lam2, part.log = self.value[idx], self.lam2[idx], self.log[idx]
        return part

    @cached_property
    def value(self):
        # the products by 0 are the ones Python's float * complex takes
        cos, sin = np.cos(self.arg), np.sin(self.arg)
        return _from_parts(self.modulus * cos - 0.0 * sin, self.modulus * sin + 0.0 * cos)

    @cached_property
    def lam2(self):
        """value ** 2, with inf or nan where it leaves the float range."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _mul(self.value, self.value)

    @cached_property
    def log(self):
        logm = [math.log(m) for m in np.ravel(self.modulus).tolist()]
        return _from_parts(np.reshape(logm, self.shape), self.arg)


# ----------------------------------------------------------------------------
# Horner sums over stacked coefficient tables, each row from its own |x|
# ----------------------------------------------------------------------------

def _reach(coef: np.ndarray) -> np.ndarray:
    """log|x| from which the terms of sum_k coef[k] x^k are summed: -inf for
    the first, then each term's log|x| of |coef[k] x^k| = SERIES_EPS, sorted.

    Each table's terms rise to one peak and then fall (the asymptotic tables
    are cut where they would grow again), so the terms at or above SERIES_EPS
    are a leading run, and with the reaches sorted, row k is summed exactly
    when reach[k] <= log|x|.
    """
    k = np.arange(1, coef.size)
    reach = np.sort((math.log(SERIES_EPS) - np.log(np.abs(coef[1:]))) / k)
    return np.concatenate(([-np.inf], reach))


def _horner(coef: np.ndarray, x: np.ndarray, reach: np.ndarray | None = None) -> np.ndarray:
    """sum_k coef[k] x^k over the rows with reach[k] <= log|x| (every row
    without reach) for each column of a (K, ...) table, by one Horner
    recurrence; reach has coef's shape, and the sums are (..., P).

    The rows a point does not take are zero for it, so it enters the
    recurrence exactly at its own top term and its sum is the one it gets
    alone, whatever the other points.  A point where x underflows to 0 takes
    the rows of reach -inf.  Masked rows are formed one at a time, so the
    work arrays stay O(P).  The complex product stays out of place: numpy
    may round an in-place complex multiply differently, by its loop layout.
    """
    acc = np.zeros(coef.shape[1:] + x.shape, dtype=np.result_type(coef, x))
    base = len(coef)
    if reach is not None:
        with np.errstate(divide="ignore"):
            logx = np.log(np.abs(x))
        top = int(np.max(np.sum(reach <= np.fmax.reduce(logx), axis=0)))
        base = int(np.min(np.sum(reach <= np.fmin.reduce(logx), axis=0)))
        for k in range(top - 1, base - 1, -1):
            acc = acc * x
            acc += np.where(reach[k, ..., None] <= logx, coef[k, ..., None], 0.0)
    for row in coef[:base, ..., None][::-1]:
        acc = acc * x
        acc += row
    return acc


@lru_cache(maxsize=None)
def _series_table(l: int, orders: tuple[int, ...] = (0, 1)):
    """Ascending series in q = -z^2/4 (DLMF 10.8) at the orders l + o for o
    in orders: the (K, 2, len(orders)) table of c and d columns by order,
    their reaches, and Y's finite parts, which are summed whole.

    At order m, J_m = (z/2)^m / m! sum_k c_k q^k with c_k = m!/(k!(k+m)!), the
    psi sum of Y_m has coefficients d_k = (psi(k+1) + psi(k+m+1)) c_k, both
    for k < SERIES_CAP, and Y_m's finite part (z/2)^{-m} sum_{k<m}
    ((m-1-k)!/k!) (-q)^k / pi has coefficients (m-1-k)!/k!.  The d columns
    take the reaches of the c columns.  Each order's columns are built on
    their own, so a one-order table holds that order's columns of the pair's.
    """
    k = np.arange(1, SERIES_CAP)
    ms = [l + o for o in orders]
    psi = -EULER + np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, SERIES_CAP + l + 1))))
    c = [np.cumprod(np.concatenate(([1.0], 1.0 / (k * (k + m))))) for m in ms]
    d = [(psi[:SERIES_CAP] + psi[m:m + SERIES_CAP]) * cm for m, cm in zip(ms, c)]
    finite = [np.array([math.factorial(m - 1 - j) / math.factorial(j) for j in range(m)])
              for m in ms]
    table = np.stack((np.stack(c, axis=1), np.stack(d, axis=1)), axis=1)
    reach = np.broadcast_to(np.stack([_reach(cm) for cm in c], axis=1)[:, None], table.shape)
    return table, reach, finite


@lru_cache(maxsize=None)
def _asym_table(orders: tuple[int, ...] = (0, 1)):
    """The Hankel expansion at the orders in orders (0 and 1 by default) in
    u = 1/z^2 (DLMF 10.17.1): the (K, 2, len(orders)) table of P and Q
    columns by order, zero-padded, and their reaches in log|u| (+inf for the
    padding).

    With w = 1/z, sum_k i^k a_k(l) w^k = P_l(u) + i w Q_l(u) for
    P_l = sum_j (-1)^j a_2j(l) u^j and Q_l = sum_j (-1)^j a_2j+1(l) u^j, and
    the H^(2) sum is P_l - i w Q_l; a row takes the reach of its term in w.
    Each order's a_k are cut at their optimal truncation for
    |z| = SERIES_RADIUS, the smallest modulus the branch serves.  Beyond that
    radius the terms decrease throughout, so each point sums its run of terms
    above SERIES_EPS; on |arg z| <= pi/2, which _h12_window ensures,
    DLMF 10.17(iii) bounds the truncation error by a modest multiple of the
    first neglected term.
    """
    k = np.arange(1, SERIES_CAP)
    table = np.zeros((SERIES_CAP, 2, len(orders)))
    reach = np.full((SERIES_CAP, 2, len(orders)), np.inf)
    for i, l in enumerate(orders):
        full = np.cumprod(np.concatenate(([1.0], 1j * (4.0 * l * l - (2 * k - 1) ** 2) / (8 * k))))
        mags = np.abs(full) / SERIES_RADIUS ** np.arange(SERIES_CAP)
        full = full[:1 + int(np.argmax(mags[1:] > mags[:-1]))]      # i^k a_k(l)
        for kind, rows in enumerate((full[0::2].real, full[1::2].imag)):     # P, Q
            table[:rows.size, kind, i] = rows
            reach[:rows.size, kind, i] = 2.0 * _reach(full)[kind::2]
    return table, reach


# ----------------------------------------------------------------------------
# power-series branch (|z| <= SERIES_RADIUS)
# ----------------------------------------------------------------------------

def _jyh_series(l: int, z: np.ndarray, logz: np.ndarray, orders: tuple[int, ...] = (0, 1)):
    """(J, Y, H^(1)), each (len(orders), P): the orders l + o for o in orders
    by ascending series; logz supplies the branch of log z, and a real z with
    a real log stays real."""
    table, reach, finite = _series_table(l, orders)
    ms = [l + o for o in orders]
    q = -0.25 * z * z
    sums = _horner(table, q, reach)
    # numpy's complex powers and division by pi (a product with 1/pi) for a
    # real z too, so that it gets the bits it gets as a complex number
    half, part = (0.5 * z).astype(complex), np.real if np.isrealobj(z) else np.asarray
    half_pow = np.stack([part(half ** m) * (1.0 / math.factorial(m)) for m in ms])
    fin = np.stack([part(half ** -m) * _horner(f, -q) * (1 / math.pi) if m
                    else np.zeros_like(q) for m, f in zip(ms, finite)])
    J = half_pow * sums[0]
    Y = (2.0 / math.pi) * (logz - LOG2) * J - fin - half_pow * sums[1] * (1 / math.pi)
    return J, Y, J + 1j * Y


# ----------------------------------------------------------------------------
# asymptotic branch (|z| > SERIES_RADIUS)
# ----------------------------------------------------------------------------

def _hankel_sums(z: np.ndarray, orders: tuple[int, ...] = (0, 1)):
    """sqrt(2/(pi z)), w = 1/z and the sums (P, Q) by order, (2, len(orders), P), at u = w^2."""
    table, reach = _asym_table(orders)
    w = 1.0 / z
    return np.sqrt(2.0 / (math.pi * z)), w, _horner(table, w * w, reach)


def _raise_order(l: int, z: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Orders l and l + 1 from orders 0 and 1 (axis -2 of f) by the upward
    recurrence, stable for J, Y and H together as long as l stays below ~|z|
    (oscillatory regime); callers switch to the series otherwise."""
    for n in range(1, l + 1):
        f = np.stack((f[..., 1, :], (2.0 * n / z) * f[..., 1, :] - f[..., 0, :]), axis=-2)
    return f


def _h12_window(zp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H^(1) and H^(2) at orders 0, 1, each (2, P), on the principal window, |z| large.

    The raw expansion loses accuracy near arg = +-pi, so for |arg| > pi/2 the
    argument is rotated by a half turn (where the expansion is clean) and the
    exact connection formulas
        H1(z e^{+ipi}) = -(-1)^l H2(z),   H2(z e^{+ipi}) = (-1)^l (H1(z) + 2 H2(z)),
        H1(z e^{-ipi}) = (-1)^l (2 H1(z) + H2(z)),   H2(z e^{-ipi}) = -(-1)^l H1(z),
    are applied; the exponentially small member is always computed directly,
    so there is no cancellation.
    """
    theta = np.angle(zp)
    up = theta > math.pi / 2.0
    dn = theta < -math.pi / 2.0
    zr = zp.copy()
    zr[up] *= np.exp(-1j * math.pi)
    zr[dn] *= np.exp(1j * math.pi)
    front, w, sums = _hankel_sums(zr)
    omega = zr - math.pi / 4.0
    turn = np.array([[1.0], [-1j]])     # e^{i omega_l} / e^{i omega_0}: omega_1 = omega_0 - pi/2
    iwq = 1j * w * sums[1]
    a1 = front * (turn * np.exp(1j * omega)) * (sums[0] + iwq)
    a2 = front * (turn.conj() * np.exp(-1j * omega)) * (sums[0] - iwq)
    sign = np.array([[1.0], [-1.0]])    # (-1)^l
    h1, h2 = a1.copy(), a2.copy()
    h1[:, up], h2[:, up] = -sign * a2[:, up], sign * (a1[:, up] + 2.0 * a2[:, up])
    h1[:, dn], h2[:, dn] = sign * (2.0 * a1[:, dn] + a2[:, dn]), -sign * a1[:, dn]
    return h1, h2


def _jyh_big(l: int, z: np.ndarray, logz: np.ndarray, orders: tuple[int, ...] = (0, 1)):
    """(J, Y, H^(1)), each (len(orders), P): the orders l + o for o in orders,
    for |z| > SERIES_RADIUS.

    The sums at orders 0 and 1 serve every order through the recurrence.  A
    real z stays real, J = f (P cos omega - w Q sin omega) and
    Y = f (P sin omega + w Q cos omega) for f = sqrt(2/(pi z)), w = 1/z, and
    H = J + iY has no cancellation on the real axis; at l = 0 it sums only
    the orders asked for.  Any other point is reduced to the principal
    sheet, and H^(1) is formed directly from the window values, avoiding the
    J + iY cancellation.
    """
    if not np.iscomplexobj(z):
        cols = orders if l == 0 else (0, 1)
        front, w, sums = _hankel_sums(z, cols)
        cos, sin = np.cos(z - math.pi / 4.0), np.sin(z - math.pi / 4.0)
        rot = ((cos, sin), (sin, -cos))         # omega_1 = omega_0 - pi/2
        cos, sin = (np.stack([rot[o][i] for o in cols]) for i in (0, 1))
        wq = w * sums[1]
        f = front * np.stack((sums[0] * cos - wq * sin, sums[0] * sin + wq * cos))
        J, Y = f if l == 0 else _raise_order(l, z, f)[:, orders, :]
        return J, Y, J + 1j * Y
    arg = np.imag(logz)
    k = np.round(arg / (2.0 * math.pi) - 1e-12 * np.sign(arg))     # the sheet
    zp = np.abs(z) * np.exp(1j * (arg - 2.0 * math.pi * k))
    h1, h2 = _h12_window(zp)
    J = 0.5 * (h1 + h2)
    f = _raise_order(l, zp, np.stack((J, (h1 - h2) / 2j + 4j * k * J, h1 - 4.0 * k * J)))
    return tuple(f[:, orders, :])


# ----------------------------------------------------------------------------
# branch dispatch on the log cover (vectorized core)
# ----------------------------------------------------------------------------

def bessel_pair(l: int, z: np.ndarray, logz: np.ndarray, slot: int | None = None):
    """(J, Y, H) on the log cover, each of shape (2, *z.shape): orders l, l + 1.

    Both orders take the branch of order l + 1 (series for |z| <=
    SERIES_RADIUS or l + 1 > 0.75|z|, asymptotics beyond), so one dispatch
    and one sheet reduction serve all six functions, and the upward
    recurrence never runs past the order its branch was chosen for.  A point
    whose own log z is real (sheet 0, z > 0) goes through either branch in
    float64.  Each call routes its points once; a route that takes every
    point runs on the call's own arrays, and the work arrays are O(P).

    slot = 0 evaluates order l alone, each of shape z.shape and bit for bit
    order l of the pair: the same routing, and only that order's series
    columns (or, at l = 0, its asymptotic sums).  That is what the values
    of a solution need; their derivatives take the pair.
    """
    orders = {None: (0, 1), 0: (0,)}[slot]
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    logz = np.atleast_1d(np.asarray(logz, dtype=complex))
    out = np.empty((3, len(orders), z.size), dtype=complex)
    zf, logf = z.reshape(-1), logz.reshape(-1)
    absz, real = np.abs(zf), logf.imag == 0
    small = (absz <= SERIES_RADIUS) | (l + 1 > 0.75 * absz)
    for pts, zs, logs in ((real, zf.real, logf.real), (~real, zf, logf)):
        for branch, fn in ((small, _jyh_series), (~small, _jyh_big)):
            sel = pts & branch
            if sel.any():
                idx = slice(None) if sel.all() else np.flatnonzero(sel)
                for o, f in zip(out, fn(l, zs[idx], logs[idx], orders)):
                    o[:, idx] = f
    out = out.reshape((3, len(orders)) + z.shape)
    if slot is not None:
        out = out[:, 0]
    return out[0], out[1], out[2]
