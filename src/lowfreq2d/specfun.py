"""Bessel and Hankel functions with an explicit log branch.

Everything here is built so that the logarithm of the argument is carried
*explicitly* instead of being recomputed from a principal branch.  A point of
the logarithmic cover is a pair (modulus, arg) with unbounded real arg, so
continuation of J_l and H^(1)_l across sheets is just arithmetic on the
stored arg.  Those two are what every solver reads and all that is formed.
Power series are used for |z| <= 12, large-argument asymptotics beyond, and
the two branches are cross-checked by tests on the overlap ring.
Each branch runs one Horner recurrence over a cached table of stacked columns
(the series: J and psi sums of orders l, l + 1 of every order l asked for, in
q = -z^2/4; the asymptotics: even and odd parts of the Hankel sums of orders
0, 1 in u = 1/z^2, raised to every order by one recurrence).  Which
terms a point takes is read from its own |q| or |u| before the recurrence
starts, never by a test inside it, so its value does not depend on the points
evaluated with it.  A point whose log z is real (sheet 0, z > 0) runs either
branch in float64 (J stays float64 where all do), others in complex.

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


class SpectralBatch:
    """Points of the log cover, the one type every solver takes: float arrays
    of modulus and (unreduced) arg in the batch's shape.  A batch of shape ()
    is one point, and its modulus and arg are numpy scalars.  A modulus that
    is not positive raises DomainError.

    value = modulus * exp(i arg), lam2 = value * value and
    log = log(modulus) + i arg take the batch's shape, each by numpy's own
    array kernels: a point has the bits it has in any batch (so, alone, those
    of a batch of its own), and each is within a few ulps of the scalar
    formulas.  Indexing gives the batch of the points indexed (a point for an
    integer) with the parent's value, lam2 and log sliced, formed once on the
    parent and never validated or formed again.  len counts the points; a
    point takes only the index ().
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

    def __iter__(self):
        """The parts along the first axis, points for a 1-D batch; a point
        is not iterable, as a 0-d numpy array is not."""
        if not self.shape:
            raise TypeError("iteration over a single spectral point")
        return (self[i] for i in range(self.shape[0]))

    def __getitem__(self, idx) -> SpectralBatch:
        part = object.__new__(SpectralBatch)
        part.modulus, part.arg = self.modulus[idx], self.arg[idx]
        part.shape = np.shape(part.modulus)
        part.value, part.lam2, part.log = self.value[idx], self.lam2[idx], self.log[idx]
        return part

    # each formed on a (0-d for a point) array, so that a point takes the
    # array kernels it takes in a batch, not numpy's scalar arithmetic
    @cached_property
    def value(self):
        return (np.asarray(self.modulus) * np.exp(1j * np.asarray(self.arg)))[()]

    @cached_property
    def lam2(self):
        """value ** 2, with inf or nan where it leaves the float range."""
        with np.errstate(over="ignore", invalid="ignore"):
            return (np.asarray(self.value) * self.value)[()]

    @cached_property
    def log(self):
        return (np.log(np.asarray(self.modulus)) + 1j * np.asarray(self.arg))[()]


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
    the rows of reach -inf.  A masked row adds in place where a point takes
    it, so the work arrays stay O(P); before its top row a point's sum is a
    zero, and adding its first, nonzero coefficient leaves no trace of that
    zero's sign.  A float64 product is in place and the masks share one
    buffer; the complex product stays out of place: numpy may round an
    in-place complex multiply differently, by its loop layout.
    """
    acc = np.zeros(coef.shape[1:] + x.shape, dtype=np.result_type(coef, x))
    into = acc if acc.dtype == np.float64 else None
    base = len(coef)
    if reach is not None:
        with np.errstate(divide="ignore"):
            logx = np.log(np.abs(x))
        top = int(np.max(np.sum(reach <= np.fmax.reduce(logx), axis=0)))
        base = int(np.min(np.sum(reach <= np.fmin.reduce(logx), axis=0)))
        mask = np.empty(acc.shape, dtype=bool)
        for k in range(top - 1, base - 1, -1):
            acc = np.multiply(acc, x, out=into)
            np.less_equal(reach[k, ..., None], logx, out=mask)
            np.add(acc, coef[k, ..., None], out=acc, where=mask)
    for row in coef[:base, ..., None][::-1]:
        acc = np.multiply(acc, x, out=into)
        acc += row
    return acc


@lru_cache(maxsize=None)
def _series_order(m: int):
    """Ascending series of order m in q = -z^2/4 (DLMF 10.8): the c and d
    columns, Y's finite-part coefficients and the reach of the c column.

    J_m = (z/2)^m / m! sum_k c_k q^k with c_k = m!/(k!(k+m)!), the psi sum of
    Y_m has coefficients d_k = (psi(k+1) + psi(k+m+1)) c_k, both for
    k < SERIES_CAP, and Y_m's finite part (z/2)^{-m} sum_{k<m}
    ((m-1-k)!/k!) (-q)^k / pi has coefficients (m-1-k)!/k!.  The d column
    takes the reach of the c column.
    """
    k = np.arange(1, SERIES_CAP)
    psi = -EULER + np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, SERIES_CAP + m + 1))))
    c = np.cumprod(np.concatenate(([1.0], 1.0 / (k * (k + m)))))
    d = (psi[:SERIES_CAP] + psi[m:m + SERIES_CAP]) * c
    finite = np.array([math.factorial(m - 1 - j) / math.factorial(j) for j in range(m)])
    return c, d, finite, _reach(c)


@lru_cache(maxsize=None)
def _series_table(ls: tuple[int, ...], orders: tuple[int, ...] = (0, 1)):
    """The series of the orders l + o for o in orders of each l in ls: the
    distinct orders ms, the (K, 2, len(ms)) table of their c and d columns
    and its reaches, the finite parts of the nonzero orders of ms as one
    (max ms, n) table, each column zero-padded above its own top row, and
    the index that takes the (len(orders), len(ls)) grid of orders from ms
    (a view when that grid is ms itself, as for one l).

    Each column is _series_order's, so a column has the bits whatever the
    orders stacked with it.  Horner on the finite table enters a padded
    column at its own top row as on the column alone (acc * x + 0 is +0).
    """
    ms = sorted({l + o for l in ls for o in orders})
    cols = [_series_order(m) for m in ms]
    table = np.array([col[:2] for col in cols]).transpose(2, 1, 0)
    reach = np.array([col[3:] * 2 for col in cols]).transpose(2, 1, 0)
    nonzero = [col[2] for m, col in zip(ms, cols) if m]
    finite = np.zeros((max(map(len, nonzero), default=0), len(nonzero)))
    for j, f in enumerate(nonzero):
        finite[:len(f), j] = f
    grid = [[l + o for l in ls] for o in orders]
    index = (slice(None), None) if grid == [[m] for m in ms] else np.searchsorted(ms, grid)
    return ms, np.ascontiguousarray(table), np.ascontiguousarray(reach), finite, index


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

def _jh_series(ls: tuple[int, ...], z: np.ndarray, logz: np.ndarray,
               orders: tuple[int, ...] = (0, 1)):
    """(J, H^(1)), each (len(orders), len(ls), P): the orders l + o for o
    in orders of each l in ls by ascending series, each distinct order
    summed once, and H = J + iY; logz supplies the branch of log z, and J at
    a real z with a real log stays real.  The powers of z / 2 take one scalar
    exponent per order: numpy's power of an exponent array rounds them
    otherwise."""
    ms, table, reach, finite, index = _series_table(ls, orders)
    q = -0.25 * z * z
    sums = _horner(table, q, reach)
    # numpy's complex powers and division by pi (a product with 1/pi) for a
    # real z too, so that it gets the bits it gets as a complex number
    half, part = (0.5 * z).astype(complex), np.real if np.isrealobj(z) else np.asarray
    half_pow = np.stack([part(half ** m) * (1.0 / math.factorial(m)) for m in ms])
    fin = np.zeros((len(ms),) + q.shape, dtype=q.dtype)        # none at order 0
    if finite.size:
        fin[len(ms) - finite.shape[1]:] = (np.stack([part(half ** -m) for m in ms if m])
                                           * _horner(finite, -q) * (1 / math.pi))
    J = half_pow * sums[0]
    Y = (2.0 / math.pi) * (logz - LOG2) * J - fin - half_pow * sums[1] * (1 / math.pi)
    return J[index], (J + 1j * Y)[index]


# ----------------------------------------------------------------------------
# asymptotic branch (|z| > SERIES_RADIUS)
# ----------------------------------------------------------------------------

def _hankel_sums(z: np.ndarray, orders: tuple[int, ...] = (0, 1)):
    """sqrt(2/(pi z)), w = 1/z and the sums (P, Q) by order, (2, len(orders), P), at u = w^2."""
    table, reach = _asym_table(orders)
    w = 1.0 / z
    return np.sqrt(2.0 / (math.pi * z)), w, _horner(table, w * w, reach)


def _raise_orders(ls: tuple[int, ...], z: np.ndarray, f: np.ndarray,
                  orders: tuple[int, ...]) -> np.ndarray:
    """The orders l + o for o in orders of each l in ls, on the axes
    (-3, -2) of the result (len(orders), len(ls)), from orders 0 and 1 on
    axis -2 of f (J and Y on the real axis, J and H off it) by one upward
    recurrence (DLMF 10.6.1), stable for each of them as long as the order
    stays below ~|z| (oscillatory regime);
    callers switch to the series otherwise.  Order l + o takes the steps
    n = 1 .. l that it takes alone."""
    at = {}
    for n in range(max(ls) + 1):
        if n:
            f = np.stack((f[..., 1, :], (2.0 * n / z) * f[..., 1, :] - f[..., 0, :]), axis=-2)
        if n in ls:
            at[n] = f[..., :len(orders), :]          # orders is (0,) or (0, 1)
    if len(ls) == 1:
        return at[ls[0]][..., None, :]
    return np.stack([at[l] for l in ls], axis=-2)


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


def _jh_big(ls: tuple[int, ...], z: np.ndarray, logz: np.ndarray,
            orders: tuple[int, ...] = (0, 1)):
    """(J, H^(1)), each (len(orders), len(ls), P): the orders l + o for o
    in orders of each l in ls, for |z| > SERIES_RADIUS.

    The sums at orders 0 and 1 serve every order through one recurrence.  A
    real z stays real, J = f (P cos omega - w Q sin omega) and
    Y = f (P sin omega + w Q cos omega) for f = sqrt(2/(pi z)), w = 1/z, and
    H = J + iY has no cancellation on the real axis; at ls = (0,) it sums
    only the orders asked for.  Any other point is reduced to the principal
    sheet, and H^(1) is formed directly from the window values, avoiding the
    J + iY cancellation, and raised with J.
    """
    if not np.iscomplexobj(z):
        cols = orders if ls == (0,) else (0, 1)
        front, w, sums = _hankel_sums(z, cols)
        cos, sin = np.cos(z - math.pi / 4.0), np.sin(z - math.pi / 4.0)
        rot = ((cos, sin), (sin, -cos))         # omega_1 = omega_0 - pi/2
        cos, sin = (np.stack([rot[o][i] for o in cols]) for i in (0, 1))
        wq = w * sums[1]
        f = front * np.stack((sums[0] * cos - wq * sin, sums[0] * sin + wq * cos))
        J, Y = _raise_orders(ls, z, f, orders)
        return J, J + 1j * Y
    arg = np.imag(logz)
    k = np.round(arg / (2.0 * math.pi) - 1e-12 * np.sign(arg))     # the sheet
    zp = np.abs(z) * np.exp(1j * (arg - 2.0 * math.pi * k))
    h1, h2 = _h12_window(zp)
    J = 0.5 * (h1 + h2)
    return tuple(_raise_orders(ls, zp, np.stack((J, h1 - 4.0 * k * J)), orders))


# ----------------------------------------------------------------------------
# branch dispatch on the log cover (vectorized core)
# ----------------------------------------------------------------------------

def bessel_pair(l, z: np.ndarray, logz: np.ndarray, slot: int | None = None):
    """(J, H^(1)) on the log cover, the pair every solver reads: orders
    l, l + 1 for l an int, each of shape (2, *z.shape), or for each l of a
    1-D array of orders, each of shape (2, len(l), *z.shape).

    Each (order, point) pair takes the branch of its order l + 1 (series
    for |z| <= SERIES_RADIUS or l + 1 > 0.75|z|, asymptotics beyond), so one
    dispatch and one sheet reduction serve all four functions of a pair, and
    the upward recurrence never runs past the order its branch was chosen
    for.  z does not depend on the order: |z|, the routing and the sheet
    reduction are formed once per call, the series columns of every order
    are summed in one recurrence, and the asymptotic branch takes every
    order from one upward recurrence.  A point whose own log z is real
    (sheet 0, z > 0) goes through either branch in float64, and where every
    point's is, J is float64 (H complex).  A branch evaluates every
    order at the points that any order routes to it and keeps the pairs
    routed there, and one that takes every point returns its own arrays; the
    work arrays are O(orders x P).  Each pair has the bits of a call for its
    order alone, and each point those of its own call.

    slot = 0 evaluates order l alone, of shape np.shape(l) + z.shape and bit
    for bit order l of the pair: the same routing, and only that order's
    series columns (or, at l = 0, its asymptotic sums).  That is what the
    values of a solution need; their derivatives take the pair.
    """
    orders = {None: (0, 1), 0: (0,)}[slot]
    ls = tuple(np.ravel(l).tolist())
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    logz = np.atleast_1d(np.asarray(logz, dtype=complex))
    zf, logf = z.reshape(-1), logz.reshape(-1)
    absz, real = np.abs(zf), logf.imag == 0
    # a point's branch can only turn from asymptotic to series as the order
    # rises, so the series serves the points of the highest order's series
    # and the asymptotics those of the lowest order's asymptotics
    lo, hi = min(ls), max(ls)
    small = (absz <= SERIES_RADIUS) | (lo + 1 > 0.75 * absz)
    top = small if hi == lo else (absz <= SERIES_RADIUS) | (hi + 1 > 0.75 * absz)
    each = None         # the routing of each order, where the orders route a point apart
    if hi != lo and (top != small).any():
        each = (absz <= SERIES_RADIUS) | (np.array(ls)[:, None] + 1 > 0.75 * absz)
    branches = ((top, _jh_series, each), (~small, _jh_big, None if each is None else ~each))
    runs = [(pts & union, fn, mine, zs, logs)
            for pts, zs, logs in ((real, zf.real, logf.real), (~real, zf, logf))
            for union, fn, mine in branches if (pts & union).any()]
    if len(runs) == 1:          # every order routes every point to one branch
        _, fn, _, zs, logs = runs[0]
        fs = fn(ls, zs, logs, orders)
    else:
        fs = [np.empty((len(orders), len(ls), z.size), dtype=t)
              for t in (float if real.all() else complex, complex)]
        for sel, fn, mine, zs, logs in runs:
            idx = slice(None) if sel.all() else np.flatnonzero(sel)
            part = fn(ls, zs[idx], logs[idx], orders)
            if mine is None:
                for o, f in zip(fs, part):
                    o[..., idx] = f
            else:
                keep = mine & sel
                for o, f in zip(fs, part):
                    o[:, keep] = f[:, keep[:, idx]]
    shape = (len(orders),) + np.shape(l) + z.shape
    return tuple(f.reshape(shape)[0] if slot is not None else f.reshape(shape) for f in fs)
