"""Independent numerical oracles used by the tests.

Nothing here imports the package's special-function or pairing code paths it
is checking: the Bessel oracle is its own ascending series, validated in the
tests by the classical Wronskian identity, and the circle pairing is a plain
trapezoid rule in the angle.
"""

from __future__ import annotations

import math

import numpy as np

EULER_ORACLE = 0.57721566490153286


def j0_series(x, terms: int = 60):
    """J0 by its ascending series with a fixed term count; x is a number or a
    (complex) numpy array, and 60 terms reach double precision for |x| <= 12."""
    q = -0.25 * np.asarray(x) ** 2
    total = np.ones_like(q)
    term = np.ones_like(q)
    for m in range(1, terms):
        term = term * q / (m * m)
        total = total + term
    return total[()]


def y0_series(x, terms: int = 60):
    """Y0 by its ascending series, with the principal log."""
    x = np.asarray(x)
    q = -0.25 * x**2
    total = np.zeros_like(q)
    term = np.ones_like(q)
    h = 0.0
    for m in range(1, terms):
        term = term * q / (m * m)
        h += 1.0 / m
        total = total + term * h
    return (2.0 / math.pi * ((np.log(x / 2.0) + EULER_ORACLE) * j0_series(x, terms) - total))[()]


def j0_prime(x: float, h: float = 1e-6) -> float:
    return (j0_series(x + h) - j0_series(x - h)) / (2.0 * h)


def y0_prime(x: float, h: float = 1e-6) -> float:
    return (y0_series(x + h) - y0_series(x - h)) / (2.0 * h)


def circle_pairing(u_val, u_der, v_val, v_der, r1: float, mode_u: int, mode_v: int,
                   trig_u: str = "cos", trig_v: str = "cos", ntheta: int = 720) -> complex:
    """Trapezoid quadrature of the circle Wronskian pairing at radius r1.

    u(x) = u_val * e(theta), etc.; returns
    integral over the circle of (u dv*/dr - du/dr v*).
    """
    th = np.linspace(0.0, 2.0 * math.pi, ntheta, endpoint=False)

    def ang(mode, trig):
        if mode == 0:
            return np.ones_like(th)
        return np.cos(mode * th) if trig == "cos" else np.sin(mode * th)

    eu = ang(mode_u, trig_u)
    ev = ang(mode_v, trig_v)
    integrand = (u_val * eu) * np.conj(v_der * ev) - (u_der * eu) * np.conj(v_val * ev)
    return complex(np.sum(integrand) * (2.0 * math.pi / ntheta) * r1)


def born_phase_shift_mode0(depth: float, radius: float, lam: float,
                           n: int = 400) -> float:
    """First Born approximation: delta_0 ~ -(pi/2) integral V J_0(lam r)^2 r dr."""
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(n)
    r = 0.5 * radius * (x + 1.0)
    wr = 0.5 * radius * w
    integrand = depth * np.array([j0_series(lam * rr) for rr in r]) ** 2 * r
    return float(-(math.pi / 2.0) * np.sum(wr * integrand))
