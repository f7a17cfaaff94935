"""Heat kernel on the hyperbolic upper half-plane, real and complex time.

For positive distance the kernel is

    K(t, d) = sqrt(2) e^{-t/4} / (4 pi t)^{3/2}
              * int_d^inf u e^{-u^2/4t} / sqrt(cosh u - cosh d) du,

and on the diagonal

    K(t, 0) = (1/2pi) int_0^inf e^{-(1/4 + r^2) t} tanh(pi r) r dr.

At real time the diagonal is a closed form, an alternating erfcx series
summed by the Cohen-Rodriguez Villegas-Zagier acceleration (see
heat_kernel_h); it makes no quadrature call.  The integral forms serve d > 0
and complex time.  The u-integral carries an inverse-square-root singularity
at u = d; the substitution u = d + v^2 removes it.  Complex time z = t + i s
with t > 0 uses the same u-integral with complex weight (principal branch of
z^{3/2}); on the diagonal the r-integral extends analytically in t and is
used instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

from .errors import DomainError
from .special_fn import integrate_semi_infinite

__all__ = ["ComplexTime", "heat_kernel_h", "heat_kernel_h_complex"]


@dataclass(frozen=True)
class ComplexTime:
    """Complex time z = t + i*s with positive real part t."""

    t: float
    s: float = 0.0

    def __post_init__(self):
        if not self.t > 0:
            raise DomainError(f"complex time requires Re(z) = t > 0, got {self.t}")

    @property
    def z(self) -> complex:
        return complex(self.t, self.s)

    @property
    def tau(self) -> float:
        """|z|^2 / t, the real time entering the modulus bound."""
        return (self.t * self.t + self.s * self.s) / self.t


def _diagonal_kernel(z: complex, tol: float) -> complex:
    # r = x / sqrt(t) puts the integral on an O(1) scale, so the absolute
    # quadrature tolerance acts as a relative one even as the kernel grows
    # like 1/(4 pi t) for small t.
    t = z.real
    rt = math.sqrt(t)

    def integrand(x: np.ndarray):
        return np.exp(-(x * x) * (z / t)) * np.tanh(np.pi * x / rt) * x

    res = integrate_semi_infinite(integrand, decay=1.0, tol=tol)
    return np.exp(-0.25 * z) * res.value / (2.0 * math.pi * t)


def _crvz_weights(n: int) -> np.ndarray:
    """The weights c_k/d, k < n, of Cohen-Rodriguez Villegas-Zagier
    Algorithm 1 ("Convergence acceleration of alternating series",
    Experimental Math. 9, 2000): sum_k c_k/d a_k is the sum of
    (-1)^k a_k.  d = ((3 + sqrt 8)^n + (3 - sqrt 8)^n)/2 = T_n(3), and
    b_k = (-1)^{k+1} n/(n + k) C(n + k, 2k) 4^k, the recurrence's b in
    closed form, are integers, so c_k = b_k - c_{k-1} is exact and each
    weight is rounded once; the recurrence run in floats loses 1e-15 to
    cancellation."""
    d_before, d = 1, 3
    for _ in range(n - 1):
        d_before, d = d, 6 * d - d_before
    c, weights = -d, []
    for k in range(n):
        b = n * math.comb(n + k, 2 * k) * 4 ** k // (n + k)
        c = (b if k % 2 else -b) - c
        weights.append(c / d)
    return np.array(weights)


# 26 terms leave the accelerated sums of _diagonal, and the m-sums of
# traces.elliptic_trace_r, within 2 (3 + sqrt 8)^-26 of their first term,
# < 1e-19 of the series
_CRVZ_TERMS = 26
_CRVZ_WEIGHTS = _crvz_weights(_CRVZ_TERMS)
_PI_K = math.pi * np.arange(1, _CRVZ_TERMS + 1)
_SQRT_PI = math.sqrt(math.pi)


def _diagonal(t) -> np.ndarray:
    """K(t, 0) at real t > 0 by the closed form of heat_kernel_h,
    elementwise in the shape of t (0-d for a scalar).  Each entry is one
    row of the same (rows, 26) arrays, summed along its row, so its value
    does not depend on the other entries."""
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    x = _PI_K / np.sqrt(flat)[:, None]
    g = 1.0 - _SQRT_PI * x * erfcx(x)
    core = 1.0 - 2.0 * (g * _CRVZ_WEIGHTS).sum(axis=1)
    return np.reshape(np.exp(-0.25 * flat) * core / (4.0 * math.pi * flat),
                      t.shape)


def _off_diagonal_kernel(z: complex, d: float, tol: float) -> complex:
    # u = d + v^2 turns the 1/sqrt(cosh u - cosh d) endpoint into a smooth
    # factor: cosh(d + v^2) - cosh d = 2 sinh(d + v^2/2) sinh(v^2/2), an
    # identity that is cancellation-free for small v.
    t = z.real

    def integrand(v: np.ndarray):
        vsq = v * v
        u = d + vsq
        core = 2.0 * np.sinh(d + 0.5 * vsq) * np.sinh(0.5 * vsq) / np.maximum(vsq, 1e-300)
        return 2.0 * u * np.exp(-u * u / (4.0 * z)) / np.sqrt(core)

    # v-scale: e^{-u^2/4t} dies once u - d ~ 13 sqrt(t); v ~ (13 sqrt t)^{1/2}
    rate = 1.0 / max(math.sqrt(13.0 * math.sqrt(t)), 1e-3)
    res = integrate_semi_infinite(integrand, decay=rate, tol=tol)
    prefac = math.sqrt(2.0) * np.exp(-z / 4.0) / (4.0 * math.pi * z) ** 1.5
    return prefac * res.value


def heat_kernel_h(t: float, d: float, tol: float = 1e-12) -> float:
    """Heat kernel K(t, d) on the hyperbolic plane at real time t > 0.

    On the diagonal it is a closed form, with no quadrature:

        K(t, 0) = e^{-t/4} (1 - 2 sum_{k>=1} (-1)^{k-1} g_k)/(4 pi t),
        g_k = 1 - sqrt(pi) x_k erfcx(x_k),  x_k = pi k/sqrt(t),

    from tanh(pi r) = 1 - 2 sum_k (-1)^{k-1} e^{-2 pi k r} under the
    r-integral.  g_k = 2t int_0^inf r e^{-t r^2} e^{-2 pi k r} dr is a
    moment of a positive measure on e^{-2 pi r} in (0, 1], so
    Cohen-Rodriguez Villegas-Zagier Algorithm 1 with 26 fixed weights sums
    the series to within 2 (3 + sqrt 8)^-26 g_1 < 1e-19.  tol must be > 0,
    and any tol is met by construction.  Against 40-digit mpmath the
    relative error is below 5e-15 max(1, sqrt t): 3.4e-15 on [1e-8, 1],
    1.5e-14 on [10, 100] and 9.8e-14 on [1000, 2975] in dense scans, the
    growth being the cancellation in 1 - 2 sum, about 0.36 sqrt t.  Past
    t ~ 2980, e^{-t/4} underflows and the value is 0.  For d > 0 it is the
    u-integral, to absolute tolerance tol.
    """
    if not t > 0:
        raise DomainError(f"heat_kernel_h requires t > 0, got {t}")
    if d < 0:
        raise DomainError(f"heat_kernel_h requires d >= 0, got {d}")
    if d == 0:
        if not tol > 0:
            raise DomainError("tolerance must be > 0")
        return float(_diagonal(t))
    return float(np.real(_off_diagonal_kernel(complex(t), d, tol)))


def heat_kernel_h_complex(z: ComplexTime, d: float, tol: float = 1e-12) -> complex:
    """Heat kernel at complex time z = t + i*s, t > 0.

    Reduces to heat_kernel_h when s = 0.  For d = 0 the diagonal r-integral
    is used, which is the analytic extension in the time variable; at s = 0
    it is the quadrature route to the closed form of heat_kernel_h.
    """
    if d < 0:
        raise DomainError(f"heat_kernel_h_complex requires d >= 0, got {d}")
    if d == 0:
        return complex(_diagonal_kernel(z.z, tol))
    return complex(_off_diagonal_kernel(z.z, d, tol))


def complex_time_bound(z: ComplexTime, d: float, tol: float = 1e-12) -> float:
    """Right-hand side of the modulus bound
    |K(z, d)| <= e^{s^2/4t} t^{-3/2} (t^2 + s^2)^{3/4} K(tau, d), tau = |z|^2/t."""
    t, s = z.t, z.s
    return (math.exp(s * s / (4.0 * t)) * t ** -1.5
            * (t * t + s * s) ** 0.75 * heat_kernel_h(z.tau, d, tol))
