"""Quantitative elliptic-degeneration asymptotics.

Central objects:

- S(q) = sum_{n=1}^{q-1} 1/(2 q sin(n pi/q)), which grows like (1/pi) log q;
- the Fermi-weighted moment kernels
  c_w(T) = (1/pi) int_{-R}^{R} (T - 1/4 - r^2)^w e^{-2 pi beta r}/(1 + e^{-2 pi r}) dr,
  R = sqrt(T - 1/4), with beta = n/q and beta = 0 the limiting kernel;
- the degenerating counting function G_{M,w}(T), a double sum of those
  kernels over the degenerating cones, which grows like c_w(T) log(prod q).
  By Parseval and Hejhal's closed form of the n-sum, G is one u-integral of
  the Fourier transform of (T - 1/4 - r^2)_+^w against the cone series
  (traces.cone_integral), whatever the orders.

Slope fits against log(prod q) realize the growth laws empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np
from scipy.special import jv

from .errors import DomainError, FitError
from .geometry import DegeneratingFamily, SurfaceData
from .special_fn import integrate_finite
from .traces import cone_integral, fermi_fold

__all__ = [
    "CwKernel",
    "SlopeFit",
    "ErrorTermReport",
    "elliptic_sum_s",
    "c_w_kernel",
    "g_degenerating_counting",
    "fit_slope_vs_logQ",
    "error_term_experiment",
]

_CHUNK = 1_000_000


@dataclass(frozen=True)
class CwKernel:
    """Parameters (T, w, beta) of one Fermi-weighted moment integral."""

    T: float
    w: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.w < 0:
            raise DomainError(f"weight must be >= 0, got {self.w}")
        if not 0.0 <= self.beta < 1.0:
            raise DomainError(f"beta must lie in [0, 1), got {self.beta}")


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log prod q, quantity) points."""

    abscissae: tuple
    ordinates: tuple
    slope: float
    intercept: float
    residual: float


def elliptic_sum_s(q: int) -> float:
    """S(q) = sum_{n=1}^{q-1} 1/(2 q sin(n pi/q)), exactly, pairwise-summed.

    Uses sin(x) = sin(pi - x) to halve the work; comfortable up to q ~ 1e7.
    """
    q = int(q)
    if q < 2:
        raise DomainError(f"order must be >= 2, got {q}")
    half = (q - 1) // 2
    partials = []
    for start in range(1, half + 1, _CHUNK):
        stop = min(start + _CHUNK, half + 1)
        n = np.arange(start, stop, dtype=float)
        partials.append(float(np.sum(1.0 / np.sin(n * math.pi / q))))
    total = 2.0 * math.fsum(partials)
    if q % 2 == 0:
        total += 1.0  # middle term n = q/2, sin = 1
    return total / (2.0 * q)


def _weighted_interval_integral(folded: Callable, w: float, T: float,
                                tol: float) -> float:
    """int_{-R}^{R} (T - 1/4 - r^2)^w g(r) dr, R = sqrt(T - 1/4) > 0, given
    folded(r) = g(r) + g(-r) (array-native, r >= 0): the integral over
    [0, R], via r = R sin(theta), which turns the endpoint factor into
    cos^{2w+1}(theta), as one tanh-sinh integral on [0, pi/2], whose nodes
    crowd both ends.  For c_w_kernel's Fermi weights, fermi_fold puts the
    poles nearest the real axis, at theta ~ +-i/(2R), by theta = 0: two or
    three integrand calls up to T = 1e5.  counting_noncompact's integrals
    come here too, so all go through this module's integrate_finite."""
    R = math.sqrt(T - 0.25)
    power = 2.0 * w + 1.0

    def integrand(theta: np.ndarray):
        return R ** power * np.cos(theta) ** power * folded(R * np.sin(theta))

    res = integrate_finite(integrand, 0.0, 0.5 * math.pi, tol)
    return float(np.real(res.value))


def c_w_kernel(kernel: CwKernel, tol: float = 1e-12) -> float:
    """The moment integral divided by pi; returns 0 when T <= 1/4.

    At beta = 0 the Fermi weights at r and -r add up to 1, so the integral is
    half the Beta integral and
    c_w(T) = R^{2w+1} Gamma(w+1)/(2 sqrt(pi) Gamma(w+3/2)), R = sqrt(T - 1/4),
    which is R/pi at w = 0; beta > 0 is a quadrature to tol.
    """
    if kernel.T <= 0.25:
        return 0.0
    if kernel.beta == 0.0:
        w = kernel.w
        R = math.sqrt(kernel.T - 0.25)
        return (R ** (2.0 * w + 1.0) * math.exp(math.lgamma(w + 1.0)
                                               - math.lgamma(w + 1.5))
                / (2.0 * math.sqrt(math.pi)))
    return _weighted_interval_integral(
        lambda r: fermi_fold(kernel.beta, r), kernel.w, kernel.T, tol) / math.pi


@cache
def _spherical_series(w: int) -> tuple:
    """Switch point z_s = max(w, 1) and the Horner coefficients, highest
    first, of g_w(z) = sum_k (-z^2/2)^k/(k! (2w+2k+1)!!) in z^2, up to the
    first term below 2^-56 of the first at z_s."""
    switch = float(max(w, 1))
    coeffs = [1.0 / math.prod(range(1, 2 * w + 2, 2))]
    while abs(coeffs[-1]) * switch ** (2 * len(coeffs) - 2) \
            > 2.0 ** -56 * coeffs[0]:
        k = len(coeffs)
        coeffs.append(-coeffs[-1] / (2.0 * k * (2 * w + 2 * k + 1)))
    return switch, tuple(reversed(coeffs))


def _spherical_g(w: int, z: np.ndarray) -> np.ndarray:
    """g_w(z) = j_w(z)/z^w for integer w >= 0 and z > 0, j_w the spherical
    Bessel function, entire and even in z: sin(z)/z at w = 0, free of
    cancellation; else the power series below z_s (_spherical_series) and
    above it the upward recurrence g_{n+1} = ((2n+1) g_n - g_{n-1})/z^2
    from g_{-1} = cos z, g_0 = sin(z)/z (DLMF 10.49.3, 10.51.1, 10.53.1),
    which is stable for z >~ n."""
    if w == 0:
        return np.sin(z) / z
    switch, coeffs = _spherical_series(w)
    out = np.empty_like(z)
    near = z < switch
    x = z[near] ** 2
    series = coeffs[0] * x + coeffs[1]
    for c in coeffs[2:]:
        series *= x
        series += c
    out[near] = series
    far = z[~near]
    x = far ** 2
    before, g = np.cos(far), np.sin(far) / far
    for n in range(w):
        before, g = g, ((2 * n + 1) * g - before) / x
    out[~near] = g
    return out


def _scaled_bessel_j(nu: float, z: np.ndarray) -> np.ndarray:
    """(2/z)^nu J_nu(z) for z >= 0, entire in z.  Below z = sqrt(nu + 1),
    where (2/z)^nu can overflow while J_nu underflows, it is the power
    series sum_k (-z^2/4)^k/(k! Gamma(nu+k+1)) (DLMF 10.2.2), whose terms
    there fall off at least like 1/(4^k k!): 14 of them reach 2^-56.  Above,
    scipy's jv."""
    out = np.empty_like(z)
    near = z < math.sqrt(nu + 1.0)
    x = -0.25 * z[near] ** 2
    term = np.full_like(x, 1.0 / math.gamma(nu + 1.0))
    series = term.copy()
    for k in range(1, 14):
        term *= x / (k * (nu + k))
        series += term
    out[near] = series
    far = z[~near]
    out[~near] = (2.0 / far) ** nu * jv(nu, far)
    return out


def _counting_hhat(w: float, R: float) -> Callable:
    """hhat(u) of g_degenerating_counting for R = sqrt(T - 1/4), vectorized:
    w! 2^w R^{2w+1}/pi g_w(R u) (_spherical_g) for integer w, and
    Gamma(w+1)/(2 sqrt(pi)) R^{2 nu} (2/z)^nu J_nu(z), nu = w + 1/2, z = R u
    (_scaled_bessel_j) for other w."""
    if float(w).is_integer():
        w = int(w)
        scale = math.factorial(w) * 2.0 ** w * R ** (2 * w + 1) / math.pi
        return lambda u: scale * _spherical_g(w, R * u)
    nu = w + 0.5
    scale = math.gamma(w + 1.0) / (2.0 * math.sqrt(math.pi)) * R ** (2.0 * nu)
    return lambda u: scale * _scaled_bessel_j(nu, R * u)


def g_degenerating_counting(surface: SurfaceData, w: float, T: float,
                            tol: float = 1e-10) -> float:
    """Degenerating counting function: the kernel double sum
    sum_q sum_{n<q} int_{-R}^{R} (T - 1/4 - r^2)^w fermi(n/q, r) dr / (2q sin(n pi/q))
    over the degenerating cones, to absolute tolerance tol.  Zero whenever
    T <= 1/4, independently of the orders.

    The sum is cone_integral of the Fourier transform of (R^2 - r^2)_+^w,
    R = sqrt(T - 1/4),

        hhat(u) = Gamma(w+1)/(2 sqrt(pi)) (2R/u)^{w+1/2} J_{w+1/2}(R u)

    (DLMF 10.9.4), which falls off like u^{-w-1}; the cone series sets the
    decay e^{-u/2}.  For integer w the Bessel factor is elementary: with
    z = R u and the spherical Bessel function j_w (DLMF 10.47.3, 10.49.3),
    hhat(u) = w! 2^w R^{2w+1}/pi j_w(z)/z^w, which is sin(R u)/(pi u) at
    w = 0, evaluated by its power series near z = 0 (DLMF 10.53.1) and by
    trigonometric functions and the upward recurrence beyond; non-integer
    w uses (2/z)^nu J_nu(z) by its power series near z = 0 and scipy's
    J_nu beyond (_counting_hhat).  One quadrature for all the
    orders, at any q; its period 2 pi/R is resolved up to T = 3e6, and
    beyond it the quadrature may raise QuadratureError.
    """
    if w < 0:
        raise DomainError(f"weight must be >= 0, got {w}")
    if T <= 0.25:
        return 0.0
    hhat = _counting_hhat(w, math.sqrt(T - 0.25))
    return cone_integral(surface.degenerating_orders, hhat, 0.5, tol)


def fit_slope_vs_logQ(family: DegeneratingFamily,
                      quantity: Callable) -> SlopeFit:
    """Unweighted least-squares fit of quantity(member) against
    log(prod q_gamma) over the schedule."""
    xs = family.log_products()
    ys = [quantity(m) for m in family.members()]
    if len(xs) < 3:
        raise FitError(f"need at least 3 points for a slope fit, have {len(xs)}")
    if any(b <= a for a, b in zip(xs[:-1], xs[1:])):
        raise FitError("fit abscissae must be strictly increasing")
    x = np.asarray(xs)
    y = np.asarray(ys, dtype=float)
    if np.ptp(x) < 1e-9 * max(1.0, float(np.max(np.abs(x)))):
        raise FitError("abscissae nearly collinear with constants")
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return SlopeFit(abscissae=tuple(float(v) for v in x),
                    ordinates=tuple(float(v) for v in y),
                    slope=float(slope), intercept=float(intercept),
                    residual=residual)


@dataclass(frozen=True)
class ErrorTermReport:
    """Rows (logQ, G, residual, normalizer, normalized) per schedule member,
    plus whether the normalized residual avoids monotone growth."""

    rows: tuple
    bounded: bool

    def normalized(self) -> list:
        return [row[4] for row in self.rows]


def error_term_experiment(family: DegeneratingFamily, T: float,
                          tol: float = 1e-10) -> ErrorTermReport:
    """Tabulate G_{M,0}(T) - c_0(T) log(prod q) across the schedule and
    normalize residuals by (log prod q)^{3/4}."""
    if T <= 0.25:
        rows = tuple((lq, 0.0, 0.0, lq ** 0.75, 0.0)
                     for lq in family.log_products())
        return ErrorTermReport(rows=rows, bounded=True)
    c0 = c_w_kernel(CwKernel(T=T, w=0.0, beta=0.0), tol=1e-12)
    values = [g_degenerating_counting(m, 0.0, T, tol)
              for m in family.members()]
    rows = []
    for lq, g in zip(family.log_products(), values):
        residual = g - c0 * lq
        normalizer = lq ** 0.75
        rows.append((lq, g, residual, normalizer, residual / normalizer))
    magnitudes = [abs(row[4]) for row in rows]
    monotone_growth = all(b > a for a, b in zip(magnitudes[:-1], magnitudes[1:]))
    return ErrorTermReport(rows=tuple(rows), bounded=not monotone_growth)
