"""Reference values that share no code with `degenspec`.

Every oracle here is either a closed form, an mpmath evaluation at
`MP_DPS` decimal digits, or (for the elliptic trace, whose cone sums have
up to ~1e3 terms per t) an independent numpy rule: the trapezoid rule on
the whole real line, which converges geometrically for integrands analytic
in a strip and is a different algorithm from the library's Gauss-Kronrod
engine.  Cone counting sums use Chebyshev series of the Fermi kernel in
beta, fitted to mpmath values by `reference.py` and committed in
`reference.json`.
"""

from __future__ import annotations

import json
import math
import os

import mpmath as mp
import numpy as np

MP_DPS = 30
mp.mp.dps = MP_DPS

_HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(_HERE, "reference.json")


# --- closed forms -----------------------------------------------------------

def finite_zeta(eigenvalues, s) -> complex:
    """sum lambda^{-s} over the positive eigenvalues."""
    s = mp.mpc(s)
    return complex(mp.fsum(mp.power(mp.mpf(lam), -s)
                           for lam in eigenvalues if lam > 0))


def finite_log_det(eigenvalues, alpha: float = 0.0) -> float:
    """log prod lambda over eigenvalues above alpha."""
    return float(mp.fsum(mp.log(mp.mpf(lam)) for lam in eigenvalues
                         if lam > alpha))


def circle_zeta(s) -> complex:
    """Spectral zeta of the circle R/2piZ: eigenvalues n^2 twice, 2 zeta(2s)."""
    return complex(2 * mp.zeta(2 * mp.mpc(s)))


CIRCLE_LOG_DET = float(mp.log(4 * mp.pi ** 2))


def heat_coefficient_b0(volume: float, orders) -> float:
    """Constant term of the surface trace: -vol/12pi + sum (q^2-1)/12q."""
    return (-volume / (12.0 * math.pi)
            + sum((q * q - 1.0) / (12.0 * q) for q in orders))


# --- pointwise traces -------------------------------------------------------

def hyperbolic_trace(spectrum, t: float) -> float:
    """e^{-t/4}/sqrt(16 pi t) sum_{(l, m), n} m l/sinh(nl/2) e^{-(nl)^2/4t}."""
    t = mp.mpf(t)
    total = mp.mpf(0)
    for ell, mult in spectrum:
        ell = mp.mpf(ell)
        for n in range(1, 10000):
            nl = n * ell
            term = ell / mp.sinh(nl / 2) * mp.exp(-nl * nl / (4 * t))
            total += mult * term
            if term < mp.mpf(10) ** (-MP_DPS) * max(abs(total), 1):
                break
    return float(mp.exp(-t / 4) / mp.sqrt(16 * mp.pi * t) * total)


def plane_kernel_diagonal(t: float) -> float:
    """K(t, 0) = e^{-t/4}/2pi int_0^inf e^{-t r^2} r tanh(pi r) dr, with
    tanh = 1 - 2/(e^{2 pi r}+1) so the remaining integral lives on r < 15."""
    t = mp.mpf(t)
    j = mp.quad(lambda r: mp.exp(-t * r * r) * r / (mp.exp(2 * mp.pi * r) + 1),
                [0, 1, 4, 15])
    return float(mp.exp(-t / 4) / (2 * mp.pi) * (1 / (2 * t) - 2 * j))


def plane_kernel(t: float, d: float) -> float:
    """McKean's formula for K(t, d), d > 0, by tanh-sinh quadrature, which
    absorbs the inverse square root at u = d."""
    if d == 0:
        return plane_kernel_diagonal(t)
    t, d = mp.mpf(t), mp.mpf(d)
    w = mp.sqrt(t)

    def f(u):
        # cosh u - cosh d = 2 sinh((u+d)/2) sinh((u-d)/2), cancellation-free
        gap = 2 * mp.sinh((u + d) / 2) * mp.sinh((u - d) / 2)
        return u * mp.exp(-u * u / (4 * t)) / mp.sqrt(gap) if gap > 0 else 0

    val = mp.quad(f, [d, d + w, d + 4 * w, d + 16 * w, d + 64 * w + 40])
    return float(mp.sqrt(2) * mp.exp(-t / 4) / (4 * mp.pi * t) ** 1.5 * val)


def _fermi(beta: float, r: np.ndarray) -> np.ndarray:
    """e^{-2 pi beta r}/(1 + e^{-2 pi r}) without overflow."""
    out = np.empty_like(r)
    pos = r >= 0
    rp, rn = r[pos], r[~pos]
    out[pos] = np.exp(-2 * np.pi * beta * rp) / (1 + np.exp(-2 * np.pi * rp))
    out[~pos] = (np.exp(2 * np.pi * (1 - beta) * rn)
                 / (1 + np.exp(2 * np.pi * rn)))
    return out


def _trapezoid_real_line(f, lo: float, hi: float, h: float) -> float:
    r = np.arange(math.floor(lo / h), math.ceil(hi / h) + 1) * h
    return h * math.fsum(f(r))


def _elliptic_r_integral(beta: float, t: float) -> float:
    """int_R e^{-t r^2} fermi(beta, r) dr by the trapezoid rule.

    The integrand is analytic in |Im r| < 1/2, so step h has error
    ~ e^{-2 pi (0.4)/h}: 1e-27 relative at h = 0.03.  The range stops where
    both exponential factors together fall below e^{-45}.
    """
    def reach(rate):
        return (-rate + math.sqrt(rate * rate + 180.0 * t)) / (2.0 * t)

    hi = reach(2 * math.pi * beta)
    lo = -reach(2 * math.pi * (1 - beta))
    f = lambda r: np.exp(-t * r * r) * _fermi(beta, r)
    fine = _trapezoid_real_line(f, lo, hi, 0.03)
    coarse = _trapezoid_real_line(f, lo, hi, 0.06)
    if abs(fine - coarse) > 1e-13 * max(abs(fine), 1e-300):
        raise ArithmeticError("trapezoid oracle did not converge")
    return fine


def elliptic_trace(orders, t: float) -> float:
    """ETr in its r-integral form, summed over cones and n < q with fsum."""
    terms = []
    for q in orders:
        for n in range(1, q):
            terms.append(_elliptic_r_integral(n / q, t)
                         / (2.0 * q * math.sin(n * math.pi / q)))
    return math.exp(-t / 4.0) * math.fsum(terms)


def selberg_logderiv(spectrum, s) -> complex:
    """Z'/Z(s) = sum m l/(2 sinh(nl/2)) e^{-(s-1/2) n l}; for a finite length
    spectrum the double series converges for Re(s) > 0."""
    s = mp.mpc(s)
    total = mp.mpc(0)
    for ell, mult in spectrum:
        ell = mp.mpf(ell)
        for n in range(1, 100000):
            nl = n * ell
            term = ell / (2 * mp.sinh(nl / 2)) * mp.exp(-(s - 0.5) * nl)
            total += mult * term
            if abs(term) < mp.mpf(10) ** (-MP_DPS) * max(abs(total), 1):
                break
    return complex(total)


# --- cone counting sums -----------------------------------------------------

def cw_kernel_integral(T: float, w: float, beta: float) -> mp.mpf:
    """int_{-R}^{R} (T - 1/4 - r^2)^w fermi(beta, r) dr, R = sqrt(T - 1/4),
    by tanh-sinh quadrature in theta with r = R sin(theta)."""
    T, w, beta = mp.mpf(T), mp.mpf(w), mp.mpf(beta)
    if T <= mp.mpf(1) / 4:
        return mp.mpf(0)
    R = mp.sqrt(T - mp.mpf(1) / 4)
    p = 2 * w + 1

    def f(theta):
        r = R * mp.sin(theta)
        return (R * mp.cos(theta)) ** p * mp.exp(-2 * mp.pi * beta * r) / (
            1 + mp.exp(-2 * mp.pi * r))

    return mp.quad(f, [-mp.pi / 2, 0, mp.pi / 2])


def c_w(T: float, w: float, beta: float) -> float:
    return float(cw_kernel_integral(T, w, beta) / mp.pi)


_REFERENCE = None


def reference() -> dict:
    global _REFERENCE
    if _REFERENCE is None:
        with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
            _REFERENCE = json.load(fh)
    return _REFERENCE


def kernel_chebyshev(T: float, w: float) -> np.ndarray:
    """Committed Chebyshev coefficients of beta -> kernel on [0, 1]
    (variable x = 2 beta - 1)."""
    key = f"T={T!r},w={w!r}"
    return np.asarray(reference()["kernel_chebyshev"]["coefficients"][key])


def c_w_chebyshev(T: float, w: float, beta: float) -> float:
    """c_w(T) at beta from the committed Chebyshev series (the kernel / pi)."""
    if T <= 0.25:
        return 0.0
    x = 2.0 * beta - 1.0
    return float(np.polynomial.chebyshev.chebval(x, kernel_chebyshev(T, w))
                 / math.pi)


def chebyshev_moments_even(q: int, count: int = 40) -> np.ndarray:
    """M_k(q) = sum_{n<q} T_{2k}(2n/q - 1)/(2q sin(n pi/q)), k < count.

    The kernel is symmetric under beta -> 1 - beta, so its odd Chebyshev
    coefficients vanish and T_{2k}(x) = T_k(2x^2 - 1); pairing n with q - n
    halves the sum.  A cone sum of any kernel is then c_even . M, so one
    pass over n serves every (T, w).  Chunks are summed pairwise and the
    chunk partials with fsum.
    """
    partials = [[] for _ in range(count)]
    chunk = 1 << 20
    half = (q - 1) // 2
    for start in range(1, half + 1, chunk):
        n = np.arange(start, min(start + chunk, half + 1), dtype=float)
        x = 2.0 * n / q - 1.0
        y = 2.0 * x * x - 1.0
        weight = 1.0 / (q * np.sin(n * np.pi / q))  # both n and q - n
        prev, cur = np.ones_like(y), y
        partials[0].append(float(np.sum(weight)))
        partials[1].append(float(np.sum(cur * weight)))
        for k in range(2, count):
            prev, cur = cur, 2.0 * y * cur - prev
            partials[k].append(float(np.sum(cur * weight)))
    if q % 2 == 0:  # n = q/2: x = 0, y = -1, weight 1/(2q)
        for k in range(count):
            partials[k].append((-1.0) ** k / (2.0 * q))
    return np.asarray([math.fsum(p) for p in partials])


def cone_sum(q: int, T: float, w: float, moments=None) -> float:
    """G for one degenerating cone of order q: sum_n kernel(n/q)/(2q sin)."""
    if T <= 0.25:
        return 0.0
    coeffs = kernel_chebyshev(T, w)
    even = coeffs[0::2]
    if moments is None:
        moments = chebyshev_moments_even(q, even.size)
    return math.fsum(even * moments[:even.size])


# --- Mellin transforms of surface traces -------------------------------------

def _identity_zeta(volume, s):
    """vol/2pi int_0^inf (1/4 + r^2)^{-s} r tanh(pi r) dr, continued:
    the tanh = 1 part is (1/4)^{1-s}/(2(s-1)), the rest is entire."""
    rest = mp.quad(lambda r: r * (mp.mpf(1) / 4 + r * r) ** (-s)
                   / (mp.exp(2 * mp.pi * r) + 1), [0, 1, 4, 15])
    return volume / (2 * mp.pi) * (
        mp.mpf(1) / 4 ** (1 - s) / (2 * (s - 1)) - 2 * rest)


def _elliptic_zeta(orders, s):
    """sum over cones of 1/(2q sin(n pi/q)) int_R (1/4 + r^2)^{-s} fermi dr."""
    total = mp.mpc(0)
    for q in orders:
        for n in range(1, q):
            beta = mp.mpf(n) / q
            f = lambda r: (mp.mpf(1) / 4 + r * r) ** (-s) * mp.exp(
                -2 * mp.pi * beta * r) / (1 + mp.exp(-2 * mp.pi * r))
            total += mp.quad(f, [-mp.inf, -4, 0, 4, mp.inf]) / (
                2 * q * mp.sin(n * mp.pi / q))
    return total


def _hyperbolic_zeta(spectrum, s):
    """Mellin transform of HTr, term by term through
    int_0^inf t^{s-3/2} e^{-t/4 - a^2/t} dt = 2 (2a)^{s-1/2} K_{s-1/2}(a)."""
    total = mp.mpc(0)
    for ell, mult in spectrum:
        ell = mp.mpf(ell)
        for n in range(1, 10000):
            nl = n * ell
            term = (ell / mp.sinh(nl / 2) * 2 * nl ** (s - 0.5)
                    * mp.besselk(s - 0.5, nl / 2))
            total += mult * term
            if abs(term) < mp.mpf(10) ** (-MP_DPS) * max(abs(total), 1):
                break
    return total * mp.rgamma(s) / mp.sqrt(16 * mp.pi)


def surface_zeta(volume, spectrum, orders, s) -> complex:
    """Continued Mellin transform of the geometric trace Str (c_M = 0)."""
    s = mp.mpc(s)
    return complex(_identity_zeta(volume, s) + _elliptic_zeta(orders, s)
                   + _hyperbolic_zeta(spectrum, s))


def surface_log_det(volume, spectrum, orders) -> float:
    """log det = -zeta'(0) of the geometric trace."""
    deriv = mp.diff(lambda s: _identity_zeta(volume, s)
                    + _hyperbolic_zeta(spectrum, s), 0)
    # the elliptic part: d/ds (1/4 + r^2)^{-s} at s = 0 is -log(1/4 + r^2)
    ell = mp.mpf(0)
    for q in orders:
        for n in range(1, q):
            beta = mp.mpf(n) / q
            f = lambda r: -mp.log(mp.mpf(1) / 4 + r * r) * mp.exp(
                -2 * mp.pi * beta * r) / (1 + mp.exp(-2 * mp.pi * r))
            ell += mp.quad(f, [-mp.inf, -4, 0, 4, mp.inf]) / (
                2 * q * mp.sin(n * mp.pi / q))
    return float(-mp.re(deriv + ell))
