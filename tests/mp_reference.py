"""Test-side references: vectorized model traces and mpmath oracles.

Trace callables built here are vectorized the way the library's quadrature
engine expects.  The mp_* functions are mpmath oracles of a surface's zeta
function and log determinant, each term from its spectral-side r-integral or
its product, not from the library's closed forms.
"""

import math

import mpmath as mp
import numpy as np


def finite_model_trace(eigenvalues):
    """Vectorized t -> sum e^{-lambda t} for a finite spectrum."""
    lams = np.asarray([float(x) for x in eigenvalues])

    def trace(t):
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.sum(np.exp(-np.outer(tt.ravel(), lams)), axis=1)
        return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])

    return trace


def circle_theta(t):
    """Jacobi theta sum_{n in Z} e^{-n^2 t}, the heat trace of the circle
    R/2piZ; evaluated through the modular transform for small t."""

    def scalar(tv: float) -> float:
        if tv < 1.0:
            x = math.pi * math.pi / tv
            s = 1.0
            for n in range(1, 60):
                term = 2.0 * math.exp(-n * n * x)
                s += term
                if term < 1e-300 * s:
                    break
            return math.sqrt(math.pi / tv) * s
        s = 1.0
        for n in range(1, 10000):
            term = 2.0 * math.exp(-n * n * tv)
            if term < 1e-18 * s:
                break
            s += term
        return s

    if np.ndim(t) == 0:
        return scalar(float(t))
    arr = np.asarray(t, dtype=float)
    return np.asarray([scalar(float(x)) for x in arr.ravel()]).reshape(arr.shape)


MP_DPS = 20


def mp_plane_kernel_diagonal(t, dps=30):
    """K(t, 0) = e^{-t/4}/(2 pi) int_0^inf r e^{-t r^2} tanh(pi r) dr, an
    mpf at dps digits (set here, per call), by mpmath quadrature split at
    the tanh scale and at multiples of the Gaussian's width 1/sqrt(t)."""
    with mp.workdps(dps):
        t = mp.mpf(t)
        width = 1 / mp.sqrt(t)
        knots = sorted({mp.mpf(0), min(width, 1) / 4, min(width, 1), width,
                        4 * width, 16 * width})
        value = mp.quad(lambda r: r * mp.exp(-t * r * r) * mp.tanh(mp.pi * r),
                        knots + [mp.inf])
        return +(mp.exp(-t / 4) * value / (2 * mp.pi))


def mp_elliptic_trace(orders, t, dps=20):
    """ETr(t) = e^{-t/4} sqrt(pi/t) sum over orders q and n < q of
    (2 q sin(n pi/q))^{-1} sum_{m>=0} (-1)^m erfcx(pi (m + n/q)/sqrt t), an
    mpf good to about dps digits.  erfcx is e^{x^2} erfc(x) in mpmath, at
    dps digits plus those e^{x^2} loses to the rounding of x^2, and each
    m-series is summed by the Cohen-Rodriguez Villegas-Zagier recurrence
    run in mpmath, with N terms for a bound 2 (3 + sqrt 8)^-N of the sum
    below 10^-dps."""
    terms = int(dps / math.log10(3 + math.sqrt(8))) + 2
    guard = int(math.log10(1 + (math.pi * terms) ** 2 / t)) + 1
    with mp.workdps(dps + guard):
        t = mp.mpf(t)
        a = mp.pi / mp.sqrt(t)
        root = 3 + mp.sqrt(8)
        d = (root ** terms + root ** -terms) / 2
        b, c, weights = mp.mpf(-1), -d, []
        for k in range(terms):
            c = b - c
            weights.append(c / d)
            b = (k + terms) * (k - terms) * b / ((k + mp.mpf(1) / 2) * (k + 1))

        def alternating(beta):
            xs = [a * (k + beta) for k in range(terms)]
            return mp.fsum(w * mp.exp(x * x) * mp.erfc(x)
                           for w, x in zip(weights, xs))

        total = mp.fsum(alternating(mp.mpf(n) / q) / (2 * q * mp.sin(n * mp.pi / q))
                        for q in orders for n in range(1, q))
        return +(mp.exp(-t / 4) * mp.sqrt(mp.pi / t) * total)


def mp_identity_zeta(vol, s):
    """(vol/2pi) int_0^inf (1/4 + r^2)^{-s} r tanh(pi r) dr, continued: with
    tanh = 1 - 2/(e^{2 pi r} + 1) the first part is (1/4)^{1-s}/(2(s - 1))
    and the rest is entire."""
    with mp.workdps(MP_DPS):
        s = mp.mpc(s)
        rest = mp.quad(lambda r: r * (mp.mpf(1) / 4 + r * r) ** (-s)
                       / (mp.exp(2 * mp.pi * r) + 1), [0, 1, 4, 15])
        return complex(vol / (2 * mp.pi) * (
            (mp.mpf(1) / 4) ** (1 - s) / (2 * (s - 1)) - 2 * rest))


def mp_identity_zeta_prime_zero(vol):
    with mp.workdps(MP_DPS):
        return float(mp.re(mp.diff(lambda s: vol / (2 * mp.pi) * (
            (mp.mpf(1) / 4) ** (1 - s) / (2 * (s - 1))
            - 2 * mp.quad(lambda r: r * (mp.mpf(1) / 4 + r * r) ** (-s)
                          / (mp.exp(2 * mp.pi * r) + 1), [0, 1, 4, 15])), 0)))


def _mp_cone_integral(orders, weight):
    """sum over cones and n < q of int_R weight(r) fermi(n/q, r) dr
    / (2 q sin(n pi/q)), one r-integral per (q, n)."""
    total = mp.mpc(0)
    for q in orders:
        for n in range(1, q):
            beta = mp.mpf(n) / q
            f = lambda r: weight(r) * mp.exp(-2 * mp.pi * beta * r) / (
                1 + mp.exp(-2 * mp.pi * r))
            total += mp.quad(f, [-mp.inf, -4, 0, 4, mp.inf]) / (
                2 * q * mp.sin(n * mp.pi / q))
    return total


def mp_cw_kernel(T, w, beta):
    """c_w(T) at beta: (1/pi) int_{-R}^{R} (T - 1/4 - r^2)^w fermi(beta, r)
    dr, R = sqrt(T - 1/4), in theta with r = R sin(theta), unfolded, split
    at theta = 0."""
    with mp.workdps(MP_DPS):
        T, w, beta = mp.mpf(T), mp.mpf(w), mp.mpf(beta)
        R = mp.sqrt(T - mp.mpf(1) / 4)

        def f(theta):
            r = R * mp.sin(theta)
            return (R * mp.cos(theta)) ** (2 * w + 1) * mp.exp(
                -2 * mp.pi * beta * r) / (1 + mp.exp(-2 * mp.pi * r))

        return float(mp.quad(f, [-mp.pi / 2, 0, mp.pi / 2]) / mp.pi)


def mp_elliptic_zeta(orders, s):
    with mp.workdps(MP_DPS):
        s = mp.mpc(s)
        return complex(_mp_cone_integral(
            orders, lambda r: (mp.mpf(1) / 4 + r * r) ** (-s)))


def mp_elliptic_zeta_prime_zero(orders):
    with mp.workdps(MP_DPS):
        return float(mp.re(_mp_cone_integral(
            orders, lambda r: -mp.log(mp.mpf(1) / 4 + r * r))))


def mp_hyperbolic_zeta(spectrum, s):
    """Mellin transform of HTr, term by term through
    int_0^inf t^{s-3/2} e^{-t/4 - x^2/4t} dt = 2 x^{s-1/2} K_{s-1/2}(x/2)."""
    with mp.workdps(MP_DPS):
        s = mp.mpc(s)
        total = mp.mpc(0)
        for ell, mult in spectrum:
            ell = mp.mpf(ell)
            for n in range(1, 10000):
                x = n * ell
                term = (mult * ell / mp.sinh(x / 2) * 2 * x ** (s - 0.5)
                        * mp.besselk(s - 0.5, x / 2))
                total += term
                if abs(term) < mp.mpf(10) ** (-MP_DPS) * max(abs(total), 1):
                    break
        return complex(total * mp.rgamma(s) / mp.sqrt(16 * mp.pi))


def mp_log_selberg_one(spectrum):
    """log Z(1) = sum over primitive geodesics and k >= 0 of
    mult log(1 - e^{-(1 + k) l})."""
    with mp.workdps(MP_DPS):
        total = mp.mpf(0)
        for ell, mult in spectrum:
            ell = mp.mpf(ell)
            k = 0
            while True:
                term = mult * mp.log(1 - mp.exp(-(1 + k) * ell))
                total += term
                if abs(term) < mp.mpf(10) ** (-MP_DPS):
                    break
                k += 1
        return float(total)


def mp_surface_zeta(surface, s):
    """Continued Mellin transform of Str = HTr + ETr + I (tail constant 0)."""
    return (mp_identity_zeta(surface.volume, s)
            + mp_elliptic_zeta(surface.elliptic_orders, s)
            + mp_hyperbolic_zeta(surface.length_spectrum, s))


def mp_surface_log_det(surface):
    """-(d/ds) at 0 of mp_surface_zeta, where zeta_H'(0) = -log Z(1)."""
    return -(mp_identity_zeta_prime_zero(surface.volume)
             - mp_log_selberg_one(surface.length_spectrum)
             + mp_elliptic_zeta_prime_zero(surface.elliptic_orders))
