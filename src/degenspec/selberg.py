"""Selberg zeta function on model length spectra.

Four routes to the same logarithmic derivative Z'/Z:

1. the double series over (geodesic, n) of l/(2 sinh(n l/2)) e^{-(s-1/2) n l};
2. finite differences of log of the Euler product;
3. the K-Bessel form (2s-1) sum l/(sqrt(16 pi) sinh(n l/2)) K_{1/2}(s-1/2, n l/2);
4. the heat-trace integral (2s-1) int_0^inf HTr(t) e^{-s(s-1)t} dt.

Routes 1, 3 and 4 share one (geodesic, n) sum, traces.geodesic_sum, with
the weights e^{-(s-1/2)x}, the K-Bessel integral and the heat kernel's
Gaussian; the integral evaluates HTr on all its quadrature nodes at once.

The product and series converge for Re(s) > 1.  HTr(t) falls off like
e^{-t/4}/sqrt(t), so the integral converges exactly where
Re(s^2 - s) > -1/4, that is |Im s| < |Re s - 1/2|: it reaches the critical
line near the real axis but not above Re(s) > 1 at large |Im s|, where
selberg_logderiv_integral returns the series instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError
from .special_fn import KBesselArgs, integrate_semi_infinite, k_bessel
from .traces import (_normalize_spectrum, _removed_eigenvalues, geodesic_sum,
                     hyperbolic_sum_reduced)

__all__ = [
    "LogDerivEvaluation",
    "selberg_zeta_product",
    "selberg_logderiv_series",
    "selberg_logderiv_integral",
    "selberg_logderiv_kbessel",
    "truncated_logderiv",
]


@dataclass(frozen=True)
class LogDerivEvaluation:
    """One Z'/Z value with the representation used and its domain certificate."""

    s: complex
    value: complex
    representation: str
    domain_certificate: str


def _require_half_plane(s: complex) -> None:
    if not s.real > 1.0:
        raise DomainError(f"requires Re(s) > 1, got Re(s) = {s.real}")


def selberg_zeta_product(lengths, s, tol: float = 1e-15) -> complex:
    """Euler product Z(s) = prod_geodesics prod_{n>=0} (1 - e^{-(s+n) l}),
    truncated once the remaining factors differ from 1 below tol.
    The empty spectrum gives the empty product 1."""
    s = complex(s)
    _require_half_plane(s)
    log_total = 0.0 + 0.0j
    for ell, mult in _normalize_spectrum(lengths):
        for n in range(0, 100000):
            x = np.exp(-(s + n) * ell)
            log_total += mult * np.log1p(-x)
            # geometric tail of sum |x| bounds the remaining log factors
            tail = abs(x) * math.exp(-ell) / max(1.0 - math.exp(-ell), 1e-300)
            if tail < tol:
                break
    return complex(np.exp(log_total))


def selberg_logderiv_series(lengths, s) -> LogDerivEvaluation:
    """Double series for Z'/Z(s), Re(s) > 1, through geodesic_sum."""
    s = complex(s)
    _require_half_plane(s)
    total = geodesic_sum(lengths, lambda x: np.exp(-(s - 0.5) * x))
    return LogDerivEvaluation(s=s, value=complex(total),
                              representation="series",
                              domain_certificate="Re(s)>1")


def selberg_logderiv_integral(lengths, s, tol: float = 1e-12) -> LogDerivEvaluation:
    """Z'/Z(s) = (2s-1) int_0^inf HTr(t) e^{-s(s-1)t} dt where the integral
    converges, Re(s^2 - s) > -1/4; certified "Re(s)>1" when also Re(s) > 1.

    For Re(s) > 1 outside that region the value is the series
    (representation "series"); elsewhere DomainError.
    """
    s = complex(s)
    q = s * (s - 1.0)
    if not q.real > -0.25:
        if s.real > 1.0:
            return selberg_logderiv_series(lengths, s)
        raise DomainError(
            f"s = {s} has Re(s) = {s.real} <= 1 and Re(s^2 - s) = {q.real} "
            "<= -1/4, where neither the series nor the integral converges")
    cert = "Re(s)>1" if s.real > 1.0 else "Re(s^2-s)>-1/4"
    pairs = _normalize_spectrum(lengths)

    # HTr(t) e^{-qt} = e^{-(1/4+q)t} S(t)/sqrt(16 pi t); combining the
    # exponentials keeps the integrand finite when Re(q) < 0 grows the weight
    def integrand(t: np.ndarray):
        return (np.exp(-(0.25 + q) * t) * hyperbolic_sum_reduced(pairs, t)
                / np.sqrt(16.0 * math.pi * t))

    rate = 0.25 + q.real
    res = integrate_semi_infinite(integrand, decay=max(rate, 1e-3), tol=tol)
    return LogDerivEvaluation(s=s, value=complex((2.0 * s - 1.0) * res.value),
                              representation="integral",
                              domain_certificate=cert)


def selberg_logderiv_kbessel(lengths, s) -> LogDerivEvaluation:
    """Z'/Z(s) through the K-Bessel integral K_{1/2}(s - 1/2, n l/2) in
    closed form, one array call over the kept (geodesic, n) terms; real
    s > 1 only (the K-Bessel arguments must be positive)."""
    s_c = complex(s)
    if abs(s_c.imag) > 0:
        raise DomainError("K-Bessel route requires real s")
    s = float(s_c.real)
    _require_half_plane(s_c)
    # l/(sqrt(16 pi) sinh(n l/2)) = (l/(2 sinh(n l/2)))/sqrt(4 pi)
    total = geodesic_sum(
        lengths, lambda x: k_bessel(KBesselArgs(s=0.5, a=s - 0.5, b=x / 2.0))
    ) / math.sqrt(4.0 * math.pi)
    return LogDerivEvaluation(s=s_c, value=complex((2.0 * s - 1.0) * total),
                              representation="kbessel",
                              domain_certificate="Re(s)>1")


def truncated_logderiv(lengths, small_eigenvalues, alpha: float, s,
                       tol: float = 1e-12) -> complex:
    """Z'/Z(s) minus the small-eigenvalue terms (2s-1)/(s(s-1)+lambda) over
    listed lambda <= alpha, alpha in [0, 1/4) off every listed eigenvalue
    (AlphaCollisionError); poles exactly where s(s-1) = -lambda."""
    removed = _removed_eigenvalues(small_eigenvalues, alpha)
    s = complex(s)
    total = complex(selberg_logderiv_integral(lengths, s, tol).value)
    for lam in removed:
        denom = s * (s - 1.0) + lam
        if abs(denom) < 1e-9:
            raise PoleError(
                f"truncated log derivative has a pole at s = {s} "
                f"(s(s-1) = {-lam})")
        total -= (2.0 * s - 1.0) / denom
    return total
