"""Spectral zeta, Hurwitz zeta, heat coefficients, and the regularized
determinant of the Laplacian.

The spectral zeta function is the Mellin transform of the heat trace minus
its tail constant.  Meromorphic continuation follows the split-and-subtract
scheme: the integral over [1, inf) is entire, and over [0, 1] the small-time
expansion sum b_alpha t^alpha is subtracted term by term, each term adding
back the explicit rational piece b_alpha/(Gamma(s)(s+alpha)).  The same core
handles the Laplace-Mellin (Hurwitz) transform through an incomplete-gamma
factor, and the regularized determinant is exp(-zeta'(0)) with the
derivative taken by Richardson-refined central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (AlphaCollisionError, ConvergenceError, DivergenceError,
                     DomainError, ExpansionMismatchError, FitError,
                     InsufficientSubtractionsError, PoleError,
                     StripViolationError)
from .geometry import DegeneratingFamily
from .hplane import heat_kernel_h
from .special_fn import (integrate_finite, integrate_semi_infinite,
                         reciprocal_gamma)
from .traces import elliptic_trace_u, hyperbolic_trace

__all__ = [
    "HeatCoefficients",
    "ZetaEvaluation",
    "spectral_zeta_series",
    "spectral_zeta_mellin",
    "heat_coefficients",
    "hurwitz_zeta",
    "truncated_zeta",
    "det_laplacian",
    "mellin_regularized_integral",
    "log_det_truncated",
    "degeneration_subtraction_zeta",
]

_POLE_EPS = 1e-9
# residual floor of the heat-coefficient fit, in units of max|t trace(t)|
_FIT_FLOOR = 64.0 * np.finfo(float).eps
# small-t samples, a factor 4 apart, on which supplied coefficients are
# checked, and the remainder level (relative to the trace there) taken as
# the rounding and fitting noise of the check
_CHECK_TIMES = (1e-3, 2.5e-4, 6.25e-5)
_CHECK_NOISE = 1e-10


@dataclass(frozen=True)
class HeatCoefficients:
    """Small-time expansion coefficients b_{-1}, b_0, b_1, ... of a trace:
    trace(t) ~ b_{-1}/t + b_0 + b_1 t + ..."""

    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))

    def pairs(self, count: int | None = None):
        """(power, coefficient) pairs starting at power -1."""
        chosen = self.b if count is None else self.b[:count]
        return [(k - 1, bk) for k, bk in enumerate(chosen)]


@dataclass(frozen=True)
class ZetaEvaluation:
    """One continued zeta value with its subtraction depth and, when the
    expansion carries a 1/t term, the induced pole (location, residue)."""

    s: complex
    value: complex
    n_subtractions: int
    pole_flag: tuple | None = None


def spectral_zeta_series(eigenvalues, s, *, growth: float | None = None,
                         tol: float = 1e-14) -> complex:
    """Dirichlet series sum over lambda > 0 of lambda^{-s}.

    Finite inputs give the exact partial sum for any s.  Infinite generators
    require Re(s) > 1 and a Weyl-growth certificate `growth` = c meaning
    lambda_n >= c*n eventually; the integral-test tail bound stops the sum.
    """
    s = complex(s)
    if isinstance(eigenvalues, (list, tuple, np.ndarray)):
        lam = np.asarray([float(x) for x in eigenvalues])
        lam = lam[lam > 0]
        if lam.size == 0:
            return 0.0 + 0.0j
        return complex(np.sum(np.exp(-s * np.log(lam))))
    if s.real <= 1.0:
        raise DivergenceError(
            f"infinite spectra need Re(s) > 1, got Re(s) = {s.real}")
    if growth is None or growth <= 0:
        raise DomainError("infinite spectra need a Weyl-growth certificate "
                          "growth = c > 0 with lambda_n >= c*n")
    sigma = s.real
    total = 0.0 + 0.0j
    n = 0
    for lam in eigenvalues:
        lam = float(lam)
        n += 1
        if lam > 0:
            total += complex(np.exp(-s * math.log(lam)))
        if n >= 64 and lam >= growth * n:
            tail = growth ** (-sigma) * n ** (1.0 - sigma) / (sigma - 1.0)
            if tail < tol:
                return total
        if n > 10_000_000:
            break
    raise ConvergenceError("generator exhausted before the tail bound fell "
                           f"below {tol}")


def _inv_gamma_over(s: complex, alpha: float) -> complex:
    """1/(Gamma(s) (s + alpha)), stable at the removable points.

    For integer alpha = k >= 0 the zero of 1/Gamma at s = -k cancels the
    denominator; the recurrence form makes that cancellation explicit.
    """
    s = complex(s)
    k = round(alpha)
    if abs(alpha - k) < 1e-12 and k >= 0:
        K = max(k + 1, int(math.ceil(0.5 - s.real)) + 1)
        prod = 1.0 + 0.0j
        for j in range(0, K + 1):
            if j != k:
                prod *= (s + j)
        return prod * reciprocal_gamma(s + K + 1)
    if abs(s + alpha) < _POLE_EPS:
        raise PoleError(f"evaluation at the pole s = {-alpha}")
    return reciprocal_gamma(s) / (s + alpha)


def _kummer_tail(a: complex, x: complex, max_terms: int = 400) -> complex:
    """1 + sum_{m>=1} x^m / ((a+1)(a+2)...(a+m)); with the prefactor
    e^{-x} (split^a / (Gamma(s) a)) it yields the truncated-interval moment
    int_0^split t^{a-1} e^{-zt} dt / Gamma(s)."""
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for m in range(1, max_terms + 1):
        denom = a + m
        if abs(denom) < _POLE_EPS:
            raise PoleError(f"incomplete-gamma series pole at a = {-m}")
        term *= x / denom
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            return total
    raise ConvergenceError("incomplete-gamma series did not converge; "
                           f"|x| = {abs(x)} too large")


def _weighted_sub_term(s: complex, alpha: float, b: float, split: float,
                       z: complex) -> complex:
    """(1/Gamma(s)) * b * int_0^split t^{alpha+s-1} e^{-zt} dt."""
    if b == 0.0:
        return 0.0 + 0.0j
    a = s + alpha
    x = z * split
    return (b * split ** a * np.exp(-x) * _kummer_tail(a, x)
            * _inv_gamma_over(s, alpha))


def _normalize_terms(coefficients) -> list:
    """Normalize a coefficient spec into (power, value) pairs.

    Accepts HeatCoefficients, a plain sequence of floats (interpreted as the
    integer ladder starting at power -1), or explicit (power, value) pairs.
    """
    if coefficients is None:
        return []
    if isinstance(coefficients, HeatCoefficients):
        return coefficients.pairs()
    pairs = []
    for entry in coefficients:
        if np.isscalar(entry):
            pairs.append((len(pairs) - 1, float(entry)))
        else:
            pairs.append((float(entry[0]), float(entry[1])))
    return pairs


def _check_terms(trace: Callable, terms: list) -> None:
    """Check supplied expansion terms against the trace at small t.

    The remainder trace(t) - sum b_alpha t^alpha must fall off like
    t^{max alpha + 1}: that is what the remainder cutoff t_lo in
    `_continued_mellin` assumes when it drops the integral below t_lo.  On
    samples a factor 4 apart, the remainder may not keep shrinking by less
    than sqrt(4) * 4^{-(max alpha + 1)} per step while it lies above the
    noise level _CHECK_NOISE * max(1, |trace|).  A remainder that does so at
    every step raises ExpansionMismatchError carrying the remainder and the
    t where it was found.
    """
    if not terms:
        return
    n_rem = max(alpha for alpha, _ in terms) + 1.0
    t = np.asarray(_CHECK_TIMES)
    values = np.asarray(trace(t), dtype=float)
    remainder = values - sum(b * t ** alpha for alpha, b in terms)
    size = np.abs(remainder)
    noise = _CHECK_NOISE * max(1.0, float(np.max(np.abs(values))))
    step = t[0] / t[1]
    allowed = math.sqrt(step) * step ** (-n_rem)
    if all(r1 > max(noise, allowed * r0)
           for r0, r1 in zip(size[:-1], size[1:])):
        raise ExpansionMismatchError(
            f"supplied expansion leaves remainder {remainder[-1]:.6g} at "
            f"t = {t[-1]:.3g}, which does not fall off like "
            f"t^{n_rem:g}; check the coefficients against the trace",
            remainder=float(remainder[-1]), t=float(t[-1]))


def _continued_mellin(trace: Callable, s: complex, terms: list, c_M: float,
                      split: float, tol: float, tail_decay: float,
                      z: complex = 0.0) -> tuple:
    """Continued (1/Gamma(s)) int_0^inf [trace(t) - c_M] e^{-zt} t^{s-1} dt.

    Returns (value, pole_flag).  `terms` lists the subtracted small-time
    powers of the trace; the tail constant c_M is removed through its own
    power-0 term on [0, split] and directly on [split, inf).
    """
    s = complex(s)
    z = complex(z)
    total = 0.0 + 0.0j
    pole_flag = None
    for alpha, b in terms:
        if abs(alpha + 1.0) < 1e-12 and b != 0.0:
            pole_flag = (1.0, b)
            if abs(s - 1.0) < _POLE_EPS:
                raise PoleError(
                    f"zeta has a simple pole at s = 1 with residue {b}")
        total += _weighted_sub_term(s, alpha, b, split, z)
    if c_M != 0.0:
        total -= _weighted_sub_term(s, 0.0, c_M, split, z)

    rg = reciprocal_gamma(s)

    def low_integrand(t: np.ndarray):
        base = np.asarray(trace(t), dtype=float) + 0.0j
        for alpha, b in terms:
            if b != 0.0:
                base = base - b * t ** alpha
        w = np.exp((s - 1.0) * np.log(t))
        if z != 0.0:
            w = w * np.exp(-z * t)
        return base * w

    # Left of Re(s) = 1/2 the remainder integral starts at a cutoff t_lo
    # below which the true remainder O(t^{n_rem}) contributes under tol;
    # integrating fitted coefficients all the way to 0 would otherwise
    # accumulate their (formally divergent) sub-tolerance mismatch.
    t_lo = 0.0
    if terms and s.real < 0.5:
        n_rem = max(alpha for alpha, _ in terms) + 1.0
        exponent = n_rem + s.real
        if exponent > 0:
            t_lo = min(1e-4, tol ** (1.0 / exponent), 0.01 * split)
    low = integrate_finite(low_integrand, t_lo, split, tol)
    total += rg * low.value

    def high_integrand(x: np.ndarray):
        t = split + x
        base = np.asarray(trace(t), dtype=float) - c_M + 0.0j
        w = np.exp((s - 1.0) * np.log(t))
        if z != 0.0:
            w = w * np.exp(-z * t)
        return base * w

    decay = max(tail_decay + z.real, 1e-3)
    high = integrate_semi_infinite(high_integrand, decay=decay, tol=tol)
    total += rg * high.value
    return total, pole_flag


def heat_coefficients(trace: Callable, n: int, *, t_min: float = 2e-4,
                      t_max: float = 8e-3, points: int = 32) -> HeatCoefficients:
    """Fit t*trace(t) by a polynomial on a small-t grid and return its first
    n + 2 coefficients b_{-1}, b_0, ..., b_n.

    The degree is picked from the residual: it starts at n + 1 and rises
    while the max residual on the grid keeps falling, until the residual
    reaches the rounding floor 64 eps max|t trace(t)| or the next
    Vandermonde matrix would pass cond 1e12.  A fit cut off at degree n + 1
    leaves the higher powers of the trace in its low coefficients.  A
    residual that stops above the floor raises FitError carrying the best
    coefficients and their residual.

    The default window [2e-4, 8e-3] keeps geodesic contributions
    e^{-l^2/4t} below 1e-13 for l >= 1.  The fit runs in the scaled variable
    t/t_max for conditioning.
    """
    if n < 0:
        raise DomainError(f"coefficient count must be >= 0, got {n}")
    if not 0 < t_min < t_max:
        raise DomainError("need 0 < t_min < t_max")
    grid = np.linspace(t_min, t_max, points)
    samples = np.asarray([float(trace(float(t))) * float(t) for t in grid])
    floor = _FIT_FLOOR * float(np.max(np.abs(samples)))
    best = None
    for degree in range(n + 1, max(points, n + 2)):
        vander = np.vander(grid / t_max, degree + 1, increasing=True)
        cond = np.linalg.cond(vander)
        if cond > 1e12:
            if best is None:
                raise FitError(f"heat-coefficient fit ill conditioned "
                               f"(cond={cond:.3g}); reduce the degree or "
                               "widen the grid")
            break
        coeffs, *_ = np.linalg.lstsq(vander, samples, rcond=None)
        residual = float(np.max(np.abs(vander @ coeffs - samples)))
        if best is not None and residual >= best[1]:
            break
        best = (coeffs, residual)
        if residual <= floor:
            break
    coeffs, residual = best
    fit = HeatCoefficients(b=tuple(c / t_max ** k
                                   for k, c in enumerate(coeffs[:n + 2])))
    if residual > floor:
        raise FitError(f"heat-coefficient fit stalls at residual "
                       f"{residual:.3g} above its floor {floor:.3g} "
                       f"(degree {len(coeffs) - 1})",
                       coefficients=fit, residual=residual)
    return fit


def fit_trace_expansion(trace: Callable, powers, *, known=(),
                        t_min: float = 2e-4, t_max: float = 8e-3,
                        points: int = 32) -> list:
    """Least-squares small-time expansion over an explicit power set.

    `known` lists (power, coefficient) pairs fixed analytically (for example
    the exact 1/t coefficient vol/4pi of a surface trace); they are
    subtracted before fitting the remaining `powers`.  Powers absent from
    both lists are asserted zero rather than fitted, which matters for
    continuation left of Re(s) = 0: a spuriously fitted 1/t term of size
    1e-12 makes the remainder integral divergent there.
    """
    powers = [float(p) for p in powers]
    known = [(float(p), float(c)) for p, c in known]
    grid = np.linspace(t_min, t_max, points)
    samples = np.asarray([float(trace(float(t))) for t in grid])
    for p, c in known:
        samples = samples - c * grid ** p
    if not powers:
        return sorted(known)
    scale = t_max
    design = np.column_stack([(grid / scale) ** p for p in powers])
    cond = np.linalg.cond(design)
    if cond > 1e12:
        raise FitError(f"expansion fit ill conditioned (cond={cond:.3g})")
    coeffs, *_ = np.linalg.lstsq(design, samples, rcond=None)
    fitted = [(p, float(c) / scale ** p) for p, c in zip(powers, coeffs)]
    return sorted(known + fitted)


def _ladder_terms(trace, n_subtractions: int, coefficients) -> list:
    if coefficients is None:
        fit = heat_coefficients(trace, max(n_subtractions, 0))
        return fit.pairs(n_subtractions + 1)
    if isinstance(coefficients, HeatCoefficients):
        return coefficients.pairs(n_subtractions + 1)
    return _normalize_terms(coefficients)


def spectral_zeta_mellin(trace: Callable, c_M: float, s, n_subtractions: int = 0,
                         *, coefficients=None, split: float = 1.0,
                         tol: float = 1e-12,
                         tail_decay: float = 0.25) -> ZetaEvaluation:
    """Spectral zeta as the continued Mellin transform of the trace.

    c_M is the t -> infinity limit of the trace (the zero-mode count for a
    genuine spectral trace).  n_subtractions = n subtracts the expansion
    terms b_{-1}, ..., b_{n-1}, valid for Re(s) + n > 0; coefficients may be
    a HeatCoefficients fit, a float ladder, or explicit (power, value) pairs
    (fitted from the trace when omitted).  Supplied coefficients are checked
    against the trace at small t (ExpansionMismatchError on a mismatch).
    """
    s = complex(s)
    if n_subtractions < 0:
        raise DomainError("n_subtractions must be >= 0")
    terms = _ladder_terms(trace, n_subtractions, coefficients)
    is_ladder = terms and all(abs(a - round(a)) < 1e-12 for a, _ in terms)
    if (coefficients is None or is_ladder) and s.real + n_subtractions <= 0:
        raise InsufficientSubtractionsError(
            f"Re(s) + n_subtractions = {s.real + n_subtractions} <= 0; "
            "deepen the subtraction to continue this far left")
    if coefficients is not None:
        _check_terms(trace, terms)
    value, pole_flag = _continued_mellin(trace, s, terms, c_M, split, tol,
                                         tail_decay)
    return ZetaEvaluation(s=s, value=value, n_subtractions=n_subtractions,
                          pole_flag=pole_flag)


def _adjust_terms_for_modes(terms: list, lambdas) -> list:
    """Shift the supplied expansion coefficients for subtracted modes:
    removing e^{-lambda t} changes b_p by -(-lambda)^p / p! for each
    supplied integer power p >= 0.

    Powers the caller did not supply stay absent.  Adding mode-only terms
    above the supplied powers would claim a remainder of higher order than
    the truncated trace has, and the remainder cutoff t_lo would then drop
    a piece that matters.
    """
    lambdas = [float(x) for x in lambdas]
    adjusted = []
    for a, b in terms:
        p = round(a)
        if abs(a - p) < 1e-12 and p >= 0:
            b -= sum((-lam) ** p / math.factorial(p) for lam in lambdas)
        adjusted.append((float(a), b))
    return adjusted


def _distinct_positive(eigenvalues) -> list:
    out = []
    for lam in sorted(float(x) for x in eigenvalues):
        if lam > 0 and (not out or lam > out[-1] + 1e-12):
            out.append(lam)
    return out


def hurwitz_zeta(spectral_input, s, z, *, stage: int = 0, c_M: float = 1.0,
                 coefficients=None, n_subtractions: int = 0,
                 tol: float = 1e-12, tail_decay: float = 0.25) -> complex:
    """Shifted zeta sum over lambda > 0 of (z + lambda)^{-s}.

    Finite spectra: stage 0 evaluates the sum directly; stage k >= 1 splits
    off the eigenvalues up to the k-th distinct positive one and transforms
    the shifted tail trace, valid for Re(z) > -lambda_k (strip-violation
    error outside).  Trace providers use the Laplace-Mellin transform and
    require Re(z) > 0 (continuation proceeds in s at fixed z).
    """
    s = complex(s)
    z = complex(z)
    if callable(spectral_input):
        if stage != 0:
            raise StripViolationError(
                "trace input supports only stage 0 (Re(z) > 0)")
        if z.real <= 0 and z != 0:
            raise StripViolationError(
                f"trace input needs Re(z) > 0, got {z}")
        if coefficients is not None:
            terms = _normalize_terms(coefficients)
            _check_terms(spectral_input, terms)
        else:
            terms = heat_coefficients(spectral_input,
                                      max(n_subtractions, 0)).pairs(
                                          n_subtractions + 1)
        value, _ = _continued_mellin(spectral_input, s, terms, c_M, 1.0, tol,
                                     tail_decay, z=z)
        return complex(value)

    lams = [float(x) for x in spectral_input]
    positive = [lam for lam in lams if lam > 0]
    if stage == 0:
        return complex(sum(np.exp(-s * np.log(complex(z + lam)))
                           for lam in positive))
    distinct = _distinct_positive(lams)
    if stage > len(distinct):
        raise StripViolationError(
            f"stage {stage} exceeds the {len(distinct)} distinct positive "
            "eigenvalues available")
    shift = distinct[stage - 1]
    if z.real <= -shift:
        raise StripViolationError(
            f"stage {stage} certifies Re(z) > {-shift}, got Re(z) = {z.real}")
    head = sum(np.exp(-s * np.log(complex(z + lam)))
               for lam in positive if lam <= shift + 1e-12)
    tail_lams = [lam for lam in positive if lam > shift + 1e-12]
    if not tail_lams:
        return complex(head)
    gaps = np.asarray([lam - shift for lam in tail_lams])

    def tail_trace(t: np.ndarray):
        tt = np.asarray(t, dtype=float)
        return np.sum(np.exp(-np.outer(tt.ravel(), gaps)), axis=1).reshape(tt.shape)

    value, _ = _continued_mellin(tail_trace, s, [], 0.0, 1.0, tol,
                                 tail_decay=float(gaps.min()),
                                 z=z + shift)
    return complex(head + value)


def truncated_zeta(spectral_input, alpha: float, s, *,
                   small_eigenvalues=(), c_M: float = 0.0,
                   coefficients=None, n_subtractions: int = 0,
                   tol: float = 1e-12, tail_decay: float = 0.25) -> complex:
    """Zeta with eigenvalues at or below alpha removed.

    Finite spectra: the partial sum over lambda > alpha.  Trace providers:
    the listed small eigenvalues <= alpha are subtracted from the trace and
    the Mellin machinery runs on the remainder.  c_M is the tail constant
    (t -> infinity limit) of the *full* trace, as in spectral_zeta_mellin;
    each subtracted zero mode is removed from it here.  Supplied
    coefficients describe the full trace too: their integer powers p >= 0
    are shifted for the subtracted modes and the result is checked against
    the truncated trace at small t.
    """
    if not 0.0 < alpha < 0.25:
        raise DomainError(f"alpha must lie in (0, 1/4), got {alpha}")
    s = complex(s)
    if callable(spectral_input):
        subtracted = [lam for lam in small_eigenvalues
                      if abs(lam - alpha) < 1e-12]
        if subtracted:
            raise AlphaCollisionError(
                f"alpha = {alpha} collides with eigenvalue {subtracted[0]}")
        subs = [float(lam) for lam in small_eigenvalues if lam <= alpha]

        def trace(t: np.ndarray):
            base = np.asarray(spectral_input(t), dtype=float)
            for lam in subs:
                base = base - np.exp(-lam * np.asarray(t, dtype=float))
            return base

        if coefficients is not None:
            terms = _adjust_terms_for_modes(_normalize_terms(coefficients), subs)
            _check_terms(trace, terms)
        else:
            terms = heat_coefficients(trace, max(n_subtractions, 0)).pairs(
                n_subtractions + 1)
        c_M_eff = c_M - sum(1.0 for lam in subs if lam == 0.0)
        positive = [lam for lam in subs if lam > 0]
        tail_eff = min([tail_decay] + positive)
        value, _ = _continued_mellin(trace, s, terms, c_M_eff, 1.0, tol,
                                     tail_eff)
        return complex(value)
    lams = [float(x) for x in spectral_input]
    for lam in lams:
        if abs(lam - alpha) < 1e-12:
            raise AlphaCollisionError(
                f"alpha = {alpha} collides with eigenvalue {lam}")
    return spectral_zeta_series([lam for lam in lams if lam > alpha], s)


def _zeta_callable_for_det(spectral_input, c_M, coefficients, n_subtractions,
                           tol, tail_decay) -> Callable:
    if callable(spectral_input):
        if coefficients is not None:
            terms = _normalize_terms(coefficients)
            _check_terms(spectral_input, terms)
        else:
            terms = heat_coefficients(spectral_input,
                                      max(n_subtractions, 1)).pairs(
                                          n_subtractions + 1)

        def zeta(s: complex) -> complex:
            value, _ = _continued_mellin(spectral_input, s, terms, c_M, 1.0,
                                         tol, tail_decay)
            return complex(value)

        return zeta
    lams = [float(x) for x in spectral_input]
    return lambda s: spectral_zeta_series(lams, s)


def _derivative_at_zero(fn: Callable, h: float) -> float:
    """Richardson-refined central difference of fn at 0."""
    d1 = (fn(h) - fn(-h)) / (2.0 * h)
    d2 = (fn(h / 2.0) - fn(-h / 2.0)) / h
    return float(np.real((4.0 * d2 - d1) / 3.0))


def det_laplacian(spectral_input, *, c_M: float = 1.0, coefficients=None,
                  n_subtractions: int = 1, h: float = 1e-4,
                  tol: float = 1e-12, tail_decay: float = 0.25) -> float:
    """Regularized determinant exp(-zeta'(0)).

    zeta'(0) is a Richardson-refined central difference of the continued
    zeta at s = +-h.  Finite spectra use the entire Dirichlet sum; trace
    providers run the Mellin machinery (n_subtractions >= 1 so s = -h stays
    inside the continued region); supplied coefficients are checked against
    the trace once, at small t (ExpansionMismatchError on a mismatch).
    """
    if n_subtractions < 1 and callable(spectral_input):
        raise InsufficientSubtractionsError(
            "determinant evaluation needs n_subtractions >= 1")
    zeta = _zeta_callable_for_det(spectral_input, c_M, coefficients,
                                  n_subtractions, tol, tail_decay)
    zprime = _derivative_at_zero(zeta, h)
    return math.exp(-zprime)


def mellin_regularized_integral(trace: Callable, *, c_M: float = 0.0,
                                coefficients=None, n_subtractions: int = 1,
                                h: float = 1e-4, tol: float = 1e-12,
                                tail_decay: float = 0.25) -> float:
    """Regularized value of int_0^inf trace(t) dt/t.

    Defined as d/ds[(1/Gamma(s)) int trace t^{s-1} dt] at s = 0, which equals
    the literal integral whenever it converges and extends it (finite part)
    when the trace does not vanish at t = 0.
    """
    zeta = _zeta_callable_for_det(trace, c_M, coefficients, n_subtractions,
                                  tol, tail_decay)
    return _derivative_at_zero(zeta, h)


def log_det_truncated(trace: Callable, small_eigenvalues, alpha: float, *,
                      c_M: float = 0.0, coefficients=None,
                      n_subtractions: int = 1, h: float = 1e-4,
                      tol: float = 1e-12, tail_decay: float = 0.25) -> float:
    """log det of the Laplacian with modes <= alpha removed:
    -(d/ds) at 0 of the continued Mellin transform of the truncated trace.

    Supplied coefficients describe the full trace; the supplied integer
    powers p >= 0 are shifted for the removed modes (no other powers are
    added), and the result is checked against the truncated trace at small
    t, raising ExpansionMismatchError on a mismatch.
    """
    if not 0.0 < alpha < 0.25:
        raise DomainError(f"alpha must lie in (0, 1/4), got {alpha}")
    for lam in small_eigenvalues:
        if abs(lam - alpha) < 1e-12:
            raise AlphaCollisionError(
                f"alpha = {alpha} collides with eigenvalue {lam}")
    subs = [float(lam) for lam in small_eigenvalues if lam <= alpha]

    def truncated(t: np.ndarray):
        base = np.asarray(trace(t), dtype=float)
        for lam in subs:
            base = base - np.exp(-lam * np.asarray(t, dtype=float))
        return base

    if coefficients is not None:
        coefficients = _adjust_terms_for_modes(_normalize_terms(coefficients),
                                               subs)
    c_M_eff = c_M - sum(1.0 for lam in subs if lam == 0.0)
    positive = [lam for lam in subs if lam > 0]
    tail_eff = min([tail_decay] + positive)
    return -mellin_regularized_integral(
        truncated, c_M=c_M_eff, coefficients=coefficients,
        n_subtractions=n_subtractions, h=h, tol=tol, tail_decay=tail_eff)


def _difference_trace_parts(family: DegeneratingFamily, alpha: float) -> tuple:
    """Volume-independent decomposition of Str^(alpha) - DTr across a family.

    The degenerating elliptic part cancels exactly, so the member trace is
    common(t) + vol_member * K(t, 0) - sum of e^{-lambda t} over the positive
    truncated modes, with common = HTr + ETr(kept cones) - (zero modes).
    Returns (common, kernel0, c_M, modes), shared by every member; only the
    Gauss-Bonnet volume varies down the schedule.

    The positive modes stay out of `common`: their continued transform is
    the closed form (lambda + z)^{-s}.  Left in, their slow e^{-lambda t}
    tail would set the decay of the tail integral, whose size then grows
    like Gamma(Re s)/lambda^{Re s} beyond any absolute tolerance.  Without
    them `common` decays like e^{-t/4}, the tail decay the transforms use.
    """
    template = family.template
    for lam in template.small_eigenvalues:
        if abs(lam - alpha) < 1e-12:
            raise AlphaCollisionError(
                f"alpha = {alpha} collides with eigenvalue {lam}")
    subs = [lam for lam in template.small_eigenvalues if lam <= alpha]
    zero_modes = sum(1 for lam in subs if lam == 0.0)
    kept = template.kept_orders
    lengths = template.length_spectrum

    @lru_cache(maxsize=16384)
    def common_scalar(t: float) -> float:
        val = hyperbolic_trace(lengths, t)
        if kept:
            val += elliptic_trace_u(kept, t)
        return val - zero_modes

    @lru_cache(maxsize=16384)
    def kernel0_scalar(t: float) -> float:
        return heat_kernel_h(t, 0.0)

    def vectorize(fn):
        def call(t):
            arr = np.asarray(t, dtype=float)
            if arr.ndim == 0:
                return fn(float(arr))
            return np.asarray([fn(float(x)) for x in arr.ravel()]).reshape(arr.shape)
        return call

    modes = [float(lam) for lam in subs if lam > 0]
    return (vectorize(common_scalar), vectorize(kernel0_scalar),
            -float(zero_modes), modes)


def _direct_member_value(family, alpha, k, s, n_subtractions, tol):
    """Two-term route: truncated zeta of the member minus the Mellin
    transform of its degenerating trace, each continued separately."""
    member = family.member(k)
    from .traces import standard_trace, degenerating_trace

    def full_trace(t):
        arr = np.asarray(t, dtype=float)
        if arr.ndim == 0:
            return standard_trace(member, float(arr))
        return np.asarray([standard_trace(member, float(x)) for x in arr])

    # c_M = 0 is the tail of the geometric-side trace itself; truncated_zeta
    # accounts for the subtracted modes' tail on its own
    tz = truncated_zeta(full_trace, alpha, s,
                        small_eigenvalues=member.small_eigenvalues,
                        c_M=0.0, n_subtractions=n_subtractions, tol=tol)

    def dtr(t):
        arr = np.asarray(t, dtype=float)
        if arr.ndim == 0:
            return degenerating_trace(member, float(arr))
        return np.asarray([degenerating_trace(member, float(x)) for x in arr])

    dval, _ = _continued_mellin(dtr, complex(s), [], 0.0, 1.0, tol, 0.25)
    return complex(tz - dval)


def degeneration_subtraction_zeta(family: DegeneratingFamily, alpha: float,
                                  s, *, mode: str = "zeta",
                                  z: complex | None = None,
                                  route: str = "difference",
                                  n_subtractions: int = 1,
                                  tol: float = 1e-12) -> list:
    """Regularized zeta-type values across a degenerating schedule.

    Per member: the truncated transform of the standard trace minus the
    transform of the degenerating trace.  mode selects the transform:
    "zeta" (Mellin at s), "hurwitz" (Laplace-Mellin at (s, z), Re z > 0),
    "logdet" (minus the s-derivative at 0, i.e. the truncated log
    determinant plus the regularized degenerating integral).

    route="difference" (the default) transforms the member-independent
    traces once and takes the removed positive modes in closed form;
    route="direct" (zeta mode only) transforms each member separately.

    Returns rows (prod q_gamma, value); convergence of the paper-style limit
    shows up as Cauchy-shrinking differences down the rows.
    """
    if not 0.0 < alpha < 0.25:
        raise DomainError(f"alpha must lie in (0, 1/4), got {alpha}")
    if mode not in ("zeta", "hurwitz", "logdet"):
        raise DomainError(f"unknown mode '{mode}'")
    if mode == "hurwitz":
        if z is None or complex(z).real <= 0:
            raise StripViolationError("hurwitz mode needs Re(z) > 0")
    qprods = []
    for row in family.schedule:
        qprod = 1.0
        for q in row:
            qprod *= q
        qprods.append(qprod)

    if route == "direct":
        if mode != "zeta":
            raise DomainError("direct route implemented for mode='zeta'")
        return [(qprods[k],
                 _direct_member_value(family, alpha, k, s, n_subtractions, tol))
                for k in range(len(family))]

    # The transform is linear in the trace and the member trace is
    # common + vol * K(.,0), so two continued transforms cover the whole
    # schedule; the values are identical to the member-by-member route.
    common, kernel0, c_M, modes = _difference_trace_parts(family, alpha)
    # common has no 1/t part (no identity term); the plane kernel's 1/t
    # coefficient is exactly 1/(4 pi)
    n_fit = max(n_subtractions, 3)
    common_terms = fit_trace_expansion(common, range(0, n_fit + 1))
    kernel_terms = fit_trace_expansion(
        kernel0, range(0, n_fit + 1),
        known=((-1.0, 1.0 / (4.0 * math.pi)),))
    zz = 0.0 if mode == "zeta" else (complex(z) if mode == "hurwitz" else 0.0)

    def eval_parts(sv: complex) -> tuple:
        a, _ = _continued_mellin(common, sv, common_terms, c_M, 1.0, tol,
                                 0.25, z=zz)
        b, _ = _continued_mellin(kernel0, sv, kernel_terms, 0.0, 1.0, tol,
                                 0.25, z=zz)
        return a, b

    if mode in ("zeta", "hurwitz"):
        sv = complex(s)
        a, b = eval_parts(sv)
        # the removed modes -e^{-lambda t} continue to -(lambda + z)^{-s}
        a -= sum(np.exp(-sv * np.log(lam + zz)) for lam in modes)
        return [(qprods[k], complex(a + family.member(k).volume * b))
                for k in range(len(family))]

    h = 1e-4
    samples = {sv: eval_parts(complex(sv))
               for sv in (h, -h, h / 2.0, -h / 2.0)}

    def deriv(pick) -> float:
        d1 = (pick(samples[h]) - pick(samples[-h])) / (2.0 * h)
        d2 = (pick(samples[h / 2.0]) - pick(samples[-h / 2.0])) / h
        return float(np.real((4.0 * d2 - d1) / 3.0))

    # d/ds of the removed modes' -lambda^{-s} at s = 0 is log(lambda)
    da = deriv(lambda ab: ab[0]) + sum(math.log(lam) for lam in modes)
    db = deriv(lambda ab: ab[1])
    return [(qprods[k], -(da + family.member(k).volume * db))
            for k in range(len(family))]
