"""Spectral zeta, Hurwitz zeta, heat coefficients, and the regularized
determinant of the Laplacian.

The spectral zeta function is the Mellin transform of the heat trace minus
its tail constant.  Meromorphic continuation subtracts each small-time term
b_alpha t^alpha of the trace as b_alpha t^alpha e^{-t} P(t), P a Taylor
polynomial of e^t, which transforms in closed form to a sum of ratios
Gamma(s+alpha+j)/Gamma(s); the remainder is one exp-sinh integral over
(0, inf) (_continued_mellin).  The same core handles the Laplace-Mellin
(Hurwitz) transform, e^{-zt} in the weight, and the regularized determinant
exp(-zeta'(0)): 1/Gamma has slope 1 at its zero s = 0, so zeta'(0) is the
added part's slope, in closed form, plus the remainder integral at s = 0.
That route serves opaque traces and finite spectra, all set up one way:
one truncation (_truncation) removes the listed modes lambda <= alpha, and
one rule (_expansion_terms) gives the subtracted terms.  It is the only
Mellin integral here: a surface's HTr + ETr go through it too, with their
exact b_0 (_geodesic_cone_zeta), the error judged in the value's units, so
that at large |Im s| it raises QuadratureError.  The rest of a surface goes
term by term (surface_zeta, surface_log_det): the identity term and
zeta'(0) have exact transforms, so nothing there is fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammainc, gammaincc

from .errors import (ConvergenceError, DivergenceError, DomainError,
                     ExpansionMismatchError, FitError,
                     InsufficientSubtractionsError, NonFiniteIntegrandError,
                     PoleError, QuadratureError, StripViolationError)
from .geometry import DegeneratingFamily, SurfaceData
# unused here: bench/tracing.py wraps heat_kernel_h at this binding
from .hplane import heat_kernel_h
# integrate_finite is unused here: bench/tracing.py wraps it at this binding
from .special_fn import (as_array_fn, integrate_finite, integrate_semi_infinite,
                         log_gamma, reciprocal_gamma)
from .traces import (_cone_series, _removed_eigenvalues, elliptic_trace_u,
                     geodesic_sum, hyperbolic_trace)

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
    "surface_zeta",
    "surface_log_det",
    "degeneration_subtraction_zeta",
]

_POLE_EPS = 1e-9
_EPS = float(np.finfo(float).eps)
# residual floor of the heat-coefficient fit, in units of max|t trace(t)|
_FIT_FLOOR = 64.0 * np.finfo(float).eps
# small-t samples, a factor 4 apart, on which supplied coefficients are
# checked, and the remainder level (relative to the trace there) taken as
# the rounding and fitting noise of the check
_CHECK_TIMES = (1e-3, 2.5e-4, 6.25e-5)
_CHECK_NOISE = 1e-10
# zeta_R'(-1) of the Riemann zeta function, in the identity term's zeta'(0)
_ZETA_PRIME_MINUS_ONE = -0.16542114370045092921


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


def _normalize_terms(coefficients) -> list:
    """Normalize a coefficient spec into (power, value) pairs.

    Accepts HeatCoefficients, a plain sequence of floats (interpreted as the
    integer ladder starting at power -1), or explicit (power, value) pairs.
    """
    if isinstance(coefficients, HeatCoefficients):
        return coefficients.pairs()
    pairs = []
    for entry in coefficients:
        pairs.append((len(pairs) - 1, float(entry)) if np.isscalar(entry)
                     else (float(entry[0]), float(entry[1])))
    return pairs


def _check_terms(trace: Callable, terms: list) -> None:
    """Check supplied expansion terms against the trace at small t.

    The remainder trace(t) - sum b_alpha t^alpha must fall off like
    t^{max alpha + 1}, the order `_continued_mellin` sets its subtractions
    to and integrates against t^{s-1} at t -> 0.  On samples a factor 4
    apart, the remainder may not keep shrinking by less
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


def _gamma_ratio(s: complex, a: float) -> complex:
    """Gamma(s + a)/Gamma(s), PoleError within _POLE_EPS of a pole.  An
    integer shift a = m is the polynomial s (s+1) ... (s+m-1), or for m < 0
    the reciprocal of (s-1) ... (s+m), exact at the zero s = 0 and the pole
    s = 1; otherwise s is raised by n so that both Gammas take Re > 1/2."""
    m = round(a)
    integer = abs(a - m) < 1e-12
    n = 0 if integer else max(0, math.ceil(0.5 - min(s.real, s.real + a)))
    for pole in range(1, 1 - m) if integer else [-a - j for j in range(n)]:
        if abs(s - pole) < _POLE_EPS:
            raise PoleError(f"Gamma(s + {a:g}) has a pole at s = {pole:g}")
    if integer:
        return complex(math.prod((s + j for j in range(m)), start=1.0)
                       / math.prod((s - j for j in range(1, 1 - m)), start=1))
    return complex(np.exp(log_gamma(s + a + n) - log_gamma(s + n))
                   * math.prod(((s + j) / (s + a + j) for j in range(n)),
                               start=1.0))


def _gamma_ratio_slope(a: float) -> float:
    """d/ds Gamma(s + a)/Gamma(s) at s = 0: Gamma(a), but at a = -m, m = 0,
    1, ..., the ratio 1/((s-1) ... (s-m)) at 0 times the harmonic H_m."""
    m = round(a)
    if abs(a - m) < 1e-12 and m <= 0:
        return _gamma_ratio(0j, a).real * sum(1.0 / j for j in range(1, 1 - m))
    return math.gamma(a)


def _continued_mellin(trace: Callable, s: complex, terms: list, c_M: float,
                      tol: float, tail_decay: float, z: complex = 0.0,
                      removed=(), *, slope: bool = False) -> tuple:
    """Continued (1/Gamma(s)) int_0^inf [trace(t) - c_M] e^{-zt} t^{s-1} dt
    and the pole flag; with slope, its s-derivative at s = z = 0.

    `terms` match the trace to O(t^{n_rem}), n_rem = max alpha + 1, and
    -c_M is one more power 0.  Each b_alpha t^alpha is subtracted as
    b_alpha t^alpha e^{-t} P_k(t), P_k the degree k - 1 Taylor polynomial
    of e^t, k = max(1, ceil(n_rem - alpha)), and added back as b_alpha
    sum_{j<k} Gamma(s+alpha+j)/(j! Gamma(s)) (1+z)^{-(s+alpha+j)}.  The
    rest is one exp-sinh integral to tol/(2 max(1, |1/Gamma(s)|)), written
    below t = 1 with the regularized incomplete gamma P(k, t) so that it is
    clean where the trace equals its expansion.  n_rem + Re s <= 0 raises
    InsufficientSubtractionsError before the trace is called.  The slope
    takes (1/Gamma)'(0) = 1 for 1/Gamma(s) and _gamma_ratio_slope's ratios.

    Counted in its error: the rounding eps sum |b_alpha t^alpha| of the
    subtraction below t = 1; above, for `removed` modes (_truncation), eps
    (|trace| + sum e^{-lambda t}), trace - c_M within 8 times that taken
    as 0; and below t_lo <= 1e-4, where alpha + Re s <= 0 makes that
    rounding non-integrable and the first bracket is taken as its value at
    t_lo times (t/t_lo)^{n_rem}, the rounding at t_lo and the next power
    c t^{n_rem + 1}, seen at 4 t_lo.  t_lo is the larger of tol^{1/(n_rem +
    Re s)} and the t above which the rounding integrates to a quarter of
    the integral's tolerance.  QuadratureError carries value and error when
    max(1, |1/Gamma(s)|) times the error passes tol: where |1/Gamma(s)| < 1
    the error stays in the integral's units."""
    s, z = complex(s), complex(z)
    assert not slope or s == z == 0.0, "the slope is taken at s = z = 0"
    n_rem = max((alpha for alpha, _ in terms), default=-1.0) + 1.0
    if n_rem + s.real <= 0.0:
        raise InsufficientSubtractionsError(
            f"Re(s) + max alpha + 1 = {s.real + n_rem:g} <= 0; deepen the "
            "subtraction to continue this far left")
    trace = as_array_fn(trace)
    expansion = [(alpha, b) for alpha, b in terms if b != 0.0]
    pole_flag = next(((1.0, b) for alpha, b in expansion
                      if abs(alpha + 1.0) < 1e-12), None)
    if pole_flag and abs(s - 1.0) < _POLE_EPS:
        raise PoleError(f"zeta has a simple pole at s = 1 with residue "
                        f"{pole_flag[1]}")
    subtracted = [(alpha, b, max(1, math.ceil(n_rem - alpha - 1e-9)))
                  for alpha, b in expansion + [(0.0, -c_M)] if b != 0.0]
    # PoleError at the other poles of the Gamma(s + alpha + j)
    added_ratio = _gamma_ratio_slope if slope else (
        lambda a: _gamma_ratio(s, a) * np.exp(-(s + a) * np.log(1.0 + z)))
    added = sum(b * added_ratio(alpha + j) / math.factorial(j)
                for alpha, b, k in subtracted for j in range(k))
    rg = 1.0 if slope else reciprocal_gamma(s)
    tol_int = 0.5 * tol / max(1.0, abs(rg))
    t_lo = 0.0
    for alpha, b in expansion:
        x, ratio = alpha + s.real, 0.25 * tol_int / (_EPS * abs(b))
        if x <= 0.0:
            t_lo = max(t_lo, tol ** (1.0 / max(n_rem + s.real, _EPS)),
                       math.exp(math.log1p(-x * ratio) / x if x else -ratio))
    t_lo, rem_lo, error = min(t_lo, 1e-4), 0.0, 0.0
    if t_lo:
        at = np.array([t_lo, 4.0 * t_lo])
        rem_lo, rem_4 = np.asarray(trace(at), dtype=float) - sum(
            b * at ** alpha for alpha, b in expansion)
        x, step = n_rem + s.real, 4.0 ** n_rem
        error = t_lo ** s.real / x * (
            abs(rem_4 - step * rem_lo) / (3.0 * step * (x + 1.0))
            + _EPS * sum(abs(b) * t_lo ** alpha for alpha, b in expansion))
    rounding = []  # (t, |weight t| times the rounding kept there)

    def integrand(t: np.ndarray):
        values = np.asarray(trace(t), dtype=float)
        weight = np.exp((s - 1.0) * np.log(t) - z * t)
        low = t < 1.0
        tl, th = t[low], t[~low]
        powers = [b * tl ** alpha for alpha, b in expansion]
        rem, model = values[low] - sum(powers), tl < t_lo
        if t_lo:
            rem = np.where(model, rem_lo * (tl / t_lo) ** n_rem, rem)
        kept = np.zeros(t.shape)
        kept[low] = np.where(model, 0.0, _EPS * sum(map(np.abs, powers)))
        high = values[~low] - c_M
        if removed:
            noise = _EPS * (np.abs(values[~low])
                            + sum(np.exp(-lam * th) for lam in removed))
            high = np.where(np.abs(high) > 8.0 * noise, high, 0.0)
            kept[~low] = np.where(high != 0.0, noise, 0.0)
        for alpha, b, k in subtracted:
            rem = rem + b * tl ** alpha * gammainc(k, tl)
            high = high - b * th ** alpha * gammaincc(k, th)
        out = np.empty(t.shape, dtype=complex)
        out[low], out[~low] = rem, high
        rounding.append((t, kept * np.abs(weight * t)))
        return out * weight

    try:
        res = integrate_semi_infinite(
            integrand, decay=max(min(tail_decay, 1.0) + z.real, 1e-3),
            tol=tol_int, rule="exp-sinh")
    except NonFiniteIntegrandError:
        raise
    except QuadratureError as exc:
        res = exc  # its last level, judged like a result below
    t, y = (np.concatenate(part) for part in zip(*rounding))
    order = np.argsort(t)
    error += res.error_estimate + float(np.trapezoid(y[order],
                                                     np.log(t[order])))
    total, error = added + rg * res.value, max(1.0, abs(rg)) * error
    if error > tol:
        raise QuadratureError(
            f"continued Mellin transform at s = {s}: error estimate "
            f"{error:.3g} > tol {tol:.3g}", value=total, error_estimate=error)
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
    samples = np.asarray(as_array_fn(trace)(grid), dtype=float) * grid
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
    samples = np.asarray(as_array_fn(trace)(grid), dtype=float)
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


def _expansion_terms(trace: Callable, coefficients, n_subtractions: int,
                     removed=()) -> list:
    """The small-time terms a transform of `trace` subtracts: without
    coefficients, the first n_subtractions + 1 of a heat_coefficients fit;
    else all supplied ones (a HeatCoefficients counts as its float ladder),
    which describe the trace before the `removed` modes were taken out, so
    they are shifted for those modes and checked against `trace`."""
    if coefficients is None:
        return heat_coefficients(trace, n_subtractions).pairs(n_subtractions + 1)
    terms = _adjust_terms_for_modes(_normalize_terms(coefficients), removed)
    _check_terms(trace, terms)
    return terms


def spectral_zeta_mellin(trace: Callable, c_M: float, s, n_subtractions: int = 0,
                         *, coefficients=None, tol: float = 1e-12,
                         tail_decay: float = 0.25) -> ZetaEvaluation:
    """Spectral zeta as the continued Mellin transform of the trace.

    c_M is the t -> infinity limit of the trace (the zero-mode count for a
    genuine spectral trace).  n_subtractions = n subtracts the expansion
    terms b_{-1}, ..., b_{n-1}, fitted from the trace when coefficients are
    omitted.  Supplied coefficients, a HeatCoefficients fit, a float ladder
    or explicit (power, value) pairs, are subtracted in full, whatever n, and
    checked against the trace at small t (ExpansionMismatchError on a
    mismatch).  Either way the value needs Re(s) + max power + 1 > 0.
    """
    s = complex(s)
    if n_subtractions < 0:
        raise DomainError("n_subtractions must be >= 0")
    terms = _expansion_terms(trace, coefficients, n_subtractions)
    value, pole_flag = _continued_mellin(trace, s, terms, c_M, tol,
                                         tail_decay)
    return ZetaEvaluation(s=s, value=value, n_subtractions=n_subtractions,
                          pole_flag=pole_flag)


def _adjust_terms_for_modes(terms: list, lambdas) -> list:
    """Shift the supplied expansion coefficients for subtracted modes:
    removing e^{-lambda t} changes b_p by -(-lambda)^p / p! for each
    supplied integer power p >= 0.

    Powers the caller did not supply stay absent.  Adding mode-only terms
    above the supplied powers would claim a remainder of higher order than
    the truncated trace has, and `_continued_mellin` would then take the
    remainder below its cutoff t_lo as a power it does not have.
    """
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
    s, z = complex(s), complex(z)
    if callable(spectral_input):
        if stage != 0:
            raise StripViolationError(
                "trace input supports only stage 0 (Re(z) > 0)")
        if z.real <= 0 and z != 0:
            raise StripViolationError(f"trace input needs Re(z) > 0, got {z}")
        terms = _expansion_terms(spectral_input, coefficients, n_subtractions)
        return complex(_continued_mellin(spectral_input, s, terms, c_M, tol,
                                         tail_decay, z=z)[0])

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
    value, _ = _continued_mellin(
        lambda t: np.exp(-np.multiply.outer(t, gaps)).sum(axis=-1), s, [],
        0.0, tol, tail_decay=float(gaps.min()), z=z + shift)
    return complex(head + value)


def _truncation(trace: Callable, small_eigenvalues, alpha: float) -> tuple:
    """(truncated trace, removed modes) of `trace` less the listed positive
    modes lambda <= alpha, alpha in (0, 1/4).  Listed zero modes need no
    removal: the tail constant c_M drops them already."""
    removed = _removed_eigenvalues(small_eigenvalues, alpha, positive=True)

    def truncated(t: np.ndarray):
        return np.asarray(trace(t), dtype=float) - sum(
            np.exp(-lam * t) for lam in removed)

    return truncated, removed


def truncated_zeta(spectral_input, alpha: float, s, *,
                   small_eigenvalues=(), c_M: float = 0.0,
                   coefficients=None, n_subtractions: int = 0,
                   tol: float = 1e-12, tail_decay: float = 0.25) -> complex:
    """Zeta with eigenvalues at or below alpha removed.

    Finite spectra: the partial sum over lambda > alpha.  Trace providers:
    the listed small eigenvalues <= alpha are subtracted from the trace and
    the Mellin machinery runs on the remainder.  c_M is the tail constant
    (t -> infinity limit) of the *full* trace, as in spectral_zeta_mellin;
    subtracting it removes the zero modes.  Supplied
    coefficients describe the full trace too: their integer powers p >= 0
    are shifted for the subtracted modes and the result is checked against
    the truncated trace at small t.
    """
    s = complex(s)
    if callable(spectral_input):
        trace, removed = _truncation(spectral_input, small_eigenvalues, alpha)
        terms = _expansion_terms(trace, coefficients, n_subtractions, removed)
        value, _ = _continued_mellin(trace, s, terms, c_M, tol, tail_decay,
                                     removed=removed)
        return complex(value)
    lams = [float(x) for x in spectral_input]
    _removed_eigenvalues(lams, alpha, positive=True)
    return spectral_zeta_series([lam for lam in lams if lam > alpha], s)


def det_laplacian(spectral_input, *, c_M: float = 1.0, coefficients=None,
                  n_subtractions: int = 1, tol: float = 1e-12,
                  tail_decay: float = 0.25) -> float:
    """Regularized determinant exp(-zeta'(0)), zeta'(0) the
    mellin_regularized_integral of the trace or finite spectrum."""
    return math.exp(-mellin_regularized_integral(
        spectral_input, c_M=c_M, coefficients=coefficients,
        n_subtractions=n_subtractions, tol=tol, tail_decay=tail_decay))


def mellin_regularized_integral(trace, *, c_M: float = 0.0,
                                coefficients=None, n_subtractions: int = 1,
                                tol: float = 1e-12,
                                tail_decay: float = 0.25) -> float:
    """Regularized value of int_0^inf trace(t) dt/t.

    Defined as d/ds[(1/Gamma(s)) int trace t^{s-1} dt] at s = 0, which equals
    the literal integral whenever it converges and extends it (finite part)
    when the trace does not vanish at t = 0; one _continued_mellin call.
    Supplied coefficients are checked against the trace at small t
    (ExpansionMismatchError on a mismatch).  A finite spectrum in place of
    the trace stands for sum e^{-lambda t} over its lambda > 0, whose value
    is -sum log lambda.
    """
    if not callable(trace):
        return -math.fsum(math.log(lam) for lam in map(float, trace)
                          if lam > 0)
    terms = _expansion_terms(trace, coefficients, n_subtractions)
    return float(_continued_mellin(trace, 0.0, terms, c_M, tol, tail_decay,
                                   slope=True)[0].real)


def log_det_truncated(trace: Callable, small_eigenvalues, alpha: float, *,
                      c_M: float = 0.0, coefficients=None,
                      n_subtractions: int = 1, tol: float = 1e-12,
                      tail_decay: float = 0.25) -> float:
    """log det of the Laplacian with modes <= alpha removed, -zeta'(0) of
    the truncated trace from one _continued_mellin call.

    Supplied coefficients describe the full trace; the supplied integer
    powers p >= 0 are shifted for the removed modes (no other powers are
    added), and the result is checked against the truncated trace at small
    t, raising ExpansionMismatchError on a mismatch.
    """
    trace, removed = _truncation(trace, small_eigenvalues, alpha)
    terms = _expansion_terms(trace, coefficients, n_subtractions, removed)
    return -float(_continued_mellin(trace, 0.0, terms, c_M, tol, tail_decay,
                                    removed=removed, slope=True)[0].real)


def _identity_zeta(vol: float, s, z, tol: float) -> complex:
    """Identity term at (s, z): (vol/4) G(s)/(s - 1), G(s) = int_0^inf
    (r^2 + 1/4 + z)^{1-s} sech^2(pi r) dr to tol min(1, |s-1|)/max(1, vol/4)."""
    s = complex(s)
    if abs(s - 1.0) < _POLE_EPS:
        raise PoleError(f"simple pole at s = 1 with residue {vol / (4.0 * math.pi)}")
    g = integrate_semi_infinite(
        lambda r: np.exp((1.0 - s) * np.log(r * r + 0.25 + z)) / np.cosh(math.pi * r) ** 2,
        decay=2.0 * math.pi, tol=tol * min(1.0, abs(s - 1.0)) / max(1.0, 0.25 * vol),
        rule="exp-sinh")
    return 0.25 * vol * complex(g.value) / (s - 1.0)


def _cone_b0(orders) -> float:
    """The t -> 0 limit sum (q^2 - 1)/12q of ETr, a quarter of F(0)."""
    return sum((q * q - 1.0) / (12.0 * q) for q in orders)


def _geodesic_cone_zeta(lengths, orders, s, z, tol: float) -> complex:
    """HTr + ETr at (s, z): the continued Mellin transform of the batched
    trace HTr + ETr with its one small-time term b_0 and tail constant 0,
    the same exp-sinh integral as an opaque trace's (_continued_mellin),
    its error judged in the value's units and held to tol max(1, b_0).
    The remainder is O(t) but its rounding noise, ~eps b_0, is not, so with
    cones Re(s) > 0; without, HTr is O(e^{-l^2/4t}), its term 0 t^inf, and
    every s is continued.  At large |Im s|, where |1/Gamma(s)| magnifies the
    integral's rounding past that tolerance, QuadratureError is raised."""
    s, b0 = complex(s), _cone_b0(orders)
    if orders and s.real <= 0.0:
        raise DomainError(f"cone terms need Re(s) > 0, got s = {s}")
    tol *= max(1.0, b0)
    return complex(_continued_mellin(
        lambda t: hyperbolic_trace(lengths, t) + elliptic_trace_u(orders, t, tol),
        s, [(0.0, b0) if orders else (math.inf, 0.0)], 0.0, tol, 0.25, z=z)[0])


def _cone_zeta_prime_zero(orders, tol: float) -> float:
    """zeta_E'(0) = (log 2/2) F(0) + (1/2) int_0^inf (F(u) - F(0)) e^{-u/2}
    du/u, F = _cone_series(orders), the integral held to tol max(1, F(0)).
    F(u) - F(0) is taken free of cancellation, so the integrand is O(u) at
    0 in floating point too and the rule trims its window there.  The map
    scale is the geometric mean of the integrand's two scales, 2 pi/q of
    the poles of F and 2 of e^{-u/2}: at q = 1e6 that takes 422 nodes where
    the scale 2 takes 775."""
    excess, f0 = _cone_series(orders, minus_f0=True), 4.0 * _cone_b0(orders)
    res = integrate_semi_infinite(lambda u: excess(u) * np.exp(-0.5 * u) / u,
                                  decay=math.sqrt(max(orders, default=2) / (4.0 * math.pi)),
                                  tol=2.0 * tol * max(1.0, f0), rule="exp-sinh")
    return 0.5 * math.log(2.0) * f0 + 0.5 * float(np.real(res.value))


def _zeta_prime_zero(lengths, orders, vol: float, tol: float) -> float:
    """zeta'(0) of HTr + ETr + vol I: the geodesic sum of e^{-x/2}/x, which
    is -log Z(1), + zeta_E'(0) + the constant of det = Z'(1) e^{E(2g-2)}."""
    return (float(geodesic_sum(lengths, lambda x: np.exp(-0.5 * x) / x))
            + _cone_zeta_prime_zero(orders, tol) - vol / (2.0 * math.pi) * (
                2.0 * _ZETA_PRIME_MINUS_ONE - 0.25 + 0.5 * math.log(2.0 * math.pi)))


def surface_zeta(surface: SurfaceData, s, *, tol: float = 1e-12) -> complex:
    """Continued Mellin transform at s of the geometric trace HTr + ETr + I
    (tail constant 0), term by term, for Re(s) > 0; PoleError at s = 1.
    HTr + ETr is one exp-sinh Mellin integral (_geodesic_cone_zeta), its
    error judged in the value's units against tol max(1, b_0); at large
    |Im s|, where 1/Gamma(s) magnifies the integral's rounding past that,
    QuadratureError is raised (at s = 0.5+10i on a genus-2 surface with
    cones 2, 3 and tol 1e-12), its value with the identity term added."""
    identity = _identity_zeta(surface.volume, s, 0.0, tol)
    try:
        return identity + _geodesic_cone_zeta(
            surface.length_spectrum, surface.elliptic_orders, s, 0.0, tol)
    except QuadratureError as exc:
        if exc.value is not None:
            exc.value += identity
        raise


def surface_log_det(surface: SurfaceData, alpha: float | None = None, *,
                    tol: float = 1e-12) -> float:
    """log det of the surface Laplacian, -(d/ds) at 0 of surface_zeta, in
    closed form; zero modes add nothing.  alpha in (0, 1/4) also removes the
    listed eigenvalues in (0, alpha]."""
    removed = ([] if alpha is None else _removed_eigenvalues(
        surface.small_eigenvalues, alpha, positive=True))
    return -_zeta_prime_zero(surface.length_spectrum, surface.elliptic_orders,
                             surface.volume, tol) - sum(map(math.log, removed))


def degeneration_subtraction_zeta(family: DegeneratingFamily, alpha: float,
                                  s, *, mode: str = "zeta",
                                  z: complex | None = None,
                                  tol: float = 1e-12) -> list:
    """Regularized zeta-type values across a degenerating schedule.

    Per member: the truncated transform of the standard trace minus the
    transform of the degenerating trace.  mode selects the transform:
    "zeta" (Mellin at s), "hurwitz" (Laplace-Mellin at (s, z), Re z > 0),
    "logdet" (minus the s-derivative at 0, i.e. the truncated log
    determinant plus the regularized degenerating integral).

    The difference is transformed once and term by term: with the
    degenerating cones cancelled the member trace is HTr + ETr(kept) +
    vol I_1 - (removed positive modes), I_1 the volume-1 identity term, so
    only vol changes down the schedule and nothing is fitted.

    Returns rows (prod q_gamma, value); convergence of the paper-style limit
    shows up as Cauchy-shrinking differences down the rows.
    """
    modes = _removed_eigenvalues(family.template.small_eigenvalues, alpha,
                                 positive=True)
    if mode not in ("zeta", "hurwitz", "logdet"):
        raise DomainError(f"unknown mode '{mode}'")
    if mode == "hurwitz" and (z is None or complex(z).real <= 0):
        raise StripViolationError("hurwitz mode needs Re(z) > 0")
    qprods = [float(math.prod(row)) for row in family.schedule]
    volumes = [member.volume for member in family.members()]
    template = family.template
    lengths, kept = template.length_spectrum, template.kept_orders
    if mode == "logdet":
        # d/ds of the removed modes' -lambda^{-s} at s = 0 is log(lambda)
        common = (_zeta_prime_zero(lengths, kept, 0.0, tol)
                  + sum(map(math.log, modes)))
        unit = _zeta_prime_zero((), (), 1.0, tol)
        return [(q, -(common + vol * unit)) for q, vol in zip(qprods, volumes)]
    sv = complex(s)
    zz = complex(z) if mode == "hurwitz" else 0.0
    # the removed modes -e^{-lambda t} continue to -(lambda + z)^{-s}; inside
    # the integral their slow tails would set its decay rate instead of 1/4
    common = (_geodesic_cone_zeta(lengths, kept, sv, zz, tol)
              - sum(np.exp(-sv * np.log(lam + zz)) for lam in modes))
    unit = _identity_zeta(1.0, sv, zz, tol)
    return [(q, complex(common + vol * unit))
            for q, vol in zip(qprods, volumes)]
