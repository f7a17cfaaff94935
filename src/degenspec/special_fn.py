"""Special functions and the adaptive quadrature engines used by every module.

The quadrature core is a 7-15 Gauss-Kronrod rule driven by worst-interval
adaptive bisection.  Semi-infinite integrals are mapped onto [0, 1] with
t = L*u/(1-u), where the scale L is chosen from the caller's exponential
decay hint.  The rule never samples interval endpoints, so integrable
endpoint singularities (Mellin weights t^{s-1}, inverse-square-root factors)
are handled by plain subdivision.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _sp

from .errors import DomainError, NonFiniteIntegrandError, QuadratureError

__all__ = [
    "QuadratureResult",
    "KBesselArgs",
    "log_gamma",
    "digamma",
    "reciprocal_gamma",
    "k_bessel",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_real_line",
    "as_array_fn",
]

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1] (QUADPACK).
_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full symmetric node/weight tables; Gauss nodes sit at odd Kronrod indices.
_NODES = np.concatenate([-_XGK_HALF[:7], _XGK_HALF[::-1]])
_WK = np.concatenate([_WGK_HALF[:7], _WGK_HALF[::-1]])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WGAUSS = np.concatenate([_WG_HALF[:3], _WG_HALF[::-1]])

_DEFAULT_TOL = 1e-10
_DEFAULT_LIMIT = 4096


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral with an absolute error estimate and cost."""

    value: float | complex
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise DomainError("error_estimate must be >= 0")
        if self.evaluations <= 0:
            raise DomainError("evaluations must be > 0")


@dataclass(frozen=True)
class KBesselArgs:
    """Arguments of the two-parameter K-Bessel integral
    int_0^inf exp(-(a^2 t + b^2/t)) t^s dt/t."""

    s: float
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise DomainError("K-Bessel integral requires a > 0 and b > 0")


def as_array_fn(f: Callable) -> Callable:
    """Lift f to a callable mapping an ndarray of any shape, 0-d included, to
    an ndarray of the same shape.

    f is called once on the whole array; if it raises TypeError/ValueError or
    returns another shape (a scalar-only f), it is called on float(xi) element
    by element.  Floating-point warnings are ignored either way.
    """

    def call(x) -> np.ndarray:
        x = np.asarray(x)
        with np.errstate(all="ignore"):
            try:
                y = np.asarray(f(x))
                if y.shape == x.shape:
                    return y
            except (TypeError, ValueError):
                pass
            return np.asarray([f(float(xi)) for xi in x.ravel()]).reshape(x.shape)

    return call


def _panel(fvec, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _NODES
    y = fvec(x)
    if not np.all(np.isfinite(np.real(y))) or not np.all(np.isfinite(np.imag(y))):
        bad = x[~(np.isfinite(np.real(y)) & np.isfinite(np.imag(y)))]
        raise NonFiniteIntegrandError(
            f"integrand returned a non-finite value near x={bad.flat[0]:.6g}")
    ik = half * np.sum(_WK * y)
    ig = half * np.sum(_WGAUSS * y[_GAUSS_IDX])
    return ik, abs(ik - ig)


def _adaptive(fvec, a: float, b: float, tol: float, limit: int,
              points=None) -> QuadratureResult:
    if tol <= 0:
        raise DomainError("tolerance must be > 0")
    if b < a:
        raise DomainError(f"invalid interval: a={a} > b={b}")
    breaks = [a]
    if points is not None:
        breaks.extend(p for p in sorted(points) if a < p < b)
    breaks.append(b)

    segments = {}
    heap = []
    counter = 0
    evaluations = 0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        val, err = _panel(fvec, lo, hi)
        evaluations += _NODES.size
        segments[counter] = (lo, hi, val, err)
        heapq.heappush(heap, (-err, counter))
        counter += 1

    min_width = max(abs(a), abs(b), 1.0) * 1e-15

    def totals():
        ordered = sorted(segments.values(), key=lambda s: s[0])
        value = sum(s[2] for s in ordered)
        err = float(sum(s[3] for s in ordered))
        return value, err

    while True:
        value, err_total = totals()
        if err_total <= tol:
            return QuadratureResult(value, err_total, evaluations)
        if len(segments) >= limit:
            raise QuadratureError(
                f"quadrature did not converge: error {err_total:.3e} > tol "
                f"{tol:.3e} after {len(segments)} intervals",
                value=value, error_estimate=err_total, evaluations=evaluations)
        neg_err, key = heapq.heappop(heap)
        if key not in segments:
            continue
        lo, hi, _, _ = segments.pop(key)
        if hi - lo < min_width:
            raise QuadratureError(
                "quadrature interval collapsed below machine resolution",
                value=value, error_estimate=err_total, evaluations=evaluations)
        mid = 0.5 * (lo + hi)
        for sub in ((lo, mid), (mid, hi)):
            val, err = _panel(fvec, *sub)
            evaluations += _NODES.size
            segments[counter] = (sub[0], sub[1], val, err)
            heapq.heappush(heap, (-err, counter))
            counter += 1


def integrate_finite(f: Callable, a: float, b: float, tol: float = _DEFAULT_TOL,
                     *, limit: int = _DEFAULT_LIMIT, points=None) -> QuadratureResult:
    """Integrate f over [a, b] to absolute tolerance tol.

    Endpoint algebraic singularities of integrable type are admissible: the
    rule is open, and adaptive bisection concentrates panels at the endpoint.
    """
    return _adaptive(as_array_fn(f), float(a), float(b), tol, limit, points)


def integrate_semi_infinite(f: Callable, decay: float = 1.0,
                            tol: float = _DEFAULT_TOL, *,
                            limit: int = _DEFAULT_LIMIT) -> QuadratureResult:
    """Integrate f over (0, inf) to absolute tolerance tol.

    `decay` is an exponential-rate hint: f should eventually fall off at
    least like exp(-decay*t).  It fixes the scale L = 1/decay of the map
    t = L*u/(1-u) and the initial panel layout; slower (polynomial) decay
    still converges through subdivision toward u = 1 as long as the
    integral exists.
    """
    if decay <= 0:
        raise DomainError("decay hint must be > 0")
    L = 1.0 / float(decay)
    fvec = as_array_fn(f)

    def g(u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", under="ignore", invalid="ignore",
                         divide="ignore"):
            # cap the map at t = 1e12 L: deep bisection toward u = 1 would
            # otherwise round u to 1 and turn decayed integrands into inf/NaN
            uc = np.minimum(u, 1.0 - 1e-12)
            om = 1.0 - uc
            t = L * uc / om
            return fvec(t) * (L / om**2)

    breaks = [c / (1.0 + c) for c in (0.1, 1.0, 10.0, 100.0)]
    return _adaptive(g, 0.0, 1.0, tol, limit, points=breaks)


def integrate_real_line(f: Callable, decay: float = 1.0,
                        tol: float = _DEFAULT_TOL, *,
                        limit: int = _DEFAULT_LIMIT) -> QuadratureResult:
    """Integrate f over (-inf, inf) by folding onto (0, inf)."""
    fvec = as_array_fn(f)

    def folded(t: np.ndarray) -> np.ndarray:
        return fvec(t) + fvec(-t)

    res = integrate_semi_infinite(folded, decay=decay, tol=tol, limit=limit)
    # each panel evaluated f twice through the fold
    return QuadratureResult(res.value, res.error_estimate, 2 * res.evaluations)


def log_gamma(s):
    """Principal branch of log Gamma(s) on the right half plane Re(s) > 0."""
    z = complex(s)
    if z.real <= 0:
        raise DomainError(f"log_gamma requires Re(s) > 0, got {s}")
    out = _sp.loggamma(z)
    if isinstance(s, complex) or np.iscomplexobj(s):
        return complex(out)
    return float(out.real)


def digamma(s):
    """psi(s) = Gamma'(s)/Gamma(s) on the right half plane Re(s) > 0."""
    z = complex(s)
    if z.real <= 0:
        raise DomainError(f"digamma requires Re(s) > 0, got {s}")
    out = _sp.digamma(z)
    if isinstance(s, complex) or np.iscomplexobj(s):
        return complex(out)
    return float(np.real(out))


def reciprocal_gamma(s):
    """1/Gamma(s), entire in s.

    Evaluated through the recurrence 1/Gamma(s) = s*(s+1)*...*(s+m-1)/Gamma(s+m)
    so only right-half-plane values of Gamma are ever taken.
    """
    z = complex(s)
    factor = 1.0 + 0.0j
    while z.real <= 0.5:
        factor *= z
        z = z + 1.0
    out = factor * np.exp(-_sp.loggamma(z))
    if isinstance(s, complex) or np.iscomplexobj(s):
        return complex(out)
    return float(out.real)


def k_bessel(args: KBesselArgs, tol: float = 1e-12) -> float:
    """K-Bessel integral int_0^inf exp(-(a^2 t + b^2/t)) t^s dt/t.

    The exponent is shifted by its maximum -2ab and the factor exp(-2ab)
    restored afterwards, so the result keeps full relative precision even
    when the value underflows toward the 1e-15 range.
    """
    s, a, b = args.s, args.a, args.b
    shift = 2.0 * a * b

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.exp(-(a * a * t + b * b / t - shift) + (s - 1.0) * np.log(t))

    res = integrate_semi_infinite(integrand, decay=a * a, tol=tol)
    return math.exp(-shift) * float(np.real(res.value))
