"""Heat-trace components and trace-formula transforms.

The regularized (standard) heat trace of a surface splits as

    Str(t) = HTr(t) + ETr(t) + vol * K(t, 0),

with the hyperbolic trace summed over the length spectrum, the elliptic
trace summed over cone orders (two equivalent integral representations),
and the identity contribution proportional to the plane kernel on the
diagonal.  The degenerating trace DTr is the elliptic trace restricted to
the cones being opened into cusps.

transform_H / transform_Hhat are the Laplace-type and Gaussian transforms
pairing a decay-certified test function h with the two sides of the trace
formula; geometric_side / spectral_side_compact / noncompact_spectral_terms
assemble those sides on model data.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .counting import ScatteringModel
from .errors import (AdmissibilityError, AlphaCollisionError, DomainError,
                     InvariantViolation)
from .geometry import SurfaceData
from .hplane import heat_kernel_h
from .special_fn import digamma, integrate_semi_infinite

__all__ = [
    "TraceSeries",
    "TestFunctionPair",
    "fermi_weight",
    "identity_trace",
    "hyperbolic_trace",
    "elliptic_trace_u",
    "elliptic_trace_r",
    "degenerating_trace",
    "standard_trace",
    "removed_modes",
    "truncated_trace",
    "transform_H",
    "transform_Hhat",
    "geometric_side",
    "spectral_side_compact",
    "noncompact_spectral_terms",
    "surface_trace_provider",
]

_TERM_CUTOFF = 1e-18


@dataclass(frozen=True)
class TraceSeries:
    """Sampled values of a trace function on a strictly increasing t-grid."""

    grid: tuple
    values: tuple
    tolerance: float

    def __post_init__(self):
        grid = tuple(float(t) for t in self.grid)
        if any(t <= 0 for t in grid):
            raise InvariantViolation("grid points must be positive")
        if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
            raise InvariantViolation("grid must be strictly increasing")
        values = tuple(complex(v) if isinstance(v, complex) else float(v)
                       for v in self.values)
        if len(values) != len(grid):
            raise InvariantViolation("values and grid lengths differ")
        for v in values:
            if not np.isfinite(v if not isinstance(v, complex) else abs(v)):
                raise InvariantViolation("trace values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def rows(self):
        return [(t, v, self.tolerance) for t, v in zip(self.grid, self.values)]

    def to_csv(self, path) -> None:
        """Write the series as CSV with header t,value,err."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,value,err\n")
            for t, v, err in self.rows():
                fh.write(f"{t!r},{v!r},{err!r}\n")

    @classmethod
    def from_function(cls, fn: Callable, grid, tolerance: float):
        return cls(grid=tuple(grid),
                   values=tuple(fn(float(t)) for t in grid),
                   tolerance=tolerance)


def fermi_weight(beta: float, r: np.ndarray) -> np.ndarray:
    """exp(-2 pi beta r) / (1 + exp(-2 pi r)), overflow-free for all real r."""
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    pos = r >= 0
    rp = r[pos]
    out[pos] = np.exp(-2.0 * math.pi * beta * rp) / (1.0 + np.exp(-2.0 * math.pi * rp))
    rn = r[~pos]
    out[~pos] = np.exp(2.0 * math.pi * (1.0 - beta) * rn) / (1.0 + np.exp(2.0 * math.pi * rn))
    return out


def identity_trace(vol: float, t: float, tol: float = 1e-12) -> float:
    """Identity contribution vol * e^{-t/4}/(4t) * int_0^inf e^{-t r^2} sech^2(pi r) dr."""
    if not vol > 0:
        raise DomainError(f"volume must be > 0, got {vol}")
    if not t > 0:
        raise DomainError(f"time must be > 0, got {t}")

    def integrand(r: np.ndarray):
        return np.exp(-t * r * r) / np.cosh(math.pi * r) ** 2

    res = integrate_semi_infinite(integrand, decay=max(t, 1.0), tol=tol)
    return vol * math.exp(-t / 4.0) / (4.0 * t) * float(np.real(res.value))


def _normalize_spectrum(spectrum):
    out = []
    for entry in spectrum:
        if np.isscalar(entry):
            out.append((float(entry), 1))
        else:
            out.append((float(entry[0]), int(entry[1])))
    out.sort()
    for ell, mult in out:
        if ell <= 0 or mult < 1:
            raise DomainError("lengths must be > 0 with multiplicity >= 1")
    return out


def hyperbolic_sum_reduced(spectrum, t: float) -> float:
    """The (geodesic, n) sum of l/sinh(n l/2) e^{-(n l)^2/4t}, without the
    e^{-t/4}/sqrt(16 pi t) prefactor (which callers fold into their own
    exponential weights to avoid overflow)."""
    if not t > 0:
        raise DomainError(f"time must be > 0, got {t}")
    pairs = _normalize_spectrum(spectrum)
    total = 0.0
    for ell, mult in pairs:
        geo = 0.0
        first = None
        for n in range(1, 100000):
            nl = n * ell
            term = ell * math.exp(-nl * nl / (4.0 * t)) / math.sinh(nl / 2.0) \
                if nl / 2.0 < 700 else 0.0
            if first is None:
                first = term
            geo += term
            if term <= _TERM_CUTOFF * max(abs(total + mult * geo), 1.0):
                break
        total += mult * geo
        if first is not None and first <= _TERM_CUTOFF * max(abs(total), 1.0):
            break  # lengths ascend, later geodesics only smaller
    return total


def hyperbolic_trace(spectrum, t: float) -> float:
    """Hyperbolic trace e^{-t/4}/sqrt(16 pi t) * sum over (geodesic, n) of
    l/sinh(n l/2) e^{-(n l)^2/4t}.

    The (geodesic, n) series is cut once a term falls below 1e-18 of the
    running sum; the Gaussian factor makes the tail monotone so the cut is
    safe.
    """
    total = hyperbolic_sum_reduced(spectrum, t)
    return math.exp(-t / 4.0) / math.sqrt(16.0 * math.pi * t) * total


# E(y) = (y coth y - 1)/y^2 below _CF_BELOW: Lambert's continued fraction
# y coth y = 1 + y^2/(3 + y^2/(5 + ...)) cut after the partial denominator 17,
# which leaves at most 1.1e-16 relative (at y = 1); above it the direct form,
# whose cancellation costs at most a few ulp.
_CF_BELOW = 1.0
_CF_DENOMINATORS = (13.0, 11.0, 9.0, 7.0, 5.0, 3.0)


def _coth_excess(y: np.ndarray) -> np.ndarray:
    """E(y) = (y coth y - 1)/y^2 for y > 0, elementwise, free of cancellation."""
    below = y < _CF_BELOW
    n_below = np.count_nonzero(below)
    if n_below < y.size:
        ya = np.maximum(y, _CF_BELOW)  # keeps y -> 0, where it is unused, out
        direct = (ya / np.tanh(ya) - 1.0) / (ya * ya)
        if n_below == 0:
            return direct
    y2 = y * y
    # 1/(3 + y^2/(5 + ... y^2/(15 + y^2/17))), from the bottom up
    acc = 15.0 + y2 / 17.0
    for c in _CF_DENOMINATORS:
        np.divide(y2, acc, out=acc)
        acc += c
    np.divide(1.0, acc, out=acc)
    if n_below < y.size:
        np.copyto(acc, direct, where=~below)
    return acc


def _cone_series(orders) -> Callable:
    """u -> cosh(u/2) sum_q (1/q) sum_{n<q} 1/(sinh^2(u/2) + sin^2(n pi/q))
    for u > 0, through the closed form of the n-sum (see elliptic_trace_u).

    E(qx) for every distinct order q and E(x) are the rows of one matrix, so
    each step costs one array operation whatever the number of orders."""
    counts = Counter(orders)
    scales = np.array([*counts, 1.0])[:, None]
    weights = np.array([m * q for q, m in counts.items()]
                       + [-sum(m / q for q, m in counts.items())])

    def series(u: np.ndarray) -> np.ndarray:
        x = 0.5 * u
        # x/sinh x = -2x e^{-x}/expm1(-2x), without overflow for large x
        return (-2.0 * x * np.exp(-x) / np.expm1(-2.0 * x)) \
            * (weights @ _coth_excess(scales * x))

    return series


def elliptic_trace_u(orders, t: float, tol: float = 1e-12) -> float:
    """Elliptic trace in its u-integral form:
    e^{-t/4}/sqrt(16 pi t) * sum_q sum_{n<q} (1/q)
    int_0^inf e^{-u^2/4t} cosh(u/2)/(sinh^2(u/2) + sin^2(n pi/q)) du.

    The n-sum has a closed form (Hejhal, The Selberg Trace Formula for
    PSL(2,R), vol. 2, 1983): with x = u/2,

        S_q(u) = sum_{n<q} 1/(sinh^2 x + sin^2(n pi/q))
               = 2q coth(qx)/sinh 2x - 1/sinh^2 x,

    so every call is one quadrature of e^{-u^2/4t} cosh(x) sum_q S_q(u)/q,
    whatever the orders.  The two terms of the closed form are both ~1/x^2
    and cancel to (q^2 - 1)/3 as x -> 0.  With E(y) = (y coth y - 1)/y^2,
    so that coth y = 1/y + y E(y), the 1/x terms cancel exactly and

        cosh(x) S_q(u)/q = (coth(qx) - coth(x)/q)/sinh x
                         = (x/sinh x) (q E(qx) - E(x)/q),

    where x/sinh x = -2x e^{-x}/expm1(-2x) cannot overflow and E is summed
    as a continued fraction for y < 1 and directly above.  The difference
    loses at most a factor 2 to cancellation, at q = 2 and large x.
    """
    if not t > 0:
        raise DomainError(f"time must be > 0, got {t}")
    orders = [int(q) for q in orders]
    if not orders:
        return 0.0
    if min(orders) < 2:
        raise DomainError(f"cone order must be >= 2, got {min(orders)}")
    series = _cone_series(orders)
    quarter = 1.0 / (4.0 * t)
    rate = min(max(0.5 / math.sqrt(t), 0.5), 50.0)  # u-scale ~ sqrt(4t)
    res = integrate_semi_infinite(lambda u: np.exp(-u * u * quarter) * series(u),
                                  decay=rate, tol=tol)
    return math.exp(-t / 4.0) / math.sqrt(16.0 * math.pi * t) \
        * float(np.real(res.value))


def elliptic_trace_r(orders, t: float, tol: float = 1e-12) -> float:
    """Elliptic trace in its r-integral form:
    sum_q sum_{n<q} e^{-t/4}/(2 q sin(n pi/q))
    int_R e^{-2 pi n r/q - t r^2}/(1 + e^{-2 pi r}) dr."""
    if not t > 0:
        raise DomainError(f"time must be > 0, got {t}")
    total = 0.0
    for q in orders:
        q = int(q)
        if q < 2:
            raise DomainError(f"cone order must be >= 2, got {q}")
        rate = min(max(math.sqrt(t), 0.05), 10.0)  # r-scale ~ 1/sqrt(t)
        for n in range(1, q):
            beta = n / q

            def integrand(r: np.ndarray, b=beta):
                return np.exp(-t * r * r) * (fermi_weight(b, r) + fermi_weight(b, -r))

            res = integrate_semi_infinite(integrand, decay=rate, tol=tol)
            total += float(np.real(res.value)) / (2.0 * q * math.sin(n * math.pi / q))
    return math.exp(-t / 4.0) * total


def degenerating_trace(surface: SurfaceData, t: float, tol: float = 1e-12) -> float:
    """Elliptic trace restricted to the degenerating cone set."""
    return elliptic_trace_u(surface.degenerating_orders, t, tol)


def standard_trace(surface: SurfaceData, t: float, tol: float = 1e-12) -> float:
    """Regularized heat trace HTr + ETr + vol * K(t, 0)."""
    return (hyperbolic_trace(surface.length_spectrum, t)
            + elliptic_trace_u(surface.elliptic_orders, t, tol)
            + surface.volume * heat_kernel_h(t, 0.0, tol))


def _check_alpha(surface: SurfaceData, alpha: float) -> None:
    if not 0.0 <= alpha < 0.25:
        raise DomainError(f"alpha must lie in [0, 1/4), got {alpha}")
    for lam in surface.small_eigenvalues:
        if abs(lam - alpha) < 1e-12:
            raise AlphaCollisionError(
                f"alpha = {alpha} collides with listed eigenvalue {lam}")


def removed_modes(surface: SurfaceData, alpha: float, t: float) -> float:
    """Sum of e^{-lambda t} over listed eigenvalues lambda <= alpha, the part
    truncated_trace removes.  alpha must not equal a listed eigenvalue."""
    _check_alpha(surface, alpha)
    return sum(math.exp(-lam * t) for lam in surface.small_eigenvalues
               if lam <= alpha)


def truncated_trace(surface: SurfaceData, alpha: float, t: float,
                    tol: float = 1e-12) -> float:
    """Standard trace minus sum of e^{-lambda t} over listed eigenvalues
    lambda <= alpha.  alpha must not equal a listed eigenvalue."""
    sub = removed_modes(surface, alpha, t)
    return standard_trace(surface, t, tol) - sub


def surface_trace_provider(surface: SurfaceData, tol: float = 1e-12) -> Callable:
    """Memoized Str(t) for repeated evaluation under integral transforms."""

    @lru_cache(maxsize=4096)
    def trace(t: float) -> float:
        return standard_trace(surface, t, tol)

    return trace


def transform_H(h: Callable, r, tol: float = 1e-11) -> float | complex:
    """Laplace-type transform H(r) = int_0^inf h(t) e^{-r^2 t} dt.

    Accepts complex r; for r in [0, i/2] the weight grows like e^{t/4},
    which the admissibility class of h absorbs.
    """
    r2 = complex(r) ** 2

    def integrand(t: np.ndarray):
        # clip the weight exponent: for growing weights (imaginary r) h has
        # already underflowed wherever the clip engages, so the product is 0
        expo = np.clip(-r2.real * t, -745.0, 700.0) - 1j * r2.imag * t
        return h(t) * np.exp(expo)

    decay = max(0.26 + r2.real, 0.02)
    val = integrate_semi_infinite(integrand, decay=decay, tol=tol).value
    if abs(np.imag(val)) < 1e-14 * max(1.0, abs(np.real(val))):
        return float(np.real(val))
    return complex(val)


def transform_Hhat(h: Callable, u: float, tol: float = 1e-11) -> float:
    """Gaussian transform Hhat(u) = int_0^inf h(t) e^{-u^2/4t} / sqrt(4 pi t) dt.

    Substituting t = x^2 removes the 1/sqrt(t) endpoint factor:
    Hhat(u) = (1/sqrt(pi)) int_0^inf h(x^2) e^{-u^2/4x^2} dx.
    """

    def integrand(x: np.ndarray):
        xx = np.maximum(x * x, 1e-300)
        out = h(xx)
        if u != 0.0:
            out = out * np.exp(-u * u / (4.0 * xx))
        return out

    res = integrate_semi_infinite(integrand, decay=0.5, tol=tol)
    return float(np.real(res.value)) / math.sqrt(math.pi)


_EPS_LADDER = (0.5, 0.25, 0.1, 0.05, 0.02, 0.01)


def _certify_decay(h: Callable) -> float:
    """Largest eps in the ladder with |h(t)| e^{(1/4+eps)t} decreasing on the
    tail of a log grid; AdmissibilityError when none qualifies."""
    t = np.geomspace(0.1, 60.0, 40)
    tail = t >= 5.0
    habs = np.abs(np.asarray([h(ti) for ti in t], dtype=complex))
    for eps in _EPS_LADDER:
        g = habs * np.exp((0.25 + eps) * t)
        gt = g[tail]
        if np.all(np.diff(gt) <= 1e-12 * np.maximum(gt[:-1], 1e-300)):
            return eps
    raise AdmissibilityError(
        "h lacks the decay |h(t)| <= M e^{-(1/4+eps)t} required of trace-"
        "formula test functions")


@dataclass(frozen=True)
class TestFunctionPair:
    """A test function h with its transforms H and Hhat.

    provenance is "analytic" when closed forms were supplied (verified
    against the numeric transforms on a sample grid) and "numeric" when the
    transforms are quadratures of h.  epsilon records the certified decay
    margin of h.
    """

    __test__ = False  # a library class, not a pytest test class

    h: Callable | None
    H: Callable
    Hhat: Callable
    provenance: str
    epsilon: float

    @classmethod
    def from_h(cls, h: Callable) -> "TestFunctionPair":
        eps = _certify_decay(h)
        hv = _as_array_fn(h)
        return cls(h=hv,
                   H=lambda r: transform_H(hv, r),
                   Hhat=lambda u: transform_Hhat(hv, u),
                   provenance="numeric", epsilon=eps)

    @classmethod
    def analytic(cls, h: Callable, H: Callable, Hhat: Callable,
                 check_tol: float = 1e-7) -> "TestFunctionPair":
        eps = _certify_decay(h)
        hv = _as_array_fn(h)
        for r in (0.5, 1.5):
            if abs(transform_H(hv, r) - H(r)) > check_tol * (1 + abs(H(r))):
                raise AdmissibilityError(
                    f"analytic H disagrees with the transform of h at r={r}")
        for u in (0.5, 2.0):
            if abs(transform_Hhat(hv, u) - Hhat(u)) > check_tol * (1 + abs(Hhat(u))):
                raise AdmissibilityError(
                    f"analytic Hhat disagrees with the transform of h at u={u}")
        return cls(h=hv, H=H, Hhat=Hhat, provenance="analytic", epsilon=eps)

    @classmethod
    def point_mass(cls, t0: float) -> "TestFunctionPair":
        """Degenerate point mass at t0: handled purely through the closed
        forms H(r) = e^{-r^2 t0}, Hhat(u) = (4 pi t0)^{-1/2} e^{-u^2/4 t0}."""
        if not t0 > 0:
            raise DomainError(f"point mass requires t0 > 0, got {t0}")

        def H(r):
            val = np.exp(-(complex(r) ** 2) * t0)
            return float(val.real) if abs(val.imag) < 1e-15 * abs(val) else complex(val)

        def Hhat(u):
            return math.exp(-u * u / (4.0 * t0)) / math.sqrt(4.0 * math.pi * t0)

        return cls(h=None, H=H, Hhat=Hhat, provenance="analytic",
                   epsilon=math.inf)


def _as_array_fn(h: Callable) -> Callable:
    def call(t):
        arr = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", under="ignore"):
            try:
                out = np.asarray(h(arr))
                if out.shape == arr.shape:
                    return out
            except (TypeError, ValueError):
                pass
            if arr.ndim == 0:
                return np.asarray(h(float(arr)))
            return np.asarray([h(float(x)) for x in arr])

    return call


def geometric_side(surface: SurfaceData, pair: TestFunctionPair,
                   tol: float = 1e-10) -> float:
    """Geometric side of the trace formula for the pair (H, Hhat):
    identity + hyperbolic + elliptic terms assembled from the surface data."""
    H = pair.H

    def identity_integrand(r: np.ndarray):
        return np.asarray([H(ri) for ri in r]) * np.tanh(math.pi * r) * r

    ident = integrate_semi_infinite(identity_integrand, decay=0.5, tol=tol)
    total = surface.volume / (2.0 * math.pi) * float(np.real(ident.value))

    hyper = 0.0
    for ell, mult in surface.length_spectrum:
        for n in range(1, 100000):
            nl = n * ell
            if nl / 2.0 > 700:
                break
            term = ell / (2.0 * math.sinh(nl / 2.0)) * pair.Hhat(nl)
            hyper += mult * term
            if abs(term) <= _TERM_CUTOFF * max(abs(hyper), 1.0):
                break
    total += hyper

    for q in surface.elliptic_orders:
        for n in range(1, q):
            beta = n / q

            def integrand(r: np.ndarray, b=beta):
                hv = np.asarray([H(ri) for ri in r])
                return hv * (fermi_weight(b, r) + fermi_weight(b, -r))

            res = integrate_semi_infinite(integrand, decay=0.5, tol=tol)
            total += float(np.real(res.value)) / (2.0 * q * math.sin(n * math.pi / q))
    return total


def spectral_side_compact(eigenvalues, pair: TestFunctionPair) -> float:
    """Spectral side sum H(r_n) over r_n solving lambda = 1/4 + r^2,
    with r in (0, inf) for lambda > 1/4 and in [0, i/2] otherwise."""
    total = 0.0
    for lam in eigenvalues:
        lam = float(lam)
        if lam < 0:
            raise DomainError(f"eigenvalues must be >= 0, got {lam}")
        r = math.sqrt(lam - 0.25) if lam >= 0.25 else 1j * math.sqrt(0.25 - lam)
        total += float(np.real(pair.H(r)))
    return total


def noncompact_spectral_terms(p: int, scattering: ScatteringModel,
                              pair: TestFunctionPair,
                              tol: float = 1e-10) -> float:
    """Cusp corrections to the spectral side:
    -(1/4pi) int H phi'/phi dr + (p/2pi) int H Re psi(1+ir) dr
    - (1/4)(p - Tr Phi(1/2)) H(0) + p log2 Hhat(0)."""
    if p < 0:
        raise DomainError(f"cusp count must be >= 0, got {p}")
    scattering.validate(p)
    H = pair.H
    phi = scattering.phi_log_deriv

    def phi_integrand(r: np.ndarray):
        hv = np.asarray([H(ri) for ri in r])
        pv = np.asarray([phi(ri) + phi(-ri) for ri in r])
        return hv * pv

    total = 0.0
    phi_term = integrate_semi_infinite(phi_integrand, decay=0.5, tol=tol)
    total -= float(np.real(phi_term.value)) / (4.0 * math.pi)

    if p > 0:
        def psi_integrand(r: np.ndarray):
            hv = np.asarray([H(ri) for ri in r])
            pv = np.asarray([digamma(1.0 + 1j * ri).real for ri in r])
            return hv * pv

        psi_term = integrate_semi_infinite(psi_integrand, decay=0.5, tol=tol)
        total += p / math.pi * float(np.real(psi_term.value))
        total += p * math.log(2.0) * pair.Hhat(0.0)
    total -= 0.25 * (p - scattering.trace_phi_half) * float(np.real(pair.H(0.0)))
    return total
