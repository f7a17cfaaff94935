"""Heat-trace components and trace-formula transforms.

The regularized (standard) heat trace of a surface splits as

    Str(t) = HTr(t) + ETr(t) + vol * K(t, 0),

with the hyperbolic trace summed over the length spectrum, the elliptic
trace summed over cone orders (two equivalent integral representations),
and the identity contribution proportional to the plane kernel on the
diagonal.  The degenerating trace DTr is the elliptic trace restricted to
the cones being opened into cusps.  HTr, ETr, the identity term and Str take
a scalar t, giving a float, or an array of t, giving one value per entry;
HTr, ETr and the identity term are one batched call each.

Every hyperbolic term, of the heat trace, of the geometric side and of the
Selberg routes, is geodesic_sum: the (geodesic, n) sum of
mult l/(2 sinh(n l/2)) weight(n l), with weight vectorized over n l.  It
keeps the terms with n l/2 <= 42 + log max(l, 1), which leaves each
length's dropped tail below ~1e-18 sup|weight| per unit multiplicity.

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
from .special_fn import as_array_fn, digamma, integrate_semi_infinite

__all__ = [
    "TraceSeries",
    "TestFunctionPair",
    "fermi_weight",
    "identity_trace",
    "geodesic_sum",
    "hyperbolic_trace",
    "cone_integral",
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


def _times(t) -> tuple:
    """Times t > 0 as the rows of one batched exp-sinh call: (flat, col),
    flat the numpy scalar of a scalar t or the flattened array, col the same
    values as a row parameter (flat[:, None] for an array), which a batched
    integrand reads as col[rows] and a scalar one as col[...]."""
    flat = np.asarray(t, dtype=float)
    if not (flat > 0).all():
        raise DomainError(f"time must be > 0, got {t}")
    if flat.ndim == 0:
        return flat[()], flat[()]
    flat = flat.reshape(-1)
    return flat, flat[:, None]


def _shaped(values, t):
    """Per-row values in the shape of t: a float for a scalar t."""
    t = np.asarray(t)
    return float(values) if t.ndim == 0 else np.reshape(values, t.shape)


def identity_trace(vol: float, t, tol: float = 1e-12):
    """Identity contribution vol * e^{-t/4}/(4t) * int_0^inf e^{-t r^2} sech^2(pi r) dr.

    t may be an array: one value per entry from one batched exp-sinh call,
    in the shape of t; a scalar t gives a float."""
    if not vol > 0:
        raise DomainError(f"volume must be > 0, got {vol}")
    flat, col = _times(t)
    minus_t = -col

    def integrand(r: np.ndarray, rows=...):
        return np.exp(r * r * minus_t[rows]) / np.cosh(math.pi * r) ** 2

    res = integrate_semi_infinite(integrand, decay=np.maximum(flat, 1.0),
                                  tol=tol, rule="exp-sinh")
    return _shaped(vol * np.exp(-flat / 4.0) / (4.0 * flat) * res.value, t)


def _normalize_spectrum(spectrum):
    out = []
    for entry in spectrum:
        try:
            out.append((float(entry[0]), int(entry[1])))
        except (TypeError, IndexError):  # a bare length
            out.append((float(entry), 1))
    out.sort()
    for ell, mult in out:
        if ell <= 0 or mult < 1:
            raise DomainError("lengths must be > 0 with multiplicity >= 1")
    return out


_GEODESIC_EXPONENT = 42.0  # the term cut of geodesic_sum


@lru_cache(maxsize=64)
def _geodesic_terms(pairs: tuple) -> tuple:
    """Arrays x = n l and c = mult l/(2 sinh(x/2)) over the kept (geodesic, n)
    terms of a normalized spectrum, read-only and shared by every call."""
    xs, cs = [], []
    for ell, mult in pairs:
        count = math.ceil(2.0 * (_GEODESIC_EXPONENT + math.log(max(ell, 1.0))) / ell)
        x = ell * np.arange(1, count + 1)
        xs.append(x)
        # l/(2 sinh(x/2)) = l e^{-x/2}/(1 - e^{-x}), without overflow
        cs.append(mult * ell * np.exp(-0.5 * x) / -np.expm1(-x))
    x = np.concatenate([np.zeros(0), *xs])
    c = np.concatenate([np.zeros(0), *cs])
    x.setflags(write=False)
    c.setflags(write=False)
    return x, c


def geodesic_sum(spectrum, weight: Callable):
    """The (geodesic, n) sum of mult l/(2 sinh(n l/2)) weight(n l) over the
    length spectrum, n >= 1.

    weight maps the array x of every kept n l to its values along the last
    axis, so a weight batched over an outer axis (of t, say) gives one sum
    per batch entry.  Terms are kept while n l/2 <= 42 + log max(l, 1): a
    length's dropped tail is then below ~1e-18 sup|weight| per unit
    multiplicity.  The term arrays are built once per spectrum.
    """
    x, c = _geodesic_terms(tuple(_normalize_spectrum(spectrum)))
    return weight(x) @ c


def hyperbolic_sum_reduced(spectrum, t):
    """The (geodesic, n) sum of l/sinh(n l/2) e^{-(n l)^2/4t}, without the
    e^{-t/4}/sqrt(16 pi t) prefactor (which callers fold into their own
    exponential weights to avoid overflow).  t may be an array, giving one
    sum per entry; a scalar t gives a float."""
    tt = np.asarray(t, dtype=float)
    if not (tt > 0).all():
        raise DomainError(f"time must be > 0, got {t}")
    four_t = 4.0 * tt[..., None]
    total = 2.0 * geodesic_sum(spectrum, lambda x: np.exp(-x * x / four_t))
    return float(total) if tt.ndim == 0 else total


def hyperbolic_trace(spectrum, t):
    """Hyperbolic trace e^{-t/4}/sqrt(16 pi t) * sum over (geodesic, n) of
    l/sinh(n l/2) e^{-(n l)^2/4t}, summed by geodesic_sum.  t may be an
    array, giving one value per entry; a scalar t gives a float."""
    total = hyperbolic_sum_reduced(spectrum, t)  # checks t > 0
    tt = np.asarray(t, dtype=float)
    return _shaped(np.exp(-0.25 * tt) / np.sqrt(16.0 * math.pi * tt) * total, t)


# E(y) = (y coth y - 1)/y^2 below _CF_BELOW: Lambert's continued fraction
# y coth y = 1 + y^2/(3 + y^2/(5 + ...)) cut after the partial denominator 17,
# which leaves at most 1.1e-16 relative (at y = 1); above it the direct form,
# whose cancellation costs at most a few ulp.
_CF_BELOW = 1.0
_CF_DENOMINATORS = (13.0, 11.0, 9.0, 7.0, 5.0)  # then 3, the last step


def _coth_excess(y: np.ndarray, minus_third: bool = False) -> np.ndarray:
    """E(y) = (y coth y - 1)/y^2 for y > 0, elementwise, free of cancellation;
    with minus_third, E(y) - 1/3, which the continued fraction gives as
    -y^2/(3 D acc) for E = 1/D, D = 3 + y^2/acc."""
    below = y < _CF_BELOW
    n_below = np.count_nonzero(below)
    if n_below < y.size:
        ya = np.maximum(y, _CF_BELOW)  # keeps y -> 0, where it is unused, out
        direct = (ya / np.tanh(ya) - 1.0) / (ya * ya)
        if minus_third:
            direct -= 1.0 / 3.0
        if n_below == 0:
            return direct
    y2 = y * y
    # acc = 5 + y^2/(7 + ... y^2/(15 + y^2/17)), from the bottom up
    acc = 15.0 + y2 / 17.0
    for c in _CF_DENOMINATORS:
        np.divide(y2, acc, out=acc)
        acc += c
    if minus_third:
        out = y2 / (-3.0 * (3.0 + y2 / acc) * acc)
    else:
        np.divide(y2, acc, out=acc)
        acc += 3.0
        out = np.divide(1.0, acc, out=acc)
    if n_below < y.size:
        np.copyto(out, direct, where=~below)
    return out


# coefficients 1/(2k+3)! of (sinh x - x)/x^3 = sum_k x^{2k}/(2k+3)!, k <= 8,
# highest first; below x = 1 the next term is under 5e-17 of the sum
_SINH_SERIES = tuple(1.0 / math.factorial(2 * k + 3) for k in range(8, -1, -1))


def _x_over_sinh_minus_one(x: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """x/sinh x - 1 for x > 0, given ratio = x/sinh x: below x = 1 as
    -(sinh x - x)/sinh x through the series of sinh x - x, free of
    cancellation; above it ratio - 1, which loses at most 3 bits."""
    x2 = x * x
    series = np.zeros_like(x)
    for c in _SINH_SERIES:
        series = series * x2 + c
    return np.where(x < 1.0, -(series * x2 * x) / np.sinh(np.minimum(x, 1.0)),
                    ratio - 1.0)


def _cone_series(orders, minus_f0: bool = False) -> Callable:
    """u -> cosh(u/2) sum_q (1/q) sum_{n<q} 1/(sinh^2(u/2) + sin^2(n pi/q))
    for u > 0, through the closed form of the n-sum (see cone_integral).
    u may have any shape.

    E(qx) for every distinct order q and E(x) are the rows of one matrix, so
    each step costs one array operation whatever the number of orders.

    With minus_f0, the series minus its limit F(0) = sum (q^2 - 1)/(3q) at
    u = 0, free of cancellation: with r = x/sinh x and T the weighted sum of
    E - 1/3, F(u) - F(0) = r T + (r - 1) F(0), both terms <= 0."""
    counts = Counter(orders)
    scales = np.array([*counts, 1.0])[:, None]
    weights = np.array([m * q for q, m in counts.items()]
                       + [-sum(m / q for q, m in counts.items())])
    f0 = float(weights.sum()) / 3.0 if minus_f0 else 0.0

    def series(u: np.ndarray) -> np.ndarray:
        x = 0.5 * u
        # x/sinh x = -2x e^{-x}/expm1(-2x), without overflow for large x
        ratio = -2.0 * x * np.exp(-x) / np.expm1(-2.0 * x)
        # scales x nodes for 1-D x, rows x scales x nodes for 2-D x; the
        # weights contract the scales axis either way
        e = weights @ _coth_excess(scales * x[..., None, :], minus_f0)
        if minus_f0:
            return ratio * e + _x_over_sinh_minus_one(x, ratio) * f0
        return ratio * e

    return series


def cone_integral(orders, hhat: Callable, decay, tol: float):
    """Elliptic term of the trace formula for the cone orders, as one
    u-integral: (1/2) int_0^inf hhat(u) F(u) du with F = _cone_series(orders),
    to absolute tolerance tol.

    hhat is the Fourier transform hhat(u) = (1/2pi) int h(r) e^{-iru} dr of an
    even test function h, vectorized over u.  By Parseval and the closed form
    of the n-sum (Hejhal, The Selberg Trace Formula for PSL(2,R), vol. 2,
    1983), for every order q

        sum_{n<q} int_R h(r) fermi(n/q, r) dr / (2q sin(n pi/q))
            = (1/2) int_0^inf hhat(u) cosh(u/2) S_q(u)/q du,

        S_q(u) = sum_{n<q} 1/(sinh^2(u/2) + sin^2(n pi/q))
               = 2q coth(qu/2)/sinh u - 1/sinh^2(u/2).

    With x = u/2 and E(y) = (y coth y - 1)/y^2, so that coth y = 1/y + y E(y),
    the two ~1/x^2 terms cancel exactly and

        cosh(x) S_q(u)/q = (coth(qx) - coth(x)/q)/sinh x
                         = (x/sinh x) (q E(qx) - E(x)/q),

    where x/sinh x = -2x e^{-x}/expm1(-2x) cannot overflow and E is summed as
    a continued fraction for y < 1 and directly above.  The difference loses
    at most a factor 2 to cancellation, at q = 2 and large x.  F falls off
    like 2 e^{-u/2}, so decay = 1/2 fits any bounded hhat; an hhat narrower
    than that needs the larger rate that matches its width.

    F is analytic on (0, inf), with its nearest poles at u = +-2 pi i/q, so
    an analytic hhat makes the integral one exp-sinh quadrature
    (integrate_semi_infinite with rule="exp-sinh"): a few array calls of
    hhat F, whose cost does not grow with the orders and grows only slowly
    with q as the poles close in on u = 0 (for t from 1e-4 to 100 the
    Gaussian of ETr takes 169-391 nodes in two or three calls for
    q <= 1000, and 712-838 nodes in four calls at q = 1e7).

    A 1-D array of decay rates makes one batched call, one integral per
    entry: hhat is then called as hhat(u, rows) with u of shape (rows, n)
    (see integrate_semi_infinite), and the result is the array of the
    entries' terms.  A scalar decay gives a float.
    """
    orders = [int(q) for q in orders]
    batch = np.asarray(decay).ndim > 0
    if not orders:
        return np.zeros(np.shape(decay)) if batch else 0.0
    if min(orders) < 2:
        raise DomainError(f"cone order must be >= 2, got {min(orders)}")
    series = _cone_series(orders)
    res = integrate_semi_infinite(lambda u, *rows: hhat(u, *rows) * series(u),
                                  decay=decay, tol=2.0 * tol, rule="exp-sinh")
    value = 0.5 * np.real(res.value)
    return value if batch else float(value)


def elliptic_trace_u(orders, t, tol: float = 1e-12):
    """Elliptic trace in its u-integral form:
    e^{-t/4}/sqrt(16 pi t) * sum_q sum_{n<q} (1/q)
    int_0^inf e^{-u^2/4t} cosh(u/2)/(sinh^2(u/2) + sin^2(n pi/q)) du,

    that is e^{-t/4} times cone_integral of the Gaussian
    hhat(u) = e^{-u^2/4t}/sqrt(4 pi t), the transform of h(r) = e^{-t r^2}:
    one exp-sinh quadrature whatever the orders.  The map scale follows the
    Gaussian's width sqrt(4t) down to any t > 0.  t may be an array: one
    value per entry, in the shape of t, from one batched exp-sinh call whose
    rows are the entries; a scalar t gives a float.
    """
    flat, col = _times(t)
    minus_quarter = -0.25 / col
    norm = 1.0 / np.sqrt(4.0 * math.pi * col)
    rate = np.maximum(0.5 / np.sqrt(flat), 0.5)  # u-scale ~ sqrt(4t)
    return _shaped(np.exp(-flat / 4.0) * cone_integral(
        orders, lambda u, rows=...: norm[rows] * np.exp(u * u * minus_quarter[rows]),
        rate, tol), t)


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

            res = integrate_semi_infinite(integrand, decay=rate, tol=tol,
                                          rule="exp-sinh")
            total += float(np.real(res.value)) / (2.0 * q * math.sin(n * math.pi / q))
    return math.exp(-t / 4.0) * total


def degenerating_trace(surface: SurfaceData, t: float, tol: float = 1e-12) -> float:
    """Elliptic trace restricted to the degenerating cone set."""
    return elliptic_trace_u(surface.degenerating_orders, t, tol)


def standard_trace(surface: SurfaceData, t, tol: float = 1e-12):
    """Regularized heat trace HTr + ETr + vol * K(t, 0).  t may be an array,
    giving one value per entry: HTr and ETr from one batched call each,
    K(t, 0) entry by entry; a scalar t gives a float."""
    plane = (heat_kernel_h(t, 0.0, tol) if np.ndim(t) == 0 else
             _shaped([heat_kernel_h(x, 0.0, tol) for x in np.ravel(t)], t))
    return (hyperbolic_trace(surface.length_spectrum, t)
            + elliptic_trace_u(surface.elliptic_orders, t, tol)
            + surface.volume * plane)


def _removed_eigenvalues(eigenvalues, alpha: float, *,
                         positive: bool = False) -> list:
    """The listed eigenvalues lambda <= alpha, > 0 too if `positive`, that a
    truncation at alpha removes; alpha must lie in [0, 1/4), or (0, 1/4) if
    positive, and off every listed eigenvalue (AlphaCollisionError)."""
    if not (0.0 < alpha < 0.25 or (not positive and alpha == 0.0)):
        bracket = "(" if positive else "["
        raise DomainError(f"alpha must lie in {bracket}0, 1/4), got {alpha}")
    eigenvalues = [float(lam) for lam in eigenvalues]
    for lam in eigenvalues:
        if abs(lam - alpha) < 1e-12:
            raise AlphaCollisionError(
                f"alpha = {alpha} collides with listed eigenvalue {lam}")
    return [lam for lam in eigenvalues
            if lam <= alpha and (lam > 0.0 or not positive)]


def removed_modes(surface: SurfaceData, alpha: float, t: float) -> float:
    """Sum of e^{-lambda t} over listed eigenvalues lambda <= alpha, the part
    truncated_trace removes.  alpha must not equal a listed eigenvalue."""
    return sum(math.exp(-lam * t)
               for lam in _removed_eigenvalues(surface.small_eigenvalues, alpha))


def truncated_trace(surface: SurfaceData, alpha: float, t: float,
                    tol: float = 1e-12) -> float:
    """Standard trace minus sum of e^{-lambda t} over listed eigenvalues
    lambda <= alpha.  alpha must not equal a listed eigenvalue."""
    sub = removed_modes(surface, alpha, t)
    return standard_trace(surface, t, tol) - sub


def surface_trace_provider(surface: SurfaceData, tol: float = 1e-12) -> Callable:
    """Str(t) for repeated evaluation under integral transforms: memoized
    for a scalar t, one batched standard_trace call, not memoized, for an
    array t.  cache_info reads the scalar memo."""

    @lru_cache(maxsize=4096)
    def cached(t: float) -> float:
        return standard_trace(surface, t, tol)

    def trace(t):
        if isinstance(t, np.ndarray):
            return standard_trace(surface, t, tol)
        return cached(t)

    trace.cache_info = cached.cache_info
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
    habs = np.abs(h(t))
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
        hv = as_array_fn(h)
        eps = _certify_decay(hv)
        return cls(h=hv,
                   H=lambda r: transform_H(hv, r),
                   Hhat=lambda u: transform_Hhat(hv, u),
                   provenance="numeric", epsilon=eps)

    @classmethod
    def analytic(cls, h: Callable, H: Callable, Hhat: Callable,
                 check_tol: float = 1e-7) -> "TestFunctionPair":
        hv = as_array_fn(h)
        eps = _certify_decay(hv)
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


def geometric_side(surface: SurfaceData, pair: TestFunctionPair,
                   tol: float = 1e-10) -> float:
    """Geometric side of the trace formula for the pair (H, Hhat):
    identity + hyperbolic + elliptic terms assembled from the surface data."""
    H = as_array_fn(pair.H)

    def identity_integrand(r: np.ndarray):
        return H(r) * np.tanh(math.pi * r) * r

    ident = integrate_semi_infinite(identity_integrand, decay=0.5, tol=tol)
    total = surface.volume / (2.0 * math.pi) * float(np.real(ident.value))

    Hhat = as_array_fn(pair.Hhat)
    total += geodesic_sum(surface.length_spectrum, Hhat)
    total += cone_integral(surface.elliptic_orders, Hhat, 0.5, tol)
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
    H = as_array_fn(pair.H)
    phi = as_array_fn(scattering.phi_log_deriv)

    def phi_integrand(r: np.ndarray):
        return H(r) * (phi(r) + phi(-r))

    total = 0.0
    phi_term = integrate_semi_infinite(phi_integrand, decay=0.5, tol=tol)
    total -= float(np.real(phi_term.value)) / (4.0 * math.pi)

    if p > 0:
        psi = as_array_fn(lambda r: digamma(1.0 + 1j * r).real)

        def psi_integrand(r: np.ndarray):
            return H(r) * psi(r)

        psi_term = integrate_semi_infinite(psi_integrand, decay=0.5, tol=tol)
        total += p / math.pi * float(np.real(psi_term.value))
        total += p * math.log(2.0) * pair.Hhat(0.0)
    total -= 0.25 * (p - scattering.trace_phi_half) * float(np.real(pair.H(0.0)))
    return total
