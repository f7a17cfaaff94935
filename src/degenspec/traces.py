"""Heat-trace components.

The regularized (standard) heat trace of a surface splits as

    Str(t) = HTr(t) + ETr(t) + vol * K(t, 0),

with the hyperbolic trace summed over the length spectrum, the elliptic
trace summed over cone orders (two equivalent integral representations),
and the identity contribution proportional to the plane kernel on the
diagonal.  The degenerating trace DTr is the elliptic trace restricted to
the cones being opened into cusps.  HTr, ETr, the identity term and Str take
a scalar t, giving a float, or an array of t, giving one value per entry:
HTr is one array sum over the length spectrum and the identity term one
evaluation of the plane kernel's closed form (hplane), with no quadrature.

ETr has two routes.  elliptic_trace_r is its r-form in closed form,

    ETr_q(t) = e^{-t/4} sqrt(pi/t) sum_{n<q} (2 q sin(n pi/q))^{-1}
               sum_{m>=0} (-1)^m erfcx(pi (m + n/q)/sqrt t),

each m-series summed by the plane kernel's 26 Cohen-Rodriguez
Villegas-Zagier weights to below 1e-19 of its value, with no quadrature; it
costs rows x sum (q - 1) x 26 erfcx values.  elliptic_trace_u is the
u-integral, one batched exp-sinh call whatever the orders.  elliptic_trace,
under Str, DTr and the CLI, takes the series while sum (q - 1) over the
distinct orders is at most 64 and the u-integral above, where the series'
linear cost in the orders overtakes it.

Every hyperbolic term, of the heat trace and of the Selberg routes, is
geodesic_sum: the (geodesic, n) sum of mult l/(2 sinh(n l/2)) weight(n l),
with weight vectorized over n l.  It keeps the terms with
n l/2 <= 42 + log max(l, 1), which leaves each length's dropped tail below
~1e-18 sup|weight| per unit multiplicity.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import erfcx

from .errors import AlphaCollisionError, DomainError
from .geometry import SurfaceData
from .hplane import _CRVZ_TERMS, _CRVZ_WEIGHTS, _diagonal, heat_kernel_h
from .special_fn import integrate_semi_infinite

__all__ = [
    "fermi_weight",
    "fermi_fold",
    "identity_trace",
    "geodesic_sum",
    "hyperbolic_trace",
    "cone_integral",
    "elliptic_trace_u",
    "elliptic_trace_r",
    "elliptic_trace",
    "degenerating_trace",
    "standard_trace",
    "removed_modes",
    "truncated_trace",
    "surface_trace_provider",
]


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


def fermi_fold(beta: float, r: np.ndarray) -> np.ndarray:
    """fermi_weight(beta, r) + fermi_weight(beta, -r) for r >= 0, in its
    even closed form
    (e^{-2 pi beta r} + e^{-2 pi (1 - beta) r})/(1 + e^{-2 pi r}),
    which no r >= 0 overflows."""
    return (np.exp(-2.0 * math.pi * beta * r)
            + np.exp(-2.0 * math.pi * (1.0 - beta) * r)) \
        / (1.0 + np.exp(-2.0 * math.pi * r))


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
    """Identity contribution vol * K(t, 0), K the plane kernel's closed form
    (heat_kernel_h):

        vol e^{-t/4} (1 - 2 sum_{k>=1} (-1)^{k-1} g_k)/(4 pi t),
        g_k = 1 - sqrt(pi) x_k erfcx(x_k),  x_k = pi k/sqrt(t),

    the alternating series summed by Cohen-Rodriguez Villegas-Zagier
    Algorithm 1 with 26 fixed weights, to within 2 (3 + sqrt 8)^-26 g_1
    < 1e-19.  Any tol > 0 is met by construction; against 40-digit mpmath
    the relative error is below 5e-15 max(1, sqrt t).  t may be an array:
    one value per entry, each equal bit for bit to the scalar call, in the
    shape of t; a scalar t gives vol * heat_kernel_h(t, 0), a float."""
    if not vol > 0:
        raise DomainError(f"volume must be > 0, got {vol}")
    if not tol > 0:
        raise DomainError("tolerance must be > 0")
    flat, _ = _times(t)
    return _shaped(vol * _diagonal(flat), t)


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
    (integrate_semi_infinite): a few array calls of hhat F, whose cost does
    not grow with the orders and grows only slowly with q as the poles
    close in on u = 0 (for t from 1e-4 to 100 the Gaussian of ETr takes
    169-391 nodes in two or three calls for q <= 1000, and 712-838 nodes in
    four calls at q = 1e7).

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
                                  decay=decay, tol=2.0 * tol)
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


# pi m, m < 26, for the CRVZ-accelerated m-sums of elliptic_trace_r
_PI_M = math.pi * np.arange(_CRVZ_TERMS)
# rows and terms of elliptic_trace_r per erfcx block: 64 x 64 x 26 doubles
_SERIES_BLOCK = 64


@lru_cache(maxsize=64)
def _elliptic_terms(counts: tuple) -> tuple:
    """Arrays pi n/q and mult/(2 q sin(n pi/q)) over the (q, n) terms,
    n < q, of the distinct orders q with their multiplicities (a sorted
    tuple of (q, mult) pairs), read-only and shared by every call."""
    betas, coefs = [np.zeros(0)], [np.zeros(0)]
    for q, mult in counts:
        n = np.arange(1, q)
        betas.append(math.pi * n / q)
        coefs.append(mult / (2.0 * q * np.sin(math.pi * n / q)))
    pi_beta, coef = np.concatenate(betas), np.concatenate(coefs)
    pi_beta.setflags(write=False)
    coef.setflags(write=False)
    return pi_beta, coef


def elliptic_trace_r(orders, t, tol: float = 1e-12):
    """Elliptic trace in its r-form, summed in closed form:

        ETr_q(t) = e^{-t/4} sum_{n<q} (2 q sin(n pi/q))^{-1}
                   int_R e^{-2 pi n r/q - t r^2}/(1 + e^{-2 pi r}) dr
                 = e^{-t/4} sqrt(pi/t) sum_{n<q} (2 q sin(n pi/q))^{-1}
                   sum_{m>=0} (-1)^m erfcx(pi (m + n/q)/sqrt t),

    from 1/(1 + e^{-2 pi r}) = sum_m (-1)^m e^{-2 pi m r} on each half of
    the fold, int_0^inf e^{-t r^2 - a r} dr = (1/2) sqrt(pi/t)
    erfcx(a/(2 sqrt t)), and n <-> q - n.  erfcx(pi (m + n/q)/sqrt t) is
    the m-th moment of a positive measure on e^{-2 pi s/sqrt t} in (0, 1],
    so the Cohen-Rodriguez Villegas-Zagier weights of the plane kernel
    (hplane._CRVZ_WEIGHTS, 26 fixed terms) sum each m-series to within
    2 (3 + sqrt 8)^-26 of its first term, below 1e-19 of the sum, at every
    t; every (q, n) term is positive, so the total keeps that bound.  No
    quadrature is made, and tol (which must be > 0) is not needed: rounding
    sets the error.  Against mpmath the relative error is below 1e-15 for
    t <= 10 and below 1e-14 up to t = 2975 in dense scans (8e-15 at q = 2
    near t = 1000, where the u-integral keeps 4e-16); the growth is the
    conditioning of the alternating m-sums as pi/sqrt(t) falls, their sum
    of |terms| over their value being ~3 at t = 1, ~10 at t = 100 and ~23
    at t = 2975.

    The cost is one erfcx per (entry of t, (q, n) term, m): rows x
    sum (q - 1) x 26, with sum (q - 1) over the distinct orders, in blocks
    of 64 rows by 64 terms (under 1 MB each).  t may be an array: one value
    per entry, each its own row reduction (no BLAS product), so equal bit
    for bit to the scalar call, in the shape of t; a scalar t gives a
    float.
    """
    flat, _ = _times(t)
    if not tol > 0:
        raise DomainError("tolerance must be > 0")
    counts = Counter(int(q) for q in orders)
    if counts and min(counts) < 2:
        raise DomainError(f"cone order must be >= 2, got {min(counts)}")
    pi_beta, coef = _elliptic_terms(tuple(sorted(counts.items())))
    rows = np.reshape(flat, -1)
    out = np.zeros(rows.shape)
    for lo in range(0, rows.size, _SERIES_BLOCK):
        block = slice(lo, lo + _SERIES_BLOCK)
        sqrt_t = np.sqrt(rows[block])[:, None, None]
        for k in range(0, coef.size, _SERIES_BLOCK):
            terms = slice(k, k + _SERIES_BLOCK)
            x = (pi_beta[terms, None] + _PI_M) / sqrt_t
            m_sums = (erfcx(x) * _CRVZ_WEIGHTS).sum(axis=2)
            out[block] += (m_sums * coef[terms]).sum(axis=1)
    out *= np.exp(-0.25 * rows) * np.sqrt(math.pi / rows)
    return _shaped(np.reshape(out, np.shape(t)), t)


# elliptic_trace takes the series while sum (q - 1) <= this, else the
# u-integral
_SERIES_MAX_TERMS = 64


def elliptic_trace(orders, t, tol: float = 1e-12):
    """Elliptic trace by the route that its orders make the cheaper: the
    closed-form series elliptic_trace_r while sum (q - 1) over the distinct
    orders is at most 64, the u-integral elliptic_trace_u above.  t and tol
    as for either route; both are looked up by name at each call.

    The series costs rows x sum (q - 1) x 26 erfcx values, the u-integral a
    few array calls of its integrand whatever the orders.  Per call on a
    2-vCPU x86_64 host, series against u-integral: 35 against 129 us at 64
    terms and one t, 138 against 225 us at 8 t, and 340 against 130 us at
    999 terms and one t.  Str, DTr and the CLI call it at one t or on short
    grids, where the switch sits near 64 terms; at 64 t the u-integral is
    the cheaper from below 49 terms (0.86 against 1.21 ms), which the rule,
    read off the orders alone, does not follow.
    """
    terms = sum(int(q) - 1 for q in set(orders))
    if terms <= _SERIES_MAX_TERMS:
        return elliptic_trace_r(orders, t, tol)
    return elliptic_trace_u(orders, t, tol)


def degenerating_trace(surface: SurfaceData, t, tol: float = 1e-12):
    """Elliptic trace restricted to the degenerating cone set, by
    elliptic_trace."""
    return elliptic_trace(surface.degenerating_orders, t, tol)


def standard_trace(surface: SurfaceData, t, tol: float = 1e-12):
    """Regularized heat trace HTr + ETr + vol * K(t, 0).  t may be an array,
    giving one value per entry: HTr, ETr and vol * K(t, 0) from one batched
    call each; a scalar t gives a float."""
    identity = (surface.volume * heat_kernel_h(t, 0.0, tol) if np.ndim(t) == 0
                else identity_trace(surface.volume, t, tol))
    return (hyperbolic_trace(surface.length_spectrum, t)
            + elliptic_trace(surface.elliptic_orders, t, tol)
            + identity)


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
