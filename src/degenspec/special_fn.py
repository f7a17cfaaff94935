"""Special functions and the two quadrature rules used by every module.

integrate_semi_infinite and integrate_finite are the double-exponential
rules (Takahasi-Mori 1974), exp-sinh and tanh-sinh, for integrands analytic
on (0, inf) and on (a, b): the maps u = L exp((pi/2) sinh tau), L = 1/decay,
and x = c + d tanh((pi/2) sinh tau), and the trapezoid rule in tau, with the
step halved from 1/2 until two successive levels agree, or from level 4 on
until the last difference, extrapolated, falls below the rounding of the
sum.  Both maps go through one level loop (_de_rows): the first level is
one array call of the integrand, the new nodes of levels 1-4 one more, and
each later level one more; the nodes are tabulated once per level and map
(_de_level, _ts_level), and the look-ahead windows once per window
(_de_nodes).  exp-sinh serves every half-line integral of the package, all
analytic in a strip: the cone integrals (the u-form of ETr among them), the
plane kernel off the diagonal and, at complex time only, on it (real time
has a closed form there), the Selberg heat-trace integral and the one
Mellin integral of `zeta_det`, for opaque traces and surfaces alike.  The
r-form of ETr is a closed-form erfcx series (traces.elliptic_trace_r) and
makes no quadrature call.  An array of decay
rates batches a family of such integrals, one row per entry (the
heat-trace terms at every t of a grid or of a Mellin panel): each call is
then on a (rows, nodes) array.  tanh-sinh serves the two theta-integrals
on [0, pi/2], the Fermi-weighted c_w kernel and the non-compact counting
terms; it takes each node's distance to its end of the interval from its
table, so an integrable singularity at an end 0 converges like an
analytic integrand.

The rules' limits: a jump or a kink inside the interval makes the levels
converge only algebraically, and the rule raises QuadratureError with the
last level's value by step h = 2^-16 (exp-sinh on 1_{t<1} e^{-t},
tanh-sinh on e^{-|x-0.3|} over [0, 1]).  An integrable singularity at an
end other than 0 is not resolved: nodes within rounding of that end land on
it, and the rule raises NonFiniteIntegrandError there ((1 - x)^{-1/2} over
[0, 1]).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np
from scipy import special as _sp

from .errors import DomainError, NonFiniteIntegrandError, QuadratureError

__all__ = [
    "QuadratureResult",
    "KBesselArgs",
    "log_gamma",
    "reciprocal_gamma",
    "k_bessel",
    "integrate_finite",
    "integrate_semi_infinite",
    "as_array_fn",
]

_DEFAULT_TOL = 1e-10
_EPS = float(np.finfo(float).eps)

# exp-sinh rule: the tau window keeps u = L e^{(pi/2) sinh tau} inside
# [2.3e-51 L, 4.5e18 L], so neither u nor the weight under- or overflows, an
# integrable u^{a-1} at 0 loses at most (2.3e-51)^a/a and e^{-decay u} is
# e^{-4.5e18} at the top; the step halves from 1/2 down to 2^-_DE_LEVELS,
# fine enough for the counting sum's Bessel kernel, of period 2 pi/sqrt(T -
# 1/4), up to T = 3e6 (at T = 1e7 the levels still differ by 4e-9).  Both
# ends lie on the first level's grid of step 1/2.
_DE_TAU = (-5.0, 4.0)
# tanh-sinh rule: the tau window keeps each node's distance 1 - |tanh s|,
# s = (pi/2) sinh tau, to its end of [-1, 1] above 1e-275 and its weight
# above 1e-272, so neither underflows; an integrable t^{a-1} at an end 0
# loses at most about (1e-275)^a/a.  Both ends lie on the first level's grid.
_TS_TAU = (-6.0, 6.0)
_DE_LEVELS = 16
# two levels cannot agree closer than the rounding of their sums, a few ulp
# of the integral of |f|
_DE_ROUNDING = 8.0 * _EPS
# a batched exp-sinh call takes its rows this many at a time, so its arrays
# stay (_DE_ROWS, nodes) whatever the size of the batch
_DE_ROWS = 64
# levels 1.._DE_AHEAD are one integrand call on the union of their nodes
# (15 per first-level interval), each later level one call: most integrals
# stop at level 3 or 4 and so take two calls
_DE_AHEAD = 4


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
    b: float | np.ndarray

    def __post_init__(self):
        if not (self.a > 0 and np.all(np.asarray(self.b) > 0)):
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


def integrate_finite(f: Callable, a: float, b: float,
                     tol: float = _DEFAULT_TOL) -> QuadratureResult:
    """Integrate f over [a, b] to absolute tolerance tol by the tanh-sinh
    rule, two array calls of f for most integrals (see _tanh_sinh).

    f must be analytic on (a, b), array-native and finite at every node;
    an integrable algebraic singularity at an end 0 is admissible.
    """
    return _tanh_sinh(f, float(a), float(b), tol)


def integrate_semi_infinite(f: Callable, decay: float | np.ndarray = 1.0,
                            tol: float = _DEFAULT_TOL) -> QuadratureResult:
    """Integrate f over (0, inf) to absolute tolerance tol by the exp-sinh
    rule, two array calls of f for most integrals (see _exp_sinh).

    f must be analytic on (0, inf), array-native and finite at every node;
    an integrable algebraic singularity at 0 is admissible.  `decay` is an
    exponential-rate hint: f should eventually fall off at least like
    exp(-decay*t).  It fixes the scale L = 1/decay of the map.  decay may be
    a 1-D array: one integral per entry, f called as f(u, rows) with u of
    shape (rows, n), and the value the array of the integrals.
    """
    return _exp_sinh(f, decay, tol)


def _exp_sinh(f: Callable, decay, tol: float) -> QuadratureResult:
    """The exp-sinh rule (Takahasi-Mori 1974) over (0, inf) for f analytic
    on (0, inf).

    u = L exp((pi/2) sinh tau) with L = 1/decay, and the trapezoid rule in
    tau over the levels of _de_rows, on the tables of _de_level: abscissae
    e^{(pi/2) sinh tau} and weights (pi/2) cosh tau, so a node's term is
    f(u) u times its weight.

    A 1-D array decay gives one integral per entry (a row): f is then
    called as f(u, rows), u of shape (len(rows), n) for the index array
    `rows` of the entries still running, and returns their values in that
    shape.  Each row keeps its own rounding floor, stop test and end-term
    error, and stops being evaluated once it has stopped (after the
    look-ahead call, whose nodes every row running at level 1 gets, and
    which `evaluations` counts in full); the rows share the tau nodes of the
    union of their trimmed windows, and the levels go on until every row
    has stopped.  The value is the array of the rows' integrals and the
    error estimate the worst row's; QuadratureError carries the whole
    array.  Rows go through _DE_ROWS at a time.  A scalar decay is the
    one-row case with f(u) on a 1-D u.  f is called directly, not through
    as_array_fn, with floating-point warnings ignored.
    """
    if not tol > 0:
        raise DomainError("tolerance must be > 0")
    decay = np.asarray(decay, dtype=float)
    if decay.ndim > 1 or not (decay > 0).all() or not np.isfinite(decay).all():
        raise DomainError("decay hint must be finite and > 0, a scalar or a "
                          "1-D array")
    batch = decay.ndim == 1
    # floating-point warnings are ignored, as as_array_fn does
    with np.errstate(all="ignore"):
        if not batch:
            parts = [_exp_sinh_rows(f, 1.0 / decay, tol)]
        else:
            parts = [_exp_sinh_rows(f, 1.0 / decay[k:k + _DE_ROWS], tol, k)
                     for k in range(0, decay.size, _DE_ROWS)]
    return _de_result("exp-sinh", parts, tol, batch)


def _exp_sinh_rows(f: Callable, scales, tol: float, start: int = 0) -> tuple:
    """_de_rows on the exp-sinh tables for map scales `scales`: a 1-D array
    of rows, the entries start, start + 1, ... of the batch, for which f is
    called as f(u, rows) with u of shape (rows, n) and the index array of
    the rows still running; or one number, for which f(u) is called on a
    1-D u."""
    batch = isinstance(scales, np.ndarray)

    def terms(x: np.ndarray, w: np.ndarray, live: np.ndarray) -> tuple:
        # u and the terms f(u) u w, one row per running row, also when u
        # is 1-D
        u = scales[live, None] * x if batch else scales * x
        y = f(u, start + live) if batch else f(u)
        return u.reshape(len(live), -1), \
            (y * (u * w)).reshape(len(live), -1)

    return _de_rows(terms, _de_level, len(scales) if batch else 1, tol)


def _tanh_sinh(f: Callable, a: float, b: float, tol: float) -> QuadratureResult:
    """The tanh-sinh rule (Takahasi-Mori 1974) over [a, b] for f analytic on
    (a, b).

    x = c + d tanh s, s = (pi/2) sinh tau, c and d the midpoint and half
    length, and the trapezoid rule in tau over the levels of _de_rows, on
    the tables of _ts_level.  A node's distance to its end of the interval,
    d (1 - |tanh s|), comes from the table and is taken off that end, not
    found as c + d tanh s, which rounds to the end once 1 - |tanh s| < eps:
    at an endpoint 0 every node keeps full relative precision, so an
    integrable singularity there, such as t^{-0.4}, converges like any
    analytic integrand (elsewhere nodes within rounding of an end land on
    it).  A jump or a kink inside (a, b) makes the levels converge only
    algebraically, and the rule raises QuadratureError by h = 2^-16.  f is
    called directly on a 1-D array, with floating-point warnings ignored.
    """
    if not tol > 0:
        raise DomainError("tolerance must be > 0")
    if b < a:
        raise DomainError(f"invalid interval: a={a} > b={b}")
    d = 0.5 * (b - a)

    def terms(e: np.ndarray, w: np.ndarray, live) -> tuple:
        x = np.where(e < 0.0, a, b) - d * e
        return x[None], (f(x) * (d * w))[None]

    with np.errstate(all="ignore"):
        part = _de_rows(terms, _ts_level, 1, tol)
    return _de_result("tanh-sinh", [part], tol, False)


def _de_result(rule: str, parts: list, tol: float,
               batch: bool) -> QuadratureResult:
    """The result of the _de_rows blocks `parts` of one call, or the
    QuadratureError that carries it if a row did not converge."""
    values, errors, converged = ([v for part in parts for v in part[k]]
                                 for k in range(3))
    evaluations = sum(part[3] for part in parts)
    value = np.asarray(values) if batch else values[0]
    error = max(errors)
    if not all(converged):
        raise QuadratureError(
            f"{rule} levels did not agree by step 2^-{_DE_LEVELS}: "
            f"difference {error:.3e} > {tol:.3e}",
            value=value, error_estimate=error, evaluations=evaluations)
    return QuadratureResult(value, error, evaluations)


def _tau(level: int, lo: float, hi: float) -> np.ndarray:
    """The tau that level `level` adds over the window [lo, hi]: the grid of
    step 1/2 at level 0; tau = lo + h (2m + 1), h = 2^(-level-1), after, so
    the window between first-level nodes i and j is the slice
    [i 2^(level-1), j 2^(level-1)), the nodes a + h, a + 3h, ... from
    a = tau_i."""
    if level == 0:
        return 0.5 * np.arange(math.ceil(2.0 * lo), math.floor(2.0 * hi) + 1)
    h = 0.5 ** (level + 1)
    return lo + h * np.arange(1.0, (hi - lo) / h, 2.0)


def _read_only(*tables: np.ndarray) -> tuple:
    for table in tables:
        table.flags.writeable = False
    return tables


@cache
def _de_level(level: int) -> tuple:
    """The nodes that exp-sinh level `level` adds over the tau window
    _DE_TAU (see _tau), as read-only arrays of the abscissae
    e^{(pi/2) sinh tau} (u/L) and the weights (pi/2) cosh tau, built on
    first use."""
    tau = _tau(level, *_DE_TAU)
    return _read_only(np.exp(0.5 * math.pi * np.sinh(tau)),
                      0.5 * math.pi * np.cosh(tau))


@cache
def _ts_level(level: int) -> tuple:
    """The nodes that tanh-sinh level `level` adds over the tau window
    _TS_TAU (see _tau), as read-only arrays, built on first use: the
    distance 1 - |tanh s| = 2/(e^{2|s|} + 1) of each node to its end of
    [-1, 1], s = (pi/2) sinh tau, negative for the left end (tau < 0), and
    the weights (pi/2) cosh tau (1 - tanh^2 s), with 1 - tanh^2 s taken as
    the distance times 2 minus it, so neither rounds to 0 before it
    underflows."""
    tau = _tau(level, *_TS_TAU)
    distance = 2.0 / (np.exp(math.pi * np.abs(np.sinh(tau))) + 1.0)
    return _read_only(np.copysign(distance, tau),
                      0.5 * math.pi * np.cosh(tau) * distance
                      * (2.0 - distance))


# the levels most integrals stop by are tabulated at import, ~0.4 ms, which
# a process's first integral would otherwise pay, more than it costs itself
for _level in range(_DE_AHEAD + 1):
    _de_level(_level), _ts_level(_level)
del _level


@cache
def _de_nodes(table: Callable, first: int, last: int, i: int, j: int) -> tuple:
    """Abscissae and weights of the nodes that levels first..last of
    `table` add in the window between first-level nodes i and j, level
    after level, as read-only arrays built once per window."""
    parts = []
    for k in range(first, last + 1):
        x, w = table(k)
        span = slice(i << (k - 1), j << (k - 1))
        parts.append((x[span], w[span]))
    if len(parts) == 1:
        return parts[0]
    return _read_only(*(np.concatenate(p) for p in zip(*parts)))


def _de_rows(terms: Callable, table: Callable, count: int,
             tol: float) -> tuple:
    """The levels of a double-exponential rule for `count` rows: the
    trapezoid rule in tau with step h = 1/2, 1/4, ..., each level adding
    the nodes halfway between the last level's, on the per-level tables
    `table` (_de_level or _ts_level).  terms(x, w, live) gives the
    abscissae and the terms of the rows `live` (an index array) at table
    nodes x, w, each of shape (len(live), nodes).

    The first level is one call on the whole tau window and trims it to
    the nodes where some row's term exceeds eps times its largest one,
    plus one node on each side; the window's end terms enter the error
    estimate, so an integrand that has not died out inside it cannot
    converge.  Levels 1 to _DE_AHEAD are then one call on all their new
    nodes in the window (15 per first-level node, _de_nodes), and each
    later level one call on its own; the levels' sums and stop tests still
    go one level after the other, so the result is that of one call per
    level.  A row's result is the first level, from the third on, that
    agrees with the one before to tol, or to a few ulp of the integral of
    |f| where that is larger; by h = 2^-16 it is the last level, flagged as
    not converged.  From level _DE_AHEAD on, where the next level costs a
    call, a level also stops when its difference d_k, extrapolated
    geometrically with the ratio d_k/d_{k-1}, puts its own error below
    that rounding floor: the level after it could only confirm it.
    Without this the cost of an integral jumps by a call on 16 nodes per
    first-level node wherever the difference at level _DE_AHEAD lands just
    above tol.  A row stops being evaluated once it has stopped, after the
    look-ahead call.

    Returns the rows' values, error estimates and convergence flags as
    lists, and the count of evaluations: every node a call was made on,
    also the look-ahead nodes of a row that stopped at level 2 or 3."""
    live = list(range(count))  # the rows still running
    running = np.arange(count)  # the rows the next call evaluates

    def non_finite(u: np.ndarray, values: np.ndarray):
        bad = u[~np.isfinite(values)]
        return NonFiniteIntegrandError(
            f"integrand returned a non-finite value near u={bad[0]:.6g}")

    h = 0.5
    x0, w0 = table(0)
    u, first = terms(x0, w0, running)
    if not np.isfinite(first).all():
        raise non_finite(u, first)
    evaluations = first.size
    size = np.abs(first)
    tail = (h * (size[:, 0] + size[:, -1])).tolist()
    # the union of the rows' windows: the nodes where some row's term
    # exceeds eps times its largest, plus one node on each side
    keep = np.flatnonzero(
        (size > _EPS * size.max(axis=1, keepdims=True)).any(axis=0))
    i, j = (max(int(keep[0]) - 1, 0), min(int(keep[-1]) + 1, x0.size - 1)) \
        if keep.size else (0, x0.size - 1)
    total = (h * first[:, i:j + 1].sum(axis=1)).tolist()
    # the first level's integral of |f| sets each row's rounding floor
    floor = (_DE_ROUNDING * h * size[:, i:j + 1].sum(axis=1)).tolist()
    stop = [max(tol, x) for x in floor]
    error = [math.inf] * count
    step = [math.inf] * count  # each row's last difference of levels
    place = list(range(count))  # the running rows' places in the block
    for level in range(1, _DE_LEVELS):
        if level == 1 or level > _DE_AHEAD:
            # one call on the nodes of levels 1.._DE_AHEAD, then one a level
            if len(live) < len(running):
                running = np.asarray(live)
                place = list(range(len(live)))
            last = _DE_AHEAD if level == 1 else level
            u, block = terms(*_de_nodes(table, level, last, i, j), running)
            evaluations += block.size
            end = 0
        h *= 0.5
        begin, end = end, end + ((j - i) << (level - 1))
        sums = block[:, begin:end].sum(axis=1)
        new = sums.tolist()
        # a non-finite term makes its row's sum non-finite
        if not np.isfinite(sums).all():
            for p in place:
                if not cmath.isfinite(new[p]):
                    raise non_finite(u[p, begin:end], block[p, begin:end])
        going = []
        for k, (r, p) in enumerate(zip(live, place)):
            previous, total[r] = total[r], 0.5 * total[r] + h * new[p]
            before, step[r] = step[r], abs(total[r] - previous)
            error[r] = step[r] + tail[r]
            if level >= _DE_AHEAD and error[r] > stop[r] and step[r] < before:
                # past the look-ahead: the differences falling off by at
                # least this ratio leave this level ratio/(1 - ratio) of
                # its own; below the rounding floor, no level can do better
                ratio = step[r] / before
                guess = step[r] * ratio / (1.0 - ratio) + tail[r]
                if guess <= floor[r]:
                    error[r] = guess
            if level < 2 or error[r] > stop[r]:
                going.append(k)
        if not going:
            break
        if len(going) < len(live):
            live = [live[k] for k in going]
            place = [place[k] for k in going]
    converged = [e <= s for e, s in zip(error, stop)]
    return total, [max(e, x) for e, x in zip(error, floor)], converged, \
        evaluations


def log_gamma(s):
    """Principal branch of log Gamma(s) on the right half plane Re(s) > 0."""
    z = complex(s)
    if z.real <= 0:
        raise DomainError(f"log_gamma requires Re(s) > 0, got {s}")
    out = _sp.loggamma(z)
    if isinstance(s, complex) or np.iscomplexobj(s):
        return complex(out)
    return float(out.real)


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


def k_bessel(args: KBesselArgs):
    """K-Bessel integral int_0^inf exp(-(a^2 t + b^2/t)) t^s dt/t
    = 2 (b/a)^s K_s(2ab) (DLMF 10.32.10), elementwise in b.

    K_s(2ab) is taken as scipy's kve, K_s(z) e^z, times a separate e^{-2ab}:
    each factor is then accurate to a few ulp, so the value keeps full
    relative precision down to the underflow threshold (one exponential of
    s log(b/a) - 2ab would lose |2ab| ulp).  A scalar b gives a float.
    """
    s, a, b = args.s, args.a, np.asarray(args.b, dtype=float)
    z = 2.0 * a * b
    out = 2.0 * _sp.kve(s, z) * (b / a) ** s * np.exp(-z)
    return float(out) if out.ndim == 0 else out
