"""Quadrature rules and special functions.

Independent oracles: scipy.integrate.quad (an adaptive Gauss-Kronrod
scheme), closed forms, series/recurrence identities and mpmath's K-Bessel
function.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from degenspec import special_fn
from degenspec.degeneration import g_degenerating_counting
from degenspec.errors import (DomainError, NonFiniteIntegrandError,
                              QuadratureError)
from degenspec.geometry import SurfaceData
from degenspec.hplane import ComplexTime, heat_kernel_h_complex
from degenspec.special_fn import (_DE_ROWS, KBesselArgs, QuadratureResult,
                                  _de_level, _de_nodes, _ts_level,
                                  integrate_finite, integrate_semi_infinite,
                                  k_bessel, log_gamma, reciprocal_gamma)
from degenspec.traces import elliptic_trace_u


class TestQuadratureResult:
    def test_invariants(self):
        r = QuadratureResult(1.0, 1e-12, 15)
        assert r.error_estimate >= 0 and r.evaluations > 0

    def test_negative_error_rejected(self):
        with pytest.raises(DomainError):
            QuadratureResult(1.0, -1e-12, 15)

    def test_zero_evaluations_rejected(self):
        with pytest.raises(DomainError):
            QuadratureResult(1.0, 0.0, 0)


class TestIntegrateSemiInfinite:
    """integrate_semi_infinite's contract: decay is a scale hint, not a rate
    the integrand must match, and bad input is rejected."""

    def test_exponential(self):
        for decay in (0.25, 1.0, 4.0):
            res = integrate_semi_infinite(lambda t: np.exp(-t), decay=decay,
                                          tol=1e-12)
            assert abs(res.value - 1.0) <= 1e-15
            assert res.error_estimate <= 1e-12

    def test_sech_squared(self):
        # int_0^inf sech^2(pi r) dr = 1/pi; sech^2(pi r) ~ 4 e^{-2 pi r}
        for decay in (1.0, 2.0 * math.pi):
            res = integrate_semi_infinite(
                lambda r: 1.0 / np.cosh(np.pi * r) ** 2, decay=decay,
                tol=1e-12)
            assert abs(res.value - 1.0 / math.pi) <= 1e-15
            assert res.error_estimate <= 1e-12

    def test_nan_propagation_rejected(self):
        with pytest.raises(NonFiniteIntegrandError):
            integrate_semi_infinite(lambda t: np.full_like(t, np.nan),
                                    decay=1.0)
        # one NaN node among finite ones is enough
        with pytest.raises(NonFiniteIntegrandError):
            integrate_semi_infinite(
                lambda t: np.where(t > 3.0, np.nan, np.exp(-t)), decay=1.0)

    def test_bad_decay_hint(self):
        for decay in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                integrate_semi_infinite(lambda t: np.exp(-t), decay=decay)


class TestIntegrateExpSinh:
    """integrate_semi_infinite, the exp-sinh rule."""

    def test_exponential(self):
        res = integrate_semi_infinite(lambda t: np.exp(-t), decay=1.0,
                                      tol=1e-12)
        assert abs(res.value - 1.0) <= 1e-15
        assert res.error_estimate <= 1e-12

    def test_sech_squared(self):
        # int_0^inf sech^2(pi r) dr = 1/pi
        res = integrate_semi_infinite(lambda r: 1.0 / np.cosh(np.pi * r) ** 2,
                                      decay=1.0, tol=1e-12)
        assert abs(res.value - 1.0 / math.pi) <= 1e-15

    def test_gaussian(self):
        res = integrate_semi_infinite(lambda t: np.exp(-t * t), decay=1.0,
                                      tol=1e-12)
        assert abs(res.value - math.sqrt(math.pi) / 2.0) <= 1e-12

    def test_matches_scipy_on_slow_decay(self):
        # polynomial decay: the window's upper end is 4.5e18 L
        oracle, _ = quad(lambda r: 1.0 / (1.0 + r * r) ** 2, 0, np.inf)
        res = integrate_semi_infinite(lambda r: 1.0 / (1.0 + r * r) ** 2,
                                      decay=1.0, tol=1e-11)
        assert abs(res.value - oracle) <= 1e-11

    def test_complex_integrand(self):
        res = integrate_semi_infinite(lambda t: np.exp(-(1.0 + 2.0j) * t),
                                      decay=1.0, tol=1e-12)
        assert abs(res.value - 1.0 / (1.0 + 2.0j)) <= 1e-14

    def test_endpoint_power_singularity(self):
        # int_0^inf u^{-0.4} e^{-u} du = Gamma(0.6); a lower cutoff of
        # e^{-43} would miss 9e-12
        res = integrate_semi_infinite(lambda u: u ** -0.4 * np.exp(-u),
                                      decay=1.0, tol=1e-13)
        assert abs(res.value - math.gamma(0.6)) <= 1e-12

    def test_undecayed_integrand_at_window_end_raises(self):
        # 0.06 of Gamma(0.05) = 19.5 lies below u = 2.3e-51, the window's end
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(lambda u: u ** -0.95 * np.exp(-u),
                                    decay=1.0, tol=1e-10)

    def test_levels_that_never_agree_raise_with_best_estimate(self):
        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite(
                lambda t: np.sin(50.0 * t) * np.exp(-0.01 * t), decay=0.01,
                tol=1e-14)
        exc = err.value
        # the level loop halves the step from 1/2 down to h = 2^-16
        assert "did not agree by step 2^-16:" in str(exc)
        assert math.isfinite(exc.value)
        assert exc.error_estimate > 1e-14
        assert exc.evaluations > 0

    def test_tol_below_the_rounding_stops_at_the_rounding_floor(self):
        # the integral is 0, but each term carries rounding of ~eps 1e7, so
        # two levels differ by ~1e-10 at every step and never meet 1e-12:
        # they stop at a few ulp of the integral of |f|, and say so
        res = integrate_semi_infinite(
            lambda t: 1e7 * (np.exp(-t) - 2.0 * np.exp(-2.0 * t)),
            decay=1.0, tol=1e-12)
        assert 1e-12 < res.error_estimate <= 1e-7
        assert abs(res.value) <= res.error_estimate

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteIntegrandError):
            integrate_semi_infinite(lambda t: np.full_like(t, np.nan),
                                    decay=1.0)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda t: np.exp(-t), decay=0.0)
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda t: np.exp(-t), decay=-1.0)
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda t: np.exp(-t), tol=0.0)
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda t: np.exp(-t), tol=math.nan)

    def test_bit_identical_repeats(self):
        # a batch of rows repeats bit for bit, as one integral does
        a = np.array([0.1, 1.3, 40.0])

        def f(u, rows):
            return np.exp(-a[rows, None] * u) * np.cos(u)

        first = integrate_semi_infinite(f, decay=a, tol=1e-12)
        again = integrate_semi_infinite(f, decay=a, tol=1e-12)
        assert np.array_equal(first.value, again.value)
        assert first.error_estimate == again.error_estimate
        assert first.evaluations == again.evaluations


def _gamma_rows(a, b):
    """The batched integrand u^{b_k} e^{-a_k u}, one row per k."""
    a, b = np.asarray(a)[:, None], np.asarray(b)[:, None]
    return lambda u, rows: u ** b[rows] * np.exp(-a[rows] * u)


class TestExpSinhBatch:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(-0.5, 3.0)),
                    min_size=1, max_size=9))
    def test_rows_equal_the_scalar_calls(self, params):
        a, b = zip(*params)
        batch = integrate_semi_infinite(_gamma_rows(a, b),
                                        decay=np.array(a), tol=1e-12)
        assert batch.value.shape == (len(a),)
        for k, (ak, bk) in enumerate(params):
            one = integrate_semi_infinite(
                lambda u: u ** bk * np.exp(-ak * u), decay=ak, tol=1e-12)
            assert batch.value[k] == pytest.approx(one.value, rel=1e-15)
            # Gamma(b + 1)/a^{b + 1}
            exact = math.exp(math.lgamma(bk + 1.0) - (bk + 1.0) * math.log(ak))
            assert abs(batch.value[k] - exact) <= 1e-12 + 1e-13 * exact

    def test_rows_beyond_one_chunk(self):
        n = 2 * _DE_ROWS + 5
        a = np.geomspace(0.01, 100.0, n)
        seen = []

        def f(u, rows):
            seen.append(len(rows))
            return np.exp(-a[rows, None] * u)

        res = integrate_semi_infinite(f, decay=a, tol=1e-12)
        assert max(seen) <= _DE_ROWS
        assert np.allclose(res.value * a, 1.0, rtol=1e-14, atol=0.0)

    def test_one_row_that_does_not_converge_raises_with_the_batch(self):
        # the middle row's levels never agree to 1e-14; its neighbours do
        def f(u, rows):
            out = np.exp(-u) * np.ones((len(rows), 1))
            middle = np.flatnonzero(rows == 1)
            out[middle] = np.sin(50.0 * u[middle]) * np.exp(-0.01 * u[middle])
            return out

        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite(f, decay=np.array([1.0, 0.01, 1.0]),
                                    tol=1e-14)
        exc = err.value
        assert exc.value.shape == (3,)
        assert exc.value[[0, 2]] == pytest.approx([1.0, 1.0], rel=1e-15)
        assert math.isfinite(exc.value[1])
        assert exc.error_estimate > 1e-14 and exc.evaluations > 0

    def test_shape_contract(self):
        one = integrate_semi_infinite(lambda u: np.exp(-u), decay=1.0,
                                      tol=1e-12)
        assert isinstance(one.value, float)
        rows = integrate_semi_infinite(lambda u, rows: np.exp(-u),
                                       decay=[1.0], tol=1e-12)
        assert isinstance(rows.value, np.ndarray) and rows.value.shape == (1,)
        assert rows.value[0] == one.value
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda u, rows: np.exp(-u),
                                    decay=np.ones((2, 2)))
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda u, rows: np.exp(-u),
                                    decay=np.array([1.0, 0.0]))

    def test_non_finite_row_rejected(self):
        def f(u, rows):
            return np.where(rows[:, None] == 1, np.nan, np.exp(-u))

        with pytest.raises(NonFiniteIntegrandError):
            integrate_semi_infinite(f, decay=np.ones(3))


def _gamma_batch(tol, top=8.0):
    """Rows e^{-u}, u^3 e^{-u}, u^top e^{-u}, which stop at successive
    levels."""
    f = _gamma_rows([1.0, 1.0, 1.0], [0.0, 3.0, top])
    return lambda: integrate_semi_infinite(f, decay=np.ones(3), tol=tol)


# the values and error estimates of the rule with one integrand call per
# level, which the look-ahead over levels 1-4 must keep bit for bit; then
# the evaluations and integrand calls of the look-ahead: two calls for an
# integral that stops by level 4
LEVEL_BY_LEVEL = [
    ("gaussian", lambda: integrate_semi_infinite(lambda x: np.exp(-x * x),
                                                 decay=1.0, tol=1e-12),
     0.886226925452758, 1.570730038865812e-15, 169, 2),
    ("etr-2-3", lambda: elliptic_trace_u((2, 3), 0.05),
     0.6826863723433446, 1.211137537520031e-15, 169, 2),
    ("etr-1e7", lambda: elliptic_trace_u((10 ** 7,), 1.0),
     8.568216795979644, 1.5176824781905934e-14, 712, 4),
    ("plane-kernel", lambda: heat_kernel_h_complex(ComplexTime(0.5), 0.0),
     0.4807846202472672 + 0j, 2.9976021664879227e-15, 154, 2),
    ("power", lambda: integrate_semi_infinite(
        lambda u: u ** -0.4 * np.exp(-u), decay=1.0, tol=1e-13),
     1.489192248812817, 2.6448117131076274e-15, 214, 2),
    ("counting-sum", lambda: g_degenerating_counting(
        SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3, 64),
                    degenerating=(2,)), 1.0, 50.0),
     271.60214466238074, 1.5086243365658447e-10, 1543, 5),
    # rows stopping at levels 2, 3 and 4: the nodes of levels 3 and 4 that
    # the first two rows did not need count too (357 one level at a time)
    ("rows-2-3-4", _gamma_batch(1e-4),
     [1.0000000004024605, 6.000000000000075, 40320.0],
     7.251255011331281e-06, 597, 2),
    # rows stopping at levels 3, 4 and 5 (693 one level at a time); u^8
    # would stop at level 4 (test_a_level_below_the_rounding_floor_stops)
    ("rows-3-4-5", _gamma_batch(1e-8, top=10.0),
     [1.0, 6.000000000000001, 3628800.0], 2.532966186387056e-09, 789, 3),
]


@pytest.mark.parametrize("run, value, error, evaluations, calls",
                         [case[1:] for case in LEVEL_BY_LEVEL],
                         ids=[case[0] for case in LEVEL_BY_LEVEL])
def test_look_ahead_keeps_the_values_and_errors(monkeypatch, run, value,
                                                error, evaluations, calls):
    seen = []
    rule = special_fn._exp_sinh

    def spy(f, decay, tol):
        count = []

        def counted(u, *rows):
            count.append(u.shape)
            return f(u, *rows)

        res = rule(counted, decay, tol)
        seen.append((res, len(count)))
        return res

    monkeypatch.setattr(special_fn, "_exp_sinh", spy)
    run()
    [(res, n)] = seen
    assert np.asarray(res.value).tolist() == value
    assert res.error_estimate == error
    assert res.evaluations == evaluations
    assert n == calls


def test_a_level_below_the_rounding_floor_stops():
    # u^8 e^{-u} at tol 1e-8: level 4 differs from level 3 by 4.6e-6, a
    # ratio 3e-6 of the difference before, which puts its error at 1.4e-11,
    # under the rounding floor 6.3e-11 of 8! = 40320: the look-ahead's two
    # calls; level 5, a third call, would equal level 4
    calls = []

    def f(u):
        calls.append(u.size)
        return u ** 8 * np.exp(-u)

    res = integrate_semi_infinite(f, decay=1.0, tol=1e-8)
    assert len(calls) == 2
    assert res.error_estimate <= 1e-10
    assert abs(res.value - 40320.0) <= res.error_estimate


def test_a_nan_at_a_look_ahead_node_names_its_u():
    inputs = []

    def f(u):
        inputs.append(u)
        y = np.exp(-u * u)
        if len(inputs) == 2:
            y[-1] = np.nan  # the last node of level 4
        return y

    with pytest.raises(NonFiniteIntegrandError) as err:
        integrate_semi_infinite(f, decay=1.0, tol=1e-12)
    assert len(inputs) == 2
    assert f"u={inputs[1][-1]:.6g}" in str(err.value)


def test_a_nan_that_only_a_stopped_row_sees_is_not_used():
    # the first row stops at level 2, before the level-4 node that is NaN
    rows = _gamma_rows([1.0, 1.0, 1.0], [0.0, 3.0, 8.0])

    def f(u, running):
        y = rows(u, running)
        if y.shape[1] > 19:
            y[0, -1] = np.nan
        return y

    res = integrate_semi_infinite(f, decay=np.ones(3), tol=1e-4)
    assert res.value.tolist() == LEVEL_BY_LEVEL[6][2]


def test_node_tables_are_read_only():
    for level in (0, 1, 4, 5):
        for table in _de_level(level):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1.0


class TestIntegrateFinite:
    """integrate_finite on singular ends and bad intervals."""

    def test_semicircle(self):
        # endpoint sqrt singularities of the derivative, at ends 0 and not
        for f, a, b in [(lambda r: np.sqrt(1.0 - r * r), -1.0, 1.0),
                        (lambda r: np.sqrt(r * (2.0 - r)), 0.0, 2.0)]:
            res = integrate_finite(f, a, b, tol=1e-10)
            assert abs(res.value - math.pi / 2.0) <= 1e-12

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            integrate_finite(lambda t: t, 1.0, 0.0)

    def test_mellin_endpoint_singularity(self):
        # a Mellin-type integrand t^{s-1} e^{-t}, s = 1/2:
        # int_0^1 t^{-1/2} e^{-t} dt = gamma(1/2, 1) = sqrt(pi) erf(1)
        oracle = math.sqrt(math.pi) * math.erf(1.0)
        res = integrate_finite(lambda t: t ** -0.5 * np.exp(-t), 0.0, 1.0,
                               tol=1e-12)
        assert abs(res.value - oracle) <= 1e-13
        assert res.error_estimate <= 1e-12


class TestIntegrateTanhSinh:
    """integrate_finite, the tanh-sinh rule."""

    def test_linear(self):
        res = integrate_finite(lambda t: t, 0.0, 1.0, tol=1e-12)
        assert abs(res.value - 0.5) <= 1e-15

    def test_constant_weight_zero_power(self):
        res = integrate_finite(lambda r: (1.0 - r * r) ** 0, -1.0, 1.0,
                               tol=1e-12)
        assert abs(res.value - 2.0) <= 1e-14

    def test_even_symmetry(self):
        full = integrate_finite(lambda r: np.exp(-r * r), -2.0, 2.0, tol=1e-12)
        half = integrate_finite(lambda r: np.exp(-r * r), 0.0, 2.0, tol=1e-12)
        assert abs(full.value - 2.0 * half.value) <= 1e-14

    @pytest.mark.parametrize("power", [-0.4, -0.5])
    def test_endpoint_power_singularity(self, power):
        # the nodes' distances to the end 0 come from a table, so none
        # rounds onto the pole
        calls = []

        def f(u):
            calls.append(u.size)
            return u ** power

        res = integrate_finite(f, 0.0, 1.0, 1e-12)
        assert abs(res.value - 1.0 / (1.0 + power)) <= 1e-12
        assert res.error_estimate <= 1e-12
        assert len(calls) == 2

    def test_smallest_node_keeps_its_precision(self):
        # c + d tanh s would round every node within eps of the end to 0
        seen = []

        def f(x):
            seen.append(x.min())
            return np.exp(x)

        res = integrate_finite(f, 0.0, 2.0, 1e-12)
        assert abs(res.value - math.expm1(2.0)) <= 1e-14
        assert 0.0 < min(seen) < 1e-270

    @pytest.mark.parametrize("f, a, b, value", [
        (lambda x: np.exp(-x * x), -2.0, 3.0,
         0.5 * math.sqrt(math.pi) * (math.erf(2.0) + math.erf(3.0))),
        (lambda x: np.sqrt(1.0 - x * x), -1.0, 1.0, 0.5 * math.pi),
        (lambda x: 1.0 / (1.0 + 100.0 * x * x), 0.0, 1.0,
         math.atan(10.0) / 10.0),
        (lambda x: np.exp(1j * x), 0.0, math.pi, 2j),
    ])
    def test_analytic_integrands(self, f, a, b, value):
        res = integrate_finite(f, a, b, 1e-12)
        assert abs(res.value - value) <= 1e-13
        assert res.error_estimate <= 1e-12

    def test_empty_interval(self):
        assert integrate_finite(np.exp, 1.5, 1.5, 1e-12).value == 0.0

    @pytest.mark.parametrize("f, value, tol", [
        # a kink: the levels converge only like h^2, and miss 1e-12 by
        # h = 2^-16 (at tol 1e-10 they meet it, after 13 calls)
        (lambda x: np.exp(-np.abs(x - 0.3)),
         2.0 - math.exp(-0.3) - math.exp(-0.7), 1e-12),
        # a jump: like h
        (lambda x: np.where(x < 0.3, 1.0, 0.0), 0.3, 1e-8),
    ], ids=["kink", "jump"])
    def test_kink_or_jump_raises_with_its_last_level(self, f, value, tol):
        with pytest.raises(QuadratureError) as err:
            integrate_finite(f, 0.0, 1.0, tol)
        exc = err.value
        assert "did not agree by step 2^-16:" in str(exc)
        assert exc.error_estimate > tol
        assert abs(exc.value - value) <= exc.error_estimate
        assert exc.evaluations > 100_000

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteIntegrandError):
            integrate_finite(lambda x: np.full_like(x, np.nan), 0.0, 1.0,
                             1e-10)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            integrate_finite(np.exp, 1.0, 0.0, 1e-10)
        with pytest.raises(DomainError):
            integrate_finite(np.exp, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate_finite(np.exp, 0.0, 1.0, math.nan)


def test_tanh_sinh_tables_are_read_only():
    for level in (0, 1, 4, 5):
        for table in _ts_level(level):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1.0
    # so are the look-ahead windows, cached once per window, of both maps
    for table in (_ts_level, _de_level):
        ahead = _de_nodes(table, 1, 4, 3, 12)
        assert _de_nodes(table, 1, 4, 3, 12) is ahead
        for array in (*ahead, *_de_nodes(table, 5, 5, 3, 12)):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestDeterminism:
    def test_bit_identical_repeats(self):
        def f(t):
            return np.exp(-1.3 * t) * np.cos(t)

        a = integrate_semi_infinite(f, decay=1.3, tol=1e-12)
        b = integrate_semi_infinite(f, decay=1.3, tol=1e-12)
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate
        assert a.evaluations == b.evaluations

    def test_finite_repeats(self):
        def f(t):
            return np.exp(-t * t) * np.cos(3.0 * t)

        a = integrate_finite(f, -1.0, 2.0, tol=1e-12)
        b = integrate_finite(f, -1.0, 2.0, tol=1e-12)
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate
        assert a.evaluations == b.evaluations


class TestLogGamma:
    def test_gamma_one(self):
        assert abs(log_gamma(1.0)) <= 1e-14

    def test_factorial(self):
        assert abs(log_gamma(5.0) - math.log(24.0)) <= 1e-13

    def test_half(self):
        assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) <= 1e-13

    def test_relative_error_on_real_axis(self):
        for s in np.linspace(0.5, 50.0, 25):
            ref = math.lgamma(s)
            if ref == 0.0:
                continue
            assert abs(log_gamma(float(s)) - ref) <= 1e-12 * abs(ref) + 1e-14

    def test_domain_error(self):
        with pytest.raises(DomainError):
            log_gamma(-1.0)
        with pytest.raises(DomainError):
            log_gamma(-0.5 + 2.0j)

    def test_complex_principal_branch(self):
        val = log_gamma(2.0 + 3.0j)
        assert abs(np.exp(val) - np.exp(log_gamma(3.0 + 3.0j)) / (2.0 + 3.0j)) \
            <= 1e-12 * abs(np.exp(val))


class TestReciprocalGamma:
    def test_zero_at_nonpositive_integers(self):
        for k in (0, -1, -2, -5):
            assert reciprocal_gamma(float(k)) == 0.0

    def test_matches_gamma_right_half(self):
        for s in (0.5, 1.0, 3.7):
            assert abs(reciprocal_gamma(s) - 1.0 / math.gamma(s)) <= 1e-13

    def test_reflection_free_left_values(self):
        # Gamma(-0.5) = -2 sqrt(pi)
        assert abs(reciprocal_gamma(-0.5) + 1.0 / (2.0 * math.sqrt(math.pi))) \
            <= 1e-13


class TestKBessel:
    def test_closed_form_unit(self):
        val = k_bessel(KBesselArgs(s=-0.5, a=1.0, b=1.0))
        ref = math.sqrt(math.pi) * math.exp(-2.0)
        assert abs(val - ref) <= 1e-10 * ref

    def test_closed_form_23(self):
        val = k_bessel(KBesselArgs(s=-0.5, a=2.0, b=3.0))
        ref = math.sqrt(math.pi) / 3.0 * math.exp(-12.0)
        assert abs(val - ref) <= 1e-10 * ref

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 4.0])
    def test_closed_form_grid(self, a, b):
        val = k_bessel(KBesselArgs(s=-0.5, a=a, b=b))
        ref = math.sqrt(math.pi) / b * math.exp(-2.0 * a * b)
        assert abs(val - ref) <= 1e-10 * ref

    @pytest.mark.parametrize("s,a,b", [(-0.5, 1.0, 2.0), (0.75, 0.8, 1.4),
                                       (1.5, 2.0, 0.6), (0.0, 1.1, 1.3)])
    def test_inversion_symmetry(self, s, a, b):
        # t -> 1/t swaps (s, a, b) -> (-s, b, a)
        v1 = k_bessel(KBesselArgs(s=s, a=a, b=b))
        v2 = k_bessel(KBesselArgs(s=-s, a=b, b=a))
        assert abs(v1 - v2) <= 1e-10 * max(abs(v1), 1e-300)

    @pytest.mark.parametrize("s,a,b", [
        (0.5, 1.5, 0.2), (0.0, 1.1, 1.3), (-2.3, 0.7, 2.0), (4.5, 0.05, 0.3),
        (12.0, 3.0, 0.01),
        # 2ab = 680 and 690: values of 1e-298 to 1e-290
        (0.5, 1.0, 340.0), (-0.5, 2.0, 170.0), (1.7, 0.25, 1360.0),
        (3.0, 0.5, 690.0)])
    def test_against_mpmath(self, s, a, b):
        val = k_bessel(KBesselArgs(s=s, a=a, b=b))
        with mp.workdps(40):
            ref = 2 * (mp.mpf(b) / a) ** s * mp.besselk(s, 2 * mp.mpf(a) * b)
        assert abs(val / float(ref) - 1.0) <= 5e-15

    def test_array_in_b(self):
        b = np.array([0.1, 0.7, 3.0, 40.0])
        vals = k_bessel(KBesselArgs(s=0.5, a=1.3, b=b))
        assert vals.shape == b.shape
        assert all(v == k_bessel(KBesselArgs(s=0.5, a=1.3, b=float(x)))
                   for v, x in zip(vals, b))

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            KBesselArgs(s=0.5, a=0.0, b=1.0)
        with pytest.raises(DomainError):
            KBesselArgs(s=0.5, a=1.0, b=np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            KBesselArgs(s=0.5, a=1.0, b=-1.0)
