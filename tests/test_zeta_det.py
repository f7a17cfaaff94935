"""Spectral/Hurwitz zeta machinery and the regularized determinant.

Oracles: Riemann zeta via scipy.special.zeta (the circle spectrum is
2 zeta_R(2s) with zeta_R'(0) = -log(2 pi)/... giving det = 4 pi^2), finite
Dirichlet sums, cross-representation identities, and for the surface terms
the mpmath r-integrals and Selberg product of mp_reference.
"""

import math
import time
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from scipy.special import zeta as riemann_zeta

from degenspec import special_fn, zeta_det
from degenspec.errors import (AlphaCollisionError, DomainError,
                              ExpansionMismatchError, FitError,
                              InsufficientSubtractionsError, PoleError,
                              QuadratureError, StripViolationError)
from degenspec.geometry import DegeneratingFamily, SurfaceData
from degenspec.special_fn import as_array_fn, integrate_semi_infinite
from degenspec.traces import (degenerating_trace, elliptic_trace_u,
                              identity_trace, standard_trace)
from degenspec.zeta_det import (ZetaEvaluation,
                                degeneration_subtraction_zeta, det_laplacian,
                                fit_trace_expansion, heat_coefficients,
                                hurwitz_zeta, log_det_truncated,
                                mellin_regularized_integral,
                                spectral_zeta_mellin, spectral_zeta_series,
                                surface_log_det, surface_zeta, truncated_zeta)
from mp_reference import (circle_theta, finite_model_trace, mp_elliptic_zeta,
                          mp_hyperbolic_zeta, mp_identity_zeta,
                          mp_identity_zeta_prime_zero, mp_log_selberg_one,
                          mp_surface_zeta)

SQRT_PI = math.sqrt(math.pi)
CIRCLE_COEFFS = [(-0.5, SQRT_PI)]
# a finite spectrum with its exact ladder b_{-1} = 0, b_0 = 5
FIVE_MODES = [0.7, 1.3, 2.9, 4.4, 5.1]
# a spectrum with a zero mode and a mode 0.1 below the cut 0.2, its exact
# ladder b_{-1} = 0, b_0 = 5, b_1 = -6.1, on which every transform of an
# opaque trace runs; each takes the coefficients and the subtraction depth
# as keywords
OPAQUE_MODES = [0.0, 0.1, 0.5, 1.5, 4.0]
OPAQUE_TRANSFORMS = {
    "spectral_zeta_mellin": lambda trace, **kw: spectral_zeta_mellin(
        trace, 1.0, 2.0, **kw).value,
    "hurwitz_zeta": lambda trace, **kw: hurwitz_zeta(trace, 2.0, 0.5, **kw),
    "truncated_zeta": lambda trace, **kw: truncated_zeta(
        trace, 0.2, 2.0, small_eigenvalues=[0.0, 0.1], c_M=1.0, **kw),
    "det_laplacian": lambda trace, **kw: det_laplacian(trace, **kw),
    "mellin_regularized_integral": lambda trace, **kw:
        mellin_regularized_integral(trace, c_M=1.0, **kw),
    "log_det_truncated": lambda trace, **kw: log_det_truncated(
        trace, [0.0, 0.1], 0.2, c_M=1.0, **kw),
}


def surface_trace(surface, tol=1e-12):
    from degenspec.traces import surface_trace_provider
    return as_array_fn(surface_trace_provider(surface, tol))


def np_elliptic_zeta(q, s):
    """Elliptic zeta of one cone of order q from its per-n r-integrals,
    folded onto r > 0 and summed over n under the integral:
    int_0^inf (1/4 + r^2)^{-s} sum_{n<q} e^{-2 pi n r/q}
    / (q sin(n pi/q) (1 + e^{-2 pi r})) dr, by 40-node Gauss-Legendre on
    panels doubling from r = 0.01 to 50q.  For orders too large for the
    mpmath oracle, which integrates each n on its own."""
    x, w = np.polynomial.legendre.leggauss(40)
    n = np.arange(1, q)
    weight = 1.0 / (q * np.sin(n * math.pi / q))
    edges = [0.0] + [0.01 * 2.0 ** k for k in range(64) if 0.01 * 2.0 ** k <= 50 * q]
    total = 0j
    for a, b in zip(edges[:-1], edges[1:]):
        r = 0.5 * (b - a) * x + 0.5 * (b + a)
        kernel = (np.exp(np.outer(r, -2.0 * math.pi * n / q)) @ weight
                  / (1.0 + np.exp(-2.0 * math.pi * r)))
        total += 0.5 * (b - a) * np.sum(w * np.exp(-s * np.log(0.25 + r * r))
                                        * kernel)
    return complex(total)


class TestSeries:
    def test_finite_sum(self):
        assert spectral_zeta_series([1, 2, 3], 1.0) == pytest.approx(11 / 6,
                                                                     rel=1e-15)

    def test_zero_mode_excluded(self):
        assert spectral_zeta_series([0, 1], 1.0) == pytest.approx(1.0,
                                                                  rel=1e-15)

    def test_circle_spectrum_riemann_oracle(self):
        # lambda = n^2 with multiplicity 2: zeta(s) = 2 zeta_R(2s)
        eigs = [n * n for n in range(1, 4000) for _ in (0, 1)]
        val = spectral_zeta_series(eigs, 2.0)
        assert val.real == pytest.approx(2 * riemann_zeta(4.0), abs=1e-9)

    def test_complex_argument(self):
        s = 1.5 + 2.0j
        val = spectral_zeta_series([1.0, 4.0], s)
        oracle = 1.0 + complex(np.exp(-s * math.log(4.0)))
        assert abs(val - oracle) <= 1e-14


class TestMellin:
    def test_matches_series_on_finite_model(self):
        trace = finite_model_trace([1.0, 2.0, 3.0])
        for s in (1.5, 2.0, 3.0, 2.0 + 1.0j, 1.5 - 0.7j):
            ev = spectral_zeta_mellin(trace, 0.0, s, 0,
                                      coefficients=[(-1.0, 0.0)],
                                      tail_decay=1.0)
            ser = spectral_zeta_series([1.0, 2.0, 3.0], s)
            assert abs(ev.value - ser) <= 1e-8 * (1 + abs(ser))

    def test_residue_flag_on_surface(self, compact_surface):
        trace = surface_trace(compact_surface)
        fit = heat_coefficients(trace, 1)
        ev = spectral_zeta_mellin(trace, 0.0, 2.0, 1, coefficients=fit)
        assert ev.pole_flag is not None
        location, residue = ev.pole_flag
        assert location == 1.0
        assert residue == pytest.approx(
            compact_surface.volume / (4 * math.pi), abs=1e-6)

    def test_mismatched_coefficients_raise(self):
        # the circle's b_{-1/2} is sqrt(pi); a wrong one leaves a remainder
        # growing like t^{-1/2}
        with pytest.raises(ExpansionMismatchError):
            spectral_zeta_mellin(circle_theta, 1.0, 0.3, 0,
                                 coefficients=[(-0.5, 1.0)], tail_decay=1.0)

    def test_pole_error_at_one(self, compact_surface):
        trace = surface_trace(compact_surface)
        with pytest.raises(PoleError, match="simple pole at s = 1 with "
                                            "residue"):
            spectral_zeta_mellin(trace, 0.0, 1.0, 1)

    def test_circle_zeta_at_zero(self):
        # zeta(0) = 2 zeta_R(0) = -1
        ev = spectral_zeta_mellin(circle_theta, 1.0, 1e-13, 0,
                                  coefficients=CIRCLE_COEFFS, tail_decay=1.0)
        assert ev.value.real == pytest.approx(-1.0, abs=1e-9)

    def test_circle_zeta_at_two(self):
        ev = spectral_zeta_mellin(circle_theta, 1.0, 2.0, 0,
                                  coefficients=CIRCLE_COEFFS, tail_decay=1.0)
        assert ev.value.real == pytest.approx(2 * riemann_zeta(4.0), abs=1e-10)

    @pytest.mark.parametrize("s", [0.426 + 3.68j, 0.175 + 3.93j, 0.3 + 1j,
                                   0.12, 0.5 + 5j])
    def test_exact_ladder_meets_tol(self, s):
        # left of 1/2 and at |Gamma(s)| ~ 1e-3 the value meets tol against
        # the Dirichlet sum: nothing is cut at small t, and the integral is
        # held to tol |Gamma(s)|
        value = spectral_zeta_mellin(finite_model_trace(FIVE_MODES), 0.0, s,
                                     1, coefficients=[0.0, 5.0], tol=1e-10)
        assert abs(value.value - spectral_zeta_series(FIVE_MODES, s)) <= 1e-10

    def test_large_imaginary_part_raises(self):
        # |1/Gamma(s)| = 7e12 amplifies the integral's rounding floor far
        # past tol: a named error with the scaled estimate, not a value
        s = 0.128 + 18.75j
        start = time.perf_counter()
        with pytest.raises(QuadratureError) as info:
            spectral_zeta_mellin(finite_model_trace(FIVE_MODES), 0.0, s, 1,
                                 coefficients=[0.0, 5.0], tol=1e-10)
        assert time.perf_counter() - start < 0.05
        assert info.value.error_estimate > 1e-10
        assert abs(info.value.value - spectral_zeta_series(FIVE_MODES, s)) \
            <= info.value.error_estimate

    def test_insufficient_subtractions(self):
        trace = finite_model_trace([1.0])
        with pytest.raises(InsufficientSubtractionsError):
            spectral_zeta_mellin(trace, 0.0, -1.5, 1)

    def test_subtraction_depth_is_checked_before_the_trace(self):
        def trace(t):
            raise AssertionError("the trace is not to be called")
        with pytest.raises(InsufficientSubtractionsError):
            zeta_det._continued_mellin(trace, -1.0, [(0.0, 1.0)], 0.0,
                                       1e-10, 0.25)
        # one fitted b_{-1} leaves an O(1) remainder, divergent against
        # dt/t: a named error at once, not a failed integral
        start = time.perf_counter()
        with pytest.raises(InsufficientSubtractionsError):
            mellin_regularized_integral(finite_model_trace([0.5, 1.5, 4.0]),
                                        n_subtractions=0)
        assert time.perf_counter() - start < 0.05

    def test_supplied_coefficients_set_the_depth(self):
        # b_{-1} = 0, b_0 = 3 leave an O(t) remainder, so s = -0.5 is
        # continued whatever n_subtractions says, and s = -1.5 is not
        eigs = [0.5, 1.5, 4.0]
        trace = finite_model_trace(eigs)
        value = spectral_zeta_mellin(trace, 0.0, -0.5, 0,
                                     coefficients=[0.0, 3.0], tol=1e-10).value
        assert abs(value - spectral_zeta_series(eigs, -0.5)) <= 1e-10
        with pytest.raises(InsufficientSubtractionsError):
            spectral_zeta_mellin(trace, 0.0, -1.5, 5,
                                 coefficients=[(-1.0, 0.0), (0.0, 3.0)])

    @pytest.mark.parametrize("name", OPAQUE_TRANSFORMS)
    def test_a_ladder_counts_as_its_pairs(self, name):
        # one coefficient rule: supplied coefficients are subtracted in
        # full, whatever their form
        transform, trace = OPAQUE_TRANSFORMS[name], finite_model_trace(
            OPAQUE_MODES)
        ladder = [0.0, 5.0, -6.1]
        pairs = [(-1.0, 0.0), (0.0, 5.0), (1.0, -6.1)]
        assert (transform(trace, coefficients=ladder)
                == transform(trace, coefficients=pairs))

    @pytest.mark.parametrize("name", OPAQUE_TRANSFORMS)
    def test_a_scalar_trace_matches_its_array_twin(self, name):
        # the trace is lifted to arrays before the supplied coefficients
        # are checked against it; the two sum in different orders
        def scalar(t):
            return sum(math.exp(-lam * t) for lam in OPAQUE_MODES)
        transform = OPAQUE_TRANSFORMS[name]
        want = transform(finite_model_trace(OPAQUE_MODES),
                         coefficients=[0.0, 5.0])
        got = transform(scalar, coefficients=[0.0, 5.0])
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("name", OPAQUE_TRANSFORMS)
    def test_negative_depth_is_a_domain_error(self, name):
        # supplied coefficients set the depth, but a negative one is
        # refused all the same, before the trace is called
        def trace(t):
            raise AssertionError("the trace is not to be called")
        with pytest.raises(DomainError, match="n_subtractions"):
            OPAQUE_TRANSFORMS[name](trace, coefficients=[0.0, 5.0],
                                    n_subtractions=-3)

    @pytest.mark.parametrize("name", OPAQUE_TRANSFORMS)
    def test_one_setup_per_transform(self, monkeypatch, name):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return opaque(*args, **kwargs)
        opaque = zeta_det._opaque
        monkeypatch.setattr(zeta_det, "_opaque", counted)
        OPAQUE_TRANSFORMS[name](finite_model_trace(OPAQUE_MODES),
                                coefficients=[0.0, 5.0])
        assert len(calls) == 1

    def test_subtraction_depth_consistency(self, compact_surface):
        # values with n and n+1 subtractions agree where both are valid
        trace = surface_trace(compact_surface)
        coeffs = fit_trace_expansion(
            trace, (0.0, 1.0, 2.0),
            known=((-1.0, compact_surface.volume / (4 * math.pi)),))
        v2 = spectral_zeta_mellin(trace, 0.0, 1.6, 1,
                                  coefficients=coeffs[:3]).value
        v3 = spectral_zeta_mellin(trace, 0.0, 1.6, 2,
                                  coefficients=coeffs).value
        assert abs(v2 - v3) <= 1e-9 * (1 + abs(v2))


class TestGammaRatio:
    """Gamma(s + a)/Gamma(s), the closed-form add-back of each subtraction."""

    @pytest.mark.parametrize("a", [-2.0, -1.0, 0.0, 1.0, 3.0, -1.5, -0.5,
                                   0.5, 2.5, 0.3])
    @pytest.mark.parametrize("s", [0.0, 1e-13, 1e-4, -1e-4, 0.5, -0.5, 1.0,
                                   2.0, -0.7 + 2j, 0.3 + 4j, 1.5 + 19j])
    def test_against_mpmath(self, s, a):
        # mpmath's gammaprod takes the limit where poles cancel, and is
        # infinite at an uncancelled pole of Gamma(s + a)
        s = complex(s)
        with mp.workdps(30):
            want = mp.gammaprod([mp.mpc(s) + a], [mp.mpc(s)])
        if mp.isinf(want):
            with pytest.raises(PoleError):
                zeta_det._gamma_ratio(s, a)
            return
        got = zeta_det._gamma_ratio(s, a)
        assert abs(got - complex(want)) <= 1e-14 * max(1.0, abs(want))

    def test_integer_shifts_are_exact(self):
        # on both sides of the zero s = 0 and next to the pole at s = 1
        for s in (1e-4, -1e-4, 1.0 + 1e-4):
            assert zeta_det._gamma_ratio(s, 0.0) == 1.0
            assert zeta_det._gamma_ratio(s, 1.0) == s
            assert zeta_det._gamma_ratio(s, -1.0) == 1.0 / (s - 1.0)

    @pytest.mark.parametrize("a", [-3.0, -2.0, -1.0, 0.0, 1.0, 3.0, -1.5,
                                   -0.5, 0.5, 2.5, 0.3])
    def test_slope_at_zero_against_mpmath(self, a):
        # d/ds Gamma(s + a)/Gamma(s) at s = 0, the log det's add-back
        with mp.workdps(30):
            want = mp.diff(lambda s: mp.gammaprod([s + a], [s]), 0)
        got = zeta_det._gamma_ratio_slope(a)
        assert abs(got - float(want)) <= 1e-14 * max(1.0, abs(float(want)))


class TestHeatCoefficients:
    def test_identity_only_surface(self, bare_surface):
        trace = surface_trace(bare_surface)
        fit = heat_coefficients(trace, 1)
        assert fit[0] == pytest.approx(bare_surface.volume / (4 * math.pi),
                                       abs=1e-6)

    def test_synthetic_exact_recovery(self):
        trace = as_array_fn(lambda t: 2.5 / t + 0.75)
        fit = heat_coefficients(trace, 0)
        assert fit[0] == pytest.approx(2.5, abs=1e-10)
        assert fit[1] == pytest.approx(0.75, abs=1e-8)

    def test_elliptic_only_surface(self):
        s = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3, 7))
        from degenspec.traces import elliptic_trace_u
        trace = as_array_fn(lambda t: elliptic_trace_u((2, 3, 7), t))
        fit = heat_coefficients(trace, 1)
        assert abs(fit[0]) <= 1e-8  # no 1/t term
        # b_0 = ETr(0+) = sum (q^2-1)/(12 q) over cones
        expected = sum((q * q - 1) / (12.0 * q) for q in (2, 3, 7))
        assert fit[1] == pytest.approx(expected, abs=1e-6)

    def test_residual_above_floor_raises(self):
        # an oscillation no polynomial of moderate degree follows keeps the
        # residual above the rounding floor up to the conditioning limit
        trace = as_array_fn(lambda t: 1.0 / t + 1e-6 * math.cos(3e3 * t))
        with pytest.raises(FitError) as info:
            heat_coefficients(trace, 1)
        assert info.value.residual > 0.0
        assert len(info.value.coefficients) == 3
        assert info.value.coefficients[0] == pytest.approx(1.0, abs=1e-6)

    def test_full_surface_b_minus_one(self, compact_surface):
        trace = surface_trace(compact_surface)
        fit = heat_coefficients(trace, 2)
        assert fit[0] == pytest.approx(
            compact_surface.volume / (4 * math.pi), abs=1e-6)


class TestHurwitz:
    def test_reduces_to_spectral_zeta(self):
        eigs = [1.0, 2.0, 3.0]
        assert hurwitz_zeta(eigs, 2.0, 0.0) == pytest.approx(
            complex(spectral_zeta_series(eigs, 2.0)), rel=1e-14)

    def test_single_mode(self):
        assert hurwitz_zeta([1.0], 2.0, 1.0) == pytest.approx(0.25, rel=1e-14)

    def test_strip_violation(self):
        with pytest.raises(StripViolationError):
            hurwitz_zeta(finite_model_trace([1.0]), 2.0, -0.5)

    def test_trace_route_matches_series(self):
        eigs = [1.0, 2.0, 3.0]
        trace = finite_model_trace([0.0] + eigs)
        for z in (0.5, 1.5):
            val = hurwitz_zeta(trace, 2.0, z, c_M=1.0,
                               coefficients=[(-1.0, 0.0)], tail_decay=1.0)
            direct = hurwitz_zeta(eigs, 2.0, z)
            assert abs(val - direct) <= 1e-9 * (1 + abs(direct))

    def test_continuity_to_spectral(self):
        eigs = [1.0, 2.0]
        near = hurwitz_zeta(eigs, 1.8, 1e-6)
        at = complex(spectral_zeta_series(eigs, 1.8))
        assert abs(near - at) <= 1e-5


class TestTruncatedZeta:
    def test_finite_model(self):
        eigs = [0.0, 0.3, 1.0]
        val = truncated_zeta(eigs, 0.1, 2.0)
        assert val == pytest.approx(1.0 / 0.3 ** 2 + 1.0, rel=1e-14)

    def test_alpha_between_eigenvalues(self):
        eigs = [0.05, 0.2, 1.0]
        low = truncated_zeta(eigs, 0.1, 2.0)
        high = truncated_zeta(eigs, 0.21, 2.0)
        assert low - high == pytest.approx(1.0 / 0.2 ** 2, rel=1e-12)

    def test_collision(self):
        with pytest.raises(AlphaCollisionError):
            truncated_zeta([0.1, 1.0], 0.1, 2.0)

    def test_trace_route_matches_series(self):
        eigs = [0.0, 0.05, 1.0, 2.0]
        trace = finite_model_trace(eigs)
        val = truncated_zeta(trace, 0.1, 2.0,
                             small_eigenvalues=[0.0, 0.05], c_M=1.0,
                             coefficients=[(-1.0, 0.0)], tail_decay=1.0)
        direct = truncated_zeta(eigs, 0.1, 2.0)
        assert abs(val - direct) <= 1e-8 * (1 + abs(direct))

    @pytest.mark.parametrize("s", [0.3, 2.0, 3.0, 4.0, 6.0, 2.0 + 3j,
                                   3.0 + 5j, 1.2 + 7j, 3.0 + 10j, 6.0 + 2j])
    def test_trace_route_meets_tol_or_raises(self, s):
        # the removed 0.05 mode leaves the truncated trace at the rounding
        # of the full one, ~eps, far past where its true value e^{-t} has
        # died, and the weight t^{s-1} raises that noise; at s = 6 the
        # weight is largest past the point where that noise is cut to 0
        trace = finite_model_trace([0.0, 0.05, 1.0, 2.0])
        exact = 1.0 + 2.0 ** -s
        try:
            value = truncated_zeta(trace, 0.1, s,
                                   small_eigenvalues=[0.0, 0.05], c_M=1.0,
                                   coefficients=[(-1.0, 0.0)], tol=1e-10,
                                   tail_decay=1.0)
        except QuadratureError as err:
            assert err.error_estimate > 1e-10
            assert abs(err.value - exact) <= err.error_estimate
        else:
            assert abs(value - exact) <= 1e-10


class TestDeterminant:
    def test_finite_product(self):
        det = det_laplacian([1.0, 2.0, 3.0])
        assert det == pytest.approx(6.0, rel=1e-9)

    def test_five_modes_to_the_rounding(self):
        # the slope at s = 0 is one integral, held to tol, with no
        # difference error on top
        log_det = math.log(det_laplacian(finite_model_trace(FIVE_MODES),
                                         c_M=0.0, coefficients=[0.0, 5.0]))
        assert abs(log_det - math.fsum(map(math.log, FIVE_MODES))) <= 1e-13

    @pytest.mark.parametrize("log_det", [
        lambda trace: mellin_regularized_integral(
            trace, coefficients=[0.0, 5.0]),
        lambda trace: det_laplacian(trace, c_M=0.0, coefficients=[0.0, 5.0]),
        lambda trace: log_det_truncated(trace, FIVE_MODES, 0.2,
                                        coefficients=[0.0, 5.0]),
    ], ids=["mellin_regularized_integral", "det_laplacian",
            "log_det_truncated"])
    def test_one_integral_per_log_det(self, monkeypatch, log_det):
        calls = {"mellin": 0, "exp-sinh": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call
        monkeypatch.setattr(zeta_det, "_continued_mellin",
                            counted("mellin", zeta_det._continued_mellin))
        monkeypatch.setattr(special_fn, "_exp_sinh",
                            counted("exp-sinh", special_fn._exp_sinh))
        log_det(finite_model_trace(FIVE_MODES))
        assert calls == {"mellin": 1, "exp-sinh": 1}

    def test_zero_mode_ignored(self):
        det = det_laplacian([0.0, 2.0, 5.0])
        assert det == pytest.approx(10.0, rel=1e-9)

    def test_circle_four_pi_squared(self):
        # zeta'(0) = 4 zeta_R'(0) = -2 log 2 pi; det = 4 pi^2
        det = det_laplacian(circle_theta, c_M=1.0, coefficients=CIRCLE_COEFFS,
                            tail_decay=1.0)
        assert det == pytest.approx(4 * math.pi ** 2, rel=1e-6)

    def test_log_det_integral_representation(self):
        # on a finite model with all modes above alpha the regularized
        # integral reproduces log prod lambda = log det; the trace
        # sum e^{-lambda t} has b_0 = 3
        eigs = [0.5, 1.5, 4.0]
        trace = finite_model_trace(eigs)
        val = log_det_truncated(trace, eigs, 0.2, c_M=0.0,
                                coefficients=[(-1.0, 0.0), (0.0, 3.0)],
                                tail_decay=0.5)
        assert val == pytest.approx(sum(math.log(x) for x in eigs), abs=1e-6)

    def test_log_det_wrong_coefficients_raise(self):
        # b_0 = 0 for a trace whose b_0 is 3: the remainder stays near 3 as
        # t -> 0 instead of falling off like t
        eigs = [0.5, 1.5, 4.0]
        with pytest.raises(ExpansionMismatchError) as info:
            log_det_truncated(finite_model_trace(eigs), eigs, 0.2, c_M=0.0,
                              coefficients=[(-1.0, 0.0), (0.0, 0.0)],
                              tail_decay=0.5)
        assert info.value.remainder == pytest.approx(3.0, abs=1e-3)
        assert 0.0 < info.value.t < 1e-3

    def test_log_det_truncated_removes_small_mode(self):
        # the mode 0.05 <= alpha leaves the product of the others; the
        # supplied b_0 = 4 is for the full trace
        eigs = [0.05, 0.5, 1.5, 4.0]
        val = log_det_truncated(finite_model_trace(eigs), eigs, 0.1,
                                c_M=0.0,
                                coefficients=[(-1.0, 0.0), (0.0, 4.0)],
                                tail_decay=0.5)
        assert val == pytest.approx(sum(math.log(x) for x in eigs[1:]),
                                    abs=1e-8)

    @pytest.mark.parametrize("tol", [1e-9, 1e-10, 1e-11, 1e-12])
    def test_identity_trace_log_det(self, bare_surface, tol):
        # b_{-1} = vol/4pi leaves rounding eps/t^2 in the remainder
        # against dt/t, which the cutoff keeps out of the integral; below it
        # the remainder is taken as its leading power, O(t).  The slope at
        # s = 0 is the remainder integral itself, held to tol
        vol = bare_surface.volume
        oracle = mp_identity_zeta_prime_zero(vol)
        try:
            value = mellin_regularized_integral(
                lambda t: identity_trace(vol, t, 1e-13), c_M=0.0,
                coefficients=[(-1.0, vol / (4 * math.pi)),
                              (0.0, -vol / (12 * math.pi))], tol=tol)
        except QuadratureError as err:
            assert tol < 1e-10 and err.error_estimate > tol
        else:
            assert abs(value - oracle) <= tol

    def test_regularized_integral_matches_literal(self):
        # for a trace vanishing at both ends the regularization equals the
        # literal integral: f = e^{-t} - e^{-2t}, int f dt/t = log 2
        trace = as_array_fn(lambda t: math.exp(-t) - math.exp(-2 * t))
        val = mellin_regularized_integral(trace, c_M=0.0,
                                          coefficients=[(0.0, 0.0)],
                                          tail_decay=1.0)
        assert val == pytest.approx(math.log(2.0), abs=1e-8)


class TestFitExpansion:
    def test_known_coefficient_passthrough(self):
        trace = as_array_fn(lambda t: 3.0 / t + 1.0 + 2.0 * t)
        terms = fit_trace_expansion(trace, (0.0, 1.0), known=((-1.0, 3.0),))
        d = dict(terms)
        assert d[-1.0] == 3.0
        assert d[0.0] == pytest.approx(1.0, abs=1e-9)
        assert d[1.0] == pytest.approx(2.0, abs=1e-6)

    def test_empty_powers(self):
        terms = fit_trace_expansion(as_array_fn(lambda t: 1.0 / t), (),
                                    known=((-1.0, 1.0),))
        assert terms == [(-1.0, 1.0)]


class TestSurfaceTermByTerm:
    """The closed forms behind surface_zeta and surface_log_det."""

    @pytest.mark.parametrize("s", [0.3 + 1.8j, 2.0, 0.5 + 19j, -0.7 + 0.2j,
                                   3.0 - 5j, -1.5, -2.5 + 1j])
    def test_identity_zeta(self, bare_surface, s):
        # genus 2 with no geodesics or cones: the identity term alone
        assert bare_surface.volume == pytest.approx(4.0 * math.pi, rel=1e-15)
        value = surface_zeta(bare_surface, s, tol=1e-13)
        assert abs(value - mp_identity_zeta(bare_surface.volume, s)) <= 1e-13

    def test_identity_pole(self, bare_surface):
        with pytest.raises(PoleError):
            surface_zeta(bare_surface, 1.0)

    def test_identity_zeta_prime_zero(self, bare_surface):
        assert zeta_det._ZETA_PRIME_MINUS_ONE == pytest.approx(
            float(mp.zeta(-1, derivative=1)), abs=1e-17)
        oracle = mp_identity_zeta_prime_zero(4.0 * math.pi)
        assert oracle == pytest.approx(-0.67619249160754176, abs=1e-15)
        assert abs(surface_log_det(bare_surface) + oracle) <= 1e-13

    @pytest.mark.parametrize("spectrum", [((1.0, 1), (1.5, 2)), ((1.0, 1),)])
    def test_geodesic_zeta_prime_zero_is_minus_log_z_one(self, spectrum):
        value = zeta_det._zeta_prime_zero(spectrum, (), 0.0, 1e-12)
        assert abs(value + mp_log_selberg_one(spectrum)) <= 1e-13

    @pytest.mark.parametrize("orders", [(2, 3), (7,), (2, 3, 7)])
    def test_cone_zeta_prime_zero_matches_t_route(self, orders):
        trace = as_array_fn(lru_cache(maxsize=None)(
            lambda t: elliptic_trace_u(orders, t, 1e-12)))
        b0 = sum((q * q - 1.0) / (12.0 * q) for q in orders)
        t_route = mellin_regularized_integral(
            trace, c_M=0.0, coefficients=[(0.0, b0)], n_subtractions=1,
            tol=1e-11)
        value = zeta_det._cone_zeta_prime_zero(orders, 1e-12)
        assert abs(value - t_route) <= 1e-10

    def test_cone_zeta_prime_zero_at_large_order(self):
        q = 10 ** 6
        zeta_det._cone_zeta_prime_zero((q,), 1e-12)  # warm the term arrays
        start = time.perf_counter()
        value = zeta_det._cone_zeta_prime_zero((q,), 1e-12)
        elapsed = time.perf_counter() - start
        assert math.isfinite(value)
        assert elapsed < 0.05
        # the scale of the divergence, (q/6) log q - 2q log A + (1/2) log q
        # with A the Glaisher-Kinkelin constant, to O(log q/q)
        law = (q / 6.0 * math.log(q) - 2.0 * q * float(mp.log(mp.glaisher))
               + 0.5 * math.log(q))
        assert abs(-value - law) <= 1e-4

    @pytest.mark.parametrize("q", [10 ** 5, 10 ** 6, 10 ** 7])
    def test_cone_zeta_prime_zero_reports_a_relative_error(self, q,
                                                           monkeypatch):
        # F(u) - F(0) free of cancellation: the rule trims u -> 0, and its
        # error is no longer the rounding noise eps F(0)/u of the difference
        seen = []

        def recorder(*args, **kwargs):
            seen.append(integrate_semi_infinite(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(zeta_det, "integrate_semi_infinite", recorder)
        zeta_det._cone_zeta_prime_zero((q,), 1e-12)
        (res,) = seen
        assert res.error_estimate <= 1e-14 * abs(res.value)
        assert res.evaluations <= 460

    def test_mellin_panels_are_batched_trace_calls(self, compact_surface,
                                                   monkeypatch):
        # each integrand call of the Mellin integral is one ETr call over
        # all its nodes, never a loop of scalar calls
        sizes = []

        def recorder(orders, t, tol=1e-12):
            sizes.append(np.size(t))
            return elliptic_trace_u(orders, t, tol)

        monkeypatch.setattr(zeta_det, "elliptic_trace_u", recorder)
        value = surface_zeta(compact_surface, 0.278 + 1.826j, tol=1e-12)
        monkeypatch.undo()
        assert value == surface_zeta(compact_surface, 0.278 + 1.826j,
                                     tol=1e-12)
        # the exp-sinh rule's first level, then levels 1-4 in one call
        assert sizes == [19, 180]

    @pytest.mark.parametrize("s", [1.1669 + 2.2222j, 1.165 + 2.8403j,
                                   1.3718 + 3.8506j, 1.1 + 4j])
    def test_opaque_surface_trace_costs_the_same_at_every_s(self, s):
        # the Mellin integral of an opaque surface trace right of 1 takes
        # the coefficient check and the rule's two calls at each of these
        # s; a third call would add 176 nodes and equal the level before
        surface = SurfaceData(genus=1, num_cusps=0, elliptic_orders=(2, 3),
                              length_spectrum=((1.299194, 3), (1.428376, 2),
                                               (2.968455, 3), (3.747438, 2)))
        vol = surface.volume
        b0 = -vol / (12.0 * math.pi) + 1.0 / 8.0 + 2.0 / 9.0
        sizes = []

        def trace(t):
            sizes.append(np.size(t))
            return standard_trace(surface, t)

        value = spectral_zeta_mellin(
            trace, 0.0, s, 1, coefficients=[(-1.0, vol / (4.0 * math.pi)),
                                            (0.0, b0)], tol=1e-12).value
        assert len(sizes) == 3
        assert abs(value - surface_zeta(surface, s, tol=1e-12)) <= 1e-12

    @pytest.mark.parametrize("s", [0.15 + 0.5j, 1.7 - 2.5j, 2.9 + 4j])
    def test_surface_zeta_against_r_integrals(self, compact_surface, s):
        value = surface_zeta(compact_surface, s, tol=1e-12)
        assert abs(value - mp_surface_zeta(compact_surface, s)) <= 1e-10

    @pytest.mark.parametrize("s", [0.278 + 1.826j, 2.0])
    def test_surface_zeta_at_large_cone_order(self, s):
        # b_0 = 8333 while the value is O(10): every integral is held to
        # tol b_0, yet the error must stay small in the value's units, and
        # the endpoint slope ~q^3 of the cone remainder must not collapse
        # the quadrature left of 1/2
        q = 10 ** 5
        surface = SurfaceData(genus=1, num_cusps=0, elliptic_orders=(q,),
                              length_spectrum=((1.2, 2), (2.5, 3)),
                              small_eigenvalues=(0.0,))
        b0 = (q * q - 1.0) / (12.0 * q)
        oracle = (mp_identity_zeta(surface.volume, s) + np_elliptic_zeta(q, s)
                  + mp_hyperbolic_zeta(surface.length_spectrum, s))
        value = surface_zeta(surface, s, tol=1e-12)
        assert abs(value - oracle) <= 1e-11 * b0
        assert abs(value - oracle) <= 1e-10

    @pytest.mark.parametrize("s", [0.5 + 10j, 0.3 + 19j])
    def test_surface_zeta_at_large_imaginary_part(self, compact_surface, s):
        # |1/Gamma(s)| ~ 3e6 and 7e12 magnify the Mellin integral's error:
        # the value must meet the oracle or the error be raised, its value
        # the whole zeta's within its estimate
        oracle = mp_surface_zeta(compact_surface, s)
        try:
            value = surface_zeta(compact_surface, s, tol=1e-12)
        except QuadratureError as err:
            assert abs(err.value - oracle) <= err.error_estimate
            return
        assert abs(value - oracle) <= 1e-10

    def test_surface_zeta_passes_on_an_error_without_a_value(
            self, compact_surface, monkeypatch):
        # an error without a value has none for the identity term to join
        raised = QuadratureError("no value", value=None, error_estimate=1.0)

        def fail(*args):
            raise raised
        monkeypatch.setattr(zeta_det, "_geodesic_cone_zeta", fail)
        with pytest.raises(QuadratureError) as info:
            surface_zeta(compact_surface, 0.5 + 10j)
        assert info.value is raised and info.value.value is None

    @pytest.mark.parametrize("s", [-1.5, -2.5 + 1j, -0.7 + 0.2j])
    def test_cone_free_surface_left_of_zero(self, s):
        # without cones HTr is O(e^{-l^2/4t}) at t = 0, no power of t left
        # to subtract, so its Mellin integral converges at every s
        surface = SurfaceData(genus=2, num_cusps=0,
                              length_spectrum=((1.0, 1), (1.5, 2)))
        oracle = mp_surface_zeta(surface, s)
        value = surface_zeta(surface, s, tol=1e-12)
        assert abs(value - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_np_elliptic_oracle_matches_mpmath(self):
        s = 0.278 + 1.826j
        assert abs(np_elliptic_zeta(12, s)
                   - mp_elliptic_zeta((12,), s)) <= 1e-13

    def test_surface_zeta_with_cones_needs_positive_real_part(
            self, compact_surface, bare_surface):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            surface_zeta(compact_surface, -0.5 + 0.3j)
        assert time.perf_counter() - start < 0.1
        # without cones the identity term alone continues to every s != 1
        assert abs(surface_zeta(bare_surface, -0.5 + 0.3j, tol=1e-13)
                   - mp_identity_zeta(bare_surface.volume, -0.5 + 0.3j)) <= 1e-13

    def test_surface_log_det_alpha(self, compact_surface):
        full = surface_log_det(compact_surface)
        assert surface_log_det(compact_surface, 0.1) == pytest.approx(
            full - math.log(0.08), abs=1e-15)
        with pytest.raises(AlphaCollisionError):
            surface_log_det(compact_surface, 0.08)
        with pytest.raises(DomainError):
            surface_log_det(compact_surface, 0.3)
        with pytest.raises(DomainError):
            surface_log_det(compact_surface, 0.0)

    def test_logdet_rows_are_member_log_dets(self, hecke_like_family):
        rows = degeneration_subtraction_zeta(hecke_like_family, 0.1, 0.0,
                                             mode="logdet", tol=1e-12)
        for (_, value), member in zip(rows, hecke_like_family.members()):
            orders = member.degenerating_orders
            f0 = sum((q * q - 1.0) / (3.0 * q) for q in orders)
            expected = (surface_log_det(member, 0.1, tol=1e-12)
                        + zeta_det._cone_zeta_prime_zero(orders, 1e-12))
            assert abs(value - expected) <= 1e-12 * max(1.0, f0)


class TestDegenerationExperiments:
    def test_zeta_mode_error_carries_every_row(self, hecke_like_family):
        # |1/Gamma(s)| ~ 3e6 at s = 0.5+10i: the shared HTr + ETr(kept)
        # integral misses tol, and the error's value is the list of rows,
        # each the member's kept-cone zeta minus the removed mode 0.05
        s = 0.5 + 10j
        template = hecke_like_family.template
        shared = (mp_elliptic_zeta(template.kept_orders, s)
                  + mp_hyperbolic_zeta(template.length_spectrum, s)
                  - 0.05 ** -s)
        unit = mp_identity_zeta(1.0, s)
        with pytest.raises(QuadratureError) as info:
            degeneration_subtraction_zeta(hecke_like_family, 0.1, s,
                                          mode="zeta", tol=1e-12)
        rows = info.value.value
        assert [q for q, _ in rows] == [1e2, 1e3, 1e4, 1e5]
        for (_, value), member in zip(rows, hecke_like_family.members()):
            oracle = shared + member.volume * unit
            assert abs(value - oracle) <= info.value.error_estimate

    def test_zeta_mode_cauchy(self, hecke_like_family):
        rows = degeneration_subtraction_zeta(hecke_like_family, 0.1, 2.0,
                                             mode="zeta", tol=1e-11)
        diffs = [abs(rows[i + 1][1] - rows[i][1]) for i in range(len(rows) - 1)]
        assert all(b < a for a, b in zip(diffs[:-1], diffs[1:]))

    def test_zeta_mode_uniform_on_vertical_segment(self, hecke_like_family):
        # uniformity over Im(s) on Re(s) = 3: the Cauchy differences shrink
        # at every height
        for im in (-5.0, 0.0, 5.0):
            rows = degeneration_subtraction_zeta(hecke_like_family, 0.1,
                                                 3.0 + 1j * im, mode="zeta",
                                                 tol=1e-10)
            diffs = [abs(rows[i + 1][1] - rows[i][1])
                     for i in range(len(rows) - 1)]
            assert all(b < a for a, b in zip(diffs[:-1], diffs[1:]))

    def test_hurwitz_mode_cauchy(self, hecke_like_family):
        rows = degeneration_subtraction_zeta(hecke_like_family, 0.1, 3.0,
                                             mode="hurwitz", z=1.0, tol=1e-10)
        diffs = [abs(rows[i + 1][1] - rows[i][1]) for i in range(len(rows) - 1)]
        assert all(b < a for a, b in zip(diffs[:-1], diffs[1:]))

    def test_logdet_mode_cauchy(self, hecke_like_family):
        rows = degeneration_subtraction_zeta(hecke_like_family, 0.1, 0.0,
                                             mode="logdet", tol=1e-12)
        diffs = [abs(rows[i + 1][1] - rows[i][1]) for i in range(len(rows) - 1)]
        assert all(b < a for a, b in zip(diffs[:-1], diffs[1:]))

    def test_direct_route_agrees(self):
        # reference: per member, the fitted truncated zeta of the standard
        # trace minus the transform of the degenerating trace, each
        # continued on its own
        template = SurfaceData(genus=0, num_cusps=1,
                               elliptic_orders=(2, 3, 10), degenerating=(2,),
                               length_spectrum=((1.0, 1),),
                               small_eigenvalues=(0.0, 0.05))
        fam = DegeneratingFamily(template=template, schedule=((10,), (20,)))
        diff = degeneration_subtraction_zeta(fam, 0.1, 2.0, mode="zeta",
                                             tol=1e-11)
        for member, (q, value) in zip(fam.members(), diff):
            member_zeta = truncated_zeta(
                as_array_fn(lambda t: standard_trace(member, t)), 0.1, 2.0,
                small_eigenvalues=member.small_eigenvalues, c_M=0.0,
                n_subtractions=1, tol=1e-11)
            degenerating_zeta = spectral_zeta_mellin(
                as_array_fn(lambda t: degenerating_trace(member, t)), 0.0,
                2.0, 0, coefficients=[], tol=1e-11).value
            direct = member_zeta - degenerating_zeta
            assert q == float(math.prod(member.degenerating_orders))
            assert abs(direct - value) <= 1e-8 * (1 + abs(value))

    def test_empty_degenerating_set_constant(self):
        template = SurfaceData(genus=0, num_cusps=1,
                               elliptic_orders=(2, 3, 10), degenerating=(2,),
                               small_eigenvalues=(0.0,))
        fam = DegeneratingFamily(template=template, schedule=((10,), (10,)))
        rows = degeneration_subtraction_zeta(fam, 0.1, 2.0, mode="zeta",
                                             tol=1e-11)
        assert abs(rows[0][1] - rows[1][1]) <= 1e-10

    def test_alpha_validation(self, hecke_like_family):
        with pytest.raises(AlphaCollisionError):
            degeneration_subtraction_zeta(hecke_like_family, 0.05, 2.0)
        with pytest.raises(DomainError):
            degeneration_subtraction_zeta(hecke_like_family, 0.3, 2.0)
        with pytest.raises(DomainError):
            degeneration_subtraction_zeta(hecke_like_family, 0.0, 2.0)
