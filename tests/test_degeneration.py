"""Degeneration asymptotics: S(q), moment kernels, counting sums, fits.

Oracles: direct summation, scipy.integrate.quad on the kernel integrals,
mpmath on the cone u-integral, the Fermi partition identity, and exact
linear data for the fits.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

from degenspec.degeneration import (CwKernel, SlopeFit,
                                    _weighted_interval_integral, c_w_kernel,
                                    elliptic_sum_s, error_term_experiment,
                                    fit_slope_vs_logQ, g_degenerating_counting)
from degenspec import degeneration, traces
from degenspec.errors import DomainError, FitError
from degenspec.geometry import DegeneratingFamily, SurfaceData, hecke_family
from mp_reference import mp_cw_kernel

LOG2_OVER_PI = math.log(2.0) / math.pi


class TestEllipticSum:
    def test_q2(self):
        assert elliptic_sum_s(2) == 0.25

    def test_q3_direct_oracle(self):
        oracle = sum(1.0 / (2 * 3 * math.sin(n * math.pi / 3)) for n in (1, 2))
        assert elliptic_sum_s(3) == pytest.approx(oracle, rel=1e-15)
        assert elliptic_sum_s(3) == pytest.approx(2.0 / (3.0 * math.sqrt(3.0)),
                                                  rel=1e-12)

    def test_q5_direct_oracle(self):
        oracle = sum(1.0 / (2 * 5 * math.sin(n * math.pi / 5))
                     for n in range(1, 5))
        assert elliptic_sum_s(5) == pytest.approx(oracle, rel=1e-15)

    def test_doubling_difference(self):
        q = 100000
        diff = elliptic_sum_s(2 * q) - elliptic_sum_s(q)
        assert abs(diff - LOG2_OVER_PI) <= 1e-3

    def test_log_band(self):
        devs = [elliptic_sum_s(q) - math.log(q) / math.pi
                for q in (100, 1000, 10000, 100000, 1000000)]
        assert max(devs) - min(devs) < 0.2

    def test_strictly_increasing(self):
        vals = [elliptic_sum_s(q) for q in range(2, 200)]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            elliptic_sum_s(1)


class TestCwKernel:
    def test_zero_below_quarter(self):
        assert c_w_kernel(CwKernel(T=0.25, w=1.0, beta=0.3)) == 0.0
        assert c_w_kernel(CwKernel(T=0.1)) == 0.0

    def test_fermi_partition_value(self):
        # beta = 0, w = 0: the partition identity collapses the integral to
        # half the interval length: c_0(5/4) = sqrt(T - 1/4)/pi = 1/pi
        assert c_w_kernel(CwKernel(T=1.25)) == pytest.approx(1.0 / math.pi,
                                                             rel=1e-12)

    @pytest.mark.parametrize("T,w,beta", [(1.25, 0.0, 0.4), (2.0, 0.5, 0.0),
                                          (0.5, 1.0, 0.7), (5.0, 1.5, 0.2)])
    def test_against_scipy(self, T, w, beta):
        R = math.sqrt(T - 0.25)
        oracle, _ = quad(
            lambda r: (T - 0.25 - r * r) ** w * math.exp(-2 * math.pi * beta * r)
            / (1 + math.exp(-2 * math.pi * r)), -R, R, epsabs=1e-13,
            limit=200)
        assert c_w_kernel(CwKernel(T=T, w=w, beta=beta)) == pytest.approx(
            oracle / math.pi, abs=1e-10)

    @pytest.mark.parametrize("T", [1.25, 2.0, 10.0, 50.0])
    @pytest.mark.parametrize("w", [0.0, 0.5, 1.0, 2.0])
    def test_closed_form_at_beta_zero(self, T, w):
        # the closed form against the quadrature that beta > 0 uses
        quadrature = _weighted_interval_integral(
            lambda r: traces.fermi_fold(0.0, r), w, T,
            1e-12 * (T - 0.25) ** (w + 0.5))
        assert c_w_kernel(CwKernel(T=T, w=w)) == pytest.approx(
            quadrature / math.pi, rel=1e-13)

    @pytest.mark.parametrize("T", [0.3, 2.0, 10.0, 50.0, 1e3, 1e5])
    @pytest.mark.parametrize("w", [0.0, 0.5, 1.0, 2.5])
    def test_against_mpmath(self, T, w):
        for beta in (0.01, 0.3, 0.5, 0.97):
            oracle = mp_cw_kernel(T, w, beta)
            assert abs(c_w_kernel(CwKernel(T=T, w=w, beta=beta)) - oracle) \
                <= 1e-12 * (1.0 + abs(oracle))

    def test_two_or_three_integrand_calls(self, monkeypatch):
        # the folded integrand is one tanh-sinh integral that stops by level
        # 4: the first level and the look-ahead, one call each, up to T = 1e5
        calls = []
        engine = degeneration.integrate_finite

        def spy(f, *args, **kwargs):
            calls.append(0)

            def counted(theta):
                calls[-1] += 1
                return f(theta)

            return engine(counted, *args, **kwargs)

        monkeypatch.setattr(degeneration, "integrate_finite", spy)
        for T in (0.3, 2.0, 10.0, 50.0, 1e3, 1e4, 1e5):
            for w in (0.0, 0.5, 1.0, 2.5):
                for beta in (0.001, 0.01, 0.3, 0.5, 0.97, 0.999):
                    c_w_kernel(CwKernel(T=T, w=w, beta=beta))
        assert len(calls) == 7 * 4 * 6
        assert max(calls) <= 3

    def test_monotone_in_T(self):
        vals = [c_w_kernel(CwKernel(T=T, w=0.5, beta=0.2))
                for T in (0.5, 1.0, 2.0, 5.0)]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))

    def test_decreasing_in_beta_up_to_symmetry(self):
        # r -> -r swaps beta and 1-beta, so the kernel is symmetric about
        # beta = 1/2 and decreasing on [0, 1/2]
        vals = [c_w_kernel(CwKernel(T=1.25, w=0.5, beta=b))
                for b in (0.0, 0.2, 0.35, 0.5)]
        assert all(b < a for a, b in zip(vals[:-1], vals[1:]))
        for b in (0.1, 0.3):
            assert c_w_kernel(CwKernel(T=1.25, w=0.5, beta=b)) == \
                pytest.approx(c_w_kernel(CwKernel(T=1.25, w=0.5, beta=1.0 - b)),
                              rel=1e-11)

    def test_nonnegative(self):
        assert c_w_kernel(CwKernel(T=0.3, w=2.0, beta=0.9)) >= 0.0

    @pytest.mark.parametrize("w", [0.0, 0.5, 1.0, 1.5])
    def test_derivative_recursion(self, w):
        # d/dT c_{w+1}(T) = (w+1) c_w(T) under central differences
        h = 1e-4
        for T in (0.5, 1.25, 5.0):
            lhs = (c_w_kernel(CwKernel(T=T + h, w=w + 1.0))
                   - c_w_kernel(CwKernel(T=T - h, w=w + 1.0))) / (2 * h)
            rhs = (w + 1.0) * c_w_kernel(CwKernel(T=T, w=w))
            assert abs(lhs - rhs) <= 1e-6

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            CwKernel(T=1.0, w=-0.5)
        with pytest.raises(DomainError):
            CwKernel(T=1.0, beta=1.0)


class TestCountingSum:
    def test_zero_below_quarter(self):
        s = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3, 50),
                        degenerating=(2,))
        assert g_degenerating_counting(s, 0.0, 0.2) == 0.0
        assert g_degenerating_counting(s, 1.0, 0.25) == 0.0

    def test_empty_degenerating_set(self):
        s = SurfaceData(genus=2, num_cusps=0, elliptic_orders=(2, 3))
        assert g_degenerating_counting(s, 0.0, 1.25) == 0.0

    def test_adaptive_matches_direct_sum(self):
        # per-n oracle assembled from scipy quadratures
        q, T, w = 7, 1.25, 0.5
        R = math.sqrt(T - 0.25)
        oracle = 0.0
        for n in range(1, q):
            val, _ = quad(lambda r: (T - 0.25 - r * r) ** w
                          * math.exp(-2 * math.pi * n / q * r)
                          / (1 + math.exp(-2 * math.pi * r)), -R, R,
                          epsabs=1e-13)
            oracle += val / (2 * q * math.sin(n * math.pi / q))
        s = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3, q),
                        degenerating=(2,))
        assert g_degenerating_counting(s, w, T) == pytest.approx(oracle,
                                                                 abs=1e-9)

    @pytest.mark.parametrize("q,T,w", [
        (64, 1.25, 0.0), (64, 1.25, 1.0), (64, 10.0, 0.0), (64, 10.0, 1.0),
        (64, 50.0, 0.0), (64, 50.0, 1.0), (300, 1.25, 0.0), (300, 10.0, 0.0),
        (300, 10.0, 1.0), (300, 50.0, 0.0)])
    def test_matches_per_n_kernel_sum(self, q, T, w):
        # the u-integral against the defining double sum, one public c_w
        # quadrature per n
        oracle = math.fsum(
            math.pi * c_w_kernel(CwKernel(T=T, w=w, beta=n / q), tol=1e-12)
            / (2 * q * math.sin(n * math.pi / q)) for n in range(1, q))
        s = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3, q),
                        degenerating=(2,))
        assert g_degenerating_counting(s, w, T, tol=1e-12) == pytest.approx(
            oracle, abs=1e-11)

    @pytest.mark.parametrize("q,w,T", [
        (15, 0, 50.0), (15, 1, 50.0), (10 ** 7, 0, 50.0), (10 ** 7, 1, 50.0),
        (15, 0, 100.0), (10 ** 7, 1, 1000.0)])
    def test_large_T_against_mpmath(self, q, w, T):
        # (1/2) int_0^inf hhat(u) F(u) du in mpmath, F from the closed form
        # of the n-sum; near u = 0 at 40 digits with J_nu, where the closed
        # form cancels, beyond u = 1 at 20 digits with J_{1/2}, J_{3/2} in
        # elementary form, split every two periods of the Bessel factor
        R = mp.sqrt(mp.mpf(T) - mp.mpf(1) / 4)
        nu = w + mp.mpf(1) / 2
        scale = mp.gamma(w + 1) / (2 * mp.sqrt(mp.pi))

        def series(u):
            x = u / 2
            return mp.cosh(x) * (2 * q * mp.coth(q * x) / mp.sinh(2 * x)
                                 - 1 / mp.sinh(x) ** 2) / q

        def near(u):
            return scale * (2 * R / u) ** nu * mp.besselj(nu, R * u) * series(u)

        def far(u):
            z = R * u
            h = mp.sin(z) if w == 0 else 2 * R * (mp.sin(z) / z - mp.cos(z)) / u
            return h / (mp.pi * u) * series(u)

        with mp.workdps(40):
            eps = mp.mpf("1e-14") / q  # [0, eps] as its limit
            head = mp.quad(near, [eps] + [mp.mpf(10) ** k for k in
                                          range(-int(math.log10(q)), 1)])
            head += (eps * mp.mpf(q * q - 1) / (3 * q)
                     * scale * R ** (2 * nu) / mp.gamma(nu + 1))
        with mp.workdps(20):
            tail = mp.quad(far, [1 + 4 * k * mp.pi / R
                                 for k in range(int(70 * R / (4 * math.pi)) + 1)])
        oracle = float((head + tail) / 2)
        s = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3, q),
                        degenerating=(2,))
        assert g_degenerating_counting(s, w, T, tol=1e-12) == pytest.approx(
            oracle, rel=1e-14, abs=1e-12)

    @pytest.mark.parametrize("T", [1e4, 1e5, 3e5])
    def test_very_large_T_reaches_the_cone_constant(self, T):
        # for w = 0, hhat(u) = sin(Ru)/(pi u) tends to half a delta at u = 0,
        # so G -> F(0)/4 = (q^2 - 1)/12q, up to the residues of F at its
        # poles +-2 pi i/q, of size e^{-2 pi R/q} (below 1e-18 here); the
        # Bessel factor's period 2 pi/R is down to 0.011
        q = 15
        s = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3, q),
                        degenerating=(2,))
        assert g_degenerating_counting(s, 0.0, T, tol=1e-10) == pytest.approx(
            (q * q - 1) / (12.0 * q), abs=1e-10)

    @pytest.mark.parametrize("w", [0, 1, 2, 3])
    def test_elementary_hhat_against_mpmath(self, w):
        # hhat(u) at R = 1, so z = u, on a log grid over [1e-12, 1e4] and a
        # dense one around the series switch z_s = max(w, 1), against
        # Gamma(w+1)/(2 sqrt(pi)) (2/z)^{w+1/2} J_{w+1/2}(z) at 40 digits.
        # hhat(0) = w! 2^w/(pi (2w+1)!!) and, for large z, hhat has the
        # amplitude w! 2^w/pi z^{-(w+1)} = hhat(0) (2w+1)!! z^{-(w+1)}: the
        # bound is 4e-15 of the one, then of the other.  scipy's jv misses
        # it at large z (2e-14 of the amplitude for w = 0 to 3)
        switch = max(w, 1)
        z = np.concatenate([np.geomspace(1e-12, 1e4, 161),
                            np.linspace(0.9 * switch, 1.1 * switch, 41)])
        hhat = degeneration._counting_hhat(w, 1.0)(z)
        with mp.workdps(40):
            nu = w + mp.mpf(1) / 2
            scale = mp.gamma(w + 1) / (2 * mp.sqrt(mp.pi))
            oracle = np.array([float(scale * (2 / mp.mpf(x)) ** nu
                                     * mp.besselj(nu, mp.mpf(x)))
                               for x in z])
        double_factorial = math.prod(range(1, 2 * w + 2, 2))
        at_zero = math.factorial(w) * 2 ** w / (math.pi * double_factorial)
        assert hhat[0] == pytest.approx(at_zero, rel=1e-16)
        amplitude = np.minimum(1.0, double_factorial * z ** -(w + 1.0))
        assert np.all(np.abs(hhat - oracle) <= 4e-15 * at_zero * amplitude)
        if w <= 1:
            # below w = 2, also against the envelope z^{-(w+1)} itself
            assert np.all(np.abs(hhat - oracle)
                          <= 4e-15 * at_zero * np.minimum(1.0,
                                                          z ** -(w + 1.0)))

    @staticmethod
    def _jv_route(orders, w, T, tol=1e-10):
        # G as cone_integral of (2R/u)^nu J_nu(Ru) with scipy's jv, z
        # clamped at 1e-8, the route non-integer w took before its power
        # series near z = 0
        R = math.sqrt(T - 0.25)
        nu = w + 0.5
        scale = math.gamma(w + 1.0) / (2.0 * math.sqrt(math.pi))

        def hhat(u):
            z = np.maximum(R * u, 1e-8)
            return scale * R ** (2.0 * nu) * (2.0 / z) ** nu * jv(nu, z)

        return traces.cone_integral(orders, hhat, 0.5, tol)

    # integrand calls per G with scipy's jv for integer w, at the ends of
    # the benchmark's eight q bands, per (T, w)
    JV_CALLS = {(0.3, 0): (2, 2, 2, 3, 3, 3, 3, 4),
                (0.3, 1): (2, 2, 2, 2, 3, 3, 3, 3),
                (2.0, 0): (3, 3, 3, 3, 3, 3, 3, 4),
                (2.0, 1): (3, 3, 3, 3, 3, 3, 3, 4),
                (10.0, 0): (4,) * 8, (10.0, 1): (4,) * 8,
                (50.0, 0): (6,) * 8, (50.0, 1): (5,) * 8}
    Q_BANDS = (10, 256, 257, 4000, 100000, 100001, 1050000, 10 ** 7)

    def test_integer_w_matches_the_jv_route(self, monkeypatch):
        calls = []
        engine = degeneration.cone_integral

        def spy(orders, hhat, decay, tol):
            calls.append(0)

            def counted(u):
                calls[-1] += 1
                return hhat(u)

            return engine(orders, counted, decay, tol)

        monkeypatch.setattr(degeneration, "cone_integral", spy)
        for (T, w), jv_calls in self.JV_CALLS.items():
            for q, most in zip(self.Q_BANDS, jv_calls):
                s = SurfaceData(genus=0, num_cusps=1,
                                elliptic_orders=(2, 3, q), degenerating=(2,))
                value = g_degenerating_counting(s, w, T)
                assert value == pytest.approx(self._jv_route((q,), w, T),
                                              rel=4e-15, abs=0.0)
                assert calls[-1] <= most
        # non-integer w keeps the jv route's values to a few ulp: only
        # near z = 0 does hhat take the power series
        for q in self.Q_BANDS[::3]:
            s = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3, q),
                            degenerating=(2,))
            for T in (0.3, 2.0, 10.0, 50.0):
                for w in (0.5, 2.5):
                    assert g_degenerating_counting(s, w, T) == pytest.approx(
                        self._jv_route((q,), w, T), rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("w", [36.5, 40.5])
    def test_non_integer_w_against_mpmath(self, w):
        # (1/2) int_0^inf hhat(u) F(u) du at 40 digits, F from the closed
        # form of the n-sum and [0, eps] as its limit; from w ~ 36.5 on,
        # (2/z)^nu overflows near z = 0 while J_nu underflows, so hhat takes
        # its power series there.  G grows like R^{2w+1}, which turns the
        # rounding of R = sqrt(T - 1/4) into ~2w ulp of G: the oracle takes
        # the library's float R
        q, T = 64, 2.0

        def integrand(u):
            x = u / 2
            series = mp.cosh(x) * (2 * q * mp.coth(q * x) / mp.sinh(2 * x)
                                   - 1 / mp.sinh(x) ** 2) / q
            return scale * (2 / (R * u)) ** nu * mp.besselj(nu, R * u) * series

        with mp.workdps(40):
            R = mp.mpf(math.sqrt(T - 0.25))
            nu = w + mp.mpf(1) / 2
            scale = mp.gamma(w + 1) / (2 * mp.sqrt(mp.pi)) * R ** (2 * nu)
            eps = mp.mpf("1e-14") / q
            total = mp.quad(integrand, [eps, 0.01, 0.1, 1, 10, 100, mp.inf])
            total += (eps * mp.mpf(q * q - 1) / (3 * q) * scale
                      / mp.gamma(nu + 1))
        s = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3, q),
                        degenerating=(2,))
        assert g_degenerating_counting(s, w, T) == pytest.approx(
            float(total / 2), rel=1e-15)

    def test_multiple_cones_additive(self):
        s2 = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 40, 60),
                         degenerating=(1, 2))
        s_a = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 40),
                          degenerating=(1,))
        s_b = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 60),
                          degenerating=(1,))
        lhs = g_degenerating_counting(s2, 0.5, 1.25)
        rhs = (g_degenerating_counting(s_a, 0.5, 1.25)
               + g_degenerating_counting(s_b, 0.5, 1.25))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_mean_value_constant_in_unit_interval(self):
        # G ~ (2 C sqrt(T-1/4)/pi) log(prod q) with 0 < C < 1
        T = 1.25
        fam = hecke_family([1000, 10000, 100000])
        fit = fit_slope_vs_logQ(
            fam, lambda m: g_degenerating_counting(m, 0.0, T))
        C = fit.slope * math.pi / (2.0 * math.sqrt(T - 0.25))
        assert 0.0 < C < 1.0


class TestSlopeFit:
    def _family(self):
        t = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3, 10),
                        degenerating=(2,))
        return DegeneratingFamily(template=t,
                                  schedule=((10,), (100,), (1000,), (10000,)))

    def test_exact_linear_data(self):
        fam = self._family()
        fit = fit_slope_vs_logQ(fam, lambda m: 3.0 * math.log(
            m.degenerating_orders[0]) + 1.0)
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-10)
        assert fit.residual <= 1e-12

    def test_constant_data(self):
        fam = self._family()
        fit = fit_slope_vs_logQ(fam, lambda m: 42.0)
        assert fit.slope == pytest.approx(0.0, abs=1e-13)

    def test_too_few_points(self):
        t = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3, 10),
                        degenerating=(2,))
        fam = DegeneratingFamily(template=t, schedule=((10,), (100,)))
        with pytest.raises(FitError):
            fit_slope_vs_logQ(fam, lambda m: 1.0)

    def test_hecke_slope_short(self):
        # quick version of the headline slope experiment
        fam = hecke_family([1000, 10000, 100000])
        fit = fit_slope_vs_logQ(
            fam, lambda m: g_degenerating_counting(m, 0.0, 1.25))
        assert fit.slope == pytest.approx(1.0 / math.pi, rel=0.02)


class TestErrorTermExperiment:
    def test_below_quarter_all_zero(self):
        fam = hecke_family([10, 100, 1000])
        rep = error_term_experiment(fam, 0.2)
        assert all(row[1] == 0.0 and row[2] == 0.0 for row in rep.rows)
        assert rep.bounded

    def test_residual_is_g_minus_exact_slope_term(self):
        # at T = 5/4, R = 1 and the slope c_0 = R/pi is exactly 1/pi
        fam = hecke_family([10, 100, 1000])
        rep = error_term_experiment(fam, 1.25)
        for k, row in enumerate(rep.rows):
            lq, g, residual, normalizer, normalized = row
            assert lq == fam.log_products()[k]
            assert g == g_degenerating_counting(fam.member(k), 0.0, 1.25)
            assert residual == pytest.approx(g - lq / math.pi, abs=1e-15)
            assert normalizer == lq ** 0.75
            assert normalized == residual / normalizer

    def test_normalized_residual_bounded(self):
        fam = hecke_family([100, 1000, 10000, 100000])
        rep = error_term_experiment(fam, 1.25)
        assert rep.bounded
        mags = [abs(v) for v in rep.normalized()]
        assert max(mags) < 1.0
