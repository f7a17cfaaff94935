"""Heat kernel on the hyperbolic plane.

Oracles: scipy.integrate.quad on the defining integrals (an independent
adaptive scheme), mpmath quadrature of the diagonal r-integral, the
exp-sinh r-integral at complex time (the second route to the diagonal's
closed form), the small-time Euclidean limit, and the modulus bound for
complex time."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from mp_reference import mp_plane_kernel_diagonal

from degenspec import special_fn, traces
from degenspec.errors import DomainError
from degenspec.geometry import SurfaceData
from degenspec.hplane import (ComplexTime, complex_time_bound, heat_kernel_h,
                              heat_kernel_h_complex)


class TestRealTime:
    def test_small_time_euclidean_limit(self):
        # 4 pi t K(t, 0) -> 1, checked at t = 1e-4 within 1e-3
        t = 1e-4
        assert abs(4.0 * math.pi * t * heat_kernel_h(t, 0.0) - 1.0) <= 1e-3

    def test_small_time_linear_rate(self):
        # |4 pi t K(t,0) - 1| <= C t with a finite fitted C
        ratios = []
        for t in np.geomspace(1e-5, 1e-2, 8):
            ratios.append(abs(4.0 * math.pi * t * heat_kernel_h(float(t), 0.0)
                              - 1.0) / t)
        assert max(ratios) < 10.0

    def test_diagonal_against_second_scheme(self):
        # independent quadrature of the diagonal r-integral
        t = 1.0
        oracle, err = quad(
            lambda r: math.exp(-(0.25 + r * r) * t) * math.tanh(math.pi * r) * r,
            0, np.inf)
        assert abs(heat_kernel_h(t, 0.0) - oracle / (2.0 * math.pi)) \
            <= max(1e-12, 2.0 * err)

    @pytest.mark.parametrize("t,d", [(0.5, 0.5), (1.0, 1.0), (2.0, 3.0)])
    def test_off_diagonal_against_second_scheme(self, t, d):
        upper = d + 14.0 * math.sqrt(t) + 5.0
        oracle, err = quad(
            lambda u: u * math.exp(-u * u / (4 * t))
            / math.sqrt(math.cosh(u) - math.cosh(d)), d, upper,
            epsabs=1e-13, epsrel=1e-12)
        pref = math.sqrt(2.0) * math.exp(-t / 4.0) / (4.0 * math.pi * t) ** 1.5
        assert abs(heat_kernel_h(t, d) - pref * oracle) <= 1e-10

    def test_positive(self):
        for t in (0.01, 1.0, 30.0):
            for d in (0.0, 0.5, 2.0):
                assert heat_kernel_h(t, d) > 0.0

    def test_monotone_in_distance(self):
        # dense sampling: K(t, d) strictly decreasing in d
        for t in (0.3, 1.0, 5.0):
            values = [heat_kernel_h(t, d) for d in np.linspace(0.05, 4.0, 24)]
            assert all(a > b for a, b in zip(values[:-1], values[1:]))

    def test_long_time_decay_rate(self):
        # K(t,0) e^{t/4} stays bounded on [10, 100]
        vals = [heat_kernel_h(float(t), 0.0) * math.exp(t / 4.0)
                for t in np.linspace(10.0, 100.0, 7)]
        assert max(vals) < 1.0
        assert all(v > 0 for v in vals)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            heat_kernel_h(0.0, 1.0)
        with pytest.raises(DomainError):
            heat_kernel_h(1.0, -0.1)


def _closed_form_bound(t):
    # the cancellation in 1 - 2 sum grows like 0.36 sqrt(t); dense scans
    # reach 3.4e-15 below t = 1 and 2.5e-15 sqrt(t) above
    return 5e-15 * max(1.0, math.sqrt(t))


class TestDiagonalClosedForm:
    @pytest.mark.parametrize("times", [np.geomspace(1e-8, 100.0, 17),
                                       np.geomspace(100.0, 2975.0, 9)],
                             ids=["1e-8..100", "100..2975"])
    def test_against_mpmath(self, times):
        for t in times:
            exact = mp_plane_kernel_diagonal(t)
            if exact < 1e-300:  # e^{-t/4} in the subnormal range
                continue
            error = abs((mp.mpf(heat_kernel_h(float(t), 0.0)) - exact) / exact)
            assert error <= _closed_form_bound(t), t

    def test_underflow_and_smallest_mellin_node(self):
        for t in (3000.0, 1e4, 1e8):
            assert heat_kernel_h(t, 0.0) == 0.0
        # t = 1e-51, the Mellin rule's smallest node: 1/(4 pi t) to rounding
        assert heat_kernel_h(1e-51, 0.0) == pytest.approx(
            1.0 / (4.0 * math.pi * 1e-51), rel=1e-15)

    def test_matches_the_quadrature_route(self):
        for t in np.geomspace(1e-4, 50.0, 15):
            route = heat_kernel_h_complex(ComplexTime(float(t)), 0.0)
            assert heat_kernel_h(float(t), 0.0) == pytest.approx(
                route.real, rel=1e-14)

    def test_no_quadrature_on_the_real_diagonal(self, monkeypatch):
        def fail(*args):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(special_fn, "_de_rows", fail)
        times = np.geomspace(1e-3, 10.0, 5)
        heat_kernel_h(0.5, 0.0)
        traces.identity_trace(2.0, times)
        bare = SurfaceData(genus=2, num_cusps=0)
        traces.standard_trace(bare, 0.5)
        traces.standard_trace(bare, times)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(DomainError):
            heat_kernel_h(1.0, 0.0, tol)
        with pytest.raises(DomainError):
            traces.identity_trace(1.0, 1.0, tol)


class TestComplexTime:
    def test_real_time_reduction(self):
        z = ComplexTime(t=0.7, s=0.0)
        assert abs(heat_kernel_h_complex(z, 1.0) - heat_kernel_h(0.7, 1.0)) \
            <= 1e-10

    def test_conjugate_symmetry(self):
        z = ComplexTime(t=0.7, s=0.9)
        zbar = ComplexTime(t=0.7, s=-0.9)
        v = heat_kernel_h_complex(z, 1.2)
        assert abs(v - np.conj(heat_kernel_h_complex(zbar, 1.2))) <= 1e-12

    def test_diagonal_reduction(self):
        z = ComplexTime(t=1.1, s=0.0)
        assert abs(heat_kernel_h_complex(z, 0.0) - heat_kernel_h(1.1, 0.0)) \
            <= 1e-12

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("s", [-2.0, -0.5, 0.0, 0.5, 2.0])
    @pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
    def test_modulus_bound_grid(self, t, s, d):
        # |K(z,d)| <= e^{s^2/4t} t^{-3/2} (t^2+s^2)^{3/4} K(|z|^2/t, d)
        z = ComplexTime(t=t, s=s)
        lhs = abs(heat_kernel_h_complex(z, d))
        rhs = complex_time_bound(z, d)
        assert lhs <= rhs * (1.0 + 1e-9)

    def test_time_validation(self):
        with pytest.raises(DomainError):
            ComplexTime(t=0.0, s=1.0)

    def test_tau_helper(self):
        z = ComplexTime(t=2.0, s=3.0)
        assert abs(z.tau - (4.0 + 9.0) / 2.0) <= 1e-15
