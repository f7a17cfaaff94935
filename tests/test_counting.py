"""Weighted counting functions: Riesz means and non-compact corrections."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from degenspec import degeneration
from degenspec.counting import (ScatteringModel, counting_compact,
                                counting_noncompact)
from degenspec.degeneration import CwKernel, c_w_kernel
from degenspec.errors import DomainError, ModelValidationError


class TestCompact:
    def test_weighted_finite_sum(self):
        assert counting_compact([0.0, 0.1, 0.3], 1.0, 0.5) == \
            pytest.approx(0.5 + 0.4 + 0.2, rel=1e-15)

    def test_below_smallest(self):
        assert counting_compact([0.5, 1.0], 0.0, 0.4) == 0.0

    def test_zero_weight_counts(self):
        assert counting_compact([0.0, 0.1, 0.3], 0.0, 0.2) == 2.0

    def test_closed_threshold(self):
        # lambda = T included, per the closed-threshold convention
        assert counting_compact([0.2], 0.0, 0.2) == 1.0
        assert counting_compact([0.2], 1.0, 0.2) == 0.0  # (T - T)^1 = 0

    def test_nondecreasing_in_T(self):
        eigs = [0.0, 0.3, 0.3, 0.9, 2.0]
        for w in (0.0, 0.5, 2.0):
            vals = [counting_compact(eigs, w, T)
                    for T in np.linspace(0.0, 3.0, 40)]
            assert all(b >= a - 1e-15 for a, b in zip(vals[:-1], vals[1:]))

    def test_continuity_for_positive_weight(self):
        # (T - lambda)^w is Hoelder-w at the eigenvalue: the two-sided jump
        # is exactly h^w, vanishing with h for every w > 0
        eigs = [0.5]
        h = 1e-8
        for w in (0.5, 1.0):
            jump = counting_compact(eigs, w, 0.5 + h) \
                - counting_compact(eigs, w, 0.5 - h)
            assert abs(jump) <= 2.0 * h ** w

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            counting_compact([1.0], -0.1, 2.0)


class TestScatteringModel:
    def test_trace_bound(self):
        model = ScatteringModel(phi_log_deriv=lambda r: -4.0,
                                trace_phi_half=2.0, q_M=1.5)
        with pytest.raises(ModelValidationError):
            model.validate(p=1)
        model.validate(p=2)

    def test_lower_bound_enforced_with_cusps(self):
        # phi'/phi = 0 cannot satisfy -phi'/phi >= 2 log q_M > 0
        model = ScatteringModel(phi_log_deriv=lambda r: 0.0, q_M=1.5)
        with pytest.raises(ModelValidationError):
            model.validate(p=1)
        model.validate(p=0)  # vacuous without cusps

    def test_resonance_range(self):
        with pytest.raises(ModelValidationError):
            ScatteringModel(phi_log_deriv=lambda r: -2.0, resonances=(0.4,))
        with pytest.raises(ModelValidationError):
            ScatteringModel(phi_log_deriv=lambda r: -2.0, resonances=(1.2,))

    def test_resonance_sum_in_bound(self):
        model = ScatteringModel(phi_log_deriv=lambda r: -3.0,
                                resonances=(0.9,), q_M=1.2)
        model.validate(p=1)


class TestNoncompact:
    def test_reduces_to_compact(self):
        # p = 0, trivial scattering: continuous terms all vanish
        eigs = [0.0, 0.2, 0.7]
        model = ScatteringModel.trivial()
        for w, T in ((0.0, 2.0), (1.0, 0.9)):
            assert counting_noncompact(eigs, 0, model, w, T) == \
                pytest.approx(counting_compact(eigs, w, T), rel=1e-12)

    def test_below_quarter_scattering_independent(self):
        eigs = [0.0, 0.2]
        m1 = ScatteringModel(phi_log_deriv=lambda r: -5.0, q_M=2.0)
        m2 = ScatteringModel(phi_log_deriv=lambda r: -9.0, q_M=3.0)
        for T in (0.1, 0.25):
            assert counting_noncompact(eigs, 1, m1, 0.0, T) == \
                counting_noncompact(eigs, 1, m2, 0.0, T)

    def test_constant_scattering_oracle(self):
        # phi'/phi = -2c, w = 0: scattering term is (c/2pi) 2 sqrt(T - 1/4)
        c, T = 0.8, 1.25
        model = ScatteringModel(phi_log_deriv=lambda r: -2.0 * c, q_M=1.2)
        val = counting_noncompact([], 0, model, 0.0, T)
        assert val == pytest.approx(c / (2 * math.pi) * 2 * math.sqrt(T - 0.25),
                                    abs=1e-10)

    def test_trace_term_vanishes_when_equal(self):
        # w=0, p=1, Tr Phi(1/2) = 1: fourth term = 0
        T = 1.25
        base = ScatteringModel(phi_log_deriv=lambda r: -2.0,
                               trace_phi_half=1.0, q_M=math.e)
        shifted = ScatteringModel(phi_log_deriv=lambda r: -2.0,
                                  trace_phi_half=0.0, q_M=math.e)
        v_eq = counting_noncompact([], 1, base, 0.0, T)
        v_zero = counting_noncompact([], 1, shifted, 0.0, T)
        assert v_eq - v_zero == pytest.approx(0.25 * (T - 0.25) ** 0.0,
                                              rel=1e-10)

    def test_five_term_assembly_oracle(self):
        # assemble the display by independent quadrature
        eigs = [0.0, 0.3]
        p, w, T, c = 2, 0.5, 2.0, 1.1
        model = ScatteringModel(phi_log_deriv=lambda r: -2.0 * c,
                                trace_phi_half=-1.0, q_M=1.4)
        R = math.sqrt(T - 0.25)
        scat, _ = quad(lambda r: (T - 0.25 - r * r) ** w * (-2.0 * c), -R, R,
                       epsabs=1e-13)
        psi_int, _ = quad(lambda r: (T - 0.25 - r * r) ** w
                          * float(mp.re(mp.digamma(mp.mpc(1.0, r)))), -R, R,
                          epsabs=1e-13)
        gamma_ratio = math.exp(math.lgamma(w + 1.0) - math.lgamma(w + 1.5))
        oracle = (counting_compact(eigs, w, T)
                  - scat / (4 * math.pi)
                  + p / (2 * math.pi) * psi_int
                  - 0.25 * (p - (-1.0)) * (T - 0.25) ** w
                  + p * math.log(2.0) * gamma_ratio / math.sqrt(4 * math.pi)
                  * (T - 0.25) ** (w + 0.5))
        val = counting_noncompact(eigs, p, model, w, T)
        assert val == pytest.approx(oracle, abs=1e-9)


# counting_noncompact([0, 0.3], p, model, w, T) on the models above, as the
# adaptive Gauss-Kronrod rule gave them on [-pi/2, pi/2] before the
# theta-integrals were folded onto [0, pi/2] for the tanh-sinh rule
GAUSS_KRONROD_VALUES = [
    ("constant", 0, 0.0, 1.25, 2.2546479089470326),
    ("constant", 1, 1.0, 10.0, 27.923531900745996),
    ("trace", 1, 0.0, 50.0, 8.188386294383731),
    ("five-term", 2, 0.5, 2.0, 2.5926306213889245),
    ("five-term", 2, 1.0, 50.0, 364.01636434557815),
    ("hat", 2, 0.5, 0.9, 1.6521613898740344),
    ("hat", 1, 1.0, 50.0, 308.8180798172405),
    ("lorentzian", 1, 0.5, 10.0, 10.798942613556715),
    ("lorentzian", 1, 1.0, 50.0, 282.0132571169076),
    # an odd part, which the fold cancels
    ("odd-part", 1, 0.5, 10.0, 10.229262798018965),
    ("odd-part", 1, 1.0, 50.0, 271.58589684647666),
]
MODELS = {
    "constant": lambda: ScatteringModel(phi_log_deriv=lambda r: -1.6,
                                        q_M=1.2),
    "trace": lambda: ScatteringModel(phi_log_deriv=lambda r: -2.0,
                                     trace_phi_half=1.0, q_M=math.e),
    "five-term": lambda: ScatteringModel(phi_log_deriv=lambda r: -2.2,
                                         trace_phi_half=-1.0, q_M=1.4),
    "hat": lambda: ScatteringModel(phi_log_deriv=lambda r: -3.0, q_M=1.3),
    "lorentzian": lambda: ScatteringModel(
        phi_log_deriv=lambda r: -2.0 - 1.0 / (1.0 + r * r), q_M=math.e),
    "odd-part": lambda: ScatteringModel(
        phi_log_deriv=lambda r: -2.0 - 0.5 * np.tanh(r), q_M=math.e),
}


@pytest.mark.parametrize("model, p, w, T, value", GAUSS_KRONROD_VALUES)
def test_folded_tanh_sinh_keeps_the_gauss_kronrod_values(model, p, w, T,
                                                         value):
    assert abs(counting_noncompact([0.0, 0.3], p, MODELS[model](), w, T)
               - value) <= 1e-12


def test_integrals_go_through_the_degeneration_binding(monkeypatch):
    # the scattering and digamma integrals are the theta-integral of the c_w
    # kernels, so a wrapper of degeneration.integrate_finite sees all three
    intervals = []
    engine = degeneration.integrate_finite

    def spy(f, a, b, tol):
        intervals.append((a, b))
        return engine(f, a, b, tol)

    monkeypatch.setattr(degeneration, "integrate_finite", spy)
    counting_noncompact([0.0, 0.3], 1, MODELS["hat"](), 1.0, 50.0)
    c_w_kernel(CwKernel(T=50.0, w=1.0, beta=0.3))
    assert intervals == [(0.0, 0.5 * math.pi)] * 3
