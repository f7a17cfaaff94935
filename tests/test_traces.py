"""Heat-trace components, transforms, and trace-formula assembly.

Oracles: brute-force (geodesic, n) summation, scipy.integrate.quad on the
defining integrals, elementary Laplace integrals, and the exact algebraic
reduction of the order-2 elliptic integrand to a sech profile.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from degenspec.counting import ScatteringModel
from degenspec.errors import (AdmissibilityError, AlphaCollisionError,
                              DomainError, InvariantViolation)
from degenspec.geometry import DegeneratingFamily, SurfaceData
from degenspec.hplane import heat_kernel_h
from degenspec.traces import (TestFunctionPair, TraceSeries, _cone_series,
                              degenerating_trace,
                              elliptic_trace_r, elliptic_trace_u, fermi_weight,
                              geometric_side, hyperbolic_trace, identity_trace,
                              noncompact_spectral_terms, spectral_side_compact,
                              standard_trace, transform_H, transform_Hhat,
                              truncated_trace)


def brute_hyperbolic(spectrum, t):
    total = 0.0
    for ell, mult in spectrum:
        for n in range(1, 10000):
            expo = -(n * ell) ** 2 / (4.0 * t)
            if expo < -745 or n * ell / 2 > 700:
                break
            total += mult * ell / math.sinh(n * ell / 2) * math.exp(expo)
    return math.exp(-t / 4.0) / math.sqrt(16 * math.pi * t) * total


class TestIdentityTrace:
    def test_small_time_weyl(self):
        t, vol = 1e-4, 7.0
        assert abs(4 * math.pi * t * identity_trace(vol, t) / vol - 1.0) <= 1e-3

    def test_equals_volume_times_plane_kernel(self):
        # integration-by-parts identity between the two diagonal forms
        for t in (0.1, 1.0, 10.0):
            lhs = identity_trace(5.5, t)
            rhs = 5.5 * heat_kernel_h(t, 0.0)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_upper_bound(self):
        for t in (0.01, 1.0, 4.0):
            assert identity_trace(3.0, t) <= 3.0 * math.exp(-t / 4) / (4 * math.pi * t) * (1 + 1e-12)

    def test_long_time_decay(self):
        t = 50.0
        assert identity_trace(2.0, t) * math.exp(t / 4.0) < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            identity_trace(-1.0, 1.0)
        with pytest.raises(DomainError):
            identity_trace(1.0, 0.0)


class TestHyperbolicTrace:
    def test_empty(self):
        assert hyperbolic_trace([], 1.0) == 0.0

    def test_brute_force_oracle(self):
        spec = [(1.0, 1)]
        assert hyperbolic_trace(spec, 1.0) == pytest.approx(
            brute_hyperbolic(spec, 1.0), rel=1e-14)

    def test_multiplicity_and_many_geodesics(self):
        spec = [(1.0, 2), (1.7, 1), (2.4, 3)]
        for t in (0.5, 2.0):
            assert hyperbolic_trace(spec, t) == pytest.approx(
                brute_hyperbolic(spec, t), rel=1e-13)

    def test_small_time_gaussian_suppression(self):
        # HTr(t) e^{c/t} bounded for c = l_min^2/8 < l_min^2/4
        c = 1.0 / 8.0
        vals = [hyperbolic_trace([(1.0, 1)], t) * math.exp(c / t)
                for t in (0.005, 0.01, 0.02, 0.05)]
        assert max(vals) < 1.0


class TestEllipticTraces:
    def test_empty(self):
        assert elliptic_trace_u([], 1.0) == 0.0
        assert elliptic_trace_r([], 1.0) == 0.0

    def test_order_two_sech_reduction(self):
        # e^{-pi r}/(1+e^{-2 pi r}) = 1/(2 cosh(pi r)) collapses the r-form
        oracle, _ = quad(lambda r: math.exp(-r * r) / math.cosh(math.pi * r),
                         -12, 12, epsabs=1e-14)
        assert elliptic_trace_r([2], 1.0) == pytest.approx(
            math.exp(-0.25) / 8.0 * oracle, abs=1e-12)

    def test_u_form_against_scipy(self):
        q, t = 5, 0.7
        total = 0.0
        for n in range(1, q):
            c = math.sin(n * math.pi / q) ** 2
            val, _ = quad(lambda u: math.exp(-u * u / (4 * t)) * math.cosh(u / 2)
                          / (math.sinh(u / 2) ** 2 + c), 0, 120,
                          epsabs=1e-13, limit=200)
            total += val / q
        oracle = math.exp(-t / 4) / math.sqrt(16 * math.pi * t) * total
        assert elliptic_trace_u([q], t) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("q", [2, 3, 5, 12])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_dual_representation(self, q, t):
        u = elliptic_trace_u([q], t)
        r = elliptic_trace_r([q], t)
        assert abs(u - r) <= 1e-8 * (1.0 + abs(u))

    def test_long_time_decay(self):
        t = 50.0
        assert elliptic_trace_u([3], t) * math.exp(t / 4.0) < 1.0

    @staticmethod
    def _mp_series(q, u):
        """cosh(u/2) S_q(u)/q from the closed form of the n-sum."""
        x = mp.mpf(u) / 2
        return mp.cosh(x) * (2 * q * mp.coth(q * x) / mp.sinh(2 * x)
                             - 1 / mp.sinh(x) ** 2) / q

    def test_closed_form_identity(self):
        # the oracle's identity itself, against the defining n-sum
        with mp.workdps(50):
            for q in (2, 3, 7):
                for u in ("1e-6", "0.3", "2", "11"):
                    x = mp.mpf(u) / 2
                    direct = mp.cosh(x) / q * mp.fsum(
                        1 / (mp.sinh(x) ** 2 + mp.sin(n * mp.pi / q) ** 2)
                        for n in range(1, q))
                    # the closed form cancels ~13 of the 50 digits at 1e-6
                    assert abs(self._mp_series(q, u) / direct - 1) < 1e-30

    @pytest.mark.parametrize("q", [2, 3, 7, 50, 1000, 10 ** 5, 10 ** 7])
    def test_closed_form_n_sum(self, q):
        # both switches of the evaluation: q u/2 = 1 and u/2 = 1
        u = np.concatenate([np.geomspace(1e-9, 60.0, 160),
                            np.outer([2.0 / q, 2.0], [1 - 1e-12, 1.0, 1 + 1e-12]).ravel()])
        got = _cone_series((q,))(u)
        with mp.workdps(50):
            want = np.array([float(self._mp_series(q, float(v))) for v in u])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-14

    @pytest.mark.parametrize("q", [2, 3, 7, 50])
    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 10.0])
    def test_u_form_against_mpmath_n_sum(self, q, t):
        # the per-n integrand summed inside one mpmath quadrature
        with mp.workdps(30):
            sin2 = [mp.sin(n * mp.pi / q) ** 2 for n in range(1, q)]

            def f(u):
                x = u / 2
                s2 = mp.sinh(x) ** 2
                return mp.exp(-u * u / (4 * t)) * mp.cosh(x) * mp.fsum(
                    1 / (s2 + c) for c in sin2) / q

            scale = math.sqrt(4 * t)
            points = [0] + [scale * k for k in (0.25, 1, 3, 8)] + [mp.inf]
            total = mp.quad(f, points)
            oracle = float(mp.exp(-t / 4) / mp.sqrt(16 * mp.pi * t) * total)
        assert elliptic_trace_u([q], t) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 10.0])
    def test_mixed_orders_additive(self, t):
        orders = (2, 3, 3, 7, 50)
        parts = math.fsum(elliptic_trace_u([q], t) for q in orders)
        assert elliptic_trace_u(orders, t) == pytest.approx(parts, rel=1e-14)

    def test_huge_order_small_time(self):
        q, t = 10 ** 7, 1e-3
        val = elliptic_trace_u([q], t)
        assert math.isfinite(val)
        with mp.workdps(50):
            def f(u):
                return mp.exp(-u * u / (4 * t)) * self._mp_series(q, u)

            # tanh-sinh nodes crowd u = 0, where 50 digits cannot carry the
            # cancellation: [0, 1e-20] is taken as its limit (q^2 - 1)/3q
            # times the width, and the Gaussian has died (e^{-640}) by 1.6
            eps = mp.mpf("1e-20")
            points = [eps] + [mp.mpf(10) ** k / q for k in range(0, 7)] \
                + [0.2, 0.4, 0.8, 1.6]
            total = mp.quad(f, points) + eps * (q * q - 1) / (3 * q)
            oracle = float(mp.exp(-t / 4) / mp.sqrt(16 * mp.pi * t) * total)
        assert val == pytest.approx(oracle, rel=1e-11)

    def test_order_validation(self):
        with pytest.raises(DomainError):
            elliptic_trace_u([1], 1.0)


class TestDegeneratingTrace:
    def test_empty_set(self, bare_surface):
        assert degenerating_trace(bare_surface, 1.0) == 0.0

    def test_full_set_equals_elliptic(self):
        s = SurfaceData(genus=1, num_cusps=1, elliptic_orders=(2, 5),
                        degenerating=(0, 1))
        assert degenerating_trace(s, 1.0) == pytest.approx(
            elliptic_trace_u([2, 5], 1.0), rel=1e-13)

    def test_single_cone_oracle(self):
        s = SurfaceData(genus=1, num_cusps=0, elliptic_orders=(5,),
                        degenerating=(0,))
        assert degenerating_trace(s, 1.0) == pytest.approx(
            elliptic_trace_u([5], 1.0), rel=1e-13)


class TestStandardTrace:
    def test_bare_surface_reduction(self, bare_surface):
        t = 0.9
        assert standard_trace(bare_surface, t) == pytest.approx(
            bare_surface.volume * heat_kernel_h(t, 0.0), rel=1e-12)

    def test_small_time_weyl(self, compact_surface):
        t = 1e-4
        ratio = 4 * math.pi * t * standard_trace(compact_surface, t) \
            / compact_surface.volume
        assert abs(ratio - 1.0) <= 1e-3

    def test_additivity(self, compact_surface):
        t = 1.0
        total = (hyperbolic_trace(compact_surface.length_spectrum, t)
                 + elliptic_trace_u(compact_surface.elliptic_orders, t)
                 + compact_surface.volume * heat_kernel_h(t, 0.0))
        assert standard_trace(compact_surface, t) == pytest.approx(total,
                                                                   rel=1e-14)


class TestTruncatedTrace:
    def test_no_small_eigenvalues(self, bare_surface):
        assert truncated_trace(bare_surface, 0.1, 1.0) == pytest.approx(
            standard_trace(bare_surface, 1.0), rel=1e-15)

    def test_zero_mode_only(self):
        s = SurfaceData(genus=2, num_cusps=0, small_eigenvalues=(0.0,))
        t = 1.3
        assert truncated_trace(s, 0.1, t) == pytest.approx(
            standard_trace(s, t) - 1.0, rel=1e-12)

    def test_threshold_semantics(self):
        s = SurfaceData(genus=2, num_cusps=0, small_eigenvalues=(0.0, 0.2))
        t = 0.7
        # alpha = 0.1 subtracts only the zero mode
        assert truncated_trace(s, 0.1, t) == pytest.approx(
            standard_trace(s, t) - 1.0, rel=1e-12)
        # alpha = 0.22 subtracts both
        assert truncated_trace(s, 0.22, t) == pytest.approx(
            standard_trace(s, t) - 1.0 - math.exp(-0.2 * t), rel=1e-12)

    def test_collision_error(self):
        s = SurfaceData(genus=2, num_cusps=0, small_eigenvalues=(0.0, 0.2))
        with pytest.raises(AlphaCollisionError):
            truncated_trace(s, 0.2, 1.0)


class TestTransforms:
    def test_laplace_of_exponential(self):
        # h = e^{-at}: H(r) = 1/(a + r^2)
        for a in (0.5, 1.5):
            for r in (0.0, 1.0, 2.5):
                val = transform_H(lambda t, a=a: np.exp(-a * t), r)
                assert val == pytest.approx(1.0 / (a + r * r), abs=1e-10)

    def test_gaussian_transform_oracle(self):
        h = lambda t: np.exp(-1.5 * t)
        for u in (0.0, 2.0):
            oracle, _ = quad(lambda t: math.exp(-1.5 * t)
                             * math.exp(-u * u / (4 * t)) / math.sqrt(4 * math.pi * t),
                             0, 80, epsabs=1e-13)
            assert transform_Hhat(h, u) == pytest.approx(oracle, abs=1e-9)

    def test_point_mass_closed_forms(self):
        t0 = 0.8
        pair = TestFunctionPair.point_mass(t0)
        assert pair.H(1.3) == pytest.approx(math.exp(-1.3 ** 2 * t0), rel=1e-14)
        assert pair.Hhat(2.0) == pytest.approx(
            math.exp(-4.0 / (4 * t0)) / math.sqrt(4 * math.pi * t0), rel=1e-14)
        assert pair.provenance == "analytic"

    def test_imaginary_argument(self):
        # H(i/2) = int h(t) e^{t/4} dt for admissible h
        h = lambda t: np.exp(-0.6 * t)
        val = transform_H(h, 0.5j)
        assert val == pytest.approx(1.0 / (0.6 - 0.25), abs=1e-9)

    def test_numeric_pair_certification(self):
        pair = TestFunctionPair.from_h(lambda t: np.exp(-0.6 * t))
        assert pair.provenance == "numeric"
        assert pair.epsilon > 0
        assert pair.H(1.0) == pytest.approx(1.0 / 1.6, abs=1e-9)

    def test_inadmissible_rejected(self):
        # e^{-t/4} sits exactly on the boundary: no eps > 0 certificate
        with pytest.raises(AdmissibilityError):
            TestFunctionPair.from_h(lambda t: np.exp(-0.25 * t))

    def test_analytic_pair_verified(self):
        h = lambda t: np.exp(-1.5 * t)
        pair = TestFunctionPair.analytic(
            h, H=lambda r: 1.0 / (1.5 + complex(r) ** 2),
            Hhat=lambda u: transform_Hhat(h, u))
        assert pair.provenance == "analytic"
        with pytest.raises(AdmissibilityError):
            TestFunctionPair.analytic(h, H=lambda r: 2.0 / (1.5 + complex(r) ** 2),
                                      Hhat=lambda u: transform_Hhat(h, u))


class TestTraceFormulaSides:
    def test_point_mass_matches_standard_trace(self, compact_surface):
        # the trace formula specialized to the heat weight: the geometric
        # side at the point-mass pair equals e^{t0/4} Str(t0)
        t0 = 0.8
        pair = TestFunctionPair.point_mass(t0)
        gs = geometric_side(compact_surface, pair, tol=1e-11)
        assert gs == pytest.approx(
            math.exp(t0 / 4.0) * standard_trace(compact_surface, t0), rel=1e-8)

    def test_empty_surface_identity_only(self, bare_surface):
        t0 = 1.0
        pair = TestFunctionPair.point_mass(t0)
        gs = geometric_side(bare_surface, pair)
        ident = math.exp(t0 / 4.0) * bare_surface.volume * heat_kernel_h(t0, 0.0)
        assert gs == pytest.approx(ident, rel=1e-9)

    def test_spectral_side_branches(self):
        pair = TestFunctionPair.point_mass(0.5)
        # lambda = 0 -> r = i/2 -> H(i/2) = e^{t0/4}
        assert spectral_side_compact([0.0], pair) == pytest.approx(
            math.exp(0.5 / 4.0), rel=1e-13)
        # lambda = 1/2 -> r = 1/2 real
        assert spectral_side_compact([0.5], pair) == pytest.approx(
            math.exp(-0.25 * 0.5), rel=1e-13)

    def test_sides_agree_on_matched_model(self, bare_surface):
        # a spectral list synthesized from the geometric side at one weight
        # will not match at another unless the data is genuinely consistent;
        # here we only check the identity-term bookkeeping is coherent
        pair = TestFunctionPair.point_mass(1.0)
        gs = geometric_side(bare_surface, pair)
        assert gs > 0


class TestNoncompactTerms:
    def test_trivial_scattering_no_cusps(self):
        pair = TestFunctionPair.point_mass(1.0)
        assert noncompact_spectral_terms(0, ScatteringModel.trivial(), pair) \
            == 0.0

    def test_constant_scattering_pullout(self):
        # phi'/phi = -2c: its term is (c/2pi) int H(r) dr = c/(2 sqrt(a))
        # for H = 1/(a + r^2)
        c, a = 0.7, 0.6
        pair = TestFunctionPair.from_h(lambda t: np.exp(-a * t))
        model = ScatteringModel(phi_log_deriv=lambda r: -2.0 * c,
                                trace_phi_half=0.0, q_M=1.2)
        val = noncompact_spectral_terms(0, model, pair, tol=1e-11)
        assert val == pytest.approx(c / (2.0 * math.sqrt(a)), abs=1e-8)

    def test_trace_phi_cancellation(self):
        # Tr Phi(1/2) = p kills the (p - Tr Phi) term; with phi'/phi = 0 the
        # remaining terms are the digamma and log-2 pieces
        p = 1
        pair = TestFunctionPair.point_mass(1.0)
        model_eq = ScatteringModel(phi_log_deriv=lambda r: -2.0,
                                   trace_phi_half=float(p), q_M=math.e)
        model_zero = ScatteringModel(phi_log_deriv=lambda r: -2.0,
                                     trace_phi_half=0.0, q_M=math.e)
        diff = (noncompact_spectral_terms(p, model_zero, pair)
                - noncompact_spectral_terms(p, model_eq, pair))
        assert diff == pytest.approx(-0.25 * p * pair.H(0.0), rel=1e-10)


class TestDegenerationMonitors:
    """Bound shapes monitored across a schedule (constants observed, not
    fitted): the regularized difference HTr + ETr - DTr."""

    @pytest.fixture(scope="class")
    def family(self):
        template = SurfaceData(genus=0, num_cusps=1,
                               elliptic_orders=(2, 3, 10), degenerating=(2,),
                               length_spectrum=((1.0, 1),))
        return DegeneratingFamily(template=template,
                                  schedule=((10,), (100,), (1000,)))

    def _difference(self, member, t):
        return (hyperbolic_trace(member.length_spectrum, t)
                + elliptic_trace_u(member.elliptic_orders, t)
                - degenerating_trace(member, t))

    def test_fixed_time_uniform_bound(self, family):
        # pointwise bound at s = 0: differences stay in a fixed band over q
        vals = [self._difference(m, 1.0) for m in family.members()]
        assert max(vals) - min(vals) <= 1e-12  # degenerating part cancels
        assert max(abs(v) for v in vals) < 10.0

    def test_long_time_truncated_bound(self, family):
        # |HTr^(a) + ETr^(a) - DTr| e^{ct} bounded on [1, 50] for c < alpha;
        # with no listed small modes every geometric term decays at rate 1/4
        c = 0.2
        member = family.member(1)
        vals = [abs(self._difference(member, t)) * math.exp(c * t)
                for t in np.linspace(1.0, 50.0, 12)]
        assert max(vals) < 10.0

    def test_small_time_power_bound(self, family):
        # t^{3/2} |HTr + ETr - DTr| bounded as t -> 0, uniformly in q
        for member in family.members():
            vals = [t ** 1.5 * abs(self._difference(member, t))
                    for t in np.geomspace(1e-4, 0.5, 8)]
            assert max(vals) < 1.0


class TestTraceSeries:
    def test_validation(self):
        with pytest.raises(InvariantViolation):
            TraceSeries(grid=(1.0, 0.5), values=(1.0, 2.0), tolerance=1e-9)
        with pytest.raises(InvariantViolation):
            TraceSeries(grid=(0.5, 1.0), values=(1.0, math.nan), tolerance=1e-9)

    def test_csv_export(self, tmp_path):
        series = TraceSeries(grid=(0.5, 1.0), values=(2.0, 1.0),
                             tolerance=1e-9)
        path = tmp_path / "series.csv"
        series.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,value,err"
        assert len(lines) == 3
        assert lines[1].startswith("0.5,2.0,")

    def test_from_function(self):
        series = TraceSeries.from_function(lambda t: t * t, (0.5, 1.0, 2.0),
                                           1e-8)
        assert series.values == (0.25, 1.0, 4.0)


class TestFermiWeight:
    def test_symmetry_partition(self):
        # fermi(0, r) + fermi(0, -r) = 1
        r = np.linspace(-10, 10, 41)
        total = fermi_weight(0.0, r) + fermi_weight(0.0, -r)
        assert np.max(np.abs(total - 1.0)) <= 1e-14

    def test_overflow_free(self):
        vals = fermi_weight(0.9, np.array([-500.0, 500.0]))
        assert np.all(np.isfinite(vals))
