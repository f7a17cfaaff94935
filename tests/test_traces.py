"""Heat-trace components and the trace formula's geometric side.

Oracles: brute-force (geodesic, n) summation, scipy.integrate.quad on the
defining integrals, mpmath (tests/mp_reference.py), and the exact algebraic
reduction of the order-2 elliptic integrand to a sech profile.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from mp_reference import mp_elliptic_trace

from degenspec import cli, special_fn
from degenspec.errors import AlphaCollisionError, DomainError
from degenspec.geometry import DegeneratingFamily, SurfaceData, save_surface
from degenspec.hplane import heat_kernel_h
from degenspec import traces
from degenspec.special_fn import as_array_fn, integrate_semi_infinite
from degenspec.traces import (_cone_series, cone_integral, degenerating_trace,
                              elliptic_trace, elliptic_trace_r,
                              elliptic_trace_u, fermi_fold,
                              fermi_weight, geodesic_sum,
                              hyperbolic_sum_reduced, hyperbolic_trace,
                              identity_trace, standard_trace,
                              surface_trace_provider, truncated_trace)


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
        # one closed form under both, so equal bit for bit
        for t in (1e-51, 1e-3, 0.1, 1.0, 10.0, 2975.0, 3000.0):
            assert identity_trace(5.5, t) == 5.5 * heat_kernel_h(t, 0.0)

    def test_array_entries_equal_the_scalar_calls(self):
        times = np.geomspace(1e-51, 3000.0, 150).reshape(10, 15)
        batch = identity_trace(5.5, times)
        assert batch.shape == times.shape
        assert batch.tolist() == [[identity_trace(5.5, t) for t in row]
                                  for row in times.tolist()]

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

    def test_short_lengths_at_large_time(self):
        # many kept terms, and a Gaussian that barely decays over them
        spec = [(0.3, 1), (1.0, 2)]
        for t in (10.0, 50.0):
            assert hyperbolic_trace(spec, t) == pytest.approx(
                brute_hyperbolic(spec, t), rel=1e-13)

    def test_array_t_matches_scalar_calls(self):
        spec = [(0.3, 1), (1.0, 2), (2.4, 3)]
        ts = np.geomspace(1e-3, 50.0, 9)
        batched = hyperbolic_sum_reduced(spec, ts)
        assert batched.shape == ts.shape
        assert batched == pytest.approx(
            [hyperbolic_sum_reduced(spec, t) for t in ts], rel=1e-15)
        with pytest.raises(DomainError):
            hyperbolic_sum_reduced(spec, np.array([1.0, 0.0]))

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

    @pytest.mark.parametrize("q", [2, 3, 5, 12, 50])
    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 10.0])
    def test_dual_representation(self, q, t):
        # the u-route, one exp-sinh integral, against the r-route's erfcx
        # series: the two share no quadrature
        u = elliptic_trace_u([q], t)
        r = elliptic_trace_r([q], t)
        assert u == pytest.approx(r, rel=2e-15)

    @pytest.mark.parametrize("orders", [(2,), (3,), (2, 3), (7,), (2, 3, 50),
                                        (64,)])
    def test_series_against_mpmath(self, orders):
        # past t = 10 the alternating m-sums lose digits as pi/sqrt(t)
        # falls: dense scans at q = 2 reach 1.8e-15 on [10, 30] and 8e-15
        # near t = 1000
        for t in np.geomspace(1e-10, 2975.0, 25):
            exact = mp_elliptic_trace(orders, t)
            if exact < 1e-300:  # e^{-t/4} in the subnormal range
                continue
            error = abs((mp.mpf(elliptic_trace_r(orders, float(t))) - exact)
                        / exact)
            assert error <= (2e-15 if t <= 10.0 else 1e-14), t

    @pytest.mark.parametrize("orders", [(2, 3, 7), (2, 3, 100)])
    def test_series_entries_equal_the_scalar_calls(self, orders):
        # 150 entries make three blocks of rows, and (2, 3, 100) two blocks
        # of (q, n) terms
        times = np.geomspace(1e-10, 3000.0, 150).reshape(10, 15)
        batch = elliptic_trace_r(orders, times)
        assert batch.shape == times.shape
        assert batch.tolist() == [[elliptic_trace_r(orders, t) for t in row]
                                  for row in times.tolist()]

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

    @pytest.mark.parametrize("q", [2, 7, 1000, 10 ** 6])
    def test_excess_over_the_limit_is_cancellation_free(self, q):
        # F(u) - F(0) ~ -q^3 u^2/180 for u << 1/q, where F(u) - F(0) taken
        # directly is all rounding noise of F(0) ~ q/3
        u = np.concatenate([np.geomspace(1e-12, 60.0, 120),
                            np.outer([2.0 / q, 2.0], [1 - 1e-12, 1.0, 1 + 1e-12]).ravel()])
        got = _cone_series((q,), minus_f0=True)(u)
        # the closed form cancels ~2 log10(1/u) digits, F(0) as many again
        with mp.workdps(100):
            f0 = mp.mpf(q * q - 1) / (3 * q)
            want = np.array([float(self._mp_series(q, float(v)) - f0)
                             for v in u])
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
        for route in (elliptic_trace_u, elliptic_trace_r):
            parts = math.fsum(route([q], t) for q in orders)
            assert route(orders, t) == pytest.approx(parts, rel=1e-14)

    def _mp_single_order(self, q, t):
        """ETr of one cone of order q by mpmath quadrature of the u-form."""
        with mp.workdps(50):
            def f(u):
                return mp.exp(-u * u / (4 * t)) * self._mp_series(q, u)

            # tanh-sinh nodes crowd u = 0, where 50 digits cannot carry the
            # cancellation: [0, 1e-20] is taken as its limit (q^2 - 1)/3q
            # times the width; the Gaussian and e^{-u/2} have died (below
            # e^{-200}) by 30 sqrt(t) + 1
            eps = mp.mpf("1e-20")
            top = 30 * math.sqrt(t) + 1
            points = [eps] + [mp.mpf(10) ** k / q for k in range(0, 7)] \
                + [top * k / 8 for k in range(1, 9) if top * k / 8 > 0.1]
            total = mp.quad(f, sorted(points)) + eps * (q * q - 1) / (3 * q)
            return float(mp.exp(-t / 4) / mp.sqrt(16 * mp.pi * t) * total)

    def test_huge_order_small_time(self):
        q, t = 10 ** 7, 1e-3
        val = elliptic_trace_u([q], t)
        assert math.isfinite(val)
        assert val == pytest.approx(self._mp_single_order(q, t), rel=1e-11)

    @pytest.mark.parametrize("q,rel", [(1000, 1e-15), (10 ** 7, 5e-14)])
    @pytest.mark.parametrize("t", [0.05, 1.0, 10.0])
    def test_large_order_against_mpmath(self, q, rel, t):
        assert elliptic_trace_u([q], t) == pytest.approx(
            self._mp_single_order(q, t), rel=rel)

    @pytest.mark.parametrize("q", [10 ** 5, 3 * 10 ** 6, 10 ** 7])
    def test_large_order_stops_at_the_rounding_floor(self, q, monkeypatch):
        # the integral ~ q/3 has an ulp above the absolute tol 2e-12 that
        # cone_integral passes: the rule stops once two levels agree to a
        # few ulp, and reports that floor rather than 0
        import degenspec.traces as traces
        results = []

        def spy(*args, **kwargs):
            results.append(integrate_semi_infinite(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(traces, "integrate_semi_infinite", spy)
        values = {t: elliptic_trace_u([q], t) for t in (1e-3, 0.05, 1.0, 10.0)}
        assert len(results) == len(values)
        for res in results:
            assert 0 < res.error_estimate <= 1e-13 * abs(res.value)
        assert values[1.0] == pytest.approx(self._mp_single_order(q, 1.0),
                                            rel=5e-14)

    @pytest.mark.parametrize("orders", [(2, 3), (50,)])
    @pytest.mark.parametrize("t", [1e-14, 1e-16])
    def test_tiny_time_limit(self, orders, t):
        # ETr -> b_0 = sum (q^2 - 1)/(12 q) as t -> 0, with an O(t) remainder
        b0 = math.fsum((q * q - 1) / (12.0 * q) for q in orders)
        for route in (elliptic_trace_u, elliptic_trace_r):
            assert route(orders, t) == pytest.approx(b0, rel=1e-11)

    def test_order_validation(self):
        for route in (elliptic_trace_u, elliptic_trace_r, elliptic_trace):
            with pytest.raises(DomainError):
                route([1], 1.0)
            with pytest.raises(DomainError):
                route([2, 3, 1], np.array([0.5, 1.0]))

    @pytest.mark.parametrize("route", [elliptic_trace_u, elliptic_trace_r,
                                       elliptic_trace])
    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
    def test_tolerance_must_be_positive(self, route, tol):
        with pytest.raises(DomainError):
            route([2, 3], 1.0, tol)


class TestEllipticRoute:
    """elliptic_trace takes the closed-form series while sum (q - 1) <= 64
    and the u-integral above; elliptic_trace_u is the u-integral for every
    order."""

    @pytest.fixture
    def de_calls(self, monkeypatch):
        """The DE rules run, by name, in the order they ran."""
        calls = []
        for name in ("_exp_sinh", "_tanh_sinh"):
            def spy(*args, _inner=getattr(special_fn, name), _name=name):
                calls.append(_name)
                return _inner(*args)

            monkeypatch.setattr(special_fn, name, spy)
        return calls

    @pytest.mark.parametrize("orders,per_call", [((2, 64), []),
                                                 ((2, 65), ["_exp_sinh"])])
    def test_str_dtr_and_cli_trace(self, orders, per_call, de_calls,
                                   tmp_path, capsys):
        # sum (q - 1) is 64, the switch, and 65, just above it
        surface = SurfaceData(genus=2, num_cusps=0, elliptic_orders=orders,
                              degenerating=(0, 1),
                              length_spectrum=((1.0, 1),))
        times = np.geomspace(1e-3, 10.0, 5)
        for call in (lambda: standard_trace(surface, 0.5),
                     lambda: standard_trace(surface, times),
                     lambda: degenerating_trace(surface, 0.5),
                     lambda: degenerating_trace(surface, times)):
            de_calls.clear()
            call()
            assert de_calls == per_call
        path = tmp_path / "surface.json"
        save_surface(surface, path)
        de_calls.clear()
        assert cli.main(["trace", "--surface", str(path), "--t",
                         "log:0.01:10:5", "--tol", "1e-12"]) == cli.EXIT_OK
        capsys.readouterr()
        assert de_calls == 2 * per_call  # the ETr and DTr columns

    @pytest.mark.parametrize("orders", [(2,), (2, 3), (2, 64), (2, 65),
                                        (1000,)])
    def test_u_integral_for_every_order(self, orders, de_calls):
        for t in (0.5, np.geomspace(1e-3, 10.0, 5)):
            de_calls.clear()
            elliptic_trace_u(orders, t)
            assert de_calls == ["_exp_sinh"]

    @pytest.mark.parametrize("orders", [(2, 3), (2, 64), (2, 65)])
    def test_selector_equals_the_route_it_takes(self, orders):
        # repeated orders count once: (64, 64) has 63 terms
        times = np.geomspace(1e-3, 10.0, 5)
        route = elliptic_trace_r if sum(q - 1 for q in orders) <= 64 \
            else elliptic_trace_u
        assert elliptic_trace(orders, times).tolist() == \
            route(orders, times).tolist()
        assert elliptic_trace((64, 64), 0.5) == elliptic_trace_r((64, 64), 0.5)


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


class TestTraceFormulaSides:
    def test_point_mass_matches_standard_trace(self, compact_surface):
        # the geometric side of the trace formula at the heat weight, the
        # pair H(r) = e^{-r^2 t0}, Hhat(u) = e^{-u^2/4t0}/sqrt(4 pi t0),
        # assembled term by term, equals e^{t0/4} Str(t0)
        t0 = 0.8

        def hhat(u):
            return np.exp(-u * u / (4.0 * t0)) / math.sqrt(4.0 * math.pi * t0)

        ident, _ = quad(lambda r: math.exp(-r * r * t0)
                        * math.tanh(math.pi * r) * r, 0, np.inf, epsabs=1e-13)
        side = (compact_surface.volume / (2.0 * math.pi) * ident
                + geodesic_sum(compact_surface.length_spectrum, hhat)
                + cone_integral(compact_surface.elliptic_orders, hhat, 0.5,
                                1e-11))
        assert side == pytest.approx(
            math.exp(t0 / 4.0) * standard_trace(compact_surface, t0), rel=1e-8)


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


class TestFermiWeight:
    def test_symmetry_partition(self):
        # fermi(0, r) + fermi(0, -r) = 1
        r = np.linspace(-10, 10, 41)
        total = fermi_weight(0.0, r) + fermi_weight(0.0, -r)
        assert np.max(np.abs(total - 1.0)) <= 1e-14

    def test_overflow_free(self):
        vals = fermi_weight(0.9, np.array([-500.0, 500.0]))
        assert np.all(np.isfinite(vals))

    @pytest.mark.parametrize("beta", [0.0, 0.001, 0.3, 0.5, 0.97, 0.999])
    def test_fold_is_the_sum_at_plus_and_minus_r(self, beta):
        r = np.concatenate([[0.0], np.geomspace(1e-8, 600.0, 200)])
        total = fermi_weight(beta, r) + fermi_weight(beta, -r)
        assert np.all(np.abs(fermi_fold(beta, r) - total) <= 3e-16 * total)


class TestBatchedTimes:
    """An array of t is one batched call per term; each entry equals the
    scalar call."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(1e-16, 1e3), min_size=1, max_size=8),
           st.lists(st.sampled_from([2, 3, 7, 50, 1000, 10 ** 5, 10 ** 7]),
                    min_size=1, max_size=3))
    def test_elliptic_rows_equal_the_scalar_calls(self, times, orders):
        batch = elliptic_trace_u(orders, np.array(times))
        for t, value in zip(times, batch):
            assert value == pytest.approx(elliptic_trace_u(orders, t),
                                          rel=1e-15, abs=1e-300)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(1e-16, 1e3), min_size=1, max_size=8))
    def test_identity_and_hyperbolic_rows_equal_the_scalar_calls(self, times):
        spectrum = ((1.0, 1), (1.5, 2))
        ident = identity_trace(4.0 * math.pi, np.array(times))
        htr = hyperbolic_trace(spectrum, np.array(times))
        for t, a, b in zip(times, ident, htr):
            assert a == identity_trace(4.0 * math.pi, t)
            assert b == pytest.approx(hyperbolic_trace(spectrum, t),
                                      rel=1e-15, abs=1e-300)

    def test_standard_rows_equal_the_scalar_calls(self, compact_surface):
        times = np.geomspace(1e-4, 30.0, 40)
        batch = standard_trace(compact_surface, times)
        assert batch == pytest.approx(
            [standard_trace(compact_surface, t) for t in times], rel=1e-15)

    @pytest.mark.parametrize("fn", [
        lambda t: elliptic_trace_u((2, 3), t),
        lambda t: identity_trace(2.0, t),
        lambda t: hyperbolic_trace(((1.0, 1),), t),
        lambda t: standard_trace(SurfaceData(genus=2, num_cusps=0,
                                             elliptic_orders=(2, 3)), t),
        lambda t: elliptic_trace_r((2, 3), t),
    ])
    def test_shape_contract(self, fn):
        assert isinstance(fn(0.5), float)
        assert isinstance(fn(np.float64(0.5)), float)
        assert isinstance(fn(np.array(0.5)), float)
        grid = np.geomspace(0.01, 5.0, 6).reshape(2, 3)
        values = fn(grid)
        assert isinstance(values, np.ndarray) and values.shape == (2, 3)
        assert values[1, 2] == pytest.approx(fn(float(grid[1, 2])), rel=1e-15)
        with pytest.raises(DomainError):
            fn(np.array([0.5, 0.0]))

    def test_empty_orders_give_zeros(self):
        for route in (elliptic_trace_u, elliptic_trace_r):
            assert np.array_equal(route((), np.array([0.1, 1.0])), [0.0, 0.0])

    def test_provider_takes_an_array_in_one_call(self, compact_surface,
                                                 monkeypatch):
        sizes = []
        inner = traces.standard_trace

        def counted(surface, t, tol):
            sizes.append(np.size(t))
            return inner(surface, t, tol)

        monkeypatch.setattr(traces, "standard_trace", counted)
        provider = surface_trace_provider(compact_surface)
        times = np.geomspace(1e-3, 10.0, 15)
        values = as_array_fn(provider)(times)
        # one batched call, which the scalar memo does not see
        assert sizes == [15]
        assert provider.cache_info().currsize == 0
        assert values == pytest.approx([provider(t) for t in times.tolist()],
                                       rel=1e-15)
        provider(float(times[0]))
        info = provider.cache_info()
        assert (info.hits, info.misses) == (1, 15)
