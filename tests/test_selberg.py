"""Selberg zeta routes against each other where they overlap.

Oracles: the (geodesic, n) series is checked against the heat-trace
integral (Re s > 1 inside |Im s| < Re s - 1/2), the K-Bessel route (real
s), and a Richardson central difference of log of the Euler product.
"""

import cmath

import pytest
from hypothesis import given, settings, strategies as st

from degenspec.errors import AlphaCollisionError, DomainError, PoleError
from degenspec.selberg import (selberg_logderiv_integral,
                               selberg_logderiv_kbessel,
                               selberg_logderiv_series, selberg_zeta_product,
                               truncated_logderiv)

spectra = st.lists(st.tuples(st.floats(0.5, 4.0), st.integers(1, 3)),
                   min_size=1, max_size=4)
SETTINGS = settings(derandomize=True, max_examples=8, deadline=None)

# the benchmark's point where the integral diverges: |Im s| > Re s - 1/2
DIVERGENT_S = complex(1.3956, 2.5547)


def close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


@SETTINGS
@given(spectra, st.floats(1.1, 3.0), st.floats(-0.9, 0.9))
def test_integral_matches_series(lengths, sigma, frac):
    s = complex(sigma, frac * (sigma - 0.5))
    integral = selberg_logderiv_integral(lengths, s, tol=1e-13)
    assert integral.representation == "integral"
    assert integral.domain_certificate == "Re(s)>1"
    assert close(integral.value, selberg_logderiv_series(lengths, s).value,
                 1e-12)


@settings(derandomize=True, max_examples=4, deadline=None)
@given(spectra, st.floats(1.1, 3.0))
def test_kbessel_matches_series(lengths, s):
    assert close(selberg_logderiv_kbessel(lengths, s).value,
                 selberg_logderiv_series(lengths, s).value, 1e-12)


@SETTINGS
@given(spectra, st.floats(1.1, 3.0), st.floats(-2.0, 2.0))
def test_series_is_log_derivative_of_product(lengths, sigma, tau):
    s = complex(sigma, tau)

    def central(h):
        return cmath.log(selberg_zeta_product(lengths, s + h)
                         / selberg_zeta_product(lengths, s - h)) / (2 * h)

    h = 1e-3
    richardson = (4.0 * central(h / 2) - central(h)) / 3.0
    assert close(selberg_logderiv_series(lengths, s).value, richardson, 1e-8)


@SETTINGS
@given(spectra, st.floats(1.1, 3.0), st.floats(-0.5, 0.5))
def test_truncated_logderiv_removes_small_eigenvalues(lengths, sigma, frac):
    s = complex(sigma, frac * (sigma - 0.5))
    small = (0.0, 0.05, 0.1, 0.2)
    base = selberg_logderiv_integral(lengths, s).value
    removed = sum((2 * s - 1) / (s * (s - 1) + lam) for lam in small[:3])
    got = truncated_logderiv(lengths, small, 0.15, s)
    assert close(base - got, removed, 1e-15)


def test_divergent_point_returns_series():
    lengths = [(1.0, 1), (1.5, 2)]
    ev = selberg_logderiv_integral(lengths, DIVERGENT_S)
    assert ev.representation == "series"
    assert ev.domain_certificate == "Re(s)>1"
    assert ev.value == selberg_logderiv_series(lengths, DIVERGENT_S).value


def test_outside_both_regions_raises():
    with pytest.raises(DomainError):
        selberg_logderiv_integral([(1.0, 1)], complex(0.8, 0.5))


def test_integral_below_one_certificate():
    ev = selberg_logderiv_integral([(1.0, 1)], complex(0.8, 0.1))
    assert ev.representation == "integral"
    assert ev.domain_certificate == "Re(s^2-s)>-1/4"


def test_truncated_logderiv_alpha_on_an_eigenvalue_collides():
    # the one alpha rule of every truncation: modes lambda <= alpha go, and
    # an alpha on a listed eigenvalue is refused, not silently kept
    for alpha in (0.0, 0.1):
        with pytest.raises(AlphaCollisionError):
            truncated_logderiv([(1.0, 1)], (0.0, 0.1), alpha, 2.0)
    with pytest.raises(DomainError):
        truncated_logderiv([(1.0, 1)], (0.0,), 0.25, 2.0)


def test_truncated_logderiv_pole():
    # lambda = 0 is removed, and s(s - 1) = 0 at s = 1
    with pytest.raises(PoleError):
        truncated_logderiv([(1.0, 1)], (0.0,), 0.1, 1.0)
