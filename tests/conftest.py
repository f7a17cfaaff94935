"""Shared model data for the test suite.

Model surfaces carry synthetic signature/length/eigenvalue data; nothing is
computed from group presentations.  Trace callables built here are vectorized
the way the library's quadrature engine expects.
"""

import math

import numpy as np
import pytest

from degenspec.geometry import DegeneratingFamily, SurfaceData


@pytest.fixture(scope="session")
def compact_surface():
    """Genus-2 surface with two cones and a short length spectrum."""
    return SurfaceData(genus=2, num_cusps=0, elliptic_orders=(2, 3),
                       degenerating=(1,),
                       length_spectrum=((1.0, 1), (1.5, 2)),
                       small_eigenvalues=(0.0, 0.08))


@pytest.fixture(scope="session")
def bare_surface():
    """No geodesics, no cones: the trace is the identity term alone."""
    return SurfaceData(genus=2, num_cusps=0)


@pytest.fixture(scope="session")
def hecke_like_family():
    """Single degenerating cone alongside fixed (2, 3) cones and one cusp."""
    template = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3, 100),
                           degenerating=(2,), length_spectrum=((1.0, 1),),
                           small_eigenvalues=(0.0, 0.05))
    return DegeneratingFamily(template=template,
                              schedule=((100,), (1000,), (10000,), (100000,)))


def finite_model_trace(eigenvalues):
    """Vectorized t -> sum e^{-lambda t} for a finite spectrum."""
    lams = np.asarray([float(x) for x in eigenvalues])

    def trace(t):
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.sum(np.exp(-np.outer(tt.ravel(), lams)), axis=1)
        return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])

    return trace


def circle_theta(t):
    """Jacobi theta sum_{n in Z} e^{-n^2 t}, the heat trace of the circle
    R/2piZ; evaluated through the modular transform for small t."""

    def scalar(tv: float) -> float:
        if tv < 1.0:
            x = math.pi * math.pi / tv
            s = 1.0
            for n in range(1, 60):
                term = 2.0 * math.exp(-n * n * x)
                s += term
                if term < 1e-300 * s:
                    break
            return math.sqrt(math.pi / tv) * s
        s = 1.0
        for n in range(1, 10000):
            term = 2.0 * math.exp(-n * n * tv)
            if term < 1e-18 * s:
                break
            s += term
        return s

    if np.ndim(t) == 0:
        return scalar(float(t))
    arr = np.asarray(t, dtype=float)
    return np.asarray([scalar(float(x)) for x in arr.ravel()]).reshape(arr.shape)

