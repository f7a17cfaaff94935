"""Shared model data for the test suite.

Model surfaces carry synthetic signature/length/eigenvalue data; nothing is
computed from group presentations.  The oracles and trace callables that
tests import live in mp_reference.py, a plain module, so that this conftest
and the benchmark's can be collected in one session.
"""

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
