"""Spectral invariants of finite-volume hyperbolic surfaces with conical
points, and their behavior as cone orders degenerate to cusps.

Submodules:

- special_fn: log-gamma, 1/Gamma, the K-Bessel integral, the exp-sinh and
  tanh-sinh quadrature rules
- hplane: the heat kernel on the hyperbolic plane (real and complex time)
- geometry: surface/cone data model, degenerating families, Hecke generator
- traces: heat-trace components
- degeneration: S(q), c_w(T) kernels, degenerating counting asymptotics
- counting: weighted spectral counting functions
- zeta_det: spectral/Hurwitz zeta, heat coefficients, regularized determinant
- selberg: Selberg zeta product and log-derivative representations
- cli: the `degenspec` command-line workbench
"""

from . import (  # noqa: F401
    counting,
    degeneration,
    errors,
    geometry,
    hplane,
    selberg,
    special_fn,
    traces,
    zeta_det,
)

__version__ = "0.1.0"
