"""Weighted spectral counting functions, compact and non-compact.

The weight-w counting function of a discrete spectrum is the Riesz mean
sum_{lambda <= T} (T - lambda)^w (closed threshold).  On a surface with p
cusps the continuous spectrum adds four correction terms driven by the
scattering determinant phi and the digamma function; for T <= 1/4 only the
discrete sum survives, independently of the scattering data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _sp

from .errors import DomainError, ModelValidationError
from .degeneration import _weighted_interval_integral
from .special_fn import as_array_fn, log_gamma

__all__ = [
    "ScatteringModel",
    "counting_compact",
    "counting_noncompact",
]


@dataclass(frozen=True)
class ScatteringModel:
    """Scattering data entering the non-compact counting function.

    phi_log_deriv: r -> phi'/phi(1/2 + i r), real valued on the critical line.
    trace_phi_half: Tr Phi(1/2); Phi(1/2) is orthogonal and symmetric, so
        |Tr Phi(1/2)| <= p.
    resonances: exceptional parameters s_k in (1/2, 1].
    q_M: lower-bound constant with -phi'/phi(r) - sum_k (1-s_k)/((s_k-1/2)^2+r^2)
        >= 2 log q_M > 0 on the sampled line (checked when cusps are present).
    """

    phi_log_deriv: Callable
    trace_phi_half: float = 0.0
    resonances: tuple = ()
    q_M: float = math.e

    def __post_init__(self):
        res = tuple(float(s) for s in self.resonances)
        for s in res:
            if not 0.5 < s <= 1.0:
                raise ModelValidationError(
                    f"resonances must lie in (1/2, 1], got {s}")
        object.__setattr__(self, "resonances", res)
        if not self.q_M > 1.0:
            raise ModelValidationError(f"q_M must exceed 1, got {self.q_M}")

    def resonance_sum(self, r: float) -> float:
        return sum((1.0 - s) / ((s - 0.5) ** 2 + r * r) for s in self.resonances)

    def validate(self, p: int) -> None:
        """Check the model invariants for a surface with p cusps.

        The lower bound only constrains genuine scattering data, so it is
        enforced when p > 0; with no cusps the model is vacuous.
        """
        if abs(self.trace_phi_half) > p + 1e-12:
            raise ModelValidationError(
                f"|Tr Phi(1/2)| = {abs(self.trace_phi_half)} exceeds cusp "
                f"count {p}")
        if p == 0:
            return
        floor = 2.0 * math.log(self.q_M)
        for r in np.linspace(0.0, 5.0, 21):
            lhs = -float(self.phi_log_deriv(float(r))) - self.resonance_sum(float(r))
            if lhs < floor - 1e-9:
                raise ModelValidationError(
                    f"-phi'/phi - resonance sum = {lhs:.6g} at r = {r:.3g} "
                    f"falls below 2 log q_M = {floor:.6g}")

    @classmethod
    def trivial(cls) -> "ScatteringModel":
        return cls(phi_log_deriv=lambda r: 0.0, trace_phi_half=0.0,
                   resonances=(), q_M=math.e)


def counting_compact(eigenvalues, w: float, T: float) -> float:
    """Riesz mean sum_{lambda <= T} (T - lambda)^w with closed threshold;
    at w = 0 this counts eigenvalues <= T with multiplicity."""
    if w < 0:
        raise DomainError(f"weight must be >= 0, got {w}")
    lam = np.asarray(sorted(float(x) for x in eigenvalues))
    if lam.size and lam[0] < 0:
        raise DomainError("eigenvalues must be >= 0")
    kept = lam[lam <= T]
    if kept.size == 0:
        return 0.0
    return float(np.sum((T - kept) ** w))


def _fold(g: Callable) -> Callable:
    """r -> g(r) + g(-r) for a caller's g, lifted to arrays."""
    g = as_array_fn(g)
    return lambda r: g(r) + g(-r)


def counting_noncompact(eigenvalues, p: int, scattering: ScatteringModel,
                        w: float, T: float, tol: float = 1e-10) -> float:
    """Five-term non-compact counting function for T > 1/4:

    discrete Riesz mean
    - (1/4pi) int (T-1/4-r^2)^w phi'/phi(1/2+ir) dr
    + (p/2pi) int (T-1/4-r^2)^w Re psi(1+ir) dr
    - (1/4)(p - Tr Phi(1/2)) (T-1/4)^w
    + p log2 Gamma(w+1)/(sqrt(4pi) Gamma(w+3/2)) (T-1/4)^{w+1/2}.

    Both r-integrals are the one theta-integral of the c_w kernels,
    degeneration._weighted_interval_integral.  For T <= 1/4 the discrete sum
    alone is returned, independently of the scattering model.
    """
    if w < 0:
        raise DomainError(f"weight must be >= 0, got {w}")
    if p < 0:
        raise DomainError(f"cusp count must be >= 0, got {p}")
    discrete = counting_compact(eigenvalues, w, T)
    if T <= 0.25:
        return discrete
    scattering.validate(p)

    total = discrete
    total -= _weighted_interval_integral(
        _fold(scattering.phi_log_deriv), w, T, tol) / (4.0 * math.pi)
    if p > 0:
        # psi(1 - ir) is the conjugate of psi(1 + ir): the fold of
        # Re psi(1 + ir) is twice it
        total += p / (2.0 * math.pi) * _weighted_interval_integral(
            lambda r: 2.0 * _sp.digamma(1.0 + 1j * r).real, w, T, tol)
        gamma_ratio = math.exp(log_gamma(w + 1.0) - log_gamma(w + 1.5))
        total += (p * math.log(2.0) * gamma_ratio / math.sqrt(4.0 * math.pi)
                  * (T - 0.25) ** (w + 0.5))
    total -= 0.25 * (p - scattering.trace_phi_half) * (T - 0.25) ** w
    return total
