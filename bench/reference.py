"""Regenerate `reference.json`, the committed reference values of the benchmark.

    python3 bench/reference.py

It writes the Chebyshev coefficients of the cone kernel
beta -> int_{-R}^{R} (T - 1/4 - r^2)^w fermi(beta, r) dr on [0, 1] for every
(T, w) of the cone-sum workload, fitted at Chebyshev points to mpmath values
at `oracles.MP_DPS` digits, and a set of closed-form checks that the oracles
must reproduce.  No `degenspec` code is used.
"""

from __future__ import annotations

import json
import math
import sys

import mpmath as mp
import numpy as np

import oracles
from workloads import CONE_T_GRID, CONE_W_GRID

CHEB_POINTS = 80


def chebyshev_fit(T: float, w: float) -> list:
    k = np.arange(CHEB_POINTS)
    x = np.cos(np.pi * (k + 0.5) / CHEB_POINTS)
    values = [oracles.cw_kernel_integral(T, w, (xi + 1) / 2) for xi in x]
    coeffs = []
    for j in range(CHEB_POINTS):
        c = mp.fsum(v * mp.cos(j * mp.pi * (kk + mp.mpf(1) / 2) / CHEB_POINTS)
                    for kk, v in enumerate(values)) * 2 / CHEB_POINTS
        coeffs.append(c / 2 if j == 0 else c)
    return [float(c) for c in coeffs]


def closed_form_checks() -> dict:
    """Values the oracles must reproduce, each with its closed form."""
    return {
        "circle_zeta_s2": {"value": float(mp.pi ** 4 / 45),
                           "closed_form": "2 zeta_R(4) = pi^4/45"},
        "circle_log_det": {"value": float(mp.log(4 * mp.pi ** 2)),
                           "closed_form": "log 4 pi^2"},
        "finite_zeta_123_s1": {"value": 11.0 / 6.0,
                               "closed_form": "1 + 1/2 + 1/3"},
        "cw_T2_w0_beta_half": {
            "value": float(mp.quad(lambda r: mp.exp(-mp.pi * r)
                                   / (1 + mp.exp(-2 * mp.pi * r)),
                                   [-mp.sqrt(1.75), mp.sqrt(1.75)]) / mp.pi),
            "closed_form": "(1/pi) int_{-R}^{R} sech(pi r)/2 dr = "
                           "(2/pi^2) atan(tanh(pi R/2)), R = sqrt(7/4)"},
        "plane_kernel_diagonal_t1": {
            "value": float(mp.quad(lambda r: mp.exp(-(0.25 + r * r))
                                   * r * mp.tanh(mp.pi * r), [0, mp.inf])
                           / (2 * mp.pi)),
            "closed_form": "(1/2pi) int_0^inf e^{-(1/4+r^2)} r tanh(pi r) dr"},
        "cone_sum_q2": {"T": 2.0, "w": 0.0,
                        "value": float(oracles.cw_kernel_integral(2.0, 0.0, 0.5)
                                       / 4),
                        "closed_form": "q = 2: kernel(1/2)/(2*2*sin(pi/2))"},
    }


def main() -> int:
    coefficients = {}
    for T in CONE_T_GRID:
        for w in CONE_W_GRID:
            if T <= 0.25:
                continue
            c = chebyshev_fit(T, w)
            tail = max(abs(v) for v in c[-8:]) / max(abs(v) for v in c)
            if tail > 1e-15:
                print(f"Chebyshev tail too large at T={T}, w={w}: {tail:.2e}",
                      file=sys.stderr)
                return 1
            coefficients[f"T={T!r},w={w!r}"] = c
    # atan form of the beta = 1/2 kernel, a check of the mpmath quadrature
    R = math.sqrt(1.75)
    assert abs(2 / math.pi ** 2 * math.atan(math.tanh(math.pi * R / 2))
               - closed_form_checks()["cw_T2_w0_beta_half"]["value"]) < 1e-14
    payload = {
        "mpmath_dps": oracles.MP_DPS,
        "generated_by": "bench/reference.py",
        "kernel_chebyshev": {
            "points": CHEB_POINTS,
            "variable": "x = 2*beta - 1 on [-1, 1]",
            "kernel": "int_{-R}^{R} (T-1/4-r^2)^w e^{-2 pi beta r}"
                      "/(1+e^{-2 pi r}) dr, R = sqrt(T-1/4)",
            "coefficients": coefficients,
        },
        "closed_form_checks": closed_form_checks(),
    }
    with open(oracles.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
