"""Checks each operation's result against its oracle, outside the timed region.

`expected(op, inputs)` gives the oracle value (or table) for an operation;
`verdict` compares a pass's result with it at the operation's accuracy.  A
failing operation is recorded with its inputs, its exception class or its
error versus the oracle, and its requested accuracy.

`KNOWN_DEFECTS` lists the program faults present when the benchmark was
defined.  Operations they cover still count in `fail_ratio`; the run's
`correct` flag is false only when an operation fails that no known defect
covers, so a change that breaks a healthy operation shows there, while a
fix that turns a known failure green shows as a lower `fail_ratio`.
"""

from __future__ import annotations

import math

import numpy as np

import oracles
from workloads import surface_volume

BATCHED_BAND = (256, 100_000)


def _surface(inputs, name):
    spec = inputs["surfaces"][name]
    spectrum = [(e["l"], e["mult"]) for e in spec["lengths"]]
    return surface_volume(spec), spectrum, spec["elliptic_orders"], spec


def _orders(inputs, family):
    return [row[0] for row in inputs["families"][family]["schedule"]]


class Oracle:
    """Memoized oracle values of one workload instance."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self._memo = {}
        self._moments = {}

    def _m(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def etr(self, orders, t):
        return self._m(("etr", tuple(orders), t),
                       lambda: oracles.elliptic_trace(orders, t))

    def k0(self, t):
        return self._m(("k0", t), lambda: oracles.plane_kernel_diagonal(t))

    def htr(self, spectrum, t):
        return self._m(("htr", tuple(spectrum), t),
                       lambda: oracles.hyperbolic_trace(spectrum, t))

    def cone_sum(self, q, T, w):
        if T <= 0.25:
            return 0.0
        if q not in self._moments:
            self._moments[q] = oracles.chebyshev_moments_even(q)
        return oracles.cone_sum(q, T, w, self._moments[q])

    def trace_row(self, name, t):
        vol, spectrum, orders, spec = _surface(self.inputs, name)
        degen = [orders[i] for i in spec["degenerating"]]
        htr, etr = self.htr(spectrum, t), self.etr(orders, t)
        ident = vol * self.k0(t)
        return [t, htr + etr + ident, htr, etr,
                self.etr(degen, t) if degen else 0.0]

    def surface_zeta(self, name, s):
        vol, spectrum, orders, _ = _surface(self.inputs, name)
        return self._m(("szeta", name, tuple(s)), lambda: oracles.surface_zeta(
            vol, spectrum, orders, complex(*s)))

    def sweep_rows(self, orders, T, w):
        # the fit residual column depends on the fit, not on the oracle
        return [[q, math.log(q), self.cone_sum(q, T, w), None] for q in orders]

    def expected(self, op: dict):
        a, kind = op["args"], op["kind"]
        if kind == "htr":
            return self.htr(_surface(self.inputs, a["surface"])[1], a["t"])
        if kind == "identity":
            return _surface(self.inputs, a["surface"])[0] * self.k0(a["t"])
        if kind == "etr":
            return self.etr(_surface(self.inputs, a["surface"])[2], a["t"])
        if kind == "standard":
            return self.trace_row(a["surface"], a["t"])[1]
        if kind == "kernel":
            if a["d"] == 0.0:
                return self.k0(a["t"])
            return oracles.plane_kernel(a["t"], a["d"])
        if kind == "selberg":
            return oracles.selberg_logderiv(
                _surface(self.inputs, a["surface"])[1], complex(*a["s"]))
        if kind == "cw":
            return oracles.c_w_chebyshev(a["T"], a["w"], a["beta"])
        if kind == "g":
            q = _orders(self.inputs, a["family"])[a["member"]]
            return self.cone_sum(q, a["T"], a["w"])
        if kind == "error_term":
            T = a["T"]
            c0 = oracles.c_w_chebyshev(T, 0.0, 0.0)
            rows = []
            for q in _orders(self.inputs, a["family"]):
                lq = math.log(q)
                g = self.cone_sum(q, T, 0.0)
                rows.append([lq, g, g - c0 * lq, lq ** 0.75,
                             (g - c0 * lq) / lq ** 0.75])
            return rows
        if kind == "zeta":
            s = complex(*a["s"])
            if a["spectrum"] == "circle":
                return oracles.circle_zeta(s)
            return oracles.finite_zeta(self.inputs["spectra"][a["spectrum"]], s)
        if kind == "det":
            if a["spectrum"] == "circle":
                return math.exp(oracles.CIRCLE_LOG_DET)
            return math.exp(oracles.finite_log_det(
                self.inputs["spectra"][a["spectrum"]]))
        if kind == "log_det_truncated":
            spec = self.inputs["truncated"][a["spectrum"]]
            return oracles.finite_log_det(spec["eigenvalues"], spec["alpha"])
        if kind == "surface_zeta":
            return self.surface_zeta(a["surface"], a["s"])
        if kind == "fit":
            vol, _, orders, _ = _surface(self.inputs, a["surface"])
            return oracles.heat_coefficient_b0(vol, orders)
        if kind == "cli":
            return self._expected_cli(op)
        raise KeyError(f"no oracle for operation kind {kind!r}")

    def _expected_cli(self, op):
        a = op["args"]
        command = a["command"]
        if command == "trace":
            t0, t1, count = a["argv"][4][4:].split(":")
            grid = np.geomspace(float(t0), float(t1), int(count))
            return [self.trace_row(a["surface"], float(t)) for t in grid]
        if command in ("hecke-sweep", "degenerate"):
            return self.sweep_rows(a["orders"], a["T"], a["w"])
        if command == "zeta":
            re_s = float(a["argv"][4].split(":")[0])
            im_s = float(a["argv"][6])
            z = self.surface_zeta(a["surface"], [re_s, im_s])
            return [[re_s, im_s, z.real, z.imag, 1.0]]
        if command == "det":
            vol, spectrum, orders, _ = _surface(self.inputs, a["surface"])
            log_det = self._m(("sdet", a["surface"]), lambda: (
                oracles.surface_log_det(vol, spectrum, orders)))
            return [[0.0, log_det, math.exp(log_det)]]
        raise KeyError(f"no oracle for CLI command {command!r}")


def _as_numbers(value, like):
    """Decode a result into the shape of its oracle (complex pairs)."""
    if like is None:
        return []
    if isinstance(like, complex):
        return [complex(*value)] if isinstance(value, list) else [complex(value)]
    if isinstance(like, (list, tuple)):
        if len(value) != len(like):
            raise ValueError(f"result has {len(value)} entries, oracle "
                             f"{len(like)}")
        out = []
        for v, l in zip(value, like):
            out.extend(_as_numbers(v, l))
        return out
    return [float(value)]


def _oracle_numbers(like):
    if isinstance(like, (list, tuple)):
        out = []
        for v in like:
            out.extend(_oracle_numbers(v))
        return out
    return [] if like is None else [like]


def verdict(op: dict, record: dict, oracle_value) -> dict:
    """{"ok": bool, ...} for one operation result of one pass."""
    if record["status"] != "ok":
        return {"ok": False, "exception": record["exception"],
                "message": record["message"]}
    try:
        got = _as_numbers(record["value"], oracle_value)
    except (TypeError, ValueError) as exc:
        return {"ok": False, "exception": "MalformedResult",
                "message": str(exc)}
    want = _oracle_numbers(oracle_value)
    abs_acc, rel_acc = op["acc"]
    worst, excess = 0.0, -math.inf
    for g, w in zip(got, want):
        err = abs(g - w)
        if not math.isfinite(err):
            err = math.inf
        worst = max(worst, err)
        excess = max(excess, err - (abs_acc + rel_acc * abs(w)))
    return {"ok": excess <= 0.0, "error": worst}


def _g_band(op, inputs):
    """The cone orders and T of a counting-sum operation, or None."""
    a = op["args"]
    if op["kind"] == "g":
        return [_orders(inputs, a["family"])[a["member"]]], a["T"]
    if op["kind"] == "error_term":
        return _orders(inputs, a["family"]), a["T"]
    if a.get("command") in ("hecke-sweep", "degenerate"):
        return a["orders"], a["T"]
    return None


def _batched_large_T(op, inputs):
    band = _g_band(op, inputs)
    return bool(band) and band[1] >= 10 and any(
        BATCHED_BAND[0] < q <= BATCHED_BAND[1] for q in band[0])


def _interpolated(op, inputs):
    band = _g_band(op, inputs)
    return bool(band) and band[1] >= 2 and any(
        q > BATCHED_BAND[1] for q in band[0])


def _selberg_divergent(op, inputs):
    if op["kind"] != "selberg":
        return False
    re_s, im_s = op["args"]["s"]
    return abs(im_s) > re_s - 0.5


def _mellin_large_im(op, inputs):
    return op["kind"] == "zeta" and abs(op["args"]["s"][1]) >= 15


KNOWN_DEFECTS = (
    ("batched-large-T", "counting sum raises QuadratureError at T >= 10 for "
     "256 < q <= 1e5 (fixed Gauss-Legendre rule, ROADMAP)", _batched_large_T),
    ("interpolated-tol", "interpolated counting sum (q > 1e5) is ~5e-9 off "
     "at tol 1e-10 for T >= 2, with no warning (ROADMAP)", _interpolated),
    ("mellin-large-im", "Mellin zeta at Im s ~ 20: absolute tol amplified by "
     "1/Gamma(s) ~ e^{pi |Im s|/2}, no error raised", _mellin_large_im),
    ("fit-b0", "fitted b_0 of a q = 50 cone surface misses "
     "-vol/12pi + sum (q^2-1)/12q (fixed fit window)",
     lambda op, inputs: op["kind"] == "fit"),
    ("log-det-truncated-cutoff", "log_det_truncated: the mode adjustment "
     "raises the subtracted degree, moving the remainder cutoff t_lo to 1e-4 "
     "and dropping int_0^t_lo of an O(t) remainder",
     lambda op, inputs: op["kind"] == "log_det_truncated"),
    ("selberg-certificate", "selberg_logderiv_integral certifies Re s > 1, "
     "but its integral diverges where |Im s| > Re s - 1/2",
     _selberg_divergent),
)


def known_defect(op: dict, inputs: dict):
    """Name of the known defect that covers this operation, or None."""
    for name, _, matches in KNOWN_DEFECTS:
        if matches(op, inputs):
            return name
    return None
