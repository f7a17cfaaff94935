"""Tests of the benchmark's own code: workloads, oracles, checks, tracing."""

import math
import os
import types

import mpmath as mp
import numpy as np
import pytest

import checks
import oracles
import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# --- workload generation ----------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_is_deterministic_for_a_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(7).to_json() == make(7).to_json()
    assert make(7).to_json() != make(8).to_json()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_values_not_sizes(name):
    make = workloads.WORKLOADS[name]
    a, b = make(1), make(2)
    assert [op.kind for op in a.ops] == [op.kind for op in b.ops]
    assert len({op.id for op in a.ops}) == len(a.ops) >= 100


def test_cone_orders_stay_in_their_bands():
    for seed in range(20):
        wl = workloads.cone_sum(seed).to_json()
        qs = [row[0] for row in wl["inputs"]["families"]["cones"]["schedule"]]
        for q, (lo, hi) in zip(qs, workloads.CONE_Q_BANDS):
            assert lo <= q <= hi


# --- oracles against closed forms -------------------------------------------

def test_reference_records_its_precision():
    ref = oracles.reference()
    assert ref["mpmath_dps"] == oracles.MP_DPS
    assert set(ref["kernel_chebyshev"]["coefficients"]) == {
        f"T={T!r},w={w!r}" for T in workloads.CONE_T_GRID
        for w in workloads.CONE_W_GRID if T > 0.25}


def test_circle_zeta_closed_form():
    assert oracles.circle_zeta(2.0) == pytest.approx(math.pi ** 4 / 45,
                                                     rel=1e-15)
    assert oracles.CIRCLE_LOG_DET == pytest.approx(math.log(4 * math.pi ** 2),
                                                   rel=1e-15)


def test_finite_spectrum_closed_forms():
    assert oracles.finite_zeta([1, 2, 3], 1.0).real == pytest.approx(11 / 6)
    assert oracles.finite_log_det([0.1, 2.0, 3.0], 0.2) == pytest.approx(
        math.log(6.0), rel=1e-15)


def test_cw_kernel_at_half_is_an_arctangent():
    R = math.sqrt(1.75)
    closed = 2 / math.pi ** 2 * math.atan(math.tanh(math.pi * R / 2))
    assert oracles.c_w(2.0, 0.0, 0.5) == pytest.approx(closed, rel=1e-14)


def test_chebyshev_kernel_matches_direct_quadrature():
    for T in workloads.CONE_T_GRID:
        for w in workloads.CONE_W_GRID:
            for beta in (0.0, 0.137, 0.5, 0.93):
                assert oracles.c_w_chebyshev(T, w, beta) == pytest.approx(
                    oracles.c_w(T, w, beta), rel=1e-13, abs=1e-300)


def test_cone_sum_matches_direct_sum_and_q2_closed_form():
    for q in (2, 7, 12):
        for T, w in ((2.0, 0.0), (50.0, 1.0)):
            direct = math.fsum(
                float(oracles.cw_kernel_integral(T, w, n / q))
                / (2 * q * math.sin(n * math.pi / q)) for n in range(1, q))
            assert oracles.cone_sum(q, T, w) == pytest.approx(direct,
                                                              rel=1e-13)
    q2 = oracles.reference()["closed_form_checks"]["cone_sum_q2"]["value"]
    assert oracles.cone_sum(2, 2.0, 0.0) == pytest.approx(q2, rel=1e-14)


def test_elliptic_trace_tends_to_its_constant_term():
    # ETr(t) -> sum (q^2 - 1)/(12 q) as t -> 0, with an O(t) correction
    orders = (2, 3, 7)
    b0 = sum((q * q - 1) / (12 * q) for q in orders)
    assert oracles.elliptic_trace(orders, 1e-5) == pytest.approx(b0, abs=1e-3)


def test_elliptic_trapezoid_matches_mpmath():
    for beta, t in ((1 / 3, 0.05), (0.9, 5.0), (0.01, 1e-3)):
        ref = mp.quad(lambda r: mp.exp(-t * r * r - 2 * mp.pi * beta * r)
                      / (1 + mp.exp(-2 * mp.pi * r)),
                      [-mp.inf, -10, 0, 10, mp.inf])
        assert oracles._elliptic_r_integral(beta, t) == pytest.approx(
            float(ref), rel=1e-13)


def test_plane_kernel_diagonal_split_and_continuity():
    ref = oracles.reference()["closed_form_checks"]["plane_kernel_diagonal_t1"]
    assert oracles.plane_kernel_diagonal(1.0) == pytest.approx(ref["value"],
                                                               rel=1e-14)
    assert oracles.plane_kernel(0.5, 1e-7) == pytest.approx(
        oracles.plane_kernel_diagonal(0.5), rel=1e-6)


def test_selberg_series_matches_euler_product_derivative():
    ell, s = 1.3, complex(1.4, 0.3)
    product = sum(ell * np.exp(-(s + k) * ell) / (1 - np.exp(-(s + k) * ell))
                  for k in range(200))
    assert abs(oracles.selberg_logderiv([(ell, 1)], s) - product) < 1e-13


def test_surface_zeta_continuation_matches_direct_integral():
    # identity term alone: for Re s > 1 the r-integral converges as it stands
    vol, s = 4 * math.pi, 2.0
    direct = vol / (2 * mp.pi) * mp.quad(
        lambda r: r * mp.tanh(mp.pi * r) / (mp.mpf(1) / 4 + r * r) ** s,
        [0, 1, 10, mp.inf])
    assert oracles.surface_zeta(vol, [], [], s).real == pytest.approx(
        float(direct), rel=1e-13)


def test_surface_log_det_is_minus_zeta_derivative():
    vol, spectrum, orders = 2 * math.pi * 1.5, [(1.7, 1)], (2,)
    deriv = mp.diff(lambda s: mp.mpc(
        oracles.surface_zeta(vol, spectrum, orders, complex(s))), 0, h=1e-6)
    assert oracles.surface_log_det(vol, spectrum, orders) == pytest.approx(
        -float(mp.re(deriv)), abs=1e-8)


# --- checks -----------------------------------------------------------------

def _two_zeta_ops():
    wl = workloads.mellin(3).to_json()
    zetas = [op for op in wl["ops"] if op["kind"] == "zeta"
             and op["args"]["s"][1] == 0.0][:2]
    wl["ops"] = zetas
    return wl


def test_raised_operation_counts_in_fail_ratio():
    wl = _two_zeta_ops()
    good, bad = wl["ops"]
    value = checks.Oracle(wl["inputs"]).expected(good)
    passes = [{"ops_wall_s": 0.5, "peak_rss_mb": 50.0, "setup_s": 0.7,
               "ops": [{"id": good["id"], "status": "ok", "elapsed_s": 0.1,
                        "value": [value.real, value.imag]},
                       {"id": bad["id"], "status": "raised",
                        "exception": "QuadratureError", "message": "boom",
                        "elapsed_s": 0.4}]}]
    verdicts, failures, unexpected = run.check_passes(wl, passes)
    metrics, samples = run.end_to_end([0.7], passes, verdicts)
    assert metrics["fail_ratio"] == 0.5
    assert metrics["correct_ops_per_s"] == pytest.approx(1 / 0.5)
    assert metrics["op_p50_ms"] == pytest.approx(100.0)
    assert samples["ops"] == 2 and samples["passes"] == 1
    (failure,) = failures
    assert failure["id"] == bad["id"]
    assert failure["exception"] == "QuadratureError"
    assert failure["accuracy"] == {"abs": bad["acc"][0], "rel": bad["acc"][1]}
    assert failure["args"] == bad["args"]
    assert unexpected == [failure]  # a real-s zeta is no known defect


def test_wrong_value_fails_with_its_error():
    wl = _two_zeta_ops()
    op = wl["ops"][0]
    value = checks.Oracle(wl["inputs"]).expected(op)
    record = {"status": "ok", "value": [value.real + 1e-3, value.imag]}
    v = checks.verdict(op, record, value)
    assert not v["ok"] and v["error"] == pytest.approx(1e-3, rel=1e-6)


def test_known_defects_cover_the_documented_faults():
    wl = workloads.cone_sum(4).to_json()
    inputs = wl["inputs"]
    qs = [row[0] for row in inputs["families"]["cones"]["schedule"]]
    by_q_T = {(qs[op["args"]["member"]], op["args"]["T"]): op
              for op in wl["ops"] if op["kind"] == "g"}
    assert checks.known_defect(by_q_T[(qs[2], 10.0)], inputs) == \
        "batched-large-T"
    assert checks.known_defect(by_q_T[(qs[7], 2.0)], inputs) == \
        "interpolated-tol"
    assert checks.known_defect(by_q_T[(qs[0], 50.0)], inputs) is None
    assert checks.known_defect(by_q_T[(qs[7], 0.3)], inputs) is None


# --- tracing ----------------------------------------------------------------

def test_self_times_sum_to_root_time():
    tracer = tracing.Tracer()
    tracer.active = True
    root = tracer.open("op")
    a = tracer.open("special_fn")
    b = tracer.open("special_fn.integrand")
    sum(range(20000))
    tracer.close(b)
    tracer.close(a)
    c = tracer.open("traces.etr")
    sum(range(10000))
    tracer.close(c)
    tracer.close(root)
    totals = tracer.totals()
    assert sum(v["self_s"] for v in totals.values()) == pytest.approx(
        totals["op"]["total_s"], rel=1e-12)
    assert totals["special_fn"]["self_s"] == pytest.approx(
        totals["special_fn"]["total_s"]
        - totals["special_fn.integrand"]["total_s"], rel=1e-9)


def test_missing_wrapper_target_reports_missing():
    tracer = tracing.Tracer()
    fake = types.ModuleType("degenspec.fake")
    tracing._replace(tracer, fake, "integrate_semi_infinite",
                     tracing._span(tracer, "special_fn"))
    assert "degenspec.fake.integrate_semi_infinite" in tracer.missing
    metrics = tracing.layer_metrics(tracer)
    assert metrics["special_fn.calls"] is None
    assert metrics["cli.calls"] is None


def test_traced_pass_spans_sum_to_traced_wall(tmp_path):
    wl = workloads.heat_trace(2).to_json()
    keep = ("htr", "kernel", "etr", "standard", "cli")
    ops, seen = [], set()
    for op in wl["ops"]:
        if op["kind"] in keep and op["kind"] not in seen:
            seen.add(op["kind"])
            ops.append(op)
    wl["ops"] = ops
    workdir = str(tmp_path)
    workloads.write_inputs(wl["inputs"], workdir)
    out = run.run_pass(ROOT, workdir, wl, trace=True, tag="t")
    assert out["span_self_sum_s"] == pytest.approx(out["span_root_sum_s"],
                                                   rel=1e-9)
    assert out["span_root_sum_s"] <= out["ops_wall_s"]
    assert 0 < out["setup_s"] and all(r["elapsed_s"] >= 0 for r in out["ops"])
    layers = out["layers"]
    assert layers["special_fn.calls"] > 0 and layers["hplane.calls"] == 2
    assert layers["traces.etr.calls"] >= 2 and layers["cli.calls"] == 1
    assert out["missing"] == []
