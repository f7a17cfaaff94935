"""The degenspec benchmark.

    python3 bench/run.py --workload heat-trace --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The workload's inputs are made from the
seed and written under `.bench_work/`.  Each pass of the operation list runs
in a fresh interpreter (cold module caches, as for a CLI user), one process
with one thread: BLAS threads are pinned to 1 and DEGENSPEC_THREADS is
unset.  Passes repeat until `--seconds` is used up.  Every result is then
checked against its oracle, outside the timed region.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics with the tracing
overhead.  The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics; the full record, including every
failed operation, goes to `.bench_results/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PASS_TIMEOUT_S = 150
CHILD = os.path.join(HERE, "child.py")

END_TO_END_UNITS = {
    "setup_s": "s", "correct_ops_per_s": "ops/s", "op_p50_ms": "ms",
    "op_p90_ms": "ms", "fail_ratio": "share", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (no program, a pass crashed)."""


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("DEGENSPEC_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_pass(root, workdir, wl_json, *, trace=False, setup_only=False,
             tag="pass"):
    """Run one pass in a fresh interpreter and return its record."""
    job_path = os.path.join(workdir, f"job-{tag}.json")
    out_path = os.path.join(workdir, f"out-{tag}.json")
    job = {"src": os.path.join(root, "src"), "workdir": workdir,
           "inputs": wl_json["inputs"], "ops": wl_json["ops"],
           "trace": trace, "setup_only": setup_only, "out": out_path}
    job["spawned"] = time.monotonic()
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc = subprocess.run([sys.executable, CHILD, job_path],
                          env=_child_env(root), cwd=root,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=PASS_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"pass {tag} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    with open(out_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
    return ordered[k]


def check_passes(wl_json, passes):
    """Verdicts (one list per pass) and the failure records."""
    oracle = checks.Oracle(wl_json["inputs"])
    expected = {op["id"]: oracle.expected(op) for op in wl_json["ops"]}
    ops_by_id = {op["id"]: op for op in wl_json["ops"]}
    failures, unexpected = [], []
    verdicts = []
    for k, p in enumerate(passes):
        verdicts.append([])
        for record in p["ops"]:
            op = ops_by_id[record["id"]]
            v = checks.verdict(op, record, expected[op["id"]])
            verdicts[-1].append(v)
            if v["ok"]:
                continue
            defect = checks.known_defect(op, wl_json["inputs"])
            entry = {"pass": k, "id": op["id"], "kind": op["kind"],
                     "args": op["args"], "tol": op["tol"],
                     "accuracy": {"abs": op["acc"][0], "rel": op["acc"][1]},
                     "known_defect": defect}
            entry.update({key: v[key] for key in ("exception", "message",
                                                  "error") if key in v})
            failures.append(entry)
            if defect is None:
                unexpected.append(entry)
    return verdicts, failures, unexpected


def end_to_end(setups, passes, verdicts):
    """The six end-to-end metrics of the untraced passes.

    On a shared 2-vCPU x86_64 virtual machine (Intel Xeon) the same Python
    loop takes 0.17 s or 0.35 s depending on the host's load, for seconds
    to minutes at a time, so a median over a run's passes flips with that
    state.  Each operation's latency is therefore its best wall time over
    the run's passes; the percentiles are taken over the operations, and
    the rate divides the correct operations of one pass by the sum of those
    latencies (the list's wall time in the fast state).  Set-up is the
    median of samples spread over the whole run.
    """
    best = [min(p["ops"][k]["elapsed_s"] for p in passes)
            for k in range(len(passes[0]["ops"]))]
    flat = [v for per_pass in verdicts for v in per_pass]
    failed = sum(1 for v in flat if not v["ok"])
    p90 = percentile(best, 90)
    metrics = {
        "setup_s": statistics.median(setups),
        "correct_ops_per_s": (len(flat) - failed) / len(passes) / sum(best),
        "op_p50_ms": 1e3 * percentile(best, 50),
        "op_p90_ms": 1e3 * p90,
        "fail_ratio": failed / len(flat),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    samples = {"setup_s": len(setups), "passes": len(passes),
               "ops": len(best), "ops_above_p90": sum(1 for t in best
                                                      if t > p90)}
    return metrics, samples


def per_layer(traced, untraced):
    layers = {}
    for name in traced[0]["layers"]:
        vals = [p["layers"][name] for p in traced]
        layers[name] = (None if any(v is None for v in vals)
                        else statistics.mean(vals))
    overhead = (statistics.mean(p["ops_wall_s"] for p in traced)
                - statistics.mean(p["ops_wall_s"] for p in untraced))
    layers["trace.overhead_s"] = overhead
    spans = {"span_self_sum_s": [p["span_self_sum_s"] for p in traced],
             "span_root_sum_s": [p["span_root_sum_s"] for p in traced],
             "missing": sorted({m for p in traced for m in p["missing"]})}
    return layers, spans


def machine_info() -> dict:
    return {"python": platform.python_version(),
            "machine": platform.machine(), "processor": platform.processor(),
            "cpus": os.cpu_count(), "system": platform.system()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "degenspec", "__init__.py")):
        print("bench: no degenspec sources under ./src; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl_json = wl.to_json()
    workdir = os.path.join(root, ".bench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workloads.write_inputs(wl_json["inputs"], workdir)
        return _measure(args, root, workdir, wl_json)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, root, workdir, wl_json) -> int:
    start = time.monotonic()
    untraced, traced, setups = [], [], []
    if args.trace:
        while not traced or time.monotonic() - start < args.seconds:
            untraced.append(run_pass(root, workdir, wl_json,
                                     tag=f"u{len(untraced)}"))
            traced.append(run_pass(root, workdir, wl_json, trace=True,
                                   tag=f"t{len(traced)}"))
    else:
        # set-up samples are spread over the run, one after every pass
        setups.append(run_pass(root, workdir, wl_json, setup_only=True,
                               tag="s0")["setup_s"])
        start = time.monotonic()
        while not untraced or time.monotonic() - start < args.seconds:
            untraced.append(run_pass(root, workdir, wl_json,
                                     tag=f"u{len(untraced)}"))
            setups.append(run_pass(root, workdir, wl_json, setup_only=True,
                                   tag=f"s{len(setups)}")["setup_s"])
    setups += [p["setup_s"] for p in untraced]
    passes = untraced + traced
    checked = time.monotonic()
    verdicts, failures, unexpected = check_passes(wl_json, passes)
    check_s = time.monotonic() - checked
    e2e, samples = end_to_end(setups, untraced, verdicts[:len(untraced)])
    record = {"workload": args.workload, "why": wl_json["why"],
              "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "measure_s": checked - start, "check_s": check_s,
              "machine": machine_info(), "end_to_end": e2e,
              "samples": samples, "failures": failures,
              "op_seconds": {r["id"]: [p["ops"][k]["elapsed_s"] for p in untraced]
                             for k, r in enumerate(untraced[0]["ops"])}}
    if args.trace:
        layers, spans = per_layer(traced, untraced)
        record.update(per_layer=layers, spans=spans)
        units = {name: spec[1] for name, spec in tracing.METRICS.items()}
        units["trace.overhead_s"] = "s"
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
    out_dir = os.path.join(root, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _report(record, out_path)
    attempted = sum(len(per_pass) for per_pass in verdicts)
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _report(record, out_path) -> None:
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['samples']}")
    for name, value in record["end_to_end"].items():
        print(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    for name, value in record.get("per_layer", {}).items():
        print(f"  {name} = {value}")
    by_defect = {}
    for f in record["failures"]:
        by_defect.setdefault(f["known_defect"] or "UNEXPECTED", []).append(f)
    for defect, entries in sorted(by_defect.items()):
        first = entries[0]
        detail = first.get("exception") or f"error {first.get('error'):.3g}"
        print(f"  failed [{defect}] x{len(entries)}: e.g. {first['kind']} "
              f"{first['id']} {detail}")
    print(f"  full record: {out_path}")


if __name__ == "__main__":
    sys.exit(main())
