"""One pass of a workload in a fresh interpreter.

    python3 bench/child.py JOB.json

The job names the operations, the work directory with the input files, the
parent's CLOCK_MONOTONIC reading just before this process was spawned, and
whether to trace.  Set-up runs from interpreter start until the first
operation is ready: `import degenspec` and loading the inputs through the
program's loaders.  The pass writes its timings, raw results, peak RSS and
(when traced) per-layer totals to the job's output file.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(job_path: str) -> int:
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    tracer = None
    if job["trace"]:
        import tracing
        import degenspec  # noqa: F401  (wrappers need the modules loaded)
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import ops
    session = ops.Session(job["inputs"], job["workdir"])
    out = {"setup_s": time.monotonic() - job["spawned"]}
    if not job["setup_only"]:
        records = []
        if tracer:
            tracer.active = True
        start = time.perf_counter()
        for op in job["ops"]:
            if tracer:
                root = tracer.open("op")
            t0 = time.perf_counter()
            try:
                raw = session.run(op)
                record = {"status": "ok"}
            except Exception as exc:  # noqa: BLE001 - every failure is a result
                raw = None
                record = {"status": "raised", "exception": type(exc).__name__,
                          "message": str(exc)[:300]}
            record["elapsed_s"] = time.perf_counter() - t0
            if tracer:
                tracer.close(root)
            record["id"] = op["id"]
            record["raw"] = raw
            records.append(record)
        out["ops_wall_s"] = time.perf_counter() - start
        if tracer:
            tracer.active = False
            out["layers"] = tracing.layer_metrics(tracer)
            totals = tracer.totals()
            out["span_self_sum_s"] = sum(v["self_s"] for v in totals.values())
            out["span_root_sum_s"] = totals.get("op", {}).get("total_s", 0.0)
            out["missing"] = sorted(tracer.missing)
        for op, record in zip(job["ops"], records):
            raw = record.pop("raw")
            if record["status"] == "ok":
                value = ops.read_cli_table(raw) if op["cli"] else raw
                record["value"] = ops.encode(value)
        out["ops"] = records
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
