"""Measure the benchmark's baseline and write `baseline.json`.

    python3 bench/baseline.py --seeds 1-10 --seconds 25

Run from the root of a checkout.  For every workload it runs the benchmark
once per seed (untraced) and once traced, then records the machine, each
end-to-end metric's median, quartiles and spread (interquartile range over
median, as `statistics.quantiles(values, n=4)` gives the quartiles), and
the traced per-layer values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=180)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    """The CPU model name, where /proc/cpuinfo gives one."""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    out = {"machine": dict(run.machine_info(), cpu_model=cpu_model()),
           "seeds": seeds,
           "seconds": args.seconds,
           "date": time.strftime("%Y-%m-%d", time.gmtime()), "workloads": {}}
    for name in workloads.WORKLOADS:
        results = [_run(name, seed, args.seconds, 0) for seed in seeds]
        traced = _run(name, seeds[0], args.seconds, 1)
        metrics = {}
        for metric in results[0]["metrics"]:
            metrics[metric] = summarize(
                [r["metrics"][metric]["value"] for r in results])
            metrics[metric]["unit"] = results[0]["metrics"][metric]["unit"]
        out["workloads"][name] = {
            "end_to_end": metrics,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": [r["correct"] for r in results],
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
        }
        for metric, summary in metrics.items():
            print(f"{name} {metric}: median {summary['median']:.6g} "
                  f"spread {summary['spread']}", flush=True)
    with open(os.path.join(HERE, "baseline.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
