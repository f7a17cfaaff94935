"""Seeded workload definitions.

A workload is a list of operations plus the input files they read.  The
seed changes values (lengths, multiplicities, t/s/T/beta points, cone orders
inside fixed bands) but never sizes, so the cost of a list does not swing
with the seed.  Each operation names the call it makes, the tolerance it
passes (`tol`) and the accuracy it is checked against (`acc`, absolute and
relative: an answer passes when |value - oracle| <= abs + rel * |oracle|).

Accuracy policy: a trace, kernel or counting value must land within its
requested tol, absolute plus relative (the heat traces grow like 1/t); a
Mellin zeta or determinant value at tol 1e-10 on its integrals within 1e-6
absolute plus relative, which allows for the 1/Gamma(s) factor at
|Im s| <= 4.  On the seeds tried, every healthy operation lands at least five
times inside its bound and every known defect (`checks.KNOWN_DEFECTS`) at
least five times outside, so no verdict depends on the seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import asdict, dataclass, field

SURFACE_FILE = "surface_{}.json"
FAMILY_FILE = "family_{}.json"

CONE_T_GRID = (0.3, 2.0, 10.0, 50.0)
CONE_W_GRID = (0.0, 1.0)

# Orders of the cone-sum workload, one per band; the bands straddle both
# dispatch thresholds of the counting sum (256 and 1e5) and reach 1e7.
CONE_Q_BANDS = ((10, 20), (250, 256), (257, 262), (2000, 4000),
                (99000, 100000), (100001, 101000), (950000, 1050000),
                (9900000, 10000000))


@dataclass
class Op:
    """One operation: a public call or one `degenspec.cli.main(argv)`."""

    id: str
    kind: str
    args: dict
    tol: float | None
    acc: tuple
    cli: bool = False


@dataclass
class Workload:
    name: str
    why: str
    inputs: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"name": self.name, "why": self.why, "inputs": self.inputs,
                "ops": [asdict(op) for op in self.ops]}


def _surface(genus, cusps, orders, lengths, degenerating=(), small=()):
    return {"genus": genus, "cusps": cusps, "elliptic_orders": list(orders),
            "degenerating": list(degenerating),
            "lengths": [{"l": ell, "mult": m} for ell, m in lengths],
            "small_eigenvalues": list(small)}


def _lengths(rng, count, lo, hi):
    return sorted((round(rng.uniform(lo, hi), 6), rng.randint(1, 3))
                  for _ in range(count))


def _strata(rng, count, lo, hi, log=False):
    """count values, one in each of count equal bins of [lo, hi] (log bins
    when log=True), shuffled.  Stratifying keeps the spread of values, and so
    the spread of costs, nearly the same for every seed."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    vals = [a + (k + rng.random()) / count * (b - a) for k in range(count)]
    vals = [math.exp(v) for v in vals] if log else vals
    rng.shuffle(vals)
    return vals


def _volume(genus, cusps, orders):
    return 2 * math.pi * (2 * genus - 2 + cusps
                          + sum(1 - 1 / q for q in orders))


# --- heat-trace --------------------------------------------------------------

HEAT_TRACE_WHY = ("many short integrals: per-n elliptic integrals and plane "
                  "kernels on a log t-grid, cone orders 2 to ~1000")


def heat_trace(seed: int) -> Workload:
    """Engine-bound regime.  ETr runs one adaptive integral of ~15 panels per
    n, so a q ~ 1000 cone costs ~0.5 s per t; time per call in `special_fn`
    and the per-n loop in `traces` dominate.  `degeneration` and `zeta_det`
    do no work here.  A few Selberg points check the integral route against
    the series, one of them where the certificate Re(s) > 1 is issued but the
    integral diverges (|Im s| > Re s - 1/2)."""
    rng = random.Random(f"heat-trace:{seed}")
    qB = rng.randint(45, 55)
    qC = rng.randint(980, 1020)
    wl = Workload("heat-trace", HEAT_TRACE_WHY)
    wl.inputs = {
        "surfaces": {
            "A": _surface(2, 0, (2, 3), _lengths(rng, 6, 0.8, 4.0)),
            "B": _surface(0, 1, (2, 3, qB), _lengths(rng, 5, 0.8, 4.0),
                          degenerating=(2,)),
            "C": _surface(1, 0, (qC,), _lengths(rng, 4, 0.8, 4.0)),
        }}
    grid = sorted(_strata(rng, 10, 1e-3, 10.0, log=True))
    distances = _strata(rng, len(grid), 0.1, 3.0)
    ops = wl.ops

    def add(kind, args, tol=1e-12, acc=(1e-12, 1e-12), cli=False):
        ops.append(Op(f"{kind}-{len(ops)}", kind, args, tol, acc, cli))

    for t, d in zip(grid, distances):
        for name in "ABC":
            add("htr", {"surface": name, "t": t}, tol=None)
        for name in "AB":
            add("identity", {"surface": name, "t": t})
            add("etr", {"surface": name, "t": t})
            add("standard", {"surface": name, "t": t})
        add("kernel", {"t": t, "d": 0.0})
        add("kernel", {"t": t, "d": d})
    # the q ~ 1000 cone at one small and one large t
    add("etr", {"surface": "C", "t": grid[rng.randrange(0, 5)]})
    add("etr", {"surface": "C", "t": grid[rng.randrange(5, 10)]})
    # Selberg: two points right of 1, one between 1/2 and 1, all inside the
    # convergent region |Im s| < Re s - 1/2, and one defect point
    for lo, hi in ((1.2, 3.0), (1.2, 2.5), (0.65, 0.95)):
        sigma = rng.uniform(lo, hi)
        add("selberg", {"surface": "A",
                        "s": [sigma, rng.uniform(0.0, 0.4 * (sigma - 0.5))]})
    sigma = rng.uniform(1.1, 1.6)
    add("selberg", {"surface": "A",
                    "s": [sigma, sigma - 0.5 + rng.uniform(1.0, 2.0)]})
    for name in "AB":
        t0, t1 = rng.uniform(1e-3, 2e-3), rng.uniform(5.0, 10.0)
        add("cli", {"argv": ["trace", "--surface", f"{{surface:{name}}}",
                             "--t", f"log:{t0!r}:{t1!r}:4", "--tol", "1e-12"],
                    "surface": name, "command": "trace"},
            cli=True)
    return wl


# --- cone-sum ----------------------------------------------------------------

CONE_SUM_WHY = ("large-q counting sums G and c_w on Hecke-type cones, q from "
                "10 to 1e7 across both dispatch thresholds, T to 50")


def cone_sum(seed: int) -> Workload:
    """The paper's large-q regime and the only workload that uses
    `degeneration`.  The engine runs only on the q <= 256 path and to build
    the beta spline.  It keeps two known defects in view: at T = 10 and 50
    the batched path (256 < q <= 1e5) raises QuadratureError, and the
    interpolated path (q > 1e5) misses tol = 1e-10 silently."""
    rng = random.Random(f"cone-sum:{seed}")
    qs = [rng.randint(lo, hi) for lo, hi in CONE_Q_BANDS]
    sweep = [rng.randint(900, 1100), rng.randint(9000, 11000),
             rng.randint(900000, 1100000)]
    wl = Workload("cone-sum", CONE_SUM_WHY)
    wl.inputs = {
        "families": {
            "cones": {"surface": _surface(0, 1, (2, 3, qs[0]), (),
                                          degenerating=(2,)),
                      "schedule": [[q] for q in qs]},
            "sweep": {"surface": _surface(0, 1, (2, 3, sweep[0]), (),
                                          degenerating=(2,)),
                      "schedule": [[q] for q in sweep]},
        }}
    ops = wl.ops
    tol = 1e-10

    def add(kind, args, tol=tol, acc=(tol, tol), cli=False):
        ops.append(Op(f"{kind}-{len(ops)}", kind, args, tol, acc, cli))

    # w = 0 on every band; w = 1 on three cheap bands below 1e5 (one on each
    # side of q = 256), so the interpolated path builds one spline per T
    for T in CONE_T_GRID:
        for w in CONE_W_GRID:
            for beta in _strata(rng, 10, 0.0, 1.0):
                add("cw", {"T": T, "w": w, "beta": beta}, tol=1e-12,
                    acc=(1e-12, 1e-12))
            for k, q in enumerate(qs):
                if w == 0.0 or k in (0, 2, 3):
                    add("g", {"family": "cones", "member": k, "T": T, "w": w})
    add("error_term", {"family": "sweep", "T": 2.0})
    add("error_term", {"family": "sweep", "T": 10.0})
    n_arg = ",".join(str(q) for q in sweep)
    for T in (2.0, 10.0):
        add("cli", {"argv": ["hecke-sweep", "--N", n_arg, "--T", repr(T),
                             "--tol", repr(tol)],
                    "command": "hecke-sweep", "orders": sweep, "T": T,
                    "w": 0.0}, cli=True)
    add("cli", {"argv": ["degenerate", "--family", "{family:cones}",
                         "--T", "0.3", "--w", "1.0", "--tol", repr(tol)],
                "command": "degenerate", "orders": qs, "T": 0.3, "w": 1.0},
        cli=True)
    return wl


# --- mellin ------------------------------------------------------------------

MELLIN_WHY = ("Mellin continuation for zeta and log det over Re s either side "
              "of 1/2 and Im s to 20, on exact and on surface traces")


def _s_points(count, rng, left, right):
    """count points in each of six cells: Re s left or right of 1/2, times
    Im s = 0, in (0.5, 4) or in (18, 20); stratified within each cell."""
    cells = []
    for lo, hi in (left, right):
        for ilo, ihi in ((0.0, 0.0), (0.5, 4.0), (18.0, 20.0)):
            cells.append(list(zip(_strata(rng, count, lo, hi),
                                  _strata(rng, count, ilo, ihi))))
    return [[list(cell[k]) for cell in cells] for k in range(count)]


def mellin(seed: int) -> Workload:
    """Long oscillatory Mellin integrals (100+ panels at large Im s) behind
    cheap exact traces (finite spectra, the circle theta with its b_{-1/2})
    and behind expensive cached surface traces; the only workload that uses
    `zeta_det`.  Known defects it counts: the absolute tol is multiplied by
    1/Gamma(s) ~ e^{pi |Im s|/2}, so Im s ~ 20 is off by O(1) or more with
    no error; the fitted b_0 of a q = 50 cone surface misses the exact
    value; and log_det_truncated drops the remainder below its cutoff."""
    rng = random.Random(f"mellin:{seed}")
    spectra = {}
    for k in range(12):
        spectra[f"F{k}"] = sorted(round(rng.uniform(0.5, 6.0), 6)
                                  for _ in range(5))
    truncated = {}
    for k in range(4):
        small = round(rng.uniform(0.02, 0.15), 6)
        truncated[f"G{k}"] = {
            "eigenvalues": [small] + sorted(round(rng.uniform(0.5, 6.0), 6)
                                            for _ in range(4)),
            "alpha": round(rng.uniform(small + 0.03, 0.24), 6)}
    wl = Workload("mellin", MELLIN_WHY)
    wl.inputs = {
        "surfaces": {
            "M1": _surface(1, 0, (2, 3), _lengths(rng, 4, 1.0, 4.0)),
            "P": _surface(1, 0, (50,), _lengths(rng, 2, 1.5, 4.0)),
        },
        "spectra": spectra,
        "truncated": truncated,
    }
    ops = wl.ops
    tol = 1e-10
    acc_zeta = (1e-6, 1e-6)

    def add(kind, args, tol=tol, acc=acc_zeta, cli=False):
        ops.append(Op(f"{kind}-{len(ops)}", kind, args, tol, acc, cli))

    for name, points in zip(spectra, _s_points(len(spectra), rng,
                                               (0.1, 0.45), (0.55, 1.9))):
        for s in points:
            add("zeta", {"spectrum": name, "s": s})
        add("det", {"spectrum": name}, tol=1e-11)
    for points in _s_points(2, rng, (0.1, 0.4), (0.6, 1.9)):
        for s in points:
            add("zeta", {"spectrum": "circle", "s": s})
    add("det", {"spectrum": "circle"}, tol=1e-11)
    for name in truncated:
        add("log_det_truncated", {"spectrum": name}, tol=1e-11)
    # surface zetas right of 1 with the exact b_{-1} = vol/4pi and b_0; the
    # CLI zeta (fitted coefficients, remainder cut at t = 1e-4) covers the
    # left of 1/2.  Between 1/2 and 1 the two-term route collapses on
    # rounding noise at t -> 0 for some s only, after ~13 s, which would make
    # a run's cost depend on the seed.
    spec = wl.inputs["surfaces"]["M1"]
    vol = surface_volume(spec)
    b0 = (-vol / (12 * math.pi)
          + sum((q * q - 1) / (12 * q) for q in spec["elliptic_orders"]))
    for ilo, ihi in ((0.0, 0.0), (0.5, 4.0)):
        add("surface_zeta", {"surface": "M1",
                             "s": [rng.uniform(1.1, 1.9), rng.uniform(ilo, ihi)],
                             "coefficients": [[-1.0, vol / (4 * math.pi)],
                                              [0.0, b0]]},
            tol=1e-12, acc=(1e-10, 1e-10))
    add("fit", {"surface": "P"}, tol=None, acc=(1e-6, 1e-6))
    re_s, im_s = rng.uniform(0.15, 0.45), rng.uniform(0.5, 4.0)
    add("cli", {"argv": ["zeta", "--surface", "{surface:M1}",
                         "--s", f"{re_s!r}:{re_s!r}:1", "--im", repr(im_s),
                         "--tol", repr(tol)],
                "command": "zeta", "surface": "M1"}, cli=True)
    add("cli", {"argv": ["det", "--surface", "{surface:M1}",
                         "--tol", repr(tol)],
                "command": "det", "surface": "M1"}, cli=True)
    return wl


WORKLOADS = {"heat-trace": heat_trace, "cone-sum": cone_sum, "mellin": mellin}


def surface_volume(spec: dict) -> float:
    return _volume(spec["genus"], spec["cusps"], spec["elliptic_orders"])


def write_inputs(inputs: dict, workdir: str) -> None:
    """Write the workload's input files (done once, by the parent)."""
    os.makedirs(workdir, exist_ok=True)
    for name, spec in inputs.get("surfaces", {}).items():
        with open(os.path.join(workdir, SURFACE_FILE.format(name)), "w",
                  encoding="utf-8") as fh:
            json.dump(spec, fh)
    for name, spec in inputs.get("families", {}).items():
        with open(os.path.join(workdir, FAMILY_FILE.format(name)), "w",
                  encoding="utf-8") as fh:
            json.dump(spec, fh)
    with open(os.path.join(workdir, "spectra.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"spectra": inputs.get("spectra", {}),
                   "truncated": inputs.get("truncated", {})}, fh)
