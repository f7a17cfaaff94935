"""Command-line workbench: every computation, sweep, and convergence
experiment behind one `degenspec` entry point with CSV/JSON/SVG emission.

The parsed arguments are the whole configuration: each subcommand's
namespace carries the function that runs it, and main parses the grids,
checks tol and the grids before any file is read, runs the command and
emits its table.  Exit codes: 0 success, 2 config or parse error, 3 numeric
non-convergence, 4 invariant violation in the inputs.  Grids are
start:stop:count with an optional log: prefix.  Every table carries a
comment header recording the command, an input hash, and the tolerances
used, so identical configs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import degeneration, selberg, traces, zeta_det
from .errors import (DegenspecError, DomainError, InvariantViolation,
                     ParseError, QuadratureError)
from .geometry import (hecke_family, load_family, load_surface,
                       surface_to_dict)

__all__ = ["emit_csv", "emit_svg", "parse_grid", "main"]

COMMANDS = ("surface", "trace", "degenerate", "count", "zeta", "selberg",
            "det", "hecke-sweep")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INVARIANT = 4


def parse_grid(spec: str) -> list:
    """Parse start:stop:count, logarithmically spaced under a log: prefix."""
    logspace = spec.startswith("log:")
    body = spec[4:] if logspace else spec
    parts = body.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid '{spec}' is not start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"grid '{spec}': {exc}") from exc
    if count < 1 or stop < start:
        raise DomainError(f"grid '{spec}' must have stop >= start and count >= 1")
    if count == 1:
        return [start]
    if logspace:
        if start <= 0:
            raise DomainError("log grids need start > 0")
        return [float(x) for x in np.geomspace(start, stop, count)]
    return [float(x) for x in np.linspace(start, stop, count)]


@dataclass
class Table:
    columns: list
    rows: list
    comments: list = field(default_factory=list)


def _fmt(x) -> str:
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    if isinstance(x, float):
        return repr(x)
    return str(x)


def emit_csv(table: Table, stream) -> None:
    """Write the table as CSV with '#' comment headers; refuses empty tables."""
    if not table.rows:
        raise DomainError("refusing to emit an empty table")
    for comment in table.comments:
        stream.write(f"# {comment}\n")
    stream.write(",".join(table.columns) + "\n")
    for row in table.rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def emit_json(table: Table, stream) -> None:
    if not table.rows:
        raise DomainError("refusing to emit an empty table")
    payload = {
        "comments": table.comments,
        "columns": table.columns,
        "rows": [[v for v in row] for row in table.rows],
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def emit_svg(table: Table, stream, width: int = 640, height: int = 480) -> None:
    """Minimal line plot: axes plus one polyline per numeric y-column; a
    single-point series becomes one marker."""
    if not table.rows:
        raise DomainError("refusing to emit an empty table")
    xs = [float(row[0]) for row in table.rows]
    series = []
    for j in range(1, len(table.columns)):
        try:
            ys = [float(np.real(row[j])) for row in table.rows]
        except (TypeError, ValueError):
            continue
        series.append((table.columns[j], ys))
    allys = [y for _, ys in series for y in ys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(allys), max(allys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    pad = 48

    def px(x):
        return pad + (x - x0) / xspan * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y0) / yspan * (height - 2 * pad)

    stream.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                 f'height="{height}" viewBox="0 0 {width} {height}">\n')
    for comment in table.comments:
        stream.write(f"<!-- {comment} -->\n")
    stream.write(f'<rect width="{width}" height="{height}" fill="white"/>\n')
    stream.write(f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
                 f'y2="{height - pad}" stroke="black"/>\n')
    stream.write(f'<line x1="{pad}" y1="{pad}" x2="{pad}" '
                 f'y2="{height - pad}" stroke="black"/>\n')
    stream.write(f'<text x="{pad}" y="{height - pad + 32}" font-size="12">'
                 f'{_fmt(x0)} .. {_fmt(x1)} ({table.columns[0]})</text>\n')
    stream.write(f'<text x="4" y="{pad - 8}" font-size="12">'
                 f'{_fmt(y0)} .. {_fmt(y1)}</text>\n')
    palette = ("black", "steelblue", "firebrick", "seagreen", "darkorange")
    for k, (name, ys) in enumerate(series):
        color = palette[k % len(palette)]
        if len(xs) == 1:
            stream.write(f'<circle cx="{px(xs[0]):.2f}" cy="{py(ys[0]):.2f}" '
                         f'r="4" fill="{color}"/>\n')
        else:
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
            stream.write(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}"/>\n')
        stream.write(f'<text x="{width - pad + 4}" y="{pad + 16 * k}" '
                     f'font-size="12" fill="{color}">{name}</text>\n')
    stream.write("</svg>\n")


def _input_hash(config) -> str:
    h = hashlib.sha256()
    if getattr(config, "input_path", None):
        try:
            with open(config.input_path, "rb") as fh:
                h.update(fh.read())
        except OSError as exc:
            raise ParseError(f"cannot read {config.input_path}: {exc}") from exc
    else:
        h.update(repr((config.command, config.N_values, [config.T],
                       config.w)).encode())
    return h.hexdigest()[:16]


def _comments(config) -> list:
    return [
        f"command: {config.command}",
        f"input_hash: {_input_hash(config)}",
        f"tol: {config.tol!r}",
    ]


def _run_surface(config) -> Table:
    surface = load_surface(config.input_path)
    info = surface_to_dict(surface)
    rows = [[key, json.dumps(info[key], sort_keys=True)]
            for key in sorted(info)]
    return Table(columns=["field", "value"], rows=rows,
                 comments=_comments(config))


def _run_trace(config) -> Table:
    surface = load_surface(config.input_path)
    alpha = config.alpha
    # each column is one call over the whole grid
    grid = np.asarray(config.t_grid, dtype=float)
    htr = traces.hyperbolic_trace(surface.length_spectrum, grid)
    etr = traces.elliptic_trace(surface.elliptic_orders, grid, config.tol)
    dtr = traces.elliptic_trace(surface.degenerating_orders, grid, config.tol)
    strace = htr + etr + traces.identity_trace(surface.volume, grid, config.tol)
    if alpha is not None:
        strace -= [traces.removed_modes(surface, alpha, t) for t in grid]
    rows = [list(row) for row in zip(config.t_grid, strace.tolist(),
                                     htr.tolist(), etr.tolist(), dtr.tolist())]
    return Table(columns=["t", "Str", "HTr", "ETr", "DTr"], rows=rows,
                 comments=_comments(config))


def _sweep_table(family, config) -> Table:
    fit = degeneration.fit_slope_vs_logQ(
        family, lambda m: degeneration.g_degenerating_counting(
            m, config.w, config.T, config.tol))
    rows = []
    for row_q, lq, val in zip(family.schedule, fit.abscissae, fit.ordinates):
        qprod = 1
        for q in row_q:
            qprod *= q
        residual = val - (fit.slope * lq + fit.intercept)
        rows.append([qprod, lq, val, residual])
    comments = _comments(config) + [
        f"T: {config.T!r}", f"w: {config.w!r}",
        f"fit_slope: {fit.slope!r}", f"fit_intercept: {fit.intercept!r}",
        f"fit_rms_residual: {fit.residual!r}",
    ]
    return Table(columns=["q", "logQ", "value", "fit_residual"], rows=rows,
                 comments=comments)


def _run_degenerate(config) -> Table:
    return _sweep_table(load_family(config.input_path), config)


def _run_hecke_sweep(config) -> Table:
    if not config.N_values:
        raise DomainError("hecke-sweep needs --N n1,n2,...")
    return _sweep_table(hecke_family(config.N_values), config)


def _run_count(config) -> Table:
    surface = load_surface(config.input_path)
    from .counting import counting_compact
    rows = [[T, config.w,
             counting_compact(surface.small_eigenvalues, config.w, T)]
            for T in config.T_grid]
    return Table(columns=["T", "w", "N"], rows=rows, comments=_comments(config))


def _run_zeta(config) -> Table:
    surface = load_surface(config.input_path)
    rows = []
    for re_s in config.s_grid:
        value = zeta_det.surface_zeta(surface, complex(re_s, config.im_s),
                                      tol=max(config.tol * 0.1, 1e-11))
        # n_sub: the one small-time term (b_0) the elliptic part subtracts
        rows.append([re_s, config.im_s, value.real, value.imag, 1])
    return Table(columns=["re_s", "im_s", "re_val", "im_val", "n_sub"],
                 rows=rows, comments=_comments(config))


def _run_selberg(config) -> Table:
    surface = load_surface(config.input_path)
    if not surface.length_spectrum:
        raise DomainError("selberg needs a surface with a length spectrum")
    rows = []
    for re_s in config.s_grid:
        s = complex(re_s, config.im_s)
        ev = selberg.selberg_logderiv_integral(surface.length_spectrum, s,
                                               max(config.tol * 1e-2, 1e-12))
        rows.append([re_s, config.im_s, float(np.real(ev.value)),
                     float(np.imag(ev.value)), ev.domain_certificate])
    return Table(columns=["re_s", "im_s", "re_val", "im_val", "certificate"],
                 rows=rows, comments=_comments(config))


def _run_det(config) -> Table:
    surface = load_surface(config.input_path)
    value = zeta_det.surface_log_det(surface, config.alpha,
                                     tol=max(config.tol * 0.1, 1e-11))
    rows = [[config.alpha or 0.0, value, math.exp(value)]]
    return Table(columns=["alpha", "log_det", "det"], rows=rows,
                 comments=_comments(config))


def _orders(spec: str) -> list:
    """The Hecke orders of --N n1,n2,..., as ints."""
    try:
        return [int(v) for v in spec.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"'{spec}' is not a comma-separated list of integers") from None


_T_HELP = ("counting bound T; G is resolved up to T ~ 3e6, and the command "
           "exits 3 above that")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and building it costs more than a short command's numerics."""
    parser = argparse.ArgumentParser(
        prog="degenspec",
        description="spectral invariants of degenerating hyperbolic surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, runner, needs_input=True):
        p.set_defaults(runner=runner)
        if needs_input:
            p.add_argument("--surface", "--family", "--input",
                           dest="input_path", required=True,
                           help="input JSON file")
        p.add_argument("--output", dest="output_path", default=None)
        p.add_argument("--format", dest="fmt", default="csv",
                       choices=("csv", "json", "svg"))
        p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("surface", help="validate and summarize a surface file")
    add_common(p, _run_surface)

    p = sub.add_parser("trace", help="heat-trace components on a t-grid")
    add_common(p, _run_trace)
    p.add_argument("--t", dest="t_grid", required=True,
                   help="t-grid start:stop:count (log: prefix allowed)")
    p.add_argument("--alpha", type=float, default=None)

    p = sub.add_parser("degenerate", help="degenerating counting sweep of a family")
    add_common(p, _run_degenerate)
    p.add_argument("--T", dest="T", type=float, required=True, help=_T_HELP)
    p.add_argument("--w", type=float, default=0.0)

    p = sub.add_parser("count", help="weighted counting function on a T-grid")
    add_common(p, _run_count)
    p.add_argument("--T", dest="T_grid", required=True)
    p.add_argument("--w", type=float, default=0.0)

    p = sub.add_parser("zeta", help="spectral zeta sweep of a surface, term by term")
    add_common(p, _run_zeta)
    p.add_argument("--s", dest="s_grid", required=True)
    p.add_argument("--im", dest="im_s", type=float, default=0.0)

    p = sub.add_parser("selberg", help="Selberg log-derivative sweep")
    add_common(p, _run_selberg)
    p.add_argument("--s", dest="s_grid", required=True)
    p.add_argument("--im", dest="im_s", type=float, default=0.0)

    p = sub.add_parser("det", help="log det of the surface Laplacian in "
                       "closed form; --alpha removes eigenvalues in (0, alpha]")
    add_common(p, _run_det)
    p.add_argument("--alpha", type=float, default=None)

    p = sub.add_parser("hecke-sweep",
                       help="degenerating counting sweep over Hecke orders")
    add_common(p, _run_hecke_sweep, needs_input=False)
    p.add_argument("--N", dest="N_values", type=_orders, required=True,
                   help="comma-separated Hecke orders, e.g. 1000,10000")
    p.add_argument("--T", dest="T", type=float, required=True, help=_T_HELP)
    p.add_argument("--w", type=float, default=0.0)

    return parser


def _check(config) -> None:
    """Check tol, and parse the grid arguments in place and check them: the
    checks that come before any file is read."""
    if not 0 < config.tol < math.inf:
        raise DomainError("tolerances must be finite and > 0")
    for name in ("t_grid", "T_grid", "s_grid"):
        if hasattr(config, name):
            grid = parse_grid(getattr(config, name))
            if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
                raise DomainError("grids must be sorted strictly increasing")
            setattr(config, name, grid)


def main(argv=None) -> int:
    """Run one command; returns the process exit status."""
    config = _build_parser().parse_args(argv)
    try:
        _check(config)
    except DomainError as exc:
        print(f"degenspec: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        table = config.runner(config)
        emit = {"csv": emit_csv, "json": emit_json, "svg": emit_svg}[config.fmt]
        if config.output_path:
            with open(config.output_path, "w", encoding="utf-8") as fh:
                emit(table, fh)
        else:
            emit(table, sys.stdout)
        return EXIT_OK
    except ParseError as exc:
        print(f"degenspec: parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureError as exc:
        print(f"degenspec: numeric non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InvariantViolation as exc:
        print(f"degenspec: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (DomainError, DegenspecError, OSError) as exc:
        print(f"degenspec: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
