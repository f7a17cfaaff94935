"""Command-line workbench: every computation, sweep, and convergence
experiment behind one `degenspec` entry point with CSV/JSON/SVG emission.

Exit codes: 0 success, 2 config or parse error, 3 numeric non-convergence,
4 invariant violation in the inputs.  Grids are start:stop:count with an
optional log: prefix.  Every table carries a comment header recording the
command, an input hash, and the tolerances used, so identical configs give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import degeneration, kernels, selberg, traces, zeta_det
from .errors import (DegenspecError, DomainError, InvariantViolation,
                     ParseError, QuadratureError)
from .geometry import (hecke_family, load_family, load_surface,
                       surface_to_dict)

__all__ = ["RunConfig", "run", "emit_csv", "emit_svg", "parse_grid", "main"]

COMMANDS = ("surface", "trace", "degenerate", "count", "zeta", "selberg",
            "det", "kernels", "hecke-sweep")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INVARIANT = 4


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    output_path: str | None = None
    fmt: str = "csv"
    tol: float = 1e-10
    t_grid: list = field(default_factory=list)
    T_grid: list = field(default_factory=list)
    s_grid: list = field(default_factory=list)
    w: float = 0.0
    alpha: float | None = None
    im_s: float = 0.0
    N_values: list = field(default_factory=list)
    kind: str = "resolvent"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise DomainError(f"unknown command '{self.command}'")
        if self.tol <= 0:
            raise DomainError("tolerances must be > 0")
        for grid in (self.t_grid, self.T_grid, self.s_grid):
            if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
                raise DomainError("grids must be sorted strictly increasing")


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


def _input_hash(config: RunConfig) -> str:
    h = hashlib.sha256()
    if config.input_path:
        try:
            with open(config.input_path, "rb") as fh:
                h.update(fh.read())
        except OSError as exc:
            raise ParseError(f"cannot read {config.input_path}: {exc}") from exc
    else:
        h.update(repr((config.command, config.N_values, config.T_grid,
                       config.w)).encode())
    return h.hexdigest()[:16]


def _comments(config: RunConfig) -> list:
    return [
        f"command: {config.command}",
        f"input_hash: {_input_hash(config)}",
        f"tol: {config.tol!r}",
    ]


def _load_modes(path) -> kernels.ModeSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: "
                         f"{exc.msg}") from exc
    if not isinstance(data, dict) or "modes" not in data:
        raise ParseError("mode file must be an object with a 'modes' array")
    return kernels.ModeSet(modes=tuple((m[0], m[1]) for m in data["modes"]))


def _run_surface(config: RunConfig) -> Table:
    surface = load_surface(config.input_path)
    info = surface_to_dict(surface)
    rows = [[key, json.dumps(info[key], sort_keys=True)]
            for key in sorted(info)]
    return Table(columns=["field", "value"], rows=rows,
                 comments=_comments(config))


def _run_trace(config: RunConfig) -> Table:
    surface = load_surface(config.input_path)
    if not config.t_grid:
        raise DomainError("trace needs a t-grid (--t start:stop:count)")
    alpha = config.alpha
    rows = []
    for t in config.t_grid:
        htr = traces.hyperbolic_trace(surface.length_spectrum, t)
        etr = traces.elliptic_trace_u(surface.elliptic_orders, t, config.tol)
        dtr = traces.elliptic_trace_u(surface.degenerating_orders, t, config.tol)
        ident = traces.identity_trace(surface.volume, t, config.tol)
        strace = htr + etr + ident
        if alpha is not None:
            strace -= traces.removed_modes(surface, alpha, t)
        rows.append([t, strace, htr, etr, dtr])
    return Table(columns=["t", "Str", "HTr", "ETr", "DTr"], rows=rows,
                 comments=_comments(config))


def _sweep_table(family, config: RunConfig, T: float) -> Table:
    fit = degeneration.fit_slope_vs_logQ(
        family, lambda m: degeneration.g_degenerating_counting(
            m, config.w, T, config.tol))
    rows = []
    for row_q, lq, val in zip(family.schedule, fit.abscissae, fit.ordinates):
        qprod = 1
        for q in row_q:
            qprod *= q
        residual = val - (fit.slope * lq + fit.intercept)
        rows.append([qprod, lq, val, residual])
    comments = _comments(config) + [
        f"T: {T!r}", f"w: {config.w!r}",
        f"fit_slope: {fit.slope!r}", f"fit_intercept: {fit.intercept!r}",
        f"fit_rms_residual: {fit.residual!r}",
    ]
    return Table(columns=["q", "logQ", "value", "fit_residual"], rows=rows,
                 comments=comments)


def _run_degenerate(config: RunConfig) -> Table:
    family = load_family(config.input_path)
    if not config.T_grid:
        raise DomainError("degenerate needs --T")
    return _sweep_table(family, config, config.T_grid[0])


def _run_hecke_sweep(config: RunConfig) -> Table:
    if not config.N_values:
        raise DomainError("hecke-sweep needs --N n1,n2,...")
    if not config.T_grid:
        raise DomainError("hecke-sweep needs --T")
    family = hecke_family(config.N_values)
    return _sweep_table(family, config, config.T_grid[0])


def _run_count(config: RunConfig) -> Table:
    surface = load_surface(config.input_path)
    if not config.T_grid:
        raise DomainError("count needs a T-grid (--T start:stop:count)")
    from .counting import counting_compact
    rows = [[T, config.w,
             counting_compact(surface.small_eigenvalues, config.w, T)]
            for T in config.T_grid]
    return Table(columns=["T", "w", "N"], rows=rows, comments=_comments(config))


def _surface_trace_fn(surface, tol):
    provider = traces.surface_trace_provider(surface, tol)

    def trace(t):
        arr = np.asarray(t, dtype=float)
        if arr.ndim == 0:
            return provider(float(arr))
        return np.asarray([provider(float(x)) for x in arr])

    return trace


def _surface_expansion(surface, trace, n: int = 3):
    """Small-time expansion of a surface's geometric trace: the exact 1/t
    coefficient vol/4pi plus fitted regular powers."""
    return zeta_det.fit_trace_expansion(
        trace, range(0, n + 1),
        known=((-1.0, surface.volume / (4.0 * math.pi)),))


def _run_zeta(config: RunConfig) -> Table:
    surface = load_surface(config.input_path)
    if not config.s_grid:
        raise DomainError("zeta needs an s-grid (--s start:stop:count)")
    trace = _surface_trace_fn(surface, max(config.tol, 1e-12))
    coeffs = _surface_expansion(surface, trace)
    n_sub = 1
    rows = []
    for re_s in config.s_grid:
        s = complex(re_s, config.im_s)
        ev = zeta_det.spectral_zeta_mellin(trace, 0.0, s, n_sub,
                                           coefficients=coeffs,
                                           tol=max(config.tol * 1e-2, 1e-12))
        rows.append([re_s, config.im_s, float(np.real(ev.value)),
                     float(np.imag(ev.value)), ev.n_subtractions])
    return Table(columns=["re_s", "im_s", "re_val", "im_val", "n_sub"],
                 rows=rows, comments=_comments(config))


def _run_selberg(config: RunConfig) -> Table:
    surface = load_surface(config.input_path)
    if not config.s_grid:
        raise DomainError("selberg needs an s-grid (--s start:stop:count)")
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


def _run_det(config: RunConfig) -> Table:
    surface = load_surface(config.input_path)
    trace = _surface_trace_fn(surface, 1e-12)
    coeffs = _surface_expansion(surface, trace)
    det_tol = max(config.tol * 0.1, 1e-11)
    if config.alpha is not None:
        value = zeta_det.log_det_truncated(
            trace, surface.small_eigenvalues, config.alpha, c_M=0.0,
            coefficients=coeffs, tol=det_tol)
        rows = [[config.alpha, value, math.exp(value)]]
    else:
        det = zeta_det.det_laplacian(trace, c_M=0.0, coefficients=coeffs,
                                     n_subtractions=1, tol=det_tol)
        rows = [[0.0, math.log(det), det]]
    return Table(columns=["alpha", "log_det", "det"], rows=rows,
                 comments=_comments(config))


def _run_kernels(config: RunConfig) -> Table:
    modes = _load_modes(config.input_path)
    if not config.t_grid:
        raise DomainError("kernels needs a w-grid (--w-grid start:stop:count)")
    rows = []
    for w in config.t_grid:
        if config.kind == "resolvent":
            val = kernels.resolvent(modes, w, alpha=config.alpha)
        elif config.kind == "poisson":
            val = kernels.poisson(modes, w)
        elif config.kind == "wave":
            val = kernels.wave(modes, w)
        else:
            raise DomainError(f"unknown kernel kind '{config.kind}'")
        rows.append([w, float(np.real(val)), float(np.imag(val))])
    return Table(columns=["w", "re", "im"], rows=rows,
                 comments=_comments(config) + [f"kind: {config.kind}"])


_RUNNERS = {
    "surface": _run_surface,
    "trace": _run_trace,
    "degenerate": _run_degenerate,
    "count": _run_count,
    "zeta": _run_zeta,
    "selberg": _run_selberg,
    "det": _run_det,
    "kernels": _run_kernels,
    "hecke-sweep": _run_hecke_sweep,
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        table = _RUNNERS[config.command](config)
        emit = {"csv": emit_csv, "json": emit_json, "svg": emit_svg}[config.fmt]
        if config.output_path:
            with open(config.output_path, "w", encoding="utf-8") as fh:
                emit(table, fh)
        else:
            emit(table, sys.stdout)
        return EXIT_OK
    except (ParseError,) as exc:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenspec",
        description="spectral invariants of degenerating hyperbolic surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("--surface", "--family", "--modes", "--input",
                           dest="input_path", required=True,
                           help="input JSON file")
        p.add_argument("--output", dest="output_path", default=None)
        p.add_argument("--format", dest="fmt", default="csv",
                       choices=("csv", "json", "svg"))
        p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("surface", help="validate and summarize a surface file")
    add_common(p)

    p = sub.add_parser("trace", help="heat-trace components on a t-grid")
    add_common(p)
    p.add_argument("--t", dest="t_grid", required=True,
                   help="t-grid start:stop:count (log: prefix allowed)")
    p.add_argument("--alpha", type=float, default=None)

    p = sub.add_parser("degenerate", help="degenerating counting sweep of a family")
    add_common(p)
    p.add_argument("--T", dest="T", type=float, required=True)
    p.add_argument("--w", type=float, default=0.0)

    p = sub.add_parser("count", help="weighted counting function on a T-grid")
    add_common(p)
    p.add_argument("--T", dest="T_grid", required=True)
    p.add_argument("--w", type=float, default=0.0)

    p = sub.add_parser("zeta", help="spectral zeta sweep via the Mellin route")
    add_common(p)
    p.add_argument("--s", dest="s_grid", required=True)
    p.add_argument("--im", dest="im_s", type=float, default=0.0)

    p = sub.add_parser("selberg", help="Selberg log-derivative sweep")
    add_common(p)
    p.add_argument("--s", dest="s_grid", required=True)
    p.add_argument("--im", dest="im_s", type=float, default=0.0)

    p = sub.add_parser("det", help="regularized determinant of a surface trace")
    add_common(p)
    p.add_argument("--alpha", type=float, default=None)

    p = sub.add_parser("kernels", help="resolvent/Poisson/wave kernel sweep")
    add_common(p)
    p.add_argument("--w-grid", dest="t_grid", required=True)
    p.add_argument("--kind", choices=("resolvent", "poisson", "wave"),
                   default="resolvent")
    p.add_argument("--alpha", type=float, default=None)

    p = sub.add_parser("hecke-sweep",
                       help="degenerating counting sweep over Hecke orders")
    add_common(p, needs_input=False)
    p.add_argument("--N", dest="N_values", required=True,
                   help="comma-separated Hecke orders, e.g. 1000,10000")
    p.add_argument("--T", dest="T", type=float, required=True)
    p.add_argument("--w", type=float, default=0.0)

    return parser


def _config_from_args(args) -> RunConfig:
    kwargs = dict(command=args.command,
                  input_path=getattr(args, "input_path", None),
                  output_path=args.output_path, fmt=args.fmt, tol=args.tol)
    if hasattr(args, "t_grid") and args.t_grid:
        kwargs["t_grid"] = parse_grid(args.t_grid)
    if hasattr(args, "T_grid") and args.T_grid:
        kwargs["T_grid"] = parse_grid(args.T_grid)
    if hasattr(args, "T") and args.T is not None:
        kwargs["T_grid"] = [args.T]
    if hasattr(args, "s_grid") and args.s_grid:
        kwargs["s_grid"] = parse_grid(args.s_grid)
    if hasattr(args, "w"):
        kwargs["w"] = args.w
    if hasattr(args, "alpha"):
        kwargs["alpha"] = args.alpha
    if hasattr(args, "im_s"):
        kwargs["im_s"] = args.im_s
    if hasattr(args, "kind"):
        kwargs["kind"] = args.kind
    if hasattr(args, "N_values"):
        kwargs["N_values"] = [int(v) for v in args.N_values.split(",") if v]
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
    except DomainError as exc:
        print(f"degenspec: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
