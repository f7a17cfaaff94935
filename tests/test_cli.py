"""The degenspec command line, end to end.

Oracles: the large-q slope of the counting sum, c_0(T) = sqrt(T - 1/4)/pi;
direct library calls for the trace and selberg tables.
"""

import math

import pytest

from degenspec import cli
from degenspec.geometry import save_surface
from degenspec.selberg import selberg_logderiv_series
from degenspec.traces import elliptic_trace_u, hyperbolic_trace, identity_trace


def test_hecke_sweep_slope(capsys):
    # orders 1e3 to 1e5 at T = 10, where the kernel is steep in beta = n/q
    argv = ["hecke-sweep", "--N", "1000,10000,100000", "--T", "10",
            "--tol", "1e-10"]
    assert cli.main(argv) == cli.EXIT_OK
    comments = dict(line[2:].split(": ", 1)
                    for line in capsys.readouterr().out.splitlines()
                    if line.startswith("# ") and ": " in line)
    slope = float(comments["fit_slope"])
    assert abs(slope / (math.sqrt(9.75) / math.pi) - 1.0) <= 0.02


def _table(text):
    """Header and data rows of a CSV table, '#' comments skipped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_trace_matches_direct_calls(compact_surface, tmp_path, capsys):
    path = tmp_path / "surface.json"
    save_surface(compact_surface, path)
    argv = ["trace", "--surface", str(path), "--t", "log:0.01:10:5",
            "--tol", "1e-12"]
    assert cli.main(argv) == cli.EXIT_OK
    columns, rows = _table(capsys.readouterr().out)
    assert columns == ["t", "Str", "HTr", "ETr", "DTr"]
    assert len(rows) == 5
    for row in rows:
        t, *values = (float(v) for v in row)
        htr = hyperbolic_trace(compact_surface.length_spectrum, t)
        etr = elliptic_trace_u(compact_surface.elliptic_orders, t, 1e-12)
        dtr = elliptic_trace_u(compact_surface.degenerating_orders, t, 1e-12)
        ident = identity_trace(compact_surface.volume, t, 1e-12)
        assert values == pytest.approx([htr + etr + ident, htr, etr, dtr],
                                       rel=1e-15)


def test_selberg_where_the_integral_diverges(compact_surface, tmp_path,
                                             capsys):
    # |Im s| > Re s - 1/2: the series value, certified by Re(s) > 1
    path = tmp_path / "surface.json"
    save_surface(compact_surface, path)
    argv = ["selberg", "--surface", str(path), "--s", "1.3956:1.3956:1",
            "--im", "2.5547"]
    assert cli.main(argv) == cli.EXIT_OK
    columns, rows = _table(capsys.readouterr().out)
    assert columns[-1] == "certificate"
    assert [row[-1] for row in rows] == ["Re(s)>1"]
    series = selberg_logderiv_series(compact_surface.length_spectrum,
                                     complex(1.3956, 2.5547)).value
    assert complex(float(rows[0][2]), float(rows[0][3])) == series


def test_malformed_grid_is_a_config_error(capsys):
    argv = ["trace", "--surface", "unused.json", "--t", "1:2"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "not start:stop:count" in capsys.readouterr().err
