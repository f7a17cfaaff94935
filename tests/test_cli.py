"""The degenspec command line, end to end.

Oracles: the large-q slope of the counting sum, c_0(T) = sqrt(T - 1/4)/pi;
direct library calls for the trace and selberg tables; the mpmath
r-integrals and Selberg product of mp_reference for the zeta and det tables.
"""

import argparse
import json
import math

import pytest

from degenspec import cli
from degenspec.geometry import SurfaceData, save_surface
from degenspec.selberg import selberg_logderiv_series
from degenspec.traces import elliptic_trace_u, hyperbolic_trace, identity_trace
from degenspec.zeta_det import surface_log_det, surface_zeta
from mp_reference import mp_surface_log_det, mp_surface_zeta


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


def test_trace_columns_match_the_scalar_route(compact_surface, tmp_path,
                                              capsys):
    # each column is one batched call over the grid; row by row it is the
    # scalar route, removed modes included
    path = tmp_path / "surface.json"
    save_surface(compact_surface, path)
    argv = ["trace", "--surface", str(path), "--t", "log:1e-4:40:23",
            "--alpha", "0.1", "--tol", "1e-12"]
    assert cli.main(argv) == cli.EXIT_OK
    rows = _table(capsys.readouterr().out)[1]
    assert len(rows) == 23
    for row in rows:
        t, *values = (float(v) for v in row)
        htr = hyperbolic_trace(compact_surface.length_spectrum, t)
        etr = elliptic_trace_u(compact_surface.elliptic_orders, t, 1e-12)
        dtr = elliptic_trace_u(compact_surface.degenerating_orders, t, 1e-12)
        strace = (htr + etr + identity_trace(compact_surface.volume, t, 1e-12)
                  - math.exp(-0.08 * t) - 1.0)
        assert values == pytest.approx([strace, htr, etr, dtr], rel=1e-14,
                                       abs=1e-12)


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


def test_empty_grid_is_a_config_error_naming_it(capsys):
    argv = ["trace", "--surface", "unused.json", "--t", ""]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "degenspec: config error: grid '' is not start:stop:count\n")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-12"])
def test_tolerance_must_be_finite_and_positive(tol, tmp_path, capsys):
    # checked before the surface file is read
    argv = ["det", "--surface", str(tmp_path / "unread.json"), f"--tol={tol}"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "degenspec: config error: tolerances must be finite and > 0\n")


def test_orders_that_are_not_integers_are_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["hecke-sweep", "--N", "100,abc", "--T", "5"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert ("argument --N: '100,abc' is not a comma-separated list of "
            "integers") in capsys.readouterr().err


def test_commands_are_the_parser_subcommands():
    (sub,) = [action for action in cli._build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    assert tuple(sub.choices) == cli.COMMANDS


@pytest.fixture(params=["compact_surface", "bare_surface"])
def surface_file(request, tmp_path):
    surface = request.getfixturevalue(request.param)
    path = tmp_path / "surface.json"
    save_surface(surface, path)
    return surface, str(path)


def test_det_matches_library_and_oracle(surface_file, capsys):
    surface, path = surface_file
    assert cli.main(["det", "--surface", path]) == cli.EXIT_OK
    columns, rows = _table(capsys.readouterr().out)
    assert columns == ["alpha", "log_det", "det"]
    alpha, log_det, det = (float(v) for v in rows[0])
    assert alpha == 0.0
    assert log_det == surface_log_det(surface, tol=1e-11)
    assert det == math.exp(log_det)
    assert abs(log_det - mp_surface_log_det(surface)) <= 1e-12


def test_zeta_matches_library_and_oracle(surface_file, capsys):
    surface, path = surface_file
    argv = ["zeta", "--surface", path, "--s", "0.25:2.25:2", "--im", "1.5"]
    assert cli.main(argv) == cli.EXIT_OK
    columns, rows = _table(capsys.readouterr().out)
    assert columns == ["re_s", "im_s", "re_val", "im_val", "n_sub"]
    assert len(rows) == 2
    for row in rows:
        re_s, im_s, re_val, im_val = (float(v) for v in row[:4])
        assert row[4] == "1"
        value = complex(re_val, im_val)
        s = complex(re_s, im_s)
        assert value == surface_zeta(surface, s, tol=1e-11)
        assert abs(value - mp_surface_zeta(surface, s)) <= 1e-10


def test_zeta_near_the_critical_strip_meets_its_tolerance(tmp_path, capsys):
    # |1/Gamma(s)| = 332: the CLI's zeta tolerance must be one the Mellin
    # integral can meet in the value's units, and the value lie within it
    surface = SurfaceData(genus=1, num_cusps=0, elliptic_orders=(2, 3),
                          length_spectrum=((1.513916, 2), (2.205418, 1),
                                           (2.321557, 3), (3.410323, 3)))
    path = tmp_path / "surface.json"
    save_surface(surface, path)
    re_s, im_s = 0.15196869544184777, 3.9754904169862475
    argv = ["zeta", "--surface", str(path), "--s", f"{re_s!r}:{re_s!r}:1",
            "--im", repr(im_s), "--tol", "1e-10"]
    assert cli.main(argv) == cli.EXIT_OK
    (row,) = _table(capsys.readouterr().out)[1]
    value = complex(float(row[2]), float(row[3]))
    assert abs(value - mp_surface_zeta(surface, complex(re_s, im_s))) <= 1e-10


def test_det_alpha_removes_the_small_eigenvalue(compact_surface, tmp_path,
                                                capsys):
    path = tmp_path / "surface.json"
    save_surface(compact_surface, path)
    assert cli.main(["det", "--surface", str(path)]) == cli.EXIT_OK
    full = float(_table(capsys.readouterr().out)[1][0][1])
    argv = ["det", "--surface", str(path), "--alpha", "0.1"]
    assert cli.main(argv) == cli.EXIT_OK
    alpha, log_det, _ = (float(v) for v in _table(capsys.readouterr().out)[1][0])
    assert alpha == 0.1
    assert log_det == pytest.approx(full - math.log(0.08), abs=1e-15)


def test_large_cone_order_needs_no_fit(tmp_path, capsys):
    # one q = 50 cone: a fixed small-t window cannot fit its b_0, so both
    # commands exited 2 while they fitted it
    surface = SurfaceData(genus=1, num_cusps=0, elliptic_orders=(50,),
                          length_spectrum=((1.2, 2), (2.5, 3)),
                          small_eigenvalues=(0.0,))
    path = tmp_path / "surface.json"
    save_surface(surface, path)
    assert cli.main(["det", "--surface", str(path)]) == cli.EXIT_OK
    log_det = float(_table(capsys.readouterr().out)[1][0][1])
    assert abs(log_det - mp_surface_log_det(surface)) <= 1e-12
    argv = ["zeta", "--surface", str(path), "--s", "2:3:2"]
    assert cli.main(argv) == cli.EXIT_OK
    rows = _table(capsys.readouterr().out)[1]
    assert [float(row[0]) for row in rows] == [2.0, 3.0]
    for row in rows:
        assert float(row[2]) == surface_zeta(surface, float(row[0]),
                                             tol=1e-12).real


def test_zeta_left_of_zero_with_cones_is_a_domain_error(compact_surface,
                                                       tmp_path, capsys):
    path = tmp_path / "surface.json"
    save_surface(compact_surface, path)
    argv = ["zeta", "--surface", str(path), "--s=-1:2:7", "--im", "0.3"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "Re(s) > 0" in capsys.readouterr().err


def test_volume_against_gauss_bonnet_is_an_invariant_violation(
        compact_surface, tmp_path, capsys):
    path = tmp_path / "surface.json"
    save_surface(compact_surface, path)
    data = json.loads(path.read_text())
    data["volume"] = 2.0 * data["volume"]
    path.write_text(json.dumps(data))
    assert cli.main(["det", "--surface", str(path)]) == cli.EXIT_INVARIANT
    assert "invariant violation" in capsys.readouterr().err


def test_counting_sum_past_its_range_is_numeric_non_convergence(capsys):
    # the exp-sinh rule resolves the Bessel kernel of G up to T ~ 3e6
    argv = ["hecke-sweep", "--N", "15,30,60", "--T", "1e8"]
    assert cli.main(argv) == cli.EXIT_NUMERIC
    assert "numeric non-convergence" in capsys.readouterr().err


def _parse_error(argv, capsys):
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("degenspec: parse error: ")
    return err


def test_invalid_json_names_line_and_column(tmp_path, capsys):
    path = tmp_path / "surface.json"
    path.write_text('{\n  "genus": 2,\n  oops\n}\n')
    err = _parse_error(["det", "--surface", str(path)], capsys)
    assert "invalid JSON at line 3, column 3" in err


def test_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "surface.json"
    path.write_bytes(b'\xff{"genus": 2, "cusps": 0}')
    err = _parse_error(["det", "--surface", str(path)], capsys)
    assert "not UTF-8 text: invalid start byte" in err


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "surface.json"
    path.write_text("[" * 5000 + "]" * 5000)
    err = _parse_error(["det", "--surface", str(path)], capsys)
    assert err == (f"degenspec: parse error: {path}: JSON nested too deeply "
                   "to read\n")


def test_unknown_surface_field_is_named(compact_surface, tmp_path, capsys):
    path = tmp_path / "surface.json"
    save_surface(compact_surface, path)
    data = json.loads(path.read_text())
    data["colour"] = "blue"
    path.write_text(json.dumps(data))
    err = _parse_error(["det", "--surface", str(path)], capsys)
    assert "unknown surface fields: ['colour']" in err


# surface files whose values are of the wrong type or out of range; each
# once ended in a traceback or in a silently truncated value
MALFORMED_VALUES = [
    ('"cusps": 1, "elliptic_orders": [2, 3, Infinity]',
     "elliptic_orders[2]: infinite orders are cusps; use the 'cusps' field"),
    ('"cusps": 1, "elliptic_orders": [2, 3, 1e999]',
     "elliptic_orders[2]: infinite orders are cusps; use the 'cusps' field"),
    ('"cusps": 0, "lengths": [{"l": "abc"}]',
     "lengths[0]: 'l' and 'mult' must be numbers"),
    ('"cusps": 0, "small_eigenvalues": ["x"]',
     "field 'small_eigenvalues' must be a list of numbers"),
    ('"cusps": 0, "lengths": 5', "field 'lengths' must be a list"),
    ('"cusps": 0, "volume": "x"', "field 'volume' must be a number"),
    ('"cusps": true', "field 'cusps' must be a nonnegative integer"),
]
OUT_OF_RANGE_VALUES = [
    ('"cusps": 1, "elliptic_orders": [2, 3, NaN]',
     "cone order must be an integer >= 2 or inf, got nan"),
    ('"cusps": 0, "lengths": [{"l": NaN}]',
     "geodesic length must be finite and > 0, got nan"),
    ('"cusps": 0, "lengths": [{"l": 1.0, "mult": 1.7}]',
     "multiplicity must be an integer >= 1, got 1.7"),
    ('"cusps": 1, "elliptic_orders": [2, 3, 7], "degenerating": [1.5]',
     "degenerating index 1.5 outside elliptic_orders range"),
    ('"cusps": 1, "elliptic_orders": [2, 3, 7], "cusp_widths": [NaN]',
     "cusp width must be > 0, got nan"),
]


@pytest.mark.parametrize("fields, message", MALFORMED_VALUES)
def test_malformed_surface_value_is_a_parse_error(fields, message, tmp_path,
                                                  capsys):
    path = tmp_path / "surface.json"
    path.write_text('{"genus": 2, ' + fields + "}")
    assert message in _parse_error(["surface", "--surface", str(path)], capsys)


@pytest.mark.parametrize("fields, message", OUT_OF_RANGE_VALUES)
def test_out_of_range_surface_value_is_an_invariant_violation(
        fields, message, tmp_path, capsys):
    path = tmp_path / "surface.json"
    path.write_text('{"genus": 2, ' + fields + "}")
    assert cli.main(["surface", "--surface", str(path)]) == cli.EXIT_INVARIANT
    assert capsys.readouterr().err == (
        f"degenspec: invariant violation: {message}\n")


def test_bad_schedule_order_is_an_invariant_violation(tmp_path, capsys):
    # the same exit as a bad order in a surface file
    path = tmp_path / "family.json"
    path.write_text('{"surface": {"genus": 0, "cusps": 1, '
                    '"elliptic_orders": [2, 3, 7], "degenerating": [2]}, '
                    '"schedule": [[7], [NaN], [100]]}')
    argv = ["degenerate", "--family", str(path), "--T", "5"]
    assert cli.main(argv) == cli.EXIT_INVARIANT
    assert capsys.readouterr().err == (
        "degenspec: invariant violation: cone order must be an integer >= 2 "
        "or inf, got nan\n")


def test_unreadable_path_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "missing.json"
    err = _parse_error(["det", "--surface", str(path)], capsys)
    assert f"cannot read {path}" in err


def test_one_parser_serves_every_call_in_a_process(compact_surface, tmp_path,
                                                  capsys):
    # the parser is built once per process; a trace, a det and a bad argv
    # in one process give the output of a fresh parser each
    path = tmp_path / "surface.json"
    save_surface(compact_surface, path)
    runs = [["trace", "--surface", str(path), "--t", "log:0.01:10:4"],
            ["det", "--surface", str(path)],
            ["det", "--surface", str(path), "--tol", "tiny"]]

    def outcome(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli._build_parser.cache_clear()
    together = [outcome(argv) for argv in runs]
    assert cli._build_parser() is cli._build_parser()
    separate = []
    for argv in runs:
        cli._build_parser.cache_clear()
        separate.append(outcome(argv))
    assert together == separate
    assert [code for code, _, _ in together] == [cli.EXIT_OK, cli.EXIT_OK,
                                                 cli.EXIT_CONFIG]
    assert together[2][1] == ""
    assert together[2][2].startswith("usage: degenspec det ")
    assert "argument --tol: invalid float value: 'tiny'" in together[2][2]
