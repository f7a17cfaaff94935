"""The degenspec command line, end to end.

Oracle: the large-q slope of the counting sum, c_0(T) = sqrt(T - 1/4)/pi.
"""

import math

from degenspec import cli


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
