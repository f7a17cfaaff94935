"""Golden files for every CLI command: each command's output on the small
inputs in tests/golden/ (surface.json, family.json), compared byte for byte
with the file the same command wrote when the goldens were made.

A change that means to move a command's output regenerates the goldens with

    PYTHONPATH=src python tests/test_cli_golden.py

and says in its description which output moved and why.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from degenspec import cli

GOLDEN = Path(__file__).parent / "golden"

# golden file name -> argv; {surface} and {family} are the committed inputs
CASES = {
    "surface.json.out": ["surface", "--surface", "{surface}",
                         "--format", "json"],
    "trace.csv": ["trace", "--surface", "{surface}", "--t", "log:0.01:10:5",
                  "--alpha", "0.1", "--tol", "1e-12"],
    "degenerate.csv": ["degenerate", "--family", "{family}", "--T", "5"],
    "count.csv": ["count", "--surface", "{surface}", "--T", "1:20:4",
                  "--w", "1"],
    "zeta.csv": ["zeta", "--surface", "{surface}", "--s", "1.5:2.5:2",
                 "--im", "1"],
    "selberg.csv": ["selberg", "--surface", "{surface}", "--s", "2:3:2",
                    "--im", "0.5"],
    "det.csv": ["det", "--surface", "{surface}", "--alpha", "0.1"],
    "hecke-sweep.svg": ["hecke-sweep", "--N", "100,1000,10000", "--T", "5",
                        "--w", "1", "--format", "svg"],
}


def _output(argv) -> bytes:
    """The bytes one CLI call writes to stdout; it must exit 0."""
    inputs = {"surface": str(GOLDEN / "surface.json"),
              "family": str(GOLDEN / "family.json")}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([arg.format(**inputs) for arg in argv])
    assert code == cli.EXIT_OK
    return out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name):
    assert _output(CASES[name]) == (GOLDEN / name).read_bytes()


def test_every_command_has_a_golden_file():
    assert sorted(argv[0] for argv in CASES.values()) == sorted(cli.COMMANDS)


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / name).write_bytes(_output(argv))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
