"""Executes operations against `degenspec` inside a pass process.

Only this module and `child.py` import the program.  Results are returned
as JSON-ready values: floats, [re, im] pairs for complex numbers, lists of
those for table-valued operations.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

from degenspec import cli, degeneration, hplane, selberg, traces, zeta_det
from degenspec.geometry import load_family, load_surface

from workloads import FAMILY_FILE, SURFACE_FILE


def _lift(fn):
    """Scalar trace -> the array protocol the Mellin code expects."""
    def call(t):
        arr = np.asarray(t, dtype=float)
        if arr.ndim == 0:
            return fn(float(arr))
        return np.asarray([fn(float(x)) for x in arr.ravel()]).reshape(arr.shape)
    return call


def _exp_sum(lams):
    lams = np.asarray(lams, dtype=float)

    def trace(t):
        tt = np.asarray(t, dtype=float)
        out = np.exp(-np.multiply.outer(tt, lams)).sum(axis=-1)
        return out if tt.ndim else float(out)
    return trace


def _circle_theta(t):
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    n = np.arange(1, 40, dtype=float)
    out = np.empty(tt.shape)
    small = tt < 1.0
    ts = tt[small]
    out[small] = np.sqrt(np.pi / ts) * (
        1.0 + 2.0 * np.exp(-np.outer(np.pi ** 2 / ts, n * n)).sum(axis=1))
    tl = tt[~small]
    out[~small] = 1.0 + 2.0 * np.exp(-np.outer(tl, n * n)).sum(axis=1)
    return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])


class Session:
    """Inputs of one pass, loaded through the program's own loaders."""

    def __init__(self, inputs: dict, workdir: str):
        self.workdir = workdir
        self.surfaces = {
            name: load_surface(os.path.join(workdir, SURFACE_FILE.format(name)))
            for name in inputs.get("surfaces", {})}
        self.families = {
            name: load_family(os.path.join(workdir, FAMILY_FILE.format(name)))
            for name in inputs.get("families", {})}
        with open(os.path.join(workdir, "spectra.json"), "r",
                  encoding="utf-8") as fh:
            spectra = json.load(fh)
        self.spectra = spectra["spectra"]
        self.truncated = spectra["truncated"]
        # one memoized trace per surface, shared by the pass's operations
        self.providers = {name: traces.surface_trace_provider(s, 1e-12)
                          for name, s in self.surfaces.items()}

    def path(self, token: str) -> str:
        kind, name = token[1:-1].split(":")
        pattern = SURFACE_FILE if kind == "surface" else FAMILY_FILE
        return os.path.join(self.workdir, pattern.format(name))

    def run(self, op: dict):
        """Run one operation; returns the call's raw result."""
        return getattr(self, "_op_" + op["kind"])(op["args"], op["tol"], op)

    # heat-trace
    def _op_htr(self, a, tol, op):
        return traces.hyperbolic_trace(
            self.surfaces[a["surface"]].length_spectrum, a["t"])

    def _op_identity(self, a, tol, op):
        return traces.identity_trace(self.surfaces[a["surface"]].volume,
                                     a["t"], tol)

    def _op_etr(self, a, tol, op):
        return traces.elliptic_trace_u(
            self.surfaces[a["surface"]].elliptic_orders, a["t"], tol)

    def _op_standard(self, a, tol, op):
        return traces.standard_trace(self.surfaces[a["surface"]], a["t"], tol)

    def _op_kernel(self, a, tol, op):
        return hplane.heat_kernel_h(a["t"], a["d"], tol)

    def _op_selberg(self, a, tol, op):
        return selberg.selberg_logderiv_integral(
            self.surfaces[a["surface"]].length_spectrum, complex(*a["s"]),
            tol).value

    # cone-sum
    def _op_cw(self, a, tol, op):
        return degeneration.c_w_kernel(
            degeneration.CwKernel(T=a["T"], w=a["w"], beta=a["beta"]), tol)

    def _op_g(self, a, tol, op):
        member = self.families[a["family"]].member(a["member"])
        return degeneration.g_degenerating_counting(member, a["w"], a["T"], tol)

    def _op_error_term(self, a, tol, op):
        report = degeneration.error_term_experiment(
            self.families[a["family"]], a["T"], tol)
        return report.rows

    # mellin
    def _trace_of(self, name):
        """(trace, c_M, coefficients) of a named exact spectrum."""
        if name == "circle":
            return _circle_theta, 1.0, [(-0.5, math.sqrt(math.pi))]
        lams = self.spectra[name]
        return _exp_sum(lams), 0.0, [0.0, float(len(lams))]

    def _op_zeta(self, a, tol, op):
        trace, c_M, coeffs = self._trace_of(a["spectrum"])
        return zeta_det.spectral_zeta_mellin(
            trace, c_M, complex(*a["s"]), 1, coefficients=coeffs,
            tol=tol).value

    def _op_det(self, a, tol, op):
        trace, c_M, coeffs = self._trace_of(a["spectrum"])
        return zeta_det.det_laplacian(trace, c_M=c_M, coefficients=coeffs,
                                      n_subtractions=1, tol=tol)

    def _op_log_det_truncated(self, a, tol, op):
        spec = self.truncated[a["spectrum"]]
        lams = spec["eigenvalues"]
        small = [lam for lam in lams if lam < 0.25]
        return zeta_det.log_det_truncated(
            _exp_sum(lams), small, spec["alpha"], c_M=0.0,
            coefficients=[0.0, float(len(lams))], tol=tol)

    def _op_surface_zeta(self, a, tol, op):
        return zeta_det.spectral_zeta_mellin(
            _lift(self.providers[a["surface"]]), 0.0, complex(*a["s"]), 1,
            coefficients=[tuple(c) for c in a["coefficients"]], tol=tol).value

    def _op_fit(self, a, tol, op):
        surface = self.surfaces[a["surface"]]
        terms = zeta_det.fit_trace_expansion(
            _lift(self.providers[a["surface"]]), range(0, 4),
            known=((-1.0, surface.volume / (4.0 * math.pi)),))
        return dict(terms)[0.0]

    def _op_cli(self, a, tol, op):
        out = os.path.join(self.workdir, f"cli-{op['id']}.csv")
        argv = [self.path(x) if x.startswith("{") else x for x in a["argv"]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--output", out])
        if code != 0:
            raise CliExit(code, err.getvalue().strip())
        return out


class CliExit(Exception):
    """A CLI operation returned a non-zero exit status."""

    def __init__(self, code: int, message: str):
        super().__init__(f"exit {code}: {message}")
        self.code = code


def read_cli_table(path: str) -> list:
    """Data rows of a CLI CSV table as lists of floats (comments skipped)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return [[float(v) for v in row] for row in rows[1:]]


def encode(value):
    """JSON-ready form of a result."""
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value

