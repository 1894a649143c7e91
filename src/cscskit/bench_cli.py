"""Benchmark problems, campaign runner and file formats.

Three built-in Toeplitz test problems, stated through their diagonal
coefficients t[k] (equivalently the Fourier coefficients
t[k] = (1/2pi) integral_{-pi}^{pi} f(x) e^{-ikx} dx of a generating
function f, with T[j,k] = t[j-k]):

    ex1:  t[k] = (1 + |k|)^(-p),  p > 0          (symmetric positive definite)
    ex2:  f(x) = 5 + x^2 + 2 cos(3x) + i (x + sin x)
    ex3:  f(x) = 10 + 8 cos(x) + i 2 sin(5x)

ex2/ex3 coefficients are analytic: x^2 contributes 2 (-1)^k / k^2,
i*x contributes -(-1)^k / k, harmonics contribute half their amplitude
at the matching offsets (antisymmetrically for the i-part), so ex3 is
exactly sparse: t[0] = 10, t[+-1] = 4, t[5] = 1, t[-5] = -1.

The campaign protocol fixes b = ones and x0 = 0 for every cell and
reports one row per (problem, n, theta, backend).  CSV rows carry the
exact header

    example,n,p,theta,backend,iterations,rel_residual,rho,elapsed_ms

with empty cells for unavailable values; failed cells keep their error
message in memory (``BenchRow.error``) and empty numeric columns in the
file.  Elapsed times are informational only.

Vector files are plain text: the length on the first line, then one
scalar per line at 17 significant digits (lossless round trip).
"""

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .cscs_solvers import (
    RHO_DENSE_GUARD, SolverConfig, cscs_solve, iteration_matrix_rho,
)
from .structured_matrices import (
    ToeplitzBands, _instance, _number, _size, _vector, toeplitz_from_bands,
)

__all__ = [
    "ProblemSpec", "BenchRow", "VectorFormatError",
    "gen_coeffs", "run_bench",
    "read_vector", "write_vector", "write_csv", "read_csv", "write_markdown",
    "CSV_HEADER",
]

CSV_HEADER = "example,n,p,theta,backend,iterations,rel_residual,rho,elapsed_ms"

EXAMPLES = ("ex1", "ex2", "ex3")


class VectorFormatError(ValueError):
    """Malformed vector file; carries the offending line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}: line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ProblemSpec:
    """One generated test problem; p applies to ex1 only.  Checks its values when built."""

    example: str
    n: int
    p: float | None = None

    def __post_init__(self):
        if self.example not in EXAMPLES:
            raise ValueError(f"unknown example {self.example!r}")
        _size(self.n, "problem size")
        if self.example == "ex1" and self.p is None:
            raise ValueError("ex1 requires a positive exponent p")
        if self.p is not None:
            _number(self.p, "p", positive=self.example == "ex1")


def gen_coeffs(spec: ProblemSpec) -> ToeplitzBands:
    """Diagonal coefficients t[-(n-1)..n-1] of the requested problem."""
    n = _instance(spec, ProblemSpec, "gen_coeffs spec").n
    k = np.arange(-(n - 1), n)
    if spec.example == "ex1":
        return toeplitz_from_bands((1.0 + np.abs(k)) ** (-spec.p))
    t = np.zeros(2 * n - 1, dtype=np.complex128)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    nz = k != 0
    if spec.example == "ex2":
        t[~nz] = 5.0 + np.pi ** 2 / 3.0          # constant and x^2 mean
        t[nz] += 2.0 * sign[nz] / k[nz] ** 2      # x^2
        t[nz] += -sign[nz] / k[nz]                # i*x
        t[np.abs(k) == 3] += 1.0                  # 2 cos(3x)
        t[k == 1] += 0.5                          # i*sin(x)
        t[k == -1] -= 0.5
    else:
        t[~nz] = 10.0
        t[np.abs(k) == 1] += 4.0                  # 8 cos(x)
        t[k == 5] += 1.0                          # i*2 sin(5x)
        t[k == -5] -= 1.0
    worst = float(np.abs(t.imag).max()) if t.size else 0.0
    if worst >= 1e-10:
        raise ValueError(f"generated coefficients are not real (max imag {worst:g})")
    return toeplitz_from_bands(t.real)


@dataclass
class BenchRow:
    """One benchmark cell; ``error`` marks a failed cell."""

    example: str
    n: int
    p: float | None
    theta: float
    backend: str
    iterations: int | None
    rel_residual: float | None
    rho: float | None
    elapsed_ms: float | None
    error: str | None = None


def run_bench(entries, rho_up_to: int | None = None) -> list[BenchRow]:
    """Run a benchmark campaign.

    ``entries`` is an iterable of (ProblemSpec, thetas, backends); one
    cell is run per (spec, theta, backend) in input order with b = ones
    and zero initial guess.  The spectral radius is computed for cells
    with n <= rho_up_to (dense eigenvalues; omit for large n); a
    rho_up_to above ``RHO_DENSE_GUARD`` raises ValueError before any
    cell runs, as does one that is not an integer >= 1.  A failing cell is
    marked and the campaign continues.
    """
    if rho_up_to is not None and _size(rho_up_to, "rho_up_to") > RHO_DENSE_GUARD:
        raise ValueError(f"rho_up_to={rho_up_to} exceeds the dense spectral "
                         f"radius guard n <= {RHO_DENSE_GUARD}")
    rows = []
    for spec, thetas, backends in entries:
        for theta in thetas:
            for backend in backends:
                row = BenchRow(spec.example, spec.n, spec.p, theta, backend,
                               None, None, None, None)
                start = time.perf_counter()
                try:
                    T = gen_coeffs(spec)
                    report = cscs_solve(T, np.ones(spec.n),
                                        SolverConfig(theta=theta, backend=backend))
                    row.iterations = report.iterations
                    row.rel_residual = (float(report.residuals[-1])
                                        if report.residuals.size else 0.0)
                    if rho_up_to is not None and spec.n <= rho_up_to:
                        row.rho = iteration_matrix_rho(T, theta)
                except Exception as exc:
                    row.error = f"{type(exc).__name__}: {exc}"
                row.elapsed_ms = (time.perf_counter() - start) * 1e3
                rows.append(row)
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _cells(row) -> list[str]:
    """The nine CSV cells of a row, in header order."""
    return [_fmt(getattr(row, name)) for name in CSV_HEADER.split(",")]


@contextmanager
def _opened(out):
    """Yield a handle for ``out``: open and close a path, pass a handle through."""
    if isinstance(out, (str, bytes, os.PathLike)):
        with open(out, "w") as fh:
            yield fh
    else:
        yield out


def write_csv(rows, out) -> None:
    """Write benchmark rows as CSV (exact header, 17 significant digits)."""
    with _opened(out) as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join(_cells(r)) + "\n")


def read_csv(path) -> list[BenchRow]:
    """Parse a campaign CSV back into rows (round-trip of write_csv)."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        rows = []
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 9:
                raise ValueError(f"expected 9 CSV fields, got {len(parts)}")
            ex, n, p, theta, backend, iters, rel, rho, ms = parts
            rows.append(BenchRow(
                ex, int(n), float(p) if p else None, float(theta), backend,
                int(iters) if iters else None, float(rel) if rel else None,
                float(rho) if rho else None, float(ms) if ms else None))
    return rows


def write_markdown(rows, out) -> None:
    """Secondary human-readable table formatter."""
    cols = CSV_HEADER.split(",") + ["status"]
    with _opened(out) as fh:
        fh.write("| " + " | ".join(cols) + " |\n")
        fh.write("|" + "|".join("---" for _ in cols) + "|\n")
        for r in rows:
            status = "error: " + r.error if r.error else "ok"
            fh.write("| " + " | ".join(_cells(r) + [status]) + " |\n")


def write_vector(path, v) -> None:
    """Write a real vector: length line then one scalar per line."""
    v = _vector(v, "vector", finite=False)
    with open(path, "w") as fh:
        fh.write(f"{v.shape[0]}\n")
        for value in v:
            fh.write(format(value, ".17g") + "\n")


def read_vector(path) -> np.ndarray:
    """Read a vector file written by :func:`write_vector`."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise VectorFormatError(path, 1, "empty file, expected a length line")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise VectorFormatError(
            path, 1, f"expected an integer length, got {lines[0]!r}") from None
    if n < 0:
        raise VectorFormatError(path, 1, f"negative length {n}")
    if len(lines) - 1 < n:
        raise VectorFormatError(
            path, len(lines), f"file ends after {len(lines) - 1} of {n} values")
    if len(lines) - 1 > n:
        raise VectorFormatError(path, n + 2, "unexpected trailing data")
    out = np.empty(n)
    for i, raw in enumerate(lines[1:], start=2):
        try:
            out[i - 2] = float(raw)
        except ValueError:
            raise VectorFormatError(
                path, i, f"expected a decimal scalar, got {raw!r}") from None
    return out


def load_bands_file(path) -> ToeplitzBands:
    """Read Toeplitz bands (2n-1 coefficients, ascending) from a vector file."""
    return toeplitz_from_bands(read_vector(path))
