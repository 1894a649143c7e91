"""Command-line interface.

Subcommands:

    solve       solve T x = ones by the CSCS iteration
    spectrum    eigenvalue data (alpha, beta) of the CSCS factors
    radius      dense spectral radius of the iteration matrix
    bench       run a benchmark campaign, emit CSV or Markdown
    theta-scan  evaluate the contraction bound over a shift grid

Problems come either from a built-in generator (--example ex1|ex2|ex3
with --n and, for ex1, --p) or from a band-coefficient file
(--bands-file, vector format: length 2n-1 then one coefficient per
line, ascending t[-(n-1)]..t[n-1]).

Exit codes: 0 success; 2 argument/config errors, including NaN or Inf
input and the dense guard (radius at n > 4096, --rho-up-to above 4096);
3 numerical failures (singular shift, non-convergence, every bench cell
failed).

Input contract: the library raises ValueError for a bool, a non-number,
the wrong shape and, outside the linear products, NaN or Inf (the checks
live in ``structured_matrices``).  This module adds no checks: a command
builds its objects first and ``main`` maps a ValueError to exit 2, so
``bench`` builds every cell's ProblemSpec and SolverConfigs, from flags
or ``--config``, before any cell runs.
"""

import argparse
import json
import sys

import numpy as np

from .bench_cli import (
    EXAMPLES, ProblemSpec, _opened, gen_coeffs, load_bands_file, run_bench,
    write_csv, write_markdown, write_vector,
)
from .cscs_solvers import (
    BACKENDS, RHO_DENSE_GUARD, SolverConfig, cscs_solve, iteration_matrix_rho,
    theta_scan,
)
from .fast_matvec import CirculantOperator
from .real_schur import SingularShiftError
from .structured_matrices import _vector, cscs_split

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class _ConfigError(Exception):
    pass


def _add_problem_flags(p):
    p.add_argument("--example", choices=EXAMPLES,
                   help="built-in problem generator")
    p.add_argument("--bands-file", help="Toeplitz bands from a vector file")
    p.add_argument("--n", type=int, help="problem dimension (with --example)")
    p.add_argument("--p", type=float, help="exponent for ex1")


def _problem(args):
    if (args.example is None) == (args.bands_file is None):
        raise _ConfigError("specify exactly one of --example or --bands-file")
    if args.example is not None:
        if args.n is None:
            raise _ConfigError("--example requires --n")
        return gen_coeffs(ProblemSpec(args.example, args.n, args.p))
    return load_bands_file(args.bands_file)


def _cmd_solve(args):
    T = _problem(args)
    cfg = SolverConfig(theta=args.theta, tol=args.tol, max_iters=args.maxit,
                       backend=args.backend)
    report = cscs_solve(T, np.ones(T.n), cfg)
    for note in report.warnings:
        print(f"warning: {note}", file=sys.stderr)
    final = report.residuals[-1] if report.residuals.size else 0.0
    print(f"converged={report.converged} iterations={report.iterations} "
          f"rel_residual={final:.6e}")
    if args.out:
        write_vector(args.out, report.solution)
        print(f"solution written to {args.out}")
    return EXIT_OK if report.converged else EXIT_NUMERICAL


def _cmd_spectrum(args):
    # each factor from its own column, so the rows are real_spectrum's bit for bit
    c, s = cscs_split(_problem(args))
    with _opened(args.out or sys.stdout) as out:
        out.write("part,k,alpha,beta\n")
        for part, factor in (("circulant", CirculantOperator.from_circulant(c)),
                             ("skew", CirculantOperator.from_skew_circulant(s))):
            if args.part not in (None, part):
                continue
            # one row per eigenvalue pair (or real eigenvalue): its real
            # part on the core's diagonal, its imaginary part on the anti-diagonal
            X = factor.pattern
            for k in np.flatnonzero(np.arange(X.n) <= X.partner):
                out.write(f"{part},{k},{X.diag[k]:.17g},{X.anti[k]:.17g}\n")
    return EXIT_OK


def _cmd_radius(args):
    rho = iteration_matrix_rho(_problem(args), args.theta)
    print(f"{rho:.17g}")
    return EXIT_OK


def _parse_grid(text):
    try:
        start, stop, steps = text.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError:
        raise _ConfigError(f"--grid expects start:stop:steps, got {text!r}") from None
    # theta_scan rejects the empty, NaN or Inf grid that 0 steps or an Inf end gives
    with np.errstate(all="ignore"):
        return np.linspace(start, stop, steps)


def _cmd_theta_scan(args):
    T = _problem(args)
    grid = _parse_grid(args.grid)
    best, bounds = theta_scan(T, grid)
    with _opened(args.out or sys.stdout) as out:
        out.write("theta,bound\n")
        for th, bd in zip(grid, bounds):
            out.write(f"{th:.17g},{bd:.17g}\n")
        out.write(f"# best theta = {best:.17g}\n")
    return EXIT_OK


def _entry(example, n, p, thetas, backends):
    # a cell is valid exactly when its problem and solver configs construct
    spec = ProblemSpec(example, n, p)
    for theta in thetas:
        for backend in backends:
            SolverConfig(theta=theta, backend=backend)
    return spec, thetas, backends


def _bench_entries(args):
    if not args.config:
        if not args.example or not args.n or not args.theta:
            raise _ConfigError("bench needs --config, or --example/--n/--theta")
        return [_entry(args.example, n, args.p, args.theta, args.backend or ["dct_dst"])
                for n in args.n]
    with open(args.config) as fh:
        try:
            cells = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _ConfigError(f"bad config JSON: {exc}") from None
    if not isinstance(cells, list):
        raise _ConfigError(f"config must be a JSON list of cells, got {cells!r}")
    entries = []
    for cell in cells:
        try:
            example, n, thetas = cell["example"], cell["n"], cell["thetas"]
            backends = cell.get("backends", ["dct_dst"])
            if not isinstance(backends, list):
                raise TypeError(f"backends must be a list, got {backends!r}")
            entries.append(_entry(example, n, cell.get("p"),
                                  _vector(thetas, "thetas").tolist(), backends))
        except (KeyError, TypeError, ValueError) as exc:
            raise _ConfigError(f"bad config cell {cell!r}: {exc}") from None
    return entries


def _cmd_bench(args):
    entries = _bench_entries(args)
    rows = run_bench(entries, rho_up_to=args.rho_up_to)
    writer = write_markdown if args.format == "markdown" else write_csv
    writer(rows, args.out or sys.stdout)
    for r in rows:
        if r.error:
            print(f"warning: cell ({r.example}, n={r.n}, theta={r.theta}, "
                  f"{r.backend}) failed: {r.error}", file=sys.stderr)
    if rows and all(r.error for r in rows):
        return EXIT_NUMERICAL
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cscskit",
        description="Real-arithmetic Toeplitz/circulant toolkit and CSCS solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve T x = ones by the CSCS iteration")
    _add_problem_flags(p)
    p.add_argument("--theta", type=float, required=True, help="positive shift")
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--maxit", type=int, default=500)
    p.add_argument("--backend", choices=BACKENDS, default="dct_dst")
    p.add_argument("--out", help="write the solution vector here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("spectrum", help="alpha/beta spectrum of the CSCS factors")
    _add_problem_flags(p)
    p.add_argument("--part", choices=("circulant", "skew"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("radius", help="spectral radius of the iteration matrix")
    _add_problem_flags(p)
    p.add_argument("--theta", type=float, required=True)
    p.set_defaults(func=_cmd_radius)

    p = sub.add_parser("bench", help="run a benchmark campaign")
    p.add_argument("--example", choices=EXAMPLES)
    p.add_argument("--p", type=float, help="exponent for ex1")
    p.add_argument("--n", type=int, action="append",
                   help="problem size (repeatable)")
    p.add_argument("--theta", type=float, action="append",
                   help="shift (repeatable)")
    p.add_argument("--backend", choices=BACKENDS, action="append",
                   help="backend (repeatable; default dct_dst)")
    p.add_argument("--config", help="JSON campaign file")
    p.add_argument("--rho-up-to", type=int, default=None,
                   help="compute the dense spectral radius for n up to this "
                        f"(at most {RHO_DENSE_GUARD})")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("theta-scan", help="contraction bound over a shift grid")
    _add_problem_flags(p)
    p.add_argument("--grid", required=True, help="start:stop:steps")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_theta_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SingularShiftError as exc:  # a ValueError, so caught first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (_ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
