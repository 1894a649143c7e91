"""Construction, timed passes and correctness checks of the benchmark workloads.

The library is driven only through the names exported by ``cscskit``,
always looked up on the package at call time so that a traced run can
wrap them.  Outputs are checked against references computed here with
numpy.fft, never with the library's own products.
"""

import resource
import time
from dataclasses import dataclass, field

import numpy as np

import cscskit
from inputs import Inputs, SolveCell

TOL = 1e-7
BACKENDS = ("dct_dst", "fft")
# relative 2-norm error allowed between toeplitz_matvec and the reference
# product; transform rounding stays orders of magnitude below it
MATVEC_RTOL = 1e-10
# iteration targets are met within +-1 (acceptance protocol)
TARGET_SLACK = 1


def problem(source):
    if isinstance(source, tuple):
        return cscskit.gen_coeffs(cscskit.ProblemSpec(*source))
    return cscskit.toeplitz_from_bands(source)


@dataclass
class State:
    """Constructed problems and operators of one workload."""

    inputs: Inputs
    cell_problems: list
    op_problems: list
    operators: list
    references: list = field(default_factory=list)


def construct(inputs: Inputs) -> State:
    """Cold construction: every problem, spectrum and operator the workload uses.

    This is the work ``setup_s`` times after ``import cscskit``.
    """
    built = {}

    def once(source):
        # operator rounds of the solve workloads reuse the cells' problems
        if id(source) not in built:
            built[id(source)] = problem(source)
        return built[id(source)]

    cell_problems = [once(c.source) for c in inputs.cells]
    for T in cell_problems:
        cpart, spart = cscskit.cscs_split(T)
        cscskit.real_spectrum("circulant", cpart.col)
        cscskit.real_spectrum("skew", spart.col)
    op_problems = [once(o.source) for o in inputs.ops]
    by_problem = {}
    for T in op_problems:
        if id(T) not in by_problem:
            by_problem[id(T)] = cscskit.ToeplitzOperator.from_bands(T)
    return State(inputs, cell_problems, op_problems,
                 [by_problem[id(T)] for T in op_problems])


def reference_matvec(T, x) -> np.ndarray:
    """T @ x through a 2n circulant embedding with numpy.fft."""
    n = T.n
    col = np.concatenate((T.coeffs[n - 1:], [0.0], T.coeffs[:n - 1]))
    m = 2 * n
    return np.fft.irfft(np.fft.rfft(col) * np.fft.rfft(x, m), m)[:n]


def prepare(state: State) -> None:
    """Reference products and one untimed warm-up call of every operation."""
    state.references = [[reference_matvec(T, v) for v in case.vectors]
                        for T, case in zip(state.op_problems, state.inputs.ops)]
    for cell, T in zip(state.inputs.cells, state.cell_problems):
        for backend in BACKENDS:
            cscskit.cscs_solve(T, cell.b, cscskit.SolverConfig(
                theta=cell.theta, tol=TOL, max_iters=1, backend=backend))
    for case, op in zip(state.inputs.ops, state.operators):
        cscskit.toeplitz_matvec(op, case.vectors[0])


@dataclass
class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(problems)}")


def check_solve(cell: SolveCell, T, backend, report) -> list:
    """Reasons a solve counts as failed; empty when it is correct."""
    problems = []
    if not report.converged:
        problems.append(f"not converged after {report.iterations} sweeps")
    if cell.target is not None and abs(report.iterations - cell.target) > TARGET_SLACK:
        problems.append(f"{report.iterations} sweeps, target {cell.target} +-{TARGET_SLACK}")
    if backend == "dct_dst":
        counts = report.transform_counts
        if not counts or any(tuple(c) != (6, 6) for c in counts):
            problems.append(f"per-sweep transform counts {counts}, expected (6, 6)")
    x = np.asarray(report.solution, dtype=np.float64)
    if x.shape != cell.b.shape or not np.all(np.isfinite(x)):
        problems.append("solution has the wrong shape or non-finite entries")
    else:
        rel = float(np.linalg.norm(cell.b - reference_matvec(T, x))
                    / np.linalg.norm(cell.b))
        if not rel <= TOL:
            problems.append(f"relative residual {rel:.3e} exceeds tol {TOL:g}")
    return problems


def check_matvec(y, reference) -> list:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != reference.shape:
        return [f"product has shape {y.shape}, expected {reference.shape}"]
    err = float(np.linalg.norm(y - reference) / np.linalg.norm(reference))
    return [] if err <= MATVEC_RTOL else [f"product relative error {err:.3e}"]


@dataclass
class PassResult:
    solve_s: dict           # backend -> summed solve seconds
    sweeps: dict            # backend -> summed sweeps
    build_s: list
    scan_s: list
    matvec_s: list
    total_s: float
    minor_faults: int       # page faults of the pass (fresh memory touched)
    reports: list           # (cell label, backend, SolveReport or None)


def run_pass(state: State, tally: Tally) -> PassResult:
    """One closed-loop pass over every cell and operator round."""
    solve_s = dict.fromkeys(BACKENDS, 0.0)
    sweeps = dict.fromkeys(BACKENDS, 0)
    build_s, scan_s, matvec_s, reports = [], [], [], []
    clock = time.perf_counter
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = clock()
    for cell, T in zip(state.inputs.cells, state.cell_problems):
        for backend in BACKENDS:
            cfg = cscskit.SolverConfig(theta=cell.theta, tol=TOL, backend=backend)
            what = f"{cell.label} {backend}"
            t0 = clock()
            try:
                report = cscskit.cscs_solve(T, cell.b, cfg)
            except Exception as exc:  # a raising solve is a failed operation
                solve_s[backend] += clock() - t0
                tally.record([f"{type(exc).__name__}: {exc}"], what)
                reports.append((cell.label, backend, None))
                continue
            solve_s[backend] += clock() - t0
            sweeps[backend] += report.iterations
            reports.append((cell.label, backend, report))
            tally.record(check_solve(cell, T, backend, report), what)
    for case, T, refs in zip(state.inputs.ops, state.op_problems, state.references):
        t0 = clock()
        try:
            op = cscskit.ToeplitzOperator.from_bands(T)
        except Exception as exc:
            tally.record([f"{type(exc).__name__}: {exc}"], "from_bands")
            continue
        build_s.append(clock() - t0)
        tally.record([], "from_bands")
        t0 = clock()
        try:
            _, bounds = cscskit.theta_scan(T, case.grid)
            scan_s.append(clock() - t0)
            ok = np.shape(bounds) == case.grid.shape and np.all(np.isfinite(bounds))
            tally.record([] if ok else ["theta_scan bounds malformed"], "theta_scan")
        except Exception as exc:
            tally.record([f"{type(exc).__name__}: {exc}"], "theta_scan")
        for v, ref in zip(case.vectors, refs):
            t0 = clock()
            try:
                y = cscskit.toeplitz_matvec(op, v)
            except Exception as exc:
                tally.record([f"{type(exc).__name__}: {exc}"], "toeplitz_matvec")
                continue
            matvec_s.append(clock() - t0)
            tally.record(check_matvec(y, ref), "toeplitz_matvec")
    total_s = clock() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return PassResult(solve_s, sweeps, build_s, scan_s, matvec_s, total_s, faults, reports)


def measure(state: State, seconds: float, tally: Tally) -> list:
    """Closed-loop passes filling about ``seconds`` (at least one pass).

    A new pass starts only while at least half of one more fits, so the
    pass count, and with it the run length, varies little between runs.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(state, tally))
        if time.perf_counter() - start + passes[-1].total_s / 2 >= seconds:
            return passes
