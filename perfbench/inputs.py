"""Seeded inputs of the benchmark workloads (numpy only, no cscskit import).

Keeping input generation free of the library lets a fresh process build
its inputs first and then time ``import cscskit`` plus cold construction
alone (``setup_s``).

Every workload runs the same user operations, in the proportions its
reason calls for:

* solve cells: ``cscs_solve`` on each cell with both backends, from
  x0 = 0 at tol 1e-7;
* operator rounds: for each operator matrix one
  ``ToeplitzOperator.from_bands`` build, one ``theta_scan`` over a
  36-point grid and a fixed number of ``toeplitz_matvec`` products with
  the operator just built.

``paper_cells`` and ``large_pow2`` are solve workloads; their operator
rounds reuse the workload's own matrices (the n = 4000 cells, the
n = 65536 cell), so the operator metrics are measured at the workload's
size.  ``operator_stream`` is a product workload; its one solve cell
(ex3 at the same odd n) keeps the solve metrics measured there as well.
"""

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("paper_cells", "large_pow2", "operator_stream")
GRID_POINTS = 36

# (example, n, p, theta, acceptance iteration target or None)
PAPER_CELLS = (
    ("ex1", 4000, 0.9, 1.985, 21),
    ("ex1", 4000, 1.1, 1.465, 14),
    ("ex2", 4000, None, 3.680, 5),
    ("ex3", 4000, None, 3.890, 9),
    ("ex2", 256, None, 3.595, 6),
    ("ex3", 256, None, 3.585, 9),
    ("ex1", 257, 0.9, 1.5, None),
)
# smoke-test sizes keep each size's parity
TINY_N = {4000: 64, 256: 32, 257: 33, 65536: 128, 4097: 65}


@dataclass
class SolveCell:
    label: str
    source: object          # (example, n, p) of a built-in problem, or band coefficients
    theta: float
    b: np.ndarray
    target: int | None


@dataclass
class OpCase:
    source: object          # as SolveCell.source
    grid: np.ndarray
    vectors: list


@dataclass
class Inputs:
    cells: list
    ops: list


def _grid(theta):
    return theta * np.geomspace(0.25, 4.0, GRID_POINTS)


def make_inputs(name: str, seed: int, tiny: bool = False) -> Inputs:
    """Generate a workload's inputs; the same seed gives the same inputs."""
    size = TINY_N.get if tiny else (lambda n: n)
    if name == "paper_cells":
        # the paper protocol pins b = ones, so this workload ignores the seed
        cells = [
            SolveCell(f"{ex} n={size(n)}" + (f" p={p}" if p else "") + f" theta={th}",
                      (ex, size(n), p), th, np.ones(size(n)),
                      None if tiny else target)
            for ex, n, p, th, target in PAPER_CELLS]
        fixed = np.random.default_rng(0)
        ops = [OpCase(c.source, _grid(c.theta),
                      [fixed.uniform(-1.0, 1.0, c.b.size) for _ in range(8)])
               for c in cells if c.b.size == size(4000)]
        return Inputs(cells, ops)
    rng = np.random.default_rng(seed)
    if name == "large_pow2":
        n = size(65536)
        source = ("ex1", n, 0.9)
        cells = [SolveCell(f"ex1 n={n} p=0.9 theta=1.985", source, 1.985,
                           rng.uniform(0.5, 1.5, n), None)]
        # eight operator rounds on the one matrix: enough builds and scans
        # for a steady median, and over a hundred products per run for p90
        ops = [OpCase(source, _grid(1.985),
                      [rng.uniform(-1.0, 1.0, n) for _ in range(2 if tiny else 8)])
               for _ in range(2 if tiny else 8)]
        return Inputs(cells, ops)
    if name == "operator_stream":
        n = size(4097)
        k = np.arange(-(n - 1), n)
        ops = []
        for _ in range(2 if tiny else 16):
            bands = rng.standard_normal(2 * n - 1) / (1.0 + np.abs(k))
            ops.append(OpCase(bands, _grid(1.0),
                              [rng.uniform(-1.0, 1.0, n)
                               for _ in range(2 if tiny else 8)]))
        cells = [SolveCell(f"ex3 n={n} theta=3.89", ("ex3", n, None), 3.890,
                           rng.uniform(0.5, 1.5, n), None)]
        return Inputs(cells, ops)
    raise ValueError(f"unknown workload {name!r}")
