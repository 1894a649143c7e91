"""Real-arithmetic toolkit for circulant, skew-circulant and Toeplitz matrices.

Real Schur forms through DCT/DST transforms, O(n log n) structured
matrix-vector products, and the CSCS stationary iteration for real
positive-definite Toeplitz systems, with a benchmark CLI.
"""

from .bench_cli import (
    BenchRow, ProblemSpec, VectorFormatError, gen_coeffs, read_csv,
    read_vector, run_bench, write_csv, write_markdown, write_vector,
)
from .cscs_solvers import (
    SolveReport, SolverConfig, cscs_solve, dft, iteration_matrix_rho,
    theta_scan,
)
from .fast_matvec import (
    CirculantOperator, ToeplitzOperator, circulant_matvec,
    skew_circulant_matvec, toeplitz_matvec,
)
from .real_schur import (
    SingularShiftError, SpectralPair, XPattern, apply_block_transform,
    apply_q, dense_u_oracle, dtt_apply, from_core, real_spectrum, to_core,
    xpattern_apply, xpattern_shifted_solve,
)
from .structured_matrices import (
    CirculantCol, SkewCirculantCol, ToeplitzBands, cscs_split, dense_of,
    naive_matvec, toeplitz_from_bands,
)
from .trig_transforms import (
    DCT_I, DCT_II, DCT_V, DCT_VI, DST_I, DST_II, DST_V, DST_VI, DttKind,
    DttPlan, Family, Flavor, counting, dtt_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRow", "ProblemSpec", "VectorFormatError", "gen_coeffs", "read_csv",
    "read_vector", "run_bench", "write_csv", "write_markdown", "write_vector",
    "SolveReport", "SolverConfig", "cscs_solve", "dft", "iteration_matrix_rho",
    "theta_scan",
    "CirculantOperator", "ToeplitzOperator", "circulant_matvec",
    "skew_circulant_matvec", "toeplitz_matvec",
    "SingularShiftError", "SpectralPair", "XPattern", "apply_block_transform",
    "apply_q", "dense_u_oracle", "dtt_apply", "from_core", "real_spectrum", "to_core",
    "xpattern_apply", "xpattern_shifted_solve",
    "CirculantCol", "SkewCirculantCol", "ToeplitzBands", "cscs_split",
    "dense_of", "naive_matvec", "toeplitz_from_bands",
    "DCT_I", "DCT_II", "DCT_V", "DCT_VI", "DST_I", "DST_II", "DST_V", "DST_VI",
    "DttKind", "DttPlan", "Family", "Flavor", "counting", "dtt_matrix",
]
