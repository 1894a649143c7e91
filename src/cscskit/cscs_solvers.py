"""CSCS stationary iteration for real positive-definite Toeplitz systems.

Splitting T = C + S, the two-half-step iteration with shift theta > 0 is

    (theta I + C) x^(k+1/2) = (theta I - S) x^(k)     + b,
    (theta I + S) x^(k+1)   = (theta I - C) x^(k+1/2) + b.

The ``dct_dst`` backend runs it in real arithmetic through the real
Schur forms C = U Omega U.T and S = Utilde Sigma Utilde.T; shifted cores
are O(n) X-pattern multiplies/solves and every U or U.T application
(``real_schur.from_core`` / ``to_core``) is the Q butterfly plus one DCT
and one DST of about n/2 points.  Adjacent block factors cancel between
the two half-steps (U.T U == I), so one full iteration costs exactly six
DCTs and six DSTs; each sweep counts its own in a ``counting()`` block
and the counts are recorded in the report.

The ``fft`` backend is the complex reference: C = F Lambda F^* and
S = Ftilde Lambdatilde Ftilde^* with Ftilde = D F^*,
D = diag(1, e^{i pi/n}, ..., e^{i (n-1) pi/n}), costing six complex DFTs
per iteration.  Its eigenvalues are read off the same cores, which
already hold them in DFT order: Lambda = Omega.diag + 1j*Omega.anti and
Lambdatilde = Sigma.diag + 1j*Sigma.anti, so its setup runs no DFT.
Both backends perform the same exact-arithmetic update, so their iterate
sequences agree to rounding.

Both backends share one iteration loop and one setup: the split spectra
are built once by ``ToeplitzOperator.from_bands``, whose cores also give
the positive-definiteness warnings and the fail-fast singular-shift
check.  A backend contributes only its sweep and its Toeplitz product.

Iterations stop when ||b - T x^(k)||_2 <= tol * ||b - T x^(0)||_2 or
after ``max_iters`` sweeps.  Residuals are recomputed each sweep, never
recursively updated: with ``toeplitz_matvec`` on the solve's operator
for ``dct_dst``, and with the backend's own complex product for ``fft``.
"""

import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from . import _dft
from .fast_matvec import ToeplitzOperator, toeplitz_matvec
from .real_schur import (
    SingularShiftError, from_core, to_core, xpattern_apply, xpattern_shifted_solve,
)
from .structured_matrices import ToeplitzBands, cscs_split, dense_of
from .trig_transforms import Flavor, counting

__all__ = [
    "SolverConfig", "SolveReport", "cscs_solve", "dft",
    "iteration_matrix_rho", "theta_scan", "RHO_DENSE_GUARD",
]

RHO_DENSE_GUARD = 4096


def dft(x, inverse: bool = False) -> np.ndarray:
    """Discrete Fourier transform for any length n >= 1 in O(n log n).

    Forward: X[k] = sum_j x[j] exp(-2 pi i j k / n) (unnormalized);
    inverse divides by n so that dft(dft(x), inverse=True) == x.
    Power-of-two lengths use radix-2 directly, everything else goes
    through Bluestein's chirp reduction.
    """
    return _dft.idft_vector(x) if inverse else _dft.dft_vector(x)


@dataclass
class SolverConfig:
    """Shift, stopping rule and backend selection for ``cscs_solve``."""

    theta: float
    tol: float = 1e-7
    max_iters: int = 500
    backend: str = "dct_dst"
    x0: np.ndarray | None = None
    record_iterates: bool = False

    def __post_init__(self):
        if not self.theta > 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.backend not in ("dct_dst", "fft"):
            raise ValueError(f"unknown backend {self.backend!r}")


@dataclass
class SolveReport:
    """Outcome of one CSCS solve."""

    solution: np.ndarray
    iterations: int
    residuals: np.ndarray          # relative residual after each full sweep
    converged: bool
    warnings: list = field(default_factory=list)
    iterates: list | None = None
    transform_counts: list | None = None   # per-sweep (n_dct, n_dst), dct_dst only
    transform_sizes: set | None = None     # transform sizes used by the sweeps


def _pd_warnings(op):
    notes = []
    for name, part in (("circulant", op.circulant_part),
                       ("skew-circulant", op.skew_part)):
        amin = float(part.pattern.diag.min())
        if amin <= 0:
            notes.append(
                f"{name} part is not positive definite (min eigenvalue real "
                f"part {amin:.6g}); convergence is not guaranteed")
    return notes


def _finite_vector(values, n, what):
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"{what} must have length {n}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} must be finite (got NaN or Inf)")
    return v


def cscs_solve(T: ToeplitzBands, b, cfg: SolverConfig) -> SolveReport:
    """Solve T x = b by the CSCS iteration.

    Raises :class:`SingularShiftError` when theta*I + C or theta*I + S
    is singular, and ``ValueError`` for a non-finite ``b`` or ``x0``.
    Indefiniteness of C or S is only a recorded warning; the sweep
    proceeds regardless.
    """
    n, theta = T.n, cfg.theta
    b = _finite_vector(b, n, "right-hand side")
    x = (np.zeros(n) if cfg.x0 is None
         else _finite_vector(cfg.x0, n, "initial guess").copy())
    op = ToeplitzOperator.from_bands(T)
    notes = _pd_warnings(op)
    # fail fast on a singular shift instead of inside the first sweep
    xpattern_shifted_solve(op.circulant_part.pattern, theta, np.zeros(n))
    xpattern_shifted_solve(op.skew_part.pattern, theta, np.zeros(n))
    counted = cfg.backend == "dct_dst"
    if counted:
        sweep, product = _dct_dst_backend(op, theta, b)
    else:
        sweep, product = _fft_backend(op, theta, b)

    r0 = np.linalg.norm(b - product(x)) if x.any() else np.linalg.norm(b)
    iterates = [x.copy()] if cfg.record_iterates else None
    counts, sizes = ([], set()) if counted else (None, None)
    if r0 == 0.0:
        return SolveReport(x, 0, np.empty(0), True, notes, iterates, counts, sizes)

    residuals = []
    converged = False
    for _ in range(cfg.max_iters):
        with counting() as used:
            x = sweep(x)
        if counted:
            dct = sum(c for (flavor, _), c in used.items() if flavor is Flavor.COSINE)
            counts.append((dct, used.total() - dct))
            sizes.update(size for _, size in used)
        if iterates is not None:
            iterates.append(x.copy())
        rel = np.linalg.norm(b - product(x)) / r0
        residuals.append(rel)
        if rel <= cfg.tol:
            converged = True
            break
    return SolveReport(x, len(residuals), np.array(residuals), converged, notes,
                       iterates, counts, sizes)


def _dct_dst_backend(op, theta, b):
    """(sweep, Toeplitz product) in real arithmetic through the operator's cores."""
    omega, sigma = op.circulant_part.pattern, op.skew_part.pattern

    def sweep(x):
        # (theta I - S) x + b: 2 DCTs + 2 DSTs
        u = to_core("skew", x)
        u = from_core("skew", xpattern_apply(sigma, theta, "minus", u)) + b
        # first half-step solve fused with the second half-step multiply:
        # (theta I - C)(theta I + C)^{-1} shares the circulant block factor
        w = xpattern_shifted_solve(omega, theta, to_core("circulant", u))
        v = from_core("circulant", xpattern_apply(omega, theta, "minus", w)) + b
        # (theta I + S)^{-1}: 2 DCTs + 2 DSTs
        return from_core("skew", xpattern_shifted_solve(sigma, theta, to_core("skew", v)))

    return sweep, lambda v: toeplitz_matvec(op, v)


def _fft_backend(op, theta, b):
    """(sweep, Toeplitz product) in complex arithmetic through ``dft``."""
    omega, sigma = op.circulant_part.pattern, op.skew_part.pattern
    # Lambda[k] = sum_u c[u] e^{+2 pi i u k/n}; Lambdatilde is the DFT of
    # the half-rotated column s * dbar (D-conjugate modulation)
    lam_c = omega.diag + 1j * omega.anti
    lam_s = sigma.diag + 1j * sigma.anti
    dbar = np.exp(-1j * np.pi * np.arange(op.n) / op.n)

    def c_apply(diagvals, v):
        return dft(diagvals * dft(v, inverse=True))

    def s_apply(diagvals, v):
        return np.conj(dbar) * dft(diagvals * dft(dbar * v), inverse=True)

    def sweep(x):
        u = s_apply(theta - lam_s, x) + b
        w = dft(u, inverse=True)
        v = dft((theta - lam_c) / (theta + lam_c) * w) + b
        z = np.conj(dbar) * dft(dft(dbar * v) / (theta + lam_s), inverse=True)
        # a copy, so the solution does not keep the complex buffer alive
        return z.real.copy()

    def product(v):
        return (c_apply(lam_c, v) + s_apply(lam_s, v)).real

    return sweep, product


def iteration_matrix_rho(T: ToeplitzBands, theta: float) -> float:
    """Spectral radius of the CSCS iteration matrix, via dense eigenvalues.

    The iteration matrix is
    M(theta) = (theta I + S)^{-1} (theta I - C) (theta I + C)^{-1} (theta I - S);
    rho < 1 iff the iteration converges for every initial guess.  Dense
    O(n^3) work, guarded at n <= 4096.
    """
    n = T.n
    if n > RHO_DENSE_GUARD:
        raise ValueError(
            f"dense spectral radius is guarded at n <= {RHO_DENSE_GUARD}, got {n}")
    cpart, spart = cscs_split(T)
    C = dense_of(cpart)
    S = dense_of(spart)
    eye = np.eye(n)
    try:
        inner = np.linalg.solve(theta * eye + C, theta * eye - S)
        M = np.linalg.solve(theta * eye + S, (theta * eye - C) @ inner)
    except np.linalg.LinAlgError as exc:
        raise SingularShiftError(
            f"shift theta={theta} makes theta*I+C or theta*I+S singular") from exc
    return float(np.abs(np.linalg.eigvals(M)).max())


def _factor_bound(pattern, theta):
    num = (theta - pattern.diag) ** 2 + pattern.anti ** 2
    den = (theta + pattern.diag) ** 2 + pattern.anti ** 2
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")  # 0/0 at an exactly singular grid point
        vals = np.sqrt(num / den)
    return float(np.max(vals))


def theta_scan(T: ToeplitzBands, grid) -> tuple[float, np.ndarray]:
    """Evaluate the contraction upper bound over a grid of shifts.

    For normal C and S the iteration matrix norm is bounded by the
    product of max_k sqrt(((theta-a)^2+b^2) / ((theta+a)^2+b^2)) over
    the two spectra; the bound is contractive when both parts are
    positive definite.  Returns the grid point minimizing the product
    (ties broken toward the smallest theta) plus all evaluated bounds.
    This is a parameter-picking convenience, not an optimality claim.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("theta grid must be a nonempty 1-d vector")
    if not np.all(grid > 0):
        raise ValueError("theta grid entries must be positive")
    op = ToeplitzOperator.from_bands(T)
    omega, sigma = op.circulant_part.pattern, op.skew_part.pattern
    bounds = np.array([_factor_bound(omega, th) * _factor_bound(sigma, th)
                       for th in grid])
    best = np.lexsort((grid, bounds))[0]
    return float(grid[best]), bounds
