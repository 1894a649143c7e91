"""CSCS stationary iteration for real positive-definite Toeplitz systems.

Splitting T = C + S, the two-half-step iteration with shift theta > 0 is

    (theta I + C) x^(k+1/2) = (theta I - S) x^(k)     + b,
    (theta I + S) x^(k+1)   = (theta I - C) x^(k+1/2) + b.

With (theta I - C)(theta I + C)^{-1} = 2 theta (theta I + C)^{-1} - I,
``cscs_solve`` runs one sweep as

    u       = theta x - S x + b,
    v       = 2 theta (theta I + C)^{-1} u - u + b,
    x^(k+1) = (theta I + S)^{-1} v,

three core products, the last of them S x^(k+1).  Its stopping test
uses T x = C x + S x and the next sweep's u reads the same S x, so a
sweep and its test cost four core products, and a backend gives the last
two, (C x, S x), from one call.  A solve is then three maps on either
backend: (theta I + C)^-1, (theta I + S)^-1 and v -> (C v, S v).  Each
of the four operators is U X U.T for an X-pattern core X held as its
half spectrum:
Omega and Sigma of ``ToeplitzOperator.from_bands`` (which also give the
positive-definiteness warnings), and the inverses of theta I + Omega and
theta I + Sigma, 1 / (theta + lambda) on those half spectra, once per
solve (the fail-fast singular-shift check).  No solve builds an X-pattern.

A backend only maps a core to the product x -> U X U.T x:

* ``dct_dst`` applies it in real arithmetic from the held half spectra,
  through the kernel of ``trig_transforms`` (its module docstring gives
  the layout and the DFT counts): each inverse is one ``_product``, one
  real DFT of x, one complex multiply and one inverse real DFT, and the
  pair is ``_products``, which at odd n gives both products from one
  complex DFT each way.  A sweep with its stopping test costs eight
  complex DFTs of n/2 points at even n and six of n points at odd n.
  The sweep counts the six DCTs and six DSTs of its three products'
  basis changes in a ``counting()`` block for the report: the pair
  counts those of S x, and C x is its stopping test's.  The four cores
  of a solve hold 4(n//2 + 1) complex values, half the 8n doubles of
  four X-patterns.  The residual's C x + S x is bitwise
  ``toeplitz_matvec`` at every n, which runs the same pair.
* ``fft`` is the complex reference: C = F Lambda F^* and
  S = Ftilde Lambdatilde Ftilde^* with Ftilde = D F^*,
  D = diag(1, e^{i pi/n}, ..., e^{i (n-1) pi/n}).  Its setup reads the
  eigenvalues in DFT order off each half spectrum (``_eigenvalues``),
  and conj D off ``_twist``, the table of the skew fold, and a product
  costs two complex DFTs of n points: six a sweep, eight with its
  stopping test.

Both backends perform the same exact-arithmetic update, so their iterate
sequences agree to rounding.

Iterations stop when ||b - T x^(k)||_2 <= tol * ||b - T x^(0)||_2
("converged"), after ``max_iters`` sweeps ("max_iters"), at the first
relative residual above 1/eps ("diverged": the residual has grown
1/eps-fold over the initial one, ||b|| when x^(0) = 0, so the rounding
in b - T x is as large as that initial residual and certifies nothing),
or at the first non-finite one ("non_finite", which a huge but finite b
can reach first); the report's ``stop_reason`` says which, and for
"diverged" and "non_finite" a warning names the sweep.  Residuals are
recomputed each sweep with the backend's own products, never recursively
updated; a nonzero x^(0)'s first residual reads the sweep's pair,
(C x^(0), S x^(0)), once more.  A norm whose squares overflow is
rescaled by the largest entry, so a finite b of any size solves like b
scaled down, and the shifted inverses are formed scale-free
(``trig_transforms._inverse_parts``), so T and theta times a power of two
solve in the same sweeps.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _dft
from .fast_matvec import ToeplitzOperator
from .structured_matrices import (
    ToeplitzBands, _flag, _instance, _number, _size, _vector, cscs_split, dense_of,
)
from .trig_transforms import (
    Flavor, SingularShiftError, _count_blocks, _eigenvalues, _product, _products, _twist,
    counting,
)

__all__ = [
    "SolverConfig", "SolveReport", "cscs_solve", "dft",
    "iteration_matrix_rho", "theta_scan", "RHO_DENSE_GUARD", "BACKENDS",
]

RHO_DENSE_GUARD = 4096
# a relative residual above 1/eps stops a solve as "diverged"
_DIVERGED = 1.0 / np.finfo(np.float64).eps


def dft(x, inverse: bool = False) -> np.ndarray:
    """Discrete Fourier transform for any length n >= 1 in O(n log n).

    Forward: X[k] = sum_j x[j] exp(-2 pi i j k / n) (unnormalized);
    inverse divides by n so that dft(dft(x), inverse=True) == x.
    Power-of-two lengths run a 32-point DFT-matrix leaf and radix-4
    stages directly, everything else goes through Bluestein's chirp
    reduction.
    """
    return _dft.idft_vector(x) if _flag(inverse, "dft inverse") else _dft.dft_vector(x)


BACKENDS = ("dct_dst", "fft")


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Shift, stopping rule and backend for ``cscs_solve``, checked when built; frozen.

    ``x0`` is kept as a read-only, finite, non-empty 1-d float64 copy,
    whose length ``cscs_solve`` checks against n; ``record_iterates`` must
    be a bool.
    """

    theta: float
    tol: float = 1e-7
    max_iters: int = 500
    backend: str = "dct_dst"
    x0: np.ndarray | None = None
    record_iterates: bool = False

    def __post_init__(self):
        _number(self.theta, "theta", positive=True)
        _number(self.tol, "tol", positive=True)
        _size(self.max_iters, "max_iters")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.x0 is not None:
            object.__setattr__(self, "x0", _vector(self.x0, "initial guess"))
        _flag(self.record_iterates, "record_iterates")


@dataclass(eq=False)
class SolveReport:
    """Outcome of one CSCS solve."""

    solution: np.ndarray
    iterations: int
    residuals: np.ndarray          # relative residual after each full sweep
    converged: bool
    stop_reason: str               # "converged", "max_iters", "diverged" or "non_finite"
    warnings: list = field(default_factory=list)
    iterates: list | None = None
    transform_counts: list | None = None   # per-sweep (n_dct, n_dst), dct_dst only
    transform_sizes: set | None = None     # transform sizes used by the sweeps


def _pd_warnings(op):
    notes = []
    for name, part in (("circulant", op.circulant_part),
                       ("skew-circulant", op.skew_part)):
        amin = float(part.spectrum.real.min())
        if amin <= 0:
            notes.append(
                f"{name} part is not positive definite (min eigenvalue real "
                f"part {amin:.6g}); convergence is not guaranteed")
    return notes


def cscs_solve(T: ToeplitzBands, b, cfg: SolverConfig) -> SolveReport:
    """Solve T x = b by the CSCS iteration.

    Raises :class:`SingularShiftError` when theta*I + C or theta*I + S
    is singular, its ``index`` a position in that part's ``spectrum``, and
    ``ValueError`` for a non-finite ``b``, an ``x0`` not of length n, a
    ``T`` that is not a ``ToeplitzBands`` or a ``cfg`` that is not a
    ``SolverConfig``.  Indefiniteness of C or S is only a recorded
    warning; the sweep proceeds regardless until the residual exceeds
    1/eps or stops being finite.

    An outer ``counting()`` block sees no sweep's transforms: each sweep
    counts in its own block, read into ``transform_counts``.  From a
    nonzero x0 it sees the setup pair's two skew basis changes (one DCT
    and one DST each way) and nothing more, since C x0, like every
    stopping test's C x, counts nothing; on ``fft`` it sees nothing.
    """
    n = _instance(T, ToeplitzBands, "T").n
    theta = _instance(cfg, SolverConfig, "cfg").theta
    b = _vector(b, "right-hand side", n)
    x = np.zeros(n) if cfg.x0 is None else _vector(cfg.x0, "initial guess", n, finite=False).copy()
    op = ToeplitzOperator.from_bands(T)
    notes = _pd_warnings(op)
    counted = cfg.backend == "dct_dst"
    c_inv, s_inv, products = _cores(op, theta, counted)
    # S x is a sweep's last product: its stopping test and the next sweep
    # both read it, so a sweep and its test cost four core products, the
    # last two, (C x, S x), from one call; a nonzero x0 starts from that call
    cx, sx = products(x) if x.any() else (0.0, np.zeros(n))
    r0 = _norm(b - (cx + sx))
    iterates = [x.copy()] if cfg.record_iterates else None
    counts, sizes = ([], set()) if counted else (None, None)
    residuals = []
    # a zero initial residual is a converged solve of zero sweeps
    stop = "max_iters" if r0 else "converged"
    while stop == "max_iters" and len(residuals) < cfg.max_iters:
        with counting() as used:
            u = theta * x - sx + b
            # (theta I - C)(theta I + C)^-1 = 2 theta (theta I + C)^-1 - I
            v = 2 * theta * c_inv(u) - u + b
            x = s_inv(v)
            cx, sx = products(x)
        if counted:
            dct = sum(k for (flavor, _), k in used.items() if flavor is Flavor.COSINE)
            counts.append((dct, used.total() - dct))
            sizes.update(size for _, size in used)
        if iterates is not None:
            iterates.append(x.copy())
        rel = _norm(b - (cx + sx)) / r0
        residuals.append(rel)
        if rel <= cfg.tol:
            stop = "converged"
        elif not np.isfinite(rel):
            # every later sweep would only carry the NaN or Inf along
            notes.append(f"relative residual is {rel} after sweep {len(residuals)}; "
                         "stopped")
            stop = "non_finite"
        elif rel > _DIVERGED:
            # grown 1/eps-fold over the initial residual: the rounding in
            # b - T x is as large as it, so the residual certifies nothing
            notes.append(f"relative residual {rel:.6g} exceeds 1/eps after sweep "
                         f"{len(residuals)}; stopped")
            stop = "diverged"
    return SolveReport(x, len(residuals), np.array(residuals), stop == "converged",
                       stop, notes, iterates, counts, sizes)


def _norm(v):
    """||v||_2, also for a finite v whose squared entries overflow (about 1e154 up).

    ``np.linalg.norm`` sums the squares, so only an inf it returns for a
    finite v is recomputed, scaled by max |v|; every other norm is its own.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if np.isinf(norm) and np.isfinite(scale := np.abs(v).max()):
        norm = scale * np.linalg.norm(v / scale)
    return norm


def _cores(op, theta, real):
    """The three maps of a solve: (theta I + C)^-1, (theta I + S)^-1 and v -> (C v, S v).

    The inverses are computed on the half spectra of C and S, so a
    singular shift raises before the first sweep.  On ``dct_dst`` each
    inverse is one ``_product`` on its held spectrum, and the pair is
    ``_products``: at odd n one complex DFT each way gives both.  The
    pair counts the two basis changes of S v, the sweep's last product;
    C v is its stopping test's and counts nothing.
    """
    parts = (op.circulant_part, op.skew_part)
    parts += tuple(part._shifted_inverse(theta) for part in parts)
    if real:
        cs, ss, ci, si = (part.spectrum for part in parts)

        def products(v):
            _count_blocks("skew", op.n, 2)  # U.T and U of S v
            return _products(cs, ss, v)

        return (lambda v: _product("circulant", ci, v), lambda v: _product("skew", si, v),
                products)
    # Ftilde = D F^*: the skew side runs the circulant product on the
    # D-modulated vector, and conj D is the skew fold's twist table; D is
    # its conjugate, taken once a solve
    n = op.n
    dbar = _twist(n)
    d = np.conj(dbar)

    def core(part):
        # the eigenvalues in DFT order; each product returns a real copy,
        # so no result keeps its complex buffer alive
        lam = _eigenvalues(part.kind, n, part.spectrum)
        if part.kind == "circulant":
            return lambda v: dft(lam * dft(v, inverse=True)).real.copy()
        return lambda v: (d * dft(lam * dft(dbar * v), inverse=True)).real.copy()

    c, s, c_inv, s_inv = map(core, parts)
    return c_inv, s_inv, lambda v: (c(v), s(v))


def iteration_matrix_rho(T: ToeplitzBands, theta: float) -> float:
    """Spectral radius of the CSCS iteration matrix, via dense eigenvalues.

    The iteration matrix is
    M(theta) = (theta I + S)^{-1} (theta I - C) (theta I + C)^{-1} (theta I - S);
    rho < 1 iff the iteration converges for every initial guess.  Dense
    O(n^3) work, guarded at n <= 4096.
    """
    _number(theta, "theta", positive=True)
    n = _instance(T, ToeplitzBands, "T").n
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


def _factor_bound(re, im2, theta):
    # an eigenvalue and its conjugate give the same ratio, and the half
    # spectrum holds one of each pair: re and im2 = im**2 of its entries
    num = theta - re
    num *= num
    num += im2
    den = theta + re
    den *= den
    den += im2
    # num / 0 = inf at an exactly singular grid point (num = 4 theta^2 > 0
    # there); errstate is per thread, unlike the process-wide warning filters
    with np.errstate(divide="ignore"):
        num /= den
    # sqrt is monotone and correctly rounded: the max of the roots, bit for bit
    return float(np.sqrt(num.max()))


def theta_scan(T: ToeplitzBands, grid) -> tuple[float, np.ndarray]:
    """Evaluate the contraction upper bound over a grid of shifts.

    For normal C and S the iteration matrix norm is bounded by the
    product of max_k sqrt(((theta-a)^2+b^2) / ((theta+a)^2+b^2)) over
    the two spectra; the bound is contractive when both parts are
    positive definite.  Returns the grid point minimizing the product
    (ties broken toward the smallest theta) plus all evaluated bounds.
    This is a parameter-picking convenience, not an optimality claim.
    The spectra and the grid are scaled by the one power of two that
    takes the spectra's largest part to [1/2, 1), which is exact and
    leaves every ratio as it was, before anything is squared; a scaled
    shift past 2^500 is clamped there, where its bound rounds to 1.
    """
    grid = _vector(grid, "theta grid")
    if not (grid > 0).all():
        raise ValueError("theta grid entries must be positive")
    op = ToeplitzOperator.from_bands(T)
    spectra = (op.circulant_part.spectrum, op.skew_part.spectrum)
    k = -np.frexp(max(max(np.abs(h.real).max(), np.abs(h.imag).max()) for h in spectra))[1]
    (cre, cim2), (sre, sim2) = ((np.ldexp(h.real, k), np.ldexp(h.imag, k) ** 2) for h in spectra)
    bounds = np.array([_factor_bound(cre, cim2, th) * _factor_bound(sre, sim2, th)
                       for th in np.minimum(np.ldexp(grid, k), 2.0 ** 500)])
    best = np.lexsort((grid, bounds))[0]
    return float(grid[best]), bounds
