"""Real Schur forms of real circulant and skew-circulant matrices.

A real circulant C factors as C = U @ Omega @ U.T and a real
skew-circulant S as S = Utilde @ Sigma @ Utilde.T, where U / Utilde are
real orthogonal and Omega / Sigma are cross-shaped ("X-pattern")
matrices: eigenvalue real parts on the diagonal, imaginary parts paired
on an anti-diagonal, zeros elsewhere.  Production code never builds U;
instead it uses the factorizations

    Q  @ U       = blockdiag(DCT,  J @ DST @ J)     (circulant side)
    Q.T @ Utilde = blockdiag(DCT', J @ DST' @ J)    (skew side)

with the O(n) orthogonal butterfly Q pairing entries j and n-j for
1 <= j <= h = (n-1)//2 and leaving the rest (index 0, and m = n/2 for
even n) unchanged:

    y[j] = (x[j] + x[n-j]) / sqrt2,   y[n-j] = (x[n-j] - x[j]) / sqrt2.

The cosine and sine blocks of U.T x are, up to scale, the real and
imaginary parts of one real DFT of x (the identity above read
backwards), so every basis change is that DFT: its half-spectrum
layout, the dispatch on side and parity, the core products and their
DFT counts are ``trig_transforms``'s (its module docstring).  This
module is the paper's real-Schur API on top of it, all O(n) work around
one ``_spectrum`` or ``_from_spectrum``: ``to_core`` (U.T x) and
``from_core`` (U y) scale the half spectrum into the core layout and
back, ``apply_block_transform`` is Q around them, ``real_spectrum``
reads a column's eigenvalues off one real DFT, and ``dtt_apply`` is one
block of the factor at n = L, the DFT embedding length of the
``trig_transforms`` table.  A basis change counts the DCT and the DST
it computes.

The core vector U.T x is read off the eigenvalues lambda (in DFT order)
of the circulant or skew-circulant whose first column is x, restored
from its half spectrum by ``trig_transforms._eigenvalues``.  With
hs = n - sine size (``_sine_size``), the cosine block holds the real
parts lambda.real[:hs] and the sine block the imaginary parts
lambda.imag[hs:], each over the norm of the cosine or sine vector its
column of U normalizes (``_core_scale``): sqrt(n) at the fixed points
of the pairing (0 and n/2 on the circulant side, (n-1)/2 on the skew
side) and sqrt(n/2) elsewhere.  The X-pattern entries are the same
eigenvalues unscaled: alpha[k] = lambda.real[k], k < hs, and beta is
lambda.imag at the first member of each pair, lambda[1..sine size] on
the circulant side and lambda[0..sine size - 1] on the skew side, so
beta[k] = -lambda.imag[n-1-k] on both.  The pairing is a reflection
(``_reflect``), so a core reads the partners of a vector by slicing,
never through an index table.  The sign of each beta is a convention
pinned by the congruence test
``U.T @ dense(M) @ U == expand(real_spectrum(...))`` rather than by any
eigenvalue labeling.  This module alone knows where the alphas and betas
sit in a half spectrum: ``real_spectrum`` reads them off one and
``_half_spectrum`` writes them back, both exactly.  The operators of
``fast_matvec`` hold the half spectrum itself, and no X-pattern.

A shifted core theta*I + X is inverted in O(n), and its inverse is again
an X-pattern: each pair of positions is a 2x2 block [[d, b], [-b, d]]
(d = theta + alpha, b = beta), which multiplies like d + ib, so its
inverse is [[d, -b], [b, d]] / (d^2 + b^2), entrywise 1 / (theta + lambda),
which ``trig_transforms._inverse_parts`` computes with its checks.
``xpattern_apply`` is the X-pattern product and takes no shift
((theta*I + X) y is theta*y + X y); ``xpattern_shifted_solve`` is its
product with the inverse pattern.

``dense_u_oracle`` materializes U / Utilde from the complex eigenvector
basis; it exists for tests and is never called by production paths.

Input contract (checks from ``structured_matrices``): ``XPattern`` and
``SpectralPair`` (when built), ``real_spectrum``, a shifted solve's
theta, the X of ``xpattern_apply`` and ``xpattern_shifted_solve``,
``dtt_apply``'s plan, every ``transposed`` flag (a bool, never read by
truthiness) and ``dense_u_oracle``'s size raise ValueError for a bool
(where a number is due), a non-number, the wrong shape or type and NaN
or Inf.  The products (``apply_q``,
``apply_block_transform``, ``to_core``/``from_core``, ``dtt_apply``,
``xpattern_apply``, the z of ``xpattern_shifted_solve``) check the shape
and the kind (a bool or complex array raises) and pass NaN and Inf through.
"""

from dataclasses import dataclass

import numpy as np

from .structured_matrices import _flag, _instance, _size, _vector
from .trig_transforms import (
    DttPlan, Family, Flavor, SingularShiftError, _column_spectrum, _count, _count_blocks,
    _eigenvalues, _from_spectrum, _inverse_parts, _sine_size, _spectrum, counting,
)

__all__ = [
    "SingularShiftError", "XPattern", "SpectralPair",
    "apply_q", "apply_block_transform", "dense_u_oracle", "dtt_apply", "from_core",
    "real_spectrum", "to_core", "xpattern_apply", "xpattern_shifted_solve",
]

_SQRT2 = np.sqrt(2.0)


def apply_q(x, transposed: bool = False) -> np.ndarray:
    """Apply the orthogonal butterfly Q (or Q.T) in O(n)."""
    x = _vector(x, "apply_q input", finite=False)
    _flag(transposed, "apply_q transposed")
    n = x.shape[0]
    h = (n - 1) // 2
    partner = _reflect("circulant", x)
    plus, minus = (np.subtract, np.add) if transposed else (np.add, np.subtract)
    y = x.copy()  # the fixed points: 0, and n/2 for even n
    y[1:h + 1] = plus(x[1:h + 1], partner[1:h + 1]) / _SQRT2
    y[n - h:] = minus(x[n - h:], partner[n - h:]) / _SQRT2
    return y


def _half_spectrum(side, n, alphas, betas):
    """The half spectrum whose eigenvalues have these alphas and betas."""
    m = n // 2
    if side == "circulant":  # conj(lambda[:m+1]); beta is 0 at 0 and at m
        half = alphas.astype(np.complex128)
        half.imag[1:1 + betas.shape[0]] = -betas
        return half
    # lambda[:m], copied exactly (alphas + 1j * betas turns -0.0 into 0.0);
    # lambda[n-1-j] = conj(lambda[j])
    lo = np.empty(m, dtype=np.complex128)
    lo.real, lo.imag = alphas[:m], betas
    if n % 2:  # lambda[m:]
        return np.concatenate((alphas[m:], np.conj(lo[::-1])))
    return np.concatenate((lo[0::2], np.conj(lo[1::2][::-1])))  # lambda[0::2]


def _core_scale(side: str, n: int) -> np.ndarray:
    """The norms of the cosine and sine vectors that U's columns normalize: sqrt(n)
    at the pairing's fixed points, sqrt(n/2) elsewhere."""
    j = np.arange(n)
    return np.where(_reflect(side, j) == j, np.sqrt(float(n)), np.sqrt(n / 2.0))


def to_core(side: str, x) -> np.ndarray:
    """U.T @ x: x's eigenvalues, real parts in the cosine block and imaginary parts
    in the sine block, each over the norm its column of U normalizes (``_core_scale``)."""
    x = _vector(x, "to_core input", finite=False)
    n = x.shape[0]
    _count_blocks(side, n)
    lam = _eigenvalues(side, n, _spectrum(side, x))
    hs = n - _sine_size(side, n)
    return np.concatenate((lam.real[:hs], lam.imag[hs:])) / _core_scale(side, n)


def from_core(side: str, y) -> np.ndarray:
    """U @ y: the core y as a half spectrum, and one inverse real DFT."""
    y = _vector(y, "from_core input", finite=False)
    n = y.shape[0]
    _count_blocks(side, n)
    v = y * _core_scale(side, n)
    hs = n - _sine_size(side, n)
    return _from_spectrum(side, _half_spectrum(side, n, v[:hs], -v[:hs - 1:-1]), n)


def apply_block_transform(side: str, x, transposed: bool = False) -> np.ndarray:
    """Apply the block-diagonal factor blockdiag(DCT, J @ DST @ J).

    ``side`` selects the circulant factor B = Q @ U or the skew factor
    Btilde = Q.T @ Utilde; the reversals J act on the sine block.  So
    B y = Q from_core(y) and B.T x = to_core(Q.T x), with Q and Q.T
    swapped on the skew side.
    """
    x = _vector(x, "block transform input", finite=False)
    skew = side == "skew"
    if _flag(transposed, "apply_block_transform transposed"):
        return to_core(side, apply_q(x, transposed=not skew))
    return apply_q(from_core(side, x), transposed=skew)


# family -> (side of its factor, L - 2s of its sine kind); the cosine
# kind's is the negative (the table in ``trig_transforms``)
_FACTORS = {Family.I: ("circulant", 2), Family.II: ("skew", 0),
            Family.V: ("circulant", 1), Family.VI: ("skew", 1)}


def dtt_apply(plan: DttPlan, x, transposed: bool = False) -> np.ndarray:
    """Apply M @ x (or M.T @ x) for the plan's transform matrix M.

    M is the cosine or the sine block of its factor at n = L, its DFT
    embedding length: x goes into that block (reversed in the sine
    block, for its J) with zeros elsewhere, and one real DFT of L points
    applies the factor.  Inside ``counting()`` it counts only itself.

    Cost: L is 2s - 2 to 2s + 2 for s = plan.size, so one transform runs
    a complex DFT of L/2 points at even L and of L points at odd L (a
    chirp convolution of about 4s points), not a transform of s points.
    No product or solver path calls it.
    """
    s = _instance(plan, DttPlan, "dtt_apply plan").size
    x = _vector(x, "vector", s, finite=False)
    _flag(transposed, "dtt_apply transposed")
    _count(plan.kind.flavor, s)
    if s == 1:
        return x.copy()
    side, grow = _FACTORS[plan.kind.family]
    cosine = plan.kind.flavor is Flavor.COSINE
    n = 2 * s - grow if cosine else 2 * s + grow
    hs = n - _sine_size(side, n)
    block = slice(None, hs) if cosine else slice(None, hs - 1, -1)
    v = np.zeros(n)
    v[block] = x
    with counting():  # the factor counts both of its blocks
        return apply_block_transform(side, v, transposed)[block].copy()


@dataclass(frozen=True, eq=False)
class XPattern:
    """Cross-shaped core matrix: X[j,j] = diag[j], X[j,partner(j)] = anti[j].

    ``pairing`` fixes the partner map, a reflection: (n-j) mod n for the
    circulant core Omega, n-1-j for the skew core Sigma.  Stored
    redundantly at full length so apply/solve stay branch-free; diag must
    be symmetric and anti antisymmetric across each pair, bit for bit (so
    anti is zero at fixed points).  ``diag`` and ``anti`` are read-only
    float64 copies of the arrays passed in, shared across products and solves.
    """

    n: int
    pairing: str
    diag: np.ndarray
    anti: np.ndarray

    def __post_init__(self):
        _size(self.n, "XPattern size n")
        for name in ("diag", "anti"):
            object.__setattr__(self, name,
                               _vector(getattr(self, name), f"XPattern {name}", self.n))
        if self.pairing not in ("circulant", "skew"):
            raise ValueError(f"unknown pairing {self.pairing!r}")
        if not (np.array_equal(self.diag, _reflect(self.pairing, self.diag))
                and np.array_equal(-self.anti, _reflect(self.pairing, self.anti))):
            raise ValueError("XPattern diag must be symmetric and anti antisymmetric")

    @property
    def partner(self) -> np.ndarray:
        return _reflect(self.pairing, np.arange(self.n))

    def dense(self) -> np.ndarray:
        out = np.diag(self.diag)
        out[np.arange(self.n), self.partner] += self.anti
        return out


def _reflect(pairing: str, v) -> np.ndarray:
    """v[partner]: v reversed (skew), or v[0] then v[1:] reversed (circulant)."""
    if pairing == "skew":
        return v[::-1]
    return np.concatenate((v[:1], v[:0:-1]))


@dataclass(frozen=True, eq=False)
class SpectralPair:
    """Half-spectrum (alpha, beta) of a circulant or skew-circulant matrix.

    Lengths follow the conjugate-pair orderings: circulant keeps
    alpha[0..m] with betas for the strictly interior pairs; skew keeps
    alpha[0..m-1] (plus the real middle eigenvalue when n is odd) and
    one beta per pair.  Checked when built: the kind is "circulant" or
    "skew", and ``alphas`` and ``betas`` are finite, of the lengths the
    layout fixes for n = len(alphas) + len(betas), and kept as read-only
    float64 copies of the arrays passed in.
    """

    alphas: np.ndarray
    betas: np.ndarray
    kind: str

    def __post_init__(self):
        n = _size(np.size(self.alphas) + np.size(self.betas), "SpectralPair size n")
        sine = _sine_size(self.kind, n)
        object.__setattr__(self, "alphas", _vector(self.alphas, "SpectralPair alphas", n - sine))
        object.__setattr__(self, "betas", _vector(self.betas, "SpectralPair betas", sine))

    @property
    def n(self) -> int:
        # every eigenvalue appears once: one alpha per conjugate-pair
        # representative or real eigenvalue, one beta per pair
        return self.alphas.shape[0] + self.betas.shape[0]

    def expand(self) -> XPattern:
        """Lossless expansion to the full-length X-pattern core."""
        lam = self.eigenvalues()
        return XPattern(self.n, self.kind, lam.real, lam.imag)

    def eigenvalues(self) -> np.ndarray:
        """Full complex eigenvalue multiset (conjugate pairs restored), in DFT order."""
        return _eigenvalues(self.kind, self.n,
                            _half_spectrum(self.kind, self.n, self.alphas, self.betas))


def real_spectrum(kind: str, col) -> SpectralPair:
    """Eigenvalue data of a circulant/skew-circulant from its first column.

    Reads them off one real DFT of the column; no dense matrix is formed.
    """
    col = _vector(col, "first column")
    n = col.shape[0]
    lam = _eigenvalues(kind, n, _column_spectrum(kind, col))
    k, sine = int(kind == "circulant"), _sine_size(kind, n)
    return SpectralPair(lam.real[:n - sine], lam.imag[k:k + sine], kind)


def _shifted_inverse(X: XPattern, theta: float) -> XPattern:
    """(theta*I + X)^-1 as an X-pattern: diag (theta + alpha)/det, anti -beta/det."""
    return XPattern(X.n, X.pairing, *_inverse_parts(theta, X.diag, X.anti))


def xpattern_apply(X: XPattern, y) -> np.ndarray:
    """O(n) product X y with an X-pattern core.

    X y = diag * y + anti * y[partner].  A shifted product is theta*y
    plus this one; a shifted solve is this product with the inverse
    pattern (``xpattern_shifted_solve``).
    """
    y = _vector(y, "vector", _instance(X, XPattern, "xpattern_apply X").n, finite=False)
    return X.diag * y + X.anti * _reflect(X.pairing, y)


def xpattern_shifted_solve(X: XPattern, theta: float, z) -> np.ndarray:
    """Solve (theta*I + X) y = z in O(n): the product with the inverse pattern.

    Each pair is a 2x2 system [[d, b], [-b, d]] (d = theta + alpha,
    b = beta, 0 at fixed points); ``_inverse_parts`` inverts and checks it.
    """
    _instance(X, XPattern, "xpattern_shifted_solve X")
    return xpattern_apply(_shifted_inverse(X, theta), z)


def dense_u_oracle(kind: str, n: int) -> np.ndarray:
    """Dense orthogonal U (circulant) or Utilde (skew) -- test oracle only.

    Columns are normalized real/imaginary parts of the complex
    eigenvector basis, ordered cosine columns first, then sine columns
    by descending frequency.  Uses complex arithmetic internally; never
    called from production paths.
    """
    _size(n, "dimension")
    j = np.arange(n)
    m = n // 2
    cols = []
    if kind == "circulant":
        # eigenvectors exp(-2 pi i j k / n); sine sign chosen so that
        # Q @ U equals blockdiag(DCT, J DST J) with positive blocks
        def c_col(k):
            return np.cos(2 * np.pi * j * k / n) / np.sqrt(n)

        def s_col(k):
            return -np.sin(2 * np.pi * j * k / n) / np.sqrt(n)

        cols.append(c_col(0))
        top = m if n % 2 == 0 else m + 1
        for k in range(1, top):
            cols.append(_SQRT2 * c_col(k))
        if n % 2 == 0 and n > 1:
            cols.append(c_col(m))
        for k in range((n - 1) // 2, 0, -1):
            cols.append(_SQRT2 * s_col(k))
    elif kind == "skew":
        def c_col(k):
            return np.cos(np.pi * (2 * k + 1) * j / n) / np.sqrt(n)

        def s_col(k):
            return np.sin(np.pi * (2 * k + 1) * j / n) / np.sqrt(n)

        for k in range(m):
            cols.append(_SQRT2 * c_col(k))
        if n % 2 == 1:
            cols.append(c_col(m))
        for k in range(m - 1, -1, -1):
            cols.append(_SQRT2 * s_col(k))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return np.column_stack(cols)
