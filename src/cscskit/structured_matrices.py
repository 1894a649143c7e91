"""Compact Toeplitz / circulant / skew-circulant value types.

A Toeplitz matrix is constant along diagonals, T[j,k] = t[j-k], and is
stored as the 2n-1 coefficients t[-(n-1)..n-1].  A circulant wraps
around, C[j,k] = col[(j-k) mod n]; a skew-circulant flips the sign of
the wrapped entries, S[j,k] = col[j-k] for j >= k and -col[j-k+n]
otherwise.

``cscs_split`` realizes the splitting T = C + S with

    c[0] = s[0] = t[0] / 2,
    c[l] = (t[l] + t[l-n]) / 2,   s[l] = (t[l] - t[l-n]) / 2,   1 <= l < n,

which is exact in floating point (sums and differences halved), so the
reconstruction dense(C) + dense(S) == dense(T) holds entrywise.

``dense_of`` and ``naive_matvec`` are the O(n^2) oracles the fast paths
are tested against.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ToeplitzBands", "CirculantCol", "SkewCirculantCol",
    "toeplitz_from_bands", "cscs_split", "dense_of", "naive_matvec",
]


def _vector(values, what):
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError(f"{what} must be a nonempty 1-d real vector")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} must be finite (got NaN or Inf)")
    v = v.copy()
    v.flags.writeable = False
    return v


def _require_shape(values, shape, what):
    if np.shape(values) != shape:
        raise ValueError(f"{what} must have shape {shape}, got {np.shape(values)}")


@dataclass(frozen=True)
class ToeplitzBands:
    """Toeplitz matrix as diagonal coefficients t[-(n-1)] .. t[n-1], ascending."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        _require_shape(self.coeffs, (2 * self.n - 1,), "Toeplitz coeffs")

    def t(self, k: int) -> float:
        """Diagonal coefficient t[k], -(n-1) <= k <= n-1."""
        return float(self.coeffs[k + self.n - 1])


@dataclass(frozen=True)
class CirculantCol:
    """Circulant matrix identified by its first column."""

    n: int
    col: np.ndarray

    def __post_init__(self):
        _require_shape(self.col, (self.n,), "first column")


@dataclass(frozen=True)
class SkewCirculantCol:
    """Skew-circulant matrix identified by its first column."""

    n: int
    col: np.ndarray

    def __post_init__(self):
        _require_shape(self.col, (self.n,), "first column")


def toeplitz_from_bands(coeffs) -> ToeplitzBands:
    """Build a ToeplitzBands from a length-(2n-1) coefficient vector."""
    c = _vector(coeffs, "band coefficients")
    if c.shape[0] % 2 == 0:
        raise ValueError(
            f"band vector must have odd length 2n-1, got {c.shape[0]}")
    return ToeplitzBands((c.shape[0] + 1) // 2, c)


def cscs_split(T: ToeplitzBands) -> tuple[CirculantCol, SkewCirculantCol]:
    """Split T = C + S into circulant and skew-circulant parts (exact)."""
    n = T.n
    c = np.empty(n)
    s = np.empty(n)
    c[0] = s[0] = T.coeffs[n - 1] / 2.0
    if n > 1:
        pos = T.coeffs[n:]          # t[1] .. t[n-1]
        neg = T.coeffs[:n - 1]      # t[1-n] .. t[-1], i.e. t[l-n] at slot l-1
        c[1:] = (pos + neg) / 2.0
        s[1:] = (pos - neg) / 2.0
    c.flags.writeable = False
    s.flags.writeable = False
    return CirculantCol(n, c), SkewCirculantCol(n, s)


def dense_of(M) -> np.ndarray:
    """Full n x n materialization of any structured type (test oracle)."""
    if isinstance(M, ToeplitzBands):
        j = np.arange(M.n)
        return M.coeffs[(j[:, None] - j[None, :]) + M.n - 1]
    if isinstance(M, CirculantCol):
        j = np.arange(M.n)
        return M.col[(j[:, None] - j[None, :]) % M.n]
    if isinstance(M, SkewCirculantCol):
        j = np.arange(M.n)
        d = j[:, None] - j[None, :]
        return np.where(d >= 0, M.col[d % M.n], -M.col[(d + M.n) % M.n])
    raise TypeError(f"unsupported structured type {type(M).__name__}")


def naive_matvec(M, x) -> np.ndarray:
    """Exact O(n^2) dense product; ground truth for the fast paths."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (M.n,):
        raise ValueError(f"expected a vector of length {M.n}, got shape {x.shape}")
    return dense_of(M) @ x
