"""Real Schur forms of real circulant and skew-circulant matrices.

A real circulant C factors as C = U @ Omega @ U.T and a real
skew-circulant S as S = Utilde @ Sigma @ Utilde.T, where U / Utilde are
real orthogonal and Omega / Sigma are cross-shaped ("X-pattern")
matrices: eigenvalue real parts on the diagonal, imaginary parts paired
on an anti-diagonal, zeros elsewhere.  Production code never builds U;
instead it uses the factorizations

    Q  @ U       = blockdiag(DCT,  J @ DST @ J)     (circulant side)
    Q.T @ Utilde = blockdiag(DCT', J @ DST' @ J)    (skew side)

with the O(n) orthogonal butterfly Q pairing entries j and n-j:

    even n = 2m:  y[0] = x[0];  y[j]   = (x[j]   + x[n-j]) / sqrt2, 1 <= j <= m-1
                  y[m] = x[m];  y[m+k] = (x[m+k] - x[m-k]) / sqrt2, 1 <= k <= m-1
    odd  n = 2m+1: y[0] = x[0]; y[j]   = (x[j]   + x[n-j]) / sqrt2, 1 <= j <= m
                                y[m+k] = (x[m+k] - x[m+1-k]) / sqrt2, 1 <= k <= m

The transform families in the block factor depend on side and parity:
DCT-I/DST-I (circulant, even n), DCT-V/DST-V (circulant, odd n),
DCT-II/DST-II (skew, even n), DCT-VI/DST-VI (skew, odd n) -- always one
cosine and one sine block of about n/2 points each.

The X-pattern entries come straight out of one transformed first
column: with vhat = B.T @ Q @ col (circulant; B the block factor) the
recovery is

    alpha[0] = sqrt(n)   * vhat[0]            (column of U with unit weight)
    alpha[k] = sqrt(n/2) * vhat[k]            (paired columns, weight sqrt2)
    alpha[m] = sqrt(n)   * vhat[m]            (even n only)
    beta[k]  = -sqrt(n/2) * vhat[n-k]

and analogously for the skew side with uhat = Btilde.T @ Q.T @ col,
where the sqrt(n) slot is the middle column for odd n.  The sign of
each beta is a convention pinned by the congruence test
``U.T @ dense(M) @ U == expand(real_spectrum(...))`` rather than by any
eigenvalue labeling.

``dense_u_oracle`` materializes U / Utilde from the complex eigenvector
basis; it exists for tests and is never called by production paths.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .trig_transforms import (
    DCT_I, DCT_II, DCT_V, DCT_VI, DST_I, DST_II, DST_V, DST_VI,
    DttPlan, dtt_apply,
)

__all__ = [
    "SingularShiftError", "XPattern", "SpectralPair",
    "apply_q", "apply_block_transform", "dense_u_oracle", "real_spectrum",
    "xpattern_apply", "xpattern_shifted_solve",
]

_SQRT2 = np.sqrt(2.0)


class SingularShiftError(ValueError):
    """A shifted core theta*I + X is singular at some pattern position."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


def apply_q(x, transposed: bool = False) -> np.ndarray:
    """Apply the orthogonal butterfly Q (or Q.T) in O(n)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError("apply_q expects a nonempty vector")
    n = x.shape[0]
    if n == 1:
        return x.copy()
    m = n // 2
    y = np.empty_like(x)
    y[0] = x[0]
    if n % 2 == 0:
        y[m] = x[m]
        head, tail = x[1:m], x[m + 1:]
        rhead, rtail = x[m - 1:0:-1], x[n - 1:m:-1]
        if not transposed:
            y[1:m] = (head + rtail) / _SQRT2
            y[m + 1:] = (tail - rhead) / _SQRT2
        else:
            y[1:m] = (head - rtail) / _SQRT2
            y[m + 1:] = (tail + rhead) / _SQRT2
    else:
        head, tail = x[1:m + 1], x[m + 1:]
        rhead, rtail = x[m:0:-1], x[n - 1:m:-1]
        if not transposed:
            y[1:m + 1] = (head + rtail) / _SQRT2
            y[m + 1:] = (tail - rhead) / _SQRT2
        else:
            y[1:m + 1] = (head - rtail) / _SQRT2
            y[m + 1:] = (tail + rhead) / _SQRT2
    return y


@lru_cache(maxsize=None)
def _block_plans(side: str, n: int):
    """(cosine plan, sine plan, head size) for the block factor at size n."""
    m = n // 2
    if side == "circulant":
        if n % 2 == 0:
            cos_plan = DttPlan(DCT_I, m + 1)
            sin_plan = DttPlan(DST_I, m - 1) if m >= 2 else None
        else:
            cos_plan = DttPlan(DCT_V, m + 1)
            sin_plan = DttPlan(DST_V, m) if m >= 1 else None
        return cos_plan, sin_plan, cos_plan.size
    if side == "skew":
        if n % 2 == 0:
            cos_plan = DttPlan(DCT_II, m)
            sin_plan = DttPlan(DST_II, m)
        else:
            cos_plan = DttPlan(DCT_VI, m + 1)
            sin_plan = DttPlan(DST_VI, m) if m >= 1 else None
        return cos_plan, sin_plan, cos_plan.size
    raise ValueError(f"unknown side {side!r}")


def apply_block_transform(side: str, x, transposed: bool = False) -> np.ndarray:
    """Apply the block-diagonal factor blockdiag(DCT, J @ DST @ J).

    ``side`` selects the circulant factor B = Q @ U or the skew factor
    Btilde = Q.T @ Utilde; the reversals J act on the sine block.  The
    transpose is applied blockwise when requested.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError("apply_block_transform expects a nonempty vector")
    cos_plan, sin_plan, hs = _block_plans(side, x.shape[0])
    y = np.empty_like(x)
    y[:hs] = dtt_apply(cos_plan, x[:hs], transposed)
    if sin_plan is not None:
        y[hs:] = dtt_apply(sin_plan, x[:hs - 1:-1], transposed)[::-1]
    return y


@dataclass(frozen=True)
class XPattern:
    """Cross-shaped core matrix: X[j,j] = diag[j], X[j,partner(j)] = anti[j].

    ``pairing`` fixes the partner map: (n-j) mod n for the circulant
    core Omega, n-1-j for the skew core Sigma.  Stored redundantly at
    full length so apply/solve stay branch-free; anti is zero at fixed
    points and antisymmetric across each pair.
    """

    n: int
    pairing: str
    diag: np.ndarray
    anti: np.ndarray

    @property
    def partner(self) -> np.ndarray:
        return _partner_indices(self.pairing, self.n)

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        j = np.arange(self.n)
        out[j, j] = self.diag
        out[j, self.partner] += self.anti
        return out


@lru_cache(maxsize=None)
def _partner_indices(pairing: str, n: int) -> np.ndarray:
    j = np.arange(n)
    if pairing == "circulant":
        p = (n - j) % n
    elif pairing == "skew":
        p = n - 1 - j
    else:
        raise ValueError(f"unknown pairing {pairing!r}")
    p.flags.writeable = False
    return p


@dataclass(frozen=True)
class SpectralPair:
    """Half-spectrum (alpha, beta) of a circulant or skew-circulant matrix.

    Lengths follow the conjugate-pair orderings: circulant keeps
    alpha[0..m] with betas for the strictly interior pairs; skew keeps
    alpha[0..m-1] (plus the real middle eigenvalue when n is odd) and
    one beta per pair.
    """

    alphas: np.ndarray
    betas: np.ndarray
    parity: str
    kind: str

    @property
    def n(self) -> int:
        # every eigenvalue appears once: one alpha per conjugate-pair
        # representative or real eigenvalue, one beta per pair
        return self.alphas.shape[0] + self.betas.shape[0]

    def expand(self) -> XPattern:
        """Lossless expansion to the full-length X-pattern core."""
        n = self.n
        diag = np.zeros(n)
        anti = np.zeros(n)
        if self.kind == "circulant":
            m = n // 2
            diag[0] = self.alphas[0]
            if n % 2 == 0 and n > 1:
                diag[m] = self.alphas[m]
            k = np.arange(1, (n - 1) // 2 + 1)
            diag[k] = self.alphas[k]
            diag[n - k] = self.alphas[k]
            anti[k] = self.betas
            anti[n - k] = -self.betas
            return XPattern(n, "circulant", diag, anti)
        m = n // 2
        k = np.arange(m)
        diag[k] = self.alphas[:m]
        diag[n - 1 - k] = self.alphas[:m]
        anti[k] = self.betas
        anti[n - 1 - k] = -self.betas
        if n % 2 == 1:
            diag[m] = self.alphas[m]
        return XPattern(n, "skew", diag, anti)

    def eigenvalues(self) -> np.ndarray:
        """Full complex eigenvalue multiset (conjugate pairs restored)."""
        x = self.expand()
        p = x.partner
        j = np.arange(x.n)
        return x.diag + 1j * np.where(p == j, 0.0, x.anti)


def real_spectrum(kind: str, col) -> SpectralPair:
    """Eigenvalue data of a circulant/skew-circulant from its first column.

    Costs one DCT and one DST of about n/2 points plus the O(n)
    butterfly; no dense matrix is formed.
    """
    col = np.asarray(col, dtype=np.float64)
    if col.ndim != 1 or col.shape[0] < 1:
        raise ValueError("real_spectrum expects a nonempty first column")
    n = col.shape[0]
    m = n // 2
    parity = "even" if n % 2 == 0 else "odd"
    half = np.sqrt(n / 2.0)
    full = np.sqrt(float(n))
    if kind == "circulant":
        vhat = apply_block_transform("circulant", apply_q(col), transposed=True)
        if parity == "even":
            alphas = np.concatenate(([full * vhat[0]], half * vhat[1:m],
                                     [full * vhat[m]]))
            betas = -half * vhat[n - 1:m:-1]
        else:
            alphas = np.concatenate(([full * vhat[0]], half * vhat[1:m + 1]))
            betas = -half * vhat[n - 1:m:-1]
        return SpectralPair(alphas, betas, parity, "circulant")
    if kind == "skew":
        uhat = apply_block_transform("skew", apply_q(col, transposed=True),
                                     transposed=True)
        if parity == "even":
            alphas = half * uhat[:m]
            betas = -half * uhat[n - 1:m - 1:-1]
        else:
            alphas = np.concatenate((half * uhat[:m], [full * uhat[m]]))
            betas = -half * uhat[n - 1:m:-1]
        return SpectralPair(alphas, betas, parity, "skew")
    raise ValueError(f"unknown kind {kind!r}")


def xpattern_apply(X: XPattern, shift: float, sign: str, y) -> np.ndarray:
    """O(n) product with the (optionally shifted) X-pattern core.

    sign='plus' gives (shift*I + X) y, 'minus' gives (shift*I - X) y,
    'none' gives the plain product X y (shift ignored).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.n,):
        raise ValueError(f"expected a vector of length {X.n}, got shape {y.shape}")
    cross = X.anti * y[X.partner]
    if sign == "plus":
        return (shift + X.diag) * y + cross
    if sign == "minus":
        return (shift - X.diag) * y - cross
    if sign == "none":
        return X.diag * y + cross
    raise ValueError(f"unknown sign {sign!r}")


def xpattern_shifted_solve(X: XPattern, theta: float, z) -> np.ndarray:
    """Solve (theta*I + X) y = z in O(n).

    Fixed points are scalar divisions; each pair is a 2x2 system
    [[d, b], [-b, d]] with determinant d^2 + b^2 (d = theta + alpha).
    The single vectorized formula (d*z - b*z[partner]) / (d^2 + b^2)
    covers both cases since b = 0 at fixed points.

    A position counts as singular when its determinant is within eps of
    the squared scale theta^2 + max(alpha^2 + beta^2), i.e. when the
    shifted eigenvalue |theta + lambda| is within sqrt(eps) of the
    spectrum's magnitude and rounding alone decides its size.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (X.n,):
        raise ValueError(f"expected a vector of length {X.n}, got shape {z.shape}")
    d = theta + X.diag
    det = d * d + X.anti * X.anti
    scale = theta * theta + np.max(X.diag * X.diag + X.anti * X.anti)
    bad = np.flatnonzero(det <= np.finfo(np.float64).eps * scale)
    if bad.size:
        j = int(bad[0])
        raise SingularShiftError(
            f"shift theta={theta} is singular at pattern index {j} "
            f"(alpha={X.diag[j]}, beta={X.anti[j]})", index=j)
    return (d * z - X.anti * z[X.partner]) / det


def dense_u_oracle(kind: str, n: int) -> np.ndarray:
    """Dense orthogonal U (circulant) or Utilde (skew) -- test oracle only.

    Columns are normalized real/imaginary parts of the complex
    eigenvector basis, ordered cosine columns first, then sine columns
    by descending frequency.  Uses complex arithmetic internally; never
    called from production paths.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
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
