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

This module is the one place that decides the side.  ``to_core`` (U.T x)
and ``from_core`` (U y) pair each side with its Q direction, and every
spectrum goes through them; ``fast_matvec``'s products and the solver
sweeps compute the same basis changes as one real DFT each, and count
them by the block sizes fixed here.  Everything else
follows from the sine-block size, (n-1)//2 on the circulant side and
n//2 on the skew side (``_sine_size``): the cosine block holds the other
entries, and the transform families are DCT-I/DST-I (circulant, even n),
DCT-V/DST-V (circulant, odd n), DCT-II/DST-II (skew, even n) and
DCT-VI/DST-VI (skew, odd n).

The X-pattern entries come straight out of one transformed first
column.  With vhat = to_core(side, col) and hs = n - sine size,

    alpha[k] = w[k] * vhat[k],            0 <= k < hs
    beta[k]  = -sqrt(n/2) * vhat[n-1-k],  0 <= k < sine size

where w is sqrt(n) at the fixed points of the pairing (columns of U with
unit weight: 0 and n/2 on the circulant side, (n-1)/2 on the skew side)
and sqrt(n/2) elsewhere.  The pairing is a reflection, so a core reads
the partners of a vector by slicing, never through an index table.  The
sign of each beta is a convention pinned by the congruence test
``U.T @ dense(M) @ U == expand(real_spectrum(...))`` rather than by any
eigenvalue labeling.

A shifted core theta*I + X is inverted in O(n), and its inverse is again
an X-pattern: each pair of positions is a 2x2 block [[d, b], [-b, d]]
(d = theta + alpha, b = beta), which multiplies like d + ib, so its
inverse is [[d, -b], [b, d]] / (d^2 + b^2).  ``_shifted_inverse`` checks
that theta is finite, runs the singular check and returns that pattern.
``xpattern_apply`` is the X-pattern product and takes no shift
((theta*I + X) y is theta*y + X y); ``xpattern_shifted_solve`` is its
product with the inverse pattern.  ``cscs_solve`` builds both inverse
patterns once per solve, so a singular shift fails before the first
sweep, and applies them as it applies Omega and Sigma, through its
backend's core product.

``dense_u_oracle`` materializes U / Utilde from the complex eigenvector
basis; it exists for tests and is never called by production paths.

Input contract (checks from ``structured_matrices``): ``XPattern``,
``real_spectrum``, a shifted solve's theta and ``dense_u_oracle``'s
size raise ValueError for a bool, a non-number, the
wrong shape and NaN or Inf.  The products (``apply_q``,
``apply_block_transform``, ``to_core``/``from_core``, ``xpattern_apply``,
the z of ``xpattern_shifted_solve``) check only the shape and pass NaN
and Inf through.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .structured_matrices import _number, _size, _vector
from .trig_transforms import (
    DCT_I, DCT_II, DCT_V, DCT_VI, DST_I, DST_II, DST_V, DST_VI,
    DttPlan, dtt_apply,
)

__all__ = [
    "SingularShiftError", "XPattern", "SpectralPair",
    "apply_q", "apply_block_transform", "dense_u_oracle", "from_core",
    "real_spectrum", "to_core", "xpattern_apply", "xpattern_shifted_solve",
]

_SQRT2 = np.sqrt(2.0)
# per-size tables kept at once: a process that meets many sizes must not
# hold tables for all of them
_CACHED_SIZES = 16


class SingularShiftError(ValueError):
    """A shifted core theta*I + X is singular at some pattern position."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


def apply_q(x, transposed: bool = False) -> np.ndarray:
    """Apply the orthogonal butterfly Q (or Q.T) in O(n)."""
    x = _vector(x, "apply_q input", finite=False)
    n = x.shape[0]
    h = (n - 1) // 2
    head, tail = x[1:h + 1], x[n - h:]
    plus, minus = (np.subtract, np.add) if transposed else (np.add, np.subtract)
    y = np.empty_like(x)
    # the fixed points: 0, and n/2 for even n
    y[0] = x[0]
    y[h + 1:n - h] = x[h + 1:n - h]
    y[1:h + 1] = plus(head, tail[::-1]) / _SQRT2
    y[n - h:] = minus(tail, head[::-1]) / _SQRT2
    return y


def _sine_size(side: str, n: int) -> int:
    """Size of the sine block: (n-1)//2 on the circulant side, n//2 on the skew side.

    It is the number of conjugate pairs, and it fixes the rest of the
    layout: the cosine block holds the other n - size entries, whose
    alphas come first in the core; the betas are the sine block reversed.
    """
    if side == "circulant":
        return (n - 1) // 2
    if side == "skew":
        return n // 2
    raise ValueError(f"unknown side {side!r}")


# (side, n % 2) -> (cosine kind, sine kind) of the block factor
_FAMILIES = {
    ("circulant", 0): (DCT_I, DST_I), ("circulant", 1): (DCT_V, DST_V),
    ("skew", 0): (DCT_II, DST_II), ("skew", 1): (DCT_VI, DST_VI),
}


@lru_cache(maxsize=_CACHED_SIZES)
def _block_plans(side: str, n: int):
    """(cosine plan, sine plan or None, cosine size) of the block factor at size n."""
    sine = _sine_size(side, n)
    cos_kind, sin_kind = _FAMILIES[side, n % 2]
    return (DttPlan(cos_kind, n - sine), DttPlan(sin_kind, sine) if sine else None,
            n - sine)


def apply_block_transform(side: str, x, transposed: bool = False) -> np.ndarray:
    """Apply the block-diagonal factor blockdiag(DCT, J @ DST @ J).

    ``side`` selects the circulant factor B = Q @ U or the skew factor
    Btilde = Q.T @ Utilde; the reversals J act on the sine block.  The
    transpose is applied blockwise when requested.
    """
    x = _vector(x, "block transform input", finite=False)
    cos_plan, sin_plan, hs = _block_plans(side, x.shape[0])
    y = np.empty_like(x)
    y[:hs] = dtt_apply(cos_plan, x[:hs], transposed)
    if sin_plan is not None:
        y[hs:] = dtt_apply(sin_plan, x[:hs - 1:-1], transposed)[::-1]
    return y


def to_core(side: str, x) -> np.ndarray:
    """U.T @ x: B.T @ Q @ x (circulant side) or Btilde.T @ Q.T @ x (skew side)."""
    return apply_block_transform(side, apply_q(x, transposed=(side == "skew")),
                                 transposed=True)


def from_core(side: str, y) -> np.ndarray:
    """U @ y: Q.T @ B @ y (circulant side) or Q @ Btilde @ y (skew side)."""
    return apply_q(apply_block_transform(side, y), transposed=(side != "skew"))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SpectralPair:
    """Half-spectrum (alpha, beta) of a circulant or skew-circulant matrix.

    Lengths follow the conjugate-pair orderings: circulant keeps
    alpha[0..m] with betas for the strictly interior pairs; skew keeps
    alpha[0..m-1] (plus the real middle eigenvalue when n is odd) and
    one beta per pair.  A record of ``real_spectrum``'s output: its
    numbers are checked when ``expand`` builds the XPattern.
    """

    alphas: np.ndarray
    betas: np.ndarray
    kind: str

    @property
    def n(self) -> int:
        # every eigenvalue appears once: one alpha per conjugate-pair
        # representative or real eigenvalue, one beta per pair
        return self.alphas.shape[0] + self.betas.shape[0]

    def expand(self) -> XPattern:
        """Lossless expansion to the full-length X-pattern core."""
        n, hs, s = self.n, self.alphas.shape[0], self.betas.shape[0]
        # circulant pairs start after the fixed point 0, skew pairs at 0;
        # the reflection fills the partners: diag past hs, the last s of anti
        k = int(self.kind == "circulant")
        diag, anti = np.zeros(n), np.zeros(n)
        diag[:hs] = self.alphas
        diag[hs:] = _reflect(self.kind, diag)[hs:]
        anti[k:k + s] = self.betas
        anti[n - s:] = -_reflect(self.kind, anti)[n - s:]
        return XPattern(n, self.kind, diag, anti)

    def eigenvalues(self) -> np.ndarray:
        """Full complex eigenvalue multiset (conjugate pairs restored)."""
        x = self.expand()
        return x.diag + 1j * x.anti  # anti is zero at the fixed points


def real_spectrum(kind: str, col) -> SpectralPair:
    """Eigenvalue data of a circulant/skew-circulant from its first column.

    Costs one DCT and one DST of about n/2 points plus the O(n)
    butterfly; no dense matrix is formed.
    """
    col = _vector(col, "first column")
    n = col.shape[0]
    hs = n - _sine_size(kind, n)
    vhat = to_core(kind, col)
    fixed = (_reflect(kind, np.arange(n)) == np.arange(n))[:hs]
    half = np.sqrt(n / 2.0)
    alphas = np.where(fixed, np.sqrt(float(n)), half) * vhat[:hs]
    betas = -half * vhat[n - 1:hs - 1:-1]
    return SpectralPair(alphas, betas, kind)


def _shifted_inverse(X: XPattern, theta: float) -> XPattern:
    """(theta*I + X)^-1 as an X-pattern: diag (theta + alpha)/det, anti -beta/det.

    Raises as ``xpattern_shifted_solve`` does: ValueError for a theta
    that is not a finite number, SingularShiftError for a singular position.
    """
    _number(theta, "shift theta")
    d = theta + X.diag
    det = d * d + X.anti * X.anti
    scale = theta * theta + np.max(X.diag * X.diag + X.anti * X.anti)
    bad = np.flatnonzero(det <= np.finfo(np.float64).eps * scale)
    if bad.size:
        j = int(bad[0])
        raise SingularShiftError(
            f"shift theta={theta} is singular at pattern index {j} "
            f"(alpha={X.diag[j]}, beta={X.anti[j]})", index=j)
    return XPattern(X.n, X.pairing, d / det, -X.anti / det)


def xpattern_apply(X: XPattern, y) -> np.ndarray:
    """O(n) product X y with an X-pattern core.

    X y = diag * y + anti * y[partner].  A shifted product is theta*y
    plus this one; a shifted solve is this product with the inverse
    pattern (``xpattern_shifted_solve``).
    """
    y = _vector(y, "vector", X.n, finite=False)
    return X.diag * y + X.anti * _reflect(X.pairing, y)


def xpattern_shifted_solve(X: XPattern, theta: float, z) -> np.ndarray:
    """Solve (theta*I + X) y = z in O(n).

    Each pair is a 2x2 system [[d, b], [-b, d]] with determinant
    d^2 + b^2 (d = theta + alpha); fixed points have b = 0.  The solve is
    the product with the inverse pattern, diag d / det and anti -b / det.

    A position counts as singular when its determinant is within eps of
    the squared scale theta^2 + max(alpha^2 + beta^2), i.e. when the
    shifted eigenvalue |theta + lambda| is within sqrt(eps) of the
    spectrum's magnitude and rounding alone decides its size.
    """
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
