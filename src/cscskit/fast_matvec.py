"""O(n log n) real-arithmetic structured matrix-vector products.

A circulant or skew-circulant product runs entirely through real
transforms, as the real Schur form read right to left:

    C @ x = U @ Omega @ U.T @ x,      S @ x = Utilde @ Sigma @ Utilde.T @ x,

with U.T and U applied by ``real_schur.to_core`` and ``from_core`` (the
butterfly Q or Q.T plus one DCT and one DST of about n/2 points each).
So each product costs two DCTs and two DSTs plus O(n) butterflies and
core multiplies; the spectrum costs one more of each, which operators
amortize across calls.  A Toeplitz product is the sum of the two
through the splitting T = C + S.

Operators are immutable; two products with the same operator and input
are bitwise identical.
"""

from dataclasses import dataclass

import numpy as np

from .real_schur import XPattern, from_core, real_spectrum, to_core, xpattern_apply
from .structured_matrices import CirculantCol, SkewCirculantCol, ToeplitzBands, cscs_split

__all__ = [
    "CirculantOperator", "ToeplitzOperator",
    "circulant_matvec", "skew_circulant_matvec", "toeplitz_matvec",
]


@dataclass(frozen=True)
class CirculantOperator:
    """Precomputed spectral core for a circulant or skew-circulant matrix.

    The core holds the eigenvalues in DFT order: diag + 1j*anti is
    conj(dft(c)) for a circulant with first column c, and
    dft(s * exp(-i pi k/n)) for a skew-circulant with first column s.
    """

    pattern: XPattern

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def kind(self) -> str:
        return self.pattern.pairing

    @classmethod
    def from_circulant(cls, col) -> "CirculantOperator":
        col = col.col if isinstance(col, CirculantCol) else col
        return cls(real_spectrum("circulant", col).expand())

    @classmethod
    def from_skew_circulant(cls, col) -> "CirculantOperator":
        col = col.col if isinstance(col, SkewCirculantCol) else col
        return cls(real_spectrum("skew", col).expand())


@dataclass(frozen=True)
class ToeplitzOperator:
    """Toeplitz product T @ x = C @ x + S @ x via the CSCS splitting."""

    circulant_part: CirculantOperator
    skew_part: CirculantOperator

    @classmethod
    def from_bands(cls, T: ToeplitzBands) -> "ToeplitzOperator":
        c, s = cscs_split(T)
        return cls(CirculantOperator.from_circulant(c),
                   CirculantOperator.from_skew_circulant(s))

    @property
    def n(self) -> int:
        return self.circulant_part.n


def _core_product(op, x, kind):
    """U @ core @ U.T @ x for the operator's side."""
    if op.kind != kind:
        raise ValueError(f"operator holds a {op.kind} spectrum, expected {kind}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.n,):
        raise ValueError(f"expected a vector of length {op.n}, got shape {x.shape}")
    return from_core(kind, xpattern_apply(op.pattern, 0.0, "none", to_core(kind, x)))


def circulant_matvec(op: CirculantOperator, x) -> np.ndarray:
    """C @ x through the real Schur form C = U @ Omega @ U.T."""
    return _core_product(op, x, "circulant")


def skew_circulant_matvec(op: CirculantOperator, x) -> np.ndarray:
    """S @ x through the real Schur form S = Utilde @ Sigma @ Utilde.T."""
    return _core_product(op, x, "skew")


def toeplitz_matvec(op: ToeplitzOperator, x) -> np.ndarray:
    """T @ x = C @ x + S @ x."""
    return (circulant_matvec(op.circulant_part, x)
            + skew_circulant_matvec(op.skew_part, x))
