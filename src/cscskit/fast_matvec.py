"""O(n log n) real-arithmetic structured matrix-vector products.

A circulant or skew-circulant product is the real Schur form read right
to left,

    C @ x = U @ Omega @ U.T @ x,      S @ x = Utilde @ Sigma @ Utilde.T @ x.

The X-pattern core is the halfcomplex layout of one real DFT, so an
operator holds only its floor(n/2) + 1 eigenvalues, its half spectrum,
in the layout its product reads, and each product is one real DFT, one
complex multiply and one inverse.  The layout, the products and their
DFT counts are ``trig_transforms``'s (its module docstring): this module
holds the operators and checks the arguments of their products, which
call ``_product`` (C x or S x) and ``_toeplitz_product`` (T x = C x + S x
through the splitting T = C + S), and so count their basis changes, one
DCT and one DST each at the block sizes, in ``counting()``.
``from_circulant``/``from_skew_circulant`` build an operator from one
real DFT of its first column, and ``from_bands`` builds both spectra
from one ``_spectra``.  The half spectrum is (n//2 + 1) complex values,
half the 2n doubles of an X-pattern core; ``pattern`` expands it on
demand.

Operators are immutable; two products with the same operator and input
are bitwise identical.
"""

from dataclasses import dataclass

import numpy as np

from .real_schur import XPattern
from .structured_matrices import (
    CirculantCol, SkewCirculantCol, ToeplitzBands, _vector, cscs_split,
)
from .trig_transforms import (
    _column_spectra, _column_spectrum, _eigenvalues, _half_spectrum, _inverse_parts, _product,
    _sine_size, _toeplitz_product,
)

__all__ = [
    "CirculantOperator", "ToeplitzOperator",
    "circulant_matvec", "skew_circulant_matvec", "toeplitz_matvec",
]


@dataclass(frozen=True, init=False, eq=False)
class CirculantOperator:
    """Half spectrum of a circulant or skew-circulant matrix, in its product's layout.

    With lambda = diag + 1j*anti of the X-pattern core, the eigenvalues in
    DFT order (conj(dft(c)) for a circulant with first column c,
    dft(s * exp(-i pi k/n)) for a skew-circulant with first column s), and
    m = n // 2, ``spectrum`` is the read-only complex128 array
    conj(lambda[:m+1]) (circulant), lambda[0::2] (skew, even n) or
    lambda[m:] (skew, odd n).  Built from an XPattern, or by
    ``from_circulant``/``from_skew_circulant`` from a first column.
    """

    n: int
    kind: str
    spectrum: np.ndarray

    def __init__(self, pattern: XPattern):
        if not isinstance(pattern, XPattern):
            raise ValueError(f"CirculantOperator pattern must be an XPattern, got {pattern!r}")
        kind, n = pattern.pairing, pattern.n
        k, sine = int(kind == "circulant"), _sine_size(kind, n)
        # the alphas and betas of its eigenvalues (``real_schur.SpectralPair``)
        self._hold(kind, n, _half_spectrum(kind, n, pattern.diag[:n - sine],
                                           pattern.anti[k:k + sine]))

    def _hold(self, kind, n, spectrum):
        if spectrum.base is not None:  # a view keeps its whole base alive, and writable
            spectrum = spectrum.copy()
        spectrum.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "spectrum", spectrum)
        return self

    @classmethod
    def _of(cls, kind, n, spectrum) -> "CirculantOperator":
        return object.__new__(cls)._hold(kind, n, spectrum)

    def _shifted_inverse(self, theta) -> "CirculantOperator":
        """(theta I + this)^-1: each held eigenvalue lambda becomes 1 / (theta + lambda)."""
        spectrum = np.empty_like(self.spectrum)
        spectrum.real, spectrum.imag = _inverse_parts(theta, self.spectrum.real,
                                                      self.spectrum.imag)
        return CirculantOperator._of(self.kind, self.n, spectrum)

    @property
    def pattern(self) -> XPattern:
        """The X-pattern core, expanded from the half spectrum."""
        lam = _eigenvalues(self.kind, self.n, self.spectrum)
        return XPattern(self.n, self.kind, lam.real, lam.imag)

    @classmethod
    def from_circulant(cls, col) -> "CirculantOperator":
        """The circulant with this first column: one real DFT of it."""
        col = col.col if isinstance(col, CirculantCol) else _vector(col, "first column")
        return cls._of("circulant", col.shape[0], _column_spectrum("circulant", col))

    @classmethod
    def from_skew_circulant(cls, col) -> "CirculantOperator":
        """The skew-circulant with this first column: one real DFT of it."""
        col = col.col if isinstance(col, SkewCirculantCol) else _vector(col, "first column")
        return cls._of("skew", col.shape[0], _column_spectrum("skew", col))


@dataclass(frozen=True)
class ToeplitzOperator:
    """Toeplitz product T @ x = C @ x + S @ x via the CSCS splitting."""

    circulant_part: CirculantOperator
    skew_part: CirculantOperator

    def __post_init__(self):
        for name, kind in (("circulant_part", "circulant"), ("skew_part", "skew")):
            part = getattr(self, name)
            if not (isinstance(part, CirculantOperator) and part.kind == kind):
                raise ValueError(f"ToeplitzOperator {name} must be a {kind} "
                                 f"CirculantOperator, got {part!r}")
        if self.circulant_part.n != self.skew_part.n:
            raise ValueError(f"ToeplitzOperator parts differ in size: "
                             f"{self.circulant_part.n} and {self.skew_part.n}")

    @classmethod
    def from_bands(cls, T: ToeplitzBands) -> "ToeplitzOperator":
        """C and S of the CSCS split, both spectra from one ``_spectra`` (one DFT at odd n)."""
        c, s = (part.col for part in cscs_split(T))
        hc, hs = _column_spectra(c, s)
        return cls(CirculantOperator._of("circulant", T.n, hc),
                   CirculantOperator._of("skew", T.n, hs))

    @property
    def n(self) -> int:
        return self.circulant_part.n


def _core_product(op, x, kind):
    """U @ core @ U.T @ x for the operator's side, through its half spectrum."""
    if not isinstance(op, CirculantOperator):
        raise ValueError(f"{kind} product operator must be a CirculantOperator, got {op!r}")
    if op.kind != kind:
        raise ValueError(f"operator holds a {op.kind} spectrum, expected {kind}")
    return _product(kind, op.spectrum, _vector(x, "vector", op.n, finite=False))


def circulant_matvec(op: CirculantOperator, x) -> np.ndarray:
    """C @ x: one real DFT, the half-spectrum multiply and the inverse."""
    return _core_product(op, x, "circulant")


def skew_circulant_matvec(op: CirculantOperator, x) -> np.ndarray:
    """S @ x: one folded (even n) or sign-alternated (odd n) real DFT, multiply, inverse."""
    return _core_product(op, x, "skew")


def toeplitz_matvec(op: ToeplitzOperator, x) -> np.ndarray:
    """T @ x = C @ x + S @ x: at odd n one DFT gives both spectra and one both inverses."""
    if not isinstance(op, ToeplitzOperator):
        raise ValueError(f"toeplitz_matvec operator must be a ToeplitzOperator, got {op!r}")
    x = _vector(x, "vector", op.n, finite=False)
    return _toeplitz_product(op.circulant_part.spectrum, op.skew_part.spectrum, x)
