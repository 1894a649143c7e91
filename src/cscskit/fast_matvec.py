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
from one ``_spectra`` on every call; ``_operator(T)`` builds them once
per ``ToeplitzBands`` and keeps them on it, and is where ``cscs_solve``
and ``theta_scan`` take them from.  No operator is built from an
X-pattern, and none expands to one.  The half spectrum is (n//2 + 1)
complex values, half the 2n doubles of an X-pattern core.

Operators are immutable; two products with the same operator and input
are bitwise identical.
"""

from dataclasses import dataclass

import numpy as np

from .structured_matrices import (
    CirculantCol, SkewCirculantCol, ToeplitzBands, _instance, _vector, cscs_split,
)
from .trig_transforms import (
    _column_spectra, _column_spectrum, _inverse_parts, _product, _toeplitz_product,
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
    lambda[m:] (skew, odd n).  Built by ``from_circulant``/``from_skew_circulant``
    from a first column, or by ``ToeplitzOperator.from_bands``; calling the
    class itself raises TypeError.
    """

    n: int
    kind: str
    spectrum: np.ndarray

    def __init__(self, *args, **kwargs):
        raise TypeError("build a CirculantOperator with from_circulant or from_skew_circulant")

    @classmethod
    def _of(cls, kind, n, spectrum) -> "CirculantOperator":
        """The operator holding this half spectrum, made read-only (a view is copied first)."""
        if spectrum.base is not None:  # a view keeps its whole base alive, and writable
            spectrum = spectrum.copy()
        spectrum.flags.writeable = False
        op = object.__new__(cls)
        object.__setattr__(op, "n", n)
        object.__setattr__(op, "kind", kind)
        object.__setattr__(op, "spectrum", spectrum)
        return op

    def _shifted_inverse(self, theta) -> "CirculantOperator":
        """(theta I + this)^-1: each held eigenvalue lambda becomes 1 / (theta + lambda)."""
        spectrum = np.empty_like(self.spectrum)
        spectrum.real, spectrum.imag = _inverse_parts(theta, self.spectrum.real,
                                                      self.spectrum.imag)
        return CirculantOperator._of(self.kind, self.n, spectrum)

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


def _operator(T) -> ToeplitzOperator:
    """T's operator: built by ``from_bands`` on first use and kept on T for the next."""
    if "_operator" not in vars(_instance(T, ToeplitzBands, "T")):
        # threads racing here build bitwise-equal operators; either one is kept
        object.__setattr__(T, "_operator", ToeplitzOperator.from_bands(T))
    return T._operator


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
