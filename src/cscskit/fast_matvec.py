"""O(n log n) real-arithmetic structured matrix-vector products.

A circulant or skew-circulant product is the real Schur form read right
to left,

    C @ x = U @ Omega @ U.T @ x,      S @ x = Utilde @ Sigma @ Utilde.T @ x.

The cosine and sine blocks of U.T x are, up to scale, the real and
imaginary parts of one real DFT of x (criterion 3's block identity
Q U = blockdiag(DCT, J DST J) read backwards), and the X-pattern core is
that DFT's halfcomplex layout.  So an operator holds only its
floor(n/2) + 1 eigenvalues, in the layout its product reads, and each
product is one real DFT, one complex multiply and one inverse.  With
lambda the eigenvalues in DFT order and m = n // 2:

    C x = irdft(conj(lambda[:m+1]) * rdft(x), n);
    S x, even n: fold z = (x[:m] - i x[m:]) e^(-i pi j/n), one m-point DFT,
         times lambda[0::2], the inverse, times e^(i pi j/n), and unfold
         [Re, -Im];
    S x, odd n:  irdft(lambda[m:] * rdft(s x), n) * s,  s = (-1)^j.

A real DFT of even n is one complex DFT of n/2 points, of odd n one of n
points (``trig_transforms``).  Each product counts what its two basis
changes compute, one DCT and one DST each at the block sizes, in
``counting()``, so a sweep still reads six DCTs and six DSTs.  The half
spectrum is (n//2 + 1) complex values, half the 2n doubles of an
X-pattern core; ``pattern`` expands it on demand.  A Toeplitz product is
the sum of the two through the splitting T = C + S.

Operators are immutable; two products with the same operator and input
are bitwise identical.
"""

from dataclasses import dataclass

import numpy as np

from .real_schur import SpectralPair, XPattern, _sine_size, real_spectrum
from .structured_matrices import (
    CirculantCol, SkewCirculantCol, ToeplitzBands, _vector, cscs_split,
)
from .trig_transforms import (
    Flavor, _count, _folded_dft, _folded_idft, _irdft, _rdft,
)

__all__ = [
    "CirculantOperator", "ToeplitzOperator",
    "circulant_matvec", "skew_circulant_matvec", "toeplitz_matvec",
]


def _half_spectrum(kind, n, alphas, betas):
    """The product's half spectrum from a SpectralPair's alphas and betas."""
    m = n // 2
    if kind == "circulant":  # conj(lambda[:m+1]); beta is 0 at 0 and at m
        half = alphas.astype(np.complex128)
        np.negative(betas, out=half.imag[1:1 + betas.shape[0]])
    else:
        # lambda[:m], copied exactly (alphas + 1j * betas turns -0.0 into 0.0);
        # lambda[n-1-j] = conj(lambda[j])
        lo = np.empty(m, dtype=np.complex128)
        lo.real, lo.imag = alphas[:m], betas
        if n % 2:  # lambda[m:]
            half = np.concatenate((alphas[m:], np.conj(lo[::-1])))
        else:  # lambda[0::2]
            half = np.concatenate((lo[0::2], np.conj(lo[1::2][::-1])))
    half.flags.writeable = False
    return half


def _spectral_pair(kind, n, half):
    """The SpectralPair that ``_half_spectrum`` read, exactly."""
    m = n // 2
    if kind == "circulant":
        return SpectralPair(half.real, -half.imag[1:1 + (n - 1) // 2], kind)
    if n % 2:
        lo = np.conj(half[:0:-1])
        return SpectralPair(np.append(lo.real, half[0].real), lo.imag, kind)
    c = (m + 1) // 2
    lo = np.empty(m, dtype=np.complex128)
    lo[0::2] = half[:c]
    lo[1::2] = np.conj(half[:c - 1:-1])
    return SpectralPair(lo.real, lo.imag, kind)


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
        n, kind = pattern.n, pattern.pairing
        k, sine = int(kind == "circulant"), _sine_size(kind, n)
        self._hold(kind, n, pattern.diag[:n - sine], pattern.anti[k:k + sine])

    def _hold(self, kind, n, alphas, betas):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "spectrum", _half_spectrum(kind, n, alphas, betas))

    @classmethod
    def _of(cls, pair: SpectralPair) -> "CirculantOperator":
        op = object.__new__(cls)
        op._hold(pair.kind, pair.n, pair.alphas, pair.betas)
        return op

    @property
    def pattern(self) -> XPattern:
        """The X-pattern core, expanded from the half spectrum."""
        return _spectral_pair(self.kind, self.n, self.spectrum).expand()

    @classmethod
    def from_circulant(cls, col) -> "CirculantOperator":
        col = col.col if isinstance(col, CirculantCol) else col
        return cls._of(real_spectrum("circulant", col))

    @classmethod
    def from_skew_circulant(cls, col) -> "CirculantOperator":
        col = col.col if isinstance(col, SkewCirculantCol) else col
        return cls._of(real_spectrum("skew", col))


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
        c, s = cscs_split(T)
        return cls(CirculantOperator.from_circulant(c),
                   CirculantOperator.from_skew_circulant(s))

    @property
    def n(self) -> int:
        return self.circulant_part.n


def _alternated(x):
    """x * (-1)^j as a new array."""
    y = np.array(x, dtype=np.float64)
    y[1::2] *= -1.0
    return y


def _core_product(op, x, kind):
    """U @ core @ U.T @ x for the operator's side, through its half spectrum."""
    if not isinstance(op, CirculantOperator):
        raise ValueError(f"{kind} product operator must be a CirculantOperator, got {op!r}")
    if op.kind != kind:
        raise ValueError(f"operator holds a {op.kind} spectrum, expected {kind}")
    n = op.n
    x = _vector(x, "vector", n, finite=False)
    # U.T and U: one DCT and one DST each, at the block sizes
    sine = _sine_size(kind, n)
    _count(Flavor.COSINE, n - sine, 2)
    if sine:
        _count(Flavor.SINE, sine, 2)
    if kind == "circulant":
        return _irdft(op.spectrum * _rdft(x), n)
    if n % 2 == 0:
        return _folded_idft(op.spectrum * _folded_dft(x))
    y = _irdft(op.spectrum * _rdft(_alternated(x)), n)
    y[1::2] *= -1.0
    return y


def circulant_matvec(op: CirculantOperator, x) -> np.ndarray:
    """C @ x: one real DFT, the half-spectrum multiply and the inverse."""
    return _core_product(op, x, "circulant")


def skew_circulant_matvec(op: CirculantOperator, x) -> np.ndarray:
    """S @ x: one folded (even n) or sign-alternated (odd n) real DFT, multiply, inverse."""
    return _core_product(op, x, "skew")


def toeplitz_matvec(op: ToeplitzOperator, x) -> np.ndarray:
    """T @ x = C @ x + S @ x."""
    if not isinstance(op, ToeplitzOperator):
        raise ValueError(f"toeplitz_matvec operator must be a ToeplitzOperator, got {op!r}")
    return (circulant_matvec(op.circulant_part, x)
            + skew_circulant_matvec(op.skew_part, x))
