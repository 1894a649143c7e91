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
backwards), so this module computes every basis change as that DFT, and
it is the one place that decides the side.  ``_spectrum`` maps a real x
of length n to its half spectrum, n//2 + 1 complex values at most, and
``_from_spectrum`` maps it back.  With lambda the eigenvalues, in DFT
order, of the circulant or skew-circulant whose first column is x, and
m = n // 2, the half spectrum is conj(lambda[:m+1]) on the circulant
side (``_rdft(x)``), lambda[0::2] on the skew side at even n (the fold
``_folded_dft(x)``) and lambda[m:] at odd n (``_rdft`` of x (-1)^j).
``_spectra`` does the same for one circulant and one skew vector at
once: at odd n both sides are real DFTs of n points, so one complex DFT
carries the pair (``_rdft_pair``), and one more maps two half spectra
back to the sum of their vectors (``_irdft_pair``); at even n
``_spectra`` runs each side on its own.

Every fast product is computed here, as U @ core @ U.T @ x read right to
left: ``_product`` is one ``_spectrum``, the multiply by the core's half
spectrum and one ``_from_spectrum``, and ``_products`` is (C x, S x),
one side after the other at even n and through the pair at odd n, where
it costs two complex DFTs of n points instead of four.
``_toeplitz_product`` is their sum.  The CSCS sweep calls ``_product``
for its two shifted inverses and ends with the pair (S x_new for the
next sweep, C x_new for its stopping test), which also starts a solve
from a nonzero x0, all on the spectra it holds.
``_product`` and ``_toeplitz_product`` count their basis changes and run
the uncounted kernels ``_side_product`` and ``_products``; ``fast_matvec``
only checks their arguments.  The multiply is always spectrum * h into a
new array, with h named so that numpy cannot swap the operands in place
(``_side_product``), so every product rounds alike at every n.
``_eigenvalues`` maps a half spectrum to lambda in DFT order, its real
eigenvalues exactly real, and ``_half_spectrum`` maps alphas and betas
back: X-patterns, spectral pairs and the ``fft`` backend read those two
maps.
Everything else is O(n) work around ``_spectrum`` and ``_from_spectrum``:
``to_core`` (U.T x) and ``from_core`` (U y) scale the half spectrum into
the core layout and back, ``apply_block_transform`` is Q around them,
``real_spectrum`` reads a column's eigenvalues off one real DFT, and
``dtt_apply`` is one block of the factor at n = L, the DFT embedding
length of the ``trig_transforms`` table.  A basis change counts the DCT and the DST
it computes.  The layout follows from the sine-block size, (n-1)//2 on
the circulant side and n//2 on the skew side (``_sine_size``): the
cosine block holds the other entries, and the transform families are
DCT-I/DST-I (circulant, even n), DCT-V/DST-V (circulant, odd n),
DCT-II/DST-II (skew, even n) and DCT-VI/DST-VI (skew, odd n).

The X-pattern entries are the half spectrum of the first column, read
in the core layout: with vhat = to_core(side, col) and
hs = n - sine size,

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
inverse is [[d, -b], [b, d]] / (d^2 + b^2), entrywise 1 / (theta + lambda).
``_inverse_parts`` is that map, with the finite-theta and singular
checks, on the parts of any eigenvalues: a pattern's (diag, anti) in
``_shifted_inverse``, a half spectrum in ``cscs_solve``, once per solve.
It squares d and b only after one exact power-of-two scaling, so theta
and X times 2^k give the inverse times 2^-k, bit for bit in range.
``xpattern_apply`` is the X-pattern product and takes no shift
((theta*I + X) y is theta*y + X y); ``xpattern_shifted_solve`` is its
product with the inverse pattern.

``dense_u_oracle`` materializes U / Utilde from the complex eigenvector
basis; it exists for tests and is never called by production paths.

Input contract (checks from ``structured_matrices``): ``XPattern``,
``real_spectrum``, ``SpectralPair.eigenvalues``/``expand``, a shifted
solve's theta and ``dense_u_oracle``'s size raise ValueError for a
bool, a non-number, the wrong shape and NaN or Inf.  The products (``apply_q``,
``apply_block_transform``, ``to_core``/``from_core``, ``dtt_apply``,
``xpattern_apply``, the z of ``xpattern_shifted_solve``) check the shape
and the kind (a bool or complex array raises) and pass NaN and Inf through.
"""

from dataclasses import dataclass

import numpy as np

from .structured_matrices import _number, _size, _vector
from .trig_transforms import (
    DttPlan, Family, Flavor, _count, _folded_dft, _folded_idft, _irdft, _irdft_pair, _rdft,
    _rdft_pair, counting,
)

__all__ = [
    "SingularShiftError", "XPattern", "SpectralPair",
    "apply_q", "apply_block_transform", "dense_u_oracle", "dtt_apply", "from_core",
    "real_spectrum", "to_core", "xpattern_apply", "xpattern_shifted_solve",
]

_SQRT2 = np.sqrt(2.0)


class SingularShiftError(ValueError):
    """theta*I + X is singular at eigenvalue ``index``: a position in the
    pattern (``xpattern_shifted_solve``) or in ``spectrum`` (``cscs_solve``)."""

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


def _count_blocks(side: str, n: int, times: int = 1) -> None:
    """Count the DCT and the DST that ``times`` basis changes of this side compute."""
    sine = _sine_size(side, n)
    _count(Flavor.COSINE, n - sine, times)
    if sine:
        _count(Flavor.SINE, sine, times)


def _alternated(x):
    """x * (-1)^j as a new array."""
    y = np.array(x, dtype=np.float64)
    y[1::2] *= -1.0
    return y


def _spectrum(side: str, x) -> np.ndarray:
    """The half spectrum of a real vector x: one real DFT (module docstring)."""
    if side == "circulant":
        return _rdft(x)
    if x.shape[0] % 2 == 0:
        return _folded_dft(x)
    return _rdft(_alternated(x))


def _from_spectrum(side: str, half, n: int) -> np.ndarray:
    """The real x of length n with ``_spectrum(side, x) == half``."""
    if side == "circulant":
        return _irdft(half, n)
    if n % 2 == 0:
        return _folded_idft(half)
    x = _irdft(half, n)
    x[1::2] *= -1.0
    return x


def _product(side: str, spectrum, x) -> np.ndarray:
    """U @ core @ U.T @ x for the core with this half spectrum: one real DFT of x,
    the multiply and the inverse.  It counts its two basis changes."""
    _count_blocks(side, x.shape[0], 2)  # U.T and U
    return _side_product(side, spectrum, x)


def _side_product(side: str, spectrum, x) -> np.ndarray:
    """``_product`` without its count.

    The multiply is spectrum * h with h a named array, at every n: numpy's
    complex multiply rounds spectrum * h and h * spectrum differently, it
    runs an unnamed ``spectrum * _spectrum(side, x)`` in place with the
    operands swapped once the temporary passes 256 KiB (n >= 32768), and
    its in-place multiply of one-entry arrays rounds like neither.
    """
    h = _spectrum(side, x)
    return _from_spectrum(side, spectrum * h, x.shape[0])


def _toeplitz_product(cspectrum, sspectrum, x) -> np.ndarray:
    """C @ x + S @ x for the circulant and skew cores with these half spectra.

    It counts two basis changes a side, as two ``_product`` calls do, and
    adds the pair of ``_products``.
    """
    for side in ("circulant", "skew"):
        _count_blocks(side, x.shape[0], 2)  # U.T and U
    cx, sx = _products(cspectrum, sspectrum, x)
    return cx + sx


def _products(cspectrum, sspectrum, x):
    """(C @ x, S @ x) for the circulant and skew cores with these half spectra.

    It counts nothing.  At even n each side runs its own ``_side_product``,
    one after the other: both spectra held before either inverse double
    the working set, and timed slower at n = 65536.  At odd n one complex
    DFT gives both spectra (``_spectra``) and one inverts both
    (``_irdft_pair``, the skew vector then alternated back).
    """
    n = x.shape[0]
    if n % 2 == 0:
        return _side_product("circulant", cspectrum, x), _side_product("skew", sspectrum, x)
    hc, hs = _spectra(x, x)
    xc, xs = _irdft_pair(cspectrum * hc, sspectrum * hs, n)
    return xc, _alternated(xs)


def _spectra(xc, xs):
    """(circulant half spectrum of xc, skew half spectrum of xs), xc and xs of one length.

    At odd n both are real DFTs of n points, of xc and of xs (-1)^j, so
    one complex DFT gives the pair; at even n each side runs its own.
    """
    if xc.shape[0] % 2 == 0:
        return _spectrum("circulant", xc), _spectrum("skew", xs)
    return _rdft_pair(xc, _alternated(xs))


def _column_spectra(c, s):
    """The circulant half spectrum of c and the skew one of s, as ``_column_spectrum``
    gives them, from one ``_spectra``."""
    n = c.shape[0]
    hc, hs = _spectra(c, s)
    return _real_entries("circulant", n, hc), _real_entries("skew", n, hs)


def _column_spectrum(side: str, col) -> np.ndarray:
    """The half spectrum of a first column, its real eigenvalues exactly real."""
    _sine_size(side, col.shape[0])  # rejects an unknown side
    return _real_entries(side, col.shape[0], _spectrum(side, col))


def _real_entries(side: str, n: int, half) -> np.ndarray:
    """``half`` with the imaginary part of its real eigenvalues set to exactly 0.

    Those are the entries that are their own conjugates: lambda[0], and
    lambda[n/2] at even n, on the circulant side, and lambda[m] at odd n
    on the skew side, which is entry 0 of its half spectrum.
    """
    if side == "circulant" or n % 2:
        half.imag[0] = 0.0
    if side == "circulant" and n % 2 == 0:
        half.imag[-1] = 0.0
    return half


def _half_spectrum(side, n, alphas, betas):
    """The half spectrum whose eigenvalues have these alphas and betas (``SpectralPair``)."""
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


def _pattern_spectrum(X) -> np.ndarray:
    """The half spectrum of an X-pattern core, read from its alphas and betas."""
    k, sine = int(X.pairing == "circulant"), _sine_size(X.pairing, X.n)
    return _half_spectrum(X.pairing, X.n, X.diag[:X.n - sine], X.anti[k:k + sine])


def _eigenvalues(side, n, half):
    """lambda in DFT order from a half spectrum, by lambda[n-j] (circulant) or
    lambda[n-1-j] (skew) = conj(lambda[j]): O(n) indexing, no DFT.

    The real eigenvalues, lambda[0] and lambda[n/2] at even n (circulant)
    and lambda[(n-1)/2] at odd n (skew), get an imaginary part of exactly
    +0.0, which conj and a shifted inverse's -im/det would leave at -0.0:
    ``_real_entries`` sets them in the entries that hold the half spectrum.
    """
    if side == "circulant":  # conj(lambda[:m+1]), then lambda[m+1:]
        lam = np.concatenate((np.conj(half), half[(n - 1) // 2:0:-1]))
        _real_entries(side, n, lam[:n // 2 + 1])
    elif n % 2:  # lambda[:m], then lambda[m:]
        lam = np.concatenate((np.conj(half[:0:-1]), half))
        _real_entries(side, n, lam[n // 2:])
    else:  # lambda[0::2] = half, lambda[1::2] = conj(half[::-1]); none is real
        return np.column_stack((half, np.conj(half[::-1]))).ravel()
    return lam


def _spectral_pair(side, n, half):
    """The SpectralPair that ``_half_spectrum`` read, exactly."""
    lam = _eigenvalues(side, n, half)
    k, sine = int(side == "circulant"), _sine_size(side, n)
    return SpectralPair(lam.real[:n - sine], lam.imag[k:k + sine], side)


def _core_scale(side: str, n: int):
    """(w, sqrt(n/2)): alpha[k] = w[k] vhat[k], beta[k] = -sqrt(n/2) vhat[n-1-k]."""
    hs = n - _sine_size(side, n)
    half = np.sqrt(n / 2.0)
    fixed = (_reflect(side, np.arange(n)) == np.arange(n))[:hs]
    return np.where(fixed, np.sqrt(float(n)), half), half


def to_core(side: str, x) -> np.ndarray:
    """U.T @ x: the half spectrum of x, in the core layout."""
    x = _vector(x, "to_core input", finite=False)
    n = x.shape[0]
    _count_blocks(side, n)
    pair = _spectral_pair(side, n, _spectrum(side, x))
    w, half = _core_scale(side, n)
    return np.concatenate((pair.alphas / w, pair.betas[::-1] / -half))


def from_core(side: str, y) -> np.ndarray:
    """U @ y: the core y as a half spectrum, and one inverse real DFT."""
    y = _vector(y, "from_core input", finite=False)
    n = y.shape[0]
    _count_blocks(side, n)
    w, half = _core_scale(side, n)
    hs = w.shape[0]
    return _from_spectrum(side, _half_spectrum(side, n, w * y[:hs], -half * y[:hs - 1:-1]),
                          n)


def apply_block_transform(side: str, x, transposed: bool = False) -> np.ndarray:
    """Apply the block-diagonal factor blockdiag(DCT, J @ DST @ J).

    ``side`` selects the circulant factor B = Q @ U or the skew factor
    Btilde = Q.T @ Utilde; the reversals J act on the sine block.  So
    B y = Q from_core(y) and B.T x = to_core(Q.T x), with Q and Q.T
    swapped on the skew side.
    """
    x = _vector(x, "block transform input", finite=False)
    skew = side == "skew"
    if transposed:
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
    x = _vector(x, "vector", plan.size, finite=False)
    _count(plan.kind.flavor, plan.size)
    s = plan.size
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
    numbers and lengths are checked when ``eigenvalues`` (and so
    ``expand``) reads them.
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
        lam = self.eigenvalues()
        return XPattern(self.n, self.kind, lam.real, lam.imag)

    def eigenvalues(self) -> np.ndarray:
        """Full complex eigenvalue multiset (conjugate pairs restored), in DFT order.

        Raises ValueError for an unknown kind, and for alphas and betas that
        are not finite or not of the lengths the layout fixes for their n.
        """
        n, sine = _size(self.n, "SpectralPair size n"), _sine_size(self.kind, self.n)
        alphas = _vector(self.alphas, "SpectralPair alphas", n - sine)
        betas = _vector(self.betas, "SpectralPair betas", sine)
        return _eigenvalues(self.kind, n, _half_spectrum(self.kind, n, alphas, betas))


def real_spectrum(kind: str, col) -> SpectralPair:
    """Eigenvalue data of a circulant/skew-circulant from its first column.

    Reads them off one real DFT of the column; no dense matrix is formed.
    """
    col = _vector(col, "first column")
    return _spectral_pair(kind, col.shape[0], _column_spectrum(kind, col))


def _inverse_parts(theta, re, im):
    """1 / (theta + re + i im) entrywise: (d/det, -im/det), d = theta + re.

    Raises ValueError for a theta that is not a finite number, and
    SingularShiftError at the first index whose det = d^2 + im^2 is within
    eps of the squared scale theta^2 + max(re^2 + im^2), i.e. where
    |theta + lambda| is within sqrt(eps) of the spectrum's magnitude and
    rounding alone decides its size.  It is scale-free: theta, re and im
    are scaled by the one power of two 2^k that takes the largest of
    them to [1/2, 1) before they are squared, and the quotients by 2^k
    again.  Both are exact, so the result is bitwise the unscaled one
    wherever that squares without overflow or underflow.
    """
    _number(theta, "shift theta")
    k = -np.frexp(max(abs(theta), np.abs(re).max(), np.abs(im).max()))[1]
    t, sre, sim = (np.ldexp(v, k) for v in (theta, re, im))
    d = t + sre
    det = d * d + sim * sim
    scale = t * t + np.max(sre * sre + sim * sim)
    bad = np.flatnonzero(det <= np.finfo(np.float64).eps * scale)
    if bad.size:
        j = int(bad[0])
        raise SingularShiftError(
            f"shift theta={theta} is singular at index {j} (eigenvalue real "
            f"part {re[j]}, imaginary part {im[j]})", index=j)
    return np.ldexp(d / det, k), np.ldexp(-sim / det, k)


def _shifted_inverse(X: XPattern, theta: float) -> XPattern:
    """(theta*I + X)^-1 as an X-pattern: diag (theta + alpha)/det, anti -beta/det."""
    return XPattern(X.n, X.pairing, *_inverse_parts(theta, X.diag, X.anti))


def xpattern_apply(X: XPattern, y) -> np.ndarray:
    """O(n) product X y with an X-pattern core.

    X y = diag * y + anti * y[partner].  A shifted product is theta*y
    plus this one; a shifted solve is this product with the inverse
    pattern (``xpattern_shifted_solve``).
    """
    y = _vector(y, "vector", X.n, finite=False)
    return X.diag * y + X.anti * _reflect(X.pairing, y)


def xpattern_shifted_solve(X: XPattern, theta: float, z) -> np.ndarray:
    """Solve (theta*I + X) y = z in O(n): the product with the inverse pattern.

    Each pair is a 2x2 system [[d, b], [-b, d]] (d = theta + alpha,
    b = beta, 0 at fixed points); ``_inverse_parts`` inverts and checks it.
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
