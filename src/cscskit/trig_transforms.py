"""The trigonometric transforms and the half-spectrum kernel behind every product.

The eight orthogonal transforms (DCT/DST families I, II, V, VI).  With
``tau_l = 1/sqrt(2)`` at the boundary indices (l = 0 or l = n) and
``iota_k = 1/sqrt(2)`` at k = n-1, the orthonormal matrices are

    DCT-I   (s = n+1):  sqrt(2/n)      [ tau_j tau_k cos(j k pi / n)       ]  j,k = 0..n
    DCT-II  (s = n):    sqrt(2/n)      [ tau_j cos(j (2k+1) pi / (2n))     ]  j,k = 0..n-1
    DCT-V   (s = n):    2/sqrt(2n-1)   [ tau_j tau_k cos(2 j k pi / (2n-1))]  j,k = 0..n-1
    DCT-VI  (s = n):    2/sqrt(2n-1)   [ tau_j iota_k cos(j (2k+1) pi/(2n-1))] j,k = 0..n-1
    DST-I   (s = n-1):  sqrt(2/n)      [ sin(j k pi / n)                   ]  j,k = 1..n-1
    DST-II  (s = n):    sqrt(2/n)      [ tau_j sin(j (2k-1) pi / (2n))     ]  j,k = 1..n
    DST-V   (s = n-1):  2/sqrt(2n-1)   [ sin(2 j k pi / (2n-1))            ]  j,k = 1..n-1
    DST-VI  (s = n-1):  2/sqrt(2n-1)   [ sin(j (2k-1) pi / (2n-1))         ]  j,k = 1..n-1

where s is the matrix dimension used throughout this module.  All eight
are one DFT embedding: with row and column indices j, k = 0..s-1,

    M[j,k] = scale * row[j] * col[k] * trig(2 pi (j+a)(k+b) / L),

where trig is cos for a DCT and sin for a DST, scale = 2/sqrt(L), and
row/col are 1 except 1/sqrt(2) at the ends the tau/iota weights mark:

    kind     L        a   b     kind     L        a   b
    DCT-I    2s-2     0   0     DST-I    2s+2     1   1
    DCT-II   2s       0   1/2   DST-II   2s       1   1/2
    DCT-V    2s-1     0   0     DST-V    2s+1     1   1
    DCT-VI   2s-1     0   1/2   DST-VI   2s+1     1   1/2

So each transform is a DFT of a symmetric extension (Martucci, "Symmetric
convolution and the discrete sine and cosine transforms", IEEE TSP 1994),
and L is the size n of the real Schur basis change it is a block of:
families I and V are the cosine and sine blocks of the circulant factor
Q U at n = L, families II and VI those of the skew factor Q.T Utilde.
``real_schur.dtt_apply`` computes a transform that way, as one block of
one real DFT of L points; the dense ``dtt_matrix`` is its oracle.  Every
matrix M here satisfies M @ M.T == I, so the transpose doubles as the
inverse.

The half spectrum.  The cosine and sine blocks of U.T x are, up to
scale, the real and imaginary parts of one real DFT of x, so every
basis change is that DFT.  ``_spectrum(side, x)`` maps a real x of
length n to its half spectrum and ``_from_spectrum`` maps it back.  With
lambda the eigenvalues, in DFT order, of the circulant or
skew-circulant whose first column is x, m = n // 2, and rdft(x) the
first m + 1 outputs of the n-point DFT of a real x, it is

    circulant side:        conj(lambda[:m+1]) = rdft(x)
    skew side, even n:     lambda[0::2]       = DFT_m((x[:m] - i x[m:]) exp(-i pi j / n))
    skew side, odd n:      lambda[m:]         = rdft(x (-1)^j)

The layout follows from the sine-block size, (n-1)//2 on the circulant
side and n//2 on the skew side (``_sine_size``): the cosine block holds
the other entries, and the families are DCT-I/DST-I (circulant, even n),
DCT-V/DST-V (circulant, odd n), DCT-II/DST-II (skew, even n) and
DCT-VI/DST-VI (skew, odd n).  ``_eigenvalues`` restores lambda from a
half spectrum by conjugate symmetry (O(n), no DFT), its real eigenvalues
exactly real.

Each map dispatches once, on parity and side, among its three
algorithms (odd n, the even-n circulant real split, the even-n skew
fold; their docstrings give the formulas), and only these two maps
and the odd-n pair's ``_spectra`` and ``_products`` call the DFT
engine.  The twist exp(-i pi j / n), j < n, is one table, ``_twist``:
the fold reads its first n/2 entries, and the complex reference backend
of ``cscs_solvers`` all n, as the conj D of its skew product.  It and
the split table ``_rdft_table`` are read-only and kept for the 16 most
recent sizes.

DFT counts.  One basis change, both its blocks at once, costs one
complex DFT of n/2 points at even n and of n points at odd n, and a
core product U @ core @ U.T @ x (``_product``: one ``_spectrum``, the
multiply by the core's half spectrum, one ``_from_spectrum``) costs two.
At odd n both sides are real DFTs of n points, so one complex DFT
carries two of them (Sorensen, Jones, Heideman and Burrus, "Real-valued
fast Fourier transform algorithms", IEEE TASSP 1987): ``_spectra`` gives
a circulant and a skew half spectrum from one, and ``_products`` gives
(C x, S x) from one each way, two complex DFTs of n points instead of
four.  At even n ``_products`` runs the two sides one after the other.
``_toeplitz_product`` is C x + S x.  The multiply is always spectrum * h
into a new array, with h named so that numpy cannot swap the operands
in place (``_side_product``), so every product rounds alike at every n.

A shifted core theta I + X has eigenvalues theta + lambda;
``_inverse_parts`` inverts them entrywise, with the finite-theta and
singular checks (``SingularShiftError``), for an X-pattern's shifted
solve and for a solve's two shifted inverses.

Inside a ``counting()`` block every basis change counts, through
``_count_blocks``, the DCT and the DST it computes (``_product`` and
``_toeplitz_product`` count theirs; ``_side_product``, ``_products`` and
``_spectra`` count nothing), and ``dtt_apply`` counts its one transform,
by (flavor, size).  The counter lives in a context variable, so each
thread (or asyncio task) sees only its own calls; solvers use it to
report their per-sweep transform budget.
"""

import contextvars
import enum
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._dft import dft_vector
from .structured_matrices import _instance, _number, _size

__all__ = [
    "Family", "Flavor", "DttKind", "DttPlan", "counting", "dtt_matrix",
    "DCT_I", "DCT_II", "DCT_V", "DCT_VI", "DST_I", "DST_II", "DST_V", "DST_VI",
]

_SQRT2 = np.sqrt(2.0)


class Family(enum.Enum):
    I = "I"
    II = "II"
    V = "V"
    VI = "VI"


class Flavor(enum.Enum):
    COSINE = "cosine"
    SINE = "sine"


@dataclass(frozen=True)
class DttKind:
    family: Family
    flavor: Flavor

    def __post_init__(self):
        _instance(self.family, Family, "DttKind family")
        _instance(self.flavor, Flavor, "DttKind flavor")

    def __str__(self):
        return ("DCT-" if self.flavor is Flavor.COSINE else "DST-") + self.family.value


DCT_I = DttKind(Family.I, Flavor.COSINE)
DCT_II = DttKind(Family.II, Flavor.COSINE)
DCT_V = DttKind(Family.V, Flavor.COSINE)
DCT_VI = DttKind(Family.VI, Flavor.COSINE)
DST_I = DttKind(Family.I, Flavor.SINE)
DST_II = DttKind(Family.II, Flavor.SINE)
DST_V = DttKind(Family.V, Flavor.SINE)
DST_VI = DttKind(Family.VI, Flavor.SINE)


_counts = contextvars.ContextVar("cscskit_dtt_counts", default=None)


@contextmanager
def counting():
    """Count transforms in this context; yields a Counter keyed by (Flavor, size).

    A nested block counts in its own Counter until it exits.
    """
    counts = Counter()
    token = _counts.set(counts)
    try:
        yield counts
    finally:
        _counts.reset(token)


def _count(flavor: Flavor, size: int, times: int = 1) -> None:
    """Count ``times`` transforms of this flavor and size in the active ``counting()`` block."""
    counts = _counts.get()
    if counts is not None:
        counts[flavor, size] += times


def _sine_size(side: str, n: int) -> int:
    """Size of the sine block: (n-1)//2 on the circulant side, n//2 on the skew side.

    It is the number of conjugate pairs, and it fixes the rest of the
    layout: the cosine block holds the other n - size entries and comes
    first in the core, and the sine block follows it.
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


def _tau(indices, n):
    w = np.ones(len(indices))
    w[(indices == 0) | (indices == n)] = 1.0 / _SQRT2
    return w


def dtt_matrix(kind: DttKind, size: int) -> np.ndarray:
    """Dense orthonormal transform matrix of the given kind and dimension.

    Entries are evaluated directly from the cosine/sine formulas above.
    It is the correctness oracle for ``dtt_apply`` and is also used for
    small dense work in tests; production paths never call it.
    """
    _instance(kind, DttKind, "dtt_matrix kind")
    _size(size, "transform size")
    if size == 1:
        return np.array([[1.0]])
    s = size
    fam, cos = kind.family, kind.flavor is Flavor.COSINE
    if fam is Family.I:
        if cos:
            n = s - 1
            j = np.arange(s)
            t = _tau(j, n)
            return np.sqrt(2.0 / n) * np.outer(t, t) * np.cos(np.pi * np.outer(j, j) / n)
        n = s + 1
        j = np.arange(1, s + 1)
        return np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(j, j) / n)
    if fam is Family.II:
        n = s
        if cos:
            j = np.arange(s)
            k = np.arange(s)
            return np.sqrt(2.0 / n) * _tau(j, n)[:, None] * np.cos(
                np.pi * np.outer(j, 2 * k + 1) / (2 * n))
        j = np.arange(1, s + 1)
        k = np.arange(1, s + 1)
        return np.sqrt(2.0 / n) * _tau(j, n)[:, None] * np.sin(
            np.pi * np.outer(j, 2 * k - 1) / (2 * n))
    if fam is Family.V:
        if cos:
            big = 2 * s - 1
            j = np.arange(s)
            t = _tau(j, s)
            return 2.0 / np.sqrt(big) * np.outer(t, t) * np.cos(2 * np.pi * np.outer(j, j) / big)
        big = 2 * s + 1
        j = np.arange(1, s + 1)
        return 2.0 / np.sqrt(big) * np.sin(2 * np.pi * np.outer(j, j) / big)
    if cos:
        big = 2 * s - 1
        j = np.arange(s)
        k = np.arange(s)
        iota = np.ones(s)
        iota[s - 1] = 1.0 / _SQRT2
        return 2.0 / np.sqrt(big) * _tau(j, s)[:, None] * iota[None, :] * np.cos(
            np.pi * np.outer(j, 2 * k + 1) / big)
    big = 2 * s + 1
    j = np.arange(1, s + 1)
    k = np.arange(1, s + 1)
    return 2.0 / np.sqrt(big) * np.sin(np.pi * np.outer(j, 2 * k - 1) / big)


@dataclass(frozen=True)
class DttPlan:
    """One transform: a checked kind and size, for ``dtt_apply``.

    Immutable and holds no tables; ``dtt_matrix`` gives the same
    transform as a dense matrix and is the oracle ``dtt_apply`` is
    tested against.
    """

    kind: DttKind
    size: int

    def __post_init__(self):
        _instance(self.kind, DttKind, "DttPlan kind")
        _size(self.size, "transform size")


def _wrapped(z):
    """Z_k for k = 0..len(z), indices mod len(z): the range a real-input split reads."""
    return np.concatenate((z, z[:1]))


@lru_cache(maxsize=16)
def _rdft_table(n: int) -> np.ndarray:
    """A_k = (1 - i w^k) / 2, k = 0..n/2, w = exp(-2 pi i / n): the split at even n."""
    a = 0.5 * (1 - 1j * np.exp(-2j * np.pi * np.arange(n // 2 + 1) / n))
    a.flags.writeable = False
    return a


@lru_cache(maxsize=16)
def _twist(n: int) -> np.ndarray:
    """exp(-i pi j / n), j < n: the skew fold at even n reads the first n/2
    entries, and the ``fft`` backend of ``cscs_solvers`` all n, as conj D."""
    t = np.exp(-1j * np.pi * np.arange(n) / n)
    t.flags.writeable = False
    return t


def _alternated(x):
    """x * (-1)^j as a new array."""
    y = np.array(x, dtype=np.float64)
    y[1::2] *= -1.0
    return y


def _spectrum(side: str, x) -> np.ndarray:
    """The half spectrum of a real vector x: one real DFT (module docstring).

    With w = exp(-2 pi i / n) it runs one of three algorithms:
    - odd n: one n-point DFT of x (circulant) or of x (-1)^j (skew);
    - even-n circulant: one DFT of n/2 points, Z = DFT(x[0::2] + i x[1::2]),
      and the real-input split X_k = Z_k A_k + conj Z_-k (1 - A_k), indices
      mod n/2, with A_k = (1 - i w^k) / 2 (``_rdft_table``);
    - even-n skew: the fold, one DFT of n/2 points of the twisted
      (x[:n/2] - i x[n/2:]) exp(-i pi j / n) (``_twist``).
    """
    n = x.shape[0]
    if n % 2:
        return dft_vector(x if side == "circulant" else _alternated(x))[:n // 2 + 1]
    if side == "circulant":
        z = _wrapped(dft_vector(np.ascontiguousarray(x).view(np.complex128)))
        d = np.conj(z[::-1])
        z -= d
        z *= _rdft_table(n)
        z += d
        return z
    # the fold; its entry q is the skew-circulant transform at frequency 2q
    m = n // 2
    z = np.empty(m, dtype=np.complex128)
    z.real = x[:m]
    z.imag = -x[m:]  # np.negative(..., out=z.imag) misreads some strided x
    z *= _twist(n)[:m]
    return dft_vector(z)


def _from_spectrum(side: str, half, n: int) -> np.ndarray:
    """The real x of length n with ``_spectrum(side, x) == half``.

    Each of ``_spectrum``'s algorithms inverted as one forward DFT, with
    m = n // 2:
    - odd n: one n-point DFT of the conjugated Hermitian extension of
      half, conj(half) then half[m:0:-1], divided by n, which is x, or
      x (-1)^j on the skew side;
    - even-n circulant: the split inverted, conj Z_k = r_k +
      (conj half_k - r_k) A_k with r_k = half_(m-k), k < m, and x the
      [Re, Im] pairs of conj DFT_m(conj Z) / m, interleaved;
    - even-n skew: the unfold, x = [Re v, -Im v] with v = IDFT_m(half)
      exp(i pi j / n), read off conj v = DFT_m(conj half) exp(-i pi j / n) / m.
    """
    if n % 2:
        x = dft_vector(np.concatenate((np.conj(half), half[:0:-1]))).real / n
        if side != "circulant":
            x[1::2] *= -1.0
        return x
    m = n // 2
    if side == "circulant":
        r = half[m:0:-1]
        u = np.conj(half[:m])  # conj Z = r + (conj half - r) A
        u -= r
        u *= _rdft_table(n)[:m]
        u += r
        x = np.conj(dft_vector(u)).view(np.float64)
        x /= m
        return x
    w = dft_vector(np.conj(half))  # m conj v
    w *= _twist(n)[:m]
    x = np.empty(n)
    np.divide(w.real, m, out=x[:m])
    np.divide(w.imag, m, out=x[m:])
    return x


def _spectra(xc, xs):
    """(circulant half spectrum of xc, skew half spectrum of xs), xc and xs of one length.

    At even n each side runs its own.  At odd n both are real DFTs of n
    points, of xc and of xs (-1)^j, so one complex DFT gives the pair:
    with Z = DFT(xc + i xs (-1)^j) and indices mod n, they are
    (Z_k + conj Z_-k) / 2 and (Z_k - conj Z_-k) / (2i), k = 0..n//2.
    """
    n = xc.shape[0]
    if n % 2 == 0:
        return _spectrum("circulant", xc), _spectrum("skew", xs)
    m = n // 2
    z = np.empty(n, dtype=np.complex128)
    z.real, z.imag = xc, _alternated(xs)
    z = _wrapped(dft_vector(z))
    head = z[:m + 1]
    tail = np.conj(z[n:n - m - 1:-1])  # conj Z_-k
    hc = head + tail
    hc *= 0.5
    hs = head - tail
    hs *= -0.5j
    return hc, hs


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


def _column_spectrum(side: str, col) -> np.ndarray:
    """The half spectrum of a first column, its real eigenvalues exactly real."""
    _sine_size(side, col.shape[0])  # rejects an unknown side
    return _real_entries(side, col.shape[0], _spectrum(side, col))


def _column_spectra(c, s):
    """The circulant half spectrum of c and the skew one of s, as ``_column_spectrum``
    gives them, from one ``_spectra``."""
    n = c.shape[0]
    hc, hs = _spectra(c, s)
    return _real_entries("circulant", n, hc), _real_entries("skew", n, hs)


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


def _products(cspectrum, sspectrum, x):
    """(C @ x, S @ x) for the circulant and skew cores with these half spectra.

    It counts nothing.  At even n each side runs its own ``_side_product``,
    one after the other: both spectra held before either inverse double
    the working set, and timed slower at n = 65536.  At odd n one complex
    DFT gives both spectra (``_spectra``) and one inverts both: p + i q,
    the two products' half spectra, is that of C x + i S x (-1)^j, whose
    full spectrum F has F_k = p_k + i q_k and F_(n-k) = conj p_k + i conj q_k,
    and one n-point DFT of conj F is n conj(C x + i S x (-1)^j).
    """
    n = x.shape[0]
    if n % 2 == 0:
        return _side_product("circulant", cspectrum, x), _side_product("skew", sspectrum, x)
    hc, hs = _spectra(x, x)
    p, q = cspectrum * hc, sspectrum * hs
    m = n // 2
    g = np.empty(n, dtype=np.complex128)
    g.real[:m + 1] = p.real - q.imag  # conj(p + i q)
    g.imag[:m + 1] = -p.imag - q.real
    g.real[:m:-1] = p.real[1:] + q.imag[1:]  # p - i q, at n - k
    g.imag[:m:-1] = p.imag[1:] - q.real[1:]
    w = dft_vector(g)
    return w.real / n, _alternated(w.imag / -n)


def _toeplitz_product(cspectrum, sspectrum, x) -> np.ndarray:
    """C @ x + S @ x for the circulant and skew cores with these half spectra.

    It counts two basis changes a side, as two ``_product`` calls do, and
    adds the pair of ``_products``.
    """
    for side in ("circulant", "skew"):
        _count_blocks(side, x.shape[0], 2)  # U.T and U
    cx, sx = _products(cspectrum, sspectrum, x)
    return cx + sx


class SingularShiftError(ValueError):
    """theta*I + X is singular at eigenvalue ``index``: a position in the
    pattern (``xpattern_shifted_solve``) or in ``spectrum`` (``cscs_solve``)."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


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
