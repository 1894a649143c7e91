"""The eight orthogonal trigonometric transforms (DCT/DST families I, II, V, VI).

With ``tau_l = 1/sqrt(2)`` at the boundary indices (l = 0 or l = n) and
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
one real DFT of L points; this module only holds the kinds, the dense
``dtt_matrix`` that is their oracle, and the real DFT itself.

Every matrix M here satisfies M @ M.T == I, so the transpose doubles as
the inverse; ``dtt_apply`` takes a ``transposed`` flag instead of having
a separate inverse entry point.

The real DFT.  ``_rdft`` computes the n//2 + 1 outputs of the n-point
DFT of a real vector, and ``_irdft`` its inverse.  Take w = exp(-2 pi i / n).
For even n the input is packed into n/2 complex points: with indices
taken mod n/2 and Z = DFT_{n/2}(x[0::2] + i x[1::2]),

    X[k] = Z[k] (1 - i w^k) / 2 + conj Z[-k] (1 + i w^k) / 2,   k = 0..n/2,

and for odd n it is one DFT of n points.  The skew side at even n = 2m
folds instead: ``_folded_dft`` is the m-point DFT of
(x[:m] - i x[m:]) exp(-i pi j / n), and ``_folded_idft`` its inverse.
So one basis change, both its blocks at once, costs one complex DFT of
n/2 points at even n and of n points at odd n.  At odd n two real
vectors x and y share one: ``_rdft_pair`` splits Z = DFT(x + i y) by
conjugate symmetry, and ``_irdft_pair`` inverts two half spectra at once
(Sorensen, Jones, Heideman and Burrus, "Real-valued fast Fourier
transform algorithms", IEEE TASSP 1987), so a Toeplitz product's two
basis changes each way cost one complex DFT of n points, not two.

The twist exp(-i pi j / n), j < n, is one table, ``_twist``: the fold
reads its first n/2 entries, and the complex reference backend of
``cscs_solvers`` all n, as the conj D of its skew product.  It and the
split table are read-only and kept for the 16 most recent sizes.

Inside a ``counting()`` block every basis change counts, through
``_count``, the DCT and the DST it computes, and ``dtt_apply`` counts
its one transform, by (flavor, size).  The counter lives in a context
variable, so each thread (or asyncio task) sees only its own calls;
solvers use it to report their per-sweep transform budget.
"""

import contextvars
import enum
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._dft import dft_vector
from .structured_matrices import _size

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
        if not isinstance(self.kind, DttKind):
            raise ValueError(f"DttPlan kind must be a DttKind, got {self.kind!r}")
        _size(self.size, "transform size")


def _count(flavor: Flavor, size: int, times: int = 1) -> None:
    """Count ``times`` transforms of this flavor and size in the active ``counting()`` block."""
    counts = _counts.get()
    if counts is not None:
        counts[flavor, size] += times


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


def _rdft(x) -> np.ndarray:
    """X[0..n//2] of the unnormalized n-point DFT of a real vector x.

    Even n runs one DFT of n/2 points, Z = DFT(x[0::2] + i x[1::2]), and
    the real-input split X_k = Z_k A_k + conj Z_-k (1 - A_k) of the module
    docstring; odd n runs one DFT of n points.
    """
    n = x.shape[0]
    if n % 2:
        return dft_vector(x)[:n // 2 + 1]
    z = _wrapped(dft_vector(np.ascontiguousarray(x).view(np.complex128)))
    d = np.conj(z[::-1])
    z -= d
    z *= _rdft_table(n)
    z += d
    return z


def _irdft(y, n: int) -> np.ndarray:
    """The real x of length n with ``_rdft(x) == y``; y[0] (and y[n/2] at even n) is real.

    Even n inverts the split, Z_k = y_k conj A_k + conj y_(n/2-k) conj(1 - A_k)
    for k < n/2, and reads x = [Re, Im] of IDFT_(n/2)(Z) interleaved; as one
    forward DFT that is conj DFT(conj Z) / (n/2).  Odd n runs one n-point
    DFT of the conjugated Hermitian extension of y.
    """
    if n % 2:
        return dft_vector(np.concatenate((np.conj(y), y[:0:-1]))).real / n
    h = n // 2
    r = y[h:0:-1]
    u = np.conj(y[:h])  # conj Z = r + (conj y - r) A
    u -= r
    u *= _rdft_table(n)[:h]
    u += r
    x = np.conj(dft_vector(u)).view(np.float64)
    x /= h
    return x


def _rdft_pair(x, y):
    """(``_rdft(x)``, ``_rdft(y)``) of two real vectors of one odd length n, from one DFT.

    With Z = DFT(x + i y) and indices mod n, X_k = (Z_k + conj Z_-k) / 2
    and Y_k = (Z_k - conj Z_-k) / (2i), k = 0..n//2.
    """
    n = x.shape[0]
    m = n // 2
    z = np.empty(n, dtype=np.complex128)
    z.real, z.imag = x, y
    z = _wrapped(dft_vector(z))
    head = z[:m + 1]
    tail = np.conj(z[n:n - m - 1:-1])  # conj Z_-k
    xs = head + tail
    xs *= 0.5
    ys = head - tail
    ys *= -0.5j
    return xs, ys


def _irdft_pair(p, q, n: int):
    """(``_irdft(p, n)``, ``_irdft(q, n)``) at odd n, from one DFT.

    p + i q is the half spectrum of x + i y, whose Hermitian extensions
    give the full spectrum F: F_k = p_k + i q_k and F_(n-k) = conj p_k
    + i conj q_k.  One n-point DFT of conj F is n conj(x + i y).
    """
    m = n // 2
    g = np.empty(n, dtype=np.complex128)
    g.real[:m + 1] = p.real - q.imag  # conj(p + i q)
    g.imag[:m + 1] = -p.imag - q.real
    g.real[:m:-1] = p.real[1:] + q.imag[1:]  # p - i q, at n - k
    g.imag[:m:-1] = p.imag[1:] - q.real[1:]
    w = dft_vector(g)
    return w.real / n, w.imag / -n


def _folded_dft(x) -> np.ndarray:
    """DFT_m((x[:m] - i x[m:]) exp(-i pi j / n)) of a real x of even length n = 2m.

    Its entry q is the skew-circulant transform at frequency 2q, so a
    skew-circulant with eigenvalues lambda (DFT order) multiplies it by
    lambda[0::2].
    """
    m = x.shape[0] // 2
    z = np.empty(m, dtype=np.complex128)
    z.real = x[:m]
    z.imag = -x[m:]  # np.negative(..., out=z.imag) misreads some strided x
    z *= _twist(2 * m)[:m]
    return dft_vector(z)


def _folded_idft(y) -> np.ndarray:
    """The real x with ``_folded_dft(x) == y``.

    With v = IDFT_m(y) exp(i pi j / n), x[:m] = Re v and x[m:] = -Im v;
    as one forward DFT, conj v = DFT_m(conj y) exp(-i pi j / n) / m.
    """
    m = y.shape[0]
    w = dft_vector(np.conj(y))  # m conj v
    w *= _twist(2 * m)[:m]
    x = np.empty(2 * m)
    np.divide(w.real, m, out=x[:m])
    np.divide(w.imag, m, out=x[m:])
    return x
