"""Arbitrary-length complex DFT engine.

Forward transform (unnormalized):

            N-1
    X[k] =  sum x[j] * exp(-2*pi*i*j*k/N),   0 <= k < N.
            j=0

A full DFT of power-of-two length n runs without bit reversal.  A leaf
multiplies the transposed input x.reshape(m, n/m).T by the m-point DFT
matrix (m = min(n, 32)), so row j holds the m-point DFT of x[j::n/m].
Radix-4 stages (and one radix-2 stage when log2(n/m) is odd) then merge
rows: a stage of radix q turns the (rows, L) layout into (rows/q, qL),
row j becoming the qL-point DFT of x[j::rows/q], with the long axis
innermost.  Each stage twiddles one buffer in place and writes its
butterflies into the other.

Every other length is reduced to a power-of-two cyclic convolution
with Bluestein's chirp identity

    j*k = (j^2 + k^2 - (k - j)^2) / 2.

The convolution takes N inputs to N outputs, so its lags k - j run over
-(N-1)..(N-1).  Its length is the power of two >= 2N - 2: a cyclic
convolution of 2N - 2 points merges only the lags +(N-1) and -(N-1),
and the chirp exp(i*pi*d^2/N) is even in d, so both read the same
value.  The cost is O(N log N).  Chirp phases are built from
``j^2 mod 2N`` computed in exact integer arithmetic, which keeps the
phase arguments small and the transform accurate for large N.

DFT-matrix, twiddle and chirp tables are cached per length; all cached
arrays are frozen (read-only) so plans can be shared between threads.
DFT matrices and stage twiddles are keyed by powers of two only, so
their caches are bounded by the word size; the chirp tables, one per
length, are kept for the 16 most recent.
"""

from functools import lru_cache

import numpy as np

from .structured_matrices import _vector


def _freeze(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _dft_matrix(m):
    j = np.arange(m)
    # exact integer reduction of j*k modulo m keeps phases accurate
    return _freeze(np.exp(-2j * np.pi * (np.outer(j, j) % m) / m))


@lru_cache(maxsize=None)
def _stage_twiddles(length, radix):
    """w^(q*k) for q = 1..radix-1, k < length, w = exp(-2 pi i / (radix*length))."""
    q = np.arange(1, radix)[:, None, None]
    return _freeze(np.exp(-2j * np.pi * (q * np.arange(length)) / (radix * length)))


def _fft_pow2(x):
    """In-order FFT of an array whose length is a power of two."""
    n = x.shape[0]
    m = min(n, 32)
    a = x.reshape(m, -1).T @ _dft_matrix(m)
    spare = np.empty(n, dtype=np.complex128)
    length = m
    if (n // m).bit_length() % 2 == 0:  # log2(n/m) is odd
        b0, b1 = a.reshape(2, -1, length)
        out = spare.reshape(-1, 2, length)
        b1 *= _stage_twiddles(length, 2)[0]
        np.add(b0, b1, out=out[:, 0])
        np.subtract(b0, b1, out=out[:, 1])
        a, spare, length = out, a, 2 * length
    while length < n:
        # out[:, p] = sum_q (-i)^(p q) w^(q k) b_q: radix-2 on (b0, b2)
        # and (b1, b3), then radix-2 across with b1 - b3 rotated by -i
        b0, b1, b2, b3 = b = a.reshape(4, -1, length)
        out = spare.reshape(-1, 4, length)
        b[1:] *= _stage_twiddles(length, 4)
        np.subtract(b0, b2, out=out[:, 1])
        b0 += b2
        np.subtract(b1, b3, out=b2)
        b1 += b3
        np.add(b0, b1, out=out[:, 0])
        np.subtract(b0, b1, out=out[:, 2])
        b2 *= -1j
        np.subtract(out[:, 1], b2, out=out[:, 3])
        out[:, 1] += b2
        a, spare, length = out, a, 4 * length
    return a.reshape(n)


def _ifft_pow2(x):
    return np.conj(_fft_pow2(np.conj(x))) / x.shape[0]


@lru_cache(maxsize=16)
def _bluestein_tables(n):
    k = np.arange(n, dtype=np.int64)
    # exact integer reduction of k^2 modulo 2n keeps phases accurate
    sq = (k * k) % (2 * n)
    chirp = np.exp(-1j * np.pi * sq / n)
    b = np.conj(chirp)
    # lags +-(n-1) share an index at length 2n - 2 and an even chirp value
    length = 1 << (2 * n - 3).bit_length() if n > 1 else 1
    bext = np.zeros(length, dtype=np.complex128)
    bext[:n] = b
    if n > 1:
        bext[length - n + 1:] = b[1:][::-1]
    return _freeze(chirp), _freeze(_fft_pow2(bext)), length


def dft_vector(x):
    """Unnormalized forward DFT of a 1-d array of any length n >= 1."""
    x = _vector(x, "dft input", finite=False, dtype=np.complex128)
    n = x.shape[0]
    if n & (n - 1) == 0:
        return _fft_pow2(x)
    chirp, bfft, length = _bluestein_tables(n)
    a = np.zeros(length, dtype=np.complex128)
    a[:n] = x * chirp
    conv = _ifft_pow2(_fft_pow2(a) * bfft)
    return conv[:n] * chirp


def idft_vector(x):
    """Inverse DFT: idft(dft(x)) == x; divides by the length."""
    x = _vector(x, "dft input", finite=False, dtype=np.complex128)
    return np.conj(dft_vector(np.conj(x))) / x.shape[0]
