"""Arbitrary-length complex DFT engine.

Forward transform (unnormalized):

            N-1
    X[k] =  sum x[j] * exp(-2*pi*i*j*k/N),   0 <= k < N.
            j=0

Power-of-two lengths run through an iterative radix-2 decimation-in-time
FFT; every other length is reduced to a power-of-two cyclic convolution
with Bluestein's chirp identity

    j*k = (j^2 + k^2 - (k - j)^2) / 2,

so the cost is O(N log N) for all N.  Chirp phases are built from
``j^2 mod 2N`` computed in exact integer arithmetic, which keeps the
phase arguments small and the transform accurate for large N.

Twiddle, bit-reversal and chirp tables are cached per length; all cached
arrays are frozen (read-only) so plans can be shared between threads.
Bit-reversal and twiddle tables exist only for powers of two, so their
caches are bounded by the word size; the chirp tables, one per length,
are kept for the 16 most recent lengths.
"""

from functools import lru_cache

import numpy as np


def _freeze(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _bitrev(n):
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.intp)
    perm = np.zeros(n, dtype=np.intp)
    for b in range(bits):
        perm = (perm << 1) | ((idx >> b) & 1)
    return _freeze(perm)


@lru_cache(maxsize=None)
def _twiddle(step):
    return _freeze(np.exp(-2j * np.pi * np.arange(step // 2) / step))


def _fft_pow2(x):
    """In-order radix-2 FFT of a complex array whose length is a power of two."""
    n = x.shape[0]
    if n == 1:
        return x.astype(np.complex128)
    a = x[_bitrev(n)].astype(np.complex128)
    half = 1
    while half < n:
        step = 2 * half
        w = _twiddle(step)
        blocks = a.reshape(-1, step)
        lo = blocks[:, :half].copy()
        hi = blocks[:, half:] * w
        blocks[:, :half] = lo + hi
        blocks[:, half:] = lo - hi
        half = step
    return a


def _ifft_pow2(x):
    return np.conj(_fft_pow2(np.conj(x))) / x.shape[0]


@lru_cache(maxsize=16)
def _bluestein_tables(n):
    k = np.arange(n, dtype=np.int64)
    # exact integer reduction of k^2 modulo 2n keeps phases accurate
    sq = (k * k) % (2 * n)
    chirp = np.exp(-1j * np.pi * sq / n)
    b = np.conj(chirp)
    length = 1 << (2 * n - 1).bit_length() if 2 * n - 1 > 1 else 1
    bext = np.zeros(length, dtype=np.complex128)
    bext[:n] = b
    if n > 1:
        bext[length - n + 1:] = b[1:][::-1]
    return _freeze(chirp), _freeze(_fft_pow2(bext)), length


def dft_vector(x):
    """Unnormalized forward DFT of a 1-d array, any length >= 1."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    if n == 0:
        raise ValueError("dft of an empty vector")
    if n & (n - 1) == 0:
        return _fft_pow2(x)
    chirp, bfft, length = _bluestein_tables(n)
    a = np.zeros(length, dtype=np.complex128)
    a[:n] = x * chirp
    conv = _ifft_pow2(_fft_pow2(a) * bfft)
    return conv[:n] * chirp


def idft_vector(x):
    """Inverse DFT: idft(dft(x)) == x; divides by the length."""
    x = np.asarray(x, dtype=np.complex128)
    return np.conj(dft_vector(np.conj(x))) / x.shape[0]
