"""Arbitrary-length complex DFT engine.

Forward transform (unnormalized):

            N-1
    X[k] =  sum x[j] * exp(-2*pi*i*j*k/N),   0 <= k < N.
            j=0

``dft_vector(x, n)`` also takes a window: the first m = len(x) outputs
of the n-point DFT of x zero-padded to n (m <= n), which is what a DFT
embedding with few inputs and few outputs needs.

A full DFT of power-of-two length runs through an iterative radix-2
decimation-in-time FFT; every other length, and every window, is
reduced to a power-of-two cyclic convolution with Bluestein's chirp
identity

    j*k = (j^2 + k^2 - (k - j)^2) / 2.

The convolution takes m inputs to m outputs, so its lags k - j run over
-(m-1)..(m-1) whatever n is.  Its length is the power of two >= 2m - 2:
a cyclic convolution of 2m - 2 points merges only the lags +(m-1) and
-(m-1), and the chirp exp(i*pi*d^2/n) is even in d, so both read the
same value.  The cost is O(m log m).  Chirp
phases are built from ``j^2 mod 2N`` computed in exact integer
arithmetic, which keeps the phase arguments small and the transform
accurate for large N.

Twiddle, bit-reversal and chirp tables are cached per length; all cached
arrays are frozen (read-only) so plans can be shared between threads.
Bit-reversal and twiddle tables exist only for powers of two, so their
caches are bounded by the word size; the chirp tables, one per (n, m),
are kept for the 16 most recent.
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
def _bluestein_tables(n, m):
    k = np.arange(m, dtype=np.int64)
    # exact integer reduction of k^2 modulo 2n keeps phases accurate
    sq = (k * k) % (2 * n)
    chirp = np.exp(-1j * np.pi * sq / n)
    b = np.conj(chirp)
    # lags +-(m-1) share an index at length 2m - 2 and an even chirp value
    length = 1 << (2 * m - 3).bit_length() if m > 1 else 1
    bext = np.zeros(length, dtype=np.complex128)
    bext[:m] = b
    if m > 1:
        bext[length - m + 1:] = b[1:][::-1]
    return _freeze(chirp), _freeze(_fft_pow2(bext)), length


def dft_vector(x, n=None):
    """Unnormalized forward DFT of a 1-d array of any length m >= 1.

    With n >= m, returns X[0:m] of the n-point DFT of x zero-padded to n.
    """
    x = np.asarray(x, dtype=np.complex128)
    m = x.shape[0]
    if m == 0:
        raise ValueError("dft of an empty vector")
    if n is None:
        n = m
    elif n < m:
        raise ValueError(f"dft length {n} is shorter than the input length {m}")
    if n == m and n & (n - 1) == 0:
        return _fft_pow2(x)
    chirp, bfft, length = _bluestein_tables(n, m)
    a = np.zeros(length, dtype=np.complex128)
    a[:m] = x * chirp
    conv = _ifft_pow2(_fft_pow2(a) * bfft)
    return conv[:m] * chirp


def idft_vector(x):
    """Inverse DFT: idft(dft(x)) == x; divides by the length."""
    x = np.asarray(x, dtype=np.complex128)
    return np.conj(dft_vector(np.conj(x))) / x.shape[0]
