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

where s is the matrix dimension used throughout this module.  Families
I/II embed into a complex DFT of even length 2n, families V/VI into one
of odd length 2n-1; either way a transform of size s costs O(s log s).

Every matrix M here satisfies M @ M.T == I, so the transpose doubles as
the inverse; ``dtt_apply`` takes a ``transposed`` flag instead of having
a separate inverse entry point.

Inside a ``counting()`` block, ``dtt_apply`` counts its calls by
(flavor, size).  The counter lives in a context variable, so each thread
(or asyncio task) sees only its own calls; solvers use it to report
their per-sweep transform budget.
"""

import contextvars
import enum
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ._dft import dft_vector

__all__ = [
    "Family", "Flavor", "DttKind", "DttPlan", "counting", "dtt_matrix", "dtt_apply",
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
    """Count ``dtt_apply`` calls in this context; yields a Counter keyed by (Flavor, size).

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
    if size < 1:
        raise ValueError(f"transform size must be >= 1, got {size}")
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
class _FastRecipe:
    """One direction of a fast transform as a phased, padded DFT.

    apply(x): a[offset:offset+s] = x * pre ; A = dft(a, length)
              seg = A[out_start : out_start+s] * post
              y = (Re(seg) if take_real else -Im(seg)) * out_w
    """

    pre: np.ndarray | None
    offset: int
    length: int
    out_start: int
    post: np.ndarray | None
    take_real: bool
    out_w: np.ndarray | None

    def apply(self, x):
        s = x.shape[0]
        a = np.zeros(self.length, dtype=np.complex128)
        a[self.offset:self.offset + s] = x if self.pre is None else x * self.pre
        seg = dft_vector(a)[self.out_start:self.out_start + s]
        if self.post is not None:
            seg = seg * self.post
        y = seg.real.copy() if self.take_real else -seg.imag
        if self.out_w is not None:
            y *= self.out_w
        return y


def _fast_recipes(kind: DttKind, s: int):
    """(forward, transposed) recipes; assumes s >= 2."""
    fam, cos = kind.family, kind.flavor is Flavor.COSINE
    if fam is Family.I:
        if cos:
            n = s - 1
            t = _tau(np.arange(s), n)
            fwd = _FastRecipe(t, 0, 2 * n, 0, None, True, np.sqrt(2.0 / n) * t)
        else:
            n = s + 1
            fwd = _FastRecipe(None, 1, 2 * n, 1, None, False,
                              np.full(s, np.sqrt(2.0 / n)))
        return fwd, fwd  # DCT-I and DST-I matrices are symmetric
    if fam is Family.II:
        n = s
        scale = np.sqrt(2.0 / n)
        if cos:
            j = np.arange(s)
            t = _tau(j, n)
            phase = np.exp(-1j * np.pi * j / (2 * n))
            fwd = _FastRecipe(None, 0, 2 * n, 0, phase, True, scale * t)
            trn = _FastRecipe(t * phase, 0, 2 * n, 0, None, True, np.full(s, scale))
        else:
            j = np.arange(1, s + 1)
            t = _tau(j, n)
            phase = np.exp(-1j * np.pi * j / (2 * n))
            fwd = _FastRecipe(None, 0, 2 * n, 1, phase, False, scale * t)
            trn = _FastRecipe(t * phase, 1, 2 * n, 0, None, False, np.full(s, scale))
        return fwd, trn
    if fam is Family.V:
        if cos:
            big = 2 * s - 1
            t = _tau(np.arange(s), s)
            fwd = _FastRecipe(t, 0, big, 0, None, True, 2.0 / np.sqrt(big) * t)
        else:
            big = 2 * s + 1
            fwd = _FastRecipe(None, 1, big, 1, None, False,
                              np.full(s, 2.0 / np.sqrt(big)))
        return fwd, fwd  # the V matrices are symmetric as well
    if cos:
        big = 2 * s - 1
        j = np.arange(s)
        t = _tau(j, s)
        iota = np.ones(s)
        iota[s - 1] = 1.0 / _SQRT2
        phase = np.exp(-1j * np.pi * j / big)
        scale = 2.0 / np.sqrt(big)
        fwd = _FastRecipe(iota, 0, big, 0, phase, True, scale * t)
        trn = _FastRecipe(t * phase, 0, big, 0, None, True, scale * iota)
        return fwd, trn
    big = 2 * s + 1
    j = np.arange(1, s + 1)
    phase = np.exp(-1j * np.pi * j / big)
    scale = np.full(s, 2.0 / np.sqrt(big))
    fwd = _FastRecipe(None, 0, big, 1, phase, False, scale)
    trn = _FastRecipe(phase, 1, big, 0, None, False, scale)
    return fwd, trn


class DttPlan:
    """Precomputed DFT-embedded application plan for one transform kind and size.

    Immutable after construction; a plan may be shared freely across
    threads.  ``dtt_matrix`` gives the same transform as a dense matrix
    and is the oracle this path is tested against.
    """

    __slots__ = ("kind", "size", "_fwd", "_trn")

    def __init__(self, kind: DttKind, size: int):
        if size < 1:
            raise ValueError(f"transform size must be >= 1, got {size}")
        self.kind = kind
        self.size = size
        self._fwd = self._trn = None
        if size > 1:
            self._fwd, self._trn = _fast_recipes(kind, size)


def dtt_apply(plan: DttPlan, x, transposed: bool = False) -> np.ndarray:
    """Apply M @ x (or M.T @ x) for the plan's transform matrix M."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (plan.size,):
        raise ValueError(f"expected a vector of length {plan.size}, got shape {x.shape}")
    counts = _counts.get()
    if counts is not None:
        counts[plan.kind.flavor, plan.size] += 1
    if plan.size == 1:
        return x.copy()
    recipe = plan._trn if transposed else plan._fwd
    return recipe.apply(x)
