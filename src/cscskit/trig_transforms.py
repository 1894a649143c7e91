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

So y = M @ x is one complex DFT of length L (even for I/II, odd for
V/VI): x goes in at offset int(b), the output is read from int(a), and
a half-sample b is a phase on the output.  M.T is the same rule with
(a, row) and (b, col) swapped, which moves the half sample to the
input.  Either way a transform of size s costs O(s log s).

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
    out_w: np.ndarray

    def apply(self, x):
        s = x.shape[0]
        a = np.zeros(self.length, dtype=np.complex128)
        a[self.offset:self.offset + s] = x if self.pre is None else x * self.pre
        seg = dft_vector(a)[self.out_start:self.out_start + s]
        if self.post is not None:
            seg = seg * self.post
        y = seg.real.copy() if self.take_real else -seg.imag
        y *= self.out_w
        return y


# kind -> (L - 2s, a, b, row ends, col ends) of the rule in the module
# docstring; the listed ends (0 first, -1 last) weigh 1/sqrt2, the rest 1
_EMBEDDINGS = {
    DCT_I: (-2, 0, 0, (0, -1), (0, -1)),
    DST_I: (2, 1, 1, (), ()),
    DCT_II: (0, 0, 0.5, (0,), ()),
    DST_II: (0, 1, 0.5, (-1,), ()),
    DCT_V: (-1, 0, 0, (0,), (0,)),
    DST_V: (1, 1, 1, (), ()),
    DCT_VI: (-1, 0, 0.5, (0,), (-1,)),
    DST_VI: (1, 1, 0.5, (), ()),
}


def _weights(s, ends):
    if not ends:
        return None
    w = np.ones(s)
    w[list(ends)] = 1.0 / _SQRT2
    return w


def _recipe(cosine: bool, s: int, length: int, a, b, row_ends, col_ends) -> _FastRecipe:
    """y = M @ x under the rule with these L, a, b and weights; a, b not both half-integers."""
    out_start, offset = int(a), int(b)
    pre, post = _weights(s, col_ends), None
    if b != offset:  # half-sample column shift: a phase on the output
        post = np.exp(-1j * np.pi * (np.arange(s) + out_start) / length)
    if a != out_start:  # half-sample row shift: a phase on the input
        phase = np.exp(-1j * np.pi * (np.arange(s) + offset) / length)
        pre = phase if pre is None else pre * phase
    # 2/sqrt(L), rounded as each family's formula: sqrt(2/n) with n = L/2 for I/II
    scale = np.sqrt(2.0 / (length // 2)) if length % 2 == 0 else 2.0 / np.sqrt(length)
    row = _weights(s, row_ends)
    return _FastRecipe(pre, offset, length, out_start, post, cosine,
                       np.full(s, scale) if row is None else scale * row)


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
            grow, a, b, row, col = _EMBEDDINGS[kind]
            cosine, length = kind.flavor is Flavor.COSINE, 2 * size + grow
            self._fwd = _recipe(cosine, size, length, a, b, row, col)
            # M.T swaps (a, row) with (b, col); a symmetric M is its own transpose
            self._trn = (self._fwd if (a, row) == (b, col)
                         else _recipe(cosine, size, length, b, a, col, row))


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
