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

So y = M @ x reads s entries of the DFT A of a length-L vector a: x
goes into a at offset int(b), the output is read from int(a), and a
half-sample b is a phase on the output.  M.T is the same rule with
(a, row) and (b, col) swapped, which moves the half sample to the
input.

Each transform runs one complex DFT, so a transform of size s costs
O(s log s).  Families I, V and VI run the embedding; family II runs
Makhoul's reordering instead (below).  Take w = exp(-2 pi i / L).  For
odd L (families V and VI) the DFT takes the s inputs to the s outputs:
with lo = int(a) and offset = int(b), the offsets fold into the phases,

    A[lo+k] = w^(offset (lo+k)) sum_j (v[j] w^(j lo)) w^(j k),

which is the first s outputs of the L-point DFT of s points: one chirp
convolution on a power of two >= 2s - 2 points.  For even L (family I)
the input is real and the DFT has L/2 points: with indices taken mod
L/2 and Z = DFT_{L/2}(a[0::2] + i a[1::2]),

    A[k] = ((Z[k] + conj Z[-k]) - i w^k (Z[k] - conj Z[-k])) / 2,

where every output range lies in k = 0..L/2.

Family II needs no padding (Makhoul, "A fast cosine transform in one
and two dimensions", IEEE TASSP 1980).  With
C(x)_j = sum_k x[k] cos(pi j (2k+1) / (2s)), reorder
v[:ceil(s/2)] = x[0::2] and v[ceil(s/2):] = x[1::2][::-1]; then with
V = DFT_s(v), a DFT of real input,

    C(x)_j = Re(e^(-i pi j / (2s)) V[j]),    V[s-j] = conj V[j],

so outputs j <= s/2 are Re and the others -Im of the first s//2 + 1
phased entries.  The transpose runs backwards: v = Re DFT_s(y_j
e^(-i pi j / (2s))), then x[0::2] = v[:ceil(s/2)] and
x[1::2] = v[ceil(s/2):][::-1].  DST-II = R DCT-II diag((-1)^k), with R
the reversal, so DST-II and its transpose are the same recipes with a
sign on one side and a reversal on the other.  For even s, DFT_s(v) is
the identity above at L = s, and Re DFT_s(a) is the DFT G of the
Hermitian part g[j] = (a[j] + conj a[-j]) / 2 of a.  G is real, so
with h = s/2 and w = exp(-2 pi i / s)

    G[2q] + i G[2q+1] = DFT_h((g[j] + g[j+h]) + i w^j (g[j] - g[j+h]))[q].

So one transform of size s costs one complex DFT of

* s/2 points for DCT-II/DST-II at even s, and s points at odd s;
* L/2 = s - 1 (DCT-I) or s + 1 (DST-I) points for family I;
* s inputs to s outputs, one chirp convolution, for families V and VI.

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
from functools import lru_cache

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
    """One direction of a family I, V or VI transform as a phased, padded DFT.

    apply(x): a[offset:offset+s] = x * pre ; A = dft(a, length)
              seg = A[out_start : out_start+s] * post
              y = (Re(seg) if take_real else -Im(seg)) * out_w

    For an even length (family I), ``twiddle`` holds w^k (k = 0..length/2),
    the input is real and the DFT runs on length/2 points by the real-input
    identity in the module docstring.  An odd length (families V and VI)
    has its offsets folded into ``pre`` and ``post`` (both offsets are 0),
    so the DFT reads the s outputs straight off the s inputs.  Family II
    is not padded: ``_MakhoulRecipe`` reorders its s inputs (x[0::2], then
    x[1::2] reversed) into one s-point real DFT, which runs on s/2 complex
    points for even s and on s points for odd s.
    """

    pre: np.ndarray | None
    offset: int
    length: int
    out_start: int
    post: np.ndarray | None
    take_real: bool
    out_w: np.ndarray
    twiddle: np.ndarray | None

    def apply(self, x):
        s = x.shape[0]
        v = x if self.pre is None else x * self.pre
        if self.twiddle is None:
            seg = dft_vector(v, self.length)
        else:
            a = np.zeros(self.length)
            a[self.offset:self.offset + s] = v
            seg = _real_dft(a, self.twiddle, self.out_start, self.out_start + s)
        if self.post is not None:
            seg = seg * self.post
        y = seg.real.copy() if self.take_real else -seg.imag
        y *= self.out_w
        return y


@dataclass(frozen=True)
class _MakhoulRecipe:
    """One direction of a DCT-II or DST-II as Makhoul's s-point real DFT.

    forward (``post`` set):     v = x[order] * pre ; W = DFT_s(v)[0 : s//2+1] * post
                                y = float_view(W)[pick] * out_w
    transposed (``post`` None): v = x[order] * pre ; y = (Re DFT_s(v))[pick] * out_w

    ``order`` None reads x as it is, ``pre`` None weighs nothing, and the
    float view of W interleaves Re W and Im W.  For even s, ``twiddle``
    holds w^k (w = exp(-2 pi i / s), k = 0..s/2) and the DFT runs on s/2
    complex points; for odd s it runs on s points.
    """

    order: np.ndarray | None
    pre: np.ndarray | None
    post: np.ndarray | None
    pick: np.ndarray
    out_w: np.ndarray
    twiddle: np.ndarray | None

    def apply(self, x):
        v = x if self.order is None else x[self.order]
        if self.pre is not None:
            v = v * self.pre
        if self.post is None:  # the phase is on the input
            u = _hermitian_dft(v, self.twiddle)
        else:
            u = _real_dft(v, self.twiddle, 0, self.post.shape[0]) * self.post
            u = u.view(np.float64)
        y = u[self.pick]
        y *= self.out_w
        return y


def _real_dft(a, tw, lo, hi):
    """DFT_L(a)[lo:hi] of a real a of length L, for hi <= L//2 + 1.

    An even L runs one complex DFT of L/2 points with tw = w^k
    (k = 0..L/2); an odd L runs one complex DFT of L points.
    """
    if a.shape[0] % 2:
        return dft_vector(a)[lo:hi]
    z = dft_vector(a.view(np.complex128))  # z_j = a[2j] + i a[2j+1]
    z = np.concatenate((z, z[:1]))  # Z[k] for k = 0..L/2, indices mod L/2
    zk, zmk = z[lo:hi], z[::-1][lo:hi].conj()  # Z[k], conj Z[-k]
    return 0.5 * ((zk + zmk) - 1j * tw[lo:hi] * (zk - zmk))


def _hermitian_dft(a, tw):
    """Re DFT_L(a) for a complex a of length L.

    An even L runs one complex DFT of L/2 points with tw = w^k
    (k = 0..L/2 - 1 used); an odd L runs one complex DFT of L points.
    """
    if a.shape[0] % 2:
        return dft_vector(a).real
    ar = np.empty_like(a)  # conj a[-j]
    ar[0] = a[0]
    ar[1:] = a[:0:-1]
    ar = ar.conj()
    g = 0.5 * (a + ar)  # the Hermitian part of a: DFT_L(g) = Re DFT_L(a)
    m = a.shape[0] // 2
    lo, hi = g[:m], g[m:]
    # G[2q] + i G[2q+1], so the float view is G in order
    return dft_vector((lo + hi) + 1j * tw[:m] * (lo - hi)).view(np.float64)


@lru_cache(maxsize=16)
def _half_twiddle(length):
    """w^k = exp(-2 pi i k / length) for k = 0..length/2, read-only."""
    tw = np.exp(-2j * np.pi * np.arange(length // 2 + 1) / length)
    tw.flags.writeable = False
    return tw


# kind -> (L - 2s, a, b, row ends, col ends) of the rule in the module
# docstring; the listed ends (0 first, -1 last) weigh 1/sqrt2, the rest 1.
# Family II runs on ``_makhoul`` instead.
_EMBEDDINGS = {
    DCT_I: (-2, 0, 0, (0, -1), (0, -1)),
    DST_I: (2, 1, 1, (), ()),
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
    k = np.arange(s)
    # phases exp(-pi i e / L) by their integer exponents e
    e_out = (k + out_start) * (b != offset)  # half-sample column shift
    e_in = (k + offset) * (a != out_start)  # half-sample row shift
    if length % 2:  # fold the offsets into the phases (module docstring)
        e_out = e_out + 2 * offset * (k + out_start)
        e_in = e_in + 2 * out_start * k
        out_start = offset = 0
    pre, post = _weights(s, col_ends), None
    if e_out.any():
        post = np.exp(-1j * np.pi * e_out / length)
    if e_in.any():
        phase = np.exp(-1j * np.pi * e_in / length)
        pre = phase if pre is None else pre * phase
    # 2/sqrt(L), rounded as each family's formula: sqrt(2/n) with n = L/2 for I
    scale = np.sqrt(2.0 / (length // 2)) if length % 2 == 0 else 2.0 / np.sqrt(length)
    row = _weights(s, row_ends)
    return _FastRecipe(pre, offset, length, out_start, post, cosine,
                       np.full(s, scale) if row is None else scale * row,
                       _half_twiddle(length) if length % 2 == 0 else None)


def _makhoul(cosine: bool, s: int):
    """Forward and transposed recipes of DCT-II (cosine) or DST-II of size s.

    Makhoul's reordering (module docstring): with W = e^(-pi i j / 2s) V,
    the DCT reads Re W_j for j <= s//2 and -Im W_(s-j) above, both from the
    float view of W at ``pick``.
    """
    h = s // 2
    j = np.arange(s)
    order = np.concatenate((j[0::2], j[1::2][::-1]))  # v = x[order]
    unorder = np.empty(s, dtype=np.intp)  # x = v[unorder]
    unorder[order] = j
    phase = np.exp(-1j * np.pi * j / (2 * s))
    scale = np.sqrt(2.0 / s)
    row = _weights(s, (0,))
    low = j <= h
    pick = np.where(low, 2 * j, 2 * (s - j) + 1)
    out_w = np.where(low, scale, -scale) * row
    tw = _half_twiddle(s) if s % 2 == 0 else None
    post = phase[:h + 1].copy()  # a view would keep all s phases alive
    if cosine:
        return (_MakhoulRecipe(order, None, post, pick, out_w, tw),
                _MakhoulRecipe(None, row * phase, None, unorder, np.full(s, scale), tw))
    # DST-II = R DCT-II diag((-1)^k) with R the reversal, so DST-II.T = diag((-1)^k) DCT-II.T R
    sign = 1.0 - 2.0 * (j % 2)
    return (_MakhoulRecipe(order, sign[order], post, pick[::-1], out_w[::-1], tw),
            _MakhoulRecipe(j[::-1], row * phase, None, unorder, scale * sign, tw))


class DttPlan:
    """Precomputed fast application plan for one transform kind and size.

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
        if size > 1 and kind.family is Family.II:
            self._fwd, self._trn = _makhoul(kind.flavor is Flavor.COSINE, size)
        elif size > 1:
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
