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

Each transform is pack -> one complex DFT -> unpack, so a transform of
size s costs O(s log s).  Every phase, scale, end weight and real-input
split lives in complex tables built once per ``DttPlan``; the packing
and unpacking are slices and elementwise products.  Families I, V and VI
run the embedding; family II runs Makhoul's reordering instead (below).
Take w = exp(-2 pi i / L).  For odd L (families V and VI) the DFT takes
the s inputs to the s outputs: with lo = int(a) and offset = int(b), the
offsets fold into the phases,

    A[lo+k] = w^(offset (lo+k)) sum_j (v[j] w^(j lo)) w^(j k),

which is the first s outputs of the L-point DFT of s points: one chirp
convolution on a power of two >= 2s - 2 points.  The output phase, the
weights and the choice of Re (DCT) or -Im (DST) fold into one table T,
y = Re(A T), because -Im u = Re(i u).  For even L (family I) the input
is real and the DFT has L/2 points: with indices taken mod L/2 and
Z = DFT_{L/2}(a[0::2] + i a[1::2]),

    A[k] = Z[k] (1 - i w^k) / 2 + conj Z[-k] (1 + i w^k) / 2,

where every output range lies in k = 0..L/2.  So t_k A[k], for any table
t of output weights (times i for a DST), is

    t_k A[k] = Z[k] P[k] + conj(Z[-k] Q[k]),
    P = t (1 - i w^k) / 2,   Q = conj(t (1 + i w^k) / 2),

and family I reads y_k = Re(Z[k] P[k]) + Re(Z[-k] Q[k]), with Z[-k]
from a reversed view of Z.

Family II needs no padding (Makhoul, "A fast cosine transform in one
and two dimensions", IEEE TASSP 1980).  With
C(x)_j = sum_k x[k] cos(pi j (2k+1) / (2s)), reorder
v = [x[0::2], x[1::2][::-1]]; then with V = DFT_s(v), a DFT of real
input,

    C(x)_j = Re(e^(-i pi j / (2s)) V[j]),    V[s-j] = conj V[j].

So with t_j = sqrt(2/s) row_j e^(-i pi j / (2s)) (row_0 = 1/sqrt2, the
other rows 1) and W_k = t_k V[k] for k = 0..s//2, the DCT-II is
y[:s//2+1] = Re W and y[s//2+1:] = -Im W[s-1-s//2:0:-1].  For even s,
V comes from Z = DFT_{s/2} of v's complex view by the split above at
L = s, so W_k = Z[k] P[k] + conj(Z[-k] Q[k]) with the phase, the scale
and the 1/sqrt2 at k = 0 in P and Q; for odd s, W = V t over the first
s//2 + 1 entries of the s-point DFT.  The transpose runs backwards:
with c = y, v = Re DFT_s(c t), then x[0::2] = v[:ceil(s/2)] and
x[1::2] = v[ceil(s/2):][::-1].  Re DFT_s(a) is the DFT G of the
Hermitian part g_j = (a_j + conj a_-j) / 2 of a, here
g_j = t_j (c_j + i c_(s-j)) / 2 for j >= 1 and g_0 = t_0 c_0.  G is real,
so for even s, with h = s/2 and w = exp(-2 pi i / s),

    G[2q] + i G[2q+1] = DFT_h(u)[q],
    u_q = g_q (1 + i w^q) + g_(q+h) (1 - i w^q)
        = E_q (c_q + i c_(s-q)) + F_q (c_(q+h) + i c_(h-q)),

with E = t (1 + i w^q) / 2 (E_0 = t_0 (1 + i), c_s taken as 0) and
F = t_(q+h) (1 - i w^q) / 2: the float view of DFT_h(u) is v.  For odd
s, v = Re DFT_s(c t).  DST-II = R DCT-II diag((-1)^k), with R the
reversal, so DST-II and its transpose run the same tables with
x[1::2] negated on one side and y reversed on the other.

So one transform of size s costs one complex DFT of

* s/2 points for DCT-II/DST-II at even s, and s points at odd s;
* L/2 = s - 1 (DCT-I) or s + 1 (DST-I) points for family I;
* s inputs to s outputs, one chirp convolution, for families V and VI.

Every matrix M here satisfies M @ M.T == I, so the transpose doubles as
the inverse; ``dtt_apply`` takes a ``transposed`` flag instead of having
a separate inverse entry point.

The core products of ``fast_matvec`` need no separate DCT and DST: the
two blocks of a basis change are the real and imaginary parts of one
real DFT of n points.  The private ``_rdft``/``_irdft`` compute the
n//2 + 1 outputs of that DFT and its inverse, through one complex DFT
of n/2 points and the real-input split above at L = n for even n, and
one DFT of n points for odd n.  The skew side at even n = 2m folds
instead: ``_folded_dft`` is the m-point DFT of
(x[:m] - i x[m:]) exp(-i pi j / n), and ``_folded_idft`` its inverse.
So a core product runs two complex DFTs, of n/2 points at even n and n
points at odd n, where the two DCTs and two DSTs of its basis changes
ran four.  Their split and twist tables are read-only and kept
for the 16 most recent sizes.

Inside a ``counting()`` block, ``dtt_apply`` counts its calls by
(flavor, size), and a core product counts, through the same ``_count``,
the DCT and DST that each of its basis changes computes.  The counter
lives in a context variable, so each thread (or asyncio task) sees only
its own calls; solvers use it to report their per-sweep transform
budget.
"""

import contextvars
import enum
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._dft import dft_vector
from .structured_matrices import _size, _vector

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


def _wrapped(z):
    """Z_k for k = 0..len(z), indices mod len(z): the range a real-input split reads."""
    return np.concatenate((z, z[:1]))


def _split_tables(t, k, length):
    """(P, Q) with t_k DFT_length(a)_k = Z_k P_k + conj(Z_-k Q_k) for a real a.

    For an even length, Z = DFT_{length/2}(a[0::2] + i a[1::2]) and the
    real-input identity of the module docstring gives P = t (1 - i w^k) / 2
    and Q = conj(t (1 + i w^k) / 2), w = exp(-2 pi i / length).  For an odd
    length, Z is the DFT itself: P = t and Q is None.
    """
    t = np.asarray(t, dtype=np.complex128)
    if length % 2:
        return t, None
    iw = 1j * np.exp(-2j * np.pi * k / length)
    return 0.5 * t * (1 - iw), np.conj(0.5 * t * (1 + iw))


@dataclass(frozen=True)
class _FastRecipe:
    """One direction of a family I, V or VI transform as a padded DFT and a table.

    apply(x): a[offset:offset+s] = x * pre ; Z = DFT(a)
              y_k = Re(Z_k P_k) + Re(Z_-k Q_k),  k = out_start..out_start+s-1

    For an even length L (family I) the input is real, Z is the DFT of
    L/2 points of a's complex view and P, Q hold the real-input split,
    the output weights and, for a DST, the factor i (-Im u = Re(i u)).
    An odd length (families V and VI) has its offsets folded into the
    phases of ``pre`` and ``p`` (both offsets are 0), Z is the first s
    outputs of the L-point DFT of the s inputs, and Q is None.
    """

    pre: np.ndarray | None
    offset: int
    length: int
    out_start: int
    p: np.ndarray
    q: np.ndarray | None

    def apply(self, x):
        s = x.shape[0]
        if self.q is None:
            z = dft_vector(x if self.pre is None else x * self.pre, self.length)
            z *= self.p
            return z.real.copy()
        a = np.zeros(self.length)
        if self.pre is None:
            a[self.offset:self.offset + s] = x
        else:
            np.multiply(x, self.pre, out=a[self.offset:self.offset + s])
        z = _wrapped(dft_vector(a.view(np.complex128)))
        lo, hi = self.out_start, self.out_start + s
        return np.add((z[lo:hi] * self.p).real, (z[::-1][lo:hi] * self.q).real)


@dataclass(frozen=True)
class _MakhoulRecipe:
    """One direction of a DCT-II or DST-II as Makhoul's s-point real DFT.

    forward:    v = [x[0::2], x[1::2][::-1]] ; Z = DFT(v)
                W_k = Z_k P_k + conj(Z_-k Q_k),  k = 0..s//2
                y[:s//2+1] = Re W,  y[s//2+1:] = -Im W[s-1-s//2:0:-1]
    transposed: u = E (c_q + i c_(s-q)) + F (c_(q+h) + i c_(h-q)) ; v = DFT(u)
                x[0::2] = v[:ceil(s/2)],  x[1::2] = v[ceil(s/2):][::-1]

    ``p`` and ``q`` hold P and Q forward, E and F transposed (module
    docstring).  For even s the DFT has s/2 points; for odd s it has s
    points, q is None and the transposed u is c * p.  A DST-II (``sine``)
    negates x[1::2] and reverses y.
    """

    sine: bool
    transposed: bool
    p: np.ndarray
    q: np.ndarray | None

    def apply(self, x):
        if self.transposed:
            return self._transposed(x)
        s = x.shape[0]
        h, m = s // 2, s - s // 2
        v = np.empty(s)
        v[:m] = x[0::2]
        if self.sine:
            np.negative(x[1::2][::-1], out=v[m:])
        else:
            v[m:] = x[1::2][::-1]
        out = np.empty(s)
        y = out[::-1] if self.sine else out
        hi = slice(s - 1 - h, 0, -1)  # k = s - j for the outputs j > s//2
        if self.q is None:  # odd s
            w = dft_vector(v)[:h + 1]
            w *= self.p
            y[:h + 1] = w.real
            np.negative(w.imag[hi], out=y[h + 1:])
            return out
        z = _wrapped(dft_vector(v.view(np.complex128)))
        a = z * self.p
        b = z[::-1] * self.q  # W = a + conj(b)
        np.add(a.real, b.real, out=y[:h + 1])
        np.subtract(b.imag[hi], a.imag[hi], out=y[h + 1:])
        return out

    def _transposed(self, y):
        s = y.shape[0]
        h, m = s // 2, s - s // 2
        c = y[::-1] if self.sine else y
        if self.q is None:  # odd s
            v = dft_vector(c * self.p).real
        else:
            u = np.empty(h, dtype=np.complex128)
            u.real = c[:h]
            u.imag[0] = 0.0
            u.imag[1:] = c[:h:-1]
            f = np.empty(h, dtype=np.complex128)
            f.real = c[h:]
            f.imag = c[h:0:-1]
            u *= self.p
            f *= self.q
            u += f
            v = dft_vector(u).view(np.float64)
        x = np.empty(s)
        x[0::2] = v[:m]
        if self.sine:
            np.negative(v[:m - 1:-1], out=x[1::2])
        else:
            x[1::2] = v[:m - 1:-1]
        return x


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
    pre = _weights(s, col_ends)
    if e_in.any():
        phase = np.exp(-1j * np.pi * e_in / length)
        pre = phase if pre is None else pre * phase
    # 2/sqrt(L), rounded as each family's formula: sqrt(2/n) with n = L/2 for I
    scale = np.sqrt(2.0 / (length // 2)) if length % 2 == 0 else 2.0 / np.sqrt(length)
    row = _weights(s, row_ends)
    t = np.full(s, scale) if row is None else scale * row
    if e_out.any():
        t = t * np.exp(-1j * np.pi * e_out / length)
    if not cosine:
        t = 1j * t  # -Im u = Re(i u)
    p, q = _split_tables(t, k + out_start, length)
    return _FastRecipe(pre, offset, length, out_start, p, q)


@lru_cache(maxsize=16)
def _makhoul(s: int):
    """Forward (P, Q) and transposed (E, F) tables of DCT-II and DST-II of size s.

    Both kinds weigh by t_j = sqrt(2/s) row_j e^(-i pi j / 2s), so the two
    plans of one size share these tables.  The forward tables split
    t_k DFT_s(v)_k (k = 0..s//2) over Z by ``_split_tables``.  The
    transposed tables fold the Hermitian part of c_j t_j to s/2 points
    (module docstring); odd s keeps t.
    """
    h = s // 2
    j = np.arange(s)
    t = np.sqrt(2.0 / s) * _weights(s, (0,)) * np.exp(-1j * np.pi * j / (2 * s))
    forward = _split_tables(t[:h + 1], j[:h + 1], s)
    if s % 2:
        return forward, (t, None)
    iw = 1j * np.exp(-2j * np.pi * j[:h] / s)
    e = 0.5 * t[:h] * (1 + iw)
    e[0] *= 2  # g_0 = Re(c_0 t_0) has no partner term c_s
    return forward, (e, 0.5 * t[h:] * (1 - iw))


class DttPlan:
    """Precomputed fast application plan for one transform kind and size.

    Immutable after construction; a plan may be shared freely across
    threads.  ``dtt_matrix`` gives the same transform as a dense matrix
    and is the oracle this path is tested against.
    """

    __slots__ = ("kind", "size", "_fwd", "_trn")

    def __init__(self, kind: DttKind, size: int):
        _size(size, "transform size")
        self.kind = kind
        self.size = size
        self._fwd = self._trn = None
        if size > 1 and kind.family is Family.II:
            sine = kind.flavor is Flavor.SINE
            forward, transposed = _makhoul(size)
            self._fwd = _MakhoulRecipe(sine, False, *forward)
            self._trn = _MakhoulRecipe(sine, True, *transposed)
        elif size > 1:
            grow, a, b, row, col = _EMBEDDINGS[kind]
            cosine, length = kind.flavor is Flavor.COSINE, 2 * size + grow
            self._fwd = _recipe(cosine, size, length, a, b, row, col)
            # M.T swaps (a, row) with (b, col); a symmetric M is its own transpose
            self._trn = (self._fwd if (a, row) == (b, col)
                         else _recipe(cosine, size, length, b, a, col, row))


def _count(flavor: Flavor, size: int, times: int = 1) -> None:
    """Count ``times`` transforms of this flavor and size in the active ``counting()`` block."""
    counts = _counts.get()
    if counts is not None:
        counts[flavor, size] += times


def dtt_apply(plan: DttPlan, x, transposed: bool = False) -> np.ndarray:
    """Apply M @ x (or M.T @ x) for the plan's transform matrix M."""
    x = _vector(x, "vector", plan.size, finite=False)
    _count(plan.kind.flavor, plan.size)
    if plan.size == 1:
        return x.copy()
    recipe = plan._trn if transposed else plan._fwd
    return recipe.apply(x)


@lru_cache(maxsize=16)
def _rdft_table(n: int) -> np.ndarray:
    """A_k = (1 - i w^k) / 2, k = 0..n/2, w = exp(-2 pi i / n): the split at even n."""
    a, _ = _split_tables(1.0, np.arange(n // 2 + 1), n)
    a.flags.writeable = False
    return a


@lru_cache(maxsize=16)
def _fold_table(n: int) -> np.ndarray:
    """exp(-i pi j / n), j < n/2: the twist of the skew fold at even n."""
    t = np.exp(-1j * np.pi * np.arange(n // 2) / n)
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


def _folded_dft(x) -> np.ndarray:
    """DFT_m((x[:m] - i x[m:]) exp(-i pi j / n)) of a real x of even length n = 2m.

    Its entry q is the skew-circulant transform at frequency 2q, so a
    skew-circulant with eigenvalues lambda (DFT order) multiplies it by
    lambda[0::2].
    """
    m = x.shape[0] // 2
    z = np.empty(m, dtype=np.complex128)
    z.real = x[:m]
    np.negative(x[m:], out=z.imag)
    z *= _fold_table(2 * m)
    return dft_vector(z)


def _folded_idft(y) -> np.ndarray:
    """The real x with ``_folded_dft(x) == y``.

    With v = IDFT_m(y) exp(i pi j / n), x[:m] = Re v and x[m:] = -Im v;
    as one forward DFT, conj v = DFT_m(conj y) exp(-i pi j / n) / m.
    """
    m = y.shape[0]
    w = dft_vector(np.conj(y))  # m conj v
    w *= _fold_table(2 * m)
    x = np.empty(2 * m)
    np.divide(w.real, m, out=x[:m])
    np.divide(w.imag, m, out=x[m:])
    return x
