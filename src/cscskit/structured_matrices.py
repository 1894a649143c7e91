"""Compact Toeplitz / circulant / skew-circulant value types.

A Toeplitz matrix is constant along diagonals, T[j,k] = t[j-k], and is
stored as the 2n-1 coefficients t[-(n-1)..n-1].  A circulant wraps
around, C[j,k] = col[(j-k) mod n]; a skew-circulant flips the sign of
the wrapped entries, S[j,k] = col[j-k] for j >= k and -col[j-k+n]
otherwise.

``cscs_split`` realizes the splitting T = C + S with

    c[0] = s[0] = t[0] / 2,
    c[l] = (t[l] + t[l-n]) / 2,   s[l] = (t[l] - t[l-n]) / 2,   1 <= l < n,

which is exact in floating point (sums and differences halved), so the
reconstruction dense(C) + dense(S) == dense(T) holds entrywise.

``dense_of`` and ``naive_matvec`` are the O(n^2) oracles the fast paths
are tested against.

Input contract.  The package's five input checks live here: ``_vector``
(a 1-d vector of numbers), ``_size`` (an integer >= 1), ``_number``
(a finite number, positive where asked), ``_instance`` (one of the
library's own types, such as the ``ToeplitzBands`` that ``cscs_split``
and the solver take) and ``_flag`` (a bool, such as ``transposed``,
never another object read by its truthiness).  Each raises ValueError
naming the argument for a bool, a non-number, the wrong shape or type
and NaN or Inf.  Value objects check themselves when built and hold
read-only float64 copies of their arrays.
The linear products (transforms, core products, matvecs, ``dft``) check
the shape and that the values are numbers (a bool or a complex array
raises, except a complex one for ``dft``), and pass NaN and Inf through,
as IEEE arithmetic does: a
sweep and its stopping test make 12 checked calls, and a finiteness
test in each would add about a tenth to them at n = 256 (1.5 us each,
on a 2-core x86-64 host).
"""

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ToeplitzBands", "CirculantCol", "SkewCirculantCol",
    "toeplitz_from_bands", "cscs_split", "dense_of", "naive_matvec",
]


def _number(value, what, positive=False):
    """Raise ValueError unless ``value`` is a finite number, > 0 if ``positive``."""
    # a bool is an int to Python, and would pass as 0 or 1
    if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not (0 if positive else -np.inf) < value < np.inf:
        rule = "positive and finite" if positive else "finite"
        raise ValueError(f"{what} must be {rule}, got {value}")


def _size(value, what):
    """Return ``value`` if it is an integer >= 1; raise ValueError otherwise."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        _number(value, what)  # names a bool, a non-number, NaN or Inf
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")
    return value


def _instance(value, kinds, what):
    """Return ``value`` if it is one of ``kinds``; raise ValueError naming ``what``."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if not isinstance(value, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"{what} must be a {names}, got {value!r}")
    return value


def _flag(value, what):
    """Return ``value`` if it is a bool; raise ValueError otherwise, never reading
    another object (a string, a number, None) by its truthiness."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be a bool, got {value!r}")
    return value


def _vector(values, what, n=None, finite=True, dtype=np.float64):
    """``values`` as a 1-d array of length ``n``, or nonempty when n is None.

    The values must be numbers: integers or reals, and complex values
    only for a complex ``dtype``; numpy would convert a bool or a string
    silently, and a complex value to its real part with only a
    ComplexWarning.  With
    ``finite`` they must be real, not bools even in a list, and finite,
    and the result is a read-only float64 copy.  Without it only the kind
    and the shape are checked, and the result may be ``values`` itself,
    converted to ``dtype``.  Raises ValueError for anything else.
    """
    try:
        v = np.asarray(values)
    except (TypeError, ValueError):
        v = None
    if v is not None:
        # numpy reads [True, 2.0] as the float64 vector [1.0, 2.0]
        mixed = finite and isinstance(values, (list, tuple)) and any(
            isinstance(x, (bool, np.bool_)) for x in values)
        if mixed or v.dtype.kind not in ("iufc" if dtype is np.complex128 else "iuf"):
            v = None
    if v is None:
        raise ValueError(f"{what} must be a list of numbers, got {values!r}")
    if n is not None and v.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {v.shape}")
    if n is None and (v.ndim != 1 or v.shape[0] < 1):
        raise ValueError(f"expected a non-empty vector for {what}, got shape {v.shape}")
    if not finite:
        return v.astype(dtype, copy=False)
    if not np.isfinite(v).all():
        raise ValueError(f"{what} must be finite (got NaN or Inf)")
    v = v.astype(np.float64)
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class ToeplitzBands:
    """Toeplitz matrix as diagonal coefficients t[-(n-1)] .. t[n-1], ascending.

    ``coeffs`` is a read-only float64 copy of the array passed in.  The
    first ``cscs_solve`` or ``theta_scan`` of T keeps its split spectra,
    the ``ToeplitzOperator`` of ``fast_matvec._operator``, on T itself
    for the later ones; a pickle or a copy of T leaves them out and builds
    its own on first use, and its ``coeffs`` are read-only again.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        _size(self.n, "Toeplitz size n")
        object.__setattr__(self, "coeffs",
                           _vector(self.coeffs, "Toeplitz coeffs", 2 * self.n - 1))

    def __getstate__(self):
        # the fields only: the kept operator is not one
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state):
        # checked and made read-only again: unpickled or deep-copied
        # arrays come back writable
        self.__init__(**state)

    def t(self, k: int) -> float:
        """Diagonal coefficient t[k], -(n-1) <= k <= n-1."""
        return float(self.coeffs[k + self.n - 1])


class _Column:
    """A matrix identified by its first column, kept as a read-only float64 copy."""

    def __post_init__(self):
        _size(self.n, "matrix size n")
        object.__setattr__(self, "col", _vector(self.col, "first column", self.n))


@dataclass(frozen=True, eq=False)
class CirculantCol(_Column):
    """Circulant matrix identified by its first column."""

    n: int
    col: np.ndarray


@dataclass(frozen=True, eq=False)
class SkewCirculantCol(_Column):
    """Skew-circulant matrix identified by its first column."""

    n: int
    col: np.ndarray


_STRUCTURED = (ToeplitzBands, CirculantCol, SkewCirculantCol)


def toeplitz_from_bands(coeffs) -> ToeplitzBands:
    """Build a ToeplitzBands from a length-(2n-1) coefficient vector."""
    size = np.size(coeffs)
    if size % 2 == 0:
        raise ValueError(f"band vector must have odd length 2n-1, got {size}")
    return ToeplitzBands((size + 1) // 2, coeffs)


def cscs_split(T: ToeplitzBands) -> tuple[CirculantCol, SkewCirculantCol]:
    """Split T = C + S into circulant and skew-circulant parts (exact)."""
    n = _instance(T, ToeplitzBands, "T").n
    c = np.empty(n)
    s = np.empty(n)
    c[0] = s[0] = T.coeffs[n - 1] / 2.0
    if n > 1:
        pos = T.coeffs[n:]          # t[1] .. t[n-1]
        neg = T.coeffs[:n - 1]      # t[1-n] .. t[-1], i.e. t[l-n] at slot l-1
        c[1:] = (pos + neg) / 2.0
        s[1:] = (pos - neg) / 2.0
    return CirculantCol(n, c), SkewCirculantCol(n, s)


def dense_of(M) -> np.ndarray:
    """Full n x n materialization of any structured type (test oracle)."""
    _instance(M, _STRUCTURED, "dense_of M")
    j = np.arange(M.n)
    d = j[:, None] - j[None, :]
    if isinstance(M, ToeplitzBands):
        return M.coeffs[d + M.n - 1]
    if isinstance(M, CirculantCol):
        return M.col[d % M.n]
    return np.where(d >= 0, M.col[d % M.n], -M.col[(d + M.n) % M.n])


def naive_matvec(M, x) -> np.ndarray:
    """Exact O(n^2) dense product; ground truth for the fast paths."""
    n = _instance(M, _STRUCTURED, "naive_matvec M").n
    return dense_of(M) @ _vector(x, "vector", n, finite=False)
