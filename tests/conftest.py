import numpy as np
import pytest

from cscskit.fast_matvec import CirculantOperator
from cscskit.real_schur import XPattern, _half_spectrum
from cscskit.trig_transforms import _eigenvalues, _sine_size


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_bands(rng, n, diag_boost=0.0):
    """Random Toeplitz bands; diag_boost > 0 makes both CSCS parts PD."""
    bands = rng.standard_normal(2 * n - 1)
    if diag_boost:
        bands[n - 1] = np.abs(bands).sum() + diag_boost
    return bands


def max_abs(a):
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def pattern(op):
    """The X-pattern core of an operator: diag + i anti are its eigenvalues in DFT order."""
    lam = _eigenvalues(op.kind, op.n, op.spectrum)
    return XPattern(op.n, op.kind, lam.real, lam.imag)


def operator(X):
    """The operator holding the half spectrum of an X-pattern core: ``pattern`` inverted."""
    n, kind = X.n, X.pairing
    k, sine = int(kind == "circulant"), _sine_size(kind, n)
    half = _half_spectrum(kind, n, X.diag[:n - sine], X.anti[k:k + sine])
    return CirculantOperator._of(kind, n, half)
