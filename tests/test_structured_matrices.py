"""Structured value types, the CSCS splitting, and the dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cscskit.structured_matrices import (
    CirculantCol, SkewCirculantCol, ToeplitzBands, cscs_split, dense_of,
    naive_matvec, toeplitz_from_bands,
)

from conftest import random_bands


def test_toeplitz_pattern_2x2():
    T = toeplitz_from_bands([1.0, 2.0, 1.0])
    assert np.array_equal(dense_of(T), [[2, 1], [1, 2]])


def test_toeplitz_scalar_matrix():
    T = toeplitz_from_bands([0.0, 5.0, 0.0])
    assert np.array_equal(dense_of(T), [[5, 0], [0, 5]])


def test_toeplitz_3x3_rows_and_columns():
    T = toeplitz_from_bands([3.0, 1.0, 2.0, 0.0, 7.0])
    D = dense_of(T)
    assert np.array_equal(D[:, 0], [2, 0, 7])
    assert np.array_equal(D[0, :], [2, 1, 3])


def test_even_band_length_rejected():
    with pytest.raises(ValueError):
        toeplitz_from_bands([1.0, 2.0])


def test_non_finite_band_rejected():
    with pytest.raises(ValueError, match="finite"):
        toeplitz_from_bands([1.0, np.nan, 1.0])


def test_cscs_split_2x2():
    T = toeplitz_from_bands([1.0, 2.0, 1.0])
    C, S = cscs_split(T)
    assert np.array_equal(dense_of(C), [[1, 1], [1, 1]])
    assert np.array_equal(dense_of(S), [[1, 0], [0, 1]])


def test_cscs_split_diagonal():
    T = toeplitz_from_bands([0.0, 0.0, 2.0, 0.0, 0.0])
    C, S = cscs_split(T)
    assert np.array_equal(dense_of(C), np.eye(3))
    assert np.array_equal(dense_of(S), np.eye(3))


def test_cscs_split_reconstruction_random(rng):
    # rounding the two halves costs at most an ulp of the largest band
    for n in (1, 2, 3, 7, 16, 33, 64):
        T = toeplitz_from_bands(random_bands(rng, n))
        C, S = cscs_split(T)
        tol = np.finfo(np.float64).eps * max(1.0, np.abs(T.coeffs).max())
        assert np.abs(dense_of(C) + dense_of(S) - dense_of(T)).max() <= tol


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=31).filter(
    lambda v: len(v) % 2 == 1))
def test_property_split_reconstruction_exact_on_dyadics(bands):
    # with exactly representable halves the reconstruction is bit-exact
    T = toeplitz_from_bands(np.array(bands, dtype=np.float64))
    C, S = cscs_split(T)
    assert np.array_equal(dense_of(C) + dense_of(S), dense_of(T))


def test_dense_circulant_wrap():
    C = CirculantCol(3, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(dense_of(C), [[1, 3, 2], [2, 1, 3], [3, 2, 1]])


def test_dense_skew_wrap_2x2():
    S = SkewCirculantCol(2, np.array([1.0, 2.0]))
    assert np.array_equal(dense_of(S), [[1, -2], [2, 1]])


def test_dense_skew_shift_matrix():
    S = SkewCirculantCol(3, np.array([0.0, 1.0, 0.0]))
    assert np.array_equal(dense_of(S), [[0, 0, -1], [1, 0, 0], [0, 1, 0]])


def test_circulant_product_closure(rng):
    # the circulant class is closed under multiplication
    for n in (2, 5, 16):
        a = dense_of(CirculantCol(n, rng.standard_normal(n)))
        b = dense_of(CirculantCol(n, rng.standard_normal(n)))
        prod = a @ b
        rebuilt = dense_of(CirculantCol(n, prod[:, 0].copy()))
        assert np.abs(prod - rebuilt).max() < 1e-12 * max(1, np.abs(prod).max())


def test_naive_matvec_identity_circulant():
    n = 5
    col = np.zeros(n)
    col[0] = 1.0
    x = np.arange(1.0, n + 1)
    assert np.array_equal(naive_matvec(CirculantCol(n, col), x), x)


def test_naive_matvec_row_sums():
    C = CirculantCol(4, np.array([2.0, 1.0, 0.0, 1.0]))
    assert np.array_equal(naive_matvec(C, np.ones(4)), [4, 4, 4, 4])


def test_naive_matvec_skew_2x2():
    S = SkewCirculantCol(2, np.array([0.0, 1.0]))
    assert np.array_equal(naive_matvec(S, np.array([1.0, 2.0])), [-2, 1])


def test_naive_matvec_dimension_error():
    with pytest.raises(ValueError):
        naive_matvec(CirculantCol(3, np.ones(3)), np.ones(4))


@pytest.mark.parametrize("build, values", [
    (ToeplitzBands, np.ones(4)),
    (ToeplitzBands, np.ones(6)),
    (ToeplitzBands, np.ones((5, 1))),
    (CirculantCol, np.ones(4)),
    (CirculantCol, np.ones((3, 1))),
    (SkewCirculantCol, np.ones(2)),
], ids=["bands-4", "bands-6", "bands-2d", "circulant-4", "circulant-2d", "skew-2"])
def test_value_types_reject_a_wrong_shape(build, values):
    # not a silent broadcast in cscs_split: ToeplitzBands(3, ones(4)) gave
    # T @ ones = [3, 3, 3]
    with pytest.raises(ValueError, match="must have shape"):
        build(3, values)


def test_band_accessor():
    T = toeplitz_from_bands([3.0, 1.0, 2.0, 0.0, 7.0])
    assert T.t(0) == 2.0 and T.t(2) == 7.0 and T.t(-2) == 3.0
