"""Fast structured products against the O(n^2) dense oracle."""

import numpy as np
import pytest

from cscskit.fast_matvec import (
    CirculantOperator, ToeplitzOperator, circulant_matvec,
    skew_circulant_matvec, toeplitz_matvec,
)
from cscskit.real_schur import XPattern
from cscskit.structured_matrices import (
    CirculantCol, SkewCirculantCol, naive_matvec, toeplitz_from_bands,
)

from conftest import random_bands


def rel_err(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    return float(np.abs(got - want).max()) / scale


def test_identity_circulant(rng):
    n = 8
    col = np.zeros(n)
    col[0] = 1.0
    op = CirculantOperator.from_circulant(CirculantCol(n, col))
    x = rng.standard_normal(n)
    assert np.abs(circulant_matvec(op, x) - x).max() < 1e-13


def test_circulant_row_sums():
    op = CirculantOperator.from_circulant(np.array([2.0, 1.0, 0.0, 1.0]))
    assert np.allclose(circulant_matvec(op, np.ones(4)), [4, 4, 4, 4], atol=1e-12)


def test_scalar_skew_circulant(rng):
    n = 7
    col = np.zeros(n)
    col[0] = -2.5
    op = CirculantOperator.from_skew_circulant(col)
    x = rng.standard_normal(n)
    assert np.abs(skew_circulant_matvec(op, x) + 2.5 * x).max() < 1e-12


def test_skew_2x2():
    op = CirculantOperator.from_skew_circulant(np.array([0.0, 1.0]))
    got = skew_circulant_matvec(op, np.array([1.0, 2.0]))
    assert np.allclose(got, [-2.0, 1.0], atol=1e-14)


def test_toeplitz_scaled_identity(rng):
    T = toeplitz_from_bands([0.0, 0.0, 2.0, 0.0, 0.0])
    op = ToeplitzOperator.from_bands(T)
    x = rng.standard_normal(3)
    assert np.abs(toeplitz_matvec(op, x) - 2 * x).max() < 1e-13


def test_toeplitz_2x2_example():
    T = toeplitz_from_bands([1.0, 2.0, 1.0])
    op = ToeplitzOperator.from_bands(T)
    assert np.allclose(toeplitz_matvec(op, np.array([1.0, 0.0])), [2.0, 1.0],
                       atol=1e-14)


@pytest.mark.parametrize("n", list(range(2, 33)) + [255, 1000])
def test_circulant_oracle_equivalence(n, rng):
    col = rng.standard_normal(n)
    x = rng.standard_normal(n)
    op = CirculantOperator.from_circulant(col)
    assert rel_err(circulant_matvec(op, x),
                   naive_matvec(CirculantCol(n, col), x)) < 1e-11


@pytest.mark.parametrize("n", list(range(2, 33)) + [256, 1000])
def test_skew_oracle_equivalence(n, rng):
    col = rng.standard_normal(n)
    x = rng.standard_normal(n)
    op = CirculantOperator.from_skew_circulant(col)
    assert rel_err(skew_circulant_matvec(op, x),
                   naive_matvec(SkewCirculantCol(n, col), x)) < 1e-11


@pytest.mark.parametrize("n", [2, 6, 9, 100, 255])
def test_toeplitz_oracle_equivalence(n, rng):
    T = toeplitz_from_bands(random_bands(rng, n))
    x = rng.standard_normal(n)
    op = ToeplitzOperator.from_bands(T)
    assert rel_err(toeplitz_matvec(op, x), naive_matvec(T, x)) < 1e-10


def test_linearity(rng):
    n = 48
    op = CirculantOperator.from_circulant(rng.standard_normal(n))
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    a, b = 2.25, -1.5
    lhs = circulant_matvec(op, a * x + b * y)
    rhs = a * circulant_matvec(op, x) + b * circulant_matvec(op, y)
    assert rel_err(lhs, rhs) < 1e-11


def test_products_are_deterministic(rng):
    n = 50
    T = toeplitz_from_bands(random_bands(rng, n))
    op = ToeplitzOperator.from_bands(T)
    x = rng.standard_normal(n)
    first = toeplitz_matvec(op, x)
    second = toeplitz_matvec(op, x)
    assert np.array_equal(first, second)


def test_kind_and_dimension_guards(rng):
    op = CirculantOperator.from_circulant(np.ones(4))
    with pytest.raises(ValueError):
        skew_circulant_matvec(op, np.ones(4))
    with pytest.raises(ValueError):
        circulant_matvec(op, np.ones(5))


@pytest.mark.parametrize("n", [*range(1, 41), 4000, 4097])
def test_cores_hold_the_spectrum_in_dft_order(n, rng):
    # the fft backend reads its eigenvalues straight off the cores;
    # np.fft is an oracle independent of the library's DFT engine
    c, s = rng.standard_normal(n), rng.standard_normal(n)
    cases = ((CirculantOperator.from_circulant(c), np.conj(np.fft.fft(c))),
             (CirculantOperator.from_skew_circulant(s),
              np.fft.fft(s * np.exp(-1j * np.pi * np.arange(n) / n))))
    for op, want in cases:
        assert rel_err(op.pattern.diag + 1j * op.pattern.anti, want) < 1e-12, op.kind


def test_operator_cores_are_read_only():
    # every product, solve and scan on the operator reads these arrays
    op = ToeplitzOperator.from_bands(toeplitz_from_bands([0.2, 0.5, 3.0, 0.5, 0.2]))
    x = np.ones(3)
    before = toeplitz_matvec(op, x)
    for part in (op.circulant_part, op.skew_part):
        for values in (part.pattern.diag, part.pattern.anti):
            with pytest.raises(ValueError):
                values[0] += 1.0
    assert np.array_equal(toeplitz_matvec(op, x), before)


def test_operator_keeps_its_own_copy_of_the_caller_arrays():
    # an operator built from the caller's own arrays must not follow
    # later writes to them
    diag, anti = np.array([3.0, 1.0, 1.0]), np.zeros(3)
    op = CirculantOperator(XPattern(3, "circulant", diag, anti))
    x = np.ones(3)
    before = circulant_matvec(op, x)
    assert np.allclose(before, [3.0, 3.0, 3.0], atol=1e-14)
    diag[0] += 1.0
    anti[1] += 1.0
    assert np.array_equal(circulant_matvec(op, x), before)
    for values in (op.pattern.diag, op.pattern.anti):
        with pytest.raises(ValueError):
            values[0] += 1.0
