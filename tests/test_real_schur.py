"""Butterfly, block factors, spectra and X-pattern cores.

Oracles: the dense orthogonal bases from ``dense_u_oracle`` (complex
eigenvector construction), dense congruences, and numpy's dense complex
eigensolver for eigenvalue multisets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cscskit import _dft, real_schur
from cscskit.real_schur import (
    SingularShiftError, XPattern, apply_block_transform, apply_q,
    dense_u_oracle, from_core, real_spectrum, to_core, xpattern_apply,
    xpattern_shifted_solve,
)
from cscskit.structured_matrices import CirculantCol, SkewCirculantCol, dense_of
from cscskit.trig_transforms import DCT_I, dtt_matrix

SQ2 = np.sqrt(2.0)


def dense_q(n):
    return np.column_stack([apply_q(e) for e in np.eye(n)])


def x_dense(X):
    return X.dense()


# ---------------------------------------------------------------- butterfly

def test_q_example_n4():
    y = apply_q(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(y, [1.0, 6 / SQ2, 3.0, 2 / SQ2], atol=1e-15)


def test_q_degenerate_n1():
    assert np.array_equal(apply_q(np.array([5.0])), [5.0])


def test_q_round_trip(rng):
    for n in range(1, 40):
        x = rng.standard_normal(n)
        assert np.abs(apply_q(apply_q(x), transposed=True) - x).max() < 1e-15 * max(
            1, np.abs(x).max())


def test_q_empty_rejected():
    with pytest.raises(ValueError):
        apply_q(np.array([]))


def test_q_is_orthogonal(rng):
    for n in (2, 3, 6, 7):
        Q = dense_q(n)
        assert np.abs(Q @ Q.T - np.eye(n)).max() < 1e-15


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2 ** 31 - 1))
def test_property_q_preserves_norm(n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    assert abs(np.linalg.norm(apply_q(x)) - np.linalg.norm(x)) < 1e-12 * max(
        1, np.linalg.norm(x))


# ------------------------------------------------------------- block factor

@pytest.mark.parametrize("n", range(2, 18))
@pytest.mark.parametrize("side", ("circulant", "skew"))
def test_block_factor_equals_q_times_u(side, n):
    # Q @ U (circulant) and Q.T @ Utilde (skew) are block-diagonal
    # cosine/sine transforms; check column by column against the oracle
    U = dense_u_oracle(side, n)
    QU = np.column_stack([apply_q(col, transposed=(side == "skew"))
                          for col in U.T])
    B = np.column_stack([apply_block_transform(side, e) for e in np.eye(n)])
    assert np.abs(B - QU).max() < 1e-12
    # the basis change U (from_core) and its inverse U.T (to_core)
    eye = np.eye(n)
    assert np.abs(np.column_stack([from_core(side, e) for e in eye]) - U).max() < 1e-12
    assert np.abs(np.column_stack([to_core(side, col) for col in U.T]) - eye).max() < 1e-12


def test_block_transform_round_trip(rng):
    for side in ("circulant", "skew"):
        for n in (1, 2, 3, 8, 9, 32, 33):
            x = rng.standard_normal(n)
            y = apply_block_transform(side, x)
            back = apply_block_transform(side, y, transposed=True)
            assert np.abs(back - x).max() < 1e-12 * max(1, np.abs(x).max())


def test_block_transform_n2_circulant_is_dct1():
    # m = 1: a 2x2 DCT-I block and an empty sine block
    y = apply_block_transform("circulant", np.array([1.0, 0.0]))
    assert np.allclose(y, dtt_matrix(DCT_I, 2)[:, 0], atol=1e-15)


# ------------------------------------------------------------- dense oracle

@pytest.mark.parametrize("n", range(3, 17))
@pytest.mark.parametrize("kind", ("circulant", "skew"))
def test_dense_u_is_orthogonal(kind, n):
    U = dense_u_oracle(kind, n)
    assert np.abs(U.T @ U - np.eye(n)).max() < 1e-12


@pytest.mark.parametrize("n", range(4, 17))
def test_congruence_hits_the_x_pattern(n, rng):
    for kind, maker in (("circulant", CirculantCol), ("skew", SkewCirculantCol)):
        M = dense_of(maker(n, rng.standard_normal(n)))
        U = dense_u_oracle(kind, n)
        core = U.T @ M @ U
        j = np.arange(n)
        partner = (n - j) % n if kind == "circulant" else n - 1 - j
        mask = np.zeros((n, n), dtype=bool)
        mask[j, j] = True
        mask[j, partner] = True
        assert np.abs(core[~mask]).max() < 1e-12


# ------------------------------------------------------------ real_spectrum

def test_spectrum_circulant_2101():
    # symmetric circulant: real eigenvalues 4, 2 (twice), 0
    pair = real_spectrum("circulant", np.array([2.0, 1.0, 0.0, 1.0]))
    assert np.allclose(pair.alphas, [4.0, 2.0, 0.0], atol=1e-13)
    assert pair.betas.shape == (1,)
    assert np.allclose(pair.betas, 0.0, atol=1e-13)


def test_spectrum_scalar_matrix():
    for kind in ("circulant", "skew"):
        col = np.zeros(6)
        col[0] = 3.5
        pair = real_spectrum(kind, col)
        assert np.allclose(pair.alphas, 3.5, atol=1e-13)
        assert np.allclose(pair.betas, 0.0, atol=1e-13)


def _sorted_eigs(values):
    values = np.asarray(values, dtype=np.complex128)
    order = np.lexsort((values.imag.round(9), values.real.round(9)))
    return values[order]


@pytest.mark.parametrize("n", [2, 3, 8, 9, 16, 31, 32])
def test_eigenvalue_multiset_matches_dense(n, rng):
    for kind, maker in (("circulant", CirculantCol), ("skew", SkewCirculantCol)):
        col = rng.standard_normal(n)
        ours = _sorted_eigs(real_spectrum(kind, col).eigenvalues())
        dense = _sorted_eigs(np.linalg.eigvals(dense_of(maker(n, col))))
        assert np.abs(ours - dense).max() < 1e-10 * max(1, np.abs(dense).max())


@pytest.mark.parametrize("n", range(2, 34))
def test_reconstruction_both_kinds(n, rng):
    for kind, maker in (("circulant", CirculantCol), ("skew", SkewCirculantCol)):
        col = rng.standard_normal(n)
        M = dense_of(maker(n, col))
        U = dense_u_oracle(kind, n)
        X = real_spectrum(kind, col).expand()
        assert np.abs(U.T @ M @ U - x_dense(X)).max() < 1e-10


def test_spectrum_lengths_follow_parity():
    even_c = real_spectrum("circulant", np.ones(8))
    assert even_c.alphas.shape == (5,) and even_c.betas.shape == (3,)
    odd_c = real_spectrum("circulant", np.ones(9))
    assert odd_c.alphas.shape == (5,) and odd_c.betas.shape == (4,)
    even_s = real_spectrum("skew", np.ones(8))
    assert even_s.alphas.shape == (4,) and even_s.betas.shape == (4,)
    odd_s = real_spectrum("skew", np.ones(9))
    assert odd_s.alphas.shape == (5,) and odd_s.betas.shape == (4,)


def test_per_size_caches_stay_bounded():
    # a process that meets many sizes keeps tables for a bounded number
    caches = (real_schur._block_plans, real_schur._partner_indices,
              _dft._bluestein_tables)
    bounds = [cache.cache_info().maxsize for cache in caches]
    assert None not in bounds
    for n in range(100, 100 + 3 * max(bounds)):
        for kind in ("circulant", "skew"):
            real_spectrum(kind, np.ones(n)).expand()
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize <= info.maxsize, cache


# ---------------------------------------------------------------- X-pattern

def _pair_pattern(alpha, beta):
    return XPattern(2, "skew", np.array([alpha, alpha]),
                    np.array([beta, -beta]))


def test_xpattern_apply_zero_pattern():
    X = XPattern(3, "circulant", np.zeros(3), np.zeros(3))
    y = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(xpattern_apply(X, 3.0, "plus", y), 3 * y)


def test_xpattern_apply_single_pair():
    X = _pair_pattern(2.0, 3.0)
    # theta I + X = [[3, 3], [-3, 3]]
    assert np.array_equal(xpattern_apply(X, 1.0, "plus", np.array([1.0, 0.0])),
                          [3.0, -3.0])


def test_xpattern_apply_matches_dense(rng):
    for n in (1, 2, 5, 12, 32):
        pairing = "skew" if n % 2 == 0 else "circulant"
        j = np.arange(n)
        partner = n - 1 - j if pairing == "skew" else (n - j) % n
        diag = rng.standard_normal(n)
        anti = rng.standard_normal(n)
        diag = (diag + diag[partner]) / 2
        anti = (anti - anti[partner]) / 2
        X = XPattern(n, pairing, diag, anti)
        y = rng.standard_normal(n)
        dense = x_dense(X)
        for sign, ref in (("plus", 0.7 * y + dense @ y),
                          ("minus", 0.7 * y - dense @ y),
                          ("none", dense @ y)):
            got = xpattern_apply(X, 0.7, sign, y)
            assert np.abs(got - ref).max() < 1e-13 * max(1, np.abs(ref).max())


def test_shifted_solve_scalar():
    X = XPattern(1, "circulant", np.array([3.0]), np.zeros(1))
    assert np.array_equal(xpattern_shifted_solve(X, 1.0, np.array([6.0])), [1.5])


def test_shifted_solve_pair():
    X = _pair_pattern(2.0, 3.0)
    y = xpattern_shifted_solve(X, 1.0, np.array([1.0, 0.0]))
    assert np.allclose(y, [1 / 6, 1 / 6], atol=1e-15)


def test_shifted_solve_round_trip(rng):
    for n in (1, 3, 8, 21):
        pairing = "circulant"
        j = np.arange(n)
        partner = (n - j) % n
        diag = rng.standard_normal(n)
        anti = rng.standard_normal(n)
        diag = (diag + diag[partner]) / 2
        anti = (anti - anti[partner]) / 2
        X = XPattern(n, pairing, diag, anti)
        y = rng.standard_normal(n)
        z = xpattern_apply(X, 5.0, "plus", y)
        back = xpattern_shifted_solve(X, 5.0, z)
        assert np.abs(back - y).max() < 1e-12 * max(1, np.abs(y).max())


def test_shifted_solve_singular_names_index():
    X = XPattern(3, "circulant", np.array([1.0, 2.0, 2.0]), np.zeros(3))
    with pytest.raises(SingularShiftError) as err:
        xpattern_shifted_solve(X, -1.0, np.ones(3))
    assert err.value.index == 0
