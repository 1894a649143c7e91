"""Transform kernels: definitional matrices, the factor blocks they are, orthogonality,
and the one real DFT each basis change runs."""

import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cscskit
from cscskit import _dft, trig_transforms
from cscskit.real_schur import apply_block_transform, from_core, to_core
from cscskit.trig_transforms import (
    DCT_I, DCT_II, DCT_V, DCT_VI, DST_I, DST_II, DST_V, DST_VI,
    DttKind, Family, Flavor, counting, dtt_matrix,
)

ALL_KINDS = (DCT_I, DCT_II, DCT_V, DCT_VI, DST_I, DST_II, DST_V, DST_VI)

SQ2 = np.sqrt(2.0)

# DFT embedding length L of each kind at size s (module docstring table)
EMBED_LENGTH = {
    DCT_I: lambda s: 2 * s - 2, DST_I: lambda s: 2 * s + 2,
    DCT_II: lambda s: 2 * s, DST_II: lambda s: 2 * s,
    DCT_V: lambda s: 2 * s - 1, DST_V: lambda s: 2 * s + 1,
    DCT_VI: lambda s: 2 * s - 1, DST_VI: lambda s: 2 * s + 1,
}


def test_kind_space_is_eight():
    kinds = {DttKind(f, v) for f in Family for v in Flavor}
    assert len(kinds) == 8
    assert set(ALL_KINDS) == kinds


def test_dct2_size2_matrix():
    expected = np.array([[1 / SQ2, 1 / SQ2], [1 / SQ2, -1 / SQ2]])
    assert np.allclose(dtt_matrix(DCT_II, 2), expected, atol=1e-15)


def test_dst1_size1_matrix():
    assert np.allclose(dtt_matrix(DST_I, 1), [[1.0]], atol=1e-15)


def test_every_kind_size1_is_identity():
    for kind in ALL_KINDS:
        assert np.allclose(dtt_matrix(kind, 1), [[1.0]], atol=1e-15), kind


def test_dct1_size3_matrix():
    # definitional 3x3 product with ones: (1 + 1/sqrt2, 0, 1 - 1/sqrt2)
    y = dtt_matrix(DCT_I, 3) @ np.ones(3)
    assert np.allclose(y, [1.7071067811865475, 0.0, 0.29289321881345254],
                       atol=1e-14)


def test_size_zero_rejected():
    with pytest.raises(ValueError):
        dtt_matrix(DCT_II, 0)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_orthogonality_sizes_1_to_64(kind):
    for s in range(1, 65):
        m = dtt_matrix(kind, s)
        assert np.abs(m @ m.T - np.eye(s)).max() < 1e-12, s


@pytest.mark.parametrize("kind", (DCT_I, DST_I, DCT_V, DST_V), ids=str)
def test_symmetric_kinds(kind):
    # DCT-I/DST-I (and the V family) are symmetric matrices
    for s in (1, 2, 3, 7, 12, 33):
        m = dtt_matrix(kind, s)
        assert np.abs(m - m.T).max() == 0.0


# the side of the basis-change factor whose blocks each family is
SIDE = {Family.I: "circulant", Family.V: "circulant", Family.II: "skew", Family.VI: "skew"}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_factor_blocks_are_the_definitional_transforms(kind):
    # each transform of size s is the cosine block, or the sine block read
    # backwards (its J), of the factor at n = L, its DFT embedding length
    for s in range(2, 41):
        n = EMBED_LENGTH[kind](s)
        side = SIDE[kind.family]
        eye = np.eye(n)
        B = np.column_stack([apply_block_transform(side, e) for e in eye])
        Bt = np.column_stack([apply_block_transform(side, e, transposed=True) for e in eye])
        assert np.abs(Bt - B.T).max() < 1e-12, s
        hs = n - trig_transforms._sine_size(side, n)
        block = B[:hs, :hs] if kind.flavor is Flavor.COSINE else B[hs:, hs:][::-1, ::-1]
        assert block.shape == (s, s)
        assert np.abs(block - dtt_matrix(kind, s)).max() < 1e-12, s


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_round_trip_and_norm(kind, rng):
    # the factor whose block the kind is, at its embedding length, keeps
    # the norm and its transpose undoes it
    side = SIDE[kind.family]
    for s in (2, 5, 16, 33, 127, 256):
        x = rng.standard_normal(EMBED_LENGTH[kind](s))
        y = apply_block_transform(side, x)
        assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-12 * max(
            1.0, np.linalg.norm(x))
        back = apply_block_transform(side, y, transposed=True)
        assert np.abs(back - x).max() < 1e-12 * max(1.0, np.abs(x).max())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 160), st.sampled_from(["circulant", "skew"]),
       st.integers(0, 2 ** 31 - 1))
def test_property_orthogonal_round_trip(n, side, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    back = apply_block_transform(side, apply_block_transform(side, x), transposed=True)
    assert np.abs(back - x).max() < 1e-12 * max(1.0, np.abs(x).max())


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_one_dft_of_half_the_even_embedding_length(kind, monkeypatch, rng):
    # each transform is one block of a basis change at n = L, one real
    # DFT: one DFT of L/2 points for even L and of L points for odd L
    lengths = []
    dft_vector = trig_transforms.dft_vector

    def recording(x):
        lengths.append(len(x))
        return dft_vector(x)

    monkeypatch.setattr(trig_transforms, "dft_vector", recording)
    side = SIDE[kind.family]
    for s in (*range(2, 40), 256, 257, 4096):
        length = EMBED_LENGTH[kind](s)
        want = length // 2 if length % 2 == 0 else length
        for transposed in (False, True):
            lengths.clear()
            apply_block_transform(side, rng.standard_normal(length), transposed)
            assert lengths == [want], (s, transposed)


def test_tally_counts_basis_changes():
    # by (flavor, size), only inside the block; each basis change counts
    # its DCT and its DST
    with counting() as used:
        to_core("circulant", np.ones(8))
        from_core("skew", np.ones(5))
        from_core("skew", np.ones(5))
    to_core("skew", np.ones(5))  # outside the block: not counted
    assert used == {(Flavor.COSINE, 5): 1, (Flavor.SINE, 3): 1,
                    (Flavor.COSINE, 3): 2, (Flavor.SINE, 2): 2}


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 256, 257, 4000, 4096, 4097, 65536])
def test_one_twist_table_serves_the_fold_and_the_fft_backend(n):
    # exp(-i pi j / n) is built once a size: the fft backend reads all n
    # entries as conj D, and the skew fold the first n//2, bitwise the
    # table it built for itself
    t = trig_transforms._twist(n)
    assert not t.flags.writeable
    assert t.tobytes() == np.exp(-1j * np.pi * np.arange(n) / n).tobytes()
    assert t[:n // 2].tobytes() == np.exp(-1j * np.pi * np.arange(n // 2) / n).tobytes()


def _modules():
    """Every cscskit module but __main__, whose import runs the CLI."""
    return {info.name: importlib.import_module(f"cscskit.{info.name}")
            for info in pkgutil.iter_modules(cscskit.__path__) if info.name != "__main__"}


def _bound(module, owner):
    """The names in ``module`` bound to ``owner`` or to an object it defines."""
    return sorted(name for name, value in vars(module).items()
                  if value is owner or getattr(value, "__module__", None) == owner.__name__)


def test_the_dft_engine_is_bound_in_two_modules():
    # perfbench traces the kernels' DFTs at trig_transforms.dft_vector and
    # the complex comparator's at cscs_solvers.dft; a module that bound the
    # engine elsewhere would run DFTs that neither count sees
    bound = {name: names for name, module in _modules().items()
             if name != "_dft" and (names := _bound(module, _dft))}
    assert bound == {"trig_transforms": ["dft_vector"], "cscs_solvers": ["_dft"]}
    assert cscskit.SingularShiftError is cscskit.real_schur.SingularShiftError


def test_four_maps_call_the_dft_engine():
    # each basis change dispatches once, inside its map: no real-DFT layer
    # sits between the maps and the engine, so swapping the engine edits
    # these four functions and cscs_solvers.dft, and nothing else
    modules = _modules()
    kernels = modules["trig_transforms"]
    engine = set(_bound(kernels, _dft))
    callers = sorted(name for name, value in vars(kernels).items()
                     if engine & set(getattr(getattr(value, "__code__", None), "co_names", ())))
    assert callers == ["_from_spectrum", "_products", "_spectra", "_spectrum"]
    assert not [(name, gone) for name, module in modules.items()
                for gone in ("_rdft", "_irdft", "_spectral_pair") if hasattr(module, gone)]


def test_the_alpha_beta_layout_lives_in_real_schur():
    # an operator holds its half spectrum and neither takes nor gives an
    # X-pattern, so fast_matvec needs nothing of real_schur, and only
    # real_schur maps a half spectrum to alphas and betas; the CLI prints
    # them through real_spectrum, not through an operator
    modules = _modules()
    assert _bound(modules["fast_matvec"], modules["real_schur"]) == []
    assert [name for name, module in modules.items()
            if "_half_spectrum" in vars(module)] == ["real_schur"]
    assert _bound(modules["cli"], modules["fast_matvec"]) == []
    assert not hasattr(cscskit.CirculantOperator, "pattern")
    with pytest.raises(TypeError):
        cscskit.CirculantOperator(cscskit.real_spectrum("circulant", [1.0, 2.0]).expand())
