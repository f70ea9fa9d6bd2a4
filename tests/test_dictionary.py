import warnings

import numpy as np
import pytest

from tdcodec import AtomTable, TrigDictionary
from tdcodec import dictionary
from tdcodec.dictionary import synthesize_block

from conftest import atom_table
from oracles import (
    atom_integer_phase,
    atoms_synthesis,
    cos_norm2_direct,
    direct_inner_products,
    sin_norm2_direct,
)


def test_default_geometry_has_redundancy_four():
    d = TrigDictionary(1024, 2048)
    assert d.num_atoms == 4096
    assert d.redundancy == 4.0


def test_default_half_size_is_twice_block_size():
    d = TrigDictionary(64)
    assert d.half_size == 128


@pytest.mark.parametrize("half_size", [32, 17])
def test_atom_has_the_bits_of_the_integer_phase_formula(half_size):
    d = TrigDictionary(16, half_size)
    for n in range(1, d.num_atoms + 1):
        assert np.array_equal(d.atom(n), atom_integer_phase(d, n)), n


def test_first_cosine_normalization_is_sqrt_block_size():
    d = TrigDictionary(4, 8)
    assert d.w_cos[0] == pytest.approx(2.0, abs=0)


def test_normalizations_match_direct_sums():
    for nb, m in [(4, 8), (16, 32), (8, 13)]:
        d = TrigDictionary(nb, m)
        for n in range(1, m + 1):
            assert d.w_cos[n - 1] ** 2 == pytest.approx(
                cos_norm2_direct(nb, m, n), abs=1e-9
            )
            assert d.w_sin[n - 1] ** 2 == pytest.approx(
                sin_norm2_direct(nb, m, n), abs=1e-9
            )


def test_norms_of_a_huge_dictionary_over_short_blocks_are_exact():
    # near x = pi a closed form with 1 - cos(2x) in its denominator cancels
    # to negative squared norms; the norms must stay finite and exact
    nb, m = 16, 1 << 20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = TrigDictionary(nb, m)
    n = np.arange(1, m + 1)
    cos2, sin2 = np.zeros(m), np.zeros(m)
    for i in range(1, nb + 1):
        cos2 += np.cos(np.pi * (2 * i - 1) * (n - 1) / (2 * m)) ** 2
        sin2 += np.sin(np.pi * (2 * i - 1) * n / (2 * m)) ** 2
    assert np.isfinite(d.w_cos).all() and np.isfinite(d.w_sin).all()
    assert np.abs(d.w_cos - np.sqrt(cos2)).max() <= 1e-12
    assert np.abs(d.w_sin - np.sqrt(sin2)).max() <= 1e-12


def test_last_sine_normalization_uses_direct_sum():
    # the closed form is 0/0 at the top sine index
    d = TrigDictionary(4, 8)
    assert d.w_sin[-1] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("nb", [4, 16, 64])
def test_every_atom_has_unit_norm(nb):
    d = TrigDictionary(nb)
    atoms = d.atoms_matrix(np.arange(1, d.num_atoms + 1))
    norms = np.linalg.norm(atoms, axis=1)
    assert np.abs(norms - 1).max() <= 1e-10


def test_unit_norms_for_nondefault_half_size():
    d = TrigDictionary(16, 25)
    norms = np.linalg.norm(d.atoms_matrix(np.arange(1, 51)), axis=1)
    assert np.abs(norms - 1).max() <= 1e-10


def test_first_atom_is_constant():
    d = TrigDictionary(4, 8)
    assert d.atom(1) == pytest.approx(np.full(4, 0.5), abs=1e-15)


def test_top_sine_atom_alternates():
    d = TrigDictionary(4, 8)
    assert d.atom(16) == pytest.approx([0.5, -0.5, 0.5, -0.5], abs=1e-12)


def test_atom_index_bounds():
    d = TrigDictionary(4, 8)
    with pytest.raises(ValueError):
        d.atom(0)
    with pytest.raises(ValueError):
        d.atom(17)


@pytest.mark.parametrize("nb, m", [(4, 8), (16, 32), (12, 20)])
def test_atom_is_bit_identical_to_its_atoms_matrix_row(nb, m):
    d = TrigDictionary(nb, m)
    for n in (1, m, m + 1, 2 * m):
        assert np.array_equal(d.atom(n), d.atoms_matrix([n])[0])
    for n in (0, 2 * m + 1):
        with pytest.raises(ValueError):
            d.atom(n)


def test_constructor_rejects_bad_sizes():
    with pytest.raises(ValueError):
        TrigDictionary(1)
    with pytest.raises(ValueError):
        TrigDictionary(8, 7)


def test_inner_products_of_atoms_are_unit_self_products(rng):
    d = TrigDictionary(16, 32)
    for n in (1, 2, 17, 32, 33, 40, 64):
        panel = d.all_inner_products(d.atom(n))
        assert panel[n - 1] == pytest.approx(1.0, abs=1e-9)


def test_inner_products_of_zero_vector_are_zero():
    d = TrigDictionary(16, 32)
    assert np.all(d.all_inner_products(np.zeros(16)) == 0)


def test_fft_panel_matches_direct_summation(rng):
    d = TrigDictionary(64, 128)
    for _ in range(20):
        y = rng.normal(size=64)
        got = d.all_inner_products(y)
        want = direct_inner_products(d, y)
        tol = 1e-9 * max(1.0, np.linalg.norm(y))
        assert np.abs(got - want).max() <= tol


def test_fft_panel_matches_direct_for_odd_half_size(rng):
    d = TrigDictionary(8, 13)
    for _ in range(10):
        y = rng.normal(size=8)
        assert np.abs(
            d.all_inner_products(y) - direct_inner_products(d, y)
        ).max() <= 1e-9


def test_sine_family_alignment(rng):
    # panel entry half_size + k must be the product with sine atom k
    d = TrigDictionary(16, 32)
    y = rng.normal(size=16)
    panel = d.all_inner_products(y)
    for k in range(1, 33):
        assert panel[32 + k - 1] == pytest.approx(
            float(d.atom(32 + k) @ y), abs=1e-10
        )


def test_panel_rejects_wrong_length():
    d = TrigDictionary(16, 32)
    with pytest.raises(ValueError):
        d.all_inner_products(np.zeros(15))


def test_synthesize_block_matches_manual_combination(rng):
    d = TrigDictionary(16, 32)
    idx = np.array([3, 40, 17])
    coef = rng.normal(size=(3, 2))
    got = synthesize_block(d, idx, coef)
    want = sum(np.outer(d.atom(n), coef[i]) for i, n in enumerate(idx))
    assert got == pytest.approx(want, abs=1e-12)


def test_synthesize_block_empty_is_silence():
    d = TrigDictionary(16, 32)
    out = synthesize_block(d, np.empty(0, dtype=int), np.zeros((0, 2)))
    assert out.shape == (16, 2)
    assert np.all(out == 0)


GEOMETRIES = [(16, 32), (12, 20), (8, 13), (16, 24), (9, 9), (1024, 2048)]


@pytest.mark.parametrize("nb, m", GEOMETRIES)
def test_batched_panels_are_bit_identical_to_one_block_panels(rng, nb, m):
    d = TrigDictionary(nb, m)
    y = rng.normal(size=(5, 3, nb))
    panels = d.all_inner_products(y)
    assert panels.shape == (5, 3, 2 * m)
    for i in range(5):
        for j in range(3):
            assert np.array_equal(panels[i, j], d.all_inner_products(y[i, j]))
    # a strided stack (channels of (N_b, L) blocks) gives the same bits
    strided = y.transpose(0, 2, 1).copy().transpose(0, 2, 1)
    assert np.array_equal(d.all_inner_products(strided), panels)


@pytest.mark.parametrize("nb, m", GEOMETRIES)
def test_synthesis_is_the_adjoint_of_the_panel(rng, nb, m):
    # <synth(c), y> == <c, analysis(y)> over every atom, several blocks
    d = TrigDictionary(nb, m)
    q, channels = 3, 2
    coefs = [rng.normal(size=(2 * m, channels)) for _ in range(q)]
    every = np.arange(1, 2 * m + 1)
    y = rng.normal(size=(q, nb, channels))
    lhs = float(np.sum(d.synthesize(atom_table([(every, c) for c in coefs])) * y))
    panels = d.all_inner_products(y.transpose(0, 2, 1))   # (q, L, 2M)
    rhs = float(np.sum(np.stack(coefs) * panels.transpose(0, 2, 1)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs), abs(lhs))


def _synthesis_case(rng, d, k, channels):
    """k distinct atoms including 1, M, M+1 and 2M when there is room."""
    m = d.half_size
    idx = rng.choice(np.arange(1, 2 * m + 1), size=k, replace=False)
    edges = [n for n in (1, m, m + 1, 2 * m) if n not in idx[4:]][: min(k, 4)]
    idx[: len(edges)] = edges
    return idx, rng.normal(size=(k, channels))


@pytest.mark.parametrize("channels", [1, 6])
@pytest.mark.parametrize("nb, m", [(1024, 2048), (1024, 1536), (16, 24), (12, 20)])
def test_synthesis_matches_atom_matrix_synthesis(rng, nb, m, channels):
    d = TrigDictionary(nb, m)
    cases = [_synthesis_case(rng, d, k, channels) for k in (1, 5, min(300, 2 * m), 0, 4)]
    got = d.synthesize(atom_table(cases))
    assert got.shape == (len(cases), nb, channels)
    for block, (idx, coef) in zip(got, cases):
        want = atoms_synthesis(d, idx, coef)
        assert np.abs(block - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert np.array_equal(synthesize_block(d, idx, coef), block)


def test_synthesis_does_not_depend_on_the_fft_chunk(rng, monkeypatch):
    # one block per inverse FFT call puts every block in a chunk of its own
    d = TrigDictionary(16, 32)
    cases = [_synthesis_case(rng, d, k, 3) for k in (5, 0, 64, 1, 7)]
    whole = d.synthesize(atom_table(cases))
    monkeypatch.setattr(dictionary, "FFT_CHUNK_BINS", 1)
    by_block = d.synthesize(atom_table(cases))
    assert np.array_equal(by_block, whole)


def test_synthesis_adds_repeated_atoms_like_the_atom_matrix():
    d = TrigDictionary(16, 32)
    got = synthesize_block(d, [5, 40, 5], np.array([1.0, 2.0, 3.0]))
    want = atoms_synthesis(d, [5, 40, 5], [1.0, 2.0, 3.0])
    assert np.abs(got - want).max() <= 1e-12


def test_synthesis_rejects_atom_indices_outside_the_dictionary():
    d = TrigDictionary(16, 32)
    for bad in (0, 65, -3):
        with pytest.raises(ValueError, match="out of range"):
            d.synthesize(AtomTable([2, 1], [1, 2, bad], np.ones((3, 1))))


@pytest.mark.parametrize(
    "counts, indices, values, message",
    [([2], [1, 2], np.ones((3, 2)), "atom count 2"),
     ([1], [1, 2], np.ones((2, 2)), "atom count 1"),
     ([1, 2], [1], np.ones((1, 2)), "atom count 3"),
     ([1], [[1]], np.ones((1, 2)), "atom count 1"),
     ([2], [1, 2], np.ones(2), "atom count 2"),
     ([3, -1], [1, 2], np.ones((2, 1)), "nonnegative"),
     ([[2]], [1, 2], np.ones((2, 1)), "nonnegative")],
    ids=["values_rows", "indices_length", "counts_sum", "indices_2d", "values_1d",
         "negative_count", "counts_2d"],
)
def test_atom_table_rejects_counts_and_shapes_that_disagree(counts, indices, values,
                                                            message):
    with pytest.raises(ValueError, match=message):
        AtomTable(counts, indices, values)


def test_synthesize_block_rejects_coefficient_rows_without_an_index():
    d = TrigDictionary(16, 32)
    with pytest.raises(ValueError, match="atom count"):
        synthesize_block(d, [1, 2], np.ones((3, 2)))


def test_atom_table_iterates_each_blocks_rows_as_views():
    indices = np.array([4, 1, 9, 2], dtype=np.int64)
    values = np.arange(8).reshape(4, 2)
    table = AtomTable([0, 3, 0, 1], indices, values)
    got = list(table)
    assert [idx.tolist() for idx, _ in got] == [[], [4, 1, 9], [], [2]]
    assert [v.tolist() for _, v in got] == [[], [[0, 1], [2, 3], [4, 5]], [], [[6, 7]]]
    assert all(np.shares_memory(idx, indices) for idx, _ in got if idx.size)
    assert all(np.shares_memory(v, values) for _, v in got if v.size)


def test_synthesis_of_no_blocks_is_empty():
    d = TrigDictionary(16, 32)
    assert d.synthesize(AtomTable([], [], np.zeros((0, 1)))).shape == (0, 16, 1)
