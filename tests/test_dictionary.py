import numpy as np
import pytest

from tdcodec import TrigDictionary, synthesize_block

from oracles import cos_norm2_direct, direct_inner_products, sin_norm2_direct


def test_default_geometry_has_redundancy_four():
    d = TrigDictionary(1024, 2048)
    assert d.num_atoms == 4096
    assert d.redundancy == 4.0


def test_default_half_size_is_twice_block_size():
    d = TrigDictionary(64)
    assert d.half_size == 128


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
