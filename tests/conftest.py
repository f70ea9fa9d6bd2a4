import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20240515)


def random_blocks(rng, q, nb, channels):
    return [rng.normal(size=(nb, channels)) for _ in range(q)]


def atom_table(blocks):
    """The ``AtomTable`` of per-block ``(indices, (k, L) values)`` pairs, in order."""
    from tdcodec import AtomTable

    indices = [np.asarray(idx, dtype=np.int64) for idx, _ in blocks]
    return AtomTable([idx.size for idx in indices], np.concatenate(indices),
                     np.concatenate([values for _, values in blocks]))


def assert_state_invariants(state, dico, block, *, ortho_tol=1e-10, bior_tol=1e-8,
                            energy_tol=1e-7):
    """Numerical health checks on a finished (or mid-run) block state."""
    from tdcodec.pursuit import compute_coefficients

    from oracles import bior, ortho

    block = np.asarray(block, float)
    if block.ndim == 1:
        block = block[:, None]
    k = len(state.selected)
    assert len(set(state.selected)) == k
    assert all(1 <= n <= dico.num_atoms for n in state.selected)
    if k == 0:
        return
    basis = np.vstack(ortho(state))
    gram = basis @ basis.T
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() <= ortho_tol

    atoms = dico.atoms_matrix(state.selected)
    biors = np.vstack(bior(state))
    cross = biors @ atoms.T
    assert np.abs(cross - np.eye(k)).max() <= bior_tol

    coef = compute_coefficients(state)
    approx = atoms.T @ coef
    resid = block - approx
    e_sig = np.sum(block * block)
    e_split = np.sum(approx * approx) + np.sum(resid * resid)
    assert abs(e_sig - e_split) <= energy_tol * max(e_sig, 1e-30)

    # residual orthogonal to every selected atom, per channel
    assert np.abs(atoms @ resid).max() <= 1e-8 * max(1.0, np.sqrt(e_sig))

    sn = state.s_sums
    assert sn.min() >= -1e-12 and sn.max() <= 1 + 1e-8
    # a kept atom's S_n is set to exactly 1, and later rows do not move it
    assert (sn[np.asarray(state.selected) - 1] == 1.0).all()
