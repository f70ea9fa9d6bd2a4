"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive: direct summation, explicit
least-squares via numpy, and exhaustive search over every feasible
single-block upgrade.  None of it touches the caches, FFT identities or
recursions of the library code.
"""

from __future__ import annotations

import numpy as np


def direct_inner_products(dico, y):
    """O(2M * N_b) inner products via materialized atoms."""
    return dico.atoms_matrix(np.arange(1, dico.num_atoms + 1)) @ np.asarray(y, float)


def cos_norm2_direct(nb: int, m: int, n: int) -> float:
    i = np.arange(1, nb + 1)
    v = np.cos(np.pi * (2 * i - 1) * (n - 1) / (2 * m))
    return float(v @ v)


def sin_norm2_direct(nb: int, m: int, n: int) -> float:
    i = np.arange(1, nb + 1)
    v = np.sin(np.pi * (2 * i - 1) * n / (2 * m))
    return float(v @ v)


def lstsq_fit(dico, indices, block):
    """Least-squares coefficients and residual for a fixed atom set."""
    block = np.asarray(block, float)
    if block.ndim == 1:
        block = block[:, None]
    if len(indices) == 0:
        return np.zeros((0, block.shape[1])), block.copy()
    atoms = dico.atoms_matrix(indices)        # (k, N_b)
    coef, *_ = np.linalg.lstsq(atoms.T, block, rcond=None)
    return coef, block - atoms.T @ coef


def residual_energy(dico, indices, block) -> float:
    _, resid = lstsq_fit(dico, indices, block)
    return float(np.sum(resid * resid))


def best_atom_for_block(dico, selected, block):
    """Exhaustive candidate: the unselected atom minimizing the block's
    post-upgrade residual energy.  Ties go to the smallest atom index."""
    best_n, best_e = None, np.inf
    taken = set(selected)
    for n in range(1, dico.num_atoms + 1):
        if n in taken:
            continue
        e = residual_energy(dico, list(selected) + [n], block)
        if e < best_e:
            best_n, best_e = n, e
    return best_n, best_e


def brute_force_hbw(blocks, dico, budget):
    """Exhaustive minimal-total-residual upgrade sequence.

    At every step evaluates every feasible (block, atom) upgrade by
    explicit normal equations and applies the one minimizing the total
    residual energy; ties break to the smallest atom index, then block
    index.  Returns the (block, atom) sequence and per-block selections.
    """
    blocks = [np.asarray(b, float) for b in blocks]
    blocks = [b[:, None] if b.ndim == 1 else b for b in blocks]
    cap = min(dico.block_size, dico.num_atoms)
    n_atoms = dico.num_atoms
    atoms = dico.atoms_matrix(np.arange(1, n_atoms + 1))
    gram = atoms @ atoms.T
    products = [atoms @ b for b in blocks]    # (2M, L) per block
    selected = [[] for _ in blocks]
    energy = [float(np.sum(b * b)) for b in blocks]
    sequence = []

    def set_energy(q, rows):
        # residual energy of block q over span{atoms[rows]}
        g = gram[np.ix_(rows, rows)]
        p = products[q][rows]
        coef = np.linalg.solve(g, p)
        return float(energy_0[q] - np.sum(coef * p))

    energy_0 = [float(np.sum(b * b)) for b in blocks]
    for _ in range(budget):
        best = None   # (total_energy, q, n)
        total = sum(energy)
        for q in range(len(blocks)):
            if len(selected[q]) >= cap or energy_0[q] == 0.0:
                continue
            taken = set(selected[q])
            best_n, best_e = None, np.inf
            base_rows = [n - 1 for n in selected[q]]
            for n in range(1, n_atoms + 1):
                if n in taken:
                    continue
                e = set_energy(q, base_rows + [n - 1])
                if e < best_e:
                    best_n, best_e = n, e
            if best_n is None:
                continue
            candidate_total = total - energy[q] + best_e
            if best is None or candidate_total < best[0]:
                best = (candidate_total, q, best_n, best_e)
        if best is None:
            break
        _, q, n, e = best
        selected[q].append(n)
        energy[q] = e
        sequence.append((q, n))
    return sequence, selected


def snr_direct(original, recovered) -> float:
    o = np.asarray(original, float)
    r = np.asarray(recovered, float)
    return 10.0 * np.log10(np.sum(o * o) / np.sum((o - r) ** 2))


def atoms_synthesis(dico, indices, coef):
    """``(N_b, L)`` block as the atom matrix times the coefficients."""
    coef = np.asarray(coef, float)
    if coef.ndim == 1:
        coef = coef[:, None]
    return dico.atoms_matrix(indices).T @ coef


def parse_streams_loop(qset):
    """Per-block ``(indices, signed levels)`` by one pass over the symbols."""
    segments = [[]]
    for v in np.asarray(qset.index_stream, dtype=np.int64).tolist():
        if v == 0:
            segments.append([])
        else:
            segments[-1].append(v)
    out, offset = [], 0
    for seg in segments:
        k = len(seg)
        values = np.empty((k, qset.channel_count), dtype=np.int64)
        for j in range(qset.channel_count):
            mags = np.asarray(qset.coeff_streams[j][offset : offset + k], np.int64)
            signs = np.asarray(qset.sign_streams[j][offset : offset + k], np.int64)
            values[:, j] = np.where(signs == 1, -mags, mags)
        out.append((np.cumsum(np.asarray(seg, dtype=np.int64)), values))
        offset += k
    return out
