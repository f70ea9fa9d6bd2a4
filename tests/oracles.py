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


def atom_integer_phase(dico, n: int) -> np.ndarray:
    """Atom ``n`` by the closed form on integer phase steps ``2i - 1``: the
    products with the atom index stay integers until ``pi`` scales them."""
    m = dico.half_size
    odd = 2 * np.arange(1, dico.block_size + 1) - 1
    if n <= m:
        return np.cos(np.pi * ((n - 1) * odd) / (2 * m)) / dico.w_cos[n - 1]
    return np.sin(np.pi * ((n - m) * odd) / (2 * m)) / dico.w_sin[n - m - 1]


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


def ortho(state):
    """Orthonormal basis of a block state's selected atoms' span, one row each."""
    return state.w[: len(state.selected)]


def bior(state):
    """Biorthogonal dual of a block state's selected atoms, ``r^-1 w``, one row each."""
    k = len(state.selected)
    return np.linalg.solve(state.r[:k, :k], state.w[:k])


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
    out, offset, channels = [], 0, qset.levels.shape[1]
    for seg in segments:
        k = len(seg)
        values = np.empty((k, channels), dtype=np.int64)
        for i in range(k):
            for j in range(channels):
                values[i, j] = qset.levels[offset + i][j]
        out.append((np.cumsum(np.asarray(seg, dtype=np.int64)), values))
        offset += k
    return out


def rans_reference_decode(data: bytes, count: int, bound: int) -> list[int]:
    """Symbols of one stream payload, decoded one symbol at a time in plain
    Python from the layout in ``tdcodec.entropy``'s docstring.

    Raises ``ValueError`` where the payload breaks that layout.
    """
    if count == 0:
        if data:
            raise ValueError("payload of an empty stream")
        return []
    bits = "".join(f"{byte:08b}" for byte in data)
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(bits):
            raise ValueError("truncated")
        pos += n
        return int(bits[pos - n : pos] or "0", 2)

    lo, hi = take(7), take(7)
    if not lo <= hi < 2 * (bound - 1).bit_length() + 2:
        raise ValueError("table lists a bucket above the bound")
    freq, rest = {}, []
    for s in range(lo, hi + 1):
        if s in (1, 3):
            continue
        code = take(4)
        if code == 15:
            rest.append(s)
        elif 1 <= code <= 13:
            kept = min(code - 1, 2)
            freq[s] = ((1 << kept) | take(kept)) << (code - 1 - kept)
        elif code:
            raise ValueError("bad code")
    if len(rest) != 1 or sum(freq.values()) >= 4096:
        raise ValueError("table does not sum to 4096")
    freq[rest[0]] = 4096 - sum(freq.values())
    cum, start = {}, 0
    for s in sorted(freq):
        cum[s] = start
        start += freq[s]
    byte = (pos + 7) // 8
    if "1" in bits[pos : 8 * byte]:
        raise ValueError("table padding")
    lanes = min(16, -(-count // 128))
    states = [int.from_bytes(data[byte + 4 * j : byte + 4 * j + 4], "little")
              for j in range(lanes)]
    byte += 4 * lanes
    buckets = []
    for i in range(count):
        j = i % lanes
        x = states[j]
        slot = x % 4096
        s = next(s for s in freq if cum[s] <= slot < cum[s] + freq[s])
        x = freq[s] * (x // 4096) + slot - cum[s]
        if x < 1 << 16:
            x = (x << 16) | int.from_bytes(data[byte : byte + 2], "little")
            byte += 2
        states[j] = x
        buckets.append(s)
    if any(x != 1 << 16 for x in states):
        raise ValueError("a lane does not end in its initial state")
    field = "".join(f"{b:08b}" for b in data[byte:])
    values, at = [], 0
    for s in buckets:
        b, c = s // 2, s % 2
        if b < 2:
            values.append(b)
            continue
        low = field[at : at + b - 2]
        at += b - 2
        values.append((((2 + c) << (b - 2)) | int(low or "0", 2)))
    if len(field) != 8 * ((at + 7) // 8) or "1" in field[at:]:
        raise ValueError("bypass field size or padding")
    if values and max(values) >= bound:
        raise ValueError("value above the bound")
    return values
