"""Redundant trigonometric dictionary with FFT-accelerated inner products.

The dictionary is the union of a cosine family and a sine family, each of
``half_size`` unit-norm atoms living on blocks of ``block_size`` samples.
With the default ``half_size = 2 * block_size`` the redundancy
(atoms per dimension) is four.  Inner products of a block against every
atom are computed with one zero-padded real FFT instead of an explicit
atom matrix, which is what makes large-block pursuit affordable.
Synthesis is the exact adjoint: coefficients go into a rotated
half-spectrum, and one inverse real FFT per block and channel turns them
into samples, for any number of blocks in one call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TrigDictionary", "synthesize_block"]

# Half-spectrum bins per batched FFT call (256 KB of complex spectrum), so
# memory stays bounded whatever the block count, channel count and
# dictionary size.  Larger batches gain little (synthesis of a 30 s
# stereo clip: 63 ms at 2^14 bins, 59 ms at 2^18) but cost memory: with
# 2^16-bin batches of initial panels, the freed temporaries raise glibc's
# dynamic mmap threshold, the encoder's later arrays then stay in the
# heap, and the peak RSS of encoding and decoding that clip in one
# process rose from 305 to 365 MB.
FFT_CHUNK_BINS = 1 << 14


class TrigDictionary:
    """Cosine+sine dictionary over blocks of ``block_size`` samples.

    Atom indexing is 1-based everywhere: atoms ``1..M`` are the cosine
    family, atoms ``M+1..2M`` the sine family (``M = half_size``).
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, block_size: int, half_size: int | None = None):
        block_size = int(block_size)
        if block_size < 2:
            raise ValueError(f"block_size must be >= 2, got {block_size}")
        if half_size is None:
            half_size = 2 * block_size
        half_size = int(half_size)
        if half_size < block_size:
            raise ValueError(
                f"half_size must be >= block_size ({block_size}), got {half_size}"
            )
        self.block_size = block_size
        self.half_size = half_size
        self.w_cos = self._cos_norms(block_size, half_size)
        self.w_sin = self._sin_norms(block_size, half_size)
        # Phase rotation that turns FFT bins into half-sample trig sums.
        k = np.arange(half_size + 1)
        self._rot = np.exp(-1j * np.pi * k / (2 * half_size))
        # 2i - 1 for samples i = 1..N_b: the atoms' half-sample phase steps
        self._odd = 2 * np.arange(1, block_size + 1) - 1

    @staticmethod
    def _cos_norms(nb: int, m: int) -> np.ndarray:
        w2 = np.empty(m)
        w2[0] = nb  # constant atom, the closed form is 0/0 here
        n = np.arange(2, m + 1)
        x = np.pi * (n - 1) / m
        w2[1:] = nb / 2 + np.sin(2 * nb * x) / (4 * np.sin(x))
        return np.sqrt(w2)

    @staticmethod
    def _sin_norms(nb: int, m: int) -> np.ndarray:
        w2 = np.empty(m)
        n = np.arange(1, m)
        x = np.pi * n / m
        w2[:-1] = nb / 2 - np.sin(2 * nb * x) / (4 * np.sin(x))
        # n = m hits the 0/0 of the closed form; sum the samples directly.
        i = np.arange(1, nb + 1)
        v = np.sin(np.pi * (2 * i - 1) / 2)
        w2[-1] = v @ v
        return np.sqrt(w2)

    @property
    def num_atoms(self) -> int:
        return 2 * self.half_size

    @property
    def redundancy(self) -> float:
        return 2 * self.half_size / self.block_size

    def atoms_matrix(self, indices) -> np.ndarray:
        """Materialize atoms as rows of a ``(k, block_size)`` matrix.

        Intended for synthesis and testing; the pursuit hot path never
        builds atom matrices.
        """
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        m = self.half_size
        if idx.size and (idx.min() < 1 or idx.max() > 2 * m):
            raise ValueError(f"atom index out of range 1..{2 * m}")
        out = np.empty((idx.size, self.block_size))
        is_cos = idx <= m
        nc = idx[is_cos]
        ns = idx[~is_cos] - m
        if nc.size:
            ang = np.pi * np.outer(nc - 1, self._odd) / (2 * m)
            out[is_cos] = np.cos(ang) / self.w_cos[nc - 1][:, None]
        if ns.size:
            ang = np.pi * np.outer(ns, self._odd) / (2 * m)
            out[~is_cos] = np.sin(ang) / self.w_sin[ns - 1][:, None]
        return out

    def atom(self, n: int) -> np.ndarray:
        """Return atom ``n`` (1-based) as a unit-norm vector.

        Same arithmetic as one row of :meth:`atoms_matrix`, so the two
        agree bit for bit.
        """
        n = int(n)
        m = self.half_size
        if not 1 <= n <= 2 * m:
            raise ValueError(f"atom index out of range 1..{2 * m}")
        if n <= m:
            return np.cos(np.pi * ((n - 1) * self._odd) / (2 * m)) / self.w_cos[n - 1]
        return np.sin(np.pi * ((n - m) * self._odd) / (2 * m)) / self.w_sin[n - m - 1]

    def all_inner_products(self, y) -> np.ndarray:
        """Inner products of ``y`` against all ``2M`` atoms.

        ``y`` is one block ``(block_size,)`` or a stack ``(..., block_size)``;
        the result has shape ``(..., 2M)``.  Entry ``n-1`` is the product
        with atom ``n``; the cosine family occupies the first ``M`` entries.
        One length-``2M`` real FFT of each zero-padded row replaces the
        O(M * block_size) summation, and a row's result does not depend on
        the rows stacked with it.
        """
        y = np.asarray(y, dtype=float)
        if y.ndim == 0 or y.shape[-1] != self.block_size:
            raise ValueError(f"expected vectors of length {self.block_size}")
        m = self.half_size
        z = np.fft.rfft(y, n=2 * m)
        z *= self._rot
        out = np.empty(y.shape[:-1] + (2 * m,))
        np.divide(z.real[..., :m], self.w_cos, out=out[..., :m])
        np.divide(z.imag[..., 1:], self.w_sin, out=out[..., m:])
        np.negative(out[..., m:], out=out[..., m:])
        return out

    def synthesize(self, indices, coefficients) -> np.ndarray:
        """Blocks ``sum_n c[n] * atom(indices[n])``: the adjoint of the panel.

        ``indices`` holds one 1-D array of atom indices per block and
        ``coefficients`` one ``(k, L)`` array per block; the result is
        ``(Q, block_size, L)``.  Cosine atom ``n`` puts ``c / |d_n|`` into
        the real part of bin ``n - 1`` of a half-spectrum, sine atom ``n``
        puts ``-c / |d_n|`` into the imaginary part of bin ``n - M``; the
        spectrum is rotated back (the conjugate of the panel's rotation)
        and one length-``2M`` inverse real FFT per block and channel gives
        the samples, of which the first ``block_size`` are kept.  Bins 0
        and ``M`` count twice because the inverse FFT halves them.  Rows
        go through the FFT ``FFT_CHUNK_BINS`` bins at a time.
        """
        m, nb = self.half_size, self.block_size
        idxs = [np.asarray(i, dtype=np.int64).reshape(-1) for i in indices]
        coefs = [np.asarray(c, dtype=float) for c in coefficients]
        if len(idxs) != len(coefs):
            raise ValueError("indices and coefficients disagree on block count")
        q = len(idxs)
        counts = np.array([i.size for i in idxs], dtype=np.int64)
        idx = np.concatenate(idxs + [np.empty(0, dtype=np.int64)])
        channels = coefs[0].shape[-1] if coefs else 1
        if any(c.shape != (k, channels) for c, k in zip(coefs, counts.tolist())):
            raise ValueError("indices and coefficients disagree on atom count")
        if idx.size and (idx.min() < 1 or idx.max() > 2 * m):
            raise ValueError(f"atom index out of range 1..{2 * m}")
        coef = np.concatenate(coefs + [np.empty((0, channels))])

        # One complex spectrum entry per (atom, channel), already rotated and
        # scaled, at bin n - 1 (cosine) or n - M (sine, times -i) of row
        # block * L + channel.
        is_cos = idx <= m
        bins = np.where(is_cos, idx - 1, idx - m)
        scale = m * np.conj(self._rot)
        scale[[0, m]] *= 2
        norms = np.concatenate([self.w_cos, self.w_sin])
        unit = np.where(is_cos, 1.0, -1j) * scale[bins] / norms[idx - 1]
        row = np.repeat(np.arange(q) * channels, counts)[:, None] + np.arange(channels)
        order = np.argsort(row, axis=None, kind="stable")
        row = row.ravel()[order]
        pos = (row * (m + 1) + np.repeat(bins, channels)[order]) * 2
        pos = np.stack([pos, pos + 1], axis=1).ravel()    # (re, im) slots
        value = (coef * unit[:, None]).ravel()[order].view(np.float64)

        out = np.empty((q, nb, channels))
        rows_out = out.transpose(0, 2, 1)    # (Q, L, N_b) view
        step = max(1, FFT_CHUNK_BINS // (m + 1))
        for r0 in range(0, q * channels, step):
            r1 = min(r0 + step, q * channels)
            e0, e1 = 2 * np.searchsorted(row, [r0, r1])
            spec = np.bincount(
                pos[e0:e1] - 2 * r0 * (m + 1),
                weights=value[e0:e1],
                minlength=2 * (r1 - r0) * (m + 1),
            ).view(np.complex128).reshape(r1 - r0, m + 1)
            r = np.arange(r0, r1)
            rows_out[r // channels, r % channels] = np.fft.irfft(spec, n=2 * m)[:, :nb]
        return out


def synthesize_block(dico: TrigDictionary, indices, coefficients) -> np.ndarray:
    """Linear combination ``sum_n c[n] * atom(indices[n])`` per channel.

    ``coefficients`` has shape ``(k, L)`` (or ``(k,)`` for one channel);
    the result is ``(block_size, L)``.  The one-block case of
    :meth:`TrigDictionary.synthesize`.
    """
    coef = np.asarray(coefficients, dtype=float)
    if coef.ndim == 1:
        coef = coef[:, None]
    return dico.synthesize([indices], [coef])[0]
