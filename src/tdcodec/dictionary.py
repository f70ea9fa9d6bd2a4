"""Redundant trigonometric dictionary with FFT-accelerated inner products.

The dictionary is the union of a cosine family and a sine family, each of
``half_size`` unit-norm atoms living on blocks of ``block_size`` samples.
With the default ``half_size = 2 * block_size`` the redundancy
(atoms per dimension) is four.  Inner products of a block against every
atom are computed with one zero-padded real FFT instead of an explicit
atom matrix, which is what makes large-block pursuit affordable.
Synthesis is the exact adjoint: coefficients go into a rotated
half-spectrum, and one inverse real FFT per block and channel turns them
into samples, for any number of blocks in one call.  Synthesis batches
whole blocks, as many as ``FFT_CHUNK_BINS`` half-spectrum bins hold.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AtomTable", "TrigDictionary", "synthesize_block"]

# Half-spectrum bins per batched inverse FFT call of synthesis (256 KB of
# complex spectrum), so memory stays bounded whatever the block count,
# channel count and dictionary size.  Larger batches gain little
# (synthesis of a 30 s stereo clip: 63 ms at 2^14 bins, 59 ms at 2^18).
FFT_CHUNK_BINS = 1 << 14


class AtomTable:
    """A decomposition set in compressed sparse row form, one row per block.

    ``counts`` is ``(Q,)``: block ``q`` holds rows ``sum(counts[:q])`` up to
    ``sum(counts[:q + 1])`` of ``indices``, the ``(K,)`` 1-based atom
    indices, and of ``values``, their ``(K, L)`` coefficients or signed
    quantization levels.  Iterating yields each block's ``(indices,
    values)`` as views.
    """

    def __init__(self, counts, indices, values):
        self.counts = np.asarray(counts, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values)
        if self.counts.ndim != 1 or (self.counts < 0).any():
            raise ValueError("atom counts must be one nonnegative count per block")
        k = int(self.counts.sum())
        if self.indices.shape != (k,) or self.values.ndim != 2 or len(self.values) != k:
            raise ValueError(
                f"indices of shape {self.indices.shape} and values of shape "
                f"{self.values.shape} do not match the atom count {k}"
            )

    def __iter__(self):
        ends = np.cumsum(self.counts)
        for start, end in zip((ends - self.counts).tolist(), ends.tolist()):
            yield self.indices[start:end], self.values[start:end]


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
        self._neg_w_sin = -self.w_sin
        # Phase rotation that turns FFT bins into half-sample trig sums.
        k = np.arange(half_size + 1)
        self._rot = np.exp(-1j * np.pi * k / (2 * half_size))
        # 2i - 1 for samples i = 1..N_b: the atoms' phase steps, as floats exact below 2^53
        self._odd = 2.0 * np.arange(1, block_size + 1) - 1.0

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
        """Materialize atoms as rows of a ``(k, block_size)`` matrix: ``atom(n)`` stacked.

        The tests' reference for the panel and for synthesis; the codec
        itself never builds atom matrices.
        """
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        out = np.empty((idx.size, self.block_size))
        for row, n in zip(out, idx.tolist()):
            row[:] = self.atom(n)
        return out

    def atom(self, n: int) -> np.ndarray:
        """Return atom ``n`` (1-based) as a unit-norm vector."""
        n = int(n)
        m = self.half_size
        if not 1 <= n <= 2 * m:
            raise ValueError(f"atom index out of range 1..{2 * m}")
        if n <= m:
            v, trig, norm = self._odd * (n - 1), np.cos, self.w_cos[n - 1]
        else:
            v, trig, norm = self._odd * (n - m), np.sin, self.w_sin[n - m - 1]
        v *= np.pi   # in place throughout: one allocation per atom
        v /= 2 * m
        return np.divide(trig(v, out=v), norm, out=v)

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
        # the sine products are -Im z: dividing by -|d_n| gives the bits
        # of negating the quotient, as IEEE division is sign-symmetric
        np.divide(z.imag[..., 1:], self._neg_w_sin, out=out[..., m:])
        return out

    def synthesize(self, table: AtomTable) -> np.ndarray:
        """Blocks ``sum_n c[n] * atom(indices[n])``: the adjoint of the panel.

        ``table`` holds each block's atom indices and ``(k, L)``
        coefficients; the result is ``(Q, block_size, L)``.  Cosine atom
        ``n`` puts ``c / |d_n|`` into the real part of bin ``n - 1`` of a
        half-spectrum, sine atom ``n`` puts ``-c / |d_n|`` into the
        imaginary part of bin ``n - M``; the spectrum is rotated back (the
        conjugate of the panel's rotation) and one length-``2M`` inverse
        real FFT per block and channel gives the samples, of which the first
        ``block_size`` are kept.  Bins 0 and ``M`` count twice because the
        inverse FFT halves them, and atoms that share a bin add up in table
        order.  Whole blocks go through the FFT, as many per call as
        ``FFT_CHUNK_BINS`` half-spectrum bins hold, at least one.
        """
        m, nb = self.half_size, self.block_size
        idx, counts = table.indices, table.counts
        q, channels = counts.size, table.values.shape[1]
        if idx.size and (idx.min() < 1 or idx.max() > 2 * m):
            raise ValueError(f"atom index out of range 1..{2 * m}")
        coef = np.asarray(table.values, dtype=float)

        # Each atom's spectrum entry per unit coefficient, already rotated
        # and scaled, at bin n - 1 (cosine) or n - M (sine, times -i).
        is_cos = idx <= m
        bins = np.where(is_cos, idx - 1, idx - m)
        scale = m * np.conj(self._rot)
        scale[[0, m]] *= 2
        norms = np.concatenate([self.w_cos, self.w_sin])
        unit = np.where(is_cos, 1.0, -1j) * scale[bins] / norms[idx - 1]
        block = np.repeat(np.arange(q), counts)
        starts = np.concatenate([[0], np.cumsum(counts)])

        out = np.empty((q, nb, channels))
        step = max(1, FFT_CHUNK_BINS // (channels * (m + 1)))
        for b0 in range(0, q, step):
            b1 = min(b0 + step, q)
            rows = slice(starts[b0], starts[b1])
            spec = np.zeros((b1 - b0, channels, m + 1), dtype=complex)
            np.add.at(spec, (block[rows, None] - b0, np.arange(channels), bins[rows, None]),
                      coef[rows] * unit[rows, None])
            out[b0:b1] = np.fft.irfft(spec, n=2 * m)[..., :nb].transpose(0, 2, 1)
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
    return dico.synthesize(AtomTable([len(coef)], indices, coef))[0]
