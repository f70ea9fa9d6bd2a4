"""Redundant trigonometric dictionary with FFT-accelerated inner products.

The dictionary is the union of a cosine family and a sine family, each of
``half_size`` unit-norm atoms living on blocks of ``block_size`` samples.
With the default ``half_size = 2 * block_size`` the redundancy
(atoms per dimension) is four.  Inner products of a block against every
atom are computed with one zero-padded real FFT instead of an explicit
atom matrix, which is what makes large-block pursuit affordable.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TrigDictionary", "synthesize_block"]


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
        w2[1:] = nb / 2 + np.sin(x) * np.sin(2 * nb * x) / (2 * (1 - np.cos(2 * x)))
        return np.sqrt(w2)

    @staticmethod
    def _sin_norms(nb: int, m: int) -> np.ndarray:
        w2 = np.empty(m)
        n = np.arange(1, m)
        x = np.pi * n / m
        w2[:-1] = nb / 2 - np.sin(x) * np.sin(2 * nb * x) / (2 * (1 - np.cos(2 * x)))
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

        Entry ``n-1`` is the product with atom ``n``; the cosine family
        occupies the first ``M`` entries.  One length-``2M`` real FFT of
        the zero-padded block replaces the O(M * block_size) summation.
        """
        y = np.asarray(y, dtype=float)
        if y.shape != (self.block_size,):
            raise ValueError(f"expected vector of length {self.block_size}")
        m = self.half_size
        ypad = np.zeros(2 * m)
        ypad[: self.block_size] = y
        z = np.fft.rfft(ypad) * self._rot
        out = np.empty(2 * m)
        out[:m] = z.real[:m] / self.w_cos
        out[m:] = -z.imag[1:] / self.w_sin
        return out


def synthesize_block(dico: TrigDictionary, indices, coefficients) -> np.ndarray:
    """Linear combination ``sum_n c[n] * atom(indices[n])`` per channel.

    ``coefficients`` has shape ``(k, L)`` (or ``(k,)`` for one channel);
    the result is ``(block_size, L)``.
    """
    coef = np.asarray(coefficients, dtype=float)
    if coef.ndim == 1:
        coef = coef[:, None]
    atoms = dico.atoms_matrix(indices)
    if atoms.shape[0] != coef.shape[0]:
        raise ValueError("indices and coefficients disagree on atom count")
    return atoms.T @ coef
