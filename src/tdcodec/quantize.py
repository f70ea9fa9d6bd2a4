"""Uniform quantization and symbol-stream layout for atomic decompositions.

A decomposed signal is carried by one shared index stream (per-block
ascending atom indices stored as a leading value plus consecutive
differences, blocks separated by ``0``) and a ``(K, L)`` array of signed
quantization levels, one row per atom in index-stream order.  The
container splits the levels into magnitude and sign streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StreamError",
    "QuantizedBlockSet",
    "quantize_levels",
    "serialize_decompositions",
    "parse_streams",
]


class StreamError(ValueError):
    """Malformed symbol stream; ``position`` locates the offending entry."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at stream position {position})"
        super().__init__(message)
        self.position = position


@dataclass
class QuantizedBlockSet:
    """Quantized, stream-serialized form of a partitioned decomposition."""

    delta: float
    index_stream: np.ndarray   # shared across channels
    levels: np.ndarray         # (K, L) signed levels, in index-stream order

    @property
    def channel_count(self) -> int:
        return self.levels.shape[1]

    @property
    def total_atoms(self) -> int:
        return len(self.levels)

    @property
    def block_count(self) -> int:
        return int(np.count_nonzero(np.asarray(self.index_stream) == 0)) + 1


def quantize_levels(coef, delta: float) -> np.ndarray:
    """Signed levels ``sign(c) * floor(|c| / delta + 1/2)``, elementwise.

    This is the codec's one quantization rule: the container stores the
    magnitudes and signs of these levels, and the decoder reconstructs
    ``delta * levels``.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    coef = np.asarray(coef, dtype=float)
    mags = np.floor(np.abs(coef) / delta + 0.5).astype(np.int64)
    return np.where(coef < 0, -mags, mags)


def serialize_decompositions(decompositions, delta: float) -> QuantizedBlockSet:
    """Sort, delta-code and quantize per-block decompositions.

    Indices are sorted ascending per block; the same permutation is applied
    to every channel's coefficients.  A coefficient that quantizes to zero
    keeps its slot with level 0, so the shared index layout survives
    per-channel small values.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not decompositions:
        raise ValueError("need at least one block")
    channels = decompositions[0].coefficients.shape[1]
    indices = [np.asarray(dec.indices, dtype=np.int64) for dec in decompositions]
    coefs = [np.asarray(dec.coefficients, dtype=float) for dec in decompositions]
    for q, (idx, coef) in enumerate(zip(indices, coefs)):
        if coef.shape != (idx.size, channels):
            raise ValueError(f"block {q}: coefficient shape {coef.shape} mismatch")

    # every atom at once, ordered by block, then index
    counts = [idx.size for idx in indices]
    block = np.repeat(np.arange(len(indices)), counts)
    idx, coef = np.concatenate(indices), np.concatenate(coefs)
    order = np.lexsort((idx, block))
    idx, block, coef = idx[order], block[order], coef[order]
    bad = idx < 1
    if bad.any():
        raise ValueError(f"block {block[bad.argmax()]}: atom indices must be >= 1")
    # a block's first atom keeps its index, every other its gap to the last
    first = np.diff(block, prepend=-1) != 0
    gaps = np.where(first, idx, np.diff(idx, prepend=0))
    bad = gaps == 0
    if bad.any():
        raise ValueError(f"block {block[bad.argmax()]}: duplicate atom index")
    return QuantizedBlockSet(
        delta=float(delta),
        # a 0 separates each block from the one before it
        index_stream=np.insert(gaps, np.cumsum(counts)[:-1], 0),
        levels=quantize_levels(coef, delta),
    )


def parse_streams(qset: QuantizedBlockSet) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rebuild per-block ``(indices, signed quantized coefficients)``.

    The returned coefficients are signed integers; multiplying by
    ``qset.delta`` recovers the reconstruction values.  Raises
    :class:`StreamError` for any malformed stream.
    """
    if not qset.delta > 0:
        raise StreamError("nonpositive delta")
    stream = np.asarray(qset.index_stream, dtype=np.int64)
    if stream.size and stream.min() < 0:
        raise StreamError(
            "negative index symbol", position=int(np.argmin(stream >= 0))
        )
    seps = np.flatnonzero(stream == 0)
    levels = np.asarray(qset.levels, dtype=np.int64)
    if levels.ndim != 2 or len(levels) != stream.size - seps.size:
        raise StreamError(
            f"levels of shape {levels.shape} do not give one row to each of "
            f"the {stream.size - seps.size} atoms"
        )

    counts = np.diff(seps, prepend=-1, append=stream.size) - 1
    # Per-block running sums of the gaps: one cumulative sum over all of
    # them, less its value where each block starts (int64 wraps the same
    # way either way).
    gaps = np.delete(stream, seps)
    ends = np.cumsum(counts)
    running = np.cumsum(gaps)
    before = np.concatenate([[0], running])[ends - counts]
    indices = running - np.repeat(before, counts)
    return list(zip(np.split(indices, ends[:-1]), np.split(levels, ends[:-1])))
