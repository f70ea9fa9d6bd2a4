"""Uniform quantization and symbol-stream layout of an atom table.

A decomposed signal is an :class:`~tdcodec.dictionary.AtomTable`.  It is
carried by one shared index stream (per-block ascending atom indices
stored as a leading value plus consecutive differences, blocks separated
by ``0``) and a ``(K, L)`` array of signed quantization levels, one row
per atom in index-stream order.  ``parse_streams`` turns the two back
into a table of levels.  The container splits the levels into magnitude
and sign streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import AtomTable

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
    def block_count(self) -> int:
        return int(np.count_nonzero(np.asarray(self.index_stream) == 0)) + 1


def quantize_levels(coef, delta: float) -> np.ndarray:
    """Signed levels ``sign(c) * floor(|c| / delta + 1/2)``, elementwise.

    This is the codec's one quantization rule: the container stores the
    magnitudes and signs of these levels, and the decoder reconstructs
    ``delta * levels``.  A ``delta`` so small that a level would not fit
    an int64 raises ``ValueError``.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    coef = np.asarray(coef, dtype=float)
    with np.errstate(over="ignore"):   # an infinite quotient is refused below
        mags = np.floor(np.abs(coef) / delta + 0.5)
    # -mags must fit an int64 too; this far up a float level is |c| / delta
    if not mags.max(initial=0.0) < 2.0**63:
        raise ValueError(f"delta {delta!r} is too small for int64 levels: the "
                         f"largest |c| / delta is {mags.max():.6g}")
    mags = mags.astype(np.int64)
    return np.where(coef < 0, -mags, mags)


def serialize_decompositions(table: AtomTable, delta: float) -> QuantizedBlockSet:
    """Sort, delta-code and quantize a table of coefficients.

    Indices are sorted ascending per block; the same permutation is applied
    to every channel's coefficients.  A coefficient that quantizes to zero
    keeps its slot with level 0, so the shared index layout survives
    per-channel small values.
    """
    counts = table.counts
    if not counts.size:
        raise ValueError("need at least one block")

    # every atom at once, ordered by block, then index
    block = np.repeat(np.arange(counts.size), counts)
    order = np.lexsort((table.indices, block))
    idx, block, coef = table.indices[order], block[order], table.values[order]
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


def parse_streams(qset: QuantizedBlockSet) -> AtomTable:
    """Rebuild the table of absolute atom indices and signed levels.

    The table's values are the signed integer levels; multiplying by
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
    return AtomTable(counts, running - np.repeat(before, counts), levels)
