"""Uniform quantization and symbol-stream layout for atomic decompositions.

A decomposed signal is carried by three stream families: one shared index
stream (per-block ascending atom indices stored as a leading value plus
consecutive differences, blocks separated by ``0``), ``L`` streams of
quantized coefficient magnitudes, and ``L`` streams of sign bits
(``0`` for ``+``, ``1`` for ``-``).
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
    index_stream: np.ndarray          # shared across channels
    coeff_streams: list[np.ndarray]   # one per channel, magnitudes
    sign_streams: list[np.ndarray]    # one per channel, bits
    block_count: int
    channel_count: int

    @property
    def total_atoms(self) -> int:
        return int(len(self.coeff_streams[0])) if self.coeff_streams else 0


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
    to every channel's coefficients and signs.  A coefficient that
    quantizes to zero keeps its slot with sign bit 0, so the shared index
    layout survives per-channel small values.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not decompositions:
        raise ValueError("need at least one block")
    channels = decompositions[0].coefficients.shape[1]

    index_parts: list[np.ndarray] = []
    mag_parts: list[np.ndarray] = []
    sign_parts: list[np.ndarray] = []
    for q, dec in enumerate(decompositions):
        idx = np.asarray(dec.indices, dtype=np.int64)
        coef = np.asarray(dec.coefficients, dtype=float)
        if coef.shape != (idx.size, channels):
            raise ValueError(f"block {q}: coefficient shape {coef.shape} mismatch")
        if idx.size:
            if idx.min() < 1:
                raise ValueError(f"block {q}: atom indices must be >= 1")
            if np.unique(idx).size != idx.size:
                raise ValueError(f"block {q}: duplicate atom index")
            order = np.argsort(idx, kind="stable")
            idx = idx[order]
            coef = coef[order]
            seg = np.empty_like(idx)
            seg[0] = idx[0]
            seg[1:] = np.diff(idx)
        else:
            seg = idx
        levels = quantize_levels(coef, delta)
        mags = np.abs(levels)
        signs = (levels < 0).astype(np.uint8)
        index_parts.append(seg)
        mag_parts.append(mags)
        sign_parts.append(signs)

    sep = np.zeros(1, dtype=np.int64)
    pieces: list[np.ndarray] = []
    for q, seg in enumerate(index_parts):
        if q:
            pieces.append(sep)
        pieces.append(seg)
    index_stream = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
    mags_all = np.concatenate(mag_parts, axis=0)
    signs_all = np.concatenate(sign_parts, axis=0)
    return QuantizedBlockSet(
        delta=float(delta),
        index_stream=index_stream,
        coeff_streams=[mags_all[:, j].copy() for j in range(channels)],
        sign_streams=[signs_all[:, j].copy() for j in range(channels)],
        block_count=len(decompositions),
        channel_count=channels,
    )


def parse_streams(qset: QuantizedBlockSet) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rebuild per-block ``(indices, signed quantized coefficients)``.

    The returned coefficients are signed integers; multiplying by
    ``qset.delta`` recovers the reconstruction values.  Raises
    :class:`StreamError` with a position for any malformed stream.
    """
    if not qset.delta > 0:
        raise StreamError("nonpositive delta")
    if len(qset.coeff_streams) != qset.channel_count or len(
        qset.sign_streams
    ) != qset.channel_count:
        raise StreamError("channel count does not match stream count")

    stream = np.asarray(qset.index_stream, dtype=np.int64)
    if stream.size and stream.min() < 0:
        raise StreamError(
            "negative index symbol", position=int(np.argmin(stream >= 0))
        )
    seps = np.flatnonzero(stream == 0)
    if seps.size + 1 != qset.block_count:
        raise StreamError(
            f"found {seps.size + 1} block segments, expected {qset.block_count}",
            position=int(stream.size),
        )

    counts = np.diff(seps, prepend=-1, append=stream.size) - 1
    total = int(counts.sum())
    values = np.empty((total, qset.channel_count), dtype=np.int64)
    for j in range(qset.channel_count):
        if len(qset.coeff_streams[j]) != total:
            raise StreamError(
                f"coefficient stream {j} has {len(qset.coeff_streams[j])} symbols, "
                f"expected {total}"
            )
        if len(qset.sign_streams[j]) != total:
            raise StreamError(
                f"sign stream {j} has {len(qset.sign_streams[j])} symbols, "
                f"expected {total}"
            )
        mags = np.asarray(qset.coeff_streams[j], dtype=np.int64)
        if mags.size and mags.min() < 0:
            raise StreamError(
                f"negative magnitude in coefficient stream {j}",
                position=int(np.argmax(mags < 0)),
            )
        signs = np.asarray(qset.sign_streams[j], dtype=np.int64)
        if signs.size and (signs.min() < 0 or signs.max() > 1):
            raise StreamError(
                f"sign stream {j} contains a non-bit symbol",
                position=int(np.argmax((signs < 0) | (signs > 1))),
            )
        values[:, j] = np.where(signs == 1, -mags, mags)

    # Per-block running sums of the gaps: one cumulative sum over all of
    # them, less its value where each block starts (int64 wraps the same
    # way either way).
    gaps = np.delete(stream, seps)
    ends = np.cumsum(counts)
    running = np.cumsum(gaps)
    before = np.concatenate([[0], running])[ends - counts]
    indices = running - np.repeat(before, counts)
    return list(zip(np.split(indices, ends[:-1]), np.split(values, ends[:-1])))
