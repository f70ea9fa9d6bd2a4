"""WAV ingestion/emission, block partitioning, and the .tdc container.

The .tdc layout is little-endian throughout:

========================  =======================================
magic                     4 bytes ``TDC1``
version                   u16, 3
sample_rate               u32
channel_count L           u16
original_length N         u64 (samples per channel)
block_size                u32
half_size                 u32
block_count Q             u32
total_atoms K             u64
delta                     f64
stream records (1 + 2L)   u64 alphabet_bound, u64 symbol_count,
                          u64 byte_length
payload_checksum          u32 CRC-32 of the concatenated payloads
header_checksum           u32 CRC-32 of every preceding byte
payload                   the streams' bytes, in record order
========================  =======================================

:class:`TdcHeader` holds the fields from version to delta and the stream
records; ``write_tdc`` and ``read_tdc`` check it with one function.

Stream order is: index stream, the L coefficient streams, the L sign
streams.  This module is the only one that splits a
:class:`~tdcodec.quantize.QuantizedBlockSet`'s ``(K, L)`` signed levels:
column j's magnitudes are coefficient stream j and its signs (``1`` for a
negative level) sign stream j, and a sign bit on a zero magnitude reads
back as level 0.  The payload of an index or coefficient stream is what
:func:`tdcodec.entropy.arith_encode` writes: a bit-packed static
frequency table of bit-length bucket symbols, ``min(16, ceil(count /
128))`` u32 rANS lane states, the u16 rANS words, then the values' bypass
bits packed most significant first (the entropy module's docstring has
the details).  A sign stream holds K bits, one per atom, which no
order-0 model compresses: its payload is the bits packed most
significant first, ``ceil(K / 8)`` bytes with zero padding, and its
record says bound 2 and count K.  Files of versions 1 and 2 (adaptive
range coding) are refused.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from . import entropy
from .quantize import QuantizedBlockSet

__all__ = [
    "ContainerError",
    "BadMagicError",
    "UnsupportedVersionError",
    "ChecksumError",
    "FormatError",
    "MultichannelSignal",
    "PartitionedSignal",
    "StreamRecord",
    "TdcHeader",
    "read_wav",
    "write_wav",
    "partition",
    "assemble",
    "write_tdc",
    "read_tdc",
]

MAGIC = b"TDC1"
VERSION = 3
_FIXED = struct.Struct("<4sHIHQIIIQd")
_RECORD = struct.Struct("<QQQ")
_CRC = struct.Struct("<I")
# The RIFF size field (36 header bytes plus the data) is a u32, so a
# 16-bit PCM data chunk holds at most this many bytes.
WAV_MAX_DATA_BYTES = 0xFFFFFFFF - 36
# Largest dictionary geometry a .tdc may declare: the decoder builds the
# dictionary (O(half_size) memory) before it reads any stream.
MAX_BLOCK_SIZE = 1 << 16
MAX_HALF_SIZE = 1 << 20


class ContainerError(Exception):
    pass


class BadMagicError(ContainerError):
    pass


class UnsupportedVersionError(ContainerError):
    pass


class ChecksumError(ContainerError):
    def __init__(self, kind: str):
        super().__init__(f"{kind} checksum mismatch")
        self.kind = kind


class FormatError(ContainerError):
    pass


@dataclass
class MultichannelSignal:
    samples: np.ndarray   # (N, L), one column per channel
    sample_rate: int

    @property
    def sample_count(self) -> int:
        return self.samples.shape[0]

    @property
    def channel_count(self) -> int:
        return self.samples.shape[1]


@dataclass
class PartitionedSignal:
    blocks: list[np.ndarray]   # each (block_size, L)
    pad_length: int

    @property
    def block_count(self) -> int:
        return len(self.blocks)


@dataclass
class StreamRecord:
    alphabet_bound: int
    symbol_count: int
    byte_length: int


@dataclass
class TdcHeader:
    # the fields of _FIXED after the magic, in its order, then the records
    version: int
    sample_rate: int
    channel_count: int
    original_length: int
    block_size: int
    half_size: int
    block_count: int
    total_atoms: int
    delta: float
    stream_records: list[StreamRecord] = field(default_factory=list)


# --- WAV ------------------------------------------------------------------

# WAVE_FORMAT_EXTENSIBLE names its encoding by a GUID: the plain format tag
# in its first two bytes, then this fixed tail
_EXTENSIBLE = 0xFFFE
_SUBFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")
_WAV_CHUNK_VALUES = 8192   # samples per conversion step of write_wav


def _pcm16(payload: bytes) -> np.ndarray:
    samples = np.frombuffer(payload, dtype="<i2").astype(np.float64)
    samples /= 32768.0
    return samples


def _pcm24(payload: bytes) -> np.ndarray:
    # each sample as the top three bytes of an int32, so its sign carries
    wide = np.zeros((len(payload) // 3, 4), dtype=np.uint8)
    wide[:, 1:] = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
    return wide.view("<i4")[:, 0] / 2147483648.0


def _float32(payload: bytes) -> np.ndarray:
    samples = np.frombuffer(payload, dtype="<f4")
    if not np.isfinite(samples).all():
        raise FormatError("float WAV holds NaN or infinite samples")
    return samples.astype(np.float64)


_WAV_DECODERS = {(1, 16): _pcm16, (1, 24): _pcm24, (3, 32): _float32}   # (tag, bits)


def read_wav(path) -> MultichannelSignal:
    """Read a RIFF/WAVE file: 16- or 24-bit PCM or 32-bit IEEE float.

    The fmt chunk may be plain or ``WAVE_FORMAT_EXTENSIBLE`` with the PCM or
    IEEE-float sub-format; PCM is scaled to [-1, 1).  Float samples must
    be finite.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError("not a RIFF/WAVE file")
    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (csize,) = struct.unpack_from("<I", data, pos + 4)
        body = memoryview(data)[pos + 8 : pos + 8 + csize]   # not a copy of the data
        if len(body) < csize:
            raise FormatError(f"truncated {cid!r} chunk")
        if cid == b"fmt ":
            if csize < 16:
                raise FormatError("fmt chunk too short")
            fmt = bytes(body)
        elif cid == b"data":
            payload = body
        pos += 8 + csize + (csize & 1)
    if fmt is None or payload is None:
        raise FormatError("missing fmt or data chunk")
    audio_format, channels, sample_rate, _rate, align, bits = struct.unpack_from(
        "<HHIIHH", fmt, 0
    )
    if channels < 1:
        raise FormatError("channel count must be >= 1")
    _check_rate(sample_rate)
    if audio_format == _EXTENSIBLE:
        audio_format = _sub_format(fmt)
    decode = _WAV_DECODERS.get((audio_format, bits))
    if decode is None:
        raise FormatError(
            f"unsupported WAV encoding (format {audio_format}, {bits}-bit)"
        )
    if align != channels * bits // 8:
        raise FormatError(
            f"block align {align} does not hold {channels} channels of {bits} bits"
        )
    samples = decode(_framed(payload, align))
    return MultichannelSignal(samples.reshape(-1, channels), sample_rate)


def _sub_format(fmt: bytes) -> int:
    """The plain format tag inside a ``WAVE_FORMAT_EXTENSIBLE`` fmt chunk."""
    if len(fmt) < 18:
        raise FormatError("extensible fmt chunk has no extension size")
    (extension,) = struct.unpack_from("<H", fmt, 16)
    if extension < 22:
        raise FormatError(f"extensible fmt extension of {extension} bytes, need 22")
    if len(fmt) < 18 + extension:
        raise FormatError("extensible fmt chunk shorter than its extension")
    (tag,) = struct.unpack_from("<H", fmt, 24)
    if fmt[26:40] != _SUBFORMAT_TAIL or tag not in (1, 3):
        raise FormatError(f"unknown WAV sub-format {fmt[24:40].hex()}")
    return tag


def _check_rate(sample_rate: int) -> None:
    if sample_rate < 1:
        raise FormatError(f"sample rate {sample_rate} Hz must be >= 1")


def _check_samples(samples) -> None:
    if np.ndim(samples) != 2 or np.shape(samples)[1] < 1:
        raise FormatError(f"samples of shape {np.shape(samples)} are not (N, L >= 1)")


def _framed(payload: bytes, frame: int) -> bytes:
    if len(payload) % frame:
        raise FormatError("data chunk is not a whole number of frames")
    return payload


def write_wav(path, signal: MultichannelSignal) -> None:
    """Write 16-bit PCM, rounding half away from zero and clipping.

    Samples are converted ``_WAV_CHUNK_VALUES`` at a time: small float
    temporaries are reused by the allocator, where whole-clip ones fault in
    fresh pages on every call once the process heap is small.
    """
    _check_rate(signal.sample_rate)
    _check_samples(signal.samples)
    n_channels = signal.samples.shape[1]
    if signal.samples.size * 2 > WAV_MAX_DATA_BYTES:
        raise FormatError(
            f"{signal.samples.size} samples exceed what a 16-bit WAV can hold"
        )
    # the fmt chunk's block align is a u16 and its byte rate a u32
    if n_channels * 2 > 0xFFFF or signal.sample_rate * n_channels * 2 > 0xFFFFFFFF:
        raise FormatError(
            f"{n_channels} channels at {signal.sample_rate} Hz overflow the WAV "
            "fmt fields"
        )
    samples = signal.samples
    pcm = np.empty(samples.shape, dtype="<i2")
    step = max(1, _WAV_CHUNK_VALUES // n_channels)
    for i in range(0, len(samples), step):
        with np.errstate(over="ignore"):   # +-inf clips to full scale below
            x = np.asarray(samples[i : i + step], dtype=float) * 32768.0
        q = np.abs(x)
        q += 0.5
        np.floor(q, out=q)
        np.copysign(q, x, out=q)
        np.clip(q, -32768, 32767, out=q)
        pcm[i : i + step] = q
    header = b"RIFF" + struct.pack("<I", 36 + pcm.nbytes) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH",
        16,
        1,
        n_channels,
        signal.sample_rate,
        signal.sample_rate * n_channels * 2,
        n_channels * 2,
        16,
    )
    header += b"data" + struct.pack("<I", pcm.nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pcm)


# --- partitioning ----------------------------------------------------------

def partition(signal: MultichannelSignal, block_size: int) -> PartitionedSignal:
    """Split channels into disjoint blocks, zero-padding the last one."""
    samples = np.asarray(signal.samples, dtype=float)
    n, channels = samples.shape
    if n == 0:
        raise ValueError("cannot partition an empty signal")
    if block_size < 2:
        raise ValueError("block_size must be >= 2")
    q = -(-n // block_size)
    pad = q * block_size - n
    # whole blocks are views of the samples where those are C-ordered; only
    # the padded last block is a copy
    blocks = [
        np.ascontiguousarray(samples[i * block_size : (i + 1) * block_size])
        for i in range(q - 1 if pad else q)
    ]
    if pad:
        last = np.zeros((block_size, channels))
        last[: block_size - pad] = samples[(q - 1) * block_size :]
        blocks.append(last)
    return PartitionedSignal(blocks=blocks, pad_length=pad)


def assemble(parted: PartitionedSignal) -> np.ndarray:
    """Concatenate blocks and drop the final padding."""
    full = np.concatenate(parted.blocks)
    return full[: len(full) - parted.pad_length]


# --- .tdc ------------------------------------------------------------------

def _bound(symbols) -> int:
    arr = np.asarray(symbols)
    return int(arr.max()) + 1 if arr.size else 1


def _check_header(h: TdcHeader, index_bound: int) -> None:
    """Refuse fixed header fields, and an index alphabet bound, that no
    decoder accepts; the writer and the reader share this one set."""
    if h.channel_count < 1:
        raise FormatError("channel count must be >= 1")
    _check_rate(h.sample_rate)
    if h.block_size < 2 or h.half_size < h.block_size:
        raise FormatError(f"bad dictionary geometry {h.block_size}/{h.half_size}")
    if h.block_size > MAX_BLOCK_SIZE or h.half_size > MAX_HALF_SIZE:
        raise FormatError(
            f"block size {h.block_size} or half size {h.half_size} above "
            f"the limits {MAX_BLOCK_SIZE} and {MAX_HALF_SIZE}"
        )
    padded = h.block_count * h.block_size
    if not (padded >= h.original_length > padded - h.block_size):
        raise FormatError(
            f"block geometry mismatch: Q={h.block_count}, "
            f"block_size={h.block_size}, N={h.original_length}"
        )
    # Decoders synthesize every block in full before the last one's padding
    # is dropped, so the padded length must fit one 16-bit WAV data chunk.
    if padded * h.channel_count * 2 > WAV_MAX_DATA_BYTES:
        raise FormatError(
            f"{h.block_count} blocks of {h.block_size} samples x "
            f"{h.channel_count} channels exceed what a 16-bit WAV can hold"
        )
    if not (h.delta > 0 and np.isfinite(h.delta)):
        raise FormatError(f"delta {h.delta!r} is not a positive finite float")
    # a block holds at most min(N_b, 2M) independent atoms, which is N_b:
    # the geometry check above refuses half_size < block_size
    if h.total_atoms > padded:
        raise FormatError(
            f"total_atoms {h.total_atoms} exceeds what {h.block_count} blocks can hold"
        )
    # An index gap is at most 2M (the top atom after separator 0).
    if index_bound > 2 * h.half_size + 1:
        raise FormatError(
            f"index stream alphabet bound {index_bound} above "
            f"2 * half_size + 1 = {2 * h.half_size + 1}"
        )


def _check_scale(delta: float, mags: np.ndarray) -> None:
    """Refuse a ``delta`` whose product with the largest of the level
    magnitudes ``mags`` is not finite; the writer and the reader share this."""
    top = int(mags.max()) if mags.size else 0
    if not math.isfinite(delta * top):
        raise FormatError(f"delta {delta!r} times level {top} is not finite")


def write_tdc(
    qset: QuantizedBlockSet,
    *,
    sample_rate: int,
    original_length: int,
    block_size: int,
    half_size: int,
) -> bytes:
    levels = np.asarray(qset.levels)
    if levels.ndim != 2 or levels.shape[1] < 1:
        raise FormatError(f"levels of shape {levels.shape} are not (K, L) with L >= 1")
    (k, channels), q = levels.shape, qset.block_count
    header = TdcHeader(VERSION, sample_rate, channels, int(original_length), block_size,
                       half_size, q, k, qset.delta)
    index_stream = np.asarray(qset.index_stream)
    _check_header(header, _bound(index_stream))
    if len(index_stream) != k + q - 1:
        raise FormatError(
            f"index stream holds {len(index_stream) - q + 1} atoms, levels {k} rows"
        )
    if (levels == np.iinfo(np.int64).min).any():   # np.abs leaves it negative
        raise FormatError(f"level {np.iinfo(np.int64).min} has no int64 magnitude")
    mags = np.abs(levels)
    _check_scale(qset.delta, mags)
    try:
        head = _FIXED.pack(MAGIC, *astuple(header)[:-1])
    except struct.error as exc:
        raise FormatError(f"a header field is wider than its slot: {exc}") from None

    payloads = []
    records = header.stream_records
    for symbols in [index_stream, *mags.T]:
        bound = _bound(symbols)
        payloads.append(entropy.arith_encode(entropy.SymbolStream(symbols, bound)))
        records.append(StreamRecord(bound, len(symbols), len(payloads[-1])))
    for bits in (levels < 0).T:
        payloads.append(np.packbits(bits).tobytes())
        records.append(StreamRecord(2, k, len(payloads[-1])))
    payload = b"".join(payloads)
    head += b"".join(_RECORD.pack(*astuple(r)) for r in records)
    head += _CRC.pack(zlib.crc32(payload))
    head += _CRC.pack(zlib.crc32(head))
    return head + payload


def read_tdc(data: bytes) -> tuple[TdcHeader, QuantizedBlockSet]:
    """Parse and verify a .tdc byte sequence; exact inverse of write_tdc."""
    if len(data) < _FIXED.size:
        raise FormatError("truncated header")
    magic, *fixed = _FIXED.unpack_from(data, 0)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    header = TdcHeader(*fixed)
    if header.version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {header.version}")
    channels, q, k = header.channel_count, header.block_count, header.total_atoms
    pos = _FIXED.size + (1 + 2 * channels) * _RECORD.size
    if len(data) < pos + 2 * _CRC.size:
        raise FormatError("truncated stream records")
    records = header.stream_records = [
        StreamRecord(*r) for r in _RECORD.iter_unpack(data[_FIXED.size : pos])
    ]
    (payload_crc,) = _CRC.unpack_from(data, pos)
    pos += _CRC.size
    (header_crc,) = _CRC.unpack_from(data, pos)
    if zlib.crc32(data[:pos]) != header_crc:
        raise ChecksumError("header")
    pos += _CRC.size

    _check_header(header, records[0].alphabet_bound)
    # Cross-check every symbol count before the decoder allocates for it:
    # the index stream is K atom symbols plus Q - 1 block separators.
    if records[0].symbol_count != k + q - 1:
        raise FormatError("index stream symbol count disagrees with total_atoms")
    for r in records[1 : 1 + 2 * channels]:
        if r.symbol_count != k:
            raise FormatError("stream symbol counts disagree with total_atoms")
    # A sign stream is K packed bits, which ties K to the payload size.
    for r in records[1 + channels :]:
        if r.alphabet_bound != 2 or r.byte_length != -(-k // 8):
            raise FormatError(
                f"sign stream record (bound {r.alphabet_bound}, "
                f"{r.byte_length} bytes) is not {k} packed bits"
            )

    payload = data[pos:]
    if len(payload) != sum(r.byte_length for r in records):
        raise FormatError(
            f"payload length {len(payload)} disagrees with stream records"
        )
    if zlib.crc32(payload) != payload_crc:
        raise ChecksumError("payload")

    blobs = []
    off = 0
    for r in records:
        blobs.append(payload[off : off + r.byte_length])
        off += r.byte_length
    signs = [np.frombuffer(b, dtype=np.uint8) for b in blobs[1 + channels :]]
    if k % 8 and any(s[-1] & (0xFF >> (k % 8)) for s in signs):
        raise FormatError("sign stream padding bits are not zero")

    streams = [
        entropy.arith_decode(b, r.symbol_count, r.alphabet_bound).symbols
        for b, r in zip(blobs[: 1 + channels], records)
    ]
    index_stream, mags = streams[0], np.stack(streams[1:], axis=1)
    _check_scale(header.delta, mags)
    n_sep = int(np.count_nonzero(index_stream == 0))
    if n_sep != q - 1:
        raise FormatError(f"index stream has {n_sep} separators, expected {q - 1}")

    sign = np.stack([np.unpackbits(s, count=k) for s in signs], axis=1)
    qset = QuantizedBlockSet(
        delta=header.delta, index_stream=index_stream, levels=np.where(sign, -mags, mags)
    )
    return header, qset
