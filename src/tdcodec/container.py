"""WAV ingestion/emission, block partitioning, and the .tdc container.

The .tdc layout is little-endian throughout:

========================  =======================================
magic                     4 bytes ``TDC1``
version                   u16
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
payload                   entropy-coded streams, in record order
========================  =======================================

Stream order is: index stream, the L coefficient streams, the L sign
streams.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
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
VERSION = 1
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

    @property
    def duration_s(self) -> float:
        return self.sample_count / self.sample_rate


@dataclass
class PartitionedSignal:
    blocks: list[np.ndarray]   # each (block_size, L), or one (Q, block_size, L)
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
    version: int
    sample_rate: int
    channel_count: int
    original_length: int
    block_size: int
    half_size: int
    block_count: int
    total_atoms: int
    delta: float
    stream_records: list[StreamRecord]
    header_checksum: int
    payload_checksum: int


# --- WAV ------------------------------------------------------------------

def read_wav(path) -> MultichannelSignal:
    """Read a RIFF/WAVE file (16-bit PCM or 32-bit IEEE float)."""
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError("not a RIFF/WAVE file")
    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (csize,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + csize]
        if len(body) < csize:
            raise FormatError(f"truncated {cid!r} chunk")
        if cid == b"fmt ":
            if csize < 16:
                raise FormatError("fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            payload = body
        pos += 8 + csize + (csize & 1)
    if fmt is None or payload is None:
        raise FormatError("missing fmt or data chunk")
    audio_format, channels, sample_rate, _rate, _align, bits = fmt
    if channels < 1:
        raise FormatError("channel count must be >= 1")
    if audio_format == 1 and bits == 16:
        width = 2
        raw = np.frombuffer(_framed(payload, channels * width), dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    elif audio_format == 3 and bits == 32:
        width = 4
        raw = np.frombuffer(_framed(payload, channels * width), dtype="<f4")
        samples = raw.astype(np.float64)
    else:
        raise FormatError(
            f"unsupported WAV encoding (format {audio_format}, {bits}-bit)"
        )
    return MultichannelSignal(samples.reshape(-1, channels), sample_rate)


def _framed(payload: bytes, frame: int) -> bytes:
    if len(payload) % frame:
        raise FormatError("data chunk is not a whole number of frames")
    return payload


def write_wav(path, signal: MultichannelSignal) -> None:
    """Write 16-bit PCM, rounding half away from zero and clipping."""
    if signal.samples.size * 2 > WAV_MAX_DATA_BYTES:
        raise FormatError(
            f"{signal.samples.size} samples exceed what a 16-bit WAV can hold"
        )
    x = np.asarray(signal.samples, dtype=float) * 32768.0
    q = np.sign(x) * np.floor(np.abs(x) + 0.5)
    pcm = np.clip(q, -32768, 32767).astype("<i2")
    body = pcm.tobytes()
    n_channels = signal.samples.shape[1]
    header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
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
    header += b"data" + struct.pack("<I", len(body))
    Path(path).write_bytes(header + body)


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
    padded = np.vstack([samples, np.zeros((pad, channels))]) if pad else samples
    blocks = [
        np.ascontiguousarray(padded[i * block_size : (i + 1) * block_size])
        for i in range(q)
    ]
    return PartitionedSignal(blocks=blocks, pad_length=pad)


def assemble(parted: PartitionedSignal) -> np.ndarray:
    """Concatenate blocks and drop the final padding."""
    blocks = np.asarray(parted.blocks)   # a stacked array is not copied
    full = blocks.reshape(-1, blocks.shape[-1])
    n = full.shape[0] - parted.pad_length
    return full[:n]


# --- .tdc ------------------------------------------------------------------

def _stream_tuples(qset: QuantizedBlockSet):
    """Streams in container order with their alphabet bounds."""
    yield qset.index_stream, _bound(qset.index_stream)
    for s in qset.coeff_streams:
        yield s, _bound(s)
    for s in qset.sign_streams:
        yield s, 2


def _bound(symbols) -> int:
    arr = np.asarray(symbols)
    return int(arr.max()) + 1 if arr.size else 1


def _check_output_size(q: int, block_size: int, channels: int) -> None:
    """Decoders synthesize every block in full before the last one's padding
    is dropped, so the padded length must fit one 16-bit WAV data chunk."""
    if q * block_size * channels * 2 > WAV_MAX_DATA_BYTES:
        raise FormatError(
            f"{q} blocks of {block_size} samples x {channels} channels exceed "
            "what a 16-bit WAV can hold"
        )


def write_tdc(
    qset: QuantizedBlockSet,
    *,
    sample_rate: int,
    original_length: int,
    block_size: int,
    half_size: int,
) -> bytes:
    q, length = qset.block_count, int(original_length)
    if not (q * block_size >= length > (q - 1) * block_size):
        raise FormatError(
            f"block geometry mismatch: Q={q}, block_size={block_size}, N={length}"
        )
    _check_output_size(q, block_size, qset.channel_count)
    if not qset.delta > 0 or not np.isfinite(qset.delta):
        raise FormatError("delta must be a positive finite float")
    k = qset.total_atoms
    for s in qset.coeff_streams + qset.sign_streams:
        if len(s) != k:
            raise FormatError("coefficient/sign stream lengths disagree")
    n_sep = int(np.count_nonzero(np.asarray(qset.index_stream) == 0))
    if n_sep != q - 1:
        raise FormatError(f"index stream has {n_sep} separators, expected {q - 1}")

    payloads = []
    records = []
    for symbols, bound in _stream_tuples(qset):
        blob = entropy.arith_encode(entropy.SymbolStream(np.asarray(symbols), bound))
        payloads.append(blob)
        records.append(StreamRecord(bound, len(symbols), len(blob)))
    payload = b"".join(payloads)

    head = _FIXED.pack(
        MAGIC,
        VERSION,
        sample_rate,
        qset.channel_count,
        length,
        block_size,
        half_size,
        q,
        k,
        qset.delta,
    )
    head += b"".join(
        _RECORD.pack(r.alphabet_bound, r.symbol_count, r.byte_length) for r in records
    )
    head += _CRC.pack(zlib.crc32(payload))
    head += _CRC.pack(zlib.crc32(head))
    return head + payload


def read_tdc(data: bytes) -> tuple[TdcHeader, QuantizedBlockSet]:
    """Parse and verify a .tdc byte sequence; exact inverse of write_tdc."""
    if len(data) < _FIXED.size:
        raise FormatError("truncated header")
    (
        magic,
        version,
        sample_rate,
        channels,
        length,
        block_size,
        half_size,
        q,
        k,
        delta,
    ) = _FIXED.unpack_from(data, 0)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}")
    n_streams = 1 + 2 * channels
    header_size = _FIXED.size + n_streams * _RECORD.size + 2 * _CRC.size
    if len(data) < header_size:
        raise FormatError("truncated stream records")
    records = []
    pos = _FIXED.size
    for _ in range(n_streams):
        bound, count, nbytes = _RECORD.unpack_from(data, pos)
        records.append(StreamRecord(bound, count, nbytes))
        pos += _RECORD.size
    (payload_crc,) = _CRC.unpack_from(data, pos)
    pos += _CRC.size
    (header_crc,) = _CRC.unpack_from(data, pos)
    if zlib.crc32(data[:pos]) != header_crc:
        raise ChecksumError("header")
    pos += _CRC.size

    if channels < 1:
        raise FormatError("channel count must be >= 1")
    if block_size < 2 or half_size < block_size:
        raise FormatError("bad dictionary geometry in header")
    if block_size > MAX_BLOCK_SIZE or half_size > MAX_HALF_SIZE:
        raise FormatError(
            f"block size {block_size} or half size {half_size} in header above "
            f"the limits {MAX_BLOCK_SIZE} and {MAX_HALF_SIZE}"
        )
    if not (q * block_size >= length > (q - 1) * block_size):
        raise FormatError("block geometry mismatch in header")
    _check_output_size(q, block_size, channels)
    if not (delta > 0 and np.isfinite(delta)):
        raise FormatError("bad delta in header")
    # Cross-check every symbol count before the decoder allocates for it:
    # a block holds at most min(N_b, 2M) independent atoms, and the index
    # stream is K atom symbols plus Q - 1 block separators.
    if k > q * min(block_size, 2 * half_size):
        raise FormatError(f"total_atoms {k} exceeds what {q} blocks can hold")
    if records[0].symbol_count != k + q - 1:
        raise FormatError("index stream symbol count disagrees with total_atoms")
    for r in records[1 : 1 + 2 * channels]:
        if r.symbol_count != k:
            raise FormatError("stream symbol counts disagree with total_atoms")
    # An index gap is at most 2M (the top atom after separator 0), and a
    # sign is a bit.
    if records[0].alphabet_bound > 2 * half_size + 1:
        raise FormatError(
            f"index stream alphabet bound {records[0].alphabet_bound} above "
            f"2 * half_size + 1 = {2 * half_size + 1}"
        )
    if any(r.alphabet_bound > 2 for r in records[1 + channels :]):
        raise FormatError("sign stream alphabet bound above 2")

    payload = data[pos:]
    if len(payload) != sum(r.byte_length for r in records):
        raise FormatError(
            f"payload length {len(payload)} disagrees with stream records"
        )
    if zlib.crc32(payload) != payload_crc:
        raise ChecksumError("payload")

    streams = []
    off = 0
    for r in records:
        blob = payload[off : off + r.byte_length]
        off += r.byte_length
        streams.append(
            entropy.arith_decode(blob, r.symbol_count, r.alphabet_bound).symbols
        )
    index_stream = streams[0]
    n_sep = int(np.count_nonzero(index_stream == 0))
    if n_sep != q - 1:
        raise FormatError(f"index stream has {n_sep} separators, expected {q - 1}")

    header = TdcHeader(
        version=version,
        sample_rate=sample_rate,
        channel_count=channels,
        original_length=length,
        block_size=block_size,
        half_size=half_size,
        block_count=q,
        total_atoms=k,
        delta=delta,
        stream_records=records,
        header_checksum=header_crc,
        payload_checksum=payload_crc,
    )
    qset = QuantizedBlockSet(
        delta=delta,
        index_stream=index_stream,
        coeff_streams=streams[1 : 1 + channels],
        sign_streams=[s.astype(np.uint8) for s in streams[1 + channels :]],
        block_count=q,
        channel_count=channels,
    )
    return header, qset
