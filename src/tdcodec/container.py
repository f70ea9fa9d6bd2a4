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

Stream order is: index stream, the L coefficient streams, the L sign
streams.  The payload of an index or coefficient stream is what
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

# WAVE_FORMAT_EXTENSIBLE names its encoding by a GUID: the plain format tag
# in its first two bytes, then this fixed tail
_EXTENSIBLE = 0xFFFE
_SUBFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")
_WAV_CHUNK_VALUES = 8192   # samples per conversion step of write_wav


def _pcm16(payload: bytes) -> np.ndarray:
    return np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0


def _pcm24(payload: bytes) -> np.ndarray:
    # each sample as the top three bytes of an int32, so its sign carries
    wide = np.zeros((len(payload) // 3, 4), dtype=np.uint8)
    wide[:, 1:] = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
    return wide.view("<i4")[:, 0] / 2147483648.0


def _float32(payload: bytes) -> np.ndarray:
    return np.frombuffer(payload, dtype="<f4").astype(np.float64)


_WAV_DECODERS = {(1, 16): _pcm16, (1, 24): _pcm24, (3, 32): _float32}   # (tag, bits)


def read_wav(path) -> MultichannelSignal:
    """Read a RIFF/WAVE file: 16- or 24-bit PCM or 32-bit IEEE float.

    The fmt chunk may be plain or ``WAVE_FORMAT_EXTENSIBLE`` with the PCM or
    IEEE-float sub-format; PCM is scaled to [-1, 1).
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
        body = data[pos + 8 : pos + 8 + csize]
        if len(body) < csize:
            raise FormatError(f"truncated {cid!r} chunk")
        if cid == b"fmt ":
            if csize < 16:
                raise FormatError("fmt chunk too short")
            fmt = body
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
    for symbols in [qset.index_stream, *qset.coeff_streams]:
        bound = _bound(symbols)
        blob = entropy.arith_encode(entropy.SymbolStream(np.asarray(symbols), bound))
        payloads.append(blob)
        records.append(StreamRecord(bound, len(symbols), len(blob)))
    for bits in qset.sign_streams:
        bits = np.asarray(bits)
        if bits.size and (bits.min() < 0 or bits.max() > 1):
            raise FormatError("sign streams must hold only 0 and 1")
        payloads.append(np.packbits(bits.astype(np.uint8)).tobytes())
        records.append(StreamRecord(2, k, len(payloads[-1])))
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
    # An index gap is at most 2M (the top atom after separator 0).
    if records[0].alphabet_bound > 2 * half_size + 1:
        raise FormatError(
            f"index stream alphabet bound {records[0].alphabet_bound} above "
            f"2 * half_size + 1 = {2 * half_size + 1}"
        )
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
    index_stream = streams[0]
    top = max((int(c.max()) for c in streams[1:] if c.size), default=0)
    if not math.isfinite(delta * top):
        raise FormatError(f"delta {delta!r} times level {top} is not finite")
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
        coeff_streams=streams[1:],
        sign_streams=[np.unpackbits(s, count=k) for s in signs],
        block_count=q,
        channel_count=channels,
    )
    return header, qset
