"""Interleaved rANS coding of nonnegative-integer symbol streams.

Every stream is coded the same way, whatever its alphabet bound.  A value
``v`` of bit length ``b = v.bit_length()`` becomes the bucket symbol
``2 b + c``, where ``c`` is the bit just below its leading one (0 when
``b < 2``), so 63-bit values make at most 128 bucket symbols.  The bucket
symbols are rANS coded (Duda, arXiv:1311.2540) against one static
frequency table at scale ``2**12``, by ``N = min(16, ceil(count / 128))``
lanes that take the symbols in turn and advance together, one numpy step
per symbol of every lane (Giesen, arXiv:1402.3392).  The ``max(b - 2, 0)`` bits below
those two, which carry no structure an order-0 model could use, are
stored as they are in one packed bit field.  The bytes are a pure,
platform-independent function of the symbols and the alphabet bound.

The payload of a stream of ``count >= 1`` symbols (an empty stream has an
empty payload), little-endian:

===============  ========================================================
frequency table  bit-packed, below; zero padding to a whole byte
lane states      ``N`` u32, the decoder's initial states
words            u16 each, in the order the decoder reads them
bypass bits      the low bits of every value in stream order, most
                 significant first; ``ceil(bits / 8)`` bytes, zero padding
===============  ========================================================

The table, most significant bit first, is the smallest and the largest
bucket symbol it lists, 7 bits each, then for every symbol between them
except 1 and 3 (which no value produces) a 4-bit code: 0 for an absent
symbol; 1 to 13 for the bit length ``l`` of its frequency, followed by
the ``min(l - 1, 2)`` frequency bits below the leading one (the bits
below those are zero); or 15 for the one symbol whose frequency is
``2**12`` less the others'.  Only buckets up to
``(alphabet_bound - 1).bit_length()`` may be listed.

Lane ``j`` of ``N`` codes symbols ``j, j + N, j + 2N, ...``.  A lane state
lives in ``[2**16, 2**32)``; the encoder starts every lane at ``2**16``,
and the decoder must end every lane there.  A decoding step that leaves
a state below ``2**16`` reads one word into it, so each lane reads at
most one word per step, and the lanes of a step read in lane order from
the one shared word stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SymbolStream", "EntropyDecodeError", "arith_encode", "arith_decode"]

_SCALE_BITS = 12
_SCALE = 1 << _SCALE_BITS
_STATE_LOW = 1 << 16    # lane states live in [_STATE_LOW, 2**32)
_WORD_BITS = 16
_MAX_LANES = 16         # 32 lanes cost 0.3% of the rate on mc6-budget
_LANE_SYMBOLS = 128     # a lane state costs ~3 bytes: under 0.2 bit per symbol
_BUCKETS = 128          # bucket symbols 2 b + c of values below 2**63
_KEPT_BITS = 2          # frequency bits the table keeps below the leading one
_REMAINDER = 15         # table code of the symbol that takes the rest of the scale
_TABLE_MAX_BYTES = -(-(14 + (_BUCKETS - 2) * (4 + _KEPT_BITS)) // 8)
_MAX_BOUND = 1 << 63    # symbols live in int64


class EntropyDecodeError(ValueError):
    """Malformed or truncated stream payload."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass
class SymbolStream:
    symbols: np.ndarray
    alphabet_bound: int


def lane_count(count: int) -> int:
    """Lanes that code a stream of ``count`` symbols: one per
    ``_LANE_SYMBOLS`` symbols, at most ``_MAX_LANES``."""
    return min(_MAX_LANES, -(-count // _LANE_SYMBOLS))


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of each of the int64 ``values >= 0``."""
    lengths = np.frexp(values.astype(np.float64))[1].astype(np.int64)
    # a value of more than 53 bits can round up to the next power of two
    too_long = (values > 0) & ((values >> np.maximum(lengths - 1, 0)) == 0)
    return lengths - too_long


def _bypass_layout(widths: np.ndarray):
    """Which values have bypass bits, where each one's bits start in the
    field, and the shift that puts each field bit in place in its value."""
    has = np.flatnonzero(widths)
    w = widths[has]
    ends = np.cumsum(w)
    total = int(ends[-1]) if w.size else 0
    shifts = np.repeat(ends, w) - np.arange(1, total + 1)
    return has, ends - w, shifts


def _normalise(counts: np.ndarray) -> tuple[np.ndarray, int]:
    """Frequencies summing to ``2**12`` for the bucket counts of a stream,
    and the symbol that takes the remainder.

    Every present symbol but the most frequent gets its share of the scale
    rounded to ``_KEPT_BITS + 1`` significant bits, and at least 1; the
    most frequent takes what is left.  Rounding to nearest can leave it
    less than half its share on a flat distribution; rounding down then
    leaves it more than its share less the count of symbols with shares
    below 1, which is always positive for 126 symbols at scale ``2**12``.
    """
    present = np.flatnonzero(counts)
    rest = int(present[np.argmax(counts[present])])
    others = present[present != rest]
    n = int(counts.sum())
    share = counts << _SCALE_BITS   # counts stay below 2**32
    whole = share[others] // n
    step = np.left_shift(1, np.maximum(_bit_lengths(whole) - 1 - _KEPT_BITS, 0))
    freq = np.zeros(_BUCKETS, dtype=np.int64)
    nearest = (2 * share[others] + step * n) // (2 * step * n) * step
    freq[others] = np.maximum(nearest, 1)
    if 2 * n * (_SCALE - freq.sum()) < share[rest]:
        freq[others] = np.maximum(whole // step * step, 1)
    freq[rest] = _SCALE - freq.sum()
    return freq, rest


def _pack_table(freq: np.ndarray, rest: int) -> bytes:
    listed = np.flatnonzero(freq)
    lo, hi = int(listed[0]), int(listed[-1])
    acc, nbits = (lo << 7) | hi, 14
    for s in range(lo, hi + 1):
        if s in (1, 3):
            continue
        if s == rest:
            code, kept, below = _REMAINDER, 0, 0
        else:
            f = int(freq[s])
            code = f.bit_length()
            kept = max(min(code - 1, _KEPT_BITS), 0)
            below = (f >> (code - 1 - kept)) & ((1 << kept) - 1) if f else 0
        acc = (acc << (4 + kept)) | (code << kept) | below
        nbits += 4 + kept
    pad = -nbits % 8
    return (acc << pad).to_bytes((nbits + pad) // 8, "big")


def _unpack_table(data: bytes, buckets: int) -> tuple[np.ndarray, int]:
    """Frequencies of the table at the head of ``data``, and its byte size."""
    head = data[:_TABLE_MAX_BYTES]
    acc, width, pos = int.from_bytes(head, "big"), 8 * len(head), 0

    def take(n: int) -> int:
        nonlocal pos
        pos += n
        if pos > width:
            raise EntropyDecodeError("truncated frequency table", len(head))
        return (acc >> (width - pos)) & ((1 << n) - 1)

    lo, hi = take(7), take(7)
    if not lo <= hi < buckets:
        raise EntropyDecodeError(
            f"frequency table lists bucket symbols {lo}..{hi}, not within "
            f"0..{buckets - 1}", 0
        )
    freq = [0] * _BUCKETS
    rest = []
    for s in range(lo, hi + 1):
        if s in (1, 3):
            continue
        code = take(4)
        if code == _REMAINDER:
            rest.append(s)
        elif code > _SCALE_BITS + 1:
            raise EntropyDecodeError(f"bad frequency code {code}", pos // 8)
        elif code:
            kept = min(code - 1, _KEPT_BITS)
            freq[s] = ((1 << kept) | take(kept)) << (code - 1 - kept)
    listed = sum(freq)
    if len(rest) != 1 or listed >= _SCALE:
        raise EntropyDecodeError(
            "frequency table does not sum to 2**12 with every listed symbol "
            "at least 1", pos // 8
        )
    freq[rest[0]] = _SCALE - listed
    size = -(-pos // 8)
    if (acc >> (width - 8 * size)) & ((1 << (8 * size - pos)) - 1):
        raise EntropyDecodeError("frequency table padding bits are not zero", size)
    return np.array(freq, dtype=np.int64), size


def _rans_encode(buckets: np.ndarray, freq: np.ndarray, lanes: int):
    """Final lane states and the word stream, in the decoder's order.

    The encoder runs the decoder backwards: steps last to first, and in
    each step a lane whose state would leave ``[2**16, 2**32)`` first
    writes its low word, the one the decoder reads after that symbol.
    Lanes past the end of the stream in the last step code a symbol of
    frequency ``2**12``, which leaves their state as it is.
    """
    steps = -(-buckets.size // lanes)
    cum = np.cumsum(freq) - freq
    f = np.full(steps * lanes, _SCALE, dtype=np.int64)
    c = np.zeros(steps * lanes, dtype=np.int64)
    f[: buckets.size], c[: buckets.size] = freq[buckets], cum[buckets]
    f, c = f.reshape(steps, lanes), c.reshape(steps, lanes)
    limit = f << (32 - _SCALE_BITS)   # the largest state coded as it is, + 1
    x = np.full(lanes, _STATE_LOW, dtype=np.int64)
    blocks = []
    for t in range(steps - 1, -1, -1):
        out = (x >= limit[t]).nonzero()[0]
        if out.size:
            blocks.append(x[out] & 0xFFFF)
            x[out] >>= _WORD_BITS
        q, r = np.divmod(x, f[t])
        x = (q << _SCALE_BITS) + r + c[t]
    words = np.concatenate(blocks[::-1]) if blocks else np.empty(0, dtype=np.int64)
    return x, words


def _rans_decode(states: np.ndarray, words: np.ndarray, freq: np.ndarray,
                 count: int, offset: int) -> tuple[np.ndarray, int]:
    """``count`` bucket symbols and the number of words read.

    ``words`` may run on into the bypass bytes; ``offset`` is the byte
    offset of the first word, for error messages.  The step keeps its
    constants in lane-sized arrays, which numpy applies faster than
    Python ints, and records each lane's slot; one gather after the loop
    turns the slots into symbols.
    """
    lanes = states.size
    symbol_of_slot = np.repeat(np.arange(_BUCKETS), freq)
    freq_of_slot = freq[symbol_of_slot]
    bias_of_slot = np.arange(_SCALE) - (np.cumsum(freq) - freq)[symbol_of_slot]
    steps = -(-count // lanes)
    slots = np.empty((steps, lanes), dtype=np.int64)
    x = states.astype(np.int64)
    xv = x
    mask, shift, floor = (np.full(lanes, v) for v in (_SCALE - 1, _SCALE_BITS,
                                                      _STATE_LOW))
    pos = 0
    for t in range(steps):
        live = count - t * lanes
        if live < lanes:   # the last step is partial
            xv, mask, shift, floor = x[:live], mask[:live], shift[:live], floor[:live]
        slot = np.bitwise_and(xv, mask, out=slots[t, : xv.size])
        xv >>= shift
        xv *= freq_of_slot[slot]
        xv += bias_of_slot[slot]
        low = (xv < floor).nonzero()[0]
        if low.size:
            if pos + low.size > words.size:
                raise EntropyDecodeError("input exhausted", offset + 2 * words.size)
            xv[low] = (xv[low] << _WORD_BITS) | words[pos : pos + low.size]
            pos += low.size
    if (x != _STATE_LOW).any():
        raise EntropyDecodeError(
            "a lane does not end in its initial state", offset + 2 * pos
        )
    return symbol_of_slot[slots.reshape(-1)[:count]], pos


def _check_bound(alphabet_bound: int):
    if alphabet_bound < 1:
        raise ValueError("alphabet_bound must be >= 1")
    if alphabet_bound > _MAX_BOUND:
        raise ValueError("alphabet_bound exceeds the supported symbol range")


def _validate(symbols: np.ndarray, alphabet_bound: int):
    _check_bound(alphabet_bound)
    if symbols.size >= 1 << 32:
        raise ValueError("stream too long")
    if symbols.size:
        lo, hi = int(symbols.min()), int(symbols.max())
        if lo < 0:
            raise ValueError("negative symbol")
        if hi >= alphabet_bound:
            raise ValueError(f"symbol {hi} >= alphabet_bound {alphabet_bound}")


def arith_encode(stream: SymbolStream) -> bytes:
    """Encode ``stream`` to the payload laid out in the module docstring."""
    symbols = np.asarray(stream.symbols, dtype=np.int64).reshape(-1)
    _validate(symbols, int(stream.alphabet_bound))
    if not symbols.size:
        return b""
    lengths = _bit_lengths(symbols)
    widths = np.maximum(lengths - 2, 0)
    buckets = 2 * lengths + np.where(lengths >= 2, (symbols >> widths) & 1, 0)
    freq, rest = _normalise(np.bincount(buckets, minlength=_BUCKETS))
    states, words = _rans_encode(buckets, freq, lane_count(symbols.size))
    has, _, shifts = _bypass_layout(widths)
    bits = (np.repeat(symbols[has], widths[has]) >> shifts) & 1
    return b"".join([
        _pack_table(freq, rest),
        states.astype("<u4").tobytes(),
        words.astype("<u2").tobytes(),
        np.packbits(bits.astype(np.uint8)).tobytes(),
    ])


def arith_decode(data: bytes, length: int, alphabet_bound: int) -> SymbolStream:
    """Exact inverse of :func:`arith_encode` for ``length`` symbols.

    Every size in the payload is checked against the table, the lane
    states, the words read and the bypass bits before the bypass field is
    unpacked.
    """
    bound = int(alphabet_bound)
    _check_bound(bound)
    if length < 0:
        raise ValueError("negative length")
    if length == 0:
        if data:
            raise EntropyDecodeError("an empty stream has a payload", 0)
        return SymbolStream(np.empty(0, dtype=np.int64), bound)
    # values below the bound have at most (bound - 1).bit_length() bits
    freq, pos = _unpack_table(data, 2 * (bound - 1).bit_length() + 2)
    lanes = lane_count(length)
    words_at = pos + 4 * lanes
    if len(data) < words_at:
        raise EntropyDecodeError("truncated lane states", len(data))
    states = np.frombuffer(data, dtype="<u4", count=lanes, offset=pos)
    if states.min() < _STATE_LOW:
        raise EntropyDecodeError("lane state below 2**16", pos)
    words = np.frombuffer(data, dtype="<u2", count=(len(data) - words_at) // 2,
                          offset=words_at).astype(np.int64)
    buckets, used = _rans_decode(states, words, freq, length, words_at)
    lengths = buckets >> 1
    widths = np.maximum(lengths - 2, 0)
    total = int(widths.sum())
    field_at = words_at + 2 * used
    if len(data) != field_at + -(-total // 8):
        raise EntropyDecodeError(
            f"payload of {len(data)} bytes is not table, lane states, {used} "
            f"words and {total} bypass bits", field_at
        )
    field = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=field_at))
    if field[total:].any():
        raise EntropyDecodeError("bypass padding bits are not zero", len(data) - 1)
    has, starts, shifts = _bypass_layout(widths)
    values = np.where(lengths >= 2, (2 + (buckets & 1)) << widths, lengths)
    if has.size:
        values[has] |= np.add.reduceat(field[:total].astype(np.int64) << shifts,
                                       starts)
    if int(values.max()) >= bound:
        raise EntropyDecodeError("decoded symbol out of range", field_at)
    return SymbolStream(values, bound)
