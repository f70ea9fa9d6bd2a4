"""Adaptive arithmetic coding of nonnegative-integer symbol streams.

Each stream is coded independently with a fresh order-0 model: every
symbol starts with count 1, counts grow by 1 per coded symbol, and all
counts are halved (rounding up) once their total exceeds the model limit
(``2**16``, or twice the alphabet size for near-maximal alphabets).  The
coder itself is an integer 32-bit range coder with carry handling, so the
output bytes are a pure, platform-independent function of the symbol
sequence and the alphabet bound.

Alphabets wider than ``WIDE_ALPHABET`` (``2**16``) are binarised the way
CABAC's UEG codes are: each symbol ``v`` codes its bit length
``b = v.bit_length()`` through one adaptive model of
``(bound - 1).bit_length() + 1`` symbols, then the ``b - 1`` bits below
its leading one, most significant first, as bypass chunks of at most 16
bits with a flat, stateless distribution.  Model state stays at most 64
counts, and the low bits of wide symbols (quantised coefficient levels
grow like ``1/delta``), which carry no structure an order-0 model could
use, cost one range-coder step per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SymbolStream", "EntropyDecodeError", "arith_encode", "arith_decode"]

_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF
_MODEL_LIMIT = 1 << 16   # halve counts when the total exceeds this
WIDE_ALPHABET = 1 << 16  # wider alphabets code bit length + bypass bits
_CHUNK = 16              # bypass bits per range-coder step
_MAX_BOUND = 1 << 63     # symbols live in int64


class EntropyDecodeError(ValueError):
    """Range-coder state violation or truncated input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass
class SymbolStream:
    symbols: np.ndarray
    alphabet_bound: int


class _AdaptiveModel:
    """Fenwick-tree frequency model with Laplace (all-ones) initialization.

    Node ``i`` of the tree holds the counts of symbols ``i - lowbit(i)``
    to ``i - 1`` (``lowbit(i) = i & -i``), so with all counts 1 it holds
    ``lowbit(i)`` and after a halving it is a difference of prefix sums;
    both are built with numpy rather than a per-symbol Python loop.
    """

    def __init__(self, size: int):
        self.size = size
        self.counts = [1] * size
        self.total = size
        # the halving threshold needs headroom above the flat prior, or a
        # maximal alphabet would rebuild the tree on every single symbol
        self.limit = max(_MODEL_LIMIT, 2 * size)
        node = np.arange(size + 1)
        self.tree = (node & -node).tolist()
        self._topbit = 1 << (size.bit_length() - 1)

    def _halve(self):
        counts = (np.array(self.counts, dtype=np.int64) + 1) >> 1
        self.counts = counts.tolist()
        self.total = int(counts.sum())
        prefix = np.zeros(self.size + 1, dtype=np.int64)
        np.cumsum(counts, out=prefix[1:])
        node = np.arange(self.size + 1)
        self.tree = (prefix - prefix[node - (node & -node)]).tolist()

    def cum_below(self, symbol: int) -> int:
        s = 0
        i = symbol
        tree = self.tree
        while i > 0:
            s += tree[i]
            i -= i & -i
        return s

    def find(self, target: int) -> tuple[int, int]:
        """Return ``(symbol, cum_below)`` with ``cum <= target < cum + count``."""
        idx = 0
        rem = target
        bit = self._topbit
        tree = self.tree
        size = self.size
        while bit:
            nxt = idx + bit
            if nxt <= size and tree[nxt] <= rem:
                idx = nxt
                rem -= tree[nxt]
            bit >>= 1
        return idx, target - rem

    def update(self, symbol: int):
        self.counts[symbol] += 1
        self.total += 1
        i = symbol + 1
        tree = self.tree
        size = self.size
        while i <= size:
            tree[i] += 1
            i += i & -i
        if self.total > self.limit:
            self._halve()


class _RangeEncoder:
    def __init__(self):
        self.low = 0
        self.range = _MASK32
        self.cache = 0
        self.cache_size = 1
        self.out = bytearray()

    def encode(self, start: int, size: int, total: int):
        r = self.range // total
        self.low += r * start
        self.range = r * size
        while self.range < _TOP:
            self.range <<= 8
            self._shift_low()

    def _shift_low(self):
        if self.low < 0xFF000000 or self.low > _MASK32:
            carry = self.low >> 32
            self.out.append((self.cache + carry) & 0xFF)
            for _ in range(self.cache_size - 1):
                self.out.append((0xFF + carry) & 0xFF)
            self.cache_size = 0
            self.cache = (self.low >> 24) & 0xFF
        self.cache_size += 1
        self.low = (self.low << 8) & _MASK32

    def finish(self) -> bytes:
        for _ in range(5):
            self._shift_low()
        return bytes(self.out)


class _RangeDecoder:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.range = _MASK32
        self.code = 0
        self._byte()   # leading byte primed by the encoder cache, always 0
        for _ in range(4):
            self.code = (self.code << 8) | self._byte()

    def _byte(self) -> int:
        if self.pos >= len(self.data):
            raise EntropyDecodeError("input exhausted", offset=self.pos)
        b = self.data[self.pos]
        self.pos += 1
        return b

    def decode_target(self, total: int) -> int:
        self._r = self.range // total
        value = self.code // self._r
        if value >= total:
            raise EntropyDecodeError("corrupt range-coder state", offset=self.pos)
        return value

    def consume(self, start: int, size: int):
        self.code -= start * self._r
        self.range = size * self._r
        while self.range < _TOP:
            self.code = ((self.code << 8) | self._byte()) & _MASK32
            self.range <<= 8


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
    """Encode ``stream`` to a self-terminating byte sequence."""
    symbols = np.asarray(stream.symbols, dtype=np.int64).reshape(-1)
    bound = int(stream.alphabet_bound)
    _validate(symbols, bound)
    enc = _RangeEncoder()
    if bound <= WIDE_ALPHABET:
        model = _AdaptiveModel(bound)
        for s in symbols.tolist():
            enc.encode(model.cum_below(s), model.counts[s], model.total)
            model.update(s)
        return enc.finish()
    model = _AdaptiveModel((bound - 1).bit_length() + 1)
    for s in symbols.tolist():
        b = s.bit_length()
        enc.encode(model.cum_below(b), model.counts[b], model.total)
        model.update(b)
        rest = b - 1
        while rest > 0:
            w = rest if rest < _CHUNK else _CHUNK
            rest -= w
            enc.encode((s >> rest) & ((1 << w) - 1), 1, 1 << w)
    return enc.finish()


def arith_decode(data: bytes, length: int, alphabet_bound: int) -> SymbolStream:
    """Exact inverse of :func:`arith_encode` for ``length`` symbols."""
    bound = int(alphabet_bound)
    _check_bound(bound)
    if length < 0:
        raise ValueError("negative length")
    if length == 0:
        return SymbolStream(np.empty(0, dtype=np.int64), bound)
    dec = _RangeDecoder(data)
    out = np.empty(length, dtype=np.int64)
    if bound <= WIDE_ALPHABET:
        model = _AdaptiveModel(bound)
        for i in range(length):
            s, cum = model.find(dec.decode_target(model.total))
            dec.consume(cum, model.counts[s])
            model.update(s)
            out[i] = s
        return SymbolStream(out, bound)
    model = _AdaptiveModel((bound - 1).bit_length() + 1)
    for i in range(length):
        b, cum = model.find(dec.decode_target(model.total))
        dec.consume(cum, model.counts[b])
        model.update(b)
        s = 1 if b else 0
        rest = b - 1
        while rest > 0:
            w = rest if rest < _CHUNK else _CHUNK
            rest -= w
            chunk = dec.decode_target(1 << w)
            dec.consume(chunk, 1)
            s = (s << w) | chunk
        if s >= bound:
            raise EntropyDecodeError("decoded symbol out of range", dec.pos)
        out[i] = s
    return SymbolStream(out, bound)
