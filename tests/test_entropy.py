import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcodec import EntropyDecodeError
from tdcodec import entropy
from tdcodec.entropy import SymbolStream, arith_decode, arith_encode

import oracles


def roundtrip(symbols, bound):
    symbols = np.asarray(symbols, dtype=np.int64)
    blob = arith_encode(SymbolStream(symbols, bound))
    out = arith_decode(blob, len(symbols), bound)
    assert np.array_equal(out.symbols, symbols)
    assert out.alphabet_bound == bound
    return blob


def test_empty_stream_is_header_only():
    blob = roundtrip([], 5)
    assert blob == b""   # no table, no lanes, no bypass bits


def test_identical_symbols_compress_hard():
    # one bucket symbol of frequency 2^12: a 3-byte table and 8 lane
    # states that never move, no words and no bypass bits (3 is 0b11)
    blob = roundtrip(np.full(1000, 3), 17)
    assert len(blob) == 3 + 4 * 8


def test_single_symbol_alphabet_needs_no_payload_bits():
    blob = roundtrip(np.zeros(5000, dtype=np.int64), 1)
    assert len(blob) == 3 + 4 * 16


@pytest.mark.parametrize("bound", [2, 17, 256])
def test_random_streams_roundtrip(bound, rng):
    for n in (0, 1, 7, 1000):
        roundtrip(rng.integers(0, bound, size=n), bound)


def test_wide_alphabet_roundtrip(rng):
    sym = rng.integers(0, 3_000_000, size=400)
    sym[0] = 0
    sym[1] = 2_999_999
    roundtrip(sym, 3_000_000)


@given(
    st.integers(min_value=2, max_value=300).flatmap(
        lambda bound: st.tuples(
            st.just(bound),
            st.lists(st.integers(0, bound - 1), min_size=0, max_size=200),
        )
    )
)
@settings(max_examples=80)
def test_roundtrip_property(case):
    bound, symbols = case
    roundtrip(symbols, bound)


def test_symbol_above_bound_rejected():
    with pytest.raises(ValueError):
        arith_encode(SymbolStream(np.array([4]), 4))
    with pytest.raises(ValueError):
        arith_encode(SymbolStream(np.array([-1]), 4))


def test_decoder_rejects_bound_beyond_int64_symbols():
    with pytest.raises(ValueError):
        arith_decode(b"\x00" * 8, 1, (1 << 63) + 1)


def test_truncated_input_reports_offset(rng):
    sym = rng.integers(0, 256, size=400)
    blob = arith_encode(SymbolStream(sym, 256))
    with pytest.raises(EntropyDecodeError) as err:
        arith_decode(blob[: len(blob) // 2], 400, 256)
    assert err.value.offset <= len(blob) // 2


def test_a_word_stream_cut_short_exhausts_the_input(rng):
    # symbols below 4 take no bypass bits, so the payload ends in the last
    # word that the lanes read; without it they run out of input there
    symbols = rng.integers(0, 4, size=400)
    blob = arith_encode(SymbolStream(symbols, 4))
    with pytest.raises(EntropyDecodeError, match="input exhausted") as err:
        arith_decode(blob[:-2], 400, 4)
    assert err.value.offset == len(blob) - 2


def test_a_negative_length_is_refused():
    with pytest.raises(ValueError, match="negative length"):
        arith_decode(b"", -1, 5)


def test_corruption_is_detected_or_changes_output(rng):
    # a flipped bypass bit changes a value without breaking the layout; the
    # container CRC is the authoritative guard, so the output need only differ
    sym = rng.integers(0, 64, size=300)
    blob = bytearray(arith_encode(SymbolStream(sym, 64)))
    for pos in (1, len(blob) // 4, len(blob) // 2):
        bad = bytearray(blob)
        bad[pos] ^= 0x41
        try:
            out = arith_decode(bytes(bad), 300, 64)
        except EntropyDecodeError:
            continue
        assert not np.array_equal(out.symbols, sym)


def test_encoding_is_deterministic(rng):
    sym = rng.integers(0, 50, size=2000)
    a = arith_encode(SymbolStream(sym, 50))
    b = arith_encode(SymbolStream(sym.copy(), 50))
    assert a == b


def _empirical_entropy_bits(symbols):
    n = len(symbols)
    counts = collections.Counter(symbols.tolist())
    return -sum(c / n * math.log2(c / n) for c in counts.values()) * n


@pytest.mark.parametrize(
    "bound,skew",
    [(2, [0.9, 0.1]), (17, None), (256, None)],
)
def test_size_tracks_empirical_entropy(bound, skew, rng):
    n = 100_000
    if skew:
        symbols = rng.choice(bound, size=n, p=skew).astype(np.int64)
    else:
        symbols = rng.integers(0, bound, size=n)
    blob = arith_encode(SymbolStream(symbols, bound))
    bound_bytes = _empirical_entropy_bits(symbols) / 8
    assert len(blob) <= bound_bytes * 1.05 + 64
    assert np.array_equal(arith_decode(blob, n, bound).symbols, symbols)


# --- bit-length buckets, rANS lanes and bypass bits -----------------------

WIDE = 1 << 16
BOUNDS = [1, 2, 17, 256, WIDE, WIDE + 1, 1 << 32, 1 << 63]


def _edge_symbols(bound):
    """0, 1, 2^j - 1 and 2^j for every bit length, and bound - 1."""
    vals = {0, 1, bound - 1}
    for j in range(1, (bound - 1).bit_length() + 1):
        vals |= {(1 << j) - 1, 1 << j}
    return np.array(sorted(v for v in vals if v < bound), dtype=np.int64)


@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 301, 1000, 2049])
@pytest.mark.parametrize("bound", BOUNDS)
def test_roundtrip_every_bit_length_and_partial_lane_step(bound, n, rng):
    # up to 128 symbols take one lane; 301 symbols take 3 lanes and 2049
    # take 16, both with a partial last step; 1000 fill 125 steps of 8
    assert [entropy.lane_count(m) for m in (1, 128, 129, 301, 1000, 2049)] == [
        1, 1, 2, 3, 8, 16]
    edges = _edge_symbols(bound)
    assert edges[-1] == bound - 1
    for symbols in (np.resize(edges, n), np.resize(edges[::-1], n),
                    rng.permutation(np.resize(edges, n)),
                    rng.integers(0, bound, size=n, dtype=np.int64)):
        blob = roundtrip(symbols, bound)
        assert oracles.rans_reference_decode(blob, n, bound) == symbols.tolist()


@pytest.mark.parametrize("bound", [WIDE + 1, 1 << 32, 1 << 63])
def test_wide_bounds_roundtrip_every_bit_length(bound, rng):
    edges = _edge_symbols(bound)
    assert edges[-1] == bound - 1
    roundtrip(edges, bound)
    roundtrip(edges[::-1], bound)
    roundtrip(np.repeat(edges, 3), bound)
    roundtrip(rng.integers(0, bound, size=500, dtype=np.int64), bound)


@given(
    st.integers(min_value=WIDE + 1, max_value=1 << 63).flatmap(
        lambda bound: st.tuples(
            st.just(bound),
            st.lists(
                st.one_of(
                    st.integers(0, bound - 1),
                    st.integers(0, 64).map(lambda j: min((1 << j) - 1, bound - 1)),
                ),
                max_size=200,
            ),
        )
    )
)
@settings(max_examples=80)
def test_wide_roundtrip_property(case):
    bound, symbols = case
    roundtrip(symbols, bound)


@given(
    st.integers(min_value=1, max_value=1 << 63).flatmap(
        lambda bound: st.tuples(
            st.just(bound),
            st.lists(
                st.one_of(
                    st.integers(0, bound - 1),
                    st.integers(0, 64).map(lambda j: min(1 << j, bound - 1)),
                ),
                max_size=70,
            ),
        )
    )
)
@settings(max_examples=100)
def test_roundtrip_property_any_bound_matches_the_reference(case):
    bound, symbols = case
    blob = roundtrip(symbols, bound)
    assert oracles.rans_reference_decode(blob, len(symbols), bound) == symbols


def test_positional_calls_as_the_benchmark_records_them(rng):
    # perfbench wraps both functions and reads args[0].symbols, len(result)
    # and args[1] from the calls the container makes
    stream = SymbolStream(rng.integers(0, 300, size=40), 300)
    blob = arith_encode(stream)
    args = (blob, 40, 300)
    assert isinstance(blob, bytes)
    assert np.array_equal(arith_decode(*args).symbols, stream.symbols)


def _bucket_symbols(symbols):
    """Bucket symbol 2 b + c of each value, and its count of bypass bits."""
    out = []
    for v in np.asarray(symbols).tolist():
        b = v.bit_length()
        out.append((2 * b + ((v >> (b - 2)) & 1 if b >= 2 else 0), max(b - 2, 0)))
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def _rate_bound(blob, symbols, bound):
    """1.05 x (order-0 entropy of the buckets + bypass bits) / 8, plus the
    table and 4 bytes per lane."""
    buckets = _bucket_symbols(symbols)
    table = entropy._unpack_table(blob, 2 * (bound - 1).bit_length() + 2)[1]
    bits = _empirical_entropy_bits(buckets[:, 0]) + float(buckets[:, 1].sum())
    return 1.05 * bits / 8 + table + 4 * entropy.lane_count(len(symbols))


@pytest.mark.parametrize("kind", ["levels", "uniform", "zeros"])
def test_wide_size_tracks_bucket_entropy_plus_bypass_bits(kind, rng):
    n, bound = 20_000, 1 << 30
    if kind == "levels":      # near-lossless coefficient levels
        symbols = np.minimum(rng.lognormal(14, 2.5, size=n), bound - 1)
        symbols = symbols.astype(np.int64)
    elif kind == "uniform":
        symbols = rng.integers(0, bound, size=n)
    else:
        symbols = np.zeros(n, dtype=np.int64)
    blob = roundtrip(symbols, bound)
    assert len(blob) <= _rate_bound(blob, symbols, bound)


@pytest.mark.parametrize("bound", [2, 17, 256, 4097])
def test_size_tracks_bucket_entropy_plus_bypass_bits(bound, rng):
    # geometric values, like index gaps and coarse coefficient levels
    symbols = np.minimum(rng.geometric(min(8 / bound, 0.5), size=5000) - 1,
                         bound - 1)
    blob = roundtrip(symbols, bound)
    assert len(blob) <= _rate_bound(blob, symbols, bound)


def _one_value_per_bucket():
    """A value for each of the 126 bucket symbols of 63-bit values."""
    vals = [0, 1]
    for b in range(2, 64):
        vals += [1 << (b - 1), (1 << (b - 1)) | (1 << (b - 2))]
    return np.array(vals, dtype=np.int64)


@pytest.mark.parametrize("buckets", [2, 14, 40, 126])
def test_flat_bucket_counts_keep_every_frequency_positive(buckets, rng):
    # a flat distribution is where rounding the shares to nearest can
    # leave the largest symbol nothing
    vals = _one_value_per_bucket()[:buckets]
    for symbols in (np.repeat(vals, 7), np.concatenate([vals, np.full(500, vals[-1])])):
        blob = roundtrip(rng.permutation(symbols), 1 << 63)
        freq, _ = entropy._unpack_table(blob, 128)
        assert freq.sum() == 4096 and np.count_nonzero(freq) == buckets


def test_table_rounds_shares_to_three_significant_bits(rng):
    # 4096 values: 3000 zeros (bucket 0), 1000 ones (bucket 2) and 96 twos
    # (bucket 4).  The share 1000 rounds to nearest at 3 significant bits,
    # 1024 (down would be 896); 96 is exact; bucket 0 takes the rest.
    symbols = rng.permutation(np.repeat([0, 1, 2], [3000, 1000, 96]))
    blob = roundtrip(symbols, 3)
    freq, size = entropy._unpack_table(blob, 6)
    assert freq[[0, 2, 4]].tolist() == [4096 - 1024 - 96, 1024, 96]
    assert np.count_nonzero(freq) == 3 and size == 4   # 14 + 4 + 6 + 6 bits


@pytest.mark.parametrize(
    "encoded, decoded", [(1 << 40, WIDE + 1), (1 << 63, 1 << 20), (1 << 33, 1 << 32)]
)
def test_smaller_wide_bound_raises_or_stays_below_it(encoded, decoded, rng):
    symbols = rng.integers(0, encoded, size=300, dtype=np.int64)
    blob = arith_encode(SymbolStream(symbols, encoded))
    try:
        out = arith_decode(blob, len(symbols), decoded).symbols
    except EntropyDecodeError:
        return
    assert out.min() >= 0 and out.max() < decoded


def test_wide_decoder_rejects_a_symbol_at_or_above_the_bound():
    # 2^16 + 1 and 2^17 allow the same buckets (17-bit values), so the
    # 17-bit symbol decodes intact and only the bound check can reject it
    blob = arith_encode(SymbolStream(np.array([5, WIDE + 1]), 1 << 17))
    assert arith_decode(blob, 2, 1 << 17).symbols.tolist() == [5, WIDE + 1]
    with pytest.raises(EntropyDecodeError, match="out of range"):
        arith_decode(blob, 2, WIDE + 1)


# --- hostile payloads -------------------------------------------------------

def _table(lo, hi, fields):
    """A frequency table: ``fields`` holds (4-bit code, kept bits, width)."""
    bits = f"{lo:07b}{hi:07b}" + "".join(
        f"{code:04b}" + (f"{kept:0{width}b}" if width else "")
        for code, kept, width in fields
    )
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


_STILL = (1 << 16).to_bytes(4, "little")   # a lane state that never moves


@pytest.mark.parametrize(
    "table, message",
    [
        (_table(0, 0, [(15, 0, 0)]), None),                       # the valid one
        (_table(0, 2, [(15, 0, 0), (15, 0, 0)]), "sum to 2"),     # two remainders
        (_table(0, 2, [(15, 0, 0), (13, 0, 2)]), "sum to 2"),     # 4096 + remainder
        (_table(0, 2, [(0, 0, 0), (0, 0, 0)]), "sum to 2"),       # no remainder
        (_table(0, 2, [(15, 0, 0), (14, 0, 0)]), "bad frequency code"),
        (_table(0, 5, [(15, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0)]), "not within"),
        (_table(2, 0, []), "not within"),
        (_table(0, 0, [(15, 0, 0)])[:2] + b"\xc1", "padding"),      # c0 is valid
    ],
    ids=["valid", "two_remainders", "sum_at_scale", "no_remainder", "code_14",
         "bucket_above_bound", "lo_above_hi", "padding"],
)
def test_hostile_frequency_table_is_rejected(table, message):
    # bound 2 allows buckets 0 and 2 (values 0 and 1); 3 values of 0 take
    # one lane
    payload = table + _STILL
    if message is None:
        assert arith_decode(payload, 3, 2).symbols.tolist() == [0, 0, 0]
        return
    with pytest.raises(EntropyDecodeError, match=message):
        arith_decode(payload, 3, 2)
    with pytest.raises(ValueError):
        oracles.rans_reference_decode(payload, 3, 2)


def _coded(rng):
    """A payload with words and a bypass field that ends mid-byte."""
    symbols = rng.integers(0, 1 << 20, size=300)
    rest = sum(max(int(v).bit_length() - 2, 0) for v in symbols[1:])
    symbols[0] = 1 << 10 if (rest + 9) % 8 else 1 << 11   # 9 or 10 bypass bits
    return arith_encode(SymbolStream(symbols, 1 << 20)), symbols


def test_hostile_lane_states_are_rejected(rng):
    table = _table(0, 0, [(15, 0, 0)])   # 129 symbols take two lanes
    with pytest.raises(EntropyDecodeError, match="below 2"):
        arith_decode(table + _STILL + (0xFFFF).to_bytes(4, "little"), 129, 2)
    with pytest.raises(EntropyDecodeError, match="initial state"):
        arith_decode(table + ((1 << 16) + 1).to_bytes(4, "little") + _STILL, 129, 2)
    with pytest.raises(EntropyDecodeError, match="truncated lane states"):
        arith_decode(table + _STILL, 129, 2)
    assert arith_decode(table + _STILL * 2, 129, 2).symbols.tolist() == [0] * 129
    blob, _ = _coded(rng)
    table_bytes = entropy._unpack_table(blob, 42)[1]
    for lane in range(16):
        bad = bytearray(blob)
        bad[table_bytes + 4 * lane + 1] ^= 0x5A
        with pytest.raises(EntropyDecodeError):
            arith_decode(bytes(bad), 300, 1 << 20)


def test_payload_size_must_match_words_and_bypass_bits(rng):
    blob, symbols = _coded(rng)
    with pytest.raises(EntropyDecodeError, match="bypass bits"):
        arith_decode(blob + b"\x00", 300, 1 << 20)
    with pytest.raises(EntropyDecodeError):
        arith_decode(blob[:-1], 300, 1 << 20)
    with pytest.raises(EntropyDecodeError, match="empty stream"):
        arith_decode(b"\x00", 0, 5)
    with pytest.raises(EntropyDecodeError, match="truncated frequency table"):
        arith_decode(b"\x00", 5, 5)


def test_bypass_padding_bits_must_be_zero(rng):
    blob, symbols = _coded(rng)
    bad = bytearray(blob)
    bad[-1] |= 1
    with pytest.raises(EntropyDecodeError, match="padding"):
        arith_decode(bytes(bad), 300, 1 << 20)
    with pytest.raises(ValueError):
        oracles.rans_reference_decode(bytes(bad), 300, 1 << 20)


def test_every_word_and_state_byte_flip_is_caught_or_changes_the_output(rng):
    blob, symbols = _coded(rng)
    start = entropy._unpack_table(blob, 42)[1]
    bypass = -(-sum(max(int(v).bit_length() - 2, 0) for v in symbols) // 8)
    for pos in range(start, len(blob) - bypass):
        bad = bytearray(blob)
        bad[pos] ^= 0x10
        try:
            out = arith_decode(bytes(bad), 300, 1 << 20).symbols
        except EntropyDecodeError:
            continue
        assert not np.array_equal(out, symbols)
