import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcodec import EntropyDecodeError, SymbolStream, arith_decode, arith_encode


def roundtrip(symbols, bound):
    symbols = np.asarray(symbols, dtype=np.int64)
    blob = arith_encode(SymbolStream(symbols, bound))
    out = arith_decode(blob, len(symbols), bound)
    assert np.array_equal(out.symbols, symbols)
    assert out.alphabet_bound == bound
    return blob


def test_empty_stream_is_header_only():
    blob = roundtrip([], 5)
    assert len(blob) == 5   # flush bytes only; regression value


def test_identical_symbols_compress_hard():
    blob = roundtrip(np.full(1000, 3), 17)
    assert len(blob) < 1000
    assert len(blob) == 19   # regression value for the adaptive model


def test_single_symbol_alphabet_needs_no_payload_bits():
    blob = roundtrip(np.zeros(5000, dtype=np.int64), 1)
    assert len(blob) == 5


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


def test_corruption_is_detected_or_changes_output(rng):
    # trailing flush bytes may be redundant padding; the container CRC is
    # the authoritative guard there, so flip information-carrying bytes
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


def _loop_built_tree(counts):
    """Fenwick tree built one symbol at a time, as the model once did."""
    size = len(counts)
    tree = [0] * (size + 1)
    for i, c in enumerate(counts):
        tree[i + 1] += c
        parent = (i + 1) + ((i + 1) & -(i + 1))
        if parent <= size:
            tree[parent] += tree[i + 1]
    return tree


@pytest.mark.parametrize("size", [1, 2, 7, 1000, 65536])
def test_fenwick_tree_matches_the_per_symbol_build(size, rng):
    from tdcodec.entropy import _AdaptiveModel

    model = _AdaptiveModel(size)
    assert model.tree == _loop_built_tree(model.counts)
    # skewed symbols leave uneven counts, so the halvings round some odd
    # counts up; two limits' worth of updates force at least two halvings
    symbols = rng.geometric(0.01, size=2 * model.limit) % size
    expected, total = [1] * size, size
    halvings = 0
    for s in symbols.tolist():
        model.update(s)
        expected[s] += 1
        total += 1
        if total > model.limit:
            expected = [(c + 1) >> 1 for c in expected]
            total = sum(expected)
            halvings += 1
            assert model.counts == expected
            assert model.total == sum(expected)
            assert model.tree == _loop_built_tree(expected)
    assert halvings >= 2
    assert model.counts == expected
    assert model.tree == _loop_built_tree(expected)


# --- wide alphabets: bit-length bucket plus bypass bits --------------------

WIDE = 1 << 16


def _edge_symbols(bound):
    """0, 1, 2^j - 1 and 2^j for every bit length, and bound - 1."""
    vals = {0, 1, bound - 1}
    for j in range(1, (bound - 1).bit_length() + 1):
        vals |= {(1 << j) - 1, 1 << j}
    return np.array(sorted(v for v in vals if v < bound), dtype=np.int64)


def test_bound_two_to_the_16_keeps_the_adaptive_model_bytes():
    # regression byte lengths of the single adaptive model, unchanged by
    # the wide-alphabet coding that starts one symbol above this bound
    assert len(roundtrip(_edge_symbols(WIDE), WIDE)) == 69
    rng = np.random.default_rng(5)
    assert len(roundtrip(rng.integers(0, WIDE, size=3000), WIDE)) == 6009
    rng = np.random.default_rng(5)
    assert len(roundtrip(rng.geometric(0.001, size=3000) - 1, WIDE)) == 5795


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


def _bucket_bypass_bits(symbols):
    """Order-0 entropy of the bit lengths plus the bits below each leading one."""
    lengths = np.array([int(v).bit_length() for v in symbols])
    return _empirical_entropy_bits(lengths) + float(np.maximum(lengths - 1, 0).sum())


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
    assert len(blob) <= 1.05 * _bucket_bypass_bits(symbols) / 8 + 64


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
    # 2^16 + 1 and 2^17 share the 18-symbol bit-length model, so the
    # 17-bit symbol decodes intact and only the bound check can reject it
    blob = arith_encode(SymbolStream(np.array([5, WIDE + 1]), 1 << 17))
    assert arith_decode(blob, 2, 1 << 17).symbols.tolist() == [5, WIDE + 1]
    with pytest.raises(EntropyDecodeError, match="out of range"):
        arith_decode(blob, 2, WIDE + 1)
