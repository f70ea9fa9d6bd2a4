import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tdcodec import (
    AtomicDecomposition,
    StreamError,
    parse_streams,
    serialize_decompositions,
)
from tdcodec.quantize import QuantizedBlockSet, quantize_levels

from oracles import parse_streams_loop


def dec(indices, coefficients):
    return AtomicDecomposition(
        indices=np.asarray(indices, dtype=np.int64),
        coefficients=np.asarray(coefficients, dtype=float),
    )


def test_quantize_examples():
    assert quantize_levels(3.7, 1.0) == 4
    assert quantize_levels(0.49, 1.0) == 0
    assert quantize_levels(-2.3, 0.5) == -5
    assert quantize_levels([3.7, 0.49, -2.3], 1.0).tolist() == [4, 0, -2]


def test_dequantize_examples():
    # the decoder reconstructs delta * level
    assert 1.0 * quantize_levels(4.0, 1.0) == 4.0
    assert 0.25 * quantize_levels(0.1, 0.25) == 0.0
    assert (0.5 * quantize_levels([[-2.3, 1.1]], 0.5)).tolist() == [[-2.5, 1.0]]


def test_quantize_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        quantize_levels(1.0, 0.0)
    with pytest.raises(ValueError):
        quantize_levels([1.0], -1.0)


@given(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
)
def test_quantization_error_within_half_step(c, delta):
    err = abs(delta * quantize_levels(c, delta) - c)
    assert err <= delta / 2 * (1 + 1e-12)


def test_index_segment_is_leading_value_plus_differences():
    qs = serialize_decompositions([dec([5, 2, 9], np.ones((3, 1)))], 1.0)
    assert qs.index_stream.tolist() == [2, 3, 4]


def test_blocks_are_separated_by_zero():
    blocks = [dec([1], [[1.0]]), dec([3, 4], [[1.0], [1.0]])]
    qs = serialize_decompositions(blocks, 1.0)
    assert qs.index_stream.tolist() == [1, 0, 3, 1]


def test_sorting_reorders_coefficients_and_signs_in_lockstep():
    d = dec([9, 2, 5], [[-1.2, 0.4], [2.2, -0.6], [0.0, 3.0]])
    qs = serialize_decompositions([d], 0.5)
    # ascending index order is 2, 5, 9
    assert qs.coeff_streams[0].tolist() == [4, 0, 2]
    assert qs.coeff_streams[1].tolist() == [1, 6, 1]
    assert qs.sign_streams[0].tolist() == [0, 0, 1]
    assert qs.sign_streams[1].tolist() == [1, 0, 0]


def test_zero_quantized_coefficient_keeps_slot_with_positive_sign():
    d = dec([4], [[-0.2]])   # |c|/delta + 0.5 = 0.7 -> level 0
    qs = serialize_decompositions([d], 1.0)
    assert qs.coeff_streams[0].tolist() == [0]
    assert qs.sign_streams[0].tolist() == [0]


def test_duplicate_index_rejected():
    with pytest.raises(ValueError):
        serialize_decompositions([dec([3, 3], np.ones((2, 1)))], 1.0)


def test_parse_rebuilds_indices_by_cumulative_sum():
    qs = QuantizedBlockSet(
        delta=1.0,
        index_stream=np.array([2, 3, 4]),
        coeff_streams=[np.array([1, 2, 3])],
        sign_streams=[np.array([0, 1, 0], dtype=np.uint8)],
        block_count=1,
        channel_count=1,
    )
    [(idx, values)] = parse_streams(qs)
    assert idx.tolist() == [2, 5, 9]
    assert values[:, 0].tolist() == [1, -2, 3]


def test_empty_block_segment_parses_to_no_atoms():
    qs = QuantizedBlockSet(
        delta=1.0,
        index_stream=np.array([0, 5]),
        coeff_streams=[np.array([7])],
        sign_streams=[np.array([0], dtype=np.uint8)],
        block_count=2,
        channel_count=1,
    )
    blocks = parse_streams(qs)
    assert blocks[0][0].size == 0
    assert blocks[1][0].tolist() == [5]


def test_parse_reports_separator_count_mismatch_with_position():
    qs = QuantizedBlockSet(
        delta=1.0,
        index_stream=np.array([1, 0, 2]),
        coeff_streams=[np.array([1, 1])],
        sign_streams=[np.array([0, 0], dtype=np.uint8)],
        block_count=3,
        channel_count=1,
    )
    with pytest.raises(StreamError) as err:
        parse_streams(qs)
    assert err.value.position is not None


def test_parse_rejects_stream_length_mismatch():
    qs = QuantizedBlockSet(
        delta=1.0,
        index_stream=np.array([1, 2]),
        coeff_streams=[np.array([1])],
        sign_streams=[np.array([0], dtype=np.uint8)],
        block_count=1,
        channel_count=1,
    )
    with pytest.raises(StreamError):
        parse_streams(qs)


def test_parse_rejects_bad_sign_symbols():
    qs = QuantizedBlockSet(
        delta=1.0,
        index_stream=np.array([1]),
        coeff_streams=[np.array([1])],
        sign_streams=[np.array([2], dtype=np.uint8)],
        block_count=1,
        channel_count=1,
    )
    with pytest.raises(StreamError):
        parse_streams(qs)


def test_parse_rejects_nonpositive_delta():
    qs = QuantizedBlockSet(
        delta=0.0,
        index_stream=np.array([1]),
        coeff_streams=[np.array([1])],
        sign_streams=[np.array([0], dtype=np.uint8)],
        block_count=1,
        channel_count=1,
    )
    with pytest.raises(StreamError):
        parse_streams(qs)


@st.composite
def decomposition_sets(draw):
    n_blocks = draw(st.integers(1, 5))
    channels = draw(st.integers(1, 3))
    max_index = 40
    blocks = []
    for _ in range(n_blocks):
        k = draw(st.integers(0, 6))
        indices = draw(
            st.lists(
                st.integers(1, max_index), min_size=k, max_size=k, unique=True
            )
        )
        coef = draw(
            st.lists(
                st.lists(
                    st.floats(-50, 50, allow_nan=False, width=32),
                    min_size=channels,
                    max_size=channels,
                ),
                min_size=k,
                max_size=k,
            )
        )
        blocks.append(dec(indices, np.asarray(coef, float).reshape(k, channels)))
    delta = draw(st.floats(min_value=1e-3, max_value=10.0, allow_nan=False))
    return blocks, delta


@given(decomposition_sets())
def test_serialize_parse_round_trip(setup):
    blocks, delta = setup
    qs = serialize_decompositions(blocks, delta)
    assert int(np.count_nonzero(qs.index_stream == 0)) == len(blocks) - 1
    parsed = parse_streams(qs)
    assert len(parsed) == len(blocks)
    for (idx, values), d in zip(parsed, blocks):
        order = np.argsort(d.indices, kind="stable")
        assert np.array_equal(idx, d.indices[order])
        sorted_coef = d.coefficients[order]
        mags = np.floor(np.abs(sorted_coef) / delta + 0.5).astype(np.int64)
        signs = np.where((sorted_coef < 0) & (mags > 0), -1, 1)
        assert np.array_equal(values, signs * mags)
        # strictly ascending segments guarantee separators are unambiguous
        assert np.all(np.diff(idx) >= 1)


def _assert_same_parse(got, want):
    assert len(got) == len(want)
    for (gi, gv), (wi, wv) in zip(got, want):
        assert gi.dtype == wi.dtype and np.array_equal(gi, wi)
        assert gv.dtype == wv.dtype and np.array_equal(gv, wv)


@given(decomposition_sets())
def test_parse_matches_the_symbol_loop(setup):
    blocks, delta = setup
    qs = serialize_decompositions(blocks, delta)
    _assert_same_parse(parse_streams(qs), parse_streams_loop(qs))


def test_parse_matches_the_symbol_loop_around_empty_blocks():
    # empty first, middle and last blocks, two channels
    qs = QuantizedBlockSet(
        delta=1.0,
        index_stream=np.array([0, 4, 1, 7, 0, 0, 2, 0]),
        coeff_streams=[np.array([1, 2, 3, 4]), np.array([0, 5, 6, 7])],
        sign_streams=[np.array([0, 1, 0, 1], dtype=np.uint8),
                      np.array([1, 0, 0, 1], dtype=np.uint8)],
        block_count=5,
        channel_count=2,
    )
    got = parse_streams(qs)
    _assert_same_parse(got, parse_streams_loop(qs))
    assert [idx.tolist() for idx, _ in got] == [[], [4, 5, 12], [], [2], []]


def test_quantization_distortion_obeys_gram_bound(rng):
    from tdcodec import TrigDictionary, synthesize_block

    d = TrigDictionary(16, 32)
    indices = [2, 9, 33, 40]
    coef = rng.normal(size=(4, 2)) * 3
    delta = 0.25
    qs = serialize_decompositions([dec(indices, coef)], delta)
    [(idx, values)] = parse_streams(qs)
    recovered = delta * values.astype(float)
    order = np.argsort(np.asarray(indices))
    err = recovered - coef[order]
    assert np.abs(err).max() <= delta / 2 + 1e-12
    atoms = d.atoms_matrix(idx)
    gram = atoms @ atoms.T
    lam_max = np.linalg.eigvalsh(gram).max()
    exact = synthesize_block(d, idx, coef[order])
    quant = synthesize_block(d, idx, recovered)
    realized = np.sum((exact - quant) ** 2)
    assert realized <= lam_max * np.sum(err**2) + 1e-12
