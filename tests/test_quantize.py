import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tdcodec import AtomTable
from tdcodec.quantize import (
    QuantizedBlockSet,
    StreamError,
    parse_streams,
    quantize_levels,
    serialize_decompositions,
)

from conftest import atom_table
from oracles import parse_streams_loop


def dec(indices, coefficients):
    """One block's ``(indices, coefficients)``, as ``atom_table`` takes them."""
    return np.asarray(indices, dtype=np.int64), np.asarray(coefficients, dtype=float)


def serialize(blocks, delta):
    return serialize_decompositions(atom_table(blocks), delta)


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


@pytest.mark.parametrize(
    "coef, delta, top",
    [([[0.3, -0.2]], 1e-300, "3e+299"), ([[1e300, 1.0]], 1e-300, "inf"),
     ([2.0**63], 1.0, "9.22337e+18"), ([1.0, np.nan], 1.0, "nan")],
    ids=["tiny_delta", "infinite_quotient", "level_2_to_the_63", "nan"],
)
def test_quantize_refuses_a_delta_too_small_for_int64_levels(coef, delta, top):
    # the int64 cast used to wrap such a level to -2**63, with a warning
    with pytest.raises(ValueError, match=rf"delta {delta!r} .* / delta is {re.escape(top)}$"):
        quantize_levels(coef, delta)


def test_quantize_keeps_the_largest_int64_levels():
    top = 2.0**63 - 1024    # the largest float below 2**63
    assert quantize_levels([top, -top], 1.0).tolist() == [2**63 - 1024, 1024 - 2**63]


@given(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
)
def test_quantization_error_within_half_step(c, delta):
    err = abs(delta * quantize_levels(c, delta) - c)
    assert err <= delta / 2 * (1 + 1e-12)


def test_index_segment_is_leading_value_plus_differences():
    qs = serialize([dec([5, 2, 9], np.ones((3, 1)))], 1.0)
    assert qs.index_stream.tolist() == [2, 3, 4]


def test_blocks_are_separated_by_zero():
    blocks = [dec([1], [[1.0]]), dec([3, 4], [[1.0], [1.0]])]
    qs = serialize(blocks, 1.0)
    assert qs.index_stream.tolist() == [1, 0, 3, 1]


def test_sorting_reorders_coefficients_and_signs_in_lockstep():
    d = dec([9, 2, 5], [[-1.2, 0.4], [2.2, -0.6], [0.0, 3.0]])
    qs = serialize([d], 0.5)
    # ascending index order is 2, 5, 9
    assert qs.levels.tolist() == [[4, -1], [0, 6], [-2, 1]]
    assert qs.levels.dtype == np.int64


def test_zero_quantized_coefficient_keeps_slot_with_positive_sign():
    d = dec([4], [[-0.2]])   # |c|/delta + 0.5 = 0.7 -> level 0
    qs = serialize([d], 1.0)
    assert qs.levels.tolist() == [[0]]
    assert not np.signbit(qs.levels).any()


def test_duplicate_index_rejected():
    with pytest.raises(ValueError):
        serialize([dec([3, 3], np.ones((2, 1)))], 1.0)


def test_each_refusal_names_the_lowest_block_at_fault():
    ok = dec([4, 2], np.ones((2, 1)))
    empty = dec([], np.zeros((0, 1)))
    cases = [
        ([ok, empty, dec([3, 0], np.ones((2, 1))), dec([-1], np.ones((1, 1)))],
         "block 2: atom indices must be >= 1"),
        ([ok, empty, ok, dec([7, 1, 7], np.ones((3, 1))), dec([2, 2], np.ones((2, 1)))],
         "block 3: duplicate atom index"),
    ]
    for blocks, message in cases:
        with pytest.raises(ValueError, match=message):
            serialize(blocks, 1.0)


def test_a_table_of_no_blocks_is_refused():
    with pytest.raises(ValueError, match="at least one block"):
        serialize_decompositions(AtomTable([], [], np.zeros((0, 2))), 1.0)


def test_parse_rebuilds_indices_by_cumulative_sum():
    qs = QuantizedBlockSet(
        delta=1.0, index_stream=np.array([2, 3, 4]), levels=np.array([[1], [-2], [3]])
    )
    [(idx, values)] = parse_streams(qs)
    assert idx.tolist() == [2, 5, 9]
    assert values[:, 0].tolist() == [1, -2, 3]


def test_empty_block_segment_parses_to_no_atoms():
    qs = QuantizedBlockSet(delta=1.0, index_stream=np.array([0, 5]),
                           levels=np.array([[7]]))
    assert qs.block_count == 2 and len(qs.levels) == 1
    table = parse_streams(qs)
    assert table.counts.tolist() == [0, 1]
    assert [idx.tolist() for idx, _ in table] == [[], [5]]


@pytest.mark.parametrize(
    "levels",
    [np.array([[1]]), np.array([[1], [2], [3]]), np.array([1, 2]), np.array(1)],
    ids=["too_few_rows", "too_many_rows", "one_dimensional", "scalar"],
)
def test_parse_rejects_stream_length_mismatch(levels):
    qs = QuantizedBlockSet(delta=1.0, index_stream=np.array([1, 0, 2]), levels=levels)
    with pytest.raises(StreamError, match="one row to each of the 2 atoms"):
        parse_streams(qs)


def test_parse_rejects_negative_index_symbols_with_position():
    qs = QuantizedBlockSet(delta=1.0, index_stream=np.array([1, 0, -2]),
                           levels=np.array([[1], [2]]))
    with pytest.raises(StreamError) as err:
        parse_streams(qs)
    assert err.value.position == 2


def test_parse_rejects_nonpositive_delta():
    qs = QuantizedBlockSet(delta=0.0, index_stream=np.array([1]), levels=np.array([[1]]))
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
    qs = serialize(blocks, delta)
    assert int(np.count_nonzero(qs.index_stream == 0)) == len(blocks) - 1
    parsed = list(parse_streams(qs))
    assert len(parsed) == len(blocks)
    for (idx, values), (indices, coefficients) in zip(parsed, blocks):
        order = np.argsort(indices, kind="stable")
        assert np.array_equal(idx, indices[order])
        sorted_coef = coefficients[order]
        mags = np.floor(np.abs(sorted_coef) / delta + 0.5).astype(np.int64)
        signs = np.where((sorted_coef < 0) & (mags > 0), -1, 1)
        assert np.array_equal(values, signs * mags)
        # strictly ascending segments guarantee separators are unambiguous
        assert np.all(np.diff(idx) >= 1)


def _assert_same_parse(got, want):
    got = list(got)
    assert len(got) == len(want)
    for (gi, gv), (wi, wv) in zip(got, want):
        assert gi.dtype == wi.dtype and np.array_equal(gi, wi)
        assert gv.dtype == wv.dtype and np.array_equal(gv, wv)


@given(decomposition_sets())
def test_parse_matches_the_symbol_loop(setup):
    blocks, delta = setup
    qs = serialize(blocks, delta)
    _assert_same_parse(parse_streams(qs), parse_streams_loop(qs))


def test_parse_matches_the_symbol_loop_around_empty_blocks():
    # empty first, middle and last blocks, two channels
    qs = QuantizedBlockSet(
        delta=1.0,
        index_stream=np.array([0, 4, 1, 7, 0, 0, 2, 0]),
        levels=np.array([[1, 0], [-2, 5], [3, 6], [-4, -7]]),
    )
    assert qs.block_count == 5 and qs.levels.shape[1] == 2
    got = parse_streams(qs)
    _assert_same_parse(got, parse_streams_loop(qs))
    assert [idx.tolist() for idx, _ in got] == [[], [4, 5, 12], [], [2], []]


def test_quantization_distortion_obeys_gram_bound(rng):
    from tdcodec import TrigDictionary
    from tdcodec.dictionary import synthesize_block

    d = TrigDictionary(16, 32)
    indices = [2, 9, 33, 40]
    coef = rng.normal(size=(4, 2)) * 3
    delta = 0.25
    qs = serialize([dec(indices, coef)], delta)
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
