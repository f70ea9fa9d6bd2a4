import struct
import zlib

import numpy as np
import pytest

from tdcodec import (
    AtomicDecomposition,
    BadMagicError,
    ChecksumError,
    FormatError,
    MultichannelSignal,
    TrigDictionary,
    UnsupportedVersionError,
    assemble,
    hbw_pursuit,
    parse_streams,
    partition,
    read_tdc,
    read_wav,
    serialize_decompositions,
    synthesize_block,
    write_tdc,
    write_wav,
)
from tdcodec.cli import main
from tdcodec.container import _CRC, _FIXED, _RECORD
from tdcodec.quantize import QuantizedBlockSet


def make_qset(rng, blocks=3, channels=2, atoms_per_block=4, max_index=64):
    decs = []
    for _ in range(blocks):
        idx = rng.choice(np.arange(1, max_index + 1), size=atoms_per_block,
                         replace=False)
        coef = rng.normal(size=(atoms_per_block, channels)) * 4
        decs.append(AtomicDecomposition(idx.astype(np.int64), coef))
    return serialize_decompositions(decs, 0.125)


# --- WAV -------------------------------------------------------------------

def test_wav_16bit_roundtrip_is_bit_identical(tmp_path, rng):
    pcm = rng.integers(-32768, 32768, size=(500, 2)).astype(np.int64)
    sig = MultichannelSignal(pcm / 32768.0, 8000)
    a = tmp_path / "a.wav"
    b = tmp_path / "b.wav"
    write_wav(a, sig)
    write_wav(b, read_wav(a))
    assert a.read_bytes() == b.read_bytes()


def test_wav_fullscale_negative_maps_to_minus_one(tmp_path):
    sig = MultichannelSignal(np.array([[-1.0], [1.0]]), 44100)
    path = tmp_path / "x.wav"
    write_wav(path, sig)
    back = read_wav(path)
    assert back.samples[0, 0] == -1.0
    # +1.0 clips to the 16-bit ceiling
    assert back.samples[1, 0] == pytest.approx(32767 / 32768)


@pytest.mark.parametrize("channels", [1, 2])
def test_one_second_fixture_has_sample_rate_samples(tmp_path, rng, channels):
    sig = MultichannelSignal(rng.uniform(-0.5, 0.5, size=(44100, channels)), 44100)
    path = tmp_path / "s.wav"
    write_wav(path, sig)
    back = read_wav(path)
    assert back.sample_count == 44100
    assert back.channel_count == channels
    assert back.sample_rate == 44100


def test_float32_wav_is_readable(tmp_path, rng):
    samples = rng.uniform(-1, 1, size=(64, 2)).astype("<f4")
    body = samples.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 3, 2, 22050, 22050 * 8, 8, 32)
    header += b"data" + struct.pack("<I", len(body))
    path = tmp_path / "f.wav"
    path.write_bytes(header + body)
    sig = read_wav(path)
    assert sig.sample_rate == 22050
    assert sig.samples == pytest.approx(samples.astype(float))


def test_unsupported_wav_is_rejected(tmp_path):
    header = b"RIFF" + struct.pack("<I", 36) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 8000, 1, 8)
    header += b"data" + struct.pack("<I", 0)
    path = tmp_path / "bad.wav"
    path.write_bytes(header)
    with pytest.raises(FormatError):
        read_wav(path)


def test_non_riff_is_rejected(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"not a wav at all")
    with pytest.raises(FormatError):
        read_wav(path)


# --- partitioning ----------------------------------------------------------

def test_partition_exact_multiple():
    sig = MultichannelSignal(np.ones((2048, 2)), 44100)
    parted = partition(sig, 1024)
    assert parted.block_count == 2
    assert parted.pad_length == 0


def test_partition_pads_final_block_and_reassembles(rng):
    samples = rng.normal(size=(1000, 2))
    parted = partition(MultichannelSignal(samples, 44100), 1024)
    assert parted.block_count == 1
    assert parted.pad_length == 24
    assert np.array_equal(assemble(parted), samples)


def test_partition_preserves_total_energy(rng):
    samples = rng.normal(size=(3000, 2))
    parted = partition(MultichannelSignal(samples, 44100), 256)
    total = sum(float(np.sum(b * b)) for b in parted.blocks)
    assert total == pytest.approx(float(np.sum(samples * samples)), rel=1e-9)


def test_partition_rejects_empty_signal():
    with pytest.raises(ValueError):
        partition(MultichannelSignal(np.empty((0, 2)), 44100), 64)


# --- .tdc ------------------------------------------------------------------

def test_tdc_roundtrip_recovers_everything(rng):
    qset = make_qset(rng)
    blob = write_tdc(
        qset, sample_rate=44100, original_length=40, block_size=16, half_size=32
    )
    header, back = read_tdc(blob)
    assert header.sample_rate == 44100
    assert header.block_count == qset.block_count
    assert header.total_atoms == qset.total_atoms
    assert header.delta == qset.delta
    assert np.array_equal(back.index_stream, qset.index_stream)
    for a, b in zip(back.coeff_streams, qset.coeff_streams):
        assert np.array_equal(a, b)
    for a, b in zip(back.sign_streams, qset.sign_streams):
        assert np.array_equal(a, b)


def test_tdc_bytes_are_deterministic(rng):
    qset = make_qset(rng)
    kw = dict(sample_rate=44100, original_length=40, block_size=16, half_size=32)
    assert write_tdc(qset, **kw) == write_tdc(qset, **kw)


def test_bad_magic_reported(rng):
    blob = bytearray(
        write_tdc(make_qset(rng), sample_rate=8000, original_length=33,
                  block_size=16, half_size=32)
    )
    blob[0] = ord("X")
    with pytest.raises(BadMagicError):
        read_tdc(bytes(blob))


def test_unknown_version_reported(rng):
    blob = bytearray(
        write_tdc(make_qset(rng), sample_rate=8000, original_length=33,
                  block_size=16, half_size=32)
    )
    blob[4] = 9
    with pytest.raises(UnsupportedVersionError):
        read_tdc(bytes(blob))


def test_header_and_payload_checksum_mismatches_are_distinct(rng):
    blob = write_tdc(make_qset(rng), sample_rate=8000, original_length=33,
                     block_size=16, half_size=32)
    header_len = len(blob) - sum(
        r.byte_length for r in read_tdc(blob)[0].stream_records
    )
    corrupt_header = bytearray(blob)
    corrupt_header[6] ^= 0xFF   # sample_rate byte: structure-preserving flip
    with pytest.raises(ChecksumError) as err:
        read_tdc(bytes(corrupt_header))
    assert err.value.kind == "header"

    corrupt_payload = bytearray(blob)
    corrupt_payload[header_len + 2] ^= 0xFF
    with pytest.raises(ChecksumError) as err:
        read_tdc(bytes(corrupt_payload))
    assert err.value.kind == "payload"


def test_every_payload_bitflip_is_caught(rng):
    blob = write_tdc(make_qset(rng), sample_rate=8000, original_length=33,
                     block_size=16, half_size=32)
    header_len = len(blob) - sum(
        r.byte_length for r in read_tdc(blob)[0].stream_records
    )
    for pos in range(header_len, len(blob)):
        bad = bytearray(blob)
        bad[pos] ^= 0x10
        with pytest.raises(ChecksumError):
            read_tdc(bytes(bad))


def test_truncation_never_returns_partial_decode(rng):
    blob = write_tdc(make_qset(rng), sample_rate=8000, original_length=33,
                     block_size=16, half_size=32)
    for cut in (2, 20, 60, len(blob) - 3):
        with pytest.raises((FormatError, ChecksumError)):
            read_tdc(blob[:cut])


def test_geometry_mismatch_rejected(rng):
    qset = make_qset(rng, blocks=3)
    with pytest.raises(FormatError):
        write_tdc(qset, sample_rate=8000, original_length=200,
                  block_size=16, half_size=32)   # needs Q=13, not 3


def _reseal(blob: bytearray) -> bytes:
    """Recompute the payload and header CRCs after editing header fields."""
    channels = struct.unpack_from("<H", blob, 10)[0]
    pos = _FIXED.size + (1 + 2 * channels) * _RECORD.size
    _CRC.pack_into(blob, pos, zlib.crc32(blob[pos + 2 * _CRC.size :]))
    _CRC.pack_into(blob, pos + _CRC.size, zlib.crc32(blob[: pos + _CRC.size]))
    return bytes(blob)


def test_hostile_index_symbol_count_is_rejected_before_decoding(tmp_path, rng):
    blob = bytearray(
        write_tdc(make_qset(rng), sample_rate=8000, original_length=33,
                  block_size=16, half_size=32)
    )
    # the index stream's record follows the fixed header: bound, count, bytes
    struct.pack_into("<Q", blob, _FIXED.size + 8, 1 << 40)
    bad = _reseal(blob)
    with pytest.raises(FormatError, match="index stream symbol count"):
        read_tdc(bad)
    path = tmp_path / "hostile.tdc"
    path.write_bytes(bad)
    assert main(["decode", "--in", str(path), "--out", str(tmp_path / "x.wav")]) == 3
    assert main(["info", str(path)]) == 3


def test_output_longer_than_any_wav_is_rejected_before_decoding(tmp_path, rng):
    blob = bytearray(
        write_tdc(make_qset(rng), sample_rate=8000, original_length=33,
                  block_size=16, half_size=32)
    )
    # Q = 2^30 blocks of 16 samples, every symbol count consistent with
    # K = 16 Q atoms: only the 2^34-sample output gives the header away
    q = 1 << 30
    k = 16 * q
    struct.pack_into("<Q", blob, 12, 16 * q)          # original_length
    struct.pack_into("<I", blob, 28, q)               # block_count
    struct.pack_into("<Q", blob, 32, k)               # total_atoms
    struct.pack_into("<Q", blob, _FIXED.size + 8, k + q - 1)
    for i in range(1, 5):                             # 2 coeff + 2 sign streams
        struct.pack_into("<Q", blob, _FIXED.size + i * _RECORD.size + 8, k)
    bad = _reseal(blob)
    with pytest.raises(FormatError, match="WAV"):
        read_tdc(bad)
    path = tmp_path / "huge.tdc"
    path.write_bytes(bad)
    assert main(["decode", "--in", str(path), "--out", str(tmp_path / "x.wav")]) == 3
    assert main(["info", str(path)]) == 3


def test_padded_output_beyond_any_wav_is_rejected(tmp_path):
    # a 1-sample clip in 2^15 channels fits a WAV, but its one block of
    # 2^16 samples would have the decoder synthesize 2^31 samples (16 GiB)
    channels = 1 << 15
    head = _FIXED.pack(b"TDC1", 1, 8000, channels, 1, 1 << 16, 1 << 16, 1, 0, 0.5)
    head += bytes(_RECORD.size * (1 + 2 * channels))
    head += _CRC.pack(zlib.crc32(b""))
    head += _CRC.pack(zlib.crc32(head))
    with pytest.raises(FormatError, match="WAV"):
        read_tdc(head)
    assert _decode_exit_code(tmp_path, head) == 3


def test_write_wav_rejects_data_beyond_the_riff_size_field(tmp_path):
    # 2^31 16-bit samples need a 4 GiB data chunk; broadcast, so nothing
    # of that size is ever allocated
    huge = np.broadcast_to(np.zeros((1, 1)), (1 << 31, 1))
    with pytest.raises(FormatError, match="WAV"):
        write_wav(tmp_path / "x.wav", MultichannelSignal(huge, 8000))
    assert not (tmp_path / "x.wav").exists()


def test_total_atoms_beyond_block_capacity_is_rejected(rng):
    blob = bytearray(
        write_tdc(make_qset(rng), sample_rate=8000, original_length=33,
                  block_size=16, half_size=32)
    )
    struct.pack_into("<Q", blob, 32, 3 * 16 + 1)   # total_atoms; Q=3, N_b=16
    with pytest.raises(FormatError, match="exceeds"):
        read_tdc(_reseal(blob))


def _decode_exit_code(tmp_path, blob: bytes) -> int:
    path = tmp_path / "crafted.tdc"
    path.write_bytes(blob)
    return main(["decode", "--in", str(path), "--out", str(tmp_path / "x.wav")])


@pytest.mark.parametrize(
    "block_size, half_size",
    [(16, (1 << 32) - 1), (1 << 17, 1 << 17)],
    ids=["half_size", "block_size"],
)
def test_dictionary_geometry_above_the_limits_is_rejected(tmp_path, rng,
                                                          block_size, half_size):
    # one block of 10 samples, every count consistent: only the geometry is
    # hostile (a 2^32 - 1 half size would cost 32 GiB of norms)
    blob = bytearray(
        write_tdc(make_qset(rng, blocks=1), sample_rate=8000, original_length=10,
                  block_size=16, half_size=32)
    )
    struct.pack_into("<I", blob, 20, block_size)
    struct.pack_into("<I", blob, 24, half_size)
    bad = _reseal(blob)
    with pytest.raises(FormatError, match="limits"):
        read_tdc(bad)
    assert _decode_exit_code(tmp_path, bad) == 3


def test_index_gap_beyond_the_dictionary_is_rejected(tmp_path, rng):
    # the last gap is 2M + 1 = 65, which no atom index can produce
    good = make_qset(rng, blocks=2, channels=1, atoms_per_block=2)
    crafted = QuantizedBlockSet(
        delta=good.delta,
        index_stream=np.array([3, 5, 0, 4, 65]),
        coeff_streams=good.coeff_streams,
        sign_streams=good.sign_streams,
        block_count=2,
        channel_count=1,
    )
    blob = write_tdc(crafted, sample_rate=8000, original_length=20,
                     block_size=16, half_size=32)
    with pytest.raises(FormatError, match="alphabet bound"):
        read_tdc(blob)
    assert _decode_exit_code(tmp_path, blob) == 3


def test_index_summing_past_the_dictionary_exits_3(tmp_path, rng, capsys):
    # gaps within the alphabet bound that add up to atom 2M + 1 = 65
    good = make_qset(rng, blocks=2, channels=1, atoms_per_block=2)
    crafted = QuantizedBlockSet(
        delta=good.delta,
        index_stream=np.array([3, 5, 0, 64, 1]),
        coeff_streams=good.coeff_streams,
        sign_streams=good.sign_streams,
        block_count=2,
        channel_count=1,
    )
    blob = write_tdc(crafted, sample_rate=8000, original_length=20,
                     block_size=16, half_size=32)
    read_tdc(blob)    # the container is well formed
    assert _decode_exit_code(tmp_path, blob) == 3
    assert "atom index out of range 1..64" in capsys.readouterr().err


def test_sign_alphabet_above_two_is_rejected(rng):
    blob = bytearray(
        write_tdc(make_qset(rng, channels=2), sample_rate=8000, original_length=33,
                  block_size=16, half_size=32)
    )
    # records: index, 2 coefficient streams, then the 2 sign streams
    struct.pack_into("<Q", blob, _FIXED.size + 4 * _RECORD.size, 3)
    with pytest.raises(FormatError, match="sign stream"):
        read_tdc(_reseal(blob))


def test_empty_signal_container_is_minimal(rng):
    decs = [
        AtomicDecomposition(np.empty(0, dtype=np.int64), np.zeros((0, 2)))
        for _ in range(2)
    ]
    qset = serialize_decompositions(decs, 1.0)
    blob = write_tdc(qset, sample_rate=8000, original_length=20,
                     block_size=16, half_size=32)
    header, back = read_tdc(blob)
    assert header.total_atoms == 0
    assert all(idx.size == 0 for idx, _ in parse_streams(back))
    assert len(blob) < 256


def test_three_channel_container_roundtrip(rng):
    qset = make_qset(rng, channels=3)
    blob = write_tdc(qset, sample_rate=48000, original_length=33,
                     block_size=16, half_size=32)
    header, back = read_tdc(blob)
    assert header.channel_count == 3
    assert len(header.stream_records) == 7
    for a, b in zip(back.coeff_streams, qset.coeff_streams):
        assert np.array_equal(a, b)


def test_full_pipeline_near_lossless_roundtrip(rng):
    # tiny-delta surrogate for the lossless limit: 16-bit-granularity
    # input should survive the whole chain within 1e-4 per sample
    nb = 64
    d = TrigDictionary(nb, 2 * nb)
    pcm = rng.integers(-32768, 32768, size=(600, 2))
    samples = pcm / 32768.0
    parted = partition(MultichannelSignal(samples, 8000), nb)
    res = hbw_pursuit(parted.blocks, d, budget=parted.block_count * nb)
    qset = serialize_decompositions(res.decompositions, 1e-8)
    blob = write_tdc(qset, sample_rate=8000, original_length=600,
                     block_size=nb, half_size=2 * nb)
    header, back = read_tdc(blob)
    rec_blocks = [
        synthesize_block(d, idx, header.delta * values.astype(float))
        for idx, values in parse_streams(back)
    ]
    rec = np.vstack(rec_blocks)[:600]
    assert np.abs(rec - samples).max() <= 1e-4
