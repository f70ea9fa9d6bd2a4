import math
import struct
import time
import types
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tdcodec import (
    AtomTable,
    BadMagicError,
    ChecksumError,
    FormatError,
    MultichannelSignal,
    TrigDictionary,
    UnsupportedVersionError,
    hbw_pursuit,
    read_wav,
    write_wav,
)
from tdcodec import entropy
from tdcodec.cli import main
from tdcodec.container import (
    _CRC,
    _FIXED,
    _RECORD,
    MAX_BLOCK_SIZE,
    MAX_HALF_SIZE,
    VERSION,
    assemble,
    partition,
    read_tdc,
    write_tdc,
)
from tdcodec.quantize import QuantizedBlockSet, parse_streams, serialize_decompositions

from conftest import atom_table


def make_qset(rng, blocks=3, channels=2, atoms_per_block=4, max_index=64,
              delta=0.125):
    decs = []
    for _ in range(blocks):
        idx = rng.choice(np.arange(1, max_index + 1), size=atoms_per_block,
                         replace=False)
        coef = rng.normal(size=(atoms_per_block, channels)) * 4
        decs.append((idx.astype(np.int64), coef))
    return serialize_decompositions(atom_table(decs), delta)


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


def test_wav_rounding_matches_half_away_from_zero_then_clip(tmp_path, rng):
    ks = np.arange(-40000, 40000, 37, dtype=float)
    x = np.concatenate([
        rng.uniform(-1.2, 1.2, size=4000),
        (ks + 0.5) / 32768, (ks - 0.5) / 32768,          # ties at +-(k + 1/2) LSB
        [1.0, -1.0, 0.0, -0.0, 32767.5 / 32768, -32768.5 / 32768],
        [1.5, -1.5, 100.0, -100.0, 1e300, -1e300],       # |x| > 1
    ])
    if x.size % 2:
        x = np.append(x, 0.25)
    samples = x.reshape(-1, 2)
    path = tmp_path / "r.wav"
    write_wav(path, MultichannelSignal(samples, 8000))
    y = samples * 32768.0
    expected = np.clip(np.sign(y) * np.floor(np.abs(y) + 0.5), -32768, 32767)
    assert path.read_bytes()[44:] == expected.astype("<i2").tobytes()
    assert np.array_equal(samples, x.reshape(-1, 2))     # input left alone


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


_PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")
_FLOAT_GUID = bytes.fromhex("0300000000001000800000aa00389b71")


def _wav_bytes(channels, bits, body, *, tag=1, align=None, extensible=None):
    """A hand-built RIFF/WAVE file; ``extensible`` is ``(cbSize, sub-format)``
    for a ``WAVE_FORMAT_EXTENSIBLE`` fmt chunk, whose extension stops after
    cbSize when the sub-format is None."""
    align = channels * bits // 8 if align is None else align
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, 8000,
                      8000 * align, align, bits)
    if extensible is not None:
        cb_size, guid = extensible
        fmt += struct.pack("<H", cb_size)
        if guid is not None:
            fmt += struct.pack("<HI", bits, 0) + guid
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(body)) + body
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def _int24_bytes(ints):
    return ints.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()


@pytest.mark.parametrize("extensible", [None, (22, _PCM_GUID)])
def test_24bit_pcm_wav_reads_exactly(tmp_path, rng, extensible):
    ints = rng.integers(-(2**23), 2**23, size=(50, 3))
    ints[0] = [-(2**23), 2**23 - 1, 0]
    path = tmp_path / "p24.wav"
    path.write_bytes(_wav_bytes(3, 24, _int24_bytes(ints), extensible=extensible))
    sig = read_wav(path)
    assert sig.sample_rate == 8000
    assert np.array_equal(sig.samples, ints / 2.0**23)


@pytest.mark.parametrize("bits, tag, guid, dtype", [
    (16, 1, _PCM_GUID, "<i2"),
    (32, 3, _FLOAT_GUID, "<f4"),
])
def test_extensible_wav_reads_like_the_plain_one(tmp_path, rng, bits, tag, guid,
                                                 dtype):
    values = rng.uniform(-0.9, 0.9, size=(40, 2))
    if dtype == "<i2":
        values = np.round(values * 32768)
    body = values.astype(dtype).tobytes()
    plain, ext = tmp_path / "plain.wav", tmp_path / "ext.wav"
    plain.write_bytes(_wav_bytes(2, bits, body, tag=tag))
    ext.write_bytes(_wav_bytes(2, bits, body, extensible=(22, guid)))
    want, got = read_wav(plain), read_wav(ext)
    assert got.sample_rate == want.sample_rate
    assert np.array_equal(got.samples, want.samples)


@pytest.mark.parametrize("wav", [
    _wav_bytes(2, 16, bytes(8), extensible=(0, None)),          # cbSize < 22
    _wav_bytes(2, 16, bytes(8), extensible=(21, _PCM_GUID)),
    _wav_bytes(2, 16, bytes(8), extensible=(30, _PCM_GUID)),    # past the chunk
    _wav_bytes(2, 16, bytes(8), extensible=(22, bytes(16))),    # unknown GUID
    _wav_bytes(2, 16, bytes(8), extensible=(22, b"\x02" + _PCM_GUID[1:])),
    _wav_bytes(2, 16, bytes(8), align=2),                       # bits vs align
    _wav_bytes(1, 24, bytes(12), align=4, extensible=(22, _PCM_GUID)),
    _wav_bytes(2, 16, bytes(8))[:-4],                           # data past the file
    b"RIFF" + struct.pack("<I", 26) + b"WAVE" + b"fmt " + struct.pack("<I", 14)
    + bytes(14),
    _wav_bytes(2, 16, b"")[:-8],                                # no data chunk
    _wav_bytes(0, 16, bytes(8)),
    _wav_bytes(2, 16, bytes(8), tag=0xFFFE),                    # no extension
    _wav_bytes(2, 16, bytes(6)),                                # 1.5 frames
], ids=["cbsize-0", "cbsize-21", "cbsize-past-chunk", "guid", "adpcm",
        "align-16bit", "align-24bit", "truncated-chunk", "fmt-14-bytes", "no-data",
        "channels-0", "extensible-16-bytes", "partial-frame"])
def test_malformed_wav_fmt_is_refused_with_exit_3(tmp_path, wav):
    path = tmp_path / "bad.wav"
    path.write_bytes(wav)
    with pytest.raises(FormatError):
        read_wav(path)
    code = main(["encode", "--in", str(path), "--out", str(tmp_path / "x.tdc"),
                 "--atoms", "4", "--block", "4"])
    assert code == 3


@pytest.mark.parametrize("mode", [["--atoms", "50"], ["--snr", "20"]], ids=["atoms", "snr"])
@pytest.mark.parametrize("extensible", [None, (22, _FLOAT_GUID)], ids=["plain", "extensible"])
@pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "-inf"])
def test_non_finite_float_wav_is_refused_with_exit_3(tmp_path, rng, capsys, bad,
                                                     extensible, mode):
    # refused as it is read, not later by the quantizer with a numpy warning
    values = (0.3 * rng.normal(size=(3000, 2))).astype("<f4")
    values[1234, 1] = bad
    path = tmp_path / "f.wav"
    path.write_bytes(_wav_bytes(2, 32, values.tobytes(), tag=3, extensible=extensible))
    with pytest.raises(FormatError, match="NaN or infinite"):
        read_wav(path)
    out = tmp_path / "x.tdc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["encode", "--in", str(path), "--out", str(out), *mode,
                     "--block", "64"])
    assert code == 3
    assert "NaN or infinite" in capsys.readouterr().err
    assert not out.exists()


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


def test_partition_rejects_blocks_below_two_samples():
    with pytest.raises(ValueError, match="block_size must be >= 2"):
        partition(MultichannelSignal(np.ones((8, 2)), 44100), 1)


# --- .tdc ------------------------------------------------------------------

def test_tdc_roundtrip_recovers_everything(rng):
    qset = make_qset(rng)
    blob = write_tdc(
        qset, sample_rate=44100, original_length=40, block_size=16, half_size=32
    )
    header, back = read_tdc(blob)
    assert header.sample_rate == 44100
    assert header.block_count == qset.block_count
    assert header.total_atoms == len(qset.levels)
    assert header.delta == qset.delta
    assert np.array_equal(back.index_stream, qset.index_stream)
    assert back.levels.dtype == np.int64
    assert np.array_equal(back.levels, qset.levels)


def test_read_tdc_returns_the_header_that_write_tdc_checked(monkeypatch, rng):
    from tdcodec import container

    checked = []
    real = container._check_header

    def check(header, index_bound):
        checked.append(header)
        real(header, index_bound)

    monkeypatch.setattr(container, "_check_header", check)
    blob = write_tdc(make_qset(rng, channels=3), sample_rate=44100, original_length=40,
                     block_size=16, half_size=32)
    header, _ = read_tdc(blob)
    assert len(checked) == 2 and checked[1] is header
    assert header == checked[0]
    assert len(header.stream_records) == 7


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


def test_a_sample_rate_of_zero_is_refused_by_every_reader_and_writer(tmp_path, rng):
    with pytest.raises(FormatError, match="sample rate"):
        write_tdc(make_qset(rng), sample_rate=0, original_length=33,
                  block_size=16, half_size=32)
    with pytest.raises(FormatError, match="sample rate"):
        write_wav(tmp_path / "x.wav", MultichannelSignal(np.zeros((4, 1)), 0))
    wav = tmp_path / "rate0.wav"
    write_wav(wav, MultichannelSignal(np.zeros((4, 1)), 8000))
    blob = bytearray(wav.read_bytes())
    struct.pack_into("<I", blob, 24, 0)               # the fmt chunk's sample rate
    wav.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="sample rate"):
        read_wav(wav)

    blob = bytearray(
        write_tdc(make_qset(rng), sample_rate=8000, original_length=33,
                  block_size=16, half_size=32)
    )
    struct.pack_into("<I", blob, 6, 0)                # sample_rate
    bad = _reseal(blob)
    with pytest.raises(FormatError, match="sample rate"):
        read_tdc(bad)
    path = tmp_path / "rate0.tdc"
    path.write_bytes(bad)
    assert main(["decode", "--in", str(path), "--out", str(tmp_path / "x.wav")]) == 3
    assert not (tmp_path / "x.wav").exists()
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
    head = _FIXED.pack(b"TDC1", VERSION, 8000, channels, 1, 1 << 16, 1 << 16, 1, 0,
                       0.5)
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


@pytest.mark.parametrize(
    "channels, rate", [(2, 1 << 31), (1 << 15, 8000)], ids=["byte_rate", "align"]
)
def test_write_wav_rejects_fmt_fields_that_overflow(tmp_path, channels, rate):
    # 2^31 Hz x 2 channels x 2 bytes overflows the u32 byte rate, and
    # 2^15 channels x 2 bytes the u16 block align
    sig = MultichannelSignal(np.zeros((1, channels)), rate)
    with pytest.raises(FormatError, match="fmt fields"):
        write_wav(tmp_path / "x.wav", sig)
    assert not (tmp_path / "x.wav").exists()


@pytest.mark.parametrize("shape", [(10, 0), (10,), (2, 3, 1)])
def test_write_wav_refuses_samples_that_are_not_n_by_l(tmp_path, shape):
    with pytest.raises(FormatError, match="not \\(N, L >= 1\\)"):
        write_wav(tmp_path / "x.wav", MultichannelSignal(np.zeros(shape), 8000))
    assert not (tmp_path / "x.wav").exists()


def test_decoding_2_to_the_15_channels_exits_3(tmp_path):
    # one 2-sample block per channel fits every cap of the container, but
    # no 16-bit WAV can say 2^15 channels
    table = AtomTable([0], [], np.zeros((0, 1 << 15)))
    blob = write_tdc(serialize_decompositions(table, 1.0), sample_rate=8000,
                     original_length=1, block_size=2, half_size=2)
    assert _decode_exit_code(tmp_path, blob) == 3


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
        delta=good.delta, index_stream=np.array([3, 5, 0, 4, 65]), levels=good.levels
    )
    with pytest.raises(FormatError, match="alphabet bound"):
        write_tdc(crafted, sample_rate=8000, original_length=20,
                  block_size=16, half_size=32)
    # written for M = 64, then the header says M = 32
    blob = bytearray(write_tdc(crafted, sample_rate=8000, original_length=20,
                               block_size=16, half_size=64))
    struct.pack_into("<I", blob, 24, 32)              # half_size
    bad = _reseal(blob)
    with pytest.raises(FormatError, match="alphabet bound"):
        read_tdc(bad)
    assert _decode_exit_code(tmp_path, bad) == 3


def test_index_summing_past_the_dictionary_exits_3(tmp_path, rng, capsys):
    # gaps within the alphabet bound that add up to atom 2M + 1 = 65
    good = make_qset(rng, blocks=2, channels=1, atoms_per_block=2)
    crafted = QuantizedBlockSet(
        delta=good.delta, index_stream=np.array([3, 5, 0, 64, 1]), levels=good.levels
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


def test_version_1_file_exits_3(tmp_path, rng, capsys):
    blob = bytearray(
        write_tdc(make_qset(rng), sample_rate=8000, original_length=33,
                  block_size=16, half_size=32)
    )
    struct.pack_into("<H", blob, 4, 1)
    bad = _reseal(blob)
    with pytest.raises(UnsupportedVersionError):
        read_tdc(bad)
    assert _decode_exit_code(tmp_path, bad) == 3
    assert "unsupported version 1" in capsys.readouterr().err


def test_version_2_file_exits_3(tmp_path, rng, capsys):
    # version 2 range-coded its streams; no decoder for it is kept
    blob = bytearray(
        write_tdc(make_qset(rng), sample_rate=8000, original_length=33,
                  block_size=16, half_size=32)
    )
    struct.pack_into("<H", blob, 4, 2)
    bad = _reseal(blob)
    with pytest.raises(UnsupportedVersionError):
        read_tdc(bad)
    assert _decode_exit_code(tmp_path, bad) == 3
    assert "unsupported version 2" in capsys.readouterr().err


@pytest.mark.parametrize("delta", [0.0, math.nan, math.inf])
def test_a_header_delta_that_is_not_positive_and_finite_exits_3(tmp_path, rng, delta):
    # a mutated header fails its checksum first: these are resealed
    blob = bytearray(write_tdc(make_qset(rng), sample_rate=8000, original_length=33,
                               block_size=16, half_size=32))
    struct.pack_into("<d", blob, 40, delta)
    bad = _reseal(blob)
    with pytest.raises(FormatError, match="not a positive finite float"):
        read_tdc(bad)
    assert _decode_exit_code(tmp_path, bad) == 3


def test_an_index_stream_without_its_block_separators_exits_3(tmp_path, rng):
    # 3 atoms and no separator claimed as 2 blocks: every symbol count
    # agrees, K + Q - 1 = 4, and the writer seals it
    unsplit = types.SimpleNamespace(delta=0.125, index_stream=np.array([3, 2, 7, 4]),
                                    levels=np.array([[1], [-2], [3]]), block_count=2)
    blob = write_tdc(unsplit, sample_rate=8000, original_length=20, block_size=16,
                     half_size=32)
    with pytest.raises(FormatError, match="0 separators, expected 1"):
        read_tdc(blob)
    assert _decode_exit_code(tmp_path, blob) == 3


@pytest.mark.parametrize(
    "delta, message",
    [(1e290, None), (1e299, None), (1e300, "decoded samples are not finite"),
     (1e303, "not finite")],
)
def test_huge_delta_exits_3_or_clips_without_warnings(tmp_path, capsys, delta,
                                                      message):
    # the fuzz file's largest level is 7389299: delta 1e303 makes a level
    # overflow, delta 1e300 a synthesized sample; smaller ones clip to
    # full scale, with no numpy overflow warning on the way
    blob = bytearray(_fuzz_file())
    struct.pack_into("<d", blob, 40, delta)
    bad = _reseal(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _decode_exit_code(tmp_path, bad)
    err = capsys.readouterr().err
    if message is None:
        assert code == 0
        assert np.abs(read_wav(tmp_path / "x.wav").samples).min() >= 32767 / 32768
    else:
        assert code == 3 and message in err
    if delta == 1e303:
        with pytest.raises(FormatError, match="level 7389299 is not finite"):
            read_tdc(bad)


# --- packed sign streams ---------------------------------------------------

def test_sign_payloads_are_the_packed_bits(rng):
    qset = make_qset(rng, channels=2)          # K = 12: two bytes per stream
    blob = write_tdc(qset, sample_rate=8000, original_length=33,
                     block_size=16, half_size=32)
    header, back = read_tdc(blob)
    tail = blob[len(blob) - 4:]
    negative = (qset.levels < 0).astype(np.uint8)
    assert tail == b"".join(np.packbits(negative[:, j]).tobytes() for j in range(2))
    for rec in header.stream_records[3:]:
        assert (rec.alphabet_bound, rec.symbol_count, rec.byte_length) == (2, 12, 2)
    assert np.array_equal(back.levels, qset.levels)


def test_a_sign_bit_on_a_zero_magnitude_reads_as_level_zero(tmp_path):
    qset = QuantizedBlockSet(delta=1.0, index_stream=np.array([3, 2]),
                             levels=np.array([[0], [-2]]))
    blob = bytearray(write_tdc(qset, sample_rate=8000, original_length=16,
                               block_size=16, half_size=32))
    assert blob[-1] == 0b0100_0000                    # the one sign stream
    blob[-1] |= 0b1000_0000                           # "-" on the zero level
    crafted = _reseal(blob)
    _, back = read_tdc(crafted)
    assert back.levels.tolist() == [[0], [-2]]
    assert _decode_exit_code(tmp_path, crafted) == 0
    plain = tmp_path / "plain.tdc"
    plain.write_bytes(bytes(write_tdc(qset, sample_rate=8000, original_length=16,
                                      block_size=16, half_size=32)))
    main(["decode", "--in", str(plain), "--out", str(tmp_path / "plain.wav")])
    assert (tmp_path / "x.wav").read_bytes() == (tmp_path / "plain.wav").read_bytes()


@pytest.mark.parametrize(
    "levels", [np.array([1, -2]), np.zeros((2, 0), dtype=np.int64)],
    ids=["one_dimensional", "no_columns"],
)
def test_write_tdc_rejects_levels_that_are_not_k_by_l(levels):
    qset = QuantizedBlockSet(delta=1.0, index_stream=np.array([3, 2]), levels=levels)
    with pytest.raises(FormatError, match="levels of shape"):
        write_tdc(qset, sample_rate=8000, original_length=16,
                  block_size=16, half_size=32)


def test_write_tdc_rejects_levels_without_one_row_per_atom():
    qset = QuantizedBlockSet(delta=1.0, index_stream=np.array([3, 0, 2]),
                             levels=np.array([[1]]))
    with pytest.raises(FormatError, match="2 atoms, levels 1 rows"):
        write_tdc(qset, sample_rate=8000, original_length=20,
                  block_size=16, half_size=32)


def _one_block(indices):
    indices = np.asarray(indices, dtype=np.int64)
    return serialize_decompositions(
        AtomTable([indices.size], indices, np.ones((indices.size, 1))), 1.0
    )


# delta 1e303 times level 7 389 299 is past the largest float
_OVERFLOWING_SCALE = QuantizedBlockSet(delta=1e303, index_stream=np.array([1]),
                                       levels=np.array([[7389299]]))


@pytest.mark.parametrize(
    "qset, block_size, half_size, message",
    [(_one_block([1]), 1, 1, "geometry"),
     (_one_block([1]), 16, 8, "geometry"),
     (_one_block([1]), 1 << 17, 1 << 17, "limits"),
     (_one_block([1]), 16, 1 << 21, "limits"),
     (_one_block([100]), 8, 8, "alphabet bound 101"),
     (_one_block(range(1, 11)), 8, 8, "total_atoms 10 exceeds"),
     (_OVERFLOWING_SCALE, 8, 8, "level 7389299 is not finite")],
    ids=["block_size_1", "half_below_block", "block_size_above_limit",
         "half_size_above_limit", "index_bound", "atoms_per_block", "delta_scale"],
)
def test_write_tdc_refuses_headers_that_read_tdc_refuses(monkeypatch, qset,
                                                         block_size, half_size,
                                                         message):
    # one block of one sample; each case breaks one of read_tdc's checks
    kw = dict(sample_rate=8000, original_length=1, block_size=block_size,
              half_size=half_size)
    with pytest.raises(FormatError, match=message):
        write_tdc(qset, **kw)
    with monkeypatch.context() as m:
        m.setattr("tdcodec.container._check_header", lambda *args: None)
        m.setattr("tdcodec.container._check_scale", lambda *args: None)
        blob = write_tdc(qset, **kw)
    with pytest.raises(FormatError, match=message):
        read_tdc(blob)


def test_write_tdc_refuses_a_level_of_minus_2_to_the_63():
    # the one int64 level whose magnitude wraps negative in np.abs: it
    # used to pass the scale check and fail in the entropy coder
    qset = QuantizedBlockSet(delta=1.0, index_stream=np.array([1, 0, 2]),
                             levels=np.array([[3, 0], [-(1 << 63), 1]]))
    with pytest.raises(FormatError, match="level -9223372036854775808"):
        write_tdc(qset, sample_rate=8000, original_length=9, block_size=8,
                  half_size=8)


@pytest.mark.parametrize(
    "qset, sample_rate, slot",
    [(_one_block([1]), 1 << 32, "4294967295"),
     (QuantizedBlockSet(delta=1.0, index_stream=np.array([], dtype=np.int64),
                        levels=np.zeros((0, 1 << 16), dtype=np.int64)), 8000, "65535")],
    ids=["sample_rate", "channel_count"],
)
def test_write_tdc_refuses_a_field_wider_than_its_slot(qset, sample_rate, slot):
    # the u32 sample rate and the u16 channel count; no file can say these,
    # so unlike the cases above there are no bytes for read_tdc to refuse
    with pytest.raises(FormatError, match=f"wider than its slot.*{slot}"):
        write_tdc(qset, sample_rate=sample_rate, original_length=1, block_size=8,
                  half_size=8)


_EXTREME_LEVELS = [0, 1, -1, (1 << 63) - 1, -((1 << 63) - 1), -(1 << 63)]


def _at_or_past(draw, at, past):
    """One of the values ``at`` a limit, or now and then one ``past`` it."""
    value = draw(st.sampled_from([*at, None]))
    return draw(st.sampled_from(past)) if value is None else value


@st.composite
def _written_sets(draw):
    """A quantized set and write_tdc's header fields, each at or past its limits."""
    channels = draw(st.integers(1, 3))
    block_size = _at_or_past(draw, [16, 2, MAX_BLOCK_SIZE], [1, MAX_BLOCK_SIZE + 1])
    half_size = _at_or_past(draw, [2 * block_size, block_size, MAX_HALF_SIZE],
                            [block_size - 1, MAX_HALF_SIZE + 1])
    top = max(1, 2 * half_size)    # one past the dictionary when half_size is 0
    blocks = draw(st.lists(
        st.lists(st.integers(1, top), unique=True, max_size=3).map(sorted),
        min_size=1, max_size=4,
    ))
    index_stream = []
    for q, idx in enumerate(blocks):
        index_stream += [0] * (q > 0) + list(np.diff(idx, prepend=0))
    k, q = sum(map(len, blocks)), len(blocks)
    levels = draw(st.lists(
        st.sampled_from(_EXTREME_LEVELS) | st.integers(-1000, 1000),
        min_size=k * channels, max_size=k * channels,
    ))
    delta = _at_or_past(draw, [0.125, 5e-324, 1e-310, 1.7976931348623157e308],
                        [math.inf, math.nan, 0.0])
    qset = QuantizedBlockSet(
        delta=delta, index_stream=np.array(index_stream, dtype=np.int64),
        levels=np.array(levels, dtype=np.int64).reshape(k, channels),
    )
    fields = dict(
        sample_rate=_at_or_past(draw, [8000, 1, (1 << 32) - 1], [0, 1 << 32]),
        original_length=_at_or_past(draw, [q * block_size, (q - 1) * block_size + 1],
                                    [(q - 1) * block_size, q * block_size + 1, 1 << 64]),
        block_size=block_size,
        half_size=half_size,
    )
    return qset, fields


@given(case=_written_sets())
@example(case=(QuantizedBlockSet(delta=1.0, index_stream=np.array([2]),
                                 levels=np.array([[-(1 << 63)]])),
               dict(sample_rate=8000, original_length=16, block_size=16,
                    half_size=32)))
def test_write_tdc_refuses_or_read_tdc_returns_what_it_was_given(case):
    qset, fields = case
    try:
        blob = write_tdc(qset, **fields)
    except FormatError:
        return
    header, back = read_tdc(blob)
    assert np.array_equal(back.index_stream, qset.index_stream)
    assert back.levels.shape == qset.levels.shape
    assert np.array_equal(back.levels, qset.levels)
    assert back.delta == qset.delta
    assert {name: getattr(header, name) for name in fields} == fields
    assert (header.delta, header.block_count) == (qset.delta, qset.block_count)
    assert (header.total_atoms, header.channel_count) == qset.levels.shape


def _sign_byte_length_plus_one(blob: bytearray):
    # records: index, 2 coefficient streams, then the 2 sign streams
    struct.pack_into("<Q", blob, _FIXED.size + 3 * _RECORD.size + 16, 3)   # not 2


def _padding_bit_set(blob: bytearray):
    # K = 12 leaves the low 4 bits of each last byte; set the one right
    # after the 12th sign
    blob[-1] |= 0x08


def _total_atoms_raised(blob: bytearray):
    # K = 12 -> 20 with the index and coefficient counts to match; the
    # sign records keep 2 bytes where 20 bits need 3
    struct.pack_into("<Q", blob, 32, 20)
    struct.pack_into("<Q", blob, _FIXED.size + 8, 20 + 3 - 1)
    for i in range(1, 5):
        struct.pack_into("<Q", blob, _FIXED.size + i * _RECORD.size + 8, 20)


@pytest.mark.parametrize(
    "mutate, message",
    [(_sign_byte_length_plus_one, "packed bits"),
     (_padding_bit_set, "padding"),
     (_total_atoms_raised, "packed bits")],
    ids=["byte_length", "padding", "total_atoms"],
)
def test_hostile_sign_payload_is_rejected_before_decoding(tmp_path, rng,
                                                          monkeypatch, mutate,
                                                          message):
    blob = bytearray(
        write_tdc(make_qset(rng, channels=2), sample_rate=8000, original_length=33,
                  block_size=16, half_size=32)
    )
    mutate(blob)
    bad = _reseal(blob)

    def no_stream_decoded(*args):
        raise AssertionError("a stream was decoded")

    monkeypatch.setattr(entropy, "arith_decode", no_stream_decoded)
    with pytest.raises(FormatError, match=message):
        read_tdc(bad)
    assert _decode_exit_code(tmp_path, bad) == 3


# --- header-mutation fuzz --------------------------------------------------

# (offset, struct format) of every fixed-header field, magic included
_HEADER_FIELDS = [(0, "4s"), (4, "H"), (6, "I"), (10, "H"), (12, "Q"),
                  (20, "I"), (24, "I"), (28, "I"), (32, "Q"), (40, "d")]
_FUZZ_CHANNELS = 2
_FUZZ_FILE_BYTES = 291
_FUZZ_EXAMPLES = 300
_FUZZ_SECONDS = 10.0


def _fuzz_file() -> bytes:
    # 3 blocks of 16 samples, 2 channels, 4 atoms per block; a tiny delta
    # makes the coefficient levels wide (up to 23 bits, 21 of them bypass bits)
    qset = make_qset(np.random.default_rng(11), channels=_FUZZ_CHANNELS,
                     delta=1e-6)
    assert (np.abs(qset.levels).max(axis=0) >= 1 << 16).all()
    return write_tdc(qset, sample_rate=8000, original_length=40,
                     block_size=16, half_size=32)


def _payload_fields(blob: bytes) -> list[tuple[int, str]]:
    """(offset, struct format) of every frequency-table byte, every lane
    state, the first rANS word and the last bypass byte of each coded
    stream."""
    header, qset = read_tdc(blob)
    pos = len(blob) - sum(r.byte_length for r in header.stream_records)
    fields = []
    for rec, values in zip(header.stream_records,
                           [qset.index_stream, *np.abs(qset.levels).T]):
        data = blob[pos : pos + rec.byte_length]
        buckets = 2 * (rec.alphabet_bound - 1).bit_length() + 2
        table = entropy._unpack_table(data, buckets)[1]
        lanes = entropy.lane_count(rec.symbol_count)
        bypass = sum(max(int(v).bit_length() - 2, 0) for v in values)
        words_at = table + 4 * lanes
        assert bypass and rec.byte_length >= words_at + 2 + 1   # a word, a bypass byte
        fields += [(pos + i, "B") for i in range(table)]
        fields += [(pos + table + 4 * j, "I") for j in range(lanes)]
        fields += [(pos + words_at, "H"), (pos + rec.byte_length - 1, "B")]
        pos += rec.byte_length
    return fields


_FUZZ_FIELDS = _HEADER_FIELDS + [
    (_FIXED.size + i * _RECORD.size + 8 * j, "Q")
    for i in range(1 + 2 * _FUZZ_CHANNELS)
    for j in range(3)                   # alphabet bound, symbol count, bytes
] + _payload_fields(_fuzz_file())


def _reseal_if_it_fits(blob: bytearray) -> bytes:
    """Recompute both CRCs where the (maybe mutated) channel count puts them."""
    channels = struct.unpack_from("<H", blob, 10)[0]
    if _FIXED.size + (1 + 2 * channels) * _RECORD.size + 2 * _CRC.size > len(blob):
        return bytes(blob)
    return _reseal(blob)


@st.composite
def _mutations(draw):
    offset, fmt = draw(st.sampled_from(_FUZZ_FIELDS))
    if fmt == "4s":
        return offset, fmt, draw(st.binary(min_size=4, max_size=4))
    if fmt == "d":
        return offset, fmt, draw(st.floats())
    top = (1 << (8 * struct.calcsize("<" + fmt))) - 1
    value = draw(st.one_of(
        st.integers(0, top),
        st.sampled_from([0, 1, 2, top, top >> 1, 1 << 16, (1 << 16) + 1])
        .map(lambda v: min(v, top)),
        st.integers(-64, 64).map(lambda d: ("relative", d)),
    ))
    return offset, fmt, value


@given(mutation=_mutations())
@settings(max_examples=_FUZZ_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_header_mutation_fuzz_exits_0_or_3(tmp_path, capsys, mutation):
    blob = bytearray(_fuzz_file())
    assert len(blob) == _FUZZ_FILE_BYTES
    offset, fmt, value = mutation
    if isinstance(value, tuple):
        (old,) = struct.unpack_from("<" + fmt, blob, offset)
        top = (1 << (8 * struct.calcsize("<" + fmt))) - 1
        value = min(max(old + value[1], 0), top)
    struct.pack_into("<" + fmt, blob, offset, value)
    path = tmp_path / "fuzz.tdc"
    path.write_bytes(_reseal_if_it_fits(blob))
    start = time.perf_counter()
    code = main(["decode", "--in", str(path), "--out", str(tmp_path / "x.wav")])
    assert time.perf_counter() - start < _FUZZ_SECONDS
    err = capsys.readouterr().err
    assert code in (0, 3)
    assert code == 0 or err.startswith("error:")


def test_empty_signal_container_is_minimal(rng):
    qset = serialize_decompositions(AtomTable([0, 0], [], np.zeros((0, 2))), 1.0)
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
    assert np.array_equal(back.levels, qset.levels)


def test_full_pipeline_near_lossless_roundtrip(rng):
    # tiny-delta surrogate for the lossless limit: 16-bit-granularity
    # input should survive the whole chain within 1e-4 per sample
    nb = 64
    d = TrigDictionary(nb, 2 * nb)
    pcm = rng.integers(-32768, 32768, size=(600, 2))
    samples = pcm / 32768.0
    parted = partition(MultichannelSignal(samples, 8000), nb)
    res = hbw_pursuit(parted.blocks, d, budget=parted.block_count * nb)
    qset = serialize_decompositions(res.atoms, 1e-8)
    blob = write_tdc(qset, sample_rate=8000, original_length=600,
                     block_size=nb, half_size=2 * nb)
    header, back = read_tdc(blob)
    levels = parse_streams(back)
    rec = np.vstack(d.synthesize(AtomTable(
        levels.counts, levels.indices, header.delta * levels.values.astype(float)
    )))[:600]
    assert np.abs(rec - samples).max() <= 1e-4
