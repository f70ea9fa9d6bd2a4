import csv
import io
import math
import struct
import warnings

import numpy as np
import pytest

import tdcodec
from tdcodec import (
    MultichannelSignal,
    SNR_CAP_DB,
    TrigDictionary,
    read_wav,
    snr,
    write_wav,
)
from tdcodec.cli import (
    DELTA_SEARCH_ITERS,
    SNR_MATCH_TOL_DB,
    EncodeConfig,
    TargetUnreachableError,
    UsageError,
    cmd_compare,
    cmd_decode,
    cmd_encode,
    cmd_info,
    _tune_delta,
    main,
)
from tdcodec.container import read_tdc

NB = 64


def sparse_stereo_signal(rng, blocks=24, atoms=3, noise_db=-45.0, peak=0.7,
                         channels=2):
    d = TrigDictionary(NB, 2 * NB)
    parts = []
    for _ in range(blocks):
        idx = rng.choice(np.arange(1, d.num_atoms + 1), size=atoms, replace=False)
        coef = rng.normal(size=(atoms, channels)) * 0.2
        part = sum(np.outer(d.atom(n), coef[i]) for i, n in enumerate(idx))
        parts.append(part)
    samples = np.vstack(parts)
    rms = float(np.sqrt(np.mean(samples**2)))
    samples = samples + 10 ** (noise_db / 20) * rms * rng.normal(size=samples.shape)
    samples *= peak / np.abs(samples).max()
    # make the length a non-multiple of the block size
    return samples[: blocks * NB - 17]


@pytest.fixture
def wav_in(tmp_path, rng):
    path = tmp_path / "in.wav"
    write_wav(path, MultichannelSignal(sparse_stereo_signal(rng), 8000))
    return path


def encode(wav_in, tmp_path, **kw):
    out = tmp_path / "out.tdc"
    cfg = EncodeConfig(str(wav_in), str(out), block_size=NB, **kw)
    report = cmd_encode(cfg, out=io.StringIO())
    return out, report


def test_snr_mode_hits_target_after_decode(wav_in, tmp_path):
    out, report = encode(wav_in, tmp_path, target_snr_db=30.0)
    assert abs(report.snr_db - 30.0) <= 0.05
    dec = tmp_path / "dec.wav"
    cmd_decode(str(out), str(dec))
    measured = snr(read_wav(wav_in).samples, read_wav(dec).samples)
    assert abs(measured - 30.0) <= 0.05
    # compressed file is much smaller than the raw 16-bit payload
    n = read_wav(wav_in).sample_count
    assert out.stat().st_size * 10 < n * 2 * 2


def test_exactly_sparse_input_reaches_high_target(tmp_path, rng):
    d = TrigDictionary(NB, 2 * NB)
    q = 10
    parts = []
    for _ in range(q):
        idx = rng.choice(np.arange(1, d.num_atoms + 1), size=2, replace=False)
        coef = rng.normal(size=(2, 2)) * 0.2
        parts.append(sum(np.outer(d.atom(n), coef[i]) for i, n in enumerate(idx)))
    samples = np.vstack(parts)
    samples *= 0.7 / np.abs(samples).max()
    path = tmp_path / "sparse.wav"
    write_wav(path, MultichannelSignal(samples, 8000))

    out, report = encode(path, tmp_path, target_snr_db=80.0)
    assert report.snr_db >= 80.0 - 0.05
    header, _ = read_tdc(out.read_bytes())
    # the 16-bit input is not exactly atom-sparse, so a couple of extra
    # atoms may be needed beyond the two per block that built it
    assert header.total_atoms <= 3 * q
    assert header.delta < 1e-2


def test_budget_mode_with_explicit_delta_is_bit_identical(wav_in, tmp_path):
    a, _ = encode(wav_in, tmp_path, budget=40, delta=0.01)
    first = a.read_bytes()
    b, _ = encode(wav_in, tmp_path, budget=40, delta=0.01)
    assert b.read_bytes() == first


def test_thread_count_does_not_change_the_file(wav_in, tmp_path):
    a, _ = encode(wav_in, tmp_path, target_snr_db=25.0, threads=1)
    first = a.read_bytes()
    b, _ = encode(wav_in, tmp_path, target_snr_db=25.0, threads=3)
    assert b.read_bytes() == first


def test_mode_validation():
    cfg = EncodeConfig("x.wav", "y.tdc", target_snr_db=30.0, budget=5)
    with pytest.raises(UsageError):
        cmd_encode(cfg)
    cfg = EncodeConfig("x.wav", "y.tdc", target_snr_db=30.0, delta=0.1)
    with pytest.raises(UsageError):
        cmd_encode(cfg)
    cfg = EncodeConfig("x.wav", "y.tdc", delta=0.1)
    with pytest.raises(UsageError):
        cmd_encode(cfg)
    cfg = EncodeConfig("x.wav", "y.tdc")
    with pytest.raises(UsageError):
        cmd_encode(cfg)


@pytest.mark.parametrize("mode", [{"target_snr_db": 30.0}, {"budget": 40, "delta": 0.02}],
                         ids=["snr", "atoms"])
def test_library_encode_writes_the_bytes_of_cmd_encode(wav_in, tmp_path, mode):
    out, file_report = encode(wav_in, tmp_path, **mode)
    blob, report = tdcodec.encode(read_wav(wav_in), tdcodec.EncodeConfig(block_size=NB, **mode))
    assert blob == out.read_bytes()
    assert report == file_report
    header, _ = read_tdc(blob)
    assert (report.atoms, report.delta) == (header.total_atoms, header.delta)
    back = tdcodec.decode(blob)
    assert back.sample_rate == 8000
    assert back.samples.shape == read_wav(wav_in).samples.shape


@pytest.mark.parametrize("bad", ["rate", "1-D", "nan", "inf"])
@pytest.mark.parametrize("mode", [{"target_snr_db": 30.0}, {"budget": 40}],
                         ids=["snr", "atoms"])
def test_library_encode_refuses_bad_signals_before_pursuing(rng, monkeypatch, bad, mode):
    from tdcodec import FormatError, cli

    def pursued(*args, **kwargs):
        raise AssertionError("pursued")

    samples, rate = 0.3 * rng.normal(size=(300, 2)), 8000
    if bad == "rate":
        rate = 0
    elif bad == "1-D":
        samples = samples[:, 0]
    else:
        samples[123, 1] = float(bad)
    if bad in ("rate", "1-D"):
        monkeypatch.setattr(cli, "pursuit_to_snr", pursued)
        monkeypatch.setattr(cli, "hbw_pursuit", pursued)
    cfg = EncodeConfig(block_size=NB, **mode)
    error = FormatError if bad in ("rate", "1-D") else ValueError
    with pytest.raises(error, match="sample rate 0|not \\(N, L >= 1\\)|must be finite"):
        tdcodec.encode(MultichannelSignal(samples, rate), cfg)


def test_silent_input_encodes_with_budget_and_decodes_to_silence(tmp_path):
    path = tmp_path / "silence.wav"
    write_wav(path, MultichannelSignal(np.zeros((300, 2)), 8000))
    out, _ = encode(path, tmp_path, budget=0, delta=1.0)
    header, _ = read_tdc(out.read_bytes())
    assert header.total_atoms == 0
    dec = tmp_path / "dec.wav"
    cmd_decode(str(out), str(dec))
    back = read_wav(dec)
    assert back.sample_count == 300
    assert np.all(back.samples == 0)


def test_silent_input_with_snr_target_is_unreachable(tmp_path):
    path = tmp_path / "silence.wav"
    write_wav(path, MultichannelSignal(np.zeros((300, 2)), 8000))
    with pytest.raises(TargetUnreachableError):
        encode(path, tmp_path, target_snr_db=30.0)


def test_target_above_quantization_cap_is_unreachable(wav_in, tmp_path):
    with pytest.raises(TargetUnreachableError):
        encode(wav_in, tmp_path, target_snr_db=250.0)


def test_a_target_above_the_snr_at_delta_1e_6_is_reached_below_it(tmp_path):
    # a lone impulse is dense in the dictionary: its coefficients are small,
    # so at delta 1e-6 the decoded SNR is 99.88 dB, and the search must look
    # below that delta for 120 dB, which the pursuit reaches
    samples = np.zeros((44100, 1))
    samples[20000, 0] = 0.9
    path, out = tmp_path / "impulse.wav", tmp_path / "impulse.tdc"
    write_wav(path, MultichannelSignal(samples, 44100))
    assert main(["encode", "--in", str(path), "--out", str(out), "--snr", "120"]) == 0
    assert read_tdc(out.read_bytes())[0].delta < 1e-6
    decoded = tdcodec.decode(out.read_bytes()).samples
    ref = read_wav(path).samples
    exact = 10 * np.log10(np.sum(ref**2) / np.sum((ref - decoded) ** 2))
    assert abs(exact - 120.0) <= SNR_MATCH_TOL_DB


@pytest.mark.parametrize("target", [0.01, 1e-300])
def test_a_target_below_the_snr_at_max_coefficient_is_reached_above_it(tmp_path, target):
    # at delta = max |c| the largest coefficient still quantizes to level 1
    # and this noise decodes at 0.66 dB; above 2 max |c| every level is 0,
    # and the decode is silence, at 0 dB
    samples = 0.3 * np.random.default_rng(1).normal(size=(2000, 2))
    path, out = tmp_path / "noise.wav", tmp_path / "noise.tdc"
    write_wav(path, MultichannelSignal(samples, 8000))
    args = ["encode", "--in", str(path), "--out", str(out), "--block", "256"]
    assert main(args + ["--snr", str(target)]) == 0
    decoded = tdcodec.decode(out.read_bytes()).samples
    assert not decoded.any()


def test_info_reports_header_fields(wav_in, tmp_path):
    out, _ = encode(wav_in, tmp_path, budget=30, delta=0.02)
    buf = io.StringIO()
    header = cmd_info(str(out), out=buf)
    text = buf.getvalue()
    assert header.total_atoms == 30
    assert "blocks:" in text and "mean atoms/block" in text
    assert f"{header.delta:.9g}" in text
    # 30 atoms take one rANS lane per coded stream, in the container's order
    rans = "rANS, 1 lane, bit-length buckets + bypass bits"
    names = ["index", "coeff[0]", "coeff[1]", "sign[0]", "sign[1]"]
    codings = [rans] * 3 + ["packed bits"] * 2
    streams = [line for line in text.splitlines() if line.startswith("stream ")]
    assert streams == [
        f"stream {name}: {coding}, bound {rec.alphabet_bound}, "
        f"{rec.symbol_count} symbols, {rec.byte_length} bytes"
        for name, coding, rec in zip(names, codings, header.stream_records, strict=True)
    ]


def test_compare_self_reports_sentinel_and_decodes_tdc(wav_in, tmp_path):
    out, _ = encode(wav_in, tmp_path, target_snr_db=28.0)
    csv_path = tmp_path / "cmp.csv"
    rows = cmd_compare(
        str(wav_in), [str(wav_in), str(out)], csv_path=str(csv_path),
        out=io.StringIO(),
    )
    assert rows[0][1] == SNR_CAP_DB
    assert abs(rows[1][1] - 28.0) <= 0.05
    with open(csv_path, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["name", "snr_db", "bytes", "kbps"]
    assert len(table) == 3
    assert float(table[2][1]) == pytest.approx(rows[1][1], abs=1e-5)


def test_compare_rejects_length_mismatch(wav_in, tmp_path, rng):
    other = tmp_path / "short.wav"
    write_wav(other, MultichannelSignal(rng.normal(size=(100, 2)) * 0.1, 8000))
    from tdcodec import FormatError

    with pytest.raises(FormatError):
        cmd_compare(str(wav_in), [str(other)], out=io.StringIO())


# --- exit codes through main() ----------------------------------------------

def test_main_usage_errors_exit_2(tmp_path, wav_in, monkeypatch):
    out = tmp_path / "o.tdc"
    assert main(["encode", "--in", str(wav_in), "--out", str(out)]) == 2
    assert (
        main(
            ["encode", "--in", str(wav_in), "--out", str(out),
             "--snr", "30", "--atoms", "5"]
        )
        == 2
    )
    # the pursuit's margin over --snr is the constant OVERSHOOT_DB
    assert main(["encode", "--in", str(wav_in), "--out", str(out),
                 "--snr", "30", "--overshoot", "3"]) == 2
    assert main(["bogus"]) == 2
    # settings out of range, non-finite ones and targets at or below the 0 dB
    # that a decode of silence reaches are refused before the WAV is read
    monkeypatch.setattr("tdcodec.container.read_wav", _not_read)
    for flags in (["--atoms", "500", "--delta", "inf"], ["--atoms", "500", "--delta", "nan"],
                  ["--snr", "nan"], ["--snr", "inf"], ["--snr", "0"], ["--snr", "-5"],
                  ["--atoms", "-1"], ["--atoms", "5", "--redundancy", "1"],
                  ["--atoms", "5", "--threads", "0"]):
        assert main(["encode", "--in", str(wav_in), "--out", str(out), *flags]) == 2


def _not_read(path):
    raise AssertionError("the WAV was read")


def test_encode_flags_parse_into_the_config(monkeypatch):
    from dataclasses import fields

    from tdcodec import cli

    built = []
    monkeypatch.setattr(cli, "cmd_encode", built.append)
    assert main(["encode", "--in", "a.wav", "--out", "b.tdc", "--snr", "33"]) == 0
    assert built == [EncodeConfig("a.wav", "b.tdc", target_snr_db=33.0)]
    assert main(["encode", "--in", "a.wav", "--out", "b.tdc", "--atoms", "9",
                 "--delta", "0.5", "--block", "256", "--redundancy", "2",
                 "--criterion", "somp", "--threads", "3"]) == 0
    assert built[1] == EncodeConfig("a.wav", "b.tdc", block_size=256, redundancy=2,
                                    criterion=tdcodec.SelectionCriterion.SOMP,
                                    delta=0.5, budget=9, threads=3)
    # every EncodeConfig field has exactly one encode flag, and no flag a default
    encode_parser = cli._build_parser()._subparsers._group_actions[0].choices["encode"]
    flags = [a for a in encode_parser._actions if a.dest != "help"]
    assert sorted(a.dest for a in flags) == sorted(f.name for f in fields(EncodeConfig))
    assert all(len(a.option_strings) == 1 for a in flags)


def test_encode_help_lists_the_criteria(capsys):
    assert main(["encode", "--help"]) == 0
    assert "--criterion {omp,oomp,somp}" in capsys.readouterr().out


@pytest.mark.parametrize("criterion", ["oomp", "bogus"])
def test_encode_refuses_a_criterion_that_is_not_a_member(rng, monkeypatch, criterion):
    # select_candidate would score either as MMV-OMP, into the MMV-OMP file
    from tdcodec import cli

    def pursued(*args, **kwargs):
        raise AssertionError("pursued")

    monkeypatch.setattr(cli, "pursuit_to_snr", pursued)
    monkeypatch.setattr(cli, "hbw_pursuit", pursued)
    signal = MultichannelSignal(0.3 * rng.normal(size=(300, 2)), 8000)
    for mode in ({"target_snr_db": 30.0}, {"budget": 40}):
        cfg = EncodeConfig(block_size=NB, criterion=criterion, **mode)
        with pytest.raises(UsageError, match="not a SelectionCriterion"):
            tdcodec.encode(signal, cfg)


@pytest.mark.parametrize("settings, what", [
    ({"budget": 40.5}, "budget must be an int"),
    ({"budget": True}, "budget must be an int"),
    ({"budget": 40, "redundancy": 4.0}, "redundancy must be an int"),
    ({"budget": 40, "block_size": 256.0}, "block_size must be an int"),
    ({"budget": 40, "threads": 1.5}, "threads must be an int"),
    ({"budget": 40, "threads": None}, "threads must be an int"),
    ({"budget": 40, "delta": "0.5"}, "delta must be a real number"),
    ({"target_snr_db": "20"}, "target_snr_db must be a real number"),
    ({"target_snr_db": True}, "target_snr_db must be a real number"),
], ids=["budget-float", "budget-bool", "redundancy-float", "block-float", "threads-float",
        "threads-none", "delta-str", "snr-str", "snr-bool"])
def test_encode_refuses_settings_of_the_wrong_type(rng, monkeypatch, settings, what):
    # argparse parses these flags as int and float; the library takes any value
    from tdcodec import cli

    def pursued(*args, **kwargs):
        raise AssertionError("pursued")

    monkeypatch.setattr(cli, "pursuit_to_snr", pursued)
    monkeypatch.setattr(cli, "hbw_pursuit", pursued)
    monkeypatch.setattr("tdcodec.container.read_wav", _not_read)
    signal = MultichannelSignal(0.3 * rng.normal(size=(2000, 2)), 8000)
    settings = {"block_size": 256, **settings}
    with pytest.raises(UsageError, match=what):
        tdcodec.encode(signal, EncodeConfig(**settings))
    with pytest.raises(UsageError, match=what):
        cmd_encode(EncodeConfig("x.wav", "y.tdc", **settings))


def test_main_happy_paths_exit_0(tmp_path, wav_in, capsys):
    out = tmp_path / "o.tdc"
    dec = tmp_path / "d.wav"
    assert main(
        ["encode", "--in", str(wav_in), "--out", str(out), "--snr", "26",
         "--block", str(NB)]
    ) == 0
    assert main(["decode", "--in", str(out), "--out", str(dec)]) == 0
    assert main(["info", str(out)]) == 0
    assert main(["compare", "--ref", str(wav_in), str(dec), str(out)]) == 0
    capsys.readouterr()


def test_main_io_errors_exit_3(tmp_path, wav_in):
    missing = tmp_path / "nope.tdc"
    assert main(["decode", "--in", str(missing), "--out", "x.wav"]) == 3
    corrupt = tmp_path / "bad.tdc"
    corrupt.write_bytes(b"XXXX" + bytes(60))
    assert main(["decode", "--in", str(corrupt), "--out", "x.wav"]) == 3
    assert main(["info", str(corrupt)]) == 3


def test_running_out_of_memory_exits_3_without_a_traceback(tmp_path, wav_in,
                                                          monkeypatch, capsys):
    out, _ = encode(wav_in, tmp_path, budget=5, delta=0.1)
    dec = tmp_path / "d.wav"

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(tdcodec.cli, "_reconstruct", out_of_memory)
    assert main(["decode", "--in", str(out), "--out", str(dec)]) == 3
    err = capsys.readouterr().err
    assert "error: not enough memory to decode" in err
    assert "Traceback" not in err
    assert not dec.exists()


def test_a_wav_with_sample_rate_zero_is_refused_before_encoding(tmp_path, wav_in,
                                                                 capsys):
    # refused as the WAV is read, so no pursuit runs and no file is written
    blob = bytearray(wav_in.read_bytes())
    struct.pack_into("<I", blob, 24, 0)   # the fmt chunk's sample rate
    wav_in.write_bytes(bytes(blob))
    out = tmp_path / "o.tdc"
    code = main(["encode", "--in", str(wav_in), "--out", str(out), "--snr", "20",
                 "--block", str(NB)])
    assert code == 3
    assert "sample rate" in capsys.readouterr().err
    assert not out.exists()


def test_a_delta_too_small_for_int64_levels_exits_3(tmp_path, wav_in, capsys):
    out = tmp_path / "o.tdc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["encode", "--in", str(wav_in), "--out", str(out), "--atoms", "50",
                     "--delta", "1e-300", "--block", str(NB)])
    assert code == 3
    assert "delta 1e-300 is too small for int64 levels" in capsys.readouterr().err
    assert not out.exists()


def test_main_version_mismatch_flagged(tmp_path, wav_in, capsys):
    out = tmp_path / "o.tdc"
    encode(wav_in, tmp_path, budget=5, delta=0.1)
    blob = bytearray((tmp_path / "out.tdc").read_bytes())
    blob[4] = 9
    bad = tmp_path / "v9.tdc"
    bad.write_bytes(bytes(blob))
    assert main(["info", str(bad)]) == 3
    assert "version" in capsys.readouterr().err


def test_main_unreachable_target_exits_4(tmp_path, wav_in):
    out = tmp_path / "o.tdc"
    code = main(
        ["encode", "--in", str(wav_in), "--out", str(out), "--snr", "250",
         "--block", str(NB)]
    )
    assert code == 4


def test_corrupted_container_is_rejected_on_decode(tmp_path, wav_in, rng):
    out, _ = encode(wav_in, tmp_path, budget=20, delta=0.05)
    blob = bytearray(out.read_bytes())
    blob[-3] ^= 0x80
    bad = tmp_path / "corrupt.tdc"
    bad.write_bytes(bytes(blob))
    assert main(["decode", "--in", str(bad), "--out", str(tmp_path / "x.wav")]) == 3


def test_decoded_snr_is_nonincreasing_in_delta(wav_in, tmp_path, rng):
    # the bisection in the delta search leans on this ordering; rounding
    # noise may jitter the curve by a sub-milli-dB amount at fine deltas
    from tdcodec import TrigDictionary, pursuit_to_snr, read_wav
    from tdcodec.cli import _ErrorModel
    from tdcodec.container import partition

    sig = read_wav(wav_in)
    d = TrigDictionary(NB, 2 * NB)
    parted = partition(sig, NB)
    res = pursuit_to_snr(parted.blocks, d, 35.0)
    model = _ErrorModel(d, res, parted)
    deltas = np.logspace(-6, np.log10(model.max_coefficient()), 12)
    snrs = [model.snr(dlt) for dlt in deltas]
    assert np.all(np.diff(snrs) <= 2e-3)
    assert snrs[-1] < snrs[0] - 10.0


class _ValleyModel:
    """An error model whose decoded SNR falls, then rises again in delta:
    its lowest point, ``floor_db`` above the target, is at delta 1e-3."""

    def __init__(self, target, floor_db):
        self.target, self.floor_db, self.deltas = target, floor_db, []

    def max_coefficient(self):
        return 1.0

    def snr(self, delta):
        self.deltas.append(delta)
        return self.target + self.floor_db + 0.01 * math.log(delta / 1e-3) ** 2


def test_delta_search_falls_back_to_golden_section():
    # the SNR at the bracket's middle is below the SNR at both its ends, so
    # bisection is abandoned at its first step; a floor within a quarter of
    # the tolerance above the target ends the search early: at 0.005 dB the
    # first midpoint is the pick, and the golden section is not started
    for floor_db in (0.02, 0.005):
        model = _ValleyModel(30.0, floor_db=floor_db)
        delta, achieved = _tune_delta(model, 30.0)
        evals = len(model.deltas)
        assert evals > 2
        assert (evals < DELTA_SEARCH_ITERS) == (floor_db <= SNR_MATCH_TOL_DB / 4)
        assert (evals == 3) == (floor_db <= SNR_MATCH_TOL_DB / 4)
        assert achieved == model.snr(delta)
        assert abs(achieved - 30.0) <= SNR_MATCH_TOL_DB
        assert abs(math.log(delta / 1e-3)) < 1.0


def test_delta_search_that_never_meets_the_target_stalls():
    model = _ValleyModel(30.0, floor_db=1.0)
    with pytest.raises(TargetUnreachableError, match="stalled at 31.000 dB"):
        _tune_delta(model, 30.0)
    assert len(model.deltas) == DELTA_SEARCH_ITERS


def _check_reported_snr(tmp_path, samples, mode, block_size=NB):
    path, out = tmp_path / "in.wav", tmp_path / "out.tdc"
    write_wav(path, MultichannelSignal(samples, 8000))
    cfg = EncodeConfig(str(path), str(out), block_size=block_size, **mode)
    report = cmd_encode(cfg, out=io.StringIO())
    decoded = tdcodec.decode(out.read_bytes()).samples
    ref = read_wav(path).samples
    exact = 10 * np.log10(np.sum(ref**2) / np.sum((ref - decoded) ** 2))
    assert abs(report.snr_db - exact) <= 1e-6
    return read_tdc(out.read_bytes())


_MODES = pytest.mark.parametrize(
    "mode", [{"target_snr_db": 28.0}, {"budget": 40, "delta": 0.02}],
    ids=["snr", "atoms"],
)


@pytest.mark.parametrize("block_size", [4, 256])
@pytest.mark.parametrize("channels", [1, 3])
@_MODES
def test_reported_snr_equals_float_decode_of_the_file(
    tmp_path, rng, channels, mode, block_size
):
    # the encoder's SNR comes from the pursuit's triangular factors, never
    # from a decode of the clip; it must still be the SNR of what the
    # written file decodes to.  Short blocks give hundreds of small factors
    # per stack, long blocks a few large ones; the last block is partial
    samples = sparse_stereo_signal(rng, channels=channels)
    assert samples.shape[0] % block_size   # partial last block
    header, _ = _check_reported_snr(tmp_path, samples, mode, block_size)
    assert header.block_size == block_size


@pytest.mark.parametrize("layout", ["whole-blocks", "single-block", "silent-middle"])
@pytest.mark.parametrize("channels", [1, 3])
@_MODES
def test_reported_snr_equals_float_decode_across_clip_layouts(
    tmp_path, rng, channels, mode, layout
):
    # the last block is no longer padded, is the only one, or some blocks
    # hold no atoms
    from tdcodec.quantize import parse_streams

    samples = sparse_stereo_signal(rng, channels=channels)
    if layout == "whole-blocks":
        samples = samples[: (samples.shape[0] // NB) * NB]
    elif layout == "single-block":
        samples = samples[: NB - 17]
    else:
        samples[4 * NB : 9 * NB] = 0.0
    header, qset = _check_reported_snr(tmp_path, samples, mode)
    assert (header.block_count == 1) == (layout == "single-block")
    assert (header.original_length % NB == 0) == (layout == "whole-blocks")
    if layout == "silent-middle":
        silent = [idx.size == 0 for idx, _ in parse_streams(qset)]
        assert all(silent[4:9])


def test_melodic_clip_matches_published_style_target(tmp_path, rng):
    # classic operating point: tune quantization to land on 32.10 dB
    samples = sparse_stereo_signal(rng, blocks=40, atoms=4, noise_db=-40.0)
    path = tmp_path / "melodic.wav"
    write_wav(path, MultichannelSignal(samples, 8000))
    out, report = encode(path, tmp_path, target_snr_db=32.10)
    assert abs(report.snr_db - 32.10) <= 0.05
    dec = tmp_path / "dec.wav"
    cmd_decode(str(out), str(dec))
    assert abs(snr(read_wav(path).samples, read_wav(dec).samples) - 32.10) <= 0.05


def test_nondefault_redundancy_encodes(tmp_path, wav_in):
    out = tmp_path / "r2.tdc"
    cfg = EncodeConfig(
        str(wav_in), str(out), block_size=NB, redundancy=2, budget=30, delta=0.02
    )
    cmd_encode(cfg, out=io.StringIO())
    header, _ = read_tdc(out.read_bytes())
    assert header.half_size == NB
    dec = tmp_path / "r2.wav"
    cmd_decode(str(out), str(dec))
    assert read_wav(dec).sample_count == read_wav(wav_in).sample_count


@pytest.mark.parametrize(
    "flags",
    [["--block", "1"], ["--block", str(1 << 17)],
     ["--block", str(1 << 16), "--redundancy", "64"]],
    ids=["block-too-small", "block-too-large", "half-size-too-large"],
)
def test_dictionary_geometry_beyond_the_format_is_a_usage_error(tmp_path, wav_in,
                                                                flags):
    # the decoder refuses such a header, so the encoder must not write it
    out = tmp_path / "x.tdc"
    code = main(["encode", "--in", str(wav_in), "--out", str(out), "--atoms", "5"]
                + flags)
    assert code == 2
    assert not out.exists()


def test_short_blocks_in_the_largest_dictionary_round_trip(tmp_path, rng):
    # half size 2^20 over 16-sample blocks is within the format's limits,
    # so the encoder must take it and the decoder must read it back
    path = tmp_path / "short.wav"
    write_wav(path, MultichannelSignal(0.3 * rng.normal(size=(40, 1)), 8000))
    out, dec = tmp_path / "o.tdc", tmp_path / "d.wav"
    assert main(["encode", "--in", str(path), "--out", str(out), "--block", "16",
                 "--redundancy", "131072", "--atoms", "20"]) == 0
    assert main(["decode", "--in", str(out), "--out", str(dec)]) == 0
    header, _ = read_tdc(out.read_bytes())
    assert header.half_size == 1 << 20 and header.total_atoms == 20
    assert snr(read_wav(path).samples, read_wav(dec).samples) > 3.0


@pytest.mark.parametrize("redundancy", [3, 4])
@pytest.mark.parametrize("channels", [1, 6])
def test_decode_matches_per_block_atom_synthesis(tmp_path, rng, channels,
                                                 redundancy):
    # the batched inverse-FFT decode against the atom-matrix sum of every
    # block, the last one partial
    from tdcodec import container
    from tdcodec.quantize import parse_streams
    from oracles import atoms_synthesis

    samples = sparse_stereo_signal(rng, channels=channels)
    path = tmp_path / "in.wav"
    write_wav(path, MultichannelSignal(samples, 8000))
    out, _ = encode(path, tmp_path, budget=300, delta=1e-3, redundancy=redundancy)
    header, qset = read_tdc(out.read_bytes())
    assert header.half_size == NB * redundancy // 2
    d = TrigDictionary(header.block_size, header.half_size)
    blocks = [
        atoms_synthesis(d, idx, header.delta * values.astype(float))
        for idx, values in parse_streams(qset)
    ]
    pad = header.block_count * NB - header.original_length
    want = container.assemble(container.PartitionedSignal(blocks, pad))
    got = tdcodec.decode(out.read_bytes()).samples
    assert got.shape == samples.shape
    assert np.abs(got - want).max() <= 1e-12


def test_criterion_flags_select_variants(tmp_path, wav_in):
    for name in ("oomp", "omp", "somp"):
        out = tmp_path / f"{name}.tdc"
        code = main(
            ["encode", "--in", str(wav_in), "--out", str(out), "--atoms", "20",
             "--delta", "0.05", "--block", str(NB), "--criterion", name]
        )
        assert code == 0
        assert out.exists()


def test_benchmark_finds_every_layer_function(monkeypatch):
    # perfbench/spans.py wraps the codec's layer functions by module and
    # name; renaming one (cli.synthesize_block, say) must fail here rather
    # than only in a traced benchmark run
    import importlib
    import pathlib
    import sys

    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
    )
    spans = importlib.import_module("spans")
    with spans.Tracer().installed():
        for mod, cls, func in spans.TARGETS:
            owner = sys.modules[f"tdcodec.{mod}"]
            if cls is not None:
                owner = getattr(owner, cls)
            assert hasattr(getattr(owner, func), "__wrapped__"), f"{mod}.{func}"
