import numpy as np
import pytest

from tdcodec import SNR_CAP_DB, MultichannelSignal, snr
from tdcodec.metrics import rate_report


def test_identical_signals_report_the_lossless_sentinel(rng):
    x = rng.normal(size=(100, 2))
    assert snr(x, x.copy()) == SNR_CAP_DB


def test_zero_reconstruction_is_zero_db(rng):
    x = rng.normal(size=(100, 2))
    assert snr(x, np.zeros_like(x)) == pytest.approx(0.0, abs=1e-12)


def test_tenth_amplitude_residual_is_twenty_db(rng):
    x = rng.normal(size=(64, 2))
    assert snr(x, x - x / 10) == pytest.approx(20.0, abs=1e-9)


def test_snr_is_scale_invariant(rng):
    x = rng.normal(size=(64, 2))
    r = x + 0.01 * rng.normal(size=(64, 2))
    assert snr(3.7 * x, 3.7 * r) == pytest.approx(snr(x, r), abs=1e-9)


def test_zero_original_rejected():
    with pytest.raises(ValueError):
        snr(np.zeros((10, 1)), np.ones((10, 1)))


def test_shape_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        snr(rng.normal(size=(4, 2)), rng.normal(size=(4, 1)))


def test_snr_accepts_signal_objects(rng):
    x = rng.normal(size=(32, 2))
    a = MultichannelSignal(x, 8000)
    b = MultichannelSignal(x * 0.999, 8000)
    assert snr(a, b) == snr(x, x * 0.999)


def test_rate_report_examples():
    ten_seconds = 10 * 44100
    r = rate_report(72 * 1024, 44100, ten_seconds)
    assert r.kbps == pytest.approx(58.98, abs=0.005)
    assert rate_report(1000, 44100, 44100).kbps == pytest.approx(8.0)


def test_raw_stereo_baseline_rate():
    # one second of raw 16-bit stereo at 44.1 kHz
    r = rate_report(44100 * 2 * 2, 44100, 44100)
    assert r.kbps == pytest.approx(1411.2)
    assert r.duration_s == pytest.approx(1.0)


def test_rate_report_rejects_nonpositive_sizes():
    with pytest.raises(ValueError):
        rate_report(100, 0, 100)
    with pytest.raises(ValueError):
        rate_report(-1, 44100, 100)
