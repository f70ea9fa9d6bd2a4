"""The demos and the tools run: each script exits 0 in a fresh directory.
The benchmark's scripts read the codec as it is."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    out = _run([str(demo)], tmp_path)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("tool", ["tdc_digests.py", "bench_pairs.py"])
def test_tool_prints_its_help(tool, tmp_path):
    out = _run([str(ROOT / "tools" / tool), "--help"], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage:")


def test_the_demos_are_found():
    # an empty glob would leave test_demo_runs with nothing to run
    assert DEMOS


def test_the_benchmark_reads_the_codec_as_it_is(tmp_path, rng, monkeypatch):
    # perfbench/ is left unedited by codec changes: its float decode, which
    # checks every encode's reported SNR, must still be the codec's decode
    # to the bit, and every function its tracer wraps must still be there
    import importlib

    import numpy as np

    from tdcodec import MultichannelSignal, cli, write_wav

    monkeypatch.setattr(sys, "path", list(sys.path))   # measure.py prepends to it
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    measure = importlib.import_module("measure")
    spans = importlib.import_module("spans")

    # two tones and noise in 12 blocks, the last one partial
    t = np.arange(3000)[:, None] / 8000
    samples = 0.3 * np.sin(2 * np.pi * t * [440.0, 660.0])
    samples += 0.01 * rng.normal(size=samples.shape)
    wav, tdc = tmp_path / "in.wav", tmp_path / "out.tdc"
    write_wav(wav, MultichannelSignal(samples, 8000))
    cfg = cli.EncodeConfig(str(wav), str(tdc), block_size=256, target_snr_db=25.0)
    cli.cmd_encode(cfg, out=io.StringIO())
    blob = tdc.read_bytes()
    got, want = measure.float_decode(blob), cli.decode(blob).samples
    assert got.shape == want.shape == samples.shape
    assert got.tobytes() == want.tobytes()
    with spans.Tracer().installed():
        pass
