"""The demos and the tools run: each script exits 0 in a fresh directory.
The benchmark's scripts read the codec as it is."""

import io
import json
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


@pytest.mark.parametrize("tool", ["tdc_digests.py", "bench_pairs.py", "untested_lines.py",
                                  "import_cost.py"])
def test_tool_prints_its_help(tool, tmp_path):
    out = _run([str(ROOT / "tools" / tool), "--help"], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage:")


def test_import_cost_times_each_entry_point_and_lists_its_modules(tmp_path):
    out = _run([str(ROOT / "tools" / "import_cost.py"), "-n", "1"], tmp_path)
    assert out.returncode == 0, out.stderr
    lines = dict(line.split(": ", 1) for line in out.stdout.splitlines())
    assert list(lines) == ["tdcodec", "tdcodec.dictionary", "tdcodec.cli"]
    assert all(" s median of 1; loads tdcodec" in line for line in lines.values())
    assert lines["tdcodec"].endswith("; loads tdcodec")
    assert lines["tdcodec.dictionary"].endswith("; loads tdcodec tdcodec.dictionary")
    assert "tdcodec.pursuit" in lines["tdcodec.cli"]


def _untested(test_id, tmp_path):
    """``{module: (lines, statements)}`` from untested_lines.py run on
    ``test_id``: the first lines of the statements it lists, and their count."""
    out = _run([str(ROOT / "tools" / "untested_lines.py"), "-q", "-p", "no:cacheprovider",
                test_id], tmp_path)
    assert out.returncode == 0, out.stdout + out.stderr
    found = {}
    for line in out.stdout.splitlines():
        if line.startswith("src/tdcodec/"):
            head, spans = line.split(" untested: ")
            module, counts = head.split(": ")
            lines = set()
            for span in spans.split():
                first, _, last = span.partition("-")
                lines.update(range(int(first), int(last or first) + 1))
            found[module] = lines, int(counts.split(" of ")[1])
    return found


def test_untested_lines_lists_the_modules_a_test_never_runs(tmp_path):
    # this test imports no codec module, so every statement of metrics.py is
    # listed, the line of its first def among them; a run of test_metrics.py
    # lists fewer
    first_def = next(i for i, text in enumerate(
        (ROOT / "src" / "tdcodec" / "metrics.py").read_text().splitlines(), 1)
        if text.startswith("def "))
    never = _untested(f"{ROOT / 'tests' / 'test_scripts.py'}::test_the_demos_are_found",
                      tmp_path)
    lines, total = never["src/tdcodec/metrics.py"]
    assert len(lines) == total > 0
    assert first_def in lines
    ran = _untested(str(ROOT / "tests" / "test_metrics.py"), tmp_path)
    assert len(ran.get("src/tdcodec/metrics.py", ((), total))[0]) < total


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


def _bench_pairs(monkeypatch):
    import importlib

    monkeypatch.setattr(sys, "path", list(sys.path))   # bench_pairs.py prepends to it
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("bench_pairs")


def _synthetic_run(**values):
    """A ``perfbench/run.py`` result line with the given end-to-end values."""
    return {"attempted": 10, "failed": 0,
            "metrics": {name: {"unit": "u", "value": v} for name, v in values.items()}}


def test_bench_pairs_counts_wins_and_bounds_in_each_metrics_direction(
        tmp_path, monkeypatch):
    bench_pairs = _bench_pairs(monkeypatch)
    base = {"encode_s_per_audio_s": 0.04, "encode_atoms_per_s": 5000.0,
            "kbps": 5.0, "decoded_snr_db": 33.0, "ok_rate": 1.0}
    # the change: 30% slower encode in 9 of 10 pairs, more atoms per second
    # in 9 of 10, 4% more kbps (inside its 5% bound), 20% less SNR
    change = {"encode_s_per_audio_s": 0.052, "encode_atoms_per_s": 5500.0,
              "kbps": 5.2, "decoded_snr_db": 26.4, "ok_rate": 1.0}
    slow_pair = {"encode_s_per_audio_s": 0.039, "encode_atoms_per_s": 4900.0}

    def run_once(checkout, workload):
        side = checkout.name
        calls[side, workload] = calls.get((side, workload), 0) + 1
        values = dict(base) if side == "parent" else dict(change)
        if side == "change" and calls[side, workload] == 1:
            values.update(slow_pair)
        machine = {"commit": side, "cpu": "synthetic"}
        return {"machine": machine}, _synthetic_run(**values)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    parent, change_dir = tmp_path / "parent", tmp_path / "change"
    out = tmp_path / "bench.json"
    args = ["--parent", str(parent), "--change", str(change_dir), "--out", str(out)]

    calls = {}
    assert bench_pairs.main(args) == 0
    got = json.loads(out.read_text())
    assert got["claim"] is None
    assert got["commits"] == {"parent": "parent", "change": "change"}
    for workload, entry in got["workloads"].items():
        assert entry["pairs"] == bench_pairs.PAIRS
        assert entry["worse_than_bound"] == ["encode_s_per_audio_s", "decoded_snr_db"]

    calls = {}
    assert bench_pairs.main(args + ["--claim", "encode_atoms_per_s", "sparse-stereo"]) == 0
    claim = json.loads(out.read_text())["claim"]
    assert claim["better"] == "higher" and claim["pairs_won"] == "9/10"
    assert claim["ratio_of_medians"] == pytest.approx(1.1)
    calls = {}
    assert bench_pairs.main(args + ["--claim", "encode_s_per_audio_s", "mc6-budget"]) == 0
    claim = json.loads(out.read_text())["claim"]
    assert claim["better"] == "lower" and claim["pairs_won"] == "1/10"
    assert claim["median_ratio"] == pytest.approx(1.3)
