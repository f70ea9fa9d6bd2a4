"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import corpus  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from tdcodec import cli, dictionary, pursuit  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("make", [corpus.melodic_signal, corpus.harmonic_signal])
def test_generators_are_deterministic_per_seed(make):
    a = make(3, seconds=0.2)
    assert np.array_equal(a, make(3, seconds=0.2))
    assert not np.array_equal(a, make(4, seconds=0.2))
    assert a.shape == (round(0.2 * corpus.RATE), 2)
    assert np.abs(a).max() == pytest.approx(0.7)


def test_pitches_cover_every_stratum():
    u = corpus._pitches(np.random.default_rng(0), 12)
    assert sorted(x // 3 for x in u) == list(range(12))


def test_wrappers_restore_the_originals():
    originals = [
        (pursuit, "rank_blocks", pursuit.rank_blocks),
        (cli, "pursuit_to_snr", cli.pursuit_to_snr),
        (dictionary.TrigDictionary, "atoms_matrix", dictionary.TrigDictionary.atoms_matrix),
    ]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError), tracer.installed():
        for owner, name, fn in originals:
            assert getattr(owner, name) is not fn
            assert getattr(owner, name).__wrapped__ is fn
        raise RuntimeError("leave the block early")
    for owner, name, fn in originals:
        assert getattr(owner, name) is fn


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent)


def test_self_times_of_nested_and_overlapping_children():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    b = _span("b", 3.0, 6.0, root)        # overlaps a, as pool threads do
    c = _span("c", 1.5, 2.0, a)
    own = spans.self_times([root, a, b, c])
    assert own[root] == pytest.approx(5.0)
    assert own[a] == pytest.approx(2.5)
    assert own[b] == pytest.approx(3.0)
    assert own[c] == pytest.approx(0.5)


def test_a_missing_layer_function_stops_the_tracer(monkeypatch):
    rank = pursuit.rank_blocks
    monkeypatch.delattr(cli, "hbw_pursuit")
    with pytest.raises(AttributeError), spans.Tracer().installed():
        pass
    assert pursuit.rank_blocks is rank


@pytest.mark.parametrize("threads", [1, 2])
def test_traced_codec_self_times_sum_to_the_root(tmp_path, threads):
    """On one thread the self times of a tree add up to its root's wall time.

    With ``threads`` pool threads, the block set-up spans run side by side
    below the pursuit span and their self times are thread-seconds: the
    encode tree then sums to between its wall time and ``threads`` times it.
    """
    wav = tmp_path / "in.wav"
    run.write_pcm16(wav, corpus.melodic_signal(1, seconds=0.3), corpus.RATE)
    wl = measure.Workload({
        "wav": str(wav), "work": str(tmp_path),
        "encode": {"target_snr_db": 30.0, "threads": threads},
    })
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span("cli.cmd_encode") as enc:
        wl.encode(tmp_path / "a.tdc")
    with tracer.installed(), tracer.span("cli.cmd_decode") as dec:
        wl.decode(tmp_path / "a.tdc", tmp_path / "a.wav")
    own = spans.self_times(tracer.spans)
    assert min(own.values()) >= 0.0
    sums = {}
    for root in (enc, dec):
        tree = spans.subtree(tracer.spans, root)
        assert len(tree) > 1
        sums[root.name] = sum(own[s] for s in tree), root.end - root.start
    total, wall = sums["cli.cmd_encode"]
    if threads == 1:
        assert total == pytest.approx(wall, abs=1e-9)
    else:
        assert wall - 1e-9 <= total <= threads * wall + 1e-9
    total, wall = sums["cli.cmd_decode"]
    assert total == pytest.approx(wall, abs=1e-9)
    inits = [s for s in tracer.spans if s.name == "pursuit.init_block_state"]
    assert len(inits) == 13
    assert {s.parent.name for s in inits} == {"cli.pursuit_to_snr"}
    layers = spans.layer_metrics(tracer.spans, enc, dec, channels=2)
    assert layers["pursuit.steps"] > 0
    assert layers["cli.delta_evals"] > 2
    assert layers["entropy.index_bytes"] > 0


def test_order0_bytes():
    assert spans.order0_bytes([5, 5, 5, 5]) == 0.0
    assert spans.order0_bytes([0, 1] * 8) == pytest.approx(2.0)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_declared_metrics(trace, group):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main([
            "--workload", "mc6-budget", "--seed", "1", "--seconds", "0.1",
            "--trace", str(trace),
        ])
    assert rc == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())[group]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert {m["name"]: m["unit"] for m in declared}[name] == metric["unit"]
