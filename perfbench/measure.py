"""Workload process: runs the codec's front end on one WAV for a while.

Usage: python3 perfbench/measure.py SPEC_JSON

``run.py`` starts this with the BLAS thread pools pinned to one thread.
It repeats cycles of one ``cli.cmd_encode`` (WAV to .tdc) and
``DECODES_PER_ENCODE`` runs of ``cli.cmd_decode`` (.tdc to WAV) for as
long as the next cycle fits in ``seconds``, times a calibration pass
between the operations, checks every output, and prints one JSON line of
raw figures.  With ``trace`` set, every other cycle runs with the layer
functions wrapped and the JSON carries per-layer figures instead of
process memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import wave
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
from tdcodec import cli, container, dictionary, quantize  # noqa: E402

import spans  # noqa: E402

DECODES_PER_ENCODE = 3
SNR_MATCH_DB = 0.05      # cli's promise for --snr targets
REPORT_MATCH_DB = 1e-6   # encoder's reported SNR against its own decode


def read_pcm16(path) -> np.ndarray:
    """Samples of a 16-bit PCM WAV as floats in [-1, 1), shape (n, channels)."""
    with wave.open(str(path), "rb") as w:
        if w.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit PCM")
        raw = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
        return raw.reshape(-1, w.getnchannels()) / 32768.0


def float_decode(blob: bytes) -> np.ndarray:
    """The samples a .tdc decodes to, before rounding to 16 bits."""
    header, qset = container.read_tdc(blob)
    dico = dictionary.TrigDictionary(header.block_size, header.half_size)
    blocks = [
        dictionary.synthesize_block(dico, idx, header.delta * values.astype(float))
        for idx, values in quantize.parse_streams(qset)
    ]
    pad = header.block_count * header.block_size - header.original_length
    return container.assemble(container.PartitionedSignal(blocks, pad))


def snr_db(ref: np.ndarray, test: np.ndarray) -> float:
    if ref.shape != test.shape:
        raise ValueError(f"shape {test.shape} differs from input {ref.shape}")
    return float(10 * np.log10(np.sum(ref * ref) / np.sum((ref - test) ** 2)))


class Workload:
    """One input WAV, its encoder settings, and the checks on the outputs."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.work = Path(spec["work"])
        self.ref = read_pcm16(spec["wav"])
        self.first_blob = None

    def encode(self, out: Path):
        cfg = cli.EncodeConfig(self.spec["wav"], str(out), **self.spec["encode"])
        t = perf_counter()
        report = cli.cmd_encode(cfg, out=io.StringIO())
        return perf_counter() - t, report, out.read_bytes()

    def decode(self, tdc: Path, out: Path) -> float:
        t = perf_counter()
        cli.cmd_decode(str(tdc), str(out))
        return perf_counter() - t

    def check_encode(self, report, blob: bytes) -> dict | None:
        """Facts of the first encode; later encodes must repeat its bytes."""
        if self.first_blob is not None:
            if blob != self.first_blob:
                raise AssertionError("encode is not byte-identical to the first")
            return None
        self.first_blob = blob
        header, qset = container.read_tdc(blob)
        exact = snr_db(self.ref, float_decode(blob))
        if abs(report.snr_db - exact) > REPORT_MATCH_DB:
            raise AssertionError(
                f"encoder reports {report.snr_db!r} dB, decode gives {exact!r} dB"
            )
        budget = self.spec["encode"].get("budget")
        if budget is not None and header.total_atoms != budget:
            raise AssertionError(f"{header.total_atoms} atoms, budget {budget}")
        return {
            "bytes": len(blob),
            "atoms": header.total_atoms,
            "atoms_per_block_max": max(len(i) for i, _ in quantize.parse_streams(qset)),
        }

    def check_decode(self, wav: Path) -> float:
        value = snr_db(self.ref, read_pcm16(wav))
        target = self.spec["encode"].get("target_snr_db")
        if target is not None and abs(value - target) > SNR_MATCH_DB:
            raise AssertionError(f"decoded SNR {value:.4f} dB, target {target} dB")
        return value


def calibrate() -> float:
    """Seconds for a fixed pass of interpreter work and 4096-point numpy calls.

    It is the mix of the codec's pursuit loop, so it slows down with the
    codec when other tenants of the machine compete for the core.
    """
    v = np.linspace(-1.0, 1.0, 4096)
    t = perf_counter()
    acc = 0.0
    for i in range(200):
        acc += float(np.fft.rfft(v)[i].real) + float(v @ v) + sum(range(50))
    return perf_counter() - t


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, op):
        """Run one encode or decode with its checks; None if it failed."""
        self.attempted += 1
        try:
            return op()
        except Exception as exc:  # every failure is counted, none ends the run
            self.failed += 1
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return None


def cycle(wl: Workload, tally: Tally, tag: str, times: dict, tracer=None):
    """One encode and its decodes; returns the first encode's facts or None.

    Every encode, traced or not, must repeat the first one's bytes.
    """
    tdc = wl.work / f"{tag}.tdc"
    wav = wl.work / f"{tag}.wav"

    def layer_spans(root: str) -> contextlib.ExitStack:
        stack = contextlib.ExitStack()
        if tracer is not None:
            stack.enter_context(tracer.installed())
            stack.enter_context(tracer.span(root))
        return stack

    def encode():
        with layer_spans("cli.cmd_encode"):
            dt, report, blob = wl.encode(tdc)
        return dt, wl.check_encode(report, blob)

    def decode():
        with layer_spans("cli.cmd_decode"):
            dt = wl.decode(tdc, wav)
        return dt, wl.check_decode(wav)

    times["calib"].append(calibrate())
    done = tally.run(encode)
    if done is None:
        return None
    dt, facts = done
    times["encode"].append(dt)
    for _ in range(DECODES_PER_ENCODE if tracer is None else 1):
        got = tally.run(decode)
        if got is not None:
            times["decode"].append(got[0])
            times["snr"].append(got[1])
        times["calib"].append(calibrate())
    return facts


def measure(spec: dict) -> dict:
    wl = Workload(spec)
    tally = Tally()
    plain = {"encode": [], "decode": [], "snr": [], "calib": []}
    traced = {"encode": [], "decode": [], "snr": [], "calib": []}
    layers: list[dict] = []
    facts = None
    if spec["trace"]:
        with spans.Tracer().installed():
            pass   # a layer function that is not there ends the run here
    t0 = perf_counter()
    last = 0.0   # duration of the last cycle; none is started that would overrun
    while last == 0.0 or perf_counter() - t0 + last < spec["seconds"]:
        start = perf_counter()
        facts = cycle(wl, tally, "plain", plain) or facts
        if spec["trace"]:
            tracer = spans.Tracer()
            cycle(wl, tally, "traced", traced, tracer)
            roots = {s.name: s for s in tracer.spans if s.parent is None}
            if "cli.cmd_decode" in roots:
                layers.append(spans.layer_metrics(
                    tracer.spans, roots["cli.cmd_encode"], roots["cli.cmd_decode"],
                    wl.ref.shape[1],
                ))
        last = perf_counter() - start
    out = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:10],
        "encode_s": plain["encode"],
        "decode_s": plain["decode"],
        "decoded_snr_db": plain["snr"],
        "calib_s": plain["calib"],
        "facts": facts,
    }
    if spec["trace"]:
        out["layers"] = {k: median(d[k] for d in layers) for k in layers[0]} if layers else {}
        out["traced_encode_s"] = traced["encode"]
        out["traced_decode_s"] = traced["decode"]
    else:
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


if __name__ == "__main__":
    print(json.dumps(measure(json.loads(sys.argv[1]))))
