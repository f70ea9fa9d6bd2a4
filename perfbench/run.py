"""tdcodec benchmark: encode/decode speed per audio second, rate and quality.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the codec is imported from its
``src/``.  The input WAV is generated from ``--seed``.  A fresh
workload process (``measure.py``, BLAS pinned to one thread) repeats
``cli.cmd_encode`` and ``cli.cmd_decode`` for ``--seconds`` and checks
every output.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a run with the layer functions wrapped.  The
last line of standard output is the JSON result; the lines before it
give quartiles, sample counts, the input's SHA-256 and the machine.

Encode and decode times are the fastest repetition of the run, scaled
to a reference speed.  On a shared machine, interference from other
tenants only ever adds time; it comes in bursts of seconds that slow a
whole encode, and at times it lasts a whole run.  The fastest repetition
removes the bursts, and the scaling removes the slow runs: between its
operations the workload process times a fixed calibration pass
(``measure.calibrate``), and every codec time is multiplied by
``CALIB_REF_S`` over the run's fastest pass.  Set-up time is the median
of ``SETUP_PROBES`` fresh processes, each time scaled the same way by the
calibration pass its own process makes right after set-up.  The raw
times are in the detail line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import wave
from pathlib import Path
from statistics import median, quantiles

import numpy as np

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# All at 44.1 kHz, 1024-sample blocks, redundancy-4 dictionary.  A dense
# harmonic stereo clip at --snr 30 was left out: its 8-10 s encodes fit
# only three times in a run, and their time spread 27% between runs.
WORKLOADS = {
    "sparse-stereo": {
        "make": lambda seed: corpus.melodic_signal(seed, seconds=30),
        "encode": {"target_snr_db": 33.0, "threads": 1},
    },
    "mc6-budget": {
        "make": lambda seed: corpus.harmonic_signal(seed, seconds=3, channels=6),
        "encode": {"budget": 3000, "threads": 2},
    },
}
BLOCK, REDUNDANCY = 1024, 4
SETUP_PROBES = 15
# Fastest calibration pass of an uncontended run on the reference machine
# (2 vCPU Intel Xeon, Python 3.11, numpy 2.4), so scaled times read as
# seconds on that machine.
CALIB_REF_S = 0.007
RUN_LIMIT_S = 170   # a run that is not done by then is stopped and fails
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Set-up as a user pays it in a fresh process: import, then the dictionary.
# The calibration pass after it gives the speed of the core at that moment.
SETUP_CODE = """
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from tdcodec.dictionary import TrigDictionary
TrigDictionary(int(sys.argv[2]), int(sys.argv[3]))
setup = time.perf_counter() - t
sys.path.insert(0, sys.argv[4])
from measure import calibrate
print(setup, min(calibrate() for _ in range(3)))
"""


def write_pcm16(path: Path, samples: np.ndarray, rate: int) -> None:
    pcm = np.clip(np.round(samples * 32768), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(samples.shape[1])
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(pcm.tobytes())


def stats(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "q1": q1, "median": median(values), "q3": q3,
            "min": min(values), "values": values}


def machine() -> dict:
    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        cpu = platform.machine()
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
    }


def setup_times(env: dict, deadline: float) -> tuple[list[float], list[float]]:
    """Set-up time and calibration pass of each of ``SETUP_PROBES`` fresh processes."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BLOCK),
           str(BLOCK * REDUNDANCY // 2), str(HERE)]
    probes = [
        [float(x) for x in subprocess.run(
            cmd, env=env, capture_output=True, text=True, check=True,
            timeout=deadline - time.monotonic(),
        ).stdout.split()]
        for _ in range(SETUP_PROBES)
    ]
    return [t for t, _ in probes], [c for _, c in probes]


def end_to_end(raw: dict, duration: float, setup: list[float], setup_calib: list[float]) -> dict:
    speed = CALIB_REF_S / min(raw["calib_s"])
    enc, dec = speed * min(raw["encode_s"]), speed * min(raw["decode_s"])
    facts = raw["facts"]
    return {
        "encode_s_per_audio_s": (enc / duration, "s/s"),
        "decode_s_per_audio_s": (dec / duration, "s/s"),
        "encode_atoms_per_s": (facts["atoms"] / enc, "atoms/s"),
        "kbps": (8 * facts["bytes"] / 1e3 / duration, "kbit/s"),
        "decoded_snr_db": (median(raw["decoded_snr_db"]), "dB"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "setup_s": (median(CALIB_REF_S * t / c for t, c in zip(setup, setup_calib)), "s"),
        "ok_rate": (1 - raw["failed"] / raw["attempted"], "fraction"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_ksym_per_s"):
        return "ksym/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_overhead")):
        return "ratio"
    return "count"


def per_layer(raw: dict) -> dict:
    layers = dict(raw["layers"])
    layers["pursuit.atoms_per_block_max"] = raw["facts"]["atoms_per_block_max"]
    out = {name: (value, layer_unit(name)) for name, value in layers.items()}
    out["trace.encode_overhead_s"] = (
        min(raw["traced_encode_s"]) - min(raw["encode_s"]), "s")
    out["trace.decode_overhead_s"] = (
        min(raw["traced_decode_s"]) - min(raw["decode_s"]), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tdcodec" / "__init__.py").is_file():
        print(f"no codec sources at {SRC}; run from a tdcodec checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    wl = WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    env = dict(os.environ, **PINNED)
    try:
        samples = wl["make"](args.seed)
        wav = work / "input.wav"
        write_pcm16(wav, samples, corpus.RATE)
        digest = hashlib.sha256(wav.read_bytes()).hexdigest()
        duration = samples.shape[0] / corpus.RATE
        setup, setup_calib = ([], []) if args.trace else setup_times(env, deadline)
        spec = {
            "wav": str(wav), "work": str(work), "encode": wl["encode"],
            "seconds": args.seconds, "trace": bool(args.trace),
        }
        proc = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), json.dumps(spec)],
            env=env, capture_output=True, text=True,
            timeout=deadline - time.monotonic(),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return 1
    raw = json.loads(proc.stdout.splitlines()[-1])
    if raw["facts"] is None or not raw["decode_s"] or (args.trace and not raw["layers"]):
        print(f"no encode/decode succeeded: {raw['problems']}", file=sys.stderr)
        return 1

    metrics = per_layer(raw) if args.trace else end_to_end(raw, duration, setup, setup_calib)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "input_sha256": digest,
        "machine": machine(),
        "encode_s": stats(raw["encode_s"]),
        "decode_s": stats(raw["decode_s"]),
        "calib_s": stats(raw["calib_s"]),
        "encoded": raw["facts"],
        "problems": raw["problems"],
    }
    if setup:
        detail["setup_s"] = stats(setup)
        detail["setup_calib_s"] = stats(setup_calib)
    if args.trace:
        detail["traced_encode_s"] = stats(raw["traced_encode_s"])
        detail["traced_decode_s"] = stats(raw["traced_decode_s"])
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
