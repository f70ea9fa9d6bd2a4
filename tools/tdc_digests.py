"""Encode the benchmark workloads and print one digest line per .tdc file.

Usage:
    python3 tools/tdc_digests.py [--root CHECKOUT]

Each line is ``label sha256 bytes atoms streams_sha256 delta wav_sha256``.
``streams_sha256`` hashes the streams that ``read_tdc`` returns, the
index stream and then the levels as little-endian int64 bytes, and
``delta`` is the quantization step in ``float.hex``, so a file that moved
only by a delta changed in its last bits shows as such.  The last field
hashes the WAV that ``tdcodec decode`` writes from the file, so one
``diff`` checks the writer and the reader.  The files are:

* both ``perfbench`` workloads at seeds 7, 11 and 101 and ``--threads``
  1, 2 and 3;
* the dense clip (``harmonic_signal(0)``, stereo, 10 s, ``--snr 30``),
  and its first 3 s at ``--criterion somp`` and ``omp``, which no
  workload selects by;
* the high-atoms clip, 0.25 s of stereo at ``--snr 60``: left
  ``40 sin(2 pi 440 t) + 40 sin(2 pi 660 t)``, right
  ``25 sin(2 pi 330 t) + 25 sin(2 pi 550 t)``, clipped to +-1.  It takes
  about 880 atoms a block, the paper's high-quality range, where a third
  of the pursuit's steps take a second Gram-Schmidt pass.

The clips come from ``perfbench/corpus.py`` (the high-atoms one only
takes its rate) and the settings from ``perfbench/run.py``, both only
read.  Run it in two checkouts and ``diff`` the outputs to check a
byte-identity claim; ``--root`` encodes with another checkout's ``src/``
and ``perfbench/``, for one that predates this tool.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

SEEDS = (7, 11, 101)
THREADS = (1, 2, 3)
DENSE = {"seed": 0, "seconds": 10, "target_snr_db": 30.0}
# (label, SelectionCriterion member): looked up by name, which every
# checkout's enum shares
CRITERIA = (("somp", "SOMP"), ("omp", "MMV_OMP"))
CRITERIA_SECONDS = 3
HIGH_ATOMS = {"seconds": 0.25, "target_snr_db": 60.0,
              # (amplitude, Hz, Hz) of each channel's tone pair
              "tones": ((40.0, 440.0, 660.0), (25.0, 330.0, 550.0))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout whose src/ and perfbench/ are used (default: this one)")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import corpus
    import run
    from tdcodec import cli, container

    jobs = [
        (f"{name}-seed{seed}-threads{threads}", workload["make"](seed),
         dict(workload["encode"], threads=threads))
        for name, workload in sorted(run.WORKLOADS.items())
        for seed in SEEDS
        for threads in THREADS
    ]
    dense = corpus.harmonic_signal(DENSE["seed"], seconds=DENSE["seconds"])
    jobs.append(("dense-seed0", dense, {"target_snr_db": DENSE["target_snr_db"]}))
    short = corpus.harmonic_signal(DENSE["seed"], seconds=CRITERIA_SECONDS)
    for label, member in CRITERIA:
        jobs.append((f"dense-seed0-3s-{label}", short,
                     {"target_snr_db": DENSE["target_snr_db"],
                      "criterion": cli.SelectionCriterion[member]}))
    t = np.arange(round(HIGH_ATOMS["seconds"] * corpus.RATE)) / corpus.RATE
    tones = np.column_stack([a * (np.sin(2 * np.pi * f1 * t) + np.sin(2 * np.pi * f2 * t))
                             for a, f1, f2 in HIGH_ATOMS["tones"]])
    jobs.append(("high-atoms", np.clip(tones, -1.0, 1.0),
                 {"target_snr_db": HIGH_ATOMS["target_snr_db"]}))

    with tempfile.TemporaryDirectory(prefix="tdc_digests-") as tmp:
        wav, tdc, out = (Path(tmp) / name for name in ("in.wav", "out.tdc", "out.wav"))
        for label, samples, settings in jobs:
            run.write_pcm16(wav, samples, corpus.RATE)
            cfg = cli.EncodeConfig(str(wav), str(tdc), block_size=run.BLOCK,
                                   redundancy=run.REDUNDANCY, **settings)
            cli.cmd_encode(cfg, out=io.StringIO())
            blob = tdc.read_bytes()
            header, qset = container.read_tdc(blob)
            cli.cmd_decode(str(tdc), str(out))
            digest = hashlib.sha256(blob).hexdigest()
            streams = hashlib.sha256(b"".join(
                np.asarray(a, dtype="<i8").tobytes() for a in (qset.index_stream, qset.levels)
            )).hexdigest()
            decoded = hashlib.sha256(out.read_bytes()).hexdigest()
            print(f"{label:30s} {digest} {len(blob):8d} {header.total_atoms:7d} {streams} "
                  f"{float.hex(qset.delta)} {decoded}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
