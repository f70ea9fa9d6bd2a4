"""Time a fresh import of each of the package's entry points, and list what it loads.

Usage:
    python3 tools/import_cost.py [-n N] [--root CHECKOUT]

For each of ``tdcodec``, ``tdcodec.dictionary`` and ``tdcodec.cli`` it
runs ``N`` fresh interpreters (default 7), one after another, each timing
one ``import`` with ``time.perf_counter``, and prints one line: the
median seconds, and the package's modules that the import loaded.  The
time includes numpy where the entry point imports it, and compiling the
sources where no bytecode cache is read (``PYTHONDONTWRITEBYTECODE=1``
and no ``__pycache__``).  ``--root`` imports another checkout's ``src/``,
so two checkouts can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
ENTRY_POINTS = ("tdcodec", "tdcodec.dictionary", "tdcodec.cli")

# one fresh interpreter: the import's seconds and the package modules it loaded
PROBE = """
import importlib, json, sys, time
t = time.perf_counter()
importlib.import_module(sys.argv[1])
seconds = time.perf_counter() - t
print(json.dumps([seconds, sorted(m for m in sys.modules if m.partition(".")[0] == "tdcodec")]))
"""


def probe(entry: str, src: Path) -> tuple[float, list[str]]:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", PROBE, entry], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    seconds, modules = json.loads(out.stdout)
    return seconds, modules


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", type=int, default=7,
                    help="fresh interpreters per entry point (default 7)")
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="the checkout whose src/ is imported (default: this one)")
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error("-n must be at least 1")
    for entry in ENTRY_POINTS:
        runs = [probe(entry, args.root / "src") for _ in range(args.n)]
        seconds = median(s for s, _ in runs)
        print(f"{entry}: {seconds:.4f} s median of {args.n}; loads {' '.join(runs[-1][1])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
