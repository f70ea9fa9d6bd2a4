"""Run the benchmark in alternating parent/change pairs and write a BENCH_*.json.

Usage:
    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json

``DIR`` is a checkout with ``perfbench/`` and ``src/``, best a ``git
clone`` at the commit to measure, so that ``perfbench/run.py`` records
its commit; each run is that checkout's ``perfbench/run.py --seed SEED
--seconds SECONDS``.  Every workload gets ``PAIRS`` pairs; odd pairs run
the parent first, even pairs the change.  The output keeps every run's
end-to-end metrics with their median and quartiles (inclusive method),
and per workload the change/parent ratio of each pair for each metric.
Its ``claim`` says how many pairs the change won on ``CLAIM``'s metric
and workload, with the median of the pair ratios and the ratio of the
medians.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402  (perfbench/run.py: the workloads and the machine record)

PAIRS = 10
SEED = 7
SECONDS = 60
CLAIM = ("encode_s_per_audio_s", "sparse-stereo")   # lower is better


def run_once(checkout: Path, workload: str) -> tuple[dict, dict]:
    """The detail and result lines of one ``perfbench/run.py`` (which pins BLAS to one thread)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    detail, result = proc.stdout.splitlines()[-2:]
    return json.loads(detail)["detail"], json.loads(result)


def summary(runs: list[dict]) -> dict:
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = quantiles(values, n=4, method="inclusive")
        metrics[name] = {"unit": first["unit"], "median": median(values), "q1": q1,
                         "q3": q3, "iqr": q3 - q1, "values": values}
    return {"attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}

    out = {
        "commits": {},
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {SECONDS}",
        "method": f"{PAIRS} alternating pairs per workload (odd pairs parent first); "
                  "statistics over the per-run end-to-end metrics; quartiles by the "
                  "inclusive method; ratios are change / parent per pair",
        "machine": None,
        "workloads": {},
    }
    for workload in run.WORKLOADS:
        runs = {"parent": [], "change": []}
        for pair in range(1, PAIRS + 1):
            for side in ["parent", "change"] if pair % 2 else ["change", "parent"]:
                detail, result = run_once(checkouts[side], workload)
                runs[side].append(result)
                machine = dict(detail["machine"], blas_threads=1)
                out["commits"][side] = machine.pop("commit")
                out["machine"] = machine
                value = result["metrics"]["encode_s_per_audio_s"]["value"]
                print(f"{workload} pair {pair} {side}: encode {value:.4f} s/s", flush=True)
        out["workloads"][workload] = {
            "seeds": [SEED], "pairs": PAIRS,
            "parent": summary(runs["parent"]), "change": summary(runs["change"]),
            "pair_ratios": {
                name: [c["metrics"][name]["value"] / p["metrics"][name]["value"]
                       if p["metrics"][name]["value"] else None
                       for p, c in zip(runs["parent"], runs["change"])]
                for name in runs["parent"][0]["metrics"]
            },
        }
    metric, workload = CLAIM
    entry = out["workloads"][workload]
    ratios = entry["pair_ratios"][metric]
    out["claim"] = {
        "metric": metric, "workload": workload,
        "pairs_won": f"{sum(r < 1 for r in ratios)}/{len(ratios)}",
        "median_ratio": median(ratios),
        "ratio_of_medians": (entry["change"]["metrics"][metric]["median"]
                             / entry["parent"]["metrics"][metric]["median"]),
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
