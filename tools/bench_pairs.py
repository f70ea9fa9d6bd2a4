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
Each workload also lists, under ``worse_than_bound``, every end-to-end
metric of ``BENCHMARK.json`` whose change median is worse than the
parent's by more than the metric's bound, in its ``better`` direction.

``claim`` is null unless ``--claim METRIC WORKLOAD`` is given; then it
says how many pairs the change won on that metric and workload (a pair
is won when its ratio is below 1 for a lower-is-better metric, above 1
for a higher-is-better one), with the median of the pair ratios and the
ratio of the medians.
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

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
PAIRS = 10
SEED = 7
SECONDS = 60


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


def compare(parent: list[dict], change: list[dict], metrics: dict[str, dict]) -> dict:
    """A workload's entry from its runs, in pair order: summaries, pair ratios
    and the end-to-end metrics worse than their bound."""
    entry = {"seeds": [SEED], "pairs": len(parent),
             "parent": summary(parent), "change": summary(change),
             "pair_ratios": {
                 name: [c["metrics"][name]["value"] / p["metrics"][name]["value"]
                        if p["metrics"][name]["value"] else None
                        for p, c in zip(parent, change)]
                 for name in parent[0]["metrics"]}}
    worse = []
    for name, spec in metrics.items():
        if name in entry["parent"]["metrics"]:
            p = entry["parent"]["metrics"][name]["median"]
            c = entry["change"]["metrics"][name]["median"]
            sign = 1 if spec["better"] == "lower" else -1
            if sign * (c - p) > spec["bound"] * abs(p):
                worse.append(name)
    entry["worse_than_bound"] = worse
    return entry


def claim(entry: dict, metric: str, workload: str, better: str) -> dict:
    """How the change fared on ``metric`` of one workload's ``entry``."""
    ratios = entry["pair_ratios"][metric]
    won = sum(r is not None and (r < 1 if better == "lower" else r > 1) for r in ratios)
    return {
        "metric": metric, "workload": workload, "better": better,
        "pairs_won": f"{won}/{len(ratios)}",
        "median_ratio": median(r for r in ratios if r is not None),
        "ratio_of_medians": (entry["change"]["metrics"][metric]["median"]
                             / entry["parent"]["metrics"][metric]["median"]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--claim", nargs=2, metavar=("METRIC", "WORKLOAD"),
                    help="count the pairs the change won on this end-to-end metric")
    args = ap.parse_args(argv)
    # each end-to-end metric by name, with its ``better`` and ``bound``
    metrics = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    if args.claim and (args.claim[0] not in metrics or args.claim[1] not in run.WORKLOADS):
        ap.error(f"--claim takes one of {sorted(metrics)} and one of {sorted(run.WORKLOADS)}")
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
        out["workloads"][workload] = compare(runs["parent"], runs["change"], metrics)
    out["claim"] = None
    if args.claim:
        metric, workload = args.claim
        out["claim"] = claim(out["workloads"][workload], metric, workload,
                             metrics[metric]["better"])
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
