"""Run bench/run.py over several seeds and summarize every metric.

    python3 bench/summarize.py --workloads all --seeds 1-10 --seconds 18 \
        --out bench/trajectory/NNN-name.json

Runs are sequential, one fresh process each.  For every workload and metric
it prints the median, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median against the metric's bound from BENCHMARK.json, and the
sample counts; ``--trace`` adds one traced run per workload (first seed) with
the per-layer metrics.  ``--out`` writes the same data, plus nproc and the
Python/numpy/scipy versions, as one trajectory point.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "finsler_trace", "indicatrix", "zoll_geodesic")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = WORKLOADS if args.workloads == "all" else args.workloads.split(",")
    seeds = seed_list(args.seeds)

    point = {"date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
             "nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__,
             "seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            res = runs[-1]
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "metrics": {},
                 "raw": {"ops_per_s": summarize([r["detail"]["ops_per_s"] for r in runs]),
                         "op_p50_s": summarize([r["detail"]["op_time_s"]["p50"]
                                                for r in runs]),
                         "error_rate": summarize([r["detail"]["error_rate"] for r in runs])},
                 "runs": [r["detail"] for r in runs]}
        for name, metric in runs[0]["metrics"].items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = metric["unit"]
            stats["bound"] = bounds.get(name)
            entry["metrics"][name] = stats
            flag = "" if stats["bound"] is None or stats["spread"] <= stats["bound"] / 3 \
                else "  <-- spread above a third of the bound"
            print(f"  {name:26s} median {stats['median']:.6g} {metric['unit']:5s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                  f"spread {stats['spread']:.3f} (bound {stats['bound']}){flag}", flush=True)
        for name, stats in entry["raw"].items():
            print(f"  raw {name:22s} median {stats['median']:.6g} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}", flush=True)
        if args.trace:
            traced = run_once(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
            entry["per_layer_seed"] = seeds[0]
            for name, value in entry["per_layer"].items():
                print(f"  {name} = {value!r} {traced['metrics'][name]['unit']}")
        point["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
