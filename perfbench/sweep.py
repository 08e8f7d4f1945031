"""Run the benchmark over several seeds and summarise it as a trajectory entry.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/trajectory/BENCH_<name>.json \
        --note "<commit>, <hardware>"

For every workload: ten untraced runs, one per seed, give each end-to-end
metric's median, quartiles and spread (quartile distance over median, the
figure the bounds in BENCHMARK.json limit); then two traced runs at the
first seed give the per-module metrics and show whether the counts repeat.
Runs are sequential; each is ``run.py`` in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = (".calls", ".entries", ".max_dim", ".cochains")


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def summarise(runs) -> dict:
    out = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "values": values}
    return out


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--note", default="", help="commit and hardware measured")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    entry = {"note": args.note, "python": platform.python_version(),
             "machine": platform.machine(), "cpus": os.cpu_count(),
             "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, seconds, 0) for s in args.seeds]
        traced = [run_once(workload, args.seeds[0], seconds, 1) for _ in range(2)]
        end_to_end = summarise(runs)
        for name, s in end_to_end.items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  above a third of its bound"
            print(f"{workload} {name}: median {s['median']:.6g} {s['unit']}, "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
        layers = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        unstable = [k for k in layers if k.endswith(COUNTS)
                    and traced[1]["metrics"][k]["value"] != layers[k]]
        print(f"{workload}: counts that differ between two traced runs: {unstable or 'none'}")
        entry["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": layers,
            "counts_repeat": not unstable,
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
