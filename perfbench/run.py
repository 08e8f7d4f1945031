"""crystaljet benchmark.

    python3 perfbench/run.py --workload mhd-contact --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each run starts fresh single-threaded worker
processes (``worker.py``) and measures them from outside:

* ``--trace 0`` gives the end-to-end metrics.  ``setup_s`` is the median,
  over several fresh interpreters, of the wall time from process start to
  inputs ready.  The measured worker then runs closed-loop passes over the
  workload's operation list for ``--seconds`` (always at least one whole
  pass) and reports ``ops_per_s`` (runs per second), ``op_p50_s`` and
  ``op_p90_s`` (quantiles over the operations, each timed by the mean of
  its runs) and ``peak_rss_mb``.
* ``--trace 1`` gives the per-module metrics from one worker that
  alternates untraced and traced passes: time, self time and calls of each
  wrapped library function, the counters, ``trace.overhead_frac`` and
  ``error_rate``.

Every operation's answer is checked against a pinned value; a traced pass
must also produce exactly the answers of the untraced pass.  Human-readable
lines come first; the last stdout line is the JSON result.  The exit code
is 1 when any operation failed or the program is not there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _spawn(args, extra=()):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    # fixed string hashing makes set iteration, and so every count, repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, env=env)


def _await_ready(proc, started: float, deadline: float) -> float:
    """Seconds from ``started`` until the worker prints READY."""
    line = b""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while not line.endswith(b"\n"):
            if not sel.select(max(0.0, deadline - time.monotonic())):
                raise BenchError("worker set-up timed out")
            chunk = os.read(proc.stdout.fileno(), 1)
            if not chunk:
                raise BenchError(f"worker exited during set-up (code {proc.wait()})")
            line += chunk
    ready = time.perf_counter() - started
    if line.strip() != b"READY":
        raise BenchError(f"unexpected worker output {line!r}")
    return ready


def _run_worker(args, deadline: float, extra=()):
    """(set-up seconds, last stdout line of the worker)."""
    started = time.perf_counter()
    proc = _spawn(args, extra)
    try:
        setup_s = _await_ready(proc, started, deadline)
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def _p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s", "import_s")):
        return "s"
    return "ratio" if name.endswith(("overhead_frac", "error_rate")) else "count"


def measure(args) -> tuple[dict, list]:
    deadline = time.monotonic() + TIME_LIMIT_S
    probes = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probes.append(_run_worker(args, deadline, ["--setup-only"])[0])
    setup_s, line = _run_worker(args, deadline)
    record = json.loads(line)
    probes.append(setup_s)

    passes = record["passes"]
    plain = [p for p in passes if not p["traced"]]
    failures = [f for p in passes for f in p["failures"]]
    labels, slots = record["labels"], record["slots"]
    attempted = len(passes) * len(slots)
    # an operation's time is the mean of its untraced runs
    runs = [[] for _ in labels]
    for p in plain:
        for i, t in zip(slots, p["times"]):
            runs[i].append(t)
    op_times = [statistics.fmean(r) for r in runs]
    info = [f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
            f"{len(passes) - len(plain)} traced passes of {len(slots)} runs of "
            f"{len(labels)} operations"]
    slowest = sorted(zip(op_times, labels), reverse=True)[:4]
    info += [f"slow operation {t:.3f} s: {label}" for t, label in slowest]
    info += [f"FAILED {f}" for f in failures]
    error_rate = len(failures) / attempted
    info.append(f"error_rate {error_rate} ({len(failures)} of {attempted} runs failed)")

    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        info.append("FAILED passes gave different answers; every pass, traced or not, must match")

    if args.trace:
        layers = dict(record["layers"])
        layers["cli.import_s"] = record["import_s"]
        traced_wall = sum(p["wall"] for p in passes if p["traced"])
        layers["trace.overhead_frac"] = traced_wall / sum(p["wall"] for p in plain) - 1
        layers["error_rate"] = error_rate
        metrics = {k: _metric(v, _layer_unit(k)) for k, v in sorted(layers.items())}
    else:
        ok = attempted - len(failures)
        metrics = {
            "setup_s": _metric(statistics.median(probes), "s"),
            "ops_per_s": _metric(ok / sum(p["wall"] for p in plain), "1/s"),
            "op_p50_s": _metric(statistics.median(op_times), "s"),
            "op_p90_s": _metric(_p90(op_times), "s"),
            "peak_rss_mb": _metric(record["maxrss_kb"] / 1024, "MiB"),
        }
        info.append(f"{len(probes)} set-up samples; {len(op_times)} operation samples, "
                    f"{len(op_times) - math.ceil(0.9 * len(op_times))} beyond op_p90_s")
    result = {
        "correct": not failures and len(digests) == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crystaljet" / "__init__.py").is_file():
        print(f"error: no crystaljet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, info = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in info:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
