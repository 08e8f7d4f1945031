"""One workload in one fresh, single-threaded interpreter.

Started by ``run.py``.  It imports the library, builds the workload's
inputs (the set-up), prints ``READY`` and then runs closed-loop passes over
the operation list: each operation starts when the previous one returned.
The last stdout line is a JSON record of every pass for ``run.py``.

With ``--trace 1`` a round is one untraced and one traced pass, the set-up
runs traced, and the record carries the span totals.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_pass(ops) -> dict:
    clock = time.perf_counter
    times, failures = [], []
    digest = hashlib.sha256()
    start = clock()
    for op in ops:
        t = clock()
        try:
            answer = op.run()
        except Exception as exc:  # a raising operation is a failed operation
            traceback.print_exc(file=sys.stderr)
            answer = f"raised {type(exc).__name__}: {exc}"
        times.append(clock() - t)
        if answer != op.expected:
            failures.append(f"{op.label}: got {answer!r}, expected {op.expected!r}")
        digest.update(repr(answer).encode())
    return {"wall": clock() - start, "times": times, "failures": failures,
            "digest": digest.hexdigest()}


def per_pass_layers(setup: dict, final: dict, passes: int) -> dict:
    """Set-up spans plus the average traced pass; every pass repeats the
    same operations, so counts stay whole numbers."""
    out = {}
    for key, value in final.items():
        if key.endswith(".max_dim"):
            out[key] = value
        else:
            spent = (value - setup[key]) / passes
            out[key] = setup[key] + (round(spent) if isinstance(value, int) else spent)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import crystaljet.cli  # noqa: F401  (timed: the CLI's import cost)
    import_s = time.perf_counter() - start

    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ops = workloads.build(args.workload, args.seed)
    if tracer:
        tracer.uninstall()
        setup_layers = tracer.snapshot()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # another round starts only if a round as long as the last one still
    # ends within --seconds; the first round always runs
    start = time.perf_counter()
    passes, last = [], 0.0
    while not passes or time.perf_counter() - start + last <= args.seconds:
        round_start = time.perf_counter()
        if not tracer:
            order = (False,)
        elif len(passes) % 4:  # odd traced rounds run the traced pass first,
            order = (True, False)  # so the first pass's warm-up is shared
        else:
            order = (False, True)
        for traced in order:
            if not traced:
                passes.append(dict(run_pass(ops), traced=False))
                continue
            tracer.install()
            try:
                passes.append(dict(run_pass(ops), traced=True))
            finally:
                tracer.uninstall()
        last = time.perf_counter() - round_start

    slot, labels = {}, []  # operation -> its index among the distinct ones
    for op in ops:
        if id(op) not in slot:
            slot[id(op)] = len(labels)
            labels.append(op.label)
    record = {
        "labels": labels,
        "slots": [slot[id(op)] for op in ops],
        "import_s": import_s,
        "passes": passes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        traced = sum(p["traced"] for p in passes)
        record["layers"] = per_pass_layers(setup_layers, tracer.snapshot(), traced)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
