"""Check that the spans see every call of the functions they wrap.

    python3 perfbench/check_interception.py corpus-small [seed]

Runs one traced pass of the workload under ``sys.setprofile`` and counts
the calls that reach each wrapped function's own code.  A call made through
a reference the tracer could not replace (one captured before installation)
reaches the code without passing the wrapper, so it shows as a surplus of
profiled calls over span calls.  Slow: every Python call is profiled.
"""

from __future__ import annotations

import sys
from collections import Counter

import spans
import workloads
from worker import ROOT, run_pass


def main(argv) -> int:
    name = argv[0]
    seed = int(argv[1]) if len(argv) > 1 else 1
    ops = workloads.build(name, seed)
    tracer = spans.Tracer()
    codes = {}
    for metric, module, path in spans.TARGETS:
        owner, attr = spans.resolve(module, path)
        fn = getattr(owner, attr)
        fn = getattr(fn, "__wrapped__", fn)  # the function behind an lru_cache
        codes[fn.__code__] = metric
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call":
            metric = codes.get(frame.f_code)
            if metric is not None:
                seen[metric] += 1

    tracer.install()
    sys.setprofile(profile)
    try:
        result = run_pass(ops)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    missed = 0
    for metric, _, _ in spans.TARGETS:
        wrapped = tracer.stats[metric][2]
        surplus = seen[metric] - wrapped
        missed += surplus > 0
        print(f"{metric}: {wrapped} span calls, {seen[metric]} profiled"
              + (f"  NOT INTERCEPTED: {surplus}" if surplus > 0 else ""))
    print(f"{len(result['failures'])} failed operations; "
          f"{missed} functions with calls the spans missed")
    return 1 if missed or result["failures"] else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
