"""One round of one workload, in a fresh process (started by run.py).

The package and numpy are imported first, so that the moment they are
ready can be reported as the end of set-up.  The workload's operations are
then run back to back and timed as a whole; checks run after the clock has
stopped.  The last line of stdout is a JSON object for run.py.

Usage: worker.py ROOT WORKLOAD SEED TRACE WORKDIR   (TRACE is 0 or 1;
WORKLOAD "-" imports and exits, for set-up samples).
"""

import sys
import time

ROOT = sys.argv[1]
sys.path.insert(0, f"{ROOT}/src")

import numpy  # noqa: E402
import polyiter.cli  # noqa: E402,F401  (a command-line user imports every module)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> None:
    workload, seed, trace, workdir = sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1", sys.argv[5]
    result = {"ready": READY, "numpy": numpy.__version__, "package": polyiter.__file__}
    if workload == "-":
        print(json.dumps(result))
        return

    from tracing import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS, digest

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    ops = WORKLOADS[workload](seed, workdir)
    outcomes, failures = {}, {}
    if tracer:
        tracer.enabled = True
    start = time.perf_counter()
    for op in ops:
        try:
            outcomes[op.name] = op.run()
        except Exception:  # an operation that raises is counted as failed
            failures[op.name] = "raised: " + traceback.format_exc(limit=3)
    wall = time.perf_counter() - start
    if tracer:
        tracer.enabled = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")) as handle:
        pins = json.load(handle).get(workload, {}) if seed == DEFAULT_SEED else {}
    digests = {}
    for op in ops:
        if op.name in failures:
            continue
        try:
            payload, problems = op.verify(outcomes[op.name], outcomes)
        except Exception:  # a check that cannot run fails its operation
            failures[op.name] = "check raised: " + traceback.format_exc(limit=3)
            continue
        digests[op.name] = digest(payload)
        if op.name in pins and pins[op.name] != digests[op.name]:
            problems.append(f"output digest {digests[op.name]} != pinned {pins[op.name]}")
        if problems:
            failures[op.name] = "; ".join(problems[:3])
    result.update({
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failures": failures,
        "digests": digests,
        "layers": tracer.report() if tracer else None,
        "patched": tracer.patched if tracer else None,
    })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
