"""polyiter benchmark: one workload, timed end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  Rounds of the workload run one after the
other, each in a fresh single-threaded process, until ``--seconds`` have
passed (at least MIN_ROUNDS of them).  Every round checks all of its
outputs; metrics are medians over rounds.

* ``--trace 0``: ``wall_s`` (the workload's operations, untraced),
  ``setup_s`` (process start until numpy and every polyiter module are
  imported) and ``peak_rss_mb`` (``ru_maxrss`` of the round's process).
* ``--trace 1``: untraced and traced rounds alternate.  Traced rounds give
  ``<module>.<function>.{calls,self_s}`` and the counters in tracing.py;
  ``trace_overhead_s`` is traced minus untraced ``wall_s``.

Each metric is printed as "name value unit"; the last line of stdout is
the JSON summary {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_ROUNDS = 3
SETUP_SAMPLES = 15  # set-up is sampled in every round and topped up to this
DEADLINE_S = 150  # no round starts after this, so a run ends well within 180 s
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class RoundFailed(RuntimeError):
    pass


def _git_sha() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _round(workload: str, seed: int, trace: bool, workdir: str, timeout: float) -> dict:
    """Start one worker process, wait for it and return its JSON result."""
    env = dict(os.environ, **SINGLE_THREAD)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, str(seed),
           "1" if trace else "0", workdir]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"{workload} round exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    package = os.path.dirname(os.path.realpath(result["package"]))
    if package != os.path.realpath(os.path.join(ROOT, "src", "polyiter")):
        raise RoundFailed(f"imported polyiter from {result['package']}, not from this checkout")
    result["setup_s"] = result["ready"] - spawned
    return result


def _measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> list[dict]:
    """Rounds until `seconds` have passed; traced runs alternate plain/traced."""
    rounds: list[dict] = []
    start = time.monotonic()
    min_rounds = 4 if trace else MIN_ROUNDS
    while len(rounds) < min_rounds or time.monotonic() - start < seconds:
        elapsed = time.monotonic() - start
        if elapsed > DEADLINE_S:
            break
        traced = trace and len(rounds) % 2 == 1
        result = _round(workload, seed, traced, workdir, timeout=170 - elapsed)
        result["traced"] = traced
        rounds.append(result)
    return rounds


def _setup_samples(rounds: list[dict], workdir: str) -> list[float]:
    samples = [r["setup_s"] for r in rounds]
    while len(samples) < SETUP_SAMPLES:
        samples.append(_round("-", 0, False, workdir, timeout=30)["setup_s"])
    return samples


def _check_rounds(rounds: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all rounds, plus messages.

    Beyond each round's own checks, every round must produce the digests of
    the first: the same seed gives the same outputs, traced or not.
    """
    attempted = failed = 0
    messages: list[str] = []
    reference = rounds[0]["digests"]
    for i, r in enumerate(rounds):
        attempted += r["attempted"]
        bad = set(r["failures"])
        bad |= {name for name, value in r["digests"].items() if reference.get(name) != value}
        failed += len(bad)
        for name in sorted(bad):
            detail = r["failures"].get(name, "output differs from the first round")
            messages.append(f"round {i} ({'traced' if r['traced'] else 'plain'}) {name}: {detail}")
    return attempted, failed, messages


def _layer_metrics(rounds: list[dict]) -> dict[str, float]:
    """Medians over traced rounds, plus traced minus untraced wall time."""
    traced = [r["layers"] for r in rounds if r["traced"]]
    out = {name: statistics.median(layers[name] for layers in traced) for name in traced[0]}
    out["trace_overhead_s"] = (
        statistics.median(r["wall_s"] for r in rounds if r["traced"])
        - statistics.median(r["wall_s"] for r in rounds if not r["traced"])
    )
    return out


def main(argv: list[str] | None = None) -> int:
    # workloads and metric names and units are declared once, in BENCHMARK.json
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "polyiter", "__init__.py")):
        print(f"no polyiter sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "_work"))
    try:
        rounds = _measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        setup = [] if args.trace else _setup_samples(rounds, workdir)
    except RoundFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, messages = _check_rounds(rounds)
    for message in messages[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        values = _layer_metrics(rounds)
        values["error_rate"] = failed / attempted
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    metrics = {m["name"]: (values.pop(m["name"]), m["unit"])
               for m in declared["per_layer" if args.trace else "end_to_end"]}

    env = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": rounds[0]["numpy"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "traced_rounds": sum(r["traced"] for r in rounds),
        "round_wall_s": [round(r["wall_s"], 4) for r in plain],
        "setup_samples_s": [round(s, 4) for s in setup],
    }
    print("# env " + json.dumps(env))
    print("# digests " + json.dumps(rounds[0]["digests"], sort_keys=True))
    if args.trace:
        print("# wrapped " + json.dumps(rounds[1]["patched"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, value in values.items():
        print(f"# unlisted {name} {value:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
