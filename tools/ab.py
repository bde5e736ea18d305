"""A/B benchmark of two revisions: alternating pairs of perfbench runs.

    python3 tools/ab.py PARENT_REV [CHANGE_REV]

Run from a git checkout of polyiter.  CHANGE_REV defaults to HEAD; for
uncommitted work, stage it and pass ``$(git stash create)``.  Both
revisions are ``git archive``d into sibling directories ``parent`` and
``change`` of one temporary directory, so their paths have the same length:
``peak_rss_mb`` moves by about 0.1 MB with the length of the run directory.
Every workload in BENCHMARK.json gets 10 pairs.  Each pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
each tree, with seed i + 1 for pair i, T the benchmark's ``run_seconds``,
the parent first in even pairs and the change first in odd ones.

For each workload and end-to-end metric it prints the two medians, the
quartiles of the parent's runs, the pairs the change won and a verdict
(see summarize).  The bounds and directions are read from the change's
BENCHMARK.json.  Exit status 1 if any run failed or reported
``correct: false``, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, the parent's quartiles and IQR, wins and a verdict for one
    metric over pairs (parent[i], change[i]).  A pair is a win when the
    change is strictly better.  The verdict is "resolved gain" when there
    are at least 10 pairs, the change wins at least 9 in 10 of them and its
    median is better by more than the parent's IQR; "worse" when its median
    is worse by more than bound, in the metric's unit; else "unresolved"."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs of runs")
    sign = 1 if better == "lower" else -1
    base, new = statistics.median(parent), statistics.median(change)
    low, _, high = statistics.quantiles(parent, n=4)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gain = sign * (base - new)
    if len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gain > high - low:
        verdict = "resolved gain"
    elif -gain > bound:
        verdict = "worse"
    else:
        verdict = "unresolved"
    return {"parent": base, "change": new, "q1": low, "q3": high, "iqr": high - low,
            "wins": wins, "pairs": len(parent), "verdict": verdict}


def _archive(rev: str, dest: str) -> None:
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The JSON summary of one perfbench run in tree, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"# {os.path.basename(tree)} {workload} seed {seed}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("change_rev", nargs="?", default="HEAD")
    args = parser.parse_args(argv)

    base = tempfile.mkdtemp(prefix="polyiter-ab-")
    trees = {"parent": os.path.join(base, "parent"), "change": os.path.join(base, "change")}
    ok = True
    try:
        for side, rev in (("parent", args.parent_rev), ("change", args.change_rev)):
            _archive(rev, trees[side])
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as handle:
            declared = json.load(handle)
        seconds = declared["run_seconds"]
        for workload in (w["name"] for w in declared["workloads"]):
            values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = _run(trees[side], workload, i + 1, seconds)
                    if result is None or result["correct"] is not True:
                        ok = False
                        continue
                    for name, metric in result["metrics"].items():
                        values[side].setdefault(name, []).append(metric["value"])
            for metric in declared["end_to_end"]:
                name = metric["name"]
                parent, change = values["parent"].get(name, []), values["change"].get(name, [])
                if len(parent) != PAIRS or len(change) != PAIRS:
                    print(f"{workload} {name}: incomplete, {len(parent)} and {len(change)} runs")
                    continue
                s = summarize(parent, change, metric["better"], metric["bound"])
                print(f"{workload} {name} ({metric['unit']}, {metric['better']} is better, "
                      f"bound {metric['bound']}): parent {s['parent']:.4g} "
                      f"[IQR {s['iqr']:.4g}: {s['q1']:.4g}-{s['q3']:.4g}], change "
                      f"{s['change']:.4g}, wins {s['wins']}/{s['pairs']}: {s['verdict']}")
                print(f"# {workload} {name} pairs: "
                      + ", ".join(f"{p:.4g}/{c:.4g}" for p, c in zip(parent, change)))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
