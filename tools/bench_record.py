#!/usr/bin/env python3
"""Record the benchmark of BENCHMARK.json into a BENCH_*.json file.

Usage, from the repository root:

    python3 tools/bench_record.py --out BENCH_21.json
    python3 tools/bench_record.py --out BENCH_21.json --against HEAD~1

Each run is ``python3 perfbench/run.py`` in a child process; the last JSON
line of its stdout is its result.  Every run lasts BENCHMARK.json's
run_seconds.  Without --against, the working tree runs each workload ten
times at --trace 0, plus one --trace 1 run, which traces every workload.
With --against REV, the committed files of REV are extracted (``git
archive``) into a temporary directory outside the repository, and the two
sides run in ten alternating pairs: pair i runs both sides at seed i + 1,
the working tree first in even pairs and REV first in odd ones.  The file
holds each side's runs, median and quartiles per metric
and workload, the pairs each side won, the machine facts that run.py prints,
``cat src/robinsl/*.py | wc -l``, ``cat tests/*.py | wc -l`` and the
length of ``robinsl.__all__`` (read from ``src/robinsl/__init__.py`` with
``ast``, not imported) of each side, so that code moved from the package
into the tests reads as a move.  After the benchmark
runs, each side runs its Tier-1 suite once (ROADMAP.md's command, with
``--durations=0`` and ``-rf``, without pytest's cache); the file holds its wall time, its summary line,
its ``FAILED ...`` lines and the share of that time the acceptance bound check, criterion 5, took.
Each side also records, in a fresh interpreter, the tracemalloc peak in MiB of criterion 5's
``check_bounds`` call and of a bound_check-sized one (250 samples per class, --pieces-max 16).
Each untraced run also records its call count, N x P from run.py's "batch of N calls ...
replayed P times" line, beside each workload's metrics.  run.py keeps three floats per
replayed call (~100-120 B), so its ``peak_rss_mb`` grows with the calls a run makes: a side
that is faster makes more calls in the same run_seconds, and a ``peak_rss_mb`` move should be
set against the change of calls times ~100-120 B before it is read as the program's.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
CRITERION_5 = "tests/test_acceptance.py::test_criterion_5_randomized_bound_holding"
#: run.py's untraced summary line: "workload W: batch of N calls (I items) replayed P times ..."
BATCH_LINE = re.compile(r"workload \S+: batch of (\d+) calls \(\d+ items\) replayed (\d+) times")


def _run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in root: its result, the machine facts and, untraced, the call count it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout.splitlines()
    machine = next((json.loads(line[len("machine: ") :]) for line in out if line.startswith("machine: ")), None)
    batch = next((m for m in map(BATCH_LINE.match, out) if m), None)
    result = json.loads(next(line for line in reversed(out) if line.startswith("{")))
    return {"machine": machine, "failed": result["failed"], "attempted": result["attempted"], "metrics": result["metrics"],
            "calls": int(batch[1]) * int(batch[2]) if batch else None}


def _tier1(root: Path) -> dict:
    """One Tier-1 run in root: its wall time, summary line, failed tests and criterion 5's call time and share."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "--durations=0", "-rf"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True).stdout
    wall = time.perf_counter() - t0
    lines = out.splitlines()
    # a durations line reads "5.52s call     tests/...::test_name"
    c5 = [float(x.split("s ", 1)[0]) for x in lines if x.endswith(CRITERION_5) and " call " in x]
    return {
        "wall_s": wall,
        "summary": lines[-1] if lines else None,
        "failed": [x for x in lines if x.startswith("FAILED ")],
        "criterion_5_s": c5[0] if c5 else None,
        "criterion_5_share": c5[0] / wall if c5 else None,
    }


#: check_bounds calls whose memory each side records: criterion 5's, and one
#: the size of a bound_check item's at its larger --pieces-max
MEMORY_CALLS = {
    "criterion_5": "RobinBC(0.25, 0.5), 10**4, 8, 1",
    "bound_check_16": "RobinBC(0.25, 0.5), 250, 16, 1",
}


def _memory(root: Path) -> dict:
    """The tracemalloc peak, in MiB, of each MEMORY_CALLS call in root, one fresh interpreter each."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    peaks = {}
    for name, args in MEMORY_CALLS.items():
        code = (
            "import tracemalloc\n"
            "from robinsl import RobinBC, check_bounds\n"
            "tracemalloc.start()\n"
            f"check_bounds({args})\n"
            "print(tracemalloc.get_traced_memory()[1] / 2**20)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True)
        peaks[name] = float(out.stdout)
    return peaks


def _lines(root: Path, pattern: str) -> int:
    # cat <pattern> | wc -l, in root
    return sum(p.read_bytes().count(b"\n") for p in sorted(root.glob(pattern)))


def _all_names(root: Path) -> int:
    # len(robinsl.__all__) from the source: both sides' packages are named
    # robinsl, so one process cannot import both
    tree = ast.parse((root / "src" / "robinsl" / "__init__.py").read_text())
    return next(
        len(node.value.elts)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _record(sides: dict, bench: dict) -> dict:
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    names = list(sides)
    runs = {name: {w["name"]: [] for w in bench["workloads"]} for name in names}
    machine = None
    for i in range(PAIRS):
        order = names if i % 2 == 0 else names[::-1]
        for workload in runs[names[0]]:
            for name in order:
                r = _run(sides[name], workload, i + 1, seconds, 0)
                machine = machine or r["machine"]
                runs[name][workload].append(r)
                print(f"pair {i + 1}/{PAIRS} {workload} {name}: {json.dumps({k: v['value'] for k, v in r['metrics'].items()})}", file=sys.stderr, flush=True)
    workloads = {}
    for workload in runs[names[0]]:
        entry = {"failed": {name: [r["failed"] for r in runs[name][workload]] for name in names},
                 "calls": {name: _summary([r["calls"] for r in runs[name][workload]]) for name in names}, "metrics": {}}
        for metric, direction in better.items():
            values = {name: [r["metrics"][metric]["value"] for r in runs[name][workload]] for name in names}
            m = {name: _summary(values[name]) for name in names}
            m["better"] = direction
            if len(names) == 2:
                head, base = (values[name] for name in names)
                sign = 1.0 if direction == "higher" else -1.0
                m["pairs_won"] = {
                    names[0]: sum(sign * (a - b) > 0 for a, b in zip(head, base)),
                    names[1]: sum(sign * (b - a) > 0 for a, b in zip(head, base)),
                }
                m["median_change"] = m[names[0]]["median"] - m[names[1]]["median"]
                m["base_iqr"] = m[names[1]]["q3"] - m[names[1]]["q1"]
            entry["metrics"][metric] = m
        workloads[workload] = entry
    traced = {}
    for name in names:
        r = _run(sides[name], bench["workloads"][0]["name"], 1, seconds, 1)
        traced[name] = {"failed": r["failed"], "attempted": r["attempted"],
                        "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
    return {
        "machine": machine,
        "pairs": PAIRS,
        "run_seconds": seconds,
        "src_lines": {name: _lines(root, "src/robinsl/*.py") for name, root in sides.items()},
        "test_lines": {name: _lines(root, "tests/*.py") for name, root in sides.items()},
        "all_names": {name: _all_names(root) for name, root in sides.items()},
        "workloads": workloads,
        "trace": traced,
        "peak_mib": {name: _memory(root) for name, root in sides.items()},
        "tier1": {name: _tier1(root) for name, root in sides.items()},
    }


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="file to write, e.g. BENCH_21.json")
    ap.add_argument("--against", metavar="REV", help="a git revision to compare the working tree with")
    args = ap.parse_args()
    tmp = None
    try:
        sides = {"head": ROOT}
        if args.against:
            tmp = Path(tempfile.mkdtemp(prefix="bench_record_"))
            archive = subprocess.run(["git", "archive", args.against], cwd=ROOT, capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
            sides["base"] = tmp
        record = _record(sides, bench)
        if args.against:
            record["against"] = subprocess.run(
                ["git", "rev-parse", args.against], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        (ROOT / args.out).write_text(json.dumps(record, indent=1) + "\n")
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
