#!/usr/bin/env python3
"""robinsl benchmark: drives robinsl.cli.main in-process on seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload bound_check --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: the next CLI call starts when the
previous one returns.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics of the named workload; --trace 1 traces every workload and reports
per-layer metrics (see perfbench/README.md).
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is imported here or in a child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("bound_check", "extrema_grid", "eigen_profile")
#: fresh interpreters timed for setup_s, spread over the run; the median is
#: reported
SETUP_PROBES = 12
PROBE_TIMEOUT_S = 120
#: the timed batch is replayed at least this often, and for --seconds
MIN_PASSES = 3
#: the reference work is timed between calls at least this often (seconds)
REF_EVERY_S = 0.025
#: duration of the reference work at the fast speed level of the reference
#: machine (2-vCPU VM, Python 3.11); times are reported scaled by REF_S over
#: the reference time measured next to them (see README, "Noise")
REF_S = 1.8e-4

#: traced layers reported per workload (the layers each workload calls)
TRACED = {
    "bound_check": (
        "cli.main", "verify.check_bounds", "verify._draw", "eigensolver.lambda1_value",
        "eigensolver.compile_arrays", "_kernels.lambda1_kernel", "_kernels.shoot_kernel",
        "extrema.all_extrema", "extrema.inf_minus", "extrema.left_half_eigenvalue",
        "extrema.right_half_eigenvalue", "serialize.dumps",
    ),
    "extrema_grid": (
        "cli.main", "extrema.all_extrema", "extrema.inf_minus", "extrema.left_half_eigenvalue",
        "extrema.right_half_eigenvalue", "eigensolver.lambda1_value", "eigensolver.compile_arrays",
        "_kernels.lambda1_kernel", "_kernels.shoot_kernel", "serialize.dumps",
    ),
    "eigen_profile": (
        "cli.main", "fmap.delta_strength", "eigensolver.lambda1", "eigensolver.compile_arrays",
        "eigensolver._sample_eigenfunction", "eigensolver.fd_lambda1", "_kernels.lambda1_kernel",
        "_kernels.shoot_kernel", "serialize.dumps", "serialize.csv_lines",
    ),
}


def _reference_work():
    """Fixed pure-Python work (float recurrence, formatting, a dict), ~0.2 ms."""
    y, yp, rows = 1.0, 0.0, []
    for i in range(1000):
        q = math.sin(1.5e-3 * i) - 0.5
        y, yp = y + 1e-3 * yp, yp + 1e-3 * q * y
        if i % 10 == 0:
            rows.append(("%.12g" % y, i))
    return len(dict(rows))


def reference_s(reps=3):
    """Fastest of `reps` timings of the reference work, in seconds."""
    clock = time.perf_counter
    best = math.inf
    for _ in range(reps):
        t0 = clock()
        _reference_work()
        best = min(best, clock() - t0)
    return best


class Speed:
    """Scales call times by the host's speed, measured with the reference work.

    Calls are queued with add(); tick() times the reference work once at least
    REF_EVERY_S has passed, and scales every queued call by REF_S over the mean
    of the reference times before and after it.
    """

    def __init__(self):
        self.pending = []
        self.factors = []
        self.restart()

    def restart(self):
        """Time the reference work afresh, after a pause in the calls."""
        self.last = reference_s()
        self.at = time.perf_counter()

    def add(self, fn, *times):
        self.pending.append((fn, times))

    def tick(self, force=False):
        if not force and time.perf_counter() - self.at < REF_EVERY_S:
            return
        now = reference_s()
        factor = REF_S / (0.5 * (self.last + now))
        for fn, times in self.pending:
            fn(*(t * factor for t in times))
        self.pending = []
        self.factors.append(factor)
        self.last, self.at = now, time.perf_counter()


def _import_robinsl():
    """Import robinsl from this checkout's src/, or exit without a result."""
    if not (SRC / "robinsl" / "__init__.py").is_file():
        sys.exit(f"perfbench: robinsl sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import robinsl

    if Path(robinsl.__file__).resolve().parent != (SRC / "robinsl").resolve():
        sys.exit(f"perfbench: imported robinsl from {robinsl.__file__}, not {SRC}")


class Tally:
    """Outcome counts of the items run, each counted once, with the failed items
    listed by seed and index.  A replay is checked again, and an outcome that
    differs from the item's first one counts as broken."""

    def __init__(self, seed):
        self.seed = seed
        self.attempted = self.failed = self.broken = 0
        self.status: dict = {}  # (workload, index) -> first outcome status
        self.failures: list = []

    def add(self, workload, item, outcome):
        key = (workload, item.index)
        if key in self.status:
            if outcome.status != self.status[key]:
                self.broken += 1
                self.failures.append({"workload": workload, "seed": self.seed, "index": item.index,
                                      "status": "broken", "reason": "outcome changed on replay: "
                                      f"{self.status[key]} then {outcome.status}"})
            return
        self.status[key] = outcome.status
        self.attempted += item.samples
        if outcome.status != "ok":
            self.failed += item.samples
            self.broken += outcome.status == "broken"
            self.failures.append(
                {"workload": workload, "seed": self.seed, "index": item.index,
                 "status": outcome.status, "reason": outcome.reason[:200], **item.desc})

    def result(self, metrics):
        failures = self.failures
        for f in failures[:20]:
            print("failure: " + json.dumps(f))
        if len(failures) > 20:
            print(f"failure: ... {len(failures) - 20} more")
        return {"correct": self.broken == 0, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


# ------------------------------------------------------------------- set-up


def setup_probe(workload, seed, workdir):
    """Child mode: time the imports and the workload's first CLI call, and the
    reference work before and after them; print JSON."""
    ref_before = reference_s(reps=20)
    t0 = time.perf_counter()
    _import_robinsl()
    import workloads as wl  # imports robinsl.cli and everything it calls

    import_s = time.perf_counter() - t0
    item = wl.first_item(workload, seed, workdir)
    _, call_s, _ = wl.run_item(item, time.perf_counter)
    ref_after = reference_s(reps=20)
    print(json.dumps({"wall_s": import_s + call_s, "ref_s": 0.5 * (ref_before + ref_after)}))


def setup_sample(workload, seed, workdir):
    """(scaled, wall) set-up seconds of one fresh interpreter running setup_probe."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["wall_s"] * REF_S / probe["ref_s"], probe["wall_s"]


# --------------------------------------------------------------- untraced run


def run_untraced(workload, seed, seconds, workdir):
    """Replay a fixed batch for `seconds`; time metrics use each item's median
    scaled time over its replays."""
    import workloads as wl

    make, cycle, batch_cycles, _ = wl.WORKLOADS[workload]
    clock = time.perf_counter
    tally = Tally(seed)
    # warm-up (lazy imports, first-use allocations) on the set-up item, which
    # is not in the batch
    wl.run_item(wl.first_item(workload, seed, workdir), clock)
    batch = [make(seed, index, workdir) for index in range(cycle, cycle * (1 + batch_cycles))]
    busy = [[] for _ in batch]  # scaled call+oracle seconds of each replay of each item
    call = [[] for _ in batch]  # scaled call seconds
    raw_busy = [[] for _ in batch]  # unscaled call+oracle seconds
    setup = []
    speed = Speed()
    passes = 0
    t_start = clock()
    paused = 0.0  # time spent in set-up probes, which does not count towards seconds
    while passes < MIN_PASSES or clock() - t_start - paused < seconds:
        passes += 1
        for k, item in enumerate(batch):
            # the set-up probes are spread over the run, between two reference
            # timings of the parent
            if len(setup) < SETUP_PROBES and clock() - t_start - paused >= len(setup) * seconds / SETUP_PROBES:
                speed.tick(force=True)
                t0 = clock()
                setup.append(setup_sample(workload, seed, workdir))
                paused += clock() - t0
                speed.restart()
            outcome, call_s, busy_s = wl.run_item(item, clock)
            tally.add(workload, item, outcome)
            raw_busy[k].append(busy_s)
            speed.add(lambda c, b, k=k: (call[k].append(c), busy[k].append(b)), call_s, busy_s)
            speed.tick()
    speed.tick(force=True)
    wall = clock() - t_start - paused
    setup += [setup_sample(workload, seed, workdir) for _ in range(SETUP_PROBES - len(setup))]
    med = statistics.median
    items = sum(item.samples for item in batch)
    deciles = statistics.quantiles([med(c) / item.samples for c, item in zip(call, batch)], n=10,
                                   method="inclusive")
    metrics = {
        "setup_s": (med(s for s, _ in setup), "s"),
        "items_per_s": (items / sum(med(b) for b in busy), "1/s"),
        "item_p50_ms": (deciles[4] * 1e3, "ms"),
        "item_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    factors = statistics.quantiles(speed.factors, n=4) if len(speed.factors) > 1 else speed.factors * 3
    print(f"workload {workload}: batch of {len(batch)} calls ({items} items) replayed "
          f"{passes} times in {wall:.3f} s wall; {tally.attempted} items attempted, each counted once")
    print(f"host speed (REF_S / reference time), quartiles: {' '.join(f'{f:.3f}' for f in factors)}")
    print(f"unscaled: items_per_s {items / sum(med(b) for b in raw_busy):.6g} 1/s, "
          f"setup_s {med(w for _, w in setup):.6g} s")
    print(f"setup samples (scaled) {[round(x, 4) for x, _ in setup]}")
    print(f"failed_ratio {tally.failed / tally.attempted:.6f} ({tally.failed} of {tally.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return tally.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


# ----------------------------------------------------------------- traced run


def _trace_workload(workload, seed, budget, workdir, tally):
    """Alternate untraced and traced passes over a fixed batch within budget seconds."""
    import tracing
    import workloads as wl

    make, cycle, _, trace_cycles = wl.WORKLOADS[workload]
    indices = range(cycle, cycle + cycle * trace_cycles)
    clock = time.perf_counter

    def one_pass(record):
        # items are rebuilt inside the pass so eigen_profile's strength-map
        # look-ups are traced; the untraced pass does the same work
        t0 = clock()
        for index in indices:
            item = make(seed, index, workdir)
            outcome, _, _ = wl.run_item(item, clock)
            if record:
                tally.add(workload, item, outcome)
        return clock() - t0

    one_pass(False)  # warm-up
    plain, traced, summaries = [], [], []
    t_start = clock()
    while not traced or clock() - t_start < budget:
        plain.append(one_pass(True))
        with tracing.Tracer() as tr:
            traced.append(one_pass(True))
        summaries.append(tracing.summarize(tr))
        last = tr
    base = last.spans[0][1]
    spans = [[n, round(t0 - base, 9), round(t1 - base, 9), p] for n, t0, t1, p in last.spans]

    metrics = {}
    for layer in TRACED[workload]:
        recs = [s["layers"].get(layer, {"self_s": 0.0, "calls": 0, "p50_s": 0.0}) for s in summaries]
        metrics[f"{workload}.{layer}.self_ms"] = (min(r["self_s"] for r in recs) * 1e3, "ms")
        metrics[f"{workload}.{layer}.calls"] = (recs[0]["calls"], "count")
        metrics[f"{workload}.{layer}.p50_us"] = (min(r["p50_s"] for r in recs) * 1e6, "us")
    shots = summaries[0]["shots_per_solve"]
    metrics[f"{workload}._kernels.shots_per_solve.mean"] = (sum(shots) / len(shots), "count")
    metrics[f"{workload}._kernels.shots_per_solve.max"] = (max(shots), "count")
    if "extrema.left_half_eigenvalue" in TRACED[workload]:
        metrics[f"{workload}.extrema.half_eigenvalue.calls"] = (summaries[0]["half_eigenvalue_calls"], "count")
    metrics[f"{workload}.serialize.bytes"] = (last.out_bytes, "bytes")
    # fastest passes, for the same reason the end-to-end time metrics use
    # each item's fastest replay
    overhead = min(traced) - min(plain)
    metrics[f"{workload}.trace_overhead_ms"] = (overhead * 1e3, "ms")
    print(f"trace {workload}: {len(indices)} calls per pass, {len(traced)} pass pairs, "
          f"fastest untraced pass {min(plain):.4f} s, fastest traced pass {min(traced):.4f} s, "
          f"overhead {overhead:.4f} s")
    return metrics, spans


def run_traced(seed, seconds, workdir):
    import workloads as wl

    tally = Tally(seed)
    metrics, spans = {}, {}
    for workload in WORKLOAD_NAMES:
        m, spans[workload] = _trace_workload(workload, seed, seconds / len(WORKLOAD_NAMES), workdir, tally)
        metrics.update(m)
    out = WORK / f"trace-seed{seed}.json"
    out.write_text(json.dumps({"machine": wl.machine_facts(), "seed": seed, "spans": spans}))
    print(f"spans of the last traced pass of each workload written to {out.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return tally.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.workdir)
        return
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")

    _import_robinsl()
    import workloads as wl

    print("machine: " + json.dumps(wl.machine_facts()))
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = run_traced(args.seed, args.seconds, workdir)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
