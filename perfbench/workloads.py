"""Inputs, CLI calls and output checks of the three benchmark workloads.

Every input is a pure function of (workload, seed, index): item ``index`` of a
run draws from ``random.Random(f"{workload}:{seed}:{index}")`` and takes its
stratum from ``index % CYCLE``, so one cycle of consecutive items always has
the same composition and any failing item is regenerated from its seed and
index alone.

The inputs on which the seed code is known to fail are not drawn from the
seed: each workload that has them carries a fixed sweep over that region, the
same in every run, so a run counts the same failures whatever its seed (see
README, "Known failures at the seed commit").
"""

from __future__ import annotations

import csv
import io
import json
import os
import platform
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy
import robinsl
import scipy
from robinsl import cli, eigensolver, fmap
from robinsl.errors import RobinSLError
from robinsl.potential import DeltaAtom, Potential, RobinBC, Segment, potential_to_dict

# The benchmark's own look-ups of the strength map (finding the positive
# domain edge) call this reference, bound before any tracing wraps
# fmap.delta_strength, so traced runs count only the calls that build inputs.
_strength_lookup = fmap.delta_strength

#: criterion 5's six acceptance coefficient pairs
BC_GRID6 = ((0.0, 0.0), (0.25, 0.5), (0.5, 0.5), (1.0, 1.0), (0.0, 2.0), (1.0, 4.0))
#: bound_check samples per sign class in one verify call.  A call then takes
#: ~0.4 s, short enough to be replayed ~10 times in a run; its one all_extrema
#: is 0.2-2.7 % of it (1.2 % of the batch), against ~0.03 % in acceptance's
#: verify --n 10000 (see README, "Workloads")
VERIFY_N = 250
#: bound_check --pieces-max values: acceptance's 8, then a larger one; pair j
#: of BC_GRID6 takes PIECES[j % 2]
PIECES = (8, 16)
#: eigen_profile grid spacing of segment edges and atom positions, so that the
#: finite-difference oracle at n = ORACLE_N sees them on its nodes
GRID = 2000
ORACLE_N = 2000
ORACLE_TOL = 1e-3
#: extrema report value against its solver cross-check
CROSS_TOL = 1e-8
#: strength-map items: |lambda1 - mu| <= STRENGTH_TOL * max(1, |mu|); the
#: relative part covers the CLI's 12 significant digits at |mu| up to 1e4
STRENGTH_TOL = 1e-8
#: seeded negative mu is -10**s with s in this range
NEG_LOG10_MU = (-2.0, 2.0)
#: the fixed sweep of large negative mu: -10**s with s in this range, where
#: `eigen` fails on some atoms at the seed commit
SWEEP_LOG10_MU = (2.0, 4.0)
#: (zeta, k0sq, k1sq) of the sweep's last atom, mu = -1e4, where even
#: lambda1_value fails at the seed commit
SWEEP_TOP = (0.37, 0.25, 0.5)
#: extrema_grid's seeded interior points keep k0sq at least this far above
#: 1/2; nearer, the fixed `edge` sweep covers it (k0sq - 1/2 in EDGE_LOG10)
INTERIOR_GAP = 0.02
EDGE_LOG10 = (-5.0, -2.0)
#: positive mu is edge * 10**-t with t in this range
POS_DECADES = (0.0, 4.0)
#: closed-form anchors: (k0sq, k1sq) -> {kind: (value, tolerance)}
ANCHORS = {
    (0.0, 0.0): {"M1plus": (1.0, 1e-9), "M1minus": (-1.0, 1e-9), "m1plus": (0.740174, 1e-6)},
    (0.5, 0.5): {"m1minus": (-0.25, 1e-9)},
}


@dataclass
class Item:
    """One CLI call: its arguments, the samples it covers, and its output check."""

    index: int
    argv: list
    check: Callable  # (stdout text, oracle value or None) -> failure reason or None
    samples: int = 1
    oracle: Callable | None = None  # program work timed with the item, e.g. fd_lambda1
    desc: dict = field(default_factory=dict)


@dataclass
class Outcome:
    #: "ok"; "error": typed error, exit code 2; "mismatch": output fails a
    #: check; "broken": crash, unknown exit code or unreadable output
    status: str
    reason: str = ""


def call_cli(argv):
    """Run robinsl.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _bc_args(k0, k1):
    return ["--k0sq", repr(float(k0)), "--k1sq", repr(float(k1))]


def _rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------- bound_check

BOUND_CYCLE = len(BC_GRID6)


def bound_check_item(seed, index, workdir, n=VERIFY_N):
    """One `robinsl verify` shard: 2*n sampled potentials at one acceptance pair."""
    k0, k1 = BC_GRID6[index % BOUND_CYCLE]
    pieces = PIECES[index % BOUND_CYCLE % len(PIECES)]
    vseed = _rng("bound_check", seed, index).getrandbits(63)
    argv = ["verify", *_bc_args(k0, k1), "--n", str(n), "--pieces-max", str(pieces),
            "--seed", str(vseed)]

    def check(text, _):
        rep = json.loads(text)
        if rep["violations"]:
            return f"{len(rep['violations'])} bound violations"
        if rep["n_samples"] != 2 * n:
            return f"n_samples {rep['n_samples']} != {2 * n}"
        return None

    return Item(index, argv, check, samples=2 * n,
                desc={"k0sq": k0, "k1sq": k1, "pieces_max": pieces, "verify_seed": vseed})


# --------------------------------------------------------------- extrema_grid

# Stratum per cycle slot.  k0sq > 1/2 (the interior-crossing root-find of
# inf_minus) is 4 of 14 slots, so item_p50_ms reads the closed-form branches and
# item_p90_ms the root-find.  Letters name sup_minus's branches:
# a: k0+k1 <= 1, b: k0+k1 >= 1 and k1-k0 <= 1, c: k1-k0 >= 1.  `edge` is
# branch c with k0sq just above 1/2, a fixed sweep of EDGE_POINTS points, one
# per cycle, where the root-find loses accuracy at the seed commit.
EXTREMA_SLOTS = (
    "anchor00", "anchor55", "a", "a", "a", "b", "b", "c", "c", "c",
    "interior_b", "interior_b", "interior_c", "edge",
)
EXTREMA_CYCLE = len(EXTREMA_SLOTS)
EDGE_POINTS = 12


def _edge_point(cycle):
    j = cycle % EDGE_POINTS
    lo, hi = EDGE_LOG10
    k0 = 0.5 + 10.0 ** (lo + (hi - lo) * (j + 0.5) / EDGE_POINTS)
    return k0, k0 + 1.0 + 3.0 * random.Random(f"extrema_grid:edge:{j}").random()


def _extrema_point(slot, rng):
    u, v = 1.0 - rng.random(), rng.random()  # u in (0, 1]
    if slot == "anchor00":
        return 0.0, 0.0
    if slot == "anchor55":
        return 0.5, 0.5
    if slot.startswith("interior"):
        k0 = 0.5 + INTERIOR_GAP + (2.5 - INTERIOR_GAP) * u
        return (k0, k0 + v) if slot == "interior_b" else (k0, k0 + 1.0 + 3.0 * v)
    k0 = 0.5 * rng.random()
    if slot == "a":
        return k0, k0 + (1.0 - 2.0 * k0) * v
    if slot == "b":
        lo = 1.0 - k0
        return k0, lo + (k0 + 1.0 - lo) * v
    return k0, k0 + 1.0 + 3.0 * v


def extrema_grid_item(seed, index, workdir):
    """One single-point `robinsl extrema` call."""
    slot = EXTREMA_SLOTS[index % EXTREMA_CYCLE]
    if slot == "edge":
        k0, k1 = _edge_point(index // EXTREMA_CYCLE)
    else:
        k0, k1 = _extrema_point(slot, _rng("extrema_grid", seed, index))
    anchors = ANCHORS.get((k0, k1), {})

    def check(text, _):
        reps = json.loads(text)
        if [r["kind"] for r in reps] != ["M1plus", "M1minus", "m1plus", "m1minus"]:
            return "wrong report kinds"
        for r in reps:
            if not abs(r["value"] - r["cross_check"]) <= CROSS_TOL:
                return f"{r['kind']} value {r['value']} vs cross-check {r['cross_check']}"
            if r["kind"] in anchors:
                want, tol = anchors[r["kind"]]
                if not abs(r["value"] - want) <= tol:
                    return f"{r['kind']} value {r['value']} vs closed form {want}"
        return None

    return Item(index, ["extrema", *_bc_args(k0, k1)], check,
                desc={"slot": slot, "k0sq": k0, "k1sq": k1})


# -------------------------------------------------------------- eigen_profile

# 32 slots: 16 strength-map atoms (8 negative, 8 positive mu, each on its own
# stratum of log|mu|) and 16 mixed-sign potentials, half JSON and half CSV
# output; slot 16 is the one oracle item.  Strength items print JSON, since
# their check needs the eigenvalue, which CSV output does not carry.  Slots
# 0-5 draw negative mu from the seed over NEG_LOG10_MU; slots 6 and 7 take the
# fixed sweep over SWEEP_LOG10_MU, SWEEP_POINTS atoms, two per cycle.
EIGEN_CYCLE = 32
ORACLE_SLOT = 16
SWEEP_POINTS = 8


def _positive_edge(zeta, bc):
    """Largest mu with delta_strength(mu, zeta, bc) in domain, by bisection."""
    lo, hi = 0.0, 1.0
    while _strength_lookup(hi, zeta, bc).in_domain:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _strength_lookup(mid, zeta, bc).in_domain:
            lo = mid
        else:
            hi = mid
    return lo


def _sweep_atom(cycle, slot):
    """(mu, zeta, bc) of the fixed large-negative-mu sweep; the seed plays no part."""
    j = 2 * (cycle % (SWEEP_POINTS // 2)) + slot - 6
    lo, hi = SWEEP_LOG10_MU
    mu = -(10.0 ** (lo + (hi - lo) * (j + 1) / SWEEP_POINTS))
    if j == SWEEP_POINTS - 1:
        zeta, k0, k1 = SWEEP_TOP
        return mu, zeta, RobinBC(k0, k1)
    rng = random.Random(f"eigen_profile:sweep:{j}")
    zeta, k0 = rng.uniform(0.02, 0.98), rng.uniform(0.0, 2.0)
    return mu, zeta, RobinBC(k0, k0 + rng.uniform(0.0, 2.0))


def _strength_potential(slot, rng, bc):
    """Atom delta_strength(mu, zeta) * delta_zeta, so lambda1 should equal mu."""
    zeta = rng.uniform(0.02, 0.98)
    if slot < 6:
        lo, hi = NEG_LOG10_MU
        mu = -(10.0 ** (lo + (hi - lo) * (slot + rng.random()) / 6.0))
    else:
        lo, hi = POS_DECADES
        t = (slot - 8 + rng.random()) / 8.0
        mu = _positive_edge(zeta, bc) * 10.0 ** -(lo + (hi - lo) * t)
    return _atom(mu, zeta, bc)


def _atom(mu, zeta, bc):
    weight = fmap.delta_strength(mu, zeta, bc).value
    return Potential(atoms=(DeltaAtom(zeta, weight),)), {"mu": mu, "zeta": zeta}


def _mixed_potential(rng):
    """2-8 segments of alternating sign on a 1/GRID grid plus 1-3 interior atoms."""
    nseg = rng.randint(2, 8)
    cuts = sorted(rng.sample(range(1, GRID), 2 * nseg))
    sign = rng.choice((1.0, -1.0))
    segs = tuple(
        Segment(cuts[2 * j] / GRID, cuts[2 * j + 1] / GRID, sign * (-1) ** j * rng.uniform(0.5, 10.0))
        for j in range(nseg)
    )
    atoms = tuple(
        DeltaAtom(p / GRID, rng.uniform(-2.0, 2.0)) for p in rng.sample(range(1, GRID), rng.randint(1, 3))
    )
    return Potential(segments=segs, atoms=atoms)


def _eigen_rows(text, fmt):
    if fmt == "json":
        rep = json.loads(text)
        return rep["lambda1"], rep["eigenfunction"]
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["x", "y"]:
        return None, []
    return None, [(float(x), float(y)) for x, y in rows[1:]]


def eigen_profile_item(seed, index, workdir):
    """One `robinsl eigen` call on a potential file in workdir (written if missing)."""
    slot = index % EIGEN_CYCLE
    rng = _rng("eigen_profile", seed, index)
    k0 = rng.uniform(0.0, 2.0)
    bc = RobinBC(k0, k0 + rng.uniform(0.0, 2.0))
    if slot in (6, 7):
        mu, zeta, bc = _sweep_atom(index // EIGEN_CYCLE, slot)
        q, desc = _atom(mu, zeta, bc)
        desc["sweep"] = True
        fmt = "json"
    elif slot < 16:
        q, desc = _strength_potential(slot, rng, bc)
        fmt = "json"
    else:
        q, desc = _mixed_potential(rng), {"kind": "mixed"}
        fmt = "json" if slot % 2 == 0 else "csv"
    path = Path(workdir) / f"q{index}.json"
    if not path.exists():
        path.write_text(json.dumps(potential_to_dict(q)))
    mu = desc.get("mu")
    oracle = None
    if slot == ORACLE_SLOT:
        # attribute look-up at call time, so a traced run sees the call
        oracle = lambda: eigensolver.fd_lambda1(q, bc, ORACLE_N)  # noqa: E731

    def check(text, fd_value):
        lam, ef = _eigen_rows(text, fmt)
        if not ef:
            return "no eigenfunction rows"
        ys = [y for _, y in ef]
        if min(ys) <= 0.0 or abs(max(ys) - 1.0) > 1e-12:
            return f"eigenfunction range [{min(ys)}, {max(ys)}], want (0, 1]"
        if mu is not None and not abs(lam - mu) <= STRENGTH_TOL * max(1.0, abs(mu)):
            return f"lambda1 {lam} vs strength-map mu {mu}"
        if fd_value is not None and not abs(lam - fd_value) <= ORACLE_TOL:
            return f"lambda1 {lam} vs fd_lambda1 {fd_value}"
        return None

    argv = ["eigen", *_bc_args(bc.k0sq, bc.k1sq), "--format", fmt, str(path)]
    return Item(index, argv, check, oracle=oracle,
                desc={**desc, "format": fmt, "k0sq": bc.k0sq, "k1sq": bc.k1sq})


#: name -> (item maker, items per cycle, cycles in the timed batch, cycles in
#: one traced pass); a batch takes a few seconds, so a run replays it often
WORKLOADS = {
    "bound_check": (bound_check_item, BOUND_CYCLE, 1, 1),
    "extrema_grid": (extrema_grid_item, EXTREMA_CYCLE, 12, 4),
    "eigen_profile": (eigen_profile_item, EIGEN_CYCLE, 4, 2),
}


def first_item(workload, seed, workdir):
    """The set-up item: item 0, except that bound_check's is one sample per class."""
    if workload == "bound_check":
        return bound_check_item(seed, 0, workdir, n=1)
    return WORKLOADS[workload][0](seed, 0, workdir)


def run_item(item, clock):
    """Call the CLI for one item; returns (Outcome, call seconds, call+oracle seconds)."""
    t0 = clock()
    try:
        code, out, err = call_cli(item.argv)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - a crash is recorded, and the run goes on
        t1 = clock()
        return Outcome("broken", f"crash {type(exc).__name__}: {exc}"), t1 - t0, t1 - t0
    t1 = clock()
    if code == 2:
        return Outcome("error", err.strip()), t1 - t0, t1 - t0
    if code not in (0, 1):
        return Outcome("broken", f"exit code {code}: {err.strip()}"), t1 - t0, t1 - t0
    try:
        fd_value = item.oracle() if item.oracle is not None and code == 0 else None
    except RobinSLError as exc:
        t2 = clock()
        return Outcome("error", f"oracle: {type(exc).__name__}: {exc}"), t1 - t0, t2 - t0
    t2 = clock()
    try:
        reason = item.check(out, fd_value)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome("broken", f"unreadable output: {type(exc).__name__}: {exc}"), t1 - t0, t2 - t0
    if code == 1:  # the CLI's verdict that verification found violations
        reason = reason or "exit code 1"
    return Outcome("mismatch" if reason else "ok", reason or ""), t1 - t0, t2 - t0


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "robinsl_jit_enabled": bool(robinsl.JIT_ENABLED),
    }
