"""The traced benchmark run wraps the functions named in perfbench's LAYERS,
and its workloads call robinsl by name.

A rename or deletion in robinsl that drops one of them breaks ``--trace 1``
or the benchmark itself only when the benchmark runs; these tests catch it in
the suite.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import robinsl

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is made
    sys.modules[name] = mod
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[name]
    return mod


def _layers():
    return _load("perfbench_tracing", TRACING).LAYERS


@pytest.mark.parametrize("modname, attr", _layers())
def test_layer_resolves_to_callable(modname, attr):
    mod = importlib.import_module(f"robinsl.{modname}")
    assert callable(getattr(mod, attr, None))


def test_jit_flag_exported():
    assert robinsl.JIT_ENABLED is False and "JIT_ENABLED" not in robinsl.__all__


def test_all_names_resolve():
    for name in robinsl.__all__:
        obj = getattr(robinsl, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            assert issubclass(obj, robinsl.RobinSLError), name


def test_readme_lists_the_public_api():
    # README's "Public API" bullets name each exported name once, and only those
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = " ".join(section.split("\n* ")[1:])
    named = re.findall(r"`(\w+)`", bullets)
    assert len(named) == len(set(named)), named
    assert sorted(named) == sorted(robinsl.__all__)


def test_exported_errors_are_raised():
    # an exported error type that no code in robinsl raises is dead API
    src = Path(robinsl.__file__).parent
    raised = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    errors = {
        name
        for name in robinsl.__all__
        if isinstance(getattr(robinsl, name), type) and issubclass(getattr(robinsl, name), Exception)
    }
    assert errors - {"RobinSLError"} <= raised, sorted(errors - {"RobinSLError"} - raised)


def _named_outside(owner, names):
    """(file, name) for each of names that a robinsl module other than owner names."""
    src = Path(robinsl.__file__).parent
    named = set()
    for path in src.glob("*.py"):
        if path.name == owner:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and node.id in names:
                named.add((path.name, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in names:
                named.add((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom):
                named |= {(path.name, alias.name) for alias in node.names if alias.name in names}
    return sorted(named)


def test_stream_layout_stays_in_rng():
    # the splitmix64 constants and mix are _rng's: any other module draws
    # through its stream functions, so a sample regenerates by one code path
    assert not _named_outside("_rng.py", {"_GAMMA", "_MASK", "_mix", "_UNIT"})


def test_merge_tolerance_stays_in_potential():
    # which points merge and which atoms are endpoint masses is potential's
    # decision: any other module builds its cell tables and coefficients
    # through compile_arrays or cell_tables, so no second fold can drift
    assert not _named_outside("potential.py", {"MERGE_TOL"})


def test_strength_map_stays_in_fmap():
    # the strength map has one entry, delta_strength, which returns F and
    # dF/dzeta from one evaluation: no other module reaches its internals
    assert not _named_outside("fmap.py", {"_strength", "_closed_form", "_decay"})


def test_one_draw_per_batch():
    # check_bounds draws each lockstep batch in one pass: verify has no
    # block size or stacking of blocks, and _block runs only in the batch
    # draw and in _draw, the one-sample path regenerate takes
    tree = ast.parse((Path(robinsl.__file__).parent / "verify.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not names & {"_BLOCK", "_stack"}
    callers = {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_block"
    }
    assert callers == {"_lanes", "_draw"}
    assert sum(isinstance(node, ast.Name) and node.id == "_block" for node in ast.walk(tree)) == 2


def test_one_sampler_form():
    # every sample is drawn one way, with breakpoints anywhere in [0, 1]: no
    # function takes a concentrated switch, and the infima are checked by a
    # scan over point masses in the tests, not by box approximations in the
    # library
    src = Path(robinsl.__file__).parent
    switches, defined = [], []
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                switches += [(path.name, a.arg) for a in params if a is not None and a.arg == "concentrated"]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(path.name, n) for n in names if n in {"approach_extremum", "delta_approx", "combine"}]
    assert not switches and not defined, (switches, defined)


def test_one_solver_path():
    # the kernels are plain Python and the only path: robinsl imports nothing
    # beyond the standard library, numpy and scipy, and reads no environment
    # variable, so no compiled second path or switch returns unseen
    src = Path(robinsl.__file__).parent
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy"}
    foreign = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            foreign |= {(path.name, m) for m in modules if m.split(".")[0] not in allowed}
    assert not sorted(foreign)
    assert not _named_outside(None, {"environ", "getenv"})


def test_shot_state_pass_allocates_nothing():
    # shoot_lanes' per-cell loop writes its common path into lane buffers:
    # outside its if blocks (the rare branches) no statement builds a
    # temporary by an arithmetic operator or np.where, and the buffers are
    # written through out=
    tree = ast.parse((Path(robinsl.__file__).parent / "_lockstep.py").read_text())
    (shoot,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "shoot_lanes"]
    (loop,) = [node for node in ast.walk(shoot) if isinstance(node, ast.For)]
    common = [stmt for stmt in loop.body if not isinstance(stmt, ast.If)]
    nodes = [node for stmt in common for node in ast.walk(stmt)]
    found = [
        (node.lineno, ast.unparse(node))
        for node in nodes
        if isinstance(node, ast.BinOp)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "where"
    ]
    assert not found, found
    assert sum(isinstance(node, ast.keyword) and node.arg == "out" for node in nodes) >= 10


def test_lockstep_has_only_the_one_zero_cell_steps():
    # a lane whose shot meets a cell with w == 0, a hyperbolic s*h > 350 or
    # a trigonometric s*h >= pi, or loses its state, is solved by
    # lambda1_kernel: the lockstep has no factored exp, no multi-zero count
    # and no lost-shot status of its own, and atan2 only in the mismatch
    # after the per-cell loop.  Every cell it takes holds at most one zero,
    # counted in both kernels by the sign change of y alone: neither names
    # atanh, and the per-cell loop branches only on the short-cell series
    tree = ast.parse((Path(robinsl.__file__).parent / "_lockstep.py").read_text())

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.ImportFrom):
                yield from (alias.name for alias in sub.names)

    assert not set(names(tree)) & {"exp", "STATUS_NONFINITE", "_HALF_PI", "atanh"}
    kernels = ast.parse((Path(robinsl.__file__).parent / "_kernels.py").read_text())
    (step,) = [node for node in kernels.body if isinstance(node, ast.FunctionDef) and node.name == "propagate_step"]
    assert "atanh" not in set(names(step))
    (shoot,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "shoot_lanes"]
    assert not set(names(shoot)) & {"cut", "lim", "rows"}
    (loop,) = [node for node in ast.walk(shoot) if isinstance(node, ast.For)]
    assert "atan2" in set(names(shoot)) and "atan2" not in set(names(loop))
    branches = [ast.unparse(node.test) for node in ast.walk(loop) if isinstance(node, ast.If)]
    assert branches == ["j0 < j1", "j0 < j1"], branches


def test_lockstep_has_only_the_downward_search_and_bracket_steps():
    # a lane whose start is not finite or lies below the eigenvalue, or whose
    # step inside its bracket would bisect in log scale or be moved by the
    # ITP projection, is solved by lambda1_kernel: the lockstep has no reach,
    # no search up toward hi with its Rayleigh bound, no NaN start and no
    # log-scale point
    tree = ast.parse((Path(robinsl.__file__).parent / "_lockstep.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_reach" not in defined
    (lanes,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "lambda1_lanes"]
    named = {node.id for node in ast.walk(lanes) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(lanes) if isinstance(node, ast.Attribute)}
    banned = {"reach", "up", "bound", "isfinite", "sqrt"}
    assert not named & banned, named & banned


def _function_names(module, name):
    """The names and attributes that function name of robinsl's module names."""
    tree = ast.parse((Path(robinsl.__file__).parent / module).read_text())
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    named = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
    return named | {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}


def test_one_start_state():
    # _kernels.start_state builds every shot's start state: no other module
    # scales by frexp or ldexp, both kernels' shots, the eigenfunction
    # sampler and the first-order starts call it, and _first_order_starts
    # keeps no overflow branch of its own.  The lockstep keeps no stall
    # state: a lane that would stall leaves, and with no start left to
    # overflow, no check_bounds lane does
    assert not _named_outside("_kernels.py", {"frexp", "ldexp"})
    for module, name in (
        ("_kernels.py", "shoot_kernel"),
        ("_lockstep.py", "shoot_lanes"),
        ("verify.py", "_first_order_starts"),
        ("eigensolver.py", "_sample_eigenfunction"),
    ):
        assert "start_state" in _function_names(module, name), name
    assert "inf" not in _function_names("verify.py", "_first_order_starts")
    assert "stalled" not in _function_names("_lockstep.py", "lambda1_lanes")


def test_workload_names_resolve():
    # loading runs the workloads' robinsl imports; every attribute they read
    # from a robinsl module must then exist
    mod = _load("perfbench_workloads", WORKLOADS)
    modules = {name: obj for name, obj in vars(mod).items() if getattr(obj, "__name__", "").startswith("robinsl")}
    read = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            read.add((node.value.id, node.attr))
    assert {("robinsl", "JIT_ENABLED"), ("cli", "main"), ("eigensolver", "fd_lambda1"), ("fmap", "delta_strength")} <= read
    for name, attr in sorted(read):
        assert hasattr(modules[name], attr), f"perfbench/workloads.py reads {name}.{attr}"
    assert callable(mod.potential_to_dict)
