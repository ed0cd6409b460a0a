"""Static checks on the package source."""
from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bubbledate"
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
BENCHMARK_SOURCES = sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(tree: ast.Module) -> list:
    """Names a module imports but neither uses nor lists in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(exported(tree))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def exported(tree: ast.Module) -> list:
    """The names listed in a module's ``__all__``, empty if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def unbound_exports(tree: ast.Module) -> list:
    """Names in ``__all__`` that no top-level statement of the module binds."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return [name for name in exported(tree) if name not in bound]


@pytest.mark.parametrize("path", [p for p in SOURCES + TESTS if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_check_flags_dead_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .types import A, B, C\n"
        "__all__ = ['C']\n"
        "x: A = np.zeros(1)\n"
    )
    assert unused_imports(tree) == [(2, "os"), (3, "B")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_names_are_bound(path):
    assert unbound_exports(ast.parse(path.read_text())) == []


def test_unbound_export_check_flags_stale_names():
    tree = ast.parse(
        "from .types import A\n"
        "__all__ = ['A', 'B', 'C', 'D', 'E']\n"
        "def C(): pass\n"
        "D: int = 1\n"
    )
    assert unbound_exports(tree) == ["B", "E"]


# the names ``import bubbledate`` binds, submodules left out: adding or deleting a public name edits this list
PUBLIC_NAMES = [
    "BicReport", "BicTally", "BnDecomposition", "BreakEstimates", "BubbleDateError", "CellKey", "ConfigError",
    "DegenerateSegmentError", "DgpConfig", "Discretization", "EmptyRangeError", "ErrorSpec", "ExperimentConfig",
    "ExperimentResult", "HistogramResult", "IidGaussian", "LimitSample", "LinearProcess", "ModelChoice",
    "SegmentFit", "Series", "SeriesValidationError", "SingleShiftVolatility", "Target",
    "TileEstimates", "TrimmingPolicy", "UnavailableReason", "VolatilityScaled", "bic_select",
    "bn_decompose", "emergence_limit_draws", "estimate_dates", "estimate_tile", "fit_segment", "generate_errors",
    "preset", "recovery_limit_draws", "run_experiment", "simulate", "validate_series",
]


def test_public_namespace_is_pinned():
    package = importlib.import_module("bubbledate")
    public = [name for name, value in vars(package).items() if not name.startswith("_") and not isinstance(value, ModuleType)]
    assert sorted(public) == PUBLIC_NAMES
    # each name comes from a layer that lists it in its own __all__
    layer_of = {alias.name: node.module for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    for name in PUBLIC_NAMES:
        assert name in exported(ast.parse((PACKAGE / f"{layer_of[name]}.py").read_text())), name


def package_imports(tree: ast.Module) -> list:
    """The package modules a module imports when it is itself imported, that is outside any function.

    Relative and absolute imports count alike: ``from . import a``, ``from .a import x``,
    ``from bubbledate.a import x`` and ``import bubbledate.a.b`` all name ``a``.
    """
    found, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            base = ["bubbledate" if getattr(node, "level", 0) else None, getattr(node, "module", None)]
            for alias in node.names:
                parts = ".".join(filter(None, [*base, alias.name])).split(".")
                if parts[0] == "bubbledate" and len(parts) > 1:
                    found.add(parts[1])
    return sorted(found)


# each module's package imports at module level: a new dependency between layers edits this table.
# The limit laws import only streams and types, so they stay independent of the simulator.
IMPORT_GRAPH = {
    "__init__": ["asymptotics", "dgp", "estimator", "montecarlo", "types"],
    "asymptotics": ["rng", "types"],
    "cli": ["asymptotics", "dataio", "dgp", "estimator", "montecarlo", "types"],
    "dataio": ["dgp", "estimator", "montecarlo", "types"],
    "dgp": ["rng", "types"],
    "estimator": ["types"],
    "montecarlo": ["dgp", "estimator", "rng", "types"],
    "rng": ["types"],
    "types": [],
}


def test_import_graph_is_pinned():
    assert {path.stem: package_imports(ast.parse(path.read_text())) for path in SOURCES} == IMPORT_GRAPH


def test_import_graph_check_reads_module_level_imports_only():
    tree = ast.parse(
        "import os, bubbledate, bubbledate.rng\n"
        "from . import dataio\n"
        "from .types import Series\n"
        "from bubbledate.dgp import simulate\n"
        "from numpy import bubbledate\n"
        "try:\n"
        "    from .asymptotics import lfilter\n"
        "except ImportError:\n"
        "    pass\n"
        "def run():\n"
        "    from .montecarlo import preset\n"
        "class Holder:\n"
        "    from .estimator import fit_segment\n"
    )
    assert package_imports(tree) == ["asymptotics", "dataio", "dgp", "estimator", "rng", "types"]


def file_opens(tree: ast.Module, writes: bool) -> list:
    """(line, enclosing function) of each ``open`` call whose mode may write, append or create, or with writes false, of every other.

    The mode is the ``mode`` keyword or the second positional argument, as
    ``open``, ``io.open`` and ``os.open`` take it; a call with neither reads,
    and a mode that is not a string constant counts as a write.
    """
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and "open" in (getattr(child.func, "id", None),
                                                         getattr(child.func, "attr", None)):
                modes = [k.value for k in child.keywords if k.arg == "mode"] + child.args[1:2]
                reads = not modes or (isinstance(modes[0], ast.Constant) and isinstance(modes[0].value, str)
                                      and not set(modes[0].value) & set("wax+"))
                if reads != writes:
                    found.append((child.lineno, where))
            visit(child, where)

    visit(tree, "<module>")
    return found


def source_opens(writes: bool) -> list:
    """(file, function) of each ``open`` call in the package that writes, or with writes false, reads."""
    return [(path.name, where) for path in SOURCES for _, where in file_opens(ast.parse(path.read_text()), writes)]


def test_one_function_opens_files_for_writing():
    assert source_opens(writes=True) == [("dataio.py", "write_text")]


def test_one_function_opens_files_for_reading():
    assert source_opens(writes=False) == [("dataio.py", "read_text")]


def test_write_open_check_flags_every_writing_mode():
    tree = ast.parse(
        "import io, os\n"
        "def read(p):\n"
        "    return open(p).read() + open(p, 'rb').read() + open(p, newline='').read()\n"
        "def save(p, m):\n"
        "    open(p, 'w')\n"
        "    def inner():\n"
        "        io.open(p, mode='a')\n"
        "    open(p, 'r+'), os.open(p, os.O_CREAT), open(p, m)\n"
        "open('x', 'xb')\n"
    )
    assert file_opens(tree, writes=True) == [(5, "save"), (7, "inner"), (8, "save"), (8, "save"), (8, "save"), (9, "<module>")]


def test_read_open_check_flags_every_reading_mode():
    tree = ast.parse(
        "import io\n"
        "def load(p):\n"
        "    return open(p).read() + open(p, 'rb').read()\n"
        "def save(p):\n"
        "    open(p, 'w'), open(p, 'r+')\n"
        "    def inner():\n"
        "        io.open(p, mode='rt', newline='')\n"
        "open('x', encoding='utf-8')\n"
    )
    assert file_opens(tree, writes=False) == [(3, "load"), (3, "load"), (7, "inner"), (8, "<module>")]


def unresolved_benchmark_names(trees: list) -> list:
    """The package names the benchmark modules ``trees`` use and the package lacks.

    These are every name a ``from bubbledate... import`` at any depth
    imports, every module an ``import bubbledate...`` imports, and every
    (layer, attr) pair of a ``FOREIGN`` assignment, the functions of other
    packages that the tracer wraps where a layer binds them.
    """
    def resolves(module: str, name: str) -> bool:
        try:
            return hasattr(importlib.import_module(module), name) or bool(importlib.util.find_spec(f"{module}.{name}"))
        except ImportError:
            return False

    wanted = []
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "bubbledate":
            wanted += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            wanted += [tuple(a.name.rsplit(".", 1)) for a in node.names if a.name.startswith("bubbledate.")]
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "FOREIGN" for t in node.targets):
            wanted += [(f"bubbledate.{layer}", attr) for layer, attr in ast.literal_eval(node.value)]
    return [f"{module}.{name}" for module, name in wanted if not resolves(module, name)]


def test_benchmark_names_resolve():
    trees = [ast.parse(path.read_text()) for path in BENCHMARK_SOURCES]
    assert {path.name for path in BENCHMARK_SOURCES} >= {"run.py", "tracing.py", "workloads.py"}
    assert unresolved_benchmark_names(trees) == []


def test_benchmark_name_check_flags_missing_names():
    tree = ast.parse(
        "import os, bubbledate.cli, bubbledate.nope\n"
        "from bubbledate import cli, missing\n"
        "FOREIGN = (('asymptotics', 'lfilter'), ('dgp', 'lfilter'))\n"
        "def run():\n"
        "    from bubbledate.estimator import bic_select, estimate_tile, TILE_ROWS, gone\n"
        "    from bubbledate.types import Series, TrimmingPolicy, BubbleDateError\n"
        "    from .local import anything\n"
    )
    assert unresolved_benchmark_names([tree]) == [
        "bubbledate.nope", "bubbledate.missing", "bubbledate.dgp.lfilter", "bubbledate.estimator.gone",
    ]
