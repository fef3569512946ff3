"""Static checks of the package source, read with ``ast``: every import is used, and the CSR row kernels have one home."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mallows_select"
MODULES = sorted(SRC.glob("*.py"))
# the kernels that read CSR rows, the working budget they share and the loader of their compiled forms, all in core
ROW_KERNELS = {
    "_triu_pairs", "_pair_blocks", "_pair_counts", "_discordances", "_BLOCK_BYTES",
    "_rows_library", "_row_kernels",
}
# each routine of _rows.c: the one function that calls it, besides core's loader, which declares its argtypes
COMPILED_CALLERS = {
    "center_rows": ("sampling.py", "sample_profile"),
    "sample_rows": ("sampling.py", "_sample_rows"),
    "pair_counts": ("core.py", "_pair_counts"),
    "cell_block": ("experiments.py", "_cell_block"),
    "bernoulli_rows": ("sampling.py", "generate_selection"),
    "window_dp": ("mle.py", "_dp_window_max"),
    "scan_rows": ("fileio.py", "_byte_pass"),
    "row_inversions": ("core.py", "_discordances"),
    "format_rows": ("fileio.py", "_format_rows"),
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree: ast.Module):
    """``(bound name, source module, imported name)`` of every import but ``__future__``'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, "." * node.level + (node.module or ""), alias.name


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a package re-exports what it lists in __all__
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    assert [name for name, _, _ in _imports(tree) if name not in used] == []


def test_row_kernels_live_in_core_only():
    for path in MODULES:
        tree = _tree(path)
        wrong = [(module, name) for _, module, name in _imports(tree) if name in ROW_KERNELS and module != ".core"]
        assert wrong == [], f"{path.name} imports row kernels from outside core"
        defined = _top_level_names(tree) & ROW_KERNELS
        assert defined == (ROW_KERNELS if path.name == "core.py" else set()), path.name


def test_one_working_budget_is_read_from_core():
    """Only core defines a ``*_BYTES`` working budget, and no module binds one by value, so one patch reaches all."""
    for path in MODULES:
        tree = _tree(path)
        budgets = {name for name in _top_level_names(tree) if name.endswith("_BYTES")}
        assert budgets == ({"_BLOCK_BYTES"} if path.name == "core.py" else set()), path.name
        assert [name for _, _, name in _imports(tree) if name.endswith("_BYTES")] == [], f"{path.name} imports a budget"


def test_one_mixer_and_one_fisher_yates_live_in_rng():
    """Only rng defines or imports the array mixer, its scalar form for stream keys and the multiply-shift bound, and
    no module defines another scalar mixer.

    A second splitmix64 or a second Fisher-Yates swap loop reaches for these, so it fails here.
    """
    primitives = ("mix64_array", "_mix64", "_below_array")
    for path in MODULES:
        tree = _tree(path)
        assert _top_level_names(tree) & {"mix64", "_fold"} == set(), path.name
        if path.name != "rng.py":
            assert _top_level_names(tree) & set(primitives) == set(), path.name
            imported = [name for _, _, name in _imports(tree) if name in primitives]
            assert imported == [], f"{path.name} imports a draw primitive of rng"


def test_compiled_routines_are_loaded_by_core_and_called_from_one_place():
    """Only core imports ``ctypes``, and each C routine is reached by core's loader and its one caller alone.

    A second loader imports ``ctypes``, and a second caller reads the routine's attribute, so either fails here.
    """
    reached = {name: set() for name in COMPILED_CALLERS}
    for path in MODULES:
        tree = _tree(path)
        importers = [module for _, module, _ in _imports(tree) if module.split(".")[0] == "ctypes"]
        assert importers == ([] if path.name != "core.py" else ["ctypes"]), path.name
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in reached:
                    reached[node.attr].add((path.name, getattr(top, "name", None)))
    assert reached == {name: {("core.py", "_rows_library"), caller} for name, caller in COMPILED_CALLERS.items()}


def _cache_decorators(tree: ast.Module):
    """``(function, maxsize node or None)`` of every ``cache``/``lru_cache`` decorator, however it is imported."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                call = decorator if isinstance(decorator, ast.Call) else None
                target = call.func if call else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("cache", "lru_cache"):
                    given = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"] if call else []
                    yield node, given[0] if given else None


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_cache_is_bounded(path):
    """A cache keyed by arguments holds a bounded count of entries: an integer maxsize, or no arguments at all."""
    unbounded = []
    for function, maxsize in _cache_decorators(_tree(path)):
        a = function.args
        keyed = any((a.posonlyargs, a.args, a.vararg, a.kwonlyargs, a.kwarg))
        bounded = isinstance(maxsize, ast.Constant) and type(maxsize.value) is int
        if keyed and not bounded:
            unbounded.append(function.name)
    assert unbounded == [], f"{path.name}: caches without an integer maxsize"


def _empty_container(node: ast.expr | None) -> bool:
    """``{}``, ``[]``, or ``dict()``, ``list()`` or ``set()`` without arguments."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("dict", "list", "set")
        and not node.args and not node.keywords
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_binds_an_empty_container(path):
    """No module starts an empty dict, list or set at top level: the shape of a hand-written cache.

    Caches go through ``functools``, which ``test_every_cache_is_bounded`` bounds; a constant table is not empty.
    """
    bound = [
        node.lineno for node in _tree(path).body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _empty_container(node.value)
    ]
    assert bound == [], f"{path.name} binds an empty container at lines {bound}"
