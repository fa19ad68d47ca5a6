import ast
import importlib
from pathlib import Path

import normgraph
import spans

PACKAGE = Path(normgraph.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
                 + [*(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")])


def test_every_imported_name_is_used():
    # in the package, the tests and the tools: the package's own re-exports
    # live in __init__.py, so no other module imports a name only to hand it on
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.parent.name}/{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in loaded]
    assert MODULES and not unused, unused


def _imports(nodes) -> dict:
    """Each name the import statements among `nodes` bind, by what it is bound to."""
    return {(getattr(node, "module", None), getattr(node, "level", 0), alias.name,
             alias.asname): node.lineno
            for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def test_no_function_repeats_an_import_of_its_module():
    repeated = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = _imports(tree.body)
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                repeated += [f"{path.parent.name}/{path.name}:{line}: {key[2]}"
                             for key, line in _imports(ast.walk(function)).items()
                             if key in top]
    assert MODULES and not repeated, repeated


def test_every_benchmark_hook_names_a_function_that_exists():
    # benchmarks/spans.py passes over a hook whose attribute is gone, so a
    # renamed function would show only as a per-layer metric gone missing
    missing = []
    for module_name, attribute, _ in spans.HOOKS:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attribute}")
    assert spans.HOOKS and not missing, missing
