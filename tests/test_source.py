import ast
from pathlib import Path

import normgraph

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
