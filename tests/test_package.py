"""Whole-package checks: no unused imports, and error classes the CLI can sort."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import tir
from tir.parallel import ItemError

SRC = Path(tir.__file__).parent


def unused_imports(package_dir: Path) -> list[str]:
    """`<file>:<line> <name>` for each name a module imports and never references.

    `__init__.py` (which imports to re-export), `__future__` imports and
    import lines marked `# noqa: F401` are skipped.
    """
    found = []
    for path in sorted(package_dir.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_no_module_has_an_unused_import():
    assert unused_imports(SRC) == []


def test_every_error_class_derives_from_a_root_the_cli_catches():
    # `tir` exits 2 on ValueError, RuntimeError and OSError; ItemError never
    # reaches it, because build_index always wraps it.
    errors = []
    for info in pkgutil.iter_modules(tir.__path__):
        module = importlib.import_module(f"tir.{info.name}")
        errors += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                   if cls.__module__ == module.__name__ and issubclass(cls, BaseException)]
    assert ItemError in errors and len(errors) > 1
    roots = (ValueError, RuntimeError, OSError)
    assert [cls for cls in errors if cls is not ItemError and not issubclass(cls, roots)] == []
