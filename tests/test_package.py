"""Whole-package checks: no unused imports, one file writer, error classes the CLI can sort, and the names
the benchmark's tracer wraps."""

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


def writes_outside_the_writer(package_dir: Path) -> list[str]:
    """`<file>:<line> <call>` for each call in the package that writes a file, other than in `_write_bytes`.

    A write is a `write_bytes` or `write_text` call, or an `open` (the builtin,
    or a `.open` method taking the mode first, as `Path.open` does) whose mode
    is not a constant free of "w", "a", "x" and "+".
    """
    found = []
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        writer = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_write_bytes"]
        exempt = {id(node) for func in writer for node in ast.walk(func)} if path.name == "imaging.py" else set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in exempt:
                continue
            method = isinstance(node.func, ast.Attribute)
            name = node.func.attr if method else getattr(node.func, "id", None)
            if name == "open":
                at = 0 if method else 1
                mode = node.args[at] if len(node.args) > at else next(
                    (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
                writes = not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wax+")
            else:
                writes = name in ("write_bytes", "write_text")
            if writes:
                found.append((path.name, node.lineno, name))
    return [f"{file}:{line} {call}" for file, line, call in sorted(found)]


def test_every_file_is_written_by_the_one_writer():
    assert writes_outside_the_writer(SRC) == []


def test_the_writer_check_finds_each_kind_of_write(tmp_path):
    (tmp_path / "imaging.py").write_text(
        "def _write_bytes(p):\n    open(p, 'xb')\n"
        "def save(p, mode):\n    open(p, 'wb')\n    open(p, mode='a')\n    p.open('r+')\n    open(p, mode)\n"
        "    p.write_bytes(b'')\n    p.write_text('')\n    open(p)\n    open(p, 'rb')\n")
    assert writes_outside_the_writer(tmp_path) == [f"imaging.py:{line} {call}" for line, call in [
        (4, "open"), (5, "open"), (6, "open"), (7, "open"), (8, "write_bytes"), (9, "write_text")]]


def test_every_name_the_benchmark_tracer_wraps_is_a_callable():
    # perfbench/tracing.py replaces each (module, attribute) in TARGETS; a name the package drops would
    # otherwise fail only when the tracer installs. The file is parsed, not imported.
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    [targets] = [node.value for node in tree.body
                 if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]]
    names = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert len(names) > 10
    missing = [f"{module}.{attr}" for module, attr in names
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


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
