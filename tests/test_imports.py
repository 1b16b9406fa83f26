"""No module imports a name that it never uses, no package name is dead, and only ``data_io`` reads, writes or deletes
files.

``__init__.py`` is exempt from the first check: its imports are the package's
re-exports. The second check counts a use only in the package, ``bench/`` or
``scripts/``: a name that only tests need is dead code. The third keeps every
write on ``data_io``'s one writer and every deletion on its ``_remove``, so
each failed write or deletion names its file and each file but an appended log
is replaced whole. The fourth keeps every read on ``data_io``'s readers,
``_open_input`` and those built on it, so a file that cannot be read is a
``BoxalError`` naming it.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in [*(ROOT / "src" / "boxal").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)
PACKAGE = sorted((ROOT / "src" / "boxal").glob("*.py"))
USERS = sorted(p for d in ("src/boxal", "bench", "scripts") for p in (ROOT / d).glob("*.py"))


def _imported(tree):
    """{name bound by an import: line} for the module's imports, except ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree):
    """The names the module reads, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _used(ast.parse(part.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {name: line for name, line in _imported(tree).items() if name not in _used(tree)}
    assert not unused, f"{path.name}: imported but never used: " + ", ".join(
        f"{name} (line {line})" for name, line in sorted(unused.items(), key=lambda kv: kv[1])
    )


def _definitions(tree):
    """(name, definition node, class name or None) for each definition the dead-name check covers.

    These are the module's top-level functions, classes and constants, and its classes' methods.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, None
        elif isinstance(node, ast.ClassDef):
            yield node.name, node, None
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node, None


def _references(tree):
    """(name, node) for every ``ast.Name``, ``ast.Attribute`` and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node


def _overrides(module, class_name, name):
    """Whether the method ``name`` of ``class_name`` overrides an attribute of a base class."""
    cls = getattr(importlib.import_module(f"boxal.{module}"), class_name)
    return any(hasattr(base, name) for base in cls.__mro__[1:])


@pytest.fixture(scope="module")
def refs():
    return {user: list(_references(ast.parse(user.read_text(encoding="utf-8")))) for user in USERS}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_package_name_is_used_outside_tests(path, refs):
    dead = []
    for name, definition, class_name in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
        if name.startswith("__") and name.endswith("__"):
            continue
        if class_name is not None and _overrides(path.stem, class_name, name):
            continue
        used = any(
            ref_name == name and not (
                user == path and definition.lineno <= node.lineno <= definition.end_lineno
            )
            for user, nodes in refs.items()
            for ref_name, node in nodes
        )
        if not used:
            dead.append(f"{class_name}.{name}" if class_name else name)
    assert not dead, f"{path.name}: used by nothing outside tests: " + ", ".join(dead)


PATH_WRITES = {"write_text", "write_bytes", "touch", "unlink", "rmdir"}
# the calls on a module that write or delete files: os.replace, shutil.rmtree and the like
MODULE_WRITES = {"os": {"replace", "rename", "remove", "unlink", "rmdir"}, "shutil": {"rmtree"}}
LOCK_CALLS = {"open", "write", "ftruncate"}  # the os calls orchestrator.run_lock makes on LOCK, the one exception


def _mode_has(call, at, letters, default):
    """Whether an ``open`` call's mode, its argument ``at`` or ``mode=``, holds one of ``letters``: ``default`` without
    a mode, and true for a mode that is not a literal."""
    mode = call.args[at] if len(call.args) > at else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return default
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(set(mode.value) & set(letters))


def _file_writes(tree, lock_function=None):
    """(line, call) of each call in ``tree`` that writes or deletes a file, but ``lock_function``'s ``LOCK_CALLS``."""
    lock_lines = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == lock_function:
            lock_lines = set(range(node.lineno, node.end_lineno + 1))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open" and _mode_has(node, 1, "wax+", False):
            yield node.lineno, "open"
        elif isinstance(func, ast.Attribute):
            module = func.value.id if isinstance(func.value, ast.Name) and func.value.id in MODULE_WRITES else None
            if module == "os" and func.attr in LOCK_CALLS and node.lineno not in lock_lines:
                yield node.lineno, f"os.{func.attr}"
            elif module and func.attr in MODULE_WRITES[module]:
                yield node.lineno, f"{module}.{func.attr}"
            elif not module and (func.attr in PATH_WRITES or func.attr == "open" and _mode_has(node, 0, "wax+", False)):
                yield node.lineno, f".{func.attr}"


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.stem != "data_io"], ids=lambda p: p.name)
def test_only_data_io_writes_files(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    writes = list(_file_writes(tree, "run_lock" if path.stem == "orchestrator" else None))
    assert not writes, f"{path.name}: writes or deletes a file outside data_io: " + ", ".join(
        f"{call} (line {line})" for line, call in sorted(writes)
    )


PATH_READS = {"read_text", "read_bytes"}


def _file_reads(tree):
    """(line, call) of each call in ``tree`` that reads a file: ``json.load``, ``.read_text``, ``.read_bytes``, and a
    builtin or path ``open`` that may read (r, +, or no mode); ``os.open`` is ``run_lock``'s, which the writes check
    covers."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open" and _mode_has(node, 1, "r+", True):
            yield node.lineno, "open"
        elif isinstance(func, ast.Attribute):
            module = func.value.id if isinstance(func.value, ast.Name) and func.value.id in ("json", "os") else None
            if module == "json" and func.attr == "load":
                yield node.lineno, "json.load"
            elif not module and (func.attr in PATH_READS or func.attr == "open" and _mode_has(node, 0, "r+", True)):
                yield node.lineno, f".{func.attr}"


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.stem != "data_io"], ids=lambda p: p.name)
def test_only_data_io_reads_files(path):
    reads = list(_file_reads(ast.parse(path.read_text(encoding="utf-8"))))
    assert not reads, f"{path.name}: reads a file outside data_io: " + ", ".join(
        f"{call} (line {line})" for line, call in sorted(reads)
    )
