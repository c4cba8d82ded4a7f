"""No module-level name in the package goes unused.

A function, class or constant defined at the top level of a module under
src/cosetgeom counts as used when some file under src/, tests/ or
perfbench/ loads it by name, reads it as an attribute, or imports it.
A method (any function defined in a class body, dunders aside) counts
as used when some such file reads its name: as a name, an attribute,
an import or a string constant, as getattr(owner, "name") needs.
A dataclass field counts as read when some such file reads it as an
attribute or names it in a string constant (for getattr or fields());
passing it as a constructor keyword does not count.
A name imported into a file under tests/ must be read in that file, and
so must a name imported into a module under src/cosetgeom other than the
package __init__, which re-exports on purpose.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cosetgeom"


def _defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _methods(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield "%s.%s" % (node.name, item.name), item.name


def _trees():
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            yield ast.parse(path.read_text())


def test_no_unused_module_level_names():
    used = set()
    for tree in _trees():
        used.update(_used(tree))
    unused = sorted(
        "%s.%s" % (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name in _defined(ast.parse(path.read_text()))
        if name not in used and not name.startswith("__"))
    assert unused == []


def test_no_unused_methods():
    read = set()
    for tree in _trees():
        read.update(_used(tree))
        read.update(node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str))
    unused = sorted(
        "%s.%s" % (path.stem, qualname)
        for path in PACKAGE.glob("*.py")
        for qualname, name in _methods(ast.parse(path.read_text()))
        if name not in read and not name.startswith("__"))
    assert unused == []


def _is_dataclass(node):
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call):
            deco = deco.func
        if isinstance(deco, ast.Name) and deco.id == "dataclass":
            return True
    return False


def _dataclass_fields(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name):
                    yield "%s.%s" % (node.name, item.target.id), \
                        item.target.id


def test_no_unread_dataclass_fields():
    read = set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                read.add(node.value)
    unread = sorted(
        "%s.%s" % (path.stem, qualname)
        for path in PACKAGE.glob("*.py")
        for qualname, name in _dataclass_fields(ast.parse(path.read_text()))
        if name not in read)
    assert unread == []


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name.split(".")[0]


def _unread_imports(paths):
    for path in paths:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        yield from ("%s: %s" % (path.name, name)
                    for name in _imported(tree) if name not in read)


def test_no_unused_test_imports():
    assert list(_unread_imports(sorted((ROOT / "tests").rglob("*.py")))) == []


def test_no_unused_package_imports():
    # cli keeps its binding of incidence_graph_stats unread:
    # perfbench/selftest.py checks that the tracer rebinds it there
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert list(_unread_imports(paths)) == ["cli.py: incidence_graph_stats"]
