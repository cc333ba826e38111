"""Every module under src/, tests/ and demos/ uses each name it imports,
the package reads each private name it defines at module level, it
imports itself by relative names only, and each of its modules lists in
``__all__`` every public function and class it defines, which the package
exports as they are.

A name counts as used when the module reads it anywhere or lists it in
``__all__``; a package's ``__init__.py`` imports to re-export, so all its
names count as used.  Relative imports let two copies of the package load
side by side under different names, as an in-process A/B comparison needs.
"""

import ast
from pathlib import Path

import proxsplit

ROOT = Path(__file__).resolve().parents[1]


def imported_names(tree):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def listed_names(tree):
    """The names a module's literal ``__all__`` lists."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)]


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used.union(listed_names(tree))


def unlisted_public_names(tree):
    """Every public function or class a module defines at its top level
    that its ``__all__`` does not list."""
    listed = set(listed_names(tree))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in listed]


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported_names(tree) if name not in used]


def private_names(tree):
    """(name, line) of every private function, class or constant a module
    defines at its top level; dunder names such as ``__all__`` are not
    private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def read_names(tree):
    """Every name a module reads, as a variable, an attribute or an
    import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def absolute_self_imports(tree):
    """Line of every import of ``proxsplit`` by its absolute name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "proxsplit" for name in names):
            yield node.lineno


def test_no_module_imports_a_name_it_never_uses():
    paths = [p for top in ("src", "tests", "demos")
             for p in sorted((ROOT / top).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(paths) > 10
    unused = [hit for path in paths for hit in unused_imports(path)]
    assert unused == []


def test_unused_import_is_found():
    tree = ast.parse("import os\nimport numpy.linalg\n"
                     "from math import pi, tau as turn\n"
                     "__all__ = ['pi']\nprint(numpy.linalg.norm([1.0]))\n")
    assert sorted(name for name, _ in imported_names(tree)
                  if name not in used_names(tree)) == ["os", "turn"]


def test_every_private_module_name_is_read_in_the_package():
    paths = sorted((ROOT / "src" / "proxsplit").rglob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    read = set().union(*map(read_names, trees.values()))
    unread = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path, tree in trees.items()
              for name, line in private_names(tree) if name not in read]
    assert unread == []


def test_unread_private_name_is_found():
    defs = ast.parse("_A = 1\n_B, _C = 2, 3\n_D: int = 4\n__all__ = []\n"
                     "def _f():\n    return _A\nclass _K:\n    pass\n"
                     "def g():\n    _E = 5\n    return _E\n")
    uses = ast.parse("from .m import _D\nimport m\nprint(m._K)\n")
    read = read_names(defs) | read_names(uses)
    assert sorted(name for name, _ in private_names(defs)
                  if name not in read) == ["_B", "_C", "_f"]


def test_the_package_imports_itself_by_relative_names_only():
    paths = sorted((ROOT / "src" / "proxsplit").rglob("*.py"))
    assert len(paths) > 5
    hits = [f"{path.relative_to(ROOT)}:{line}" for path in paths
            for line in absolute_self_imports(ast.parse(path.read_text()))]
    assert hits == []


def test_absolute_self_import_is_found():
    tree = ast.parse("import proxsplit.rng\nfrom proxsplit import ct\n"
                     "import numpy, proxsplit as ps\nfrom . import ct\n"
                     "from .rng import Stream\nimport proxsplitter\n")
    assert list(absolute_self_imports(tree)) == [1, 2, 3]


EXPORTING = ("errors", "linops", "prox", "product", "solvers", "ct")


def test_every_public_definition_is_in_its_modules_all():
    src = ROOT / "src" / "proxsplit"
    unlisted = [f"{name}.{hit}" for name in EXPORTING if name != "errors"
                for hit in unlisted_public_names(
                    ast.parse((src / f"{name}.py").read_text()))]
    assert unlisted == []


def test_unlisted_public_definition_is_found():
    tree = ast.parse("__all__ = ['f', 'K']\ndef f():\n    pass\n"
                     "class K:\n    def m(self):\n        pass\n"
                     "def g():\n    pass\nclass _P:\n    pass\n"
                     "class Q:\n    pass\nR = 1\n")
    assert unlisted_public_names(tree) == ["g", "Q"]


def test_the_package_exports_each_modules_all_once_as_it_is():
    assert len(set(proxsplit.__all__)) == len(proxsplit.__all__)
    modules = [getattr(proxsplit, name) for name in EXPORTING]
    assert sorted(proxsplit.__all__) == sorted(
        name for m in modules for name in m.__all__)
    unbound = [f"{m.__name__}.{name}" for m in modules for name in m.__all__
               if getattr(proxsplit, name) is not getattr(m, name)]
    assert unbound == []
