import ast
import importlib
from collections import Counter
from pathlib import Path

import finitekey

MODULES = ("kernel", "smooth", "spectra", "keyrate", "asymptotic")


def _imported(path):
    """(module, name) for each name `path` takes from a sibling module by
    `from .module import name`."""
    tree = ast.parse(Path(path).read_text())
    return {(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def test_every_export_has_a_user():
    """No dead exports: each name in a module's __all__ is imported by
    another module of the package, or re-exported from finitekey.__all__."""
    package = Path(finitekey.__file__).parent
    dead = {}
    for module in MODULES:
        used = set().union(*(_imported(p) for p in package.glob("*.py")
                             if p.stem not in (module, "__init__")))
        names = importlib.import_module(f"finitekey.{module}").__all__
        missing = [n for n in names if (module, n) not in used and n not in finitekey.__all__]
        if missing:
            dead[module] = missing
    assert dead == {}


def _identifiers(node):
    """Each name read or written under node, as a Name or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_top_level_helper_has_a_user():
    """No unused helper: every module-level def, class and constant of the
    package is referenced somewhere in it outside its own definition, or
    is public in its module's __all__.  A definition referring to itself,
    as a recursion does, does not count."""
    package = Path(finitekey.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    counts = Counter(name for tree in trees.values() for name in _identifiers(tree))
    unused = []
    for module, tree in trees.items():
        mod = finitekey if module == "__init__" else importlib.import_module(f"finitekey.{module}")
        public = getattr(mod, "__all__", [])
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = Counter(_identifiers(node))
            unused += [f"{module}.{name}" for name in names
                       if not name.startswith("__") and name not in public
                       and counts[name] == own[name]]
    assert unused == []
