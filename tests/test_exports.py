import ast
import importlib
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
