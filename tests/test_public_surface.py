"""Every public name of the package has a caller outside the tests.

A name listed in a module's __all__, or exported from the package, must be
read somewhere in src/eivgmm or in perfbench/*.py. Its own definition, its
__all__ entry and its re-export in __init__ are not reads: the scan counts
only names loaded in an expression (ast.Name in a Load context, or an
attribute access), so a name that only the tests call fails here.
"""

import ast
import importlib
import pkgutil
import types
from collections import Counter
from pathlib import Path

import pytest

import eivgmm

ROOT = Path(__file__).resolve().parents[1]
CALLER_FILES = sorted((ROOT / "src" / "eivgmm").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def _reads(path: Path) -> Counter:
    """Names read in one file, by name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
    return reads


def _public_names():
    """(owner, name) for every module's __all__ entry and package export."""
    names = set()
    for info in pkgutil.iter_modules(eivgmm.__path__):
        module = importlib.import_module(f"eivgmm.{info.name}")
        names.update((info.name, name) for name in getattr(module, "__all__", ()))
    names.update(("eivgmm", name) for name, obj in vars(eivgmm).items()
                 if not name.startswith("_") and not isinstance(obj, types.ModuleType))
    return sorted(names)


READS = sum((_reads(path) for path in CALLER_FILES), Counter())


def test_caller_files_found():
    assert (ROOT / "src" / "eivgmm" / "__init__.py") in CALLER_FILES
    assert any(path.parent.name == "perfbench" for path in CALLER_FILES)


@pytest.mark.parametrize("owner, name", _public_names())
def test_public_name_has_a_caller(owner, name):
    assert READS[name] > 0, (
        f"{owner}.{name} is public but nothing in src/ or perfbench/ reads it; "
        "make it private, or delete it and move its tests to the code that runs")
