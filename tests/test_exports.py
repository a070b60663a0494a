"""The public API stays what the modules declare: every name in a module's
`__all__` exists, and the package re-exports only declared names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import censrank

MODULES = sorted(info.name for info in pkgutil.iter_modules(censrank.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"censrank.{name}")
    assert hasattr(module, "__all__"), f"censrank.{name} declares no __all__"
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert missing == []


def test_package_imports_only_declared_names():
    tree = ast.parse(Path(censrank.__file__).read_text(encoding="utf-8"))
    imported = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"censrank.{node.module}")
            for alias in node.names:
                if not alias.name.startswith("_"):
                    assert alias.name in module.__all__, f"{node.module}.{alias.name}"
                    imported += 1
    assert imported > 0
