"""Exported names resolve: a deletion that leaves a stale export fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import irs_secrecy

PACKAGE = Path(irs_secrecy.__file__).parent
MODULES = sorted(m.name.removeprefix("irs_secrecy.") for m in
                 pkgutil.walk_packages([str(PACKAGE)], prefix="irs_secrecy.")
                 if m.name != "irs_secrecy.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"irs_secrecy.{name}")
    assert module.__all__, f"{name} exports nothing"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"irs_secrecy.{name}.__all__ names missing: {missing}"


def test_every_name_the_package_imports_exists():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"irs_secrecy.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert getattr(irs_secrecy, alias.asname or alias.name) is \
                getattr(module, alias.name)
