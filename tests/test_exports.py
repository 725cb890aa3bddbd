"""The package's export lists agree with what the modules define and what
``qkbw`` re-exports, so a deleted or renamed function leaves no stale name."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qkbw

MODULES = sorted(info.name for info in pkgutil.iter_modules(qkbw.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"qkbw.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == [], f"qkbw.{name}.__all__ names {missing}"


def test_every_package_import_is_in_its_modules_all():
    tree = ast.parse(Path(qkbw.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports and all(node.level == 1 for node in imports)
    for node in imports:
        exported = importlib.import_module(f"qkbw.{node.module}").__all__
        unlisted = [alias.name for alias in node.names if alias.name not in exported]
        assert unlisted == [], f"qkbw imports {unlisted} from qkbw.{node.module}"
