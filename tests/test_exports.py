"""Every exported name resolves, so a deletion cannot leave an export dangling."""

import importlib
import pkgutil

import pytest

import purchase_games

MODULES = sorted(m.name for m in pkgutil.iter_modules(purchase_games.__path__))


@pytest.mark.parametrize("name", ["purchase_games"] + [f"purchase_games.{m}" for m in MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
