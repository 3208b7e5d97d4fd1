"""The public surface: every name a module lists in __all__ resolves, so
`from module import *` cannot fail on a stale entry."""

import importlib

import pytest

MODULES = (
    "hooklie",
    "hooklie.combinat",
    "hooklie.series",
    "hooklie.characters",
    "hooklie.lie",
    "hooklie.cdes",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
