"""The public surface: every name a module lists in __all__ resolves, so
`from module import *` cannot fail on a stale entry, and the package and
characters surfaces are pinned, so a deleted name cannot come back
unnoticed."""

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


PINNED = {
    "hooklie": {
        "BiSeries",
        "CyclicExtensionSolution",
        "Infeasible",
        "IntPolynomial",
        "NoExtension",
        "affine_ribbon_fiber",
        "cellini_closed",
        "centralizer_order",
        "character_value",
        "class_size",
        "column_row_mults",
        "column_row_series",
        "construct_extension",
        "cycle_type",
        "descent_distribution",
        "descent_set",
        "extension_certificate",
        "higher_lie_character",
        "hook_mults",
        "hook_mults_oracle",
        "hook_poly",
        "hook_profile",
        "kostka_number",
        "quotient_series",
        "schur_multiplicities",
        "solve_extension",
        "squarefree_criterion",
        "standard_tableaux",
        "straight_ribbon_fiber",
        "witt_coeffs",
        "witt_transform",
    },
    "hooklie.characters": {
        "character_value",
        "higher_lie_character",
        "schur_multiplicities",
        "hook_mults_oracle",
        "h_pairings",
        "clear_memo",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_surface(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__)), "duplicate __all__ entry"
    assert set(module.__all__) == PINNED[name]
