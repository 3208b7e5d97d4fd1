"""The public surface: every name a module lists in __all__ resolves, so
`from module import *` cannot fail on a stale entry, and every module's
surface is pinned, so a deleted name cannot come back unnoticed and a
helper cannot become public unnoticed."""

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
        "clear_memos",
        "column_row_mults",
        "column_row_series",
        "construct_extension",
        "cycle_type",
        "descent_distribution",
        "descent_set",
        "extension_certificate",
        "hook_mults",
        "hook_mults_oracle",
        "hook_poly",
        "kostka_number",
        "quotient_series",
        "schur_multiplicities",
        "solve_extension",
        "squarefree_criterion",
        "straight_ribbon_fiber",
        "witt_coeffs",
    },
    "hooklie.combinat": {
        "moebius",
        "is_squarefree",
        "divisors",
        "is_partition",
        "check_class_type",
        "partition_list",
        "centralizer_order",
        "class_size",
        "WALK_LIMIT",
        "check_walk",
        "subset_walk",
        "class_walk",
        "ribbon_walk",
        "cycle_type",
        "conjugacy_class",
        "descent_set",
        "cellini_descent_set",
        "full_mask",
        "rotate_subset",
        "subset_elements",
        "mask_from_elements",
        "syt_descent_counts",
        "kostka_number",
    },
    "hooklie.series": {
        "IntPolynomial",
        "BiSeries",
        "is_unimodal",
    },
    "hooklie.characters": {
        "character_value",
        "schur_multiplicities",
        "hook_mults_oracle",
        "h_pairings",
    },
    "hooklie.lie": {
        "NoExtension",
        "SquarefreeReport",
        "SquareQuotient",
        "witt_coeffs",
        "column_row_mults",
        "hook_mults",
        "hook_poly",
        "column_row_series",
        "extension_certificate",
        "squarefree_criterion",
        "quotient_series",
        "subset_sum_count",
    },
    "hooklie.cdes": {
        "DescentDistribution",
        "Infeasible",
        "FiberSolution",
        "CyclicExtensionSolution",
        "descent_distribution",
        "solve_extension",
        "construct_extension",
        "check_axioms",
        "cellini_closed",
        "cyclic_composition",
        "affine_ribbon_fiber",
        "straight_ribbon_fiber",
        "write_extension",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_surface(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__)), "duplicate __all__ entry"
    assert set(module.__all__) == PINNED[name]
