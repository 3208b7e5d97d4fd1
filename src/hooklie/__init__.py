"""Exact arithmetic for hook constituents of higher Lie characters of the
symmetric group, and for cyclic extensions of the descent-set statistic on
conjugacy classes.

Every number produced here is an exact integer or rational; every closed
formula is backed by an independently computed oracle that the test suite
(and several library entry points) compare against.

Modules
-------
combinat    partitions, permutations, subset masks, standard tableaux counted
            by descent set, Kostka numbers read from those counts
series      integer polynomials (Kronecker products), truncated series in y
characters  Murnaghan-Nakayama values, higher Lie characters by plethysm
lie         hook multiplicities, generating series, square-free criterion
cdes        descent fibers, cyclic extension solver and constructor
suites      the verify suites, each with its bounds and its walks
cli         command line front end (`hooklie`, or `python -m hooklie`)
"""

import sys

from . import lie
from .characters import (
    character_value,
    hook_mults_oracle,
    schur_multiplicities,
)
from .cdes import (
    CyclicExtensionSolution,
    Infeasible,
    affine_ribbon_fiber,
    cellini_closed,
    construct_extension,
    descent_distribution,
    solve_extension,
    straight_ribbon_fiber,
)
from .combinat import (
    centralizer_order,
    class_size,
    cycle_type,
    descent_set,
    kostka_number,
)
from .lie import (
    NoExtension,
    column_row_mults,
    column_row_series,
    extension_certificate,
    hook_mults,
    hook_poly,
    quotient_series,
    squarefree_criterion,
    witt_coeffs,
)
from .series import BiSeries, IntPolynomial

__version__ = "0.1.0"


def clear_memos() -> None:
    """Drop every process-lifetime memo: each functools.lru_cache on the
    package's loaded modules, and lie._COLUMN_ROWS, one column-row table
    per r, rebuilt when a larger s is asked, so not an lru_cache."""
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    lie._COLUMN_ROWS.clear()

__all__ = [
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
]
