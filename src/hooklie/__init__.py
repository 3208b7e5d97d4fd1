"""Exact arithmetic for hook constituents of higher Lie characters of the
symmetric group, and for cyclic extensions of the descent-set statistic on
conjugacy classes.

Every number produced here is an exact integer or rational; every closed
formula is backed by an independently computed oracle that the test suite
(and several library entry points) compare against.

Modules
-------
combinat    partitions, permutations, subset masks, tableaux, Kostka numbers
series      integer polynomials, truncated two-variable series, Witt transform
characters  Murnaghan-Nakayama values, higher Lie characters by plethysm
lie         hook multiplicities, generating series, square-free criterion
cdes        descent fibers, cyclic extension solver and constructor
cli         command line front end (`hooklie`, or `python -m hooklie`)
"""

from .characters import (
    character_value,
    higher_lie_character,
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
    standard_tableaux,
)
from .lie import (
    NoExtension,
    column_row_mults,
    column_row_series,
    extension_certificate,
    hook_mults,
    hook_poly,
    hook_profile,
    quotient_series,
    squarefree_criterion,
    witt_coeffs,
)
from .series import BiSeries, IntPolynomial, witt_transform

__version__ = "0.1.0"

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
]
