"""The verify suites: SUITES maps each name to a Suite(run, bounds, cost).

run(payload, **bounds) is a generator that writes its counters into
payload and yields (name, failures) or (name, failures, note) per
assertion, failed iff failures is non-empty, with str(failures) or else
note as its detail.  bounds maps each bound the suite reads to its default.
verify passes each (items, what) walk of cost(**bounds), saturated as
subset_walk is, to combinat.check_walk before run; no suite checks a walk.
"""

from typing import Callable, Dict, Iterator, NamedTuple

from . import cdes, characters, lie
from .combinat import (
    class_walk,
    full_mask,
    is_squarefree,
    partition_list,
    ribbon_walk,
    subset_elements,
    subset_walk,
)
from .series import is_unimodal

DEFAULT_S_MAX = 5


def subset_list(mask: int) -> list:
    return list(subset_elements(mask))


def suite_main_theorem(payload: dict, n_max: int) -> Iterator[tuple]:
    """Extension exists iff the class is not a rectangle with square-free
    part size; exhaustive over n <= n_max."""
    scanned = 0
    for n in range(1, n_max + 1):
        bad = []
        for mu in partition_list(n):
            scanned += 1
            infeasible = isinstance(
                cdes.solve_extension(cdes.descent_distribution(mu)), cdes.Infeasible
            )
            rect = lie._rectangle(mu)
            if infeasible != (rect is not None and is_squarefree(rect[0])):
                bad.append(list(mu))
        yield f"feasibility-matches-squarefree-rectangle-characterization-n={n}", bad
    payload["classes_scanned"] = scanned


def suite_squarefree(payload: dict, r_max: int, s_max: int) -> Iterator[tuple]:
    """(1+x)^2 divides every [y^s] iff r has a square factor; the moment
    identity; non-negativity of the square quotients."""
    bad_dichotomy = []
    bad_moment = []
    bad_quotient = []
    for r in range(1, r_max + 1):
        try:
            crit = lie.squarefree_criterion(r, s_max)
        except ArithmeticError as exc:
            bad_moment.append({"r": r, "error": str(exc)})
            continue
        if not crit.dichotomy_holds:
            bad_dichotomy.append({"r": r, "divisible": list(crit.divisible)})
        if not crit.squarefree:
            try:
                lie.quotient_series(r, s_max)
            except ArithmeticError as exc:
                bad_quotient.append({"r": r, "error": str(exc)})
    payload["r_scanned"] = r_max
    yield "moment-equals-moebius", bad_moment
    yield "divisible-by-(1+x)^2-iff-square-factor", bad_dichotomy
    yield "square-quotients-nonnegative", bad_quotient


def suite_unimodality(payload: dict, r_max: int, s_max: int) -> Iterator[tuple]:
    """Hook multiplicity sequences are unimodal in the scanned range;
    counterexamples are reported, never assumed absent."""
    violations = []
    for r in range(1, r_max + 1):
        # largest s first, so the column-row table of r is built once
        found = []
        for s in range(s_max, 0, -1):
            m = lie.hook_mults(r, s)
            if not is_unimodal(m):
                found.append({"r": r, "s": s, "hooks": [str(v) for v in m]})
        violations.extend(reversed(found))
    payload["pairs_scanned"] = r_max * s_max
    payload["counterexamples"] = violations
    yield "hook-multiplicities-unimodal", violations


def suite_gr_fibers(payload: dict, n_max: int) -> Iterator[tuple]:
    """Schur-expansion descent fibers (multiplicities times standard
    tableaux by descent set) match the Gessel-Reutenauer fibers of
    descent_distribution for every class and every descent set, n <= n_max."""
    for n in range(1, n_max + 1):
        bad = []
        for mu in partition_list(n):
            fibers = cdes.descent_distribution(mu).table
            table = cdes._straight_fibers(mu).table
            bad.extend(
                {"mu": list(mu), "J": subset_list(mask)}
                for mask, count in enumerate(fibers)
                if table[mask] != count
            )
        yield f"descent-fibers-match-schur-expansion-n={n}", bad


def suite_kw_identity(payload: dict, n_max: int) -> Iterator[tuple]:
    """Hook multiplicities of the full cycle count k-subsets of [n-1]
    with sum 1 mod n; Witt coefficients count them inside [n]."""
    bad_hooks = []
    bad_witt = []
    for n in range(1, n_max + 1):
        m = lie.hook_mults(n, 1)
        for k in range(n):
            if m[k] != lie.subset_sum_count(n, k, include_n=False):
                bad_hooks.append({"n": n, "k": k})
        f = lie.witt_coeffs(n)
        for k in range(n + 1):
            if f[k] != lie.subset_sum_count(n, k, include_n=True):
                bad_witt.append({"n": n, "k": k})
    payload["n_scanned"] = n_max
    yield "full-cycle-hooks-count-subset-sums", bad_hooks
    yield "witt-coefficients-count-subset-sums", bad_witt


def suite_cellini(payload: dict, n_max: int) -> Iterator[tuple]:
    """Scan 2 <= n <= n_max for classes whose Cellini cyclic descent
    multiset is rotation closed (n = 1 is degenerate: rotation is the
    identity map on subsets of [1])."""
    closed = []
    for n in range(2, n_max + 1):
        for mu in partition_list(n):
            if cdes.cellini_closed(mu):
                closed.append(list(mu))
    expected = [mu for mu in ([2, 1], [3, 1]) if sum(mu) <= n_max]
    payload["closed_classes"] = closed
    yield (
        "cellini-closed-exactly-two-small-classes",
        [mu for mu in closed + expected if (mu in closed) != (mu in expected)],
        f"found={closed}",
    )


def suite_affine_fibers(payload: dict, n_max: int) -> Iterator[tuple]:
    """For every feasible class, the inclusion-exclusion of cyclic ribbon
    characters reproduces every solved cDes fiber size, n <= n_max."""
    for n in range(1, n_max + 1):
        bad = []
        feasible = 0
        for mu in partition_list(n):
            sol = cdes.solve_extension(cdes.descent_distribution(mu))
            if isinstance(sol, cdes.Infeasible):
                continue
            feasible += 1
            mults = characters.schur_multiplicities(mu)
            for mask in range(1, full_mask(n)):
                if cdes.affine_ribbon_fiber(mu, mask, mults) != sol.count(mask):
                    bad.append({"mu": list(mu), "J": subset_list(mask)})
        yield (
            f"cdes-fibers-match-cyclic-ribbon-expansion-n={n}",
            bad,
            f"feasible_classes={feasible}",
        )


class Suite(NamedTuple):
    run: Callable[..., Iterator[tuple]]
    bounds: Dict[str, int]
    cost: Callable[..., tuple]


def _subsets(n_max: int, *walks: tuple) -> tuple:
    # every fiber table and subset_sum_count walk the subsets of [n]
    return ((subset_walk(n_max), f"the subsets of [{n_max}]"),) + walks


SUITES: Dict[str, Suite] = {
    "main-theorem": Suite(suite_main_theorem, {"n_max": 8}, _subsets),
    "squarefree": Suite(
        suite_squarefree, {"r_max": 30, "s_max": DEFAULT_S_MAX}, lambda **_: ()
    ),
    "unimodality": Suite(suite_unimodality, {"r_max": 40, "s_max": 8}, lambda **_: ()),
    # no tableau is walked: a class's table merges at most 2^(n-1) p(n) (mask,
    # shape) counts, and the (row, mask) table of a shape lam has at most
    # min(f^lam, l(lam) 2^(n-1)) entries, so all of S_n's at most t(n) = sum
    # of f^lam <= 2^(n-1) p(n) for n <= 12 (140,152 <= 157,696); both pass at 13
    "gr-fibers": Suite(suite_gr_fibers, {"n_max": 6}, lambda n_max: _subsets(
        n_max, (ribbon_walk(n_max), f"the (mask, shape) pairs of a class of S_{n_max}")
    )),
    "kw-identity": Suite(suite_kw_identity, {"n_max": 12}, _subsets),
    # cellini_closed walks only the classes with one fixed point, but
    # (n-1, 1) is one of them and a largest class of S_n, n >= 2, as no
    # centralizer order is below its own, so the bound is unchanged
    "cellini": Suite(suite_cellini, {"n_max": 6}, lambda n_max: () if n_max == 1 else (
        (class_walk((n_max - 1, 1)), f"the elements of a class of S_{n_max}"),
    )),
    # affine_ribbon_fiber walks every submask of every mask: 3^n pairs, never
    # built past 3^20 (3^12 is already over the walk limit)
    "affine-fibers": Suite(suite_affine_fibers, {"n_max": 7}, lambda n_max: _subsets(
        n_max, (3 ** min(n_max, 20), f"the (mask, submask) pairs of a class of S_{n_max}")
    )),
}
