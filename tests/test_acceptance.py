"""Acceptance gate: fourteen exact end-to-end checks, one per test, each
printing its own pass/fail line (run with `pytest tests/test_acceptance.py -v -s`
to see them).

Each check compares a closed formula against an independent route — a
character-theoretic oracle, a brute-force enumeration, or a frozen
hand-verified constant — with exact integer equality throughout.
"""

from brute_force import descent_distribution_by_enumeration

from hooklie import cdes, characters, lie
from hooklie.combinat import (
    conjugacy_class,
    descent_set,
    full_mask,
    is_squarefree,
    moebius,
    partition_list,
    subset_elements,
)
from hooklie.series import IntPolynomial, is_unimodal

ONE_PLUS_X = IntPolynomial((1, 1))
X = IntPolynomial((0, 1))


def xpow(k, c=1):
    return IntPolynomial([0] * k + [c])


def report(number, name, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{mark}] criterion {number:>2}: {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


def test_criterion_01_witt_polynomial_regression():
    expected = {
        1: ONE_PLUS_X,
        2: ONE_PLUS_X * X,
        3: ONE_PLUS_X * X,
        4: ONE_PLUS_X * X * ONE_PLUS_X,
        5: ONE_PLUS_X * X * IntPolynomial((1, 1, 1)),
        6: ONE_PLUS_X * X * IntPolynomial((1, 2, 1, 1)),
    }
    bad = [
        r
        for r, poly in expected.items()
        if IntPolynomial(lie.witt_coeffs(r)) != poly
    ]
    report(
        1,
        "Witt coefficient polynomials for r = 1..6 match their factored forms",
        not bad,
        f"mismatches at r={bad}" if bad else "",
    )


def test_criterion_02_formula_vs_oracle_vs_descent_fibers():
    bad = []
    for r in range(1, 9):
        for s in range(1, 9):
            n = r * s
            if n > 8:
                continue
            mu = (r,) * s
            formula = lie.hook_mults(r, s)
            oracle = characters.hook_mults_oracle(mu)
            # third route: count class members whose descent set is exactly
            # the initial segment {1..k}
            fibers = [0] * n
            for pi in conjugacy_class(mu):
                mask = descent_set(pi)
                elems = subset_elements(mask)
                if elems == tuple(range(1, len(elems) + 1)):
                    fibers[len(elems)] += 1
            if not (formula == oracle == tuple(fibers)):
                bad.append((r, s))
    report(
        2,
        "hook multiplicities: closed formula == induced-character oracle "
        "== initial-segment descent fibers for all rs <= 8",
        not bad,
        f"mismatches at {bad}" if bad else "",
    )


def test_criterion_03_main_theorem_scan():
    bad = []
    for n in range(1, 9):
        for mu in partition_list(n):
            sol = cdes.solve_extension(descent_distribution_by_enumeration(mu))
            feasible = not isinstance(sol, cdes.Infeasible)
            rect = lie._rectangle(mu)
            expected = not (rect is not None and is_squarefree(rect[0]))
            if feasible != expected:
                bad.append(mu)
    report(
        3,
        "cyclic extension exists iff the class is not a square-free-part "
        "rectangle, for every class with n <= 8",
        not bad,
        f"mismatches at {bad}" if bad else "",
    )


def test_criterion_04_moment_identity():
    bad = []
    for r in range(1, 201):
        f = lie.witt_coeffs(r)
        moment = sum((-1) ** (j + 1) * j * fj for j, fj in enumerate(f))
        if moment != moebius(r):
            bad.append(r)
    report(
        4,
        "alternating first moment of Witt coefficients equals moebius(r) "
        "for r <= 200",
        not bad,
        f"mismatches at r={bad}" if bad else "",
    )


def test_criterion_05_divisibility_dichotomy():
    bad = []
    square = IntPolynomial((1, 2, 1))
    for r in range(1, 31):
        series = lie.column_row_series(r, 8)
        squarefree = is_squarefree(r)
        for s in range(1, 9):
            divisible = series.coeff(s).divide_exact(square) is not None
            if divisible == squarefree:
                bad.append((r, s))
    report(
        5,
        "(1+x)^2 divides each y-coefficient of the generating series iff "
        "r has a square factor, for r <= 30, s <= 8",
        not bad,
        f"mismatches at {bad}" if bad else "",
    )


def test_criterion_06_quotient_nonnegativity():
    bad = []
    for r in range(1, 21):
        if is_squarefree(r):
            continue
        quotient = lie.quotient_series(r, 5)
        if quotient is None:
            bad.append((r, "missing"))
            continue
        for s in range(6):
            if any(c < 0 for c in quotient.series.coeff(s).coeffs):
                bad.append((r, s))
    report(
        6,
        "the square quotient of the generating series has non-negative "
        "coefficients for non-square-free r <= 20, s <= 5",
        not bad,
        f"violations at {bad}" if bad else "",
    )


def test_criterion_07_unimodality():
    bad = []
    for r in range(1, 41):
        for s in range(1, 9):
            if not is_unimodal(lie.hook_mults(r, s)):
                bad.append((r, s))
    report(
        7,
        "hook multiplicity sequences are unimodal for all r <= 40, s <= 8",
        not bad,
        f"counterexamples at {bad}" if bad else "",
    )


def test_criterion_08_four_cycle_worked_example():
    sol = cdes.construct_extension((4,))
    ok = not isinstance(sol, cdes.Infeasible)
    detail = ""
    if ok:
        got = {
            tuple(subset_elements(m)): c for m, c in sol.fibers.counts.items() if c
        }
        want = {
            (3, 4): 1,
            (2, 4): 1,
            (1, 3): 1,
            (2, 3): 1,
            (1, 4): 1,
            (1, 2): 1,
        }
        axioms = cdes.check_axioms(sol)
        ok = got == want and all(axioms.values())
        detail = f"fibers={got}, axioms={axioms}" if not ok else ""
    report(
        8,
        "the 4-cycle class carries the unique unit-fiber extension on all "
        "two-element subsets and satisfies every axiom",
        ok,
        detail,
    )


def test_criterion_09_straight_ribbon_fibers():
    bad = []
    for n in range(1, 7):
        for mu in partition_list(n):
            dist = descent_distribution_by_enumeration(mu)
            for mask in range(1 << (n - 1)):
                if cdes.straight_ribbon_fiber(mu, mask) != dist.count(mask):
                    bad.append((mu, tuple(subset_elements(mask))))
    report(
        9,
        "Schur-expansion descent fibers equal brute-force descent fibers "
        "for every class and subset, n <= 6",
        not bad,
        f"mismatches at {bad[:4]}" if bad else "",
    )


def test_criterion_10_affine_ribbon_fibers():
    bad = []
    for n in range(1, 8):
        for mu in partition_list(n):
            sol = cdes.solve_extension(cdes.descent_distribution(mu))
            if isinstance(sol, cdes.Infeasible):
                continue
            mults = characters.schur_multiplicities(mu)
            for mask in range(1, full_mask(n)):
                if cdes.affine_ribbon_fiber(mu, mask, mults) != sol.count(mask):
                    bad.append((mu, tuple(subset_elements(mask))))
    report(
        10,
        "cyclic ribbon inclusion-exclusion reproduces every solved cyclic "
        "descent fiber for feasible classes, n <= 7",
        not bad,
        f"mismatches at {bad[:4]}" if bad else "",
    )


def test_criterion_11_subset_sum_identities():
    bad_hooks = [
        (n, k)
        for n in range(1, 13)
        for k in range(n)
        if lie.hook_mults(n, 1)[k] != lie.subset_sum_count(n, k, include_n=False)
    ]
    bad_witt = [
        (n, k)
        for n in range(1, 13)
        for k in range(n + 1)
        if lie.witt_coeffs(n)[k] != lie.subset_sum_count(n, k, include_n=True)
    ]
    report(
        11,
        "hook multiplicities of full cycles and Witt coefficients count "
        "k-subsets with sum 1 mod n, for n <= 12",
        not (bad_hooks or bad_witt),
        f"hooks={bad_hooks[:3]} witt={bad_witt[:3]}" if bad_hooks or bad_witt else "",
    )


def test_criterion_12_cellini_closure_scan():
    closed = [
        mu
        for n in range(2, 7)
        for mu in partition_list(n)
        if cdes.cellini_closed(mu)
    ]
    ok = closed == [(2, 1), (3, 1)]
    report(
        12,
        "exactly the 2-cycle class of S_3 and the 3-cycle class of S_4 have "
        "rotation-closed Cellini descent multisets, 2 <= n <= 6",
        ok,
        f"found {closed}" if not ok else "",
    )


def test_criterion_13_special_hook_polynomials():
    bad = []
    for s in range(1, 6):
        if lie.hook_poly(2, s) != xpow(2 * s - 1):
            bad.append((2, s))
        if lie.hook_poly(3, s) != xpow(2 * s - 1):
            bad.append((3, s))
        if lie.hook_poly(4, s) != xpow(2 * s - 1, s) * ONE_PLUS_X:
            bad.append((4, s))
    report(
        13,
        "hook polynomials of two-, three- and four-cycle rectangles match "
        "their closed forms for s <= 5",
        not bad,
        f"mismatches at {bad}" if bad else "",
    )


def test_criterion_14_certificate_dichotomy_on_every_class():
    # each call also compares the rectangle-product hooks with the oracle
    classes = [mu for n in range(1, 21) for mu in partition_list(n)]
    bad = []
    for mu in classes:
        rect = lie._rectangle(mu)
        expected = not (rect is not None and is_squarefree(rect[0]))
        if isinstance(lie.extension_certificate(mu), tuple) != expected:
            bad.append(mu)
    report(
        14,
        "a certificate exists iff the class is not a square-free-part "
        f"rectangle, on all {len(classes)} classes with n <= 20",
        not bad and len(classes) == 2713,
        f"mismatches at {bad[:3]}" if bad else "",
    )
