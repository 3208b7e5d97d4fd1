"""Tests for descent fibers, the cyclic extension solver/constructor and its
dump writer (hooklie.cli.write_extension), the Cellini closure scan, and
the two ribbon-fiber formulas.

The Gessel-Reutenauer descent fibers are compared against the class
enumeration of tests/brute_force.py, and the slice-pass solver against the
dict-and-stack propagation there."""

import io
import itertools
import json
import math
import random
import re
import tracemalloc
from collections import Counter

import pytest
from brute_force import (
    cellini_closed_by_enumeration,
    class_by_filtering,
    composition_shapes_by_mask,
    dense_table,
    des_fibers_by_list,
    descent_distribution_by_enumeration,
    extension_records,
    h_pairings_by_necklaces,
    solve_extension_by_propagation,
)

from hooklie import cdes, characters, cli, combinat
from hooklie.cdes import (
    CyclicExtensionSolution,
    DescentDistribution,
    FiberSolution,
    Infeasible,
    affine_ribbon_fiber,
    cellini_closed,
    check_axioms,
    construct_extension,
    cyclic_composition,
    descent_distribution,
    solve_extension,
    straight_ribbon_fiber,
)
from hooklie.characters import schur_multiplicities
from hooklie.cli import write_extension
from hooklie.combinat import (
    cellini_descent_set,
    class_size,
    conjugacy_class,
    descent_set,
    full_mask,
    is_squarefree,
    mask_from_elements,
    partition_list,
    rotate_subset,
    subset_elements,
)


def M(*elems):
    return mask_from_elements(elems)


# -- descent distribution ----------------------------------------------------


def test_distribution_four_cycles():
    dist = descent_distribution((4,))
    fibers = {tuple(subset_elements(m)): c for m, c in dist.fibers.items() if c}
    assert fibers == {
        (1,): 1,
        (2,): 1,
        (3,): 1,
        (1, 2): 1,
        (1, 3): 1,
        (2, 3): 1,
    }


def test_distribution_total_is_class_size():
    for n in range(1, 8):
        for mu in partition_list(n):
            dist = descent_distribution(mu)
            assert sum(dist.fibers.values()) == class_size(mu)


def test_distribution_identity_class():
    dist = descent_distribution((1, 1, 1))
    assert dist.count(0) == 1
    assert sum(dist.fibers.values()) == 1


def test_count_is_zero_outside_the_table():
    # count never follows a negative index, nor runs past the table
    dist = descent_distribution((3, 1))
    sol = solve_extension(dist)
    for record in (dist, sol):
        table = record.table
        assert record.count(-1) == record.count(len(table)) == 0
        assert record.count(-len(table)) == record.count(1 << 40) == 0
        assert [record.count(m) for m in range(len(table))] == list(table)


def test_nonzero_views_match_the_enumerated_counts():
    for mu in [(4,), (3, 1), (2, 2), (2, 1, 1), (3, 2, 1)]:
        n = sum(mu)
        elements = list(conjugacy_class(mu))
        dist = descent_distribution(mu)
        assert len(dist.table) == 1 << (n - 1)
        des = dict(Counter(map(descent_set, elements)))
        views = [(dist.table, dist.fibers, des)]
        sol = construct_extension(mu)
        if not isinstance(sol, Infeasible):
            assert len(sol.fibers.table) == 1 << n
            views.append((sol.fibers.table, sol.fibers.counts, dict(Counter(sol.cdes))))
        for table, view, counted in views:
            assert view == counted and counted == view, mu
            # zero masks are left out; the rest come in increasing mask order
            assert list(view) == sorted(counted) == [m for m, c in enumerate(table) if c]
            assert list(view.items()) == sorted(counted.items())
            assert list(view.values()) == [counted[m] for m in sorted(counted)]
            assert len(view) == len(counted)
            zero = table.index(0)
            assert zero not in view and view.get(zero) is None
            with pytest.raises(KeyError):
                view[zero]
            for key in (-1, len(table), "1"):
                assert key not in view
            with pytest.raises(TypeError):
                view[zero] = 1
            with pytest.raises(TypeError):
                del view[min(counted)]
            assert view == counted  # unchanged


def test_distribution_rejects_oversized_class():
    # the 2^19 subsets of [19] are over the walk limit, whatever the class size
    for mu in ((19,), (1,) * 19):
        with pytest.raises(ValueError, match="walk limit"):
            descent_distribution(mu)
    # the limit is the largest class of S_10, and the 2^18 subsets of [18] fit
    largest = max(class_size(mu) for mu in partition_list(10))
    assert combinat.WALK_LIMIT == largest == 403_200
    combinat.check_walk(combinat.subset_walk(18), "the subsets of [18]")
    # the routes that walk the class refuse (11), with 10! elements, and
    # (10, 1), which has one fixed point, with 11!/10
    with pytest.raises(ValueError, match="walk limit"):
        construct_extension((11,))
    with pytest.raises(ValueError, match="walk limit"):
        cellini_closed((10, 1))
    # descent fibers walk no class element, so (11) runs
    dist = descent_distribution((11,))
    assert sum(dist.fibers.values()) == math.factorial(10) == 3_628_800


def test_walk_counts_saturate_past_the_limit():
    cap = 2**20
    assert cap > combinat.WALK_LIMIT
    for n in range(1, 16):
        for mu in partition_list(n):
            assert combinat.class_walk(mu) == min(class_size(mu), cap), mu
    for n in range(30):
        assert combinat.subset_walk(n) == min(2**n, cap)
    for n in range(1, 30):
        assert combinat.ribbon_walk(n) == min(2 ** (n - 1) * len(partition_list(n)), cap)
    # a huge n is judged without building n! or 2^n
    assert combinat.class_walk((1,) * 100_000) == 1
    walk = combinat.class_walk((2,) + (1,) * 896)
    assert walk == math.comb(898, 2) <= combinat.WALK_LIMIT
    assert combinat.class_walk((2,) + (1,) * 897) > combinat.WALK_LIMIT
    assert combinat.class_walk((100_000,)) == combinat.subset_walk(10**12) == cap
    assert combinat.ribbon_walk(10**12) == cap


class _NoWork(tuple):
    """A table whose entries fail the test if any is read."""

    def __getitem__(self, index):
        raise AssertionError("work started on a refused input")

    def __iter__(self):
        raise AssertionError("work started on a refused input")


def _no_work(*args):
    raise AssertionError("work started on a refused input")


def test_walks_over_the_limit_are_refused_before_any_work(monkeypatch):
    monkeypatch.setattr(characters, "_h_pairings", _no_work)
    monkeypatch.setattr(cdes, "conjugacy_class", _no_work)
    # (1^19) has one element and (2, 1^17) has 171: only n refuses them
    for mu in ((19,), (1,) * 19, (2,) + (1,) * 17):
        for call in (descent_distribution, construct_extension):
            with pytest.raises(ValueError, match="walk limit"):
                call(mu)
    with pytest.raises(ValueError, match="walk limit"):
        solve_extension(cdes.DescentDistribution(19, _NoWork((1,))))


@pytest.mark.parametrize(
    "n, length", [(0, 0), (0, 1), (1, 0), (1, 2), (3, 3), (3, 5), (3, 8), (5, 15), (5, 32)]
)
def test_solver_refuses_a_table_of_the_wrong_length(n, length):
    # the Des table of S_n has 2^(n-1) entries (S_0 has none); any other
    # length is refused before an entry is read
    with pytest.raises(ValueError, match=re.escape("2^(n-1) entries")):
        solve_extension(DescentDistribution(n, _NoWork((0,) * length)))


def test_ribbon_routes_refuse_a_class_over_the_limit(monkeypatch):
    # 2^12 masks times p(13) = 101 shapes are over the limit; 2^11 times
    # p(12) = 77 are under it
    assert combinat.ribbon_walk(12) <= combinat.WALK_LIMIT < combinat.ribbon_walk(13)
    with monkeypatch.context() as patch:
        patch.setattr(characters, "schur_multiplicities", _no_work)
        patch.setattr(cdes, "kostka_number", _no_work)
        for mu in ((13,), (12, 1), (1,) * 13):
            with pytest.raises(ValueError, match="walk limit"):
                straight_ribbon_fiber(mu, 0)
            with pytest.raises(ValueError, match="walk limit"):
                affine_ribbon_fiber(mu, 1, {(13,): 1})
    # n = 12 is admitted: the identity is the one element with no descent,
    # and the 12-cycles with cDes = {1} are the solver's fiber
    assert straight_ribbon_fiber((1,) * 12, 0) == 1
    sol = solve_extension(descent_distribution((12,)))
    assert affine_ribbon_fiber((12,), 1, schur_multiplicities((12,))) == sol.count(1)


def test_distribution_matches_enumeration():
    classes = [mu for n in range(1, 9) for mu in partition_list(n)]
    classes += [(9,), (3, 3, 3), (1,) * 9]
    for mu in classes:
        want = descent_distribution_by_enumeration(mu)
        assert descent_distribution(mu) == want, mu


def test_distribution_refuses_negative_fiber(monkeypatch):
    # #{Des inside {}} = 2 > #{Des inside {1}} = 1 makes the fiber of {1} -1
    doctored = {(3,): 2, (2, 1): 1, (1, 1, 1): 3}
    monkeypatch.setattr(characters, "_h_pairings", lambda mu: doctored)
    with pytest.raises(ArithmeticError, match="negative"):
        descent_distribution((2, 1))


def test_distribution_refuses_pairing_over_class_size(monkeypatch):
    # the packed inversion needs every #{Des inside S} within the class size
    doctored = {(3,): 0, (2, 1): 4, (1, 1, 1): 3}
    monkeypatch.setattr(characters, "_h_pairings", lambda mu: doctored)
    with pytest.raises(ArithmeticError, match="exceeds the class size"):
        descent_distribution((2, 1))


def test_distribution_reports_the_lowest_negative_fiber_exactly(monkeypatch):
    # doctored pairings within the class size: a negative digit borrows from
    # the digits above it, but the lowest negative fiber reads back exact
    rng = random.Random(11)
    negatives = 0
    for _ in range(200):
        mu = rng.choice([(6,), (3, 2, 1), (2, 2, 1, 1), (4, 3)])
        n = sum(mu)
        size = class_size(mu)
        doctored = {lam: rng.randint(0, size) for lam in partition_list(n)}
        doctored[(1,) * n] = size
        monkeypatch.setattr(characters, "_h_pairings", lambda mu: doctored)
        want = des_fibers_by_list(n, doctored)
        lowest = next((m for m, v in enumerate(want) if v < 0), None)
        if lowest is None:
            assert descent_distribution(mu).table == tuple(want)
            continue
        negatives += 1
        message = f"negative Des fiber {want[lowest]} at {subset_elements(lowest)} "
        with pytest.raises(ArithmeticError, match=re.escape(message)):
            descent_distribution(mu)
    assert negatives > 100


def test_composition_shapes_match_the_mask_definition():
    # the table of n is built from that of n - 1; the oracle reads each mask
    for n in range(1, 15):
        assert cdes._composition_shapes(n) == composition_shapes_by_mask(n), n


def test_distribution_inverts_across_chunks():
    # 2^13 and 2^14 digits: two and four chunks, the bits from log2(_CHUNK)
    # up inverted by whole-chunk subtraction
    assert cdes._CHUNK == 1 << 12
    for mu in [(14,), (7, 7), (2,) * 7, (4, 3, 2, 2, 1, 1, 1), (15,), (5, 5, 5), (6, 4, 3, 2)]:
        n = sum(mu)
        want = des_fibers_by_list(n, characters.h_pairings(mu))
        assert descent_distribution(mu).table == tuple(want), mu


def test_distribution_reports_a_negative_fiber_in_an_upper_chunk(monkeypatch):
    # a pairing set to 0 changes only the fibers of the supersets of its
    # masks, so the lowest negative one is the lowest mask of that shape:
    # (1^14) and (1^15) at the full set, in the last chunk, and (2, 1^13) at
    # {1, ..., 13}, in the second of four; each reads back exactly
    cases = [((14,), (1,) * 14), ((5, 4, 3, 2, 1), (2,) + (1,) * 13), ((15,), (1,) * 15)]
    pairings = {mu: characters.h_pairings(mu) for mu, _ in cases}
    for mu, lam in cases:
        n = sum(mu)
        doctored = {**pairings[mu], lam: 0}
        monkeypatch.setattr(characters, "_h_pairings", lambda mu: doctored)
        want = des_fibers_by_list(n, doctored)
        lowest = next(m for m, v in enumerate(want) if v < 0)
        assert lowest >= cdes._CHUNK, mu
        message = f"negative Des fiber {want[lowest]} at {subset_elements(lowest)} for {mu}"
        with pytest.raises(ArithmeticError, match=re.escape(message)):
            descent_distribution(mu)


def test_distribution_refuses_a_class_size_mismatch(monkeypatch):
    # one more than the true class size passes the pairing bound, but the
    # fibers still sum to the true size
    real = cdes.class_size
    monkeypatch.setattr(cdes, "class_size", lambda mu: real(mu) + 1)
    with pytest.raises(ArithmeticError, match=re.escape("class size mismatch for (2, 1)")):
        descent_distribution((2, 1))


# -- solver ------------------------------------------------------------------


def test_solver_four_cycles_exact_counts():
    sol = solve_extension(descent_distribution((4,)))
    assert not isinstance(sol, Infeasible)
    got = {tuple(subset_elements(m)): c for m, c in sol.counts.items()}
    assert got == {
        (1, 2): 1,
        (1, 3): 1,
        (2, 3): 1,
        (1, 4): 1,
        (2, 4): 1,
        (3, 4): 1,
    }


def test_solver_counts_add_up_to_paired_fibers():
    # c_D + c_(D + {n}) must reproduce each descent fiber
    for mu in [(4,), (4, 1), (3, 2), (2, 1), (4, 2)]:
        n = sum(mu)
        dist = descent_distribution(mu)
        sol = solve_extension(dist)
        assert not isinstance(sol, Infeasible)
        top = 1 << (n - 1)
        for mask in range(top):
            assert sol.count(mask) + sol.count(mask | top) == dist.count(mask)


def test_solver_rotation_invariance():
    for mu in [(4,), (3, 2), (2, 1, 1)]:
        n = sum(mu)
        sol = solve_extension(descent_distribution(mu))
        assert not isinstance(sol, Infeasible)
        for mask in range(full_mask(n) + 1):
            assert sol.count(mask) == sol.count(rotate_subset(mask, n))


def test_solver_infeasible_identity_classes():
    for n in (1, 2, 3, 5):
        sol = solve_extension(descent_distribution((1,) * n))
        assert isinstance(sol, Infeasible)


def test_solver_infeasible_examples():
    for mu in [(2, 2), (3,), (5,), (2, 2, 2)]:
        sol = solve_extension(descent_distribution(mu))
        assert isinstance(sol, Infeasible)
        assert construct_extension(mu) == sol  # the constructor passes it on
        assert sol.reason in {
            "nonzero-full-set",
            "negative-count",
            "conflicting-counts",
        }


def test_infeasible_refuses_count():
    # a NamedTuple would otherwise answer tuple.count(3) == 0
    sol = solve_extension(descent_distribution((2, 2)))
    with pytest.raises(TypeError, match=sol.reason):
        sol.count(3)


def test_solver_feasibility_matches_certificate_dichotomy():
    # rectangle with square-free part size <=> infeasible (scan n <= 10,
    # on Gessel-Reutenauer fibers: no class is walked)
    from hooklie.combinat import is_squarefree
    from hooklie.lie import _rectangle

    for n in range(1, 11):
        for mu in partition_list(n):
            sol = solve_extension(descent_distribution(mu))
            rect = _rectangle(mu)
            expect_infeasible = rect is not None and is_squarefree(rect[0])
            assert isinstance(sol, Infeasible) == expect_infeasible, mu


def test_des_fibers_and_main_theorem_with_no_plethysm():
    # Gessel-Reutenauer's necklace pairings, inverted over a plain list, give
    # the Des fibers with no plethysm and no packed arithmetic; the
    # propagation solver on them finds an extension exactly for the classes
    # that are not (r^s) with r square-free, on every class with n <= 9
    # (one n past criterion 3's enumeration)
    classes = 0
    for n in range(1, 10):
        for mu in partition_list(n):
            table = tuple(des_fibers_by_list(n, h_pairings_by_necklaces(mu)))
            assert descent_distribution(mu).table == table, mu
            sol = solve_extension_by_propagation(DescentDistribution(n, table))
            rectangle = len(set(mu)) == 1 and is_squarefree(mu[0])
            assert isinstance(sol, Infeasible) == rectangle, mu
            classes += 1
    assert classes == 96


def test_solver_matches_propagation_oracle():
    # verdict, reason, subset and counts, on every class with n <= 12
    for n in range(1, 13):
        for mu in partition_list(n):
            dist = descent_distribution(mu)
            assert solve_extension(dist) == solve_extension_by_propagation(dist), mu


def _doctored(rng: random.Random, n: int) -> cdes.DescentDistribution:
    """Des fibers paired from random counts that are constant on rotation
    orbits (so the constraints are consistent, and zero, negative or
    nonzero at () and [n] by chance), then, half the time, one fiber
    nudged off."""
    top = 1 << (n - 1)
    c = {}
    for j in range(1 << n):
        if j not in c:
            v = rng.choice((0, 0, 1, 2, 3, -1))
            k = j
            while k not in c:
                c[k] = v
                k = rotate_subset(k, n)
    fibers = [c[j] + c[j | top] for j in range(top)]
    if rng.random() < 0.5:
        fibers[rng.randrange(top)] += rng.choice((-1, 1))
    return cdes.DescentDistribution(n, tuple(fibers))


def test_solver_matches_propagation_oracle_on_doctored_distributions():
    rng = random.Random(20190910)
    reasons = set()
    for _ in range(3000):
        dist = _doctored(rng, rng.randint(1, 7))
        got, want = solve_extension(dist), solve_extension_by_propagation(dist)
        assert type(got) is type(want), dist
        if isinstance(want, Infeasible):
            assert got.reason == want.reason, dist
            reasons.add(want.reason)
            if want.reason != "conflicting-counts":
                assert got.subset == want.subset, dist
        else:
            assert got == want, dist
    assert reasons == {"conflicting-counts", "nonzero-full-set", "negative-count"}


def _pass_from_full_set(dist: cdes.DescentDistribution) -> dict:
    """c_J for every mask J of [n], from c_[n] = 0, pairing and one
    rotation per mask, in descending mask order."""
    n = dist.n
    top = 1 << (n - 1)
    c = {}
    for j in range(top - 1, -1, -1):
        k = (j >> 1) | (top >> 1)  # (j u {n}) is the rotation of k or k u {n}
        c[j | top] = 0 if j == top - 1 else c[k | (top if j & 1 else 0)]
        c[j] = dist.count(j) - c[j | top]
    return c


def test_conflicting_counts_reports_the_lowest_unrotated_mask():
    # n = 3: the pass gives c_{1} = f_{1} - f_{1,2} and c_{2} = f_{2} - f_{1,2},
    # so f_{1} != f_{2} breaks c_{1} = c_{2}, and {1} is the lowest such mask
    # (the propagation from c_() = 0 reports {2} instead)
    dist = cdes.DescentDistribution(3, dense_table({M(1): 1, M(2): 2}, 4))
    assert solve_extension(dist) == Infeasible("conflicting-counts", (1,))
    assert solve_extension_by_propagation(dist).subset == (2,)
    rng = random.Random(7)
    conflicts = 0
    for _ in range(300):
        dist = _doctored(rng, rng.randint(3, 7))
        sol = solve_extension(dist)
        if isinstance(sol, Infeasible) and sol.reason == "conflicting-counts":
            conflicts += 1
            c = _pass_from_full_set(dist)
            lowest = min(j for j in c if c[j] != c[rotate_subset(j, dist.n)])
            assert sol.subset == subset_elements(lowest), dist
    assert conflicts > 50


def test_solver_checks_the_rotation_of_sets_containing_n():
    # on the orbit {1,3} -> {2,4} -> {3,5} -> {1,4} -> {2,5} of [5], the
    # pass reads only the steps into sets with 5, and the rotations of the
    # sets without 5 are all equal here; only {3,5} -> {1,4} and
    # {2,5} -> {1,3} break, and {2,5} is the lower of the two
    counts = {M(1, 3): 1, M(2, 4): 1, M(3, 5): 1, M(1, 4): 2, M(2, 5): 2}
    top = M(5)
    fibers = tuple(counts.get(j, 0) + counts.get(j | top, 0) for j in range(top))
    dist = cdes.DescentDistribution(5, fibers)
    assert solve_extension(dist) == Infeasible("conflicting-counts", (2, 5))
    assert solve_extension_by_propagation(dist).reason == "conflicting-counts"


def _orbit_constant(rng: random.Random, n: int) -> list:
    """A random table over the masks of [n], constant on rotation orbits."""
    c = [None] * (1 << n)
    for j in range(1 << n):
        v = rng.randrange(-2, 5)
        k = j
        while c[k] is None:
            c[k] = v
            k = rotate_subset(k, n)
    return c


def _mismatch_by_scan(c: list, n: int):
    """The lowest J with c_J != c_(sh J), one rotate_subset per mask."""
    return next((j for j in range(1 << n) if c[j] != c[rotate_subset(j, n)]), None)


def test_rotation_mismatch_matches_a_per_mask_scan():
    rng = random.Random(1710)
    for n in range(1, 9):
        top = 1 << (n - 1)
        for _ in range(60):
            c = _orbit_constant(rng, n)
            assert cdes._rotation_mismatch(c) is None, c
            for _ in range(rng.randint(1, 3)):
                c[rng.randrange(1 << n)] += rng.choice((-1, 1))
            assert cdes._rotation_mismatch(c) == _mismatch_by_scan(c, n), c
        # a nudge at a proper set holding 1 and n breaks the steps into it
        # and out of it, both from sets holding n: the halves without n agree
        for k in range(top | 1, full_mask(n), 2):
            c = _orbit_constant(rng, n)
            c[k] += 1
            lowest = _mismatch_by_scan(c, n)
            assert lowest is not None and lowest & top, (n, k)
            assert c[:top] == c[::2]
            assert cdes._rotation_mismatch(c) == lowest, (n, k)


def test_solver_pure_function():
    dist = descent_distribution((4,))
    a = solve_extension(dist)
    b = solve_extension(dist)
    assert a == b
    assert descent_distribution((4,)) == dist


# -- constructor -------------------------------------------------------------


def test_construct_four_cycles_worked_example():
    sol = construct_extension((4,))
    assert not isinstance(sol, Infeasible)
    assert list(sol.elements) == sorted(sol.elements)
    got = {pi: tuple(subset_elements(m)) for pi, m in zip(sol.elements, sol.cdes)}
    assert got == {
        (2, 3, 4, 1): (3, 4),
        (2, 4, 1, 3): (2, 4),
        (3, 1, 4, 2): (1, 3),
        (3, 4, 2, 1): (2, 3),
        (4, 1, 2, 3): (1, 4),
        (4, 3, 1, 2): (1, 2),
    }
    assert check_axioms(sol) == {
        "extension": True,
        "equivariance": True,
        "non-escher": True,
        "fiber-counts": True,
    }
    # p sends each element to the one whose cDes is the rotation of its own
    images = {sol.elements[i]: sol.elements[k] for i, k in enumerate(sol.p)}
    assert images == {
        (2, 3, 4, 1): (4, 1, 2, 3),
        (2, 4, 1, 3): (3, 1, 4, 2),
        (3, 1, 4, 2): (2, 4, 1, 3),
        (3, 4, 2, 1): (2, 3, 4, 1),
        (4, 1, 2, 3): (4, 3, 1, 2),
        (4, 3, 1, 2): (3, 4, 2, 1),
    }


def test_check_axioms_answers_on_malformed_solutions():
    # seven doctored copies of the (4,) extension; check_axioms answers each
    # with False where it fails and raises on none
    sol = construct_extension((4,))
    broken = {
        "p out of range": sol._replace(p=(6,) + sol.p[1:]),
        "p repeats an index": sol._replace(p=sol.p[1:2] + sol.p[1:]),
        "cdes one entry short": sol._replace(cdes=sol.cdes[:-1]),
        "cdes with wrong Des bits": sol._replace(cdes=(sol.cdes[0] ^ 1,) + sol.cdes[1:]),
    }
    # (4, 1, 2, 3), the fifth element, with an entry dropped, its 4 turned
    # into 5 = n + 1 or into 300: each keeps the descent set {1}, so only the
    # check that an element is an n-tuple over [n] can fail them
    assert sol.elements[4] == (4, 1, 2, 3)
    for name, element in {
        "element one entry short": (4, 1, 2),
        "element with n + 1": (5, 1, 2, 3),
        "element with 300": (300, 1, 2, 3),
    }.items():
        assert descent_set(element) == descent_set(sol.elements[4])
        broken[name] = sol._replace(elements=sol.elements[:4] + (element,) + sol.elements[5:])
    got = {name: check_axioms(doctored) for name, doctored in broken.items()}
    ok = dict.fromkeys(["extension", "equivariance", "non-escher", "fiber-counts"], True)
    # the elements are read by extension alone
    for name in ("element one entry short", "element with n + 1", "element with 300"):
        assert got[name] == {**ok, "extension": False}, name
    # p is read by equivariance alone
    assert got["p out of range"] == {**ok, "equivariance": False}
    assert got["p repeats an index"] == {**ok, "equivariance": False}
    # a changed cdes array changes the multiset of the fibers and the
    # rotation relation along p as well, so those two fail with it
    wrong_cdes = {**ok, "extension": False, "equivariance": False, "fiber-counts": False}
    assert got["cdes one entry short"] == wrong_cdes
    assert got["cdes with wrong Des bits"] == wrong_cdes


def test_construct_axioms_all_feasible_classes():
    for n in range(1, 8):
        for mu in partition_list(n):
            sol = construct_extension(mu)
            if isinstance(sol, Infeasible):
                continue
            checks = check_axioms(sol)
            assert all(checks.values()), (mu, checks)
            assert sol.axioms == checks


def test_construct_refuses_a_failed_axiom(monkeypatch):
    # a constructed extension is checked before it is returned
    real = cdes.check_axioms
    monkeypatch.setattr(cdes, "check_axioms", lambda sol: {**real(sol), "equivariance": False})
    message = "constructed extension violates ['equivariance'] on (2, 1)"
    with pytest.raises(AssertionError, match=re.escape(message)):
        construct_extension((2, 1))


def test_construct_extension_restricts_to_descents():
    # removing n from cdes(pi) always recovers des(pi)
    for mu in [(4,), (3, 2), (4, 1), (2, 1, 1)]:
        n = sum(mu)
        sol = construct_extension(mu)
        assert not isinstance(sol, Infeasible)
        top = 1 << (n - 1)
        assert len(sol.cdes) == len(sol.elements) == class_size(mu)
        for pi, cmask in zip(sol.elements, sol.cdes):
            assert cmask & ~top == descent_set(pi)


def test_construct_p_map_shifts_cdes():
    # cdes(p(pi)) is the rotation of cdes(pi)
    for mu in [(4,), (3, 2)]:
        n = sum(mu)
        sol = construct_extension(mu)
        assert sorted(sol.p) == list(range(len(sol.elements)))
        for i, image in enumerate(sol.p):
            assert sol.cdes[image] == rotate_subset(sol.cdes[i], n)


def test_construct_infeasible_escher_note(tmp_path):
    # Infeasible carries only the solver's verdict; the construct report
    # adds the Escher note for (1^n), n >= 2, and (2^k), and for no other class
    out = str(tmp_path / "unused.json")
    for mu, escher in [((2, 2), True), ((1, 1, 1), True), ((3,), False)]:
        sol = construct_extension(mu)
        assert isinstance(sol, Infeasible)
        assert sol._fields == ("reason", "subset")
        argv = ["construct", ",".join(map(str, mu)), "--output", out]
        report = cli.cmd_construct(cli.build_parser().parse_args(argv))
        assert report.payload["feasible"] is False
        assert report.payload["reason"] == sol.reason
        if escher:
            assert "Escher" in report.payload["note"]
        else:
            assert "note" not in report.payload
    assert not (tmp_path / "unused.json").exists()


def _dump(sol) -> str:
    buf = io.StringIO()
    write_extension(sol, buf)
    return buf.getvalue()


def test_extension_records_shape_and_determinism():
    text = _dump(construct_extension((4,)))
    assert text == _dump(construct_extension((4,)))
    rec = json.loads(text)
    assert rec["mu"] == [4]
    assert rec["n"] == 4
    assert len(rec["elements"]) == 6
    assert [f["count"] for f in rec["fibers"]] == [1] * 6
    one_lines = [tuple(e["one_line"]) for e in rec["elements"]]
    assert one_lines == sorted(one_lines)
    assert sorted(rec["elements"][0]) == ["cdes", "des", "one_line", "p_image"]


def test_write_extension_matches_json_dump():
    for n in range(1, 8):
        for mu in partition_list(n):
            sol = construct_extension(mu)
            if isinstance(sol, Infeasible):
                continue
            ref = extension_records(sol)
            assert _dump(sol) == json.dumps(ref, sort_keys=True, indent=1), mu


def test_write_extension_renders_empty_lists():
    # not extensions, only inputs that reach the empty-list branches
    empty = CyclicExtensionSolution((2,), 2, FiberSolution(2, (0,) * 4), (), (), ())
    identity = CyclicExtensionSolution(
        (1, 1), 2, FiberSolution(2, dense_table({0: 1}, 4)), ((1, 2),), (0,), (0,)
    )
    for sol in (empty, identity):
        want = json.dumps(extension_records(sol), sort_keys=True, indent=1)
        assert _dump(sol) == want
    assert '"elements": []' in _dump(empty)
    assert '"cdes": [],\n   "des": []' in _dump(identity)


@pytest.mark.parametrize("size", [0, 1, 255, 256, 257, 513])
def test_write_extension_blocks_match_json_dump(size):
    # the writer joins records in blocks of 256: a prefix of the class of
    # (6,1) (840 elements) with a cyclic p fills none, one, or some blocks
    # exactly, one short or one over; not extensions, only writer inputs
    whole = construct_extension((6, 1))
    cdes_masks = whole.cdes[:size]
    sol = CyclicExtensionSolution(
        (6, 1),
        7,
        FiberSolution(7, dense_table(Counter(cdes_masks), 1 << 7)),
        whole.elements[:size],
        cdes_masks,
        tuple((i + 1) % size for i in range(size)),
    )
    want = json.dumps(extension_records(sol), sort_keys=True, indent=1)
    assert _dump(sol) == want


def test_write_extension_two_digit_values_match_json_dump():
    # n = 10: the entry tokens of 10 and the lists of masks with 10 are
    # exercised.  A prefix of 513 elements of the walk of (9, 1), three
    # blocks and one record over, each with its Cellini set as cDes, whose
    # Des part is its descent set, and a cyclic p; not an extension, only
    # a writer input
    elements = tuple(itertools.islice(conjugacy_class((9, 1)), 513))
    masks = tuple(map(cellini_descent_set, elements))
    sol = CyclicExtensionSolution(
        (9, 1),
        10,
        FiberSolution(10, dense_table(Counter(masks), 1 << 10)),
        elements,
        masks,
        tuple((i + 1) % len(elements) for i in range(len(elements))),
    )
    assert any(10 in pi for pi in elements) and any(m >> 9 for m in masks)
    assert _dump(sol) == json.dumps(extension_records(sol), sort_keys=True, indent=1)


class _CharCount:
    """A text sink that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


@pytest.mark.parametrize("mu", [(5, 3), (6, 2), (4, 3, 1)])
def test_write_extension_streams(mu):
    # the dump never sits in memory whole: what the writer allocates at its
    # peak is well under the size of what it writes (ASCII, so one byte a
    # character)
    sol = construct_extension(mu)
    sink = _CharCount()
    tracemalloc.start()
    try:
        write_extension(sol, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars > 100_000
    assert peak < sink.chars / 2, (peak, sink.chars)


# -- Cellini closure ---------------------------------------------------------


def test_cellini_closed_small_classes():
    assert cellini_closed((2, 1))
    assert cellini_closed((3, 1))


def test_cellini_not_closed_examples():
    for mu in [(2,), (3,), (2, 2), (4,), (3, 2), (4, 1), (2, 1, 1)]:
        assert not cellini_closed(mu), mu


def test_cellini_scan_finds_exactly_two():
    closed = [
        mu
        for n in range(2, 10)
        for mu in partition_list(n)
        if cellini_closed(mu)
    ]
    assert closed == [(2, 1), (3, 1)]


def test_cellini_closed_matches_enumeration():
    for n in range(1, 9):
        for mu in partition_list(n):
            assert cellini_closed(mu) == cellini_closed_by_enumeration(mu), mu


def test_cellini_fixed_point_identity():
    # #{pi_n > pi_1} - #{pi_1 > pi_2} = N (f - 1) / (n - 1) on every class:
    # the two counts are those of the Cellini sets holding n and holding 1
    for n in range(2, 9):
        for mu in partition_list(n):
            elements = class_by_filtering(mu)
            last = sum(pi[-1] > pi[0] for pi in elements)
            first = sum(pi[0] > pi[1] for pi in elements)
            assert (last - first) * (n - 1) == len(elements) * (mu.count(1) - 1), mu


def test_cellini_walks_only_classes_with_one_fixed_point(monkeypatch):
    monkeypatch.setattr(cdes, "conjugacy_class", _no_work)
    for mu in [(2,), (2, 2), (4,), (2, 1, 1), (1, 1), (5, 1, 1)]:
        assert not cellini_closed(mu), mu
    for mu in [(1,), (3, 1), (2, 2, 1)]:
        with pytest.raises(AssertionError, match="work started"):
            cellini_closed(mu)
    # the fixed-point count comes before the walk refusal: (5000) is over
    # the walk limit but has no fixed point, and (4999, 1) has one
    assert not cellini_closed((5000,))
    with pytest.raises(ValueError, match="walk limit"):
        cellini_closed((4999, 1))


def test_cellini_single_letter_class_degenerate():
    # rotation on subsets of a singleton is the identity map, so the
    # multiset is trivially invariant; kept faithful rather than special-
    # cased, which is why scans start at n = 2.  The fixed-point shortcut
    # is for n >= 2, so (1,) is still walked
    assert cellini_closed((1,))


# -- ribbon fibers -----------------------------------------------------------


def test_cyclic_composition_examples():
    assert cyclic_composition(7, M(1, 4, 5)) == (3, 1, 3)
    assert cyclic_composition(4, M(2)) == (4,)
    assert cyclic_composition(4, M(1, 2, 3, 4)) == (1, 1, 1, 1)
    assert cyclic_composition(5, M(2, 4)) == (2, 3)


def test_cyclic_composition_rejects_empty():
    with pytest.raises(ValueError):
        cyclic_composition(4, 0)


@pytest.mark.parametrize("mask", [-1, -3, 1 << 5, (1 << 5) | 1])
def test_cyclic_composition_rejects_masks_outside_n(mask):
    # a negative mask has no finite set of elements to split
    with pytest.raises(ValueError, match=r"subset of \[5\]"):
        cyclic_composition(5, mask)


def test_affine_fiber_four_cycles():
    mults = schur_multiplicities((4,))
    assert affine_ribbon_fiber((4,), M(1, 2), mults) == 1
    assert affine_ribbon_fiber((4,), M(1, 3), mults) == 1
    assert affine_ribbon_fiber((4,), M(1), mults) == 0
    assert affine_ribbon_fiber((4,), M(1, 2, 3), mults) == 0


def test_affine_fiber_rejects_trivial_subsets():
    mults = schur_multiplicities((4,))
    with pytest.raises(ValueError):
        affine_ribbon_fiber((4,), 0, mults)
    with pytest.raises(ValueError):
        affine_ribbon_fiber((4,), full_mask(4), mults)


def test_affine_fiber_refuses_a_schur_expansion_of_the_wrong_n():
    # every key of the expansion must be a partition of n, here 4
    with pytest.raises(ValueError):
        affine_ribbon_fiber((3, 1), 1, {(3,): 1})
    with pytest.raises(ValueError):
        affine_ribbon_fiber((3, 1), 1, {(2, 3): 1})


def test_affine_fibers_match_solver():
    for n in range(2, 7):
        for mu in partition_list(n):
            sol = solve_extension(descent_distribution(mu))
            if isinstance(sol, Infeasible):
                continue
            mults = schur_multiplicities(mu)
            for mask in range(1, full_mask(n)):
                assert affine_ribbon_fiber(mu, mask, mults) == sol.count(mask), (
                    mu,
                    tuple(subset_elements(mask)),
                )


def test_straight_fiber_examples():
    assert straight_ribbon_fiber((2, 2), M(3)) == 0
    assert straight_ribbon_fiber((2, 2), M(1, 2, 3)) == 1
    assert straight_ribbon_fiber((4,), M(2)) == 1


def test_straight_fibers_match_brute_force():
    for n in range(1, 7):
        for mu in partition_list(n):
            dist = descent_distribution_by_enumeration(mu)
            for mask in range(1 << max(0, n - 1)):
                assert straight_ribbon_fiber(mu, mask) == dist.count(mask), (
                    mu,
                    tuple(subset_elements(mask)),
                )


def test_straight_fiber_rejects_out_of_range_mask():
    with pytest.raises(ValueError):
        straight_ribbon_fiber((2, 2), 1 << 3)


def test_ribbon_fibers_reject_non_class_types():
    # a class type is a partition of n >= 1: no increasing parts, no zero
    # part, not empty; each is refused before the mask is read
    with pytest.raises(ValueError, match="not a partition"):
        affine_ribbon_fiber((1, 2), 1, {})
    with pytest.raises(ValueError, match="not a partition"):
        affine_ribbon_fiber((0, 3), 1, {(3,): 1})
    with pytest.raises(ValueError, match="not a partition"):
        straight_ribbon_fiber((), 0)
    with pytest.raises(ValueError, match="not a partition"):
        straight_ribbon_fiber((1, 2), 0)
