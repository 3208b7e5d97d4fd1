"""Tests for partitions, permutations, subset masks, tableaux, Kostka numbers,
and the tableau enumerator and box-partition lister of tests/brute_force.py.

Frozen constants were computed by independent brute-force enumeration
(itertools over full symmetric groups / semistandard fillings) and are
re-derived here wherever that stays cheap.
"""

import gc
import math
import random
import tracemalloc
from itertools import permutations

import pytest
from brute_force import (
    class_by_filtering,
    restricted_partitions,
    standard_tableaux,
    syt_descent_counts_by_enumeration,
)

import hooklie
from hooklie import combinat
from hooklie.combinat import (
    cellini_descent_set,
    centralizer_order,
    class_size,
    conjugacy_class,
    cycle_type,
    descent_set,
    divisors,
    full_mask,
    is_partition,
    is_squarefree,
    kostka_number,
    mask_from_elements,
    moebius,
    partition_list,
    rotate_subset,
    subset_elements,
    syt_descent_counts,
)

# -- number theory -----------------------------------------------------------


def test_moebius_small_values():
    # mu(1..12) from the definition: (-1)^(#prime factors) or 0 on a square
    assert [moebius(n) for n in range(1, 13)] == [
        1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0,
    ]
    with pytest.raises(ValueError, match="positive integer"):
        moebius(0)


def test_moebius_dirichlet_identity():
    # sum of mu(d) over divisors of n vanishes for n > 1
    for n in range(2, 200):
        assert sum(moebius(d) for d in divisors(n)) == 0
    assert sum(moebius(d) for d in divisors(1)) == 1


def test_squarefree_matches_moebius():
    for n in range(1, 500):
        assert is_squarefree(n) == (moebius(n) != 0)


def test_divisors_sorted_and_complete():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)
    assert divisors(97) == (1, 97)


# -- partitions --------------------------------------------------------------


def test_partition_counts_match_euler():
    # p(0..10) = 1,1,2,3,5,7,11,15,22,30,42
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, want in enumerate(expected):
        assert len(partition_list(n)) == want


def test_partition_list_starts_with_single_row():
    for n in range(1, 9):
        assert partition_list(n)[0] == (n,)
        assert partition_list(n)[-1] == (1,) * n
    with pytest.raises(ValueError):
        partition_list(-1)


def test_is_partition():
    assert is_partition((3, 1, 1))
    assert is_partition(())
    assert not is_partition((1, 3))
    assert not is_partition((3, 0))


def test_centralizer_times_class_size_is_group_order():
    for n in range(1, 9):
        for mu in partition_list(n):
            assert centralizer_order(mu) * class_size(mu) == math.factorial(n)


def test_centralizer_order_examples():
    # z of (2,2,1,1) in S_6: 2^2*2! * 1^2*2! = 16
    assert centralizer_order((2, 2, 1, 1)) == 16
    assert centralizer_order((4,)) == 4
    assert centralizer_order((1, 1, 1)) == 6


def test_restricted_partitions_are_padded_decreasing():
    hits = list(restricted_partitions(13, 6, 5))
    assert all(len(t) == 5 for t in hits)
    assert all(sum(t) == 13 for t in hits)
    assert all(all(0 <= p <= 6 for p in t) for t in hits)
    assert all(tuple(sorted(t, reverse=True)) == t for t in hits)
    assert (5, 3, 3, 2, 0) in hits
    assert len(set(hits)) == len(hits)


def test_restricted_partitions_fill_the_box():
    # partitions fitting in an r x s box are counted by binom(r+s, s)
    for r in range(1, 7):
        for s in range(1, 7):
            total = sum(
                len(list(restricted_partitions(i, r, s))) for i in range(r * s + 1)
            )
            assert total == math.comb(r + s, s)


def test_restricted_partitions_zero_weight():
    assert list(restricted_partitions(0, 3, 2)) == [(0, 0)]
    assert list(restricted_partitions(7, 3, 2)) == []


# -- permutations ------------------------------------------------------------


def test_cycle_type_examples():
    assert cycle_type((1, 2, 3)) == (1, 1, 1)
    assert cycle_type((2, 3, 1)) == (3,)
    assert cycle_type((2, 1, 4, 3)) == (2, 2)
    assert cycle_type((3, 1, 2, 5, 4)) == (3, 2)
    assert cycle_type(()) == ()
    # a repeated value, the value 0 (index -1 would wrap around) and a
    # value past n are not permutations of 1..n
    for pi in ((2, 2), (0,), (3, 1)):
        with pytest.raises(ValueError, match="not a permutation"):
            cycle_type(pi)


def test_conjugacy_class_sizes_partition_the_group():
    for n in range(1, 8):
        buckets = {mu: 0 for mu in partition_list(n)}
        for pi in permutations(range(1, n + 1)):
            buckets[cycle_type(pi)] += 1
        for mu, size in buckets.items():
            assert size == class_size(mu)


def test_four_cycles_of_s4():
    # the six 4-cycles in one-line notation, lexicographically
    assert tuple(conjugacy_class((4,))) == (
        (2, 3, 4, 1),
        (2, 4, 1, 3),
        (3, 1, 4, 2),
        (3, 4, 2, 1),
        (4, 1, 2, 3),
        (4, 3, 1, 2),
    )


def test_classes_of_s2_and_s3():
    # n = 2 is a base case of the walk; n = 3 is read off the last three
    # paths at once, one cycle left (the 3-cycles), two (the
    # transpositions) or three (the identity)
    assert tuple(conjugacy_class((2,))) == ((2, 1),)
    assert tuple(conjugacy_class((1, 1))) == ((1, 2),)
    assert tuple(conjugacy_class((3,))) == ((2, 3, 1), (3, 1, 2))
    assert tuple(conjugacy_class((2, 1))) == ((1, 3, 2), (2, 1, 3), (3, 2, 1))
    assert tuple(conjugacy_class((1, 1, 1))) == ((1, 2, 3),)


def test_conjugacy_class_agrees_with_cycle_type_filter():
    # the exact sequence, order included, of filtering S_n by cycle type
    for n in range(1, 9):
        for mu in partition_list(n):
            assert tuple(conjugacy_class(mu)) == class_by_filtering(mu), mu


def test_conjugacy_class_is_the_class_up_to_n_10():
    # every class with n <= 8, and every class with n = 9 or 10 of at most
    # 20,000 elements (36 classes, 219,052 elements: mostly many fixed
    # points, where the walk prunes most, but also (5, 4), whose last three
    # paths close as one or two cycles; all of S_10 is 10! elements):
    # exactly class_size elements, each of the right cycle type, strictly
    # increasing, so distinct
    for n in range(1, 11):
        for mu in partition_list(n):
            if n > 8 and class_size(mu) > 20000:
                continue
            members = list(conjugacy_class(mu))
            assert len(members) == class_size(mu), mu
            assert all(a < b for a, b in zip(members, members[1:])), mu
            assert all(cycle_type(pi) == mu for pi in members), mu


def test_conjugacy_class_validates_when_called():
    # bad input raises at the call, before anything is iterated
    for bad in [(2, 3), (), (0,), (2, -1), (1.5,)]:
        with pytest.raises(ValueError):
            conjugacy_class(bad)


def test_conjugacy_class_reaches_n_12():
    # filtering all of S_12 would scan 12! ~ 4.8e8 permutations
    assert list(conjugacy_class((1,) * 12)) == [tuple(range(1, 13))]
    members = list(conjugacy_class((2,) * 6))
    assert len(members) == class_size((2,) * 6) == 10395
    assert all(a < b for a, b in zip(members, members[1:]))
    for pi in members:
        assert all(pi[pi[i] - 1] == i + 1 and pi[i] != i + 1 for i in range(12))


# -- descent sets and masks --------------------------------------------------


def test_descent_set_examples():
    assert subset_elements(descent_set((1, 2, 3))) == ()
    assert subset_elements(descent_set((3, 2, 1))) == (1, 2)
    assert subset_elements(descent_set((2, 4, 1, 3))) == (2,)
    assert subset_elements(descent_set((3, 1, 4, 2))) == (1, 3)


def test_cellini_descent_set_examples():
    # position n descends exactly when the last letter exceeds the first
    assert subset_elements(cellini_descent_set((1, 2, 3))) == (3,)
    assert subset_elements(cellini_descent_set((3, 2, 1))) == (1, 2)
    assert subset_elements(cellini_descent_set((2, 4, 1, 3))) == (2, 4)


def _lane_masks(elements, n):
    """The lane kernel's Des and Cellini masks, as lists."""
    return (
        combinat._des_masks(elements, n).tolist(),
        combinat._des_masks(elements, n, cyclic=True).tolist(),
    )


def _oracle_masks(elements):
    return list(map(descent_set, elements)), list(map(cellini_descent_set, elements))


def test_lane_masks_match_descent_sets_on_every_class():
    # every element of every class with n <= 8; cellini_closed reads the
    # walk itself, a generator, so the cyclic masks are read from it too
    for n in range(1, 9):
        for mu in partition_list(n):
            elements = tuple(conjugacy_class(mu))
            des, cyclic = _oracle_masks(elements)
            assert _lane_masks(elements, n) == (des, cyclic), mu
            walked = combinat._des_masks(conjugacy_class(mu), n, cyclic=True)
            assert walked.tolist() == cyclic, mu


def test_lane_masks_match_descent_sets_across_chunks():
    # prefixes of the (7, 1) class, 5760 elements, ending one short of, at
    # and one past each multiple of the chunk length
    elements = tuple(conjugacy_class((7, 1)))
    chunk = combinat._MASK_CHUNK
    assert len(elements) > chunk
    sizes = [
        edge + d
        for edge in range(0, len(elements) + 1, chunk)
        for d in (-1, 0, 1)
        if 0 <= edge + d <= len(elements)
    ]
    for size in sizes:
        prefix = elements[:size]
        assert _lane_masks(prefix, 8) == _oracle_masks(prefix), size


def test_lane_masks_at_the_ends_of_the_range():
    # n = 1 and 2, and n = 18, where Cellini's position n sits at lane bit 17
    assert _lane_masks([(1,)], 1) == ([0], [0])
    assert _lane_masks([(1, 2), (2, 1)], 2) == ([0, 1], [2, 1])
    identity = tuple(range(1, 19))
    perms = [identity, identity[::-1], identity[1:] + identity[:1]]
    assert _lane_masks(perms, 18) == _oracle_masks(perms)
    assert _lane_masks(perms, 18) == (
        [0, (1 << 17) - 1, 1 << 16],
        [1 << 17, (1 << 17) - 1, 1 << 16],
    )
    assert _lane_masks([], 5) == ([], [])


def test_lane_masks_refuse_what_they_cannot_pack():
    cases = {
        "an entry short": [(1, 2, 3), (2, 1)],
        "an entry over": [(1, 2, 3, 4)],
        "an entry 0": [(0, 1, 2)],
        "an entry n + 1": [(1, 2, 4)],
        "an entry 300": [(300, 1, 2)],
        "a negative entry": [(-1, 1, 2)],
    }
    for name, elements in cases.items():
        with pytest.raises(ValueError):
            combinat._des_masks(elements, 3)
    for n in (0, 33):
        with pytest.raises(ValueError, match="32-bit lane"):
            combinat._des_masks([], n)


def test_cellini_descents_never_empty_nor_full():
    for n in range(2, 7):
        full = full_mask(n)
        for pi in permutations(range(1, n + 1)):
            c = cellini_descent_set(pi)
            assert 0 < c < full


def test_rotate_subset_orbits():
    for n in range(1, 11):
        for mask in range(full_mask(n) + 1):
            m = mask
            for _ in range(n):
                m = rotate_subset(m, n)
            assert m == mask


def test_rotate_subset_moves_elements_up_by_one():
    # {1,3} in [4] rotates to {2,4}; {4} wraps to {1}
    assert rotate_subset(mask_from_elements((1, 3)), 4) == mask_from_elements((2, 4))
    assert rotate_subset(mask_from_elements((4,)), 4) == mask_from_elements((1,))


@pytest.mark.parametrize("mask", [-1, -2, -(1 << 70)])
def test_subset_elements_rejects_negative_masks(mask):
    # a negative mask shifts to -1, never to 0, so it has no elements to list
    with pytest.raises(ValueError, match="not a subset"):
        subset_elements(mask)


def test_mask_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 12)
        elems = tuple(sorted(rng.sample(range(1, n + 1), rng.randrange(0, n + 1))))
        assert subset_elements(mask_from_elements(elems)) == elems
    with pytest.raises(ValueError, match=">= 1"):
        mask_from_elements([0])


def test_rotate_subset_rejects_out_of_range():
    with pytest.raises(ValueError):
        rotate_subset(1 << 5, 4)
    with pytest.raises(ValueError, match="n must be >= 1"):
        rotate_subset(1, 0)


# -- tableaux ----------------------------------------------------------------


def _syt_count(shape):
    return sum(syt_descent_counts(shape).values())


def test_straight_syt_counts():
    # hook length formula values
    assert _syt_count((2, 1)) == 2
    assert _syt_count((2, 2)) == 2
    assert _syt_count((3, 1)) == 3
    assert _syt_count((2, 1, 1)) == 3
    assert _syt_count((3, 2)) == 5
    assert _syt_count((4,)) == 1
    assert _syt_count(()) == 1


def test_syt_total_count_is_involution_number():
    # sum over shapes of f^lambda equals the number of involutions
    involutions = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496]
    for n in range(1, 11):
        total = sum(_syt_count(lam) for lam in partition_list(n))
        assert total == involutions[n]


def test_syt_rows_increase():
    for lam in [(3, 2), (2, 2, 1), (4, 1)]:
        for rows in standard_tableaux(lam):
            flat = sorted(v for row in rows for v in row)
            assert flat == list(range(1, sum(lam) + 1))
            for row in rows:
                assert all(a < b for a, b in zip(row, row[1:]))
            for upper, lower in zip(rows, rows[1:]):
                assert all(a < b for a, b in zip(upper, lower))


def test_hook_tableau_descents():
    # the SYT of the hook (n-k, 1^k) are fixed by the k entries below the
    # first row, and their descent sets are those entries minus one: each
    # k-subset of [n-1] once, so binom(n-1, k) tableaux
    for n in range(2, 9):
        for k in range(n):
            counts = syt_descent_counts((n - k,) + (1,) * k)
            assert len(counts) == math.comb(n - 1, k)
            assert set(counts.values()) == {1}
            for mask in counts:
                assert len(subset_elements(mask)) == k


def test_syt_descent_counts_totals():
    # totals against the hook length formula
    for n in range(1, 9):
        for lam in partition_list(n):
            conj = [sum(1 for p in lam if p > j) for j in range(lam[0])]
            hooks = math.prod(
                row - j + conj[j] - i - 1 for i, row in enumerate(lam) for j in range(row)
            )
            assert _syt_count(lam) == math.factorial(n) // hooks, lam


def test_syt_descent_counts_match_enumeration():
    for n in range(11):
        for lam in partition_list(n):
            assert syt_descent_counts(lam) == syt_descent_counts_by_enumeration(lam), lam
    with pytest.raises(ValueError):
        syt_descent_counts((1, 2))


def _no_table(shape):
    raise AssertionError("a tableau table was built for a refused shape")


def test_tableau_table_refuses_over_the_walk_limit(monkeypatch):
    # (7, 4, 3, 2, 1, 1) has 6 * 2^17 possible (row, mask) keys and more
    # tableaux; n >= 20 is refused outright, (1200) before any of its levels
    monkeypatch.setattr(combinat, "_syt_table", _no_table)
    for shape in ((6, 5, 4, 3, 2), (7, 4, 3, 2, 1, 1), (1200,)):
        with pytest.raises(ValueError, match="walk limit"):
            syt_descent_counts(shape)
        with pytest.raises(ValueError, match="walk limit"):
            kostka_number(shape, shape)


def test_tableau_table_admits_every_shape_up_to_16(monkeypatch):
    # unwrapped, so the stub's empty tables stay out of the cache
    monkeypatch.setattr(combinat, "_syt_table", lambda shape: {})
    for n in range(17):
        for lam in partition_list(n):
            assert syt_descent_counts.__wrapped__(lam) == {}, lam
    assert syt_descent_counts.__wrapped__((6, 4, 3, 2, 1, 1)) == {}


def test_tableau_table_does_not_outlive_its_call():
    # only the shape's own counts are memoized: the sub-shape tables belong
    # to the call, so a cold call leaves one memo entry in the module, and
    # what it leaves alive is a small part of what it built (about 0.6 of
    # 6.2 MiB traced; all of it if the sub-shape tables were kept anywhere)
    hooklie.clear_memos()
    gc.collect()
    tracemalloc.start()
    try:
        syt_descent_counts((5, 4, 3, 2, 1))
        gc.collect()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live < peak / 4, (live, peak)
    assert syt_descent_counts.cache_info().currsize == 1
    held = {
        name: value.cache_info().currsize
        for name, value in vars(combinat).items()
        if hasattr(value, "cache_info") and value.cache_info().currsize
    }
    assert held == {"syt_descent_counts": 1}


# -- Kostka numbers ----------------------------------------------------------


def _brute_kostka(shape, content):
    """Count semistandard tableaux directly: fill cells left-to-right,
    top-to-bottom, rows weakly increasing, columns strictly increasing."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    counts = list(content)

    def place(idx, grid):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        total = 0
        for v in range(len(counts)):
            if counts[v] == 0:
                continue
            if j > 0 and grid[(i, j - 1)] > v:
                continue
            if i > 0 and (i - 1, j) in grid and grid[(i - 1, j)] >= v:
                continue
            counts[v] -= 1
            grid[(i, j)] = v
            total += place(idx + 1, grid)
            del grid[(i, j)]
            counts[v] += 1
        return total

    return place(0, {})


def test_kostka_frozen_examples():
    assert kostka_number((2, 1), (1, 1, 1)) == 2
    assert kostka_number((3, 1), (2, 1, 1)) == 2
    assert kostka_number((2, 2), (1, 2, 1)) == 1
    assert kostka_number((2, 2), (2, 2)) == 1
    assert kostka_number((4,), (1, 1, 1, 1)) == 1
    assert kostka_number((1, 1, 1), (2, 1)) == 0


def test_kostka_triangularity():
    # K[lam, lam] = 1; K[lam, nu] = 0 unless lam dominates nu
    for n in range(1, 7):
        for lam in partition_list(n):
            assert kostka_number(lam, lam) == 1


def test_kostka_matches_brute_force():
    rng = random.Random(11)
    for n in range(1, 7):
        shapes = partition_list(n)
        for lam in shapes:
            for nu in shapes:
                want = _brute_kostka(lam, nu)
                assert kostka_number(lam, nu) == want
    # a few composition contents (not weakly decreasing)
    for _ in range(30):
        n = rng.randrange(1, 7)
        lam = rng.choice(partition_list(n))
        parts = []
        left = n
        while left:
            c = rng.randrange(1, left + 1)
            parts.append(c)
            left -= c
        rng.shuffle(parts)
        assert kostka_number(lam, tuple(parts)) == _brute_kostka(lam, tuple(parts))
    # zero parts repeat a partial sum, so two cuts of the standardization
    # fall on one descent position
    assert kostka_number((2, 1), (2, 0, 1)) == _brute_kostka((2, 1), (2, 0, 1)) == 1
    for _ in range(60):
        n = rng.randrange(0, 7)
        lam = rng.choice(partition_list(n))
        parts = [0] * rng.randrange(1, 4)
        left = n
        while left:
            c = rng.randrange(1, left + 1)
            parts.append(c)
            left -= c
        rng.shuffle(parts)
        assert kostka_number(lam, tuple(parts)) == _brute_kostka(lam, tuple(parts))


def test_kostka_invariant_under_content_permutation():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(2, 8)
        lam = rng.choice(partition_list(n))
        parts = []
        left = n
        while left:
            c = rng.randrange(1, left + 1)
            parts.append(c)
            left -= c
        base = tuple(sorted(parts, reverse=True))
        shuffled = parts[:]
        rng.shuffle(shuffled)
        assert kostka_number(lam, tuple(shuffled)) == kostka_number(lam, base)


def test_kostka_rejects_size_mismatch():
    with pytest.raises(ValueError):
        kostka_number((2, 1), (1, 1))
    with pytest.raises(ValueError, match="non-negative"):
        kostka_number((2, 1), (4, -1))
