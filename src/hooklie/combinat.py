"""Partitions, permutations by cycle type, descents, subsets, and standard
tableaux counted by descent set in one forward pass over sub-shapes that
builds no tableau; Kostka numbers are read from those counts.

WALK_LIMIT bounds the items any route of the package walks, and check_walk
is the one comparison with it: every route, and every verify suite of the
command line, passes it the number of items it would walk (subsets, class
elements, (mask, shape) or (mask, submask) pairs, or the (row, mask) keys
of a tableau table) and is refused with ValueError before any work when
that is over the limit.  subset_walk, class_walk and ribbon_walk give the
counts of the cdes routes without building 2^n, n! or the partitions of n
for a huge n; syt_descent_counts, and so kostka_number, checks its own.

The Des masks of a whole class come from one private kernel, _des_masks,
which packs each column of a chunk of elements into one integer with a
32-bit lane per element and finds every descent of the column pair in a few
big-integer operations; a cyclic variant adds Cellini's position n.
descent_set and cellini_descent_set, one element at a time, are its oracle.

Conventions used across the package:

* partitions are weakly decreasing tuples of positive ints,
* permutations are tuples in one-line notation over {1, ..., n},
* subsets of [n] are n-bit masks, bit i-1 standing for the element i,
  so rotation i -> i+1 (mod n) is a shift with wraparound and all
  serialized output lists elements in increasing order.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from functools import lru_cache
from itertools import accumulate, islice
from typing import Iterator

__all__ = [
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
]


# -- number theory -----------------------------------------------------------


@lru_cache(maxsize=None)
def _factor(d: int) -> tuple[tuple[int, int], ...]:
    if d < 1:
        raise ValueError(f"positive integer required, got {d}")
    out = []
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def moebius(d: int) -> int:
    """Moebius function: 0 on non-squarefree d, else (-1)^(#prime factors)."""
    fac = _factor(d)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def is_squarefree(d: int) -> bool:
    return all(e == 1 for _, e in _factor(d))


@lru_cache(maxsize=None)
def divisors(d: int) -> tuple[int, ...]:
    """All positive divisors of d, increasing."""
    out = [1]
    for p, e in _factor(d):
        out = [a * p**k for a in out for k in range(e + 1)]
    return tuple(sorted(out))


# -- partitions --------------------------------------------------------------


def is_partition(mu) -> bool:
    t = tuple(mu)
    return all(isinstance(p, int) for p in t) and all(
        t[i] >= t[i + 1] for i in range(len(t) - 1)
    ) and (not t or t[-1] >= 1)


def _check_partition(mu) -> tuple[int, ...]:
    t = tuple(mu)
    if not is_partition(t):
        raise ValueError(f"not a partition: {mu!r}")
    return t


def check_class_type(mu) -> tuple[int, ...]:
    """mu as a tuple if it is a partition of some n >= 1, the cycle type of
    a conjugacy class of S_n; ValueError otherwise."""
    t = tuple(mu)
    if not t or not is_partition(t):
        raise ValueError(f"not a partition of n >= 1: {mu!r}")
    return t


@lru_cache(maxsize=None)
def partition_list(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, decreasing lexicographic, (n) first."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = []

    def rec(remaining: int, cap: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return tuple(out)


def centralizer_order(mu) -> int:
    """prod_i i^(k_i) k_i! over part multiplicities k_i of mu."""
    return _centralizer_order(_check_partition(mu))


def _centralizer_order(mu: tuple[int, ...]) -> int:
    """centralizer_order of a partition already checked."""
    z = 1
    for i in set(mu):
        k = mu.count(i)
        z *= i**k * math.factorial(k)
    return z


def class_size(mu) -> int:
    mu = _check_partition(mu)
    return math.factorial(sum(mu)) // _centralizer_order(mu)


# -- the walk limit ----------------------------------------------------------


# The most items any route walks: the largest class of S_10, (9, 1), with
# 403,200 elements.  Since 2^18 <= WALK_LIMIT < 2^19, the walks over the
# subsets of [n] admit n <= 18.
WALK_LIMIT = class_size((9, 1))


def check_walk(items: int, what: str) -> None:
    """Refuse, with ValueError, a walk over more than WALK_LIMIT items.  The
    message names them by what, which says n and never their count or a
    class type: both can have more digits than Python will print."""
    if items > WALK_LIMIT:
        raise ValueError(f"{what} are over the walk limit of {WALK_LIMIT}")


# subset_walk, class_walk, ribbon_walk and _tableau_walk saturate at
# 2^20 > WALK_LIMIT, so check_walk decides on their counts as on the exact
# ones.
_COUNT_CAP = 1 << 20


def subset_walk(n: int) -> int:
    """min(2^n, 2^20): the number of subsets of [n], never built for a huge
    n."""
    return 1 << n if n < 20 else _COUNT_CAP


def ribbon_walk(n: int) -> int:
    """min(2^(n-1) p(n), 2^20): the (mask, shape) pairs of a class of S_n,
    n >= 1, for the ribbon routes; partition_list(n) is never built at 20."""
    if n >= 20:
        return _COUNT_CAP
    return min((1 << (n - 1)) * len(partition_list(n)), _COUNT_CAP)


def class_walk(mu) -> int:
    """min(size of the class of mu, 2^20), without computing n! for a huge
    n.

    The size is a product of integer factors >= 1, taken for each part size
    i, with multiplicity k, in decreasing order of i, with R points left:
    C(R, ik) places the k cycles of length i, built through the partial
    binomials C(R - m + j, j), j <= m = min(ik, R - ik), which never
    decrease; then (it - 1)(it - 2) ... (it - i + 1) for t = 1 .. k cuts
    those ik points into cycles, each through the smallest point left.  So
    the first partial product at the cap settles it.
    """
    size, rest = 1, sum(mu)
    for i, k in sorted(Counter(mu).items(), reverse=True):
        m = min(i * k, rest - i * k)
        binomial = 1
        for j in range(1, m + 1):
            binomial = binomial * (rest - m + j) // j
            if size * binomial >= _COUNT_CAP:
                return _COUNT_CAP
        size *= binomial
        for t in range(1, k + 1):
            for u in range(1, i):
                size *= i * t - u
                if size >= _COUNT_CAP:
                    return _COUNT_CAP
        rest -= i * k
    return size


# -- permutations ------------------------------------------------------------


def cycle_type(pi) -> tuple[int, ...]:
    """Cycle type of a one-line permutation of 1..n; ValueError otherwise."""
    n = len(pi)
    if sorted(pi) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {pi!r}")
    seen = bytearray(n)
    parts = []
    for a in range(n):
        ln, b = 0, a
        while not seen[b]:
            seen[b] = 1
            b = pi[b] - 1
            ln += 1
        if ln:
            parts.append(ln)
    return tuple(sorted(parts, reverse=True))


def conjugacy_class(mu) -> Iterator[tuple[int, ...]]:
    """All permutations of cycle type mu, lexicographic in one-line notation.

    The class is generated directly rather than filtered out of S_n, so
    the cost is proportional to the class size (a few search steps per
    element) and memory is O(n).  mu is checked when this is called; the
    elements come lazily, in the same order as filtering
    itertools.permutations would give.
    """
    return _class_elements(check_class_type(mu))


def _class_elements(mu: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # Depth-first search filling pi(1), pi(2), ... with the free values in
    # increasing order.  The values set so far split [n] into closed cycles
    # and open paths a -> pi(a) -> ... -> b with pi(b) unset (a lone element
    # is a path of length 1): the position i being filled is the tail of
    # its path and every free value is the head of one.  pi(i) = v closes
    # a cycle when v heads i's own path and joins two paths otherwise; v is
    # pruned when that cycle length is no longer needed, when the joined
    # path would be longer than every cycle still needed, or when the join
    # would leave fewer lone elements than fixed points still needed (only
    # a lone element can become one).  At i = n - 2 three paths are left,
    # ending at n - 2, n - 1 and n with heads h, b and c, the three free
    # values, so the at most six completions are read off at once from the
    # number rem of cycles still to close instead of searched three levels
    # deep: one cycle is both 3-cycles of the paths, (b, c, h) and
    # (c, h, b), always of the one length needed; two cycles are the
    # transpositions (h, c, b), (b, h, c) and (c, b, h), each when its two
    # lengths are needed; three cycles is (h, b, c) alone, when all three
    # lengths are needed; four or more close none (the pruning lets paths
    # of lengths 3, 3, 3 through with cycles 3, 2, 2, 2 still needed).  The
    # free values sit on a doubly linked list, nxt and prv, with 0 before
    # the first and n + 1 after the last: a value is unlinked when placed
    # and relinked when undone, always in reverse order, so the scan steps
    # over free values only.
    n = sum(mu)
    if n == 1:
        yield (1,)
        return
    if n == 2:
        yield (2, 1) if mu == (2,) else (1, 2)
        return
    need = [0] * (n + 1)  # need[k]: cycles of length k still to close
    for part in mu:
        need[part] += 1
    rem = len(mu)  # cycles still to close
    longest = mu[0]  # largest k with need[k] > 0
    head = list(range(n + 1))  # head[t]: first element of the path ending at t
    tail = list(range(n + 1))  # tail[h]: last element of the path starting at h
    size = [1] * (n + 1)  # size[h]: number of elements on the path starting at h
    nxt = list(range(1, n + 2))  # nxt[v]: the free value after v; nxt[0] the first
    prv = list(range(-1, n + 1))  # prv[v]: the free value before v, or 0
    lone = n  # open paths of length 1
    pi = [0] * n
    i, v = 1, 1  # the position being filled and the next free value to try there
    while True:
        h = head[i]
        ln = size[h]
        if i == n - 2:
            b = head[n - 1]
            c = head[n]
            lb = size[b]
            lc = size[c]
            if rem == 1:
                if b < c:
                    pi[-3:] = b, c, h
                    yield tuple(pi)
                    pi[-3:] = c, h, b
                    yield tuple(pi)
                else:
                    pi[-3:] = c, h, b
                    yield tuple(pi)
                    pi[-3:] = b, c, h
                    yield tuple(pi)
            elif rem == 2:
                # each transposition's first entry is a different free value
                found = []
                x = lb + lc
                if need[ln] and need[x] > (ln == x):
                    found.append((h, c, b))
                x = ln + lb
                if need[x] and need[lc] > (x == lc):
                    found.append((b, h, c))
                x = ln + lc
                if need[x] and need[lb] > (x == lb):
                    found.append((c, b, h))
                found.sort()
                for last in found:
                    pi[-3:] = last
                    yield tuple(pi)
            elif (
                rem == 3
                and need[ln]
                and need[lb] > (lb == ln)
                and need[lc] > (lc == ln) + (lc == lb)
            ):
                pi[-3:] = h, b, c
                yield tuple(pi)
            v = n + 1
        else:
            # lone elements a join may use up and still leave enough
            spare = lone - need[1] - (ln == 1)
            while v <= n and not (
                need[ln]
                if v == h
                else ln + size[v] <= longest and spare >= (size[v] == 1)
            ):
                v = nxt[v]
        if v <= n:
            pi[i - 1] = v
            a, b = prv[v], nxt[v]
            nxt[a] = b
            prv[b] = a
            if v == h:
                need[ln] -= 1
                rem -= 1
                lone -= ln == 1
                while not need[longest]:
                    longest -= 1
            else:
                lone -= (ln == 1) + (size[v] == 1)
                t = tail[v]
                tail[h] = t
                head[t] = h
                size[h] = ln + size[v]
            i, v = i + 1, nxt[0]
            continue
        # every value at position i is done: undo pi(i - 1), try the next one
        i -= 1
        if not i:
            return
        v = pi[i - 1]
        nxt[prv[v]] = v
        prv[nxt[v]] = v
        h = head[i]
        if v == h:
            ln = size[h]
            need[ln] += 1
            rem += 1
            lone += ln == 1
            longest = max(longest, ln)
        else:
            size[h] -= size[v]
            tail[h] = i
            head[tail[v]] = v
            lone += (size[h] == 1) + (size[v] == 1)
        v = nxt[v]


def descent_set(pi) -> int:
    """Mask of {i in [n-1] : pi_i > pi_(i+1)}."""
    mask = 0
    for i in range(len(pi) - 1):
        if pi[i] > pi[i + 1]:
            mask |= 1 << i
    return mask


def cellini_descent_set(pi) -> int:
    """Cellini's cyclic descent set: descents of pi read cyclically.

    Position n is a descent iff pi_n > pi_1, so the identity gets {n}
    for n > 1 and the result is never empty nor all of [n] when n > 1.
    """
    n = len(pi)
    mask = descent_set(pi)
    if n and pi[n - 1] > pi[0]:
        mask |= 1 << (n - 1)
    return mask


# Elements per chunk of _des_masks: 2^12 lanes of 32 bits make each packed
# column an integer of 16 KiB, so the temporaries stay small however large
# the class is
_MASK_CHUNK = 1 << 12


def _des_masks(elements, n: int, cyclic: bool = False) -> array:
    """descent_set of every element, in order, or cellini_descent_set when
    cyclic; descent_set and cellini_descent_set are its oracle.

    elements is any iterable of n-tuples with entries in [n], 1 <= n <= 32,
    such as a class walk; anything else is refused with ValueError (or
    TypeError for a non-int entry).  It is read in chunks of _MASK_CHUNK
    elements.  Column i of a chunk is packed into one integer with a 32-bit
    lane per element, entry pi_i in the low byte of its lane.  With H bit 31
    of every lane, ((col_(i+1) | H) - col_i) & H sets bit 31 exactly where
    pi_(i+1) >= pi_i, as every entry is below 2^31 and so no lane borrows
    from the next.  Shifted down to bit i - 1, the bit of position i, and
    OR-ed in, those non-descents are complemented once at the end.  The
    cyclic variant compares column 1 with column n for Cellini's position
    n.  So a chunk costs about 5n big-integer operations on 16 KiB
    integers, not one Python comparison per entry, and the masks are
    unpacked with array('I')."""
    if not 1 <= n <= 32:
        raise ValueError(f"Des masks of S_{n} do not fit a 32-bit lane")
    masks = array("I")
    order = sys.byteorder
    low = 0 if order == "little" else 3  # the byte of a lane holding its entry
    entries = bytes(range(1, n + 1))
    bits = n if cyclic else n - 1
    it = iter(elements)
    while chunk := list(islice(it, _MASK_CHUNK)):
        width = 4 * len(chunk)
        ones = int.from_bytes(array("I", [1]) * len(chunk), order)
        high = ones << 31
        lane = bytearray(width)
        cols = []
        for col in zip(*chunk, strict=True):
            packed = bytes(col)  # ValueError on an entry outside [0, 255]
            if packed.translate(None, entries):
                raise ValueError(f"an element has an entry outside [{n}]")
            lane[low::4] = packed
            cols.append(int.from_bytes(lane, order))
        if len(cols) != n:
            raise ValueError(f"the elements are not {n}-tuples")
        rises = 0
        for k in range(n - 1):
            rises |= (((cols[k + 1] | high) - cols[k]) & high) >> (31 - k)
        if cyclic:
            rises |= (((cols[0] | high) - cols[-1]) & high) >> (32 - n)
        masks.frombytes((rises ^ (ones * ((1 << bits) - 1))).to_bytes(width, order))
    return masks


# -- subsets as bitmasks -----------------------------------------------------


def full_mask(n: int) -> int:
    return (1 << n) - 1


def rotate_subset(mask: int, n: int) -> int:
    """Image of a subset of [n] under i -> i+1 (mod n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if mask < 0 or mask >> n:
        raise ValueError(f"mask {mask} is not a subset of [{n}]")
    return ((mask << 1) | (mask >> (n - 1))) & ((1 << n) - 1)


def subset_elements(mask: int) -> tuple[int, ...]:
    """The elements of a subset mask, increasing; ValueError on a negative
    mask, whose shifts never reach 0."""
    if mask < 0:
        raise ValueError(f"mask {mask} is not a subset")
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def mask_from_elements(elems) -> int:
    mask = 0
    for e in elems:
        if e < 1:
            raise ValueError(f"elements must be >= 1, got {e}")
        mask |= 1 << (e - 1)
    return mask


# -- standard tableaux and Kostka numbers ------------------------------------


def _syt_table(shape: tuple[int, ...]) -> dict[int, dict[int, int]]:
    # {row of n: {Des mask: count}} over the standard tableaux of the shape,
    # built forward: level m maps each sub-shape of size m, padded to
    # len(shape), to its such table.  Entry m goes into each addable cell, of
    # a row i, and m - 1 is a descent exactly when i is below the row of m - 1
    level = {(0,) * len(shape): {0: {0: 1}}}
    for m in range(1, sum(shape) + 1):
        bit = 1 << m >> 2  # the bit of m - 1; entry 1 follows none
        larger: dict = {}
        for nu, table in level.items():
            for i, part in enumerate(nu):
                if part == shape[i] or (i and nu[i - 1] == part):
                    continue  # row i is full or has no addable cell
                grown = nu[:i] + (part + 1,) + nu[i + 1 :]
                target = larger.setdefault(grown, {}).setdefault(i, {})
                for row, counts in table.items():
                    flip = bit if row < i else 0
                    for mask, count in counts.items():
                        mask |= flip
                        target[mask] = target.get(mask, 0) + count
        level = larger  # level m - 1 dies here: two levels at most are alive
    return level[shape]


def _tableau_walk(shape: tuple[int, ...]) -> int:
    """min(f^shape, len(shape) 2^(n-1), 2^20), a bound on the (row, mask)
    keys of _syt_table(shape): each counts at least one of its f^shape
    standard tableaux (hook length formula).  Saturated at n >= 20."""
    n = sum(shape)
    if n >= 20:
        return _COUNT_CAP
    conj = [sum(1 for p in shape if p > j) for j in range(shape[0] if shape else 0)]
    hooks = math.prod(
        part - j + conj[j] - i - 1 for i, part in enumerate(shape) for j in range(part)
    )
    return min(math.factorial(n) // hooks, (len(shape) << n) // 2)


@lru_cache(maxsize=None)
def syt_descent_counts(shape) -> dict:
    """Number of standard tableaux of the shape per descent-set mask
    (nonzero counts only), summed from _syt_table over the row of n.  A
    shape whose table has more (row, mask) keys than WALK_LIMIT
    (_tableau_walk) is refused with ValueError before any work, so every
    shape with n <= 16 is admitted and none with n >= 20.  Cold, on a
    2-vCPU x86 VM with Python 3.11: 0.22 s and a 53 MiB peak for
    (6, 4, 3, 2, 1, 1), the costliest of the admitted shapes with n >= 17.
    The counts are memoized per shape; the sub-shape tables die level by
    level, so of that peak only the 4.2 MiB of counts stays live."""
    shape = _check_partition(shape)
    check_walk(
        _tableau_walk(shape), f"the (row, mask) keys of a tableau table of size {sum(shape)}"
    )
    counts: dict[int, int] = {}
    for by_mask in _syt_table(shape).values():
        for mask, count in by_mask.items():
            counts[mask] = counts.get(mask, 0) + count
    return counts


@lru_cache(maxsize=None)
def _kostka(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    # standardization: the semistandard tableaux of the content are the
    # standard ones whose descents lie in its partial sums (EC2, 7.10).  A
    # zero part repeats a partial sum, so the cuts are OR-ed, not added.
    cuts = mask_from_elements(s for s in accumulate(content[:-1]) if s)
    return sum(c for mask, c in syt_descent_counts(shape).items() if not mask & ~cuts)


def kostka_number(shape, content) -> int:
    """Count of semistandard tableaux of the given shape and content.

    The content may be any composition (order does not change the count);
    entries i appear content[i-1] times.
    """
    shape = _check_partition(shape)
    content = tuple(content)
    if any(not isinstance(c, int) or c < 0 for c in content):
        raise ValueError(f"content must be non-negative ints: {content!r}")
    if sum(shape) != sum(content):
        raise ValueError("shape and content must have equal size")
    return _kostka(shape, content)
