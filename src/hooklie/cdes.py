"""Cyclic descent extensions on conjugacy classes.

The Des fibers of a class come from Gessel and Reutenauer's identity
#{pi in the class of mu : Des(pi) inside S} = <ch psi^mu, h_alpha(S)>,
with alpha(S) the composition of n with partial sums S: one pairing per
partition of n (characters.h_pairings), then Moebius inversion over the
subsets of [n-1] on the table packed into integers of 32 KiB.  No class
element is walked, so the cost follows 2^(n-1) and not the class size.
Enumerating the class is the test oracle (tests/brute_force.py); only
construct_extension and cellini_closed, which need the elements
themselves, still walk the class, and cellini_closed only when the class
has exactly one fixed point: for n >= 2 no other class is rotation
closed, by a count its docstring proves.

Neither computes a Des mask one element at a time.  The masks of the
walked class (Cellini's, for cellini_closed) come from
combinat._des_masks, which compares whole columns of a chunk of elements
packed into 32-bit lanes, and check_axioms computes its own masks from
the solution's elements the same way.  write_extension writes the dump as
a token stream: per block of elements, columns of precomputed tokens
interleaved by zip and joined once.  It keeps no per-class cache of
formatted lines: only one block of text is alive at a time, where the
lines of (9, 1) held whole peaked at 153.8 MiB.

Every route here first passes combinat.check_walk the number of items it
would walk, from combinat's subset_walk, class_walk or ribbon_walk, and is
refused with ValueError before any work when that is over
combinat.WALK_LIMIT.

A cyclic extension assigns to every pi in the class a set cDes(pi) with
cDes(pi) intersect [n-1] = Des(pi), together with a bijection p of the
class satisfying cDes(p(pi)) = sh(cDes(pi)), such that no cDes is empty
or all of [n].  Fiber sizes c_J = #{pi : cDes(pi) = J} are pinned down
by the descent distribution: c_D + c_(D u {n}) must match the Des fiber
of D, c is constant on rotation orbits, and c_() = c_([n]) = 0.  The
solver fills c over all 2^n subsets in one pass of descending mask from
c_[n] = 0: the count of D u {n} is that of its inverse rotation, a higher
mask, and pairing then gives the count of D.  The constraints the pass
does not read (the rotations into sets without n, and c_() = 0) are
checked after it, with no entry negative.  The constraint graph is
connected (rotating any set moves an element into position n and pairing
then drops it), so the solution is unique when it exists.  The
dict-and-stack propagation from c_() = 0 is the test oracle
(tests/brute_force.py).

Both fiber records hold one dense tuple over every mask, zeros included:
DescentDistribution.table has the 2^(n-1) Des fibers and FiberSolution.table
the 2^n cDes fibers, as the inversion and the solver build them, so neither
is rebuilt into a dict.  count(mask) reads the table and gives 0 outside
it; DescentDistribution.fibers and FiberSolution.counts are read-only
mappings of the nonzero entries, in increasing mask order.
"""

from __future__ import annotations

import struct
from collections import Counter
from collections.abc import Iterator, Mapping
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import and_, eq, lt, ne, sub
from types import MappingProxyType
from typing import Dict, List, NamedTuple, Optional, TextIO, Tuple, Union

from . import characters
from .combinat import (
    _des_masks,
    check_class_type,
    check_walk,
    class_size,
    class_walk,
    conjugacy_class,
    full_mask,
    kostka_number,
    partition_list,
    ribbon_walk,
    rotate_subset,
    subset_elements,
    subset_walk,
    syt_descent_counts,
)

__all__ = [
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
]


class _Nonzero(Mapping):
    """Read-only view of the nonzero entries of a dense table, mask to
    count, in increasing mask order."""

    __slots__ = ("_table",)

    def __init__(self, table: Tuple[int, ...]):
        self._table = table

    def __getitem__(self, mask: int) -> int:
        table = self._table
        if isinstance(mask, int) and 0 <= mask < len(table) and table[mask]:
            return table[mask]
        raise KeyError(mask)

    def __iter__(self) -> Iterator[int]:
        return compress(range(len(self._table)), self._table)

    def __len__(self) -> int:
        return len(self._table) - self._table.count(0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())})"


def _entry(table: Tuple[int, ...], mask: int) -> int:
    return table[mask] if 0 <= mask < len(table) else 0


class DescentDistribution(NamedTuple):
    """Des-fiber sizes of a conjugacy class: table[S] counts the elements
    with descent set S, for every mask S of [n-1] (2^(n-1) entries)."""

    n: int
    table: Tuple[int, ...]

    @property
    def fibers(self) -> Mapping[int, int]:
        """The nonzero fibers, read-only, in increasing mask order."""
        return _Nonzero(self.table)

    def count(self, mask: int) -> int:
        """table[mask], and 0 for a mask outside [n-1]."""
        return _entry(self.table, mask)


class Infeasible(NamedTuple):
    """No cyclic extension exists; reason names the violated constraint."""

    reason: str
    subset: Optional[Tuple[int, ...]] = None
    note: str = ""

    def count(self, mask: int) -> int:
        """Refused: there are no cDes fibers to count (not tuple.count)."""
        raise TypeError(f"no cyclic extension ({self.reason}), so no cDes fiber count")


class FiberSolution(NamedTuple):
    """The unique consistent cDes-fiber sizes: table[J] = c_J for every
    mask J of [n] (2^n entries)."""

    n: int
    table: Tuple[int, ...]

    @property
    def counts(self) -> Mapping[int, int]:
        """The nonzero c_J, read-only, in increasing mask order."""
        return _Nonzero(self.table)

    def count(self, mask: int) -> int:
        """table[mask], and 0 for a mask outside [n]."""
        return _entry(self.table, mask)


class CyclicExtensionSolution(NamedTuple):
    """An explicit cyclic extension, held as parallel arrays over the class.
    elements is the class in lexicographic order, cdes[i] the cDes mask of
    elements[i], and p[i] the index of the image of elements[i] under the
    rotation-equivariant bijection p.  axioms holds the results of the
    exhaustive check_axioms run that construct_extension made before
    returning it, read-only (an empty mapping for a solution built
    elsewhere)."""

    mu: Tuple[int, ...]
    n: int
    fibers: FiberSolution
    elements: Tuple[Tuple[int, ...], ...]
    cdes: Tuple[int, ...]
    p: Tuple[int, ...]
    axioms: Mapping[str, bool] = MappingProxyType({})


@lru_cache(maxsize=None)
def _composition_shapes(n: int) -> Tuple[int, ...]:
    """For every subset S of [n-1], by mask, the index in partition_list(n)
    of the parts of alpha(S), sorted: the composition of n whose partial
    sums are the elements of S.

    Built from the table of n - 1.  A mask without n - 1 is a mask of
    [n-2] whose last part, n - 1 - max S, grows by one; that part is the
    same on each block of masks with the same highest element, so each
    block maps its shapes through one small dict.  A mask with n - 1
    appends a part 1 to the shape of the mask without it."""
    if n == 1:
        return (0,)
    below = _composition_shapes(n - 1)
    heads = partition_list(n - 1)
    index = {lam: j for j, lam in enumerate(partition_list(n))}
    shapes: List[int] = []
    for e in range(n - 1):  # the block whose highest element is e, 0 for S = {}
        block = below[(1 << e) >> 1 : 1 << e]
        last = n - 1 - e
        grown = {}
        for j in set(block):
            lam = heads[j]
            i = lam.index(last)  # the first part last; last + 1 keeps the order
            grown[j] = index[lam[:i] + (last + 1,) + lam[i + 1 :]]
        shapes += map(grown.__getitem__, block)
    shapes += map([index[lam + (1,)] for lam in heads].__getitem__, below)
    return tuple(shapes)


# 64-bit digits per integer of the Moebius inversion: a chunk of 2^12
# digits is 32 KiB, so each step of the inversion allocates 32 KiB
# temporaries, not ones the size of the table (1 MiB at n = 18)
_CHUNK = 1 << 12


@lru_cache(maxsize=None)
def _chunk_masks(digits: int) -> Tuple[Tuple[int, int], ...]:
    """For a chunk of that many 64-bit digits, a power of 2, one pair per
    bit b with 2^b < digits: (the bits in 2^b digits, the mask of the
    digits whose index lacks bit b)."""
    masks = []
    b = 0
    while 1 << b < digits:
        pattern = b"\xff" * (8 << b) + bytes(8 << b)
        masks.append((64 << b, int.from_bytes(pattern * (digits >> (b + 1)), "little")))
        b += 1
    return tuple(masks)


def descent_distribution(mu) -> DescentDistribution:
    """Des-fiber sizes over the full conjugacy class of mu, by
    Gessel-Reutenauer: #{pi : Des(pi) inside S} is the pairing of
    characters.h_pairings at the sorted parts of alpha(S), and Moebius
    inversion over the subsets of [n-1], one element at a time, gives
    #{pi : Des(pi) = S} in O(n 2^(n-1)).

    The inversion runs on the table packed as 64-bit digits, entry S at
    digit S, in chunks of _CHUNK digits, each one integer.  Within a chunk,
    the step for bit b subtracts, in one big-integer operation, every digit
    whose mask lacks bit b from the digit 2^b above it; the bits from
    log2(_CHUNK) up subtract whole chunks from whole chunks.  Each
    intermediate value counts the elements whose descents meet the
    processed elements in a given set and lie inside S elsewhere, so it is
    >= 0 and at most the class size, and no digit borrows.  Every pairing
    is checked to be at most the class size first.

    Each chunk is exact modulo 2^(64 _CHUNK), as every step is a
    subtraction, a mask or a shift, so a doctored table that makes a fiber
    negative borrows only upward and only within its chunk: the chunks
    below are exact, and so are the digits of its chunk below it.  The
    lowest negative fiber therefore reads back exactly, as a signed digit,
    when it is at least -2^63, and is reported.

    The unpacked tuple is the distribution's table as it stands.  Nothing
    is enumerated, so the class size does not bound the cost; the table has
    2^(n-1) entries and solve_extension walks 2^n subsets, so n >= 19 is
    refused with ValueError before any work.  A pairing over the class
    size, a negative fiber, or fibers that do not sum to the class size
    raise ArithmeticError.
    """
    mu = check_class_type(mu)
    n = sum(mu)
    check_walk(subset_walk(n), f"the subsets of [{n}]")
    size = class_size(mu)
    pairings = characters._h_pairings(mu)
    values = [pairings[lam] for lam in partition_list(n)]
    if max(values) > size:
        raise ArithmeticError(f"a pairing of {mu} exceeds the class size {size}")
    top = 1 << (n - 1)
    digits = f"<{top}q"
    step = 8 * min(top, _CHUNK)  # bytes per chunk
    # #{Des inside S} at digit S
    raw = memoryview(struct.pack(digits, *map(values.__getitem__, _composition_shapes(n))))
    chunks = [int.from_bytes(raw[i : i + step], "little") for i in range(0, 8 * top, step)]
    masks = _chunk_masks(step // 8)
    for c, packed in enumerate(chunks):
        for width, lacks_b in masks:
            packed -= (packed & lacks_b) << width
        chunks[c] = packed
    bit = 1  # the bits from log2(_CHUNK) up, by chunk index
    while bit < len(chunks):
        for c in range(len(chunks)):
            if c & bit:
                chunks[c] -= chunks[c ^ bit]
        bit *= 2
    whole = (1 << (8 * step)) - 1
    table = struct.unpack(digits, b"".join((x & whole).to_bytes(step, "little") for x in chunks))
    if min(table) < 0:
        mask = list(map(lt, table, repeat(0))).index(True)
        raise ArithmeticError(
            f"negative Des fiber {table[mask]} at {subset_elements(mask)} for {mu}"
        )
    return _checked_distribution(mu, table, size)


def _checked_distribution(
    mu: Tuple[int, ...], table: Tuple[int, ...], size: int
) -> DescentDistribution:
    if sum(table) != size:
        raise ArithmeticError(f"class size mismatch for {mu}")
    return DescentDistribution(sum(mu), table)


def solve_extension(dist: DescentDistribution) -> Union[FiberSolution, Infeasible]:
    """Unique cDes-fiber sizes consistent with the distribution, or
    Infeasible with the violated constraint.

    One pass in descending mask from c_[n] = 0.  For j inside [n-1], let
    L[j] = c_j and H[j] = c_(j u {n}).  Rotation invariance gives
    H[j] = c_(k u {n}) for odd j and c_k for even j, with
    k = (j >> 1) | 2^(n-2) > j unless j = [n-1]; pairing
    (c_D + c_(D u {n}) = Des fiber of D) then gives L = f - H.  Each block
    of masks [2^(n-1) - 2^i, 2^(n-1) - 2^(i-1)) reads only the block above
    it, so it is two strided slice copies and one elementwise subtraction.

    Three checks follow the pass, in this order; the first reads the
    rotations into sets without n, which the pass did not:
      conflicting-counts  c_J != c_(sh J) for some J (reported: the lowest
                          such mask), so the constraints are inconsistent;
      nonzero-full-set    c_() != 0.  The homogeneous solution is
                          +-(-1)^|J|, so the propagation from c_() = 0
                          would find c_[n] != 0 instead: [n] is reported;
      negative-count      some c_J < 0 (reported: the lowest such mask).
    The constraint graph is connected (rotating any set moves an element
    into position n and pairing then drops it), so the solution is unique
    when it exists.  An n whose 2^n subsets exceed WALK_LIMIT, or a table
    without exactly 2^(n-1) entries, is refused with ValueError before any
    fiber is read.
    """
    n = dist.n
    check_walk(subset_walk(n), f"the subsets of [{n}]")
    f = dist.table
    if n < 1 or len(f) != 1 << (n - 1):
        raise ValueError(f"a Des table of S_{n} needs 2^(n-1) entries, got {len(f)}")
    top = len(f)
    low = [0] * top  # L[j] = c_j
    high = [0] * top  # H[j] = c_(j u {n}); H[top - 1] = c_[n] = 0
    low[-1] = f[-1]
    end = top - 1
    for i in range(1, n):
        start = top - (1 << i)
        width = end - start  # the block above starts at end, with half as many
        high[start:end:2] = low[end : end + (width + 1) // 2]
        high[start + 1 : end : 2] = high[end : end + width // 2]
        low[start:end] = map(sub, f[start:end], high[start:end])
        end = start
    c = low + high  # c[J] for every mask J of [n]
    rotated = c[::2] + c[1::2]  # rotated[J] = c_(sh J)
    if c != rotated:
        mask = list(map(ne, c, rotated)).index(True)
        return Infeasible("conflicting-counts", subset_elements(mask))
    if c[0]:
        return Infeasible("nonzero-full-set", subset_elements(full_mask(n)))
    if min(c) < 0:
        mask = list(map(lt, c, repeat(0))).index(True)
        return Infeasible("negative-count", subset_elements(mask))
    return FiberSolution(n, tuple(c))


def _escher_note(mu: Tuple[int, ...]) -> str:
    if all(p == mu[0] for p in mu) and mu[0] in (1, 2) and sum(mu) > 1:
        return (
            "Escher-type degeneration: this class only supports a cyclic "
            "descent set that is empty or all of [n]"
        )
    return ""


def construct_extension(mu) -> Union[CyclicExtensionSolution, Infeasible]:
    """Explicit cyclic extension of Des on the class of mu, or Infeasible.

    Deterministic rule: within each Des-fiber in lexicographic order, the
    first c_(D u {n}) permutations get D u {n} and the rest keep D; p
    sends the k-th element of the fiber of J to the k-th element of the
    fiber of sh(J).  All axioms are verified exhaustively, once, before
    return; the results ride along as the solution's axioms.  A class
    with more than WALK_LIMIT elements, or of S_n with more than WALK_LIMIT
    subsets of [n] to solve over, is refused with ValueError up front.
    write_extension dumps the result.
    """
    mu = check_class_type(mu)
    n = sum(mu)
    check_walk(subset_walk(n), f"the subsets of [{n}]")
    check_walk(class_walk(mu), f"the elements of a class of S_{n}")
    elements = tuple(conjugacy_class(mu))  # lexicographic
    des = _des_masks(elements, n)
    top = 1 << (n - 1)
    counts = Counter(des)
    table = tuple(counts[d] for d in range(top))
    sol = solve_extension(_checked_distribution(mu, table, class_size(mu)))
    if isinstance(sol, Infeasible):
        note = _escher_note(mu)
        return Infeasible(sol.reason, sol.subset, note) if note else sol
    head = list(sol.table[top:])  # c_(D u {n}): left to get n, per D
    cdes = []
    for d in des:
        if head[d]:
            head[d] -= 1
            d |= top
        cdes.append(d)
    fiber: Dict[int, List[int]] = {}  # the indices of each cDes fiber, in order
    for i, j in enumerate(cdes):
        fiber.setdefault(j, []).append(i)
    # the solver checked c_J = c_(sh J), so each fiber and its rotation
    # have the same size
    p = [0] * len(elements)
    for j, indices in fiber.items():
        for i, image in zip(indices, fiber[rotate_subset(j, n)]):
            p[i] = image
    result = CyclicExtensionSolution(mu, n, sol, elements, tuple(cdes), tuple(p))
    checks = check_axioms(result)
    if not all(checks.values()):
        failed = [name for name, ok in checks.items() if not ok]
        raise AssertionError(f"constructed extension violates {failed} on {mu}")
    return result._replace(axioms=MappingProxyType(checks))


def check_axioms(sol: CyclicExtensionSolution) -> Dict[str, bool]:
    """Exhaustive verification of a constructed extension.  The Des masks
    are computed here from sol.elements, a whole class at a time
    (combinat._des_masks), never taken from the constructor.  A malformed
    solution (arrays of the wrong length, p not a permutation of the
    indices, masks outside [n], or an element that is not an n-tuple with
    entries in [n]) gets False, never an exception."""
    n, elements, cdes, p = sol.n, sol.elements, sol.cdes, sol.p
    full = full_mask(n)
    whole = len(cdes) == len(elements)  # one cDes per class element
    restricted = map(and_, cdes, repeat(~(1 << (n - 1))))  # cDes without n
    try:
        des = _des_masks(elements, n)
    except (TypeError, ValueError):
        des = None  # no Des mask to compare: the extension axiom fails
    rotated = {j: rotate_subset(j, n) for j in set(cdes) if 0 <= j <= full}
    nonzero = {j: c for j, c in enumerate(sol.fibers.table) if c}
    return {
        "extension": whole and des is not None and all(map(eq, restricted, des)),
        "equivariance": whole
        and sorted(p) == list(range(len(cdes)))  # p is a bijection
        and list(map(cdes.__getitem__, p)) == list(map(rotated.get, cdes)),
        "non-escher": not cdes or (min(cdes) > 0 and max(cdes) < full),
        "fiber-counts": dict(Counter(cdes)) == nonzero,
    }


def cellini_closed(mu) -> bool:
    """Whether the multiset of Cellini cyclic descent sets of the class
    is invariant under rotation.

    For n >= 2 only a class with exactly one fixed point is walked; no
    other class is closed, so any other answers False at once, whatever
    its size.  A class to walk with more than WALK_LIMIT elements is
    refused with ValueError up front.  With N the class size and f its
    number of fixed points,

        #{pi : pi_n > pi_1} - #{pi : pi_1 > pi_2} = N (f - 1) / (n - 1).

    Conjugating by (1 n) swaps pi(1) and pi(n) when neither is in {1, n},
    so it pairs those elements and flips pi_n > pi_1 within each pair; the
    rest have pi(1) in {1, n} or pi(n) in {1, n}, and are counted from f
    and the number of 2-cycles, since conjugation makes every point fixed
    with the same frequency and every pair a 2-cycle with the same
    frequency.  Conjugating by (1 2) does the same for pi_1 > pi_2 and
    {1, 2}.  The two counts are those of the sets holding n and holding
    1, and a set holds n iff its rotation holds 1, so rotation closure
    makes them equal, which forces f = 1.
    """
    mu = check_class_type(mu)
    n = sum(mu)
    if n >= 2 and mu.count(1) != 1:
        return False
    check_walk(class_walk(mu), f"the elements of a class of S_{n}")
    counts = Counter(_des_masks(conjugacy_class(mu), n, cyclic=True))
    rotated = Counter()
    for mask, k in counts.items():
        rotated[rotate_subset(mask, n)] += k
    return counts == rotated


def cyclic_composition(n: int, mask: int) -> Tuple[int, ...]:
    """Cyclic composition of n attached to a nonempty subset {j_1<...<j_t}:
    (j_2-j_1, ..., j_t-j_(t-1), j_1+n-j_t); a singleton gives (n)."""
    if mask <= 0 or mask >> n:
        raise ValueError(f"need a nonempty subset of [{n}]")
    elems = subset_elements(mask)
    if len(elems) == 1:
        return (n,)
    diffs = [b - a for a, b in zip(elems, elems[1:])]
    diffs.append(elems[0] + n - elems[-1])
    return tuple(diffs)


def affine_ribbon_fiber(mu, mask: int, schur_mults: Dict[tuple, int]) -> int:
    """Size of {pi in the class : cDes(pi) = J} predicted from the Schur
    expansion, via inclusion-exclusion of cyclic ribbon characters:
    sum over nonempty I inside J of (-1)^(|J|-|I|) times the Kostka
    pairing of the expansion with the cyclic composition of I.

    J must be a proper nonempty subset of [n], and mu a class type; a class
    over the walk limit (ribbon_walk) is refused with ValueError up front.
    """
    n = sum(check_class_type(mu))
    check_walk(ribbon_walk(n), f"the (mask, shape) pairs of a class of S_{n}")
    if not 0 < mask < full_mask(n):
        raise ValueError("J must be a proper nonempty subset of [n]")
    jbits = bin(mask).count("1")
    # Kostka numbers do not depend on the order of the content, so subsets
    # whose cyclic compositions are rearrangements share one pairing
    pairings: Dict[Tuple[int, ...], int] = {}
    total = 0
    sub = mask
    while sub:
        content = tuple(sorted(cyclic_composition(n, sub), reverse=True))
        inner = pairings.get(content)
        if inner is None:
            inner = pairings[content] = sum(
                m * kostka_number(lam, content) for lam, m in schur_mults.items() if m
            )
        sign = -1 if (jbits - bin(sub).count("1")) % 2 else 1
        total += sign * inner
        sub = (sub - 1) & mask
    return total


def _straight_fibers(mu) -> Dict[int, int]:
    """Nonzero Des-fiber counts of the class by mask of [n-1], predicted
    from its Schur expansion: sum over lam of <psi^mu, chi^lam> times
    syt_descent_counts(lam), the standard tableaux of shape lam by Des; a
    class over the walk limit (ribbon_walk) is refused with ValueError."""
    n = sum(mu)
    check_walk(ribbon_walk(n), f"the (mask, shape) pairs of a class of S_{n}")
    table: Dict[int, int] = {}
    for lam, m in characters.schur_multiplicities(mu).items():
        if m:
            for mask, count in syt_descent_counts(lam).items():
                table[mask] = table.get(mask, 0) + m * count
    return table


def straight_ribbon_fiber(mu, mask: int) -> int:
    """Size of {pi in the class of mu : Des(pi) = J}, J a subset of [n-1],
    predicted from the Schur expansion: read from the class's whole table
    (_straight_fibers), built on each call and refused over the walk limit."""
    n = sum(check_class_type(mu))
    if mask < 0 or mask >> (n - 1):
        raise ValueError("J must be a subset of [n-1]")
    return _straight_fibers(mu).get(mask, 0)


# An element record as json.dump(..., sort_keys=True, indent=1) lays it out
# inside a top-level list, keys at depth 3 and list items at depth 4, cut
# into tokens: the head up to the first entry of "one_line", one token per
# entry (the first without a separator), _MID from the last entry of
# "one_line" to the first of "p_image", and _END.  Every head starts with
# the ",\n" that separates it from the record before it.
_HEAD = ',\n  {\n   "cdes": %s,\n   "des": %s,\n   "one_line": [\n    '
_SEP = ",\n    "
_MID = '\n   ],\n   "p_image": [\n    '
_END = "\n   ]\n  }"
_FIBER = '  {\n   "count": %d,\n   "subset": %s\n  }'
# Element records joined per write: a block is at most 81 KB on (9, 1), the
# largest class admitted, and a record at most 612 characters at n = 18.
_BLOCK = 256


def _int_list(values, depth: int = 3, indent: int = 1) -> str:
    """An int list as json.dump(..., indent=indent) lays it out as the value
    of a key at depth `depth` (the dump's element lists by default)."""
    if not values:
        return "[]"
    pad = "\n" + " " * (depth * indent)
    item = pad + " " * indent
    return "[" + item + ("," + item).join(map(str, values)) + pad + "]"


def write_extension(sol: CyclicExtensionSolution, fh: TextIO) -> List[dict]:
    """Write the dump of a constructed extension to the text stream fh and
    return its fiber table.

    The bytes written are exactly those of
    json.dump(doc, fh, sort_keys=True, indent=1) with doc = {"elements",
    "fibers", "mu", "n"}: "elements" holds one record {"cdes", "des",
    "one_line", "p_image"} (int lists) per class element in the order of
    sol.elements, which construct_extension makes lexicographic, and
    "fibers" the nonzero fiber sizes {"count", "subset"} in mask order.  So
    the format is byte-stable: the same class always gives the same bytes.
    des is cDes without n, which the "extension" axiom checked against the
    Des mask of every element.

    The records are a token stream.  Built once per call: one head string
    per cDes mask that occurs (its "cdes" and "des" lists), and two tables
    from an entry 1..n to its token, one for the first entry of a list and
    one, with the separator, for the others.  Each block of _BLOCK elements
    is cut into columns by zip(*block), and the images under p likewise;
    map(table.__getitem__, column) turns a column into tokens, and
    zip(heads, *columns, repeat(_MID), *image_columns, repeat(_END))
    interleaves them record by record for one join.  So no Python code runs
    per element or per entry, and only one block of text is alive at a
    time: the dump never sits in memory whole.  Formatting each distinct
    record once per class would not save that: the lines of (9, 1) alone
    held a 153.8 MiB peak.  The entries must be in [n], as in every
    solution construct_extension returns.
    """
    n = sol.n
    top = 1 << (n - 1)
    # the list of each cDes mask and of its Des mask, shared by the heads
    # and the fiber rows: at most 2^n masks against n!/z elements
    masks = set(sol.cdes)
    lists = {j: _int_list(subset_elements(j)) for j in masks | {j & ~top for j in masks}}
    heads = {j: _HEAD % (lists[j], lists[j & ~top]) for j in masks}
    first = list(map(str, range(n + 1)))  # entry v at index v; 0 is unused
    later = [_SEP + token for token in first]
    tables = [first.__getitem__] + [later.__getitem__] * (n - 1)
    elements, cdes, p = sol.elements, sol.cdes, sol.p
    fh.write('{\n "elements": [')
    for start in range(0, len(elements), _BLOCK):
        stop = start + _BLOCK
        columns = map(map, tables, zip(*elements[start:stop]))
        images = map(map, tables, zip(*map(elements.__getitem__, p[start:stop])))
        records = zip(
            map(heads.__getitem__, cdes[start:stop]),
            *columns,
            repeat(_MID),
            *images,
            repeat(_END),
        )
        text = "".join(chain.from_iterable(records))
        fh.write(text[1:] if start == 0 else text)  # no "," before the first
    fh.write("\n ]" if elements else "]")  # no element: "elements": []
    counts = [(j, c) for j, c in enumerate(sol.fibers.table) if c]
    rows = ",\n".join(
        _FIBER % (c, lists.get(j) or _int_list(subset_elements(j))) for j, c in counts
    )
    fh.write(
        ',\n "fibers": [%s],\n "mu": %s,\n "n": %d\n}'
        % ("\n" + rows + "\n " if rows else "", _int_list(sol.mu, 1), sol.n)
    )
    return [{"subset": list(subset_elements(j)), "count": c} for j, c in counts]
