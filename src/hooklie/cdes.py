"""Cyclic descent extensions on conjugacy classes.

The Des fibers of a class come from Gessel and Reutenauer's identity
#{pi in the class of mu : Des(pi) inside S} = <ch psi^mu, h_alpha(S)>,
with alpha(S) the composition of n with partial sums S: one pairing per
partition of n (characters.h_pairings), then Moebius inversion over the
subsets of [n-1] on the table packed into one integer.  No class element
is walked, so the cost follows 2^(n-1) and not the class size.
Enumerating the class is the test oracle (tests/brute_force.py); only
construct_extension and cellini_closed, which need the elements
themselves, still walk the class, and cellini_closed only when the class
has exactly one fixed point: for n >= 2 no other class is rotation
closed, by a count its docstring proves.

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
from itertools import compress, repeat
from operator import and_, eq, lt, ne, sub
from types import MappingProxyType
from typing import Dict, List, NamedTuple, Optional, TextIO, Tuple, Union

from . import characters
from .combinat import (
    cellini_descent_set,
    check_class_type,
    check_walk,
    class_size,
    class_walk,
    conjugacy_class,
    descent_set,
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
    sums are the elements of S."""
    index = {lam: k for k, lam in enumerate(partition_list(n))}
    shapes = []
    for mask in range(1 << (n - 1)):
        cuts = (0,) + subset_elements(mask) + (n,)
        parts = sorted((b - a for a, b in zip(cuts, cuts[1:])), reverse=True)
        shapes.append(index[tuple(parts)])
    return tuple(shapes)


def descent_distribution(mu) -> DescentDistribution:
    """Des-fiber sizes over the full conjugacy class of mu, by
    Gessel-Reutenauer: #{pi : Des(pi) inside S} is the pairing of
    characters.h_pairings at the sorted parts of alpha(S), and Moebius
    inversion over the subsets of [n-1], one element at a time, gives
    #{pi : Des(pi) = S} in O(n 2^(n-1)).

    The inversion runs on the table packed as the 64-bit digits of one
    integer, entry S at digit S: the step for bit b subtracts, in one
    big-integer operation, every digit whose mask lacks bit b from the
    digit 2^b above it.  Each intermediate value counts the elements whose
    descents meet the processed elements in a given set and lie inside S
    elsewhere, so it is >= 0 and at most the class size, and no digit
    borrows.  Every pairing is checked to be at most the class size first.

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
    # #{Des inside S} at digit S; n * size < 2^63 for n <= 18, so even the
    # lowest negative value of a doctored table reads back exactly
    packed = int.from_bytes(
        struct.pack(digits, *map(values.__getitem__, _composition_shapes(n))), "little"
    )
    for b in range(n - 1):
        width = 64 << b  # bits in 2^b digits
        lacks_b = (1 << width) - 1  # the digits 0 .. 2^b - 1, then repeated
        span = 2 * width
        while span < 64 * top:
            lacks_b |= lacks_b << span
            span *= 2
        packed -= (packed & lacks_b) << width
    # a borrow runs upward only: the digits below the lowest negative fiber
    # are exact, and so is that fiber, read back signed
    packed &= (1 << (64 * top)) - 1
    table = struct.unpack(digits, packed.to_bytes(8 * top, "little"))
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
    des = list(map(descent_set, elements))
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
    """Exhaustive verification of a constructed extension.  A malformed
    solution (arrays of the wrong length, p not a permutation of the
    indices, masks outside [n]) gets False, never an exception."""
    n, elements, cdes, p = sol.n, sol.elements, sol.cdes, sol.p
    full = full_mask(n)
    whole = len(cdes) == len(elements)  # one cDes per class element
    restricted = map(and_, cdes, repeat(~(1 << (n - 1))))  # cDes without n
    rotated = {j: rotate_subset(j, n) for j in set(cdes) if 0 <= j <= full}
    nonzero = {j: c for j, c in enumerate(sol.fibers.table) if c}
    return {
        "extension": whole and all(map(eq, restricted, map(descent_set, elements))),
        "equivariance": whole
        and sorted(p) == list(range(len(cdes)))  # p is a bijection
        and list(map(cdes.__getitem__, p)) == list(map(rotated.get, cdes)),
        "non-escher": all(0 < j < full for j in cdes),
        "fiber-counts": dict(Counter(cdes)) == nonzero,
    }


def cellini_closed(mu) -> bool:
    """Whether the multiset of Cellini cyclic descent sets of the class
    is invariant under rotation.  A class with more than WALK_LIMIT
    elements is refused with ValueError up front.

    For n >= 2 only a class with exactly one fixed point is walked; no
    other class is closed.  With N the class size and f its number of
    fixed points,

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
    check_walk(class_walk(mu), f"the elements of a class of S_{n}")
    if n >= 2 and mu.count(1) != 1:
        return False
    counts = Counter(cellini_descent_set(pi) for pi in conjugacy_class(mu))
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


# One element record and one fiber record as json.dump(..., sort_keys=True,
# indent=1) lays them out inside a top-level list: keys at depth 3, list
# items at depth 4.
_RECORD = (
    '  {\n   "cdes": %s,\n   "des": %s,\n   "one_line": %s,\n   "p_image": %s\n  }'
)
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
    The arrays are zipped in order and each record is filled into a
    template; the records are joined and written in blocks of _BLOCK, so
    the dump never sits in memory whole.
    des is cDes without n, which the "extension" axiom checked against
    descent_set for every element.
    """
    top = 1 << (sol.n - 1)
    # at most 2^n masks against n!/z elements
    subsets = {
        j: (_int_list(subset_elements(j)), _int_list(subset_elements(j & ~top)))
        for j in set(sol.cdes)
    }
    # the one-line lists of a class all have n entries: one %-format each
    perm = _int_list(["%d"] * sol.n)
    record = _RECORD % ("%s", "%s", perm, perm)
    elements, cdes, p = sol.elements, sol.cdes, sol.p
    fh.write('{\n "elements": [')
    sep = "\n"
    for start in range(0, len(elements), _BLOCK):
        stop = start + _BLOCK
        block = zip(elements[start:stop], cdes[start:stop], p[start:stop])
        records = [record % (subsets[j] + pi + elements[image]) for pi, j, image in block]
        fh.write(sep + ",\n".join(records))
        sep = ",\n"
    fh.write("]" if sep == "\n" else "\n ]")  # no element: "elements": []
    counts = [(j, c) for j, c in enumerate(sol.fibers.table) if c]
    rows = ",\n".join(_FIBER % (c, _int_list(subset_elements(j))) for j, c in counts)
    fh.write(
        ',\n "fibers": [%s],\n "mu": %s,\n "n": %d\n}'
        % ("\n" + rows + "\n " if rows else "", _int_list(sol.mu, 1), sol.n)
    )
    return [{"subset": list(subset_elements(j)), "count": c} for j, c in counts]
