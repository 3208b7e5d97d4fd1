"""Test-only reference implementations.

higher_lie_by_enumeration enumerates the centralizer of a class
representative, sums the defining linear character over each intersection
with a conjugacy class, and reduces the root-of-unity sums exactly modulo
a cyclotomic polynomial.  It shares no code with the plethysm route in
hooklie.characters.  The cost is the centralizer order, so use it on small
centralizers only.

frobenius_over_fractions expands Thrall's product ch psi^mu = prod over
part sizes i of h_(k_i)[Lie_i] over Fraction, with h_k[f] summed over the
partitions of k with weights 1/z_lam, and scales it by the least common
denominator of its coefficients; it is the reference for the integer
expansion of hooklie.characters._frobenius, which takes z_mu as that
denominator without computing one.

h_pairings_by_necklaces counts, for every lam, the multisets of primitive
necklaces with lengths mu and total content lam, which is <ch psi^mu,
h_lam> (Gessel and Reutenauer, JCTA 64, 1993); it is the reference for
hooklie.characters.h_pairings and reads neither Thrall's plethysm nor any
character value.  It is memoized and returns a read-only mapping, so the
tests that read it on every class with n <= 9 (the pairings, and the Des
fibers and main theorem with no plethysm) count each class's necklaces once.

descent_distribution_by_enumeration walks the conjugacy class and counts
each descent set; it is the reference for the Gessel-Reutenauer route of
hooklie.cdes.descent_distribution, and costs the class size.

composition_shapes_by_mask lists, for every subset S of [n-1], the index
in partition_list(n) of the sorted parts of alpha(S), the composition of n
with partial sums S, read off each mask's elements; it is the reference for
hooklie.cdes._composition_shapes, built from the table of n - 1.
des_fibers_by_list inverts #{Des inside S} into #{Des = S} on a plain
list, one pair of subsets at a time, signed and unbounded; it is the
reference for the chunked big-integer inversion of
hooklie.cdes.descent_distribution.

class_by_filtering lists the class of mu as the permutations of
itertools.permutations with cycle type mu, one filtering of S_n per n,
memoized; cellini_closed_by_enumeration reads the cyclic descent sets of
that list and compares their multiset with its rotation.  Neither reads
hooklie.combinat.conjugacy_class or the Cellini descent set of
hooklie.combinat, so they are the reference for hooklie.cdes.cellini_closed
and its fixed-point shortcut; each costs n! on the first call for an n.

solve_extension_by_propagation solves for the cDes fibers by propagating
c_() = 0 through the pairing and rotation constraints with a dict and a
stack, one subset at a time; it is the reference for the descending slice
pass of hooklie.cdes.solve_extension, which starts from c_[n] = 0.

extension_records builds the document of a construct dump as a dict, with
des recomputed from each permutation; json.dumps of it with sort_keys=True
and indent=1 is the reference for the streaming hooklie.cli.write_extension.

schoolbook_mul multiplies coefficient by coefficient; it is the reference
for the Kronecker-substitution product of hooklie.series.IntPolynomial.
power_by_squaring chains schoolbook_mul; the tests build their binomial
rows with it, against the math.comb rows of hooklie.characters and
hooklie.lie.  witt_transform_by_schoolbook assembles the Witt transform
from the two alone; reflected at 1 - x it is the reference for
hooklie.lie.witt_coeffs.

standard_tableaux builds every standard Young tableau of a straight shape
as its rows, one entry at a time, and syt_descent_counts_by_enumeration
counts them by descent set; they are the reference for the sub-shape
tables of hooklie.combinat.syt_descent_counts, built one entry at a time
without building a tableau.

restricted_partitions lists the partitions of i inside an r x s box, padded
with zeros to length s; tests/test_lie.py sums over them to compute the
column-row multiplicities by their definition.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from operator import add
from types import MappingProxyType
from typing import Dict, Iterator, Mapping, Tuple

from hooklie.cdes import DescentDistribution, FiberSolution, Infeasible
from hooklie.combinat import (
    centralizer_order,
    conjugacy_class,
    cycle_type,
    descent_set,
    divisors,
    full_mask,
    moebius,
    partition_list,
    subset_elements,
)
from hooklie.series import IntPolynomial


def _poly_rem_monic(p: list[int], q: tuple[int, ...]) -> list[int]:
    """Remainder of p modulo monic q, exact integer arithmetic."""
    p = list(p)
    dq = len(q) - 1
    for i in range(len(p) - 1, dq - 1, -1):
        c = p[i]
        if c:
            p[i] = 0
            for j in range(dq):
                p[i - dq + j] -= c * q[j]
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_div_exact_monic(p: list[int], q: tuple[int, ...]) -> list[int]:
    dq = len(q) - 1
    p = list(p)
    quot = [0] * (len(p) - dq)
    for i in range(len(p) - 1, dq - 1, -1):
        c = p[i]
        if c:
            quot[i - dq] = c
            for j in range(dq + 1):
                p[i - dq + j] -= c * q[j]
    if any(p):
        raise ArithmeticError("inexact cyclotomic division")
    return quot


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m):
        if d < m:
            num = _poly_div_exact_monic(num, _cyclotomic(d))
    return tuple(num)


def _reduce_root_sum(counts: list[int], order: int) -> int:
    """Value of sum(counts[e] * zeta^e) when rational; raises otherwise."""
    rem = _poly_rem_monic(counts, _cyclotomic(order))
    if len(rem) > 1:
        raise ArithmeticError("root-of-unity sum is not rational")
    return rem[0] if rem else 0


def _centralizer_sums(mu: tuple[int, ...], order: int) -> Dict[tuple, list]:
    """Per cycle type, the exponent histogram of the defining linear
    character over the centralizer of the standard representative of mu.

    The centralizer is the direct product over distinct part sizes i of
    the group permuting the k_i blocks of size i and rotating each block;
    an element rotating block j by c_j contributes the exponent
    (order/i) * sum_j c_j to the primitive root of unity.
    """
    n = sum(mu)
    groups = []  # (size, block count, offset)
    off = 0
    for size in sorted(set(mu), reverse=True):
        k = mu.count(size)
        groups.append((size, k, off))
        off += size * k
    image = [0] * n  # one-line notation, values 1..n
    sums: Dict[tuple, list] = {}

    def rec(gi: int, exp: int):
        if gi == len(groups):
            hist = sums.setdefault(cycle_type(image), [0] * order)
            hist[exp % order] += 1
            return
        size, k, base = groups[gi]
        step = order // size
        for tau in permutations(range(k)):
            for shifts in product(range(size), repeat=k):
                for j in range(k):
                    target = base + tau[j] * size
                    b = base + j * size
                    for t in range(size):
                        image[b + t] = target + (t + shifts[j]) % size + 1
                rec(gi + 1, exp + step * sum(shifts))

    rec(0, 0)
    return sums


def higher_lie_by_enumeration(mu) -> Dict[tuple, int]:
    """Values of the higher Lie character of mu on every class of S_n,
    by walking all centralizer_order(mu) elements of the centralizer."""
    mu = tuple(mu)
    z = centralizer_order(mu)
    order = math.lcm(*set(mu))
    sums = _centralizer_sums(mu, order)
    values = {}
    for ctype in partition_list(sum(mu)):
        hist = sums.get(ctype)
        if hist is None:
            values[ctype] = 0
            continue
        num = centralizer_order(ctype) * _reduce_root_sum(hist, order)
        if num % z:
            raise ArithmeticError(f"non-integral induced value at {ctype}")
        values[ctype] = num // z
    return values


def _fraction_ps_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for a, ca in f.items():
        for b, cb in g.items():
            key = tuple(sorted(a + b, reverse=True))
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def frobenius_over_fractions(mu) -> Tuple[int, Dict[tuple, int]]:
    """(den, {nu: den [p_nu] ch psi^mu}) over the nonzero coefficients, with
    den the least common denominator, from Thrall's product over Fraction:
    Lie_i = (1/i) sum over d | i of moebius(d) p_d^(i/d), and h_k[f] = sum
    over lam |- k of (1/z_lam) prod_j p_(lam_j)[f]."""
    mu = tuple(mu)
    ch = {(): Fraction(1)}
    for i in sorted(set(mu)):
        lie = {(d,) * (i // d): Fraction(moebius(d), i) for d in divisors(i)}
        h: dict = {}
        for lam in partition_list(mu.count(i)):
            term = {(): Fraction(1, centralizer_order(lam))}
            for part in lam:
                adams = {tuple(part * d for d in key): c for key, c in lie.items()}
                term = _fraction_ps_mul(term, adams)
            for key, c in term.items():
                h[key] = h.get(key, 0) + c
        ch = _fraction_ps_mul(ch, {key: c for key, c in h.items() if c})
    den = math.lcm(*(c.denominator for c in ch.values()))
    return den, {nu: c.numerator * (den // c.denominator) for nu, c in ch.items()}


def _primitive_necklaces(beta: tuple[int, ...]) -> int:
    """Primitive necklaces (aperiodic words up to rotation) of content beta:
    (1/|beta|) sum over d | gcd(beta) of moebius(d) (|beta|/d)! / prod_j
    (beta_j/d)!."""
    size = sum(beta)
    total = 0
    for d in divisors(math.gcd(*beta)):
        words = math.factorial(size // d)
        for b in beta:
            words //= math.factorial(b // d)
        total += moebius(d) * words
    if total % size:
        raise ArithmeticError(f"necklace count not integral at {beta}")
    return total // size


@lru_cache(maxsize=None)
def h_pairings_by_necklaces(mu: Tuple[int, ...]) -> Mapping[tuple, int]:
    """{lam: multisets of primitive necklaces with lengths mu and total
    content lam} over every lam |- n.  For each part size i, with k parts
    of mu, the multisets of k necklaces of length i are counted by content
    vector e <= lam, one content beta of size i at a time: t of its N
    necklaces, with repetition, in C(N + t - 1, t) ways.  The part sizes are
    then combined by adding contents."""
    mu = tuple(mu)
    out = {}
    for lam in partition_list(sum(mu)):

        def fits(e):
            return all(map(int.__le__, e, lam))

        zero = (0,) * len(lam)
        total = {zero: 1}
        for i in sorted(set(mu)):
            k = mu.count(i)
            layers = [{zero: 1}] + [{} for _ in range(k)]  # by necklaces taken
            for beta in product(*(range(min(p, i) + 1) for p in lam)):
                if sum(beta) != i:
                    continue
                count = _primitive_necklaces(beta)
                for j in range(k, 0, -1):
                    for t in range(1, j + 1):
                        ways = math.comb(count + t - 1, t)
                        for e, c in layers[j - t].items():
                            f = tuple(x + t * b for x, b in zip(e, beta))
                            if fits(f):
                                layers[j][f] = layers[j].get(f, 0) + ways * c
            merged: dict = {}
            for e, c in total.items():
                for f, c2 in layers[k].items():
                    g = tuple(map(add, e, f))
                    if fits(g):
                        merged[g] = merged.get(g, 0) + c * c2
            total = merged
        out[lam] = total.get(lam, 0)
    return MappingProxyType(out)


def dense_table(counts: Mapping[int, int], size: int) -> Tuple[int, ...]:
    """The counts by mask as a table over the masks 0 .. size - 1, zeros
    included, as DescentDistribution and FiberSolution hold them."""
    return tuple(counts.get(mask, 0) for mask in range(size))


def descent_distribution_by_enumeration(mu) -> DescentDistribution:
    """Des-fiber sizes of the class of mu by walking every element."""
    mu = tuple(mu)
    n = sum(mu)
    table = [0] * (1 << (n - 1))
    for pi in conjugacy_class(mu):
        table[descent_set(pi)] += 1
    return DescentDistribution(n, tuple(table))


def composition_shapes_by_mask(n: int) -> Tuple[int, ...]:
    """For every subset S of [n-1], by mask, the index in partition_list(n)
    of the parts of alpha(S), sorted: one subset at a time."""
    index = {lam: k for k, lam in enumerate(partition_list(n))}
    shapes = []
    for mask in range(1 << (n - 1)):
        cuts = (0,) + subset_elements(mask) + (n,)
        parts = sorted((b - a for a, b in zip(cuts, cuts[1:])), reverse=True)
        shapes.append(index[tuple(parts)])
    return tuple(shapes)


def des_fibers_by_list(n: int, pairings: Mapping[tuple, int]) -> list:
    """#{Des = S} for every mask S of [n-1], from pairings[lam] = #{Des
    inside S} at the sorted parts lam of alpha(S), by Moebius inversion on
    a list, one pair of subsets at a time; a negative value stays as it is."""
    lams = partition_list(n)
    table = [pairings[lams[k]] for k in composition_shapes_by_mask(n)]
    for b in range(n - 1):
        for mask in range(1 << (n - 1)):
            if mask >> b & 1:
                table[mask] -= table[mask ^ (1 << b)]
    return table


@lru_cache(maxsize=None)
def _classes_by_filtering(n: int) -> Mapping[tuple, Tuple[tuple, ...]]:
    classes: Dict[tuple, list] = {}
    for pi in permutations(range(1, n + 1)):
        classes.setdefault(cycle_type(pi), []).append(pi)
    return MappingProxyType({mu: tuple(pis) for mu, pis in classes.items()})


def class_by_filtering(mu) -> Tuple[Tuple[int, ...], ...]:
    """The class of mu: the permutations of 1..n with cycle type mu, in the
    order of itertools.permutations (lexicographic)."""
    mu = tuple(mu)
    return _classes_by_filtering(sum(mu))[mu]


def cellini_closed_by_enumeration(mu) -> bool:
    """Whether the multiset of cyclic descent sets {i : pi_i > pi_(i+1)},
    indices mod n, over the class of mu is invariant under i -> i+1 mod n."""
    n = sum(mu)
    counts = Counter(
        frozenset(i + 1 for i in range(n) if pi[i] > pi[(i + 1) % n])
        for pi in class_by_filtering(mu)
    )
    rotated = Counter({frozenset(i % n + 1 for i in s): k for s, k in counts.items()})
    return counts == rotated


def solve_extension_by_propagation(dist: DescentDistribution):
    """The cDes-fiber sizes of the distribution as a FiberSolution, or
    Infeasible: c_() = 0 spread over all 2^n subsets of [n] by pairing
    (c_D + c_(D u {n}) = Des fiber of D) and rotation, a conflict reported
    at the subset where it shows, then c_[n] = 0 and c_J >= 0 checked."""
    n = dist.n
    top = 1 << (n - 1)
    full = full_mask(n)
    fiber = dist.table
    c = {0: 0}
    stack = [0]
    while stack:
        j = stack.pop()
        v = c[j]
        rot = ((j << 1) | (j >> (n - 1))) & full
        if j & top:
            partner, pv = j ^ top, fiber[j ^ top] - v
        else:
            partner, pv = j | top, fiber[j] - v
        for k, kv in ((rot, v), (partner, pv)):
            known = c.get(k)
            if known is None:
                c[k] = kv
                stack.append(k)
            elif known != kv:
                return Infeasible("conflicting-counts", subset_elements(k))
    if len(c) != full + 1:
        raise AssertionError("constraint graph failed to reach every subset")
    if c[full] != 0:
        return Infeasible("nonzero-full-set", subset_elements(full))
    for j in range(full + 1):
        if c[j] < 0:
            return Infeasible("negative-count", subset_elements(j))
    return FiberSolution(n, dense_table(c, full + 1))


def extension_records(sol) -> dict:
    """The construct dump of a CyclicExtensionSolution as a dict: one
    record per class element in lexicographic order plus the fiber table."""
    return {
        "mu": list(sol.mu),
        "n": sol.n,
        "fibers": [
            {"subset": list(subset_elements(j)), "count": c}
            for j, c in enumerate(sol.fibers.table)
            if c
        ],
        "elements": [
            {
                "one_line": list(pi),
                "des": list(subset_elements(descent_set(pi))),
                "cdes": list(subset_elements(j)),
                "p_image": list(sol.elements[image]),
            }
            for pi, j, image in sorted(zip(sol.elements, sol.cdes, sol.p))
        ],
    }


def schoolbook_mul(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """p * q by the double loop over coefficient pairs."""
    a, b = p.coeffs, q.coeffs
    if not a or not b:
        return IntPolynomial()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return IntPolynomial(out)


def power_by_squaring(p: IntPolynomial, e: int) -> IntPolynomial:
    """p ** e by repeated squaring with schoolbook_mul."""
    if e < 0:
        raise ValueError("negative power of a polynomial")
    result = IntPolynomial((1,))
    base = p
    while e:
        if e & 1:
            result = schoolbook_mul(result, base)
        e >>= 1
        if e:
            base = schoolbook_mul(base, base)
    return result


def witt_transform_by_schoolbook(p: IntPolynomial, r: int) -> IntPolynomial:
    """(1/r) * sum over d | r of moebius(d) * p(x^d)^(r/d), every product
    taken by schoolbook_mul; raises unless each coefficient divides by r."""
    acc = IntPolynomial()
    for d in divisors(r):
        md = moebius(d)
        if md:
            acc = acc + power_by_squaring(p.substitute_power(d), r // d) * md
    if any(v % r for v in acc.coeffs):
        raise ArithmeticError(f"Witt transform not integral at r={r}")
    return IntPolynomial(v // r for v in acc.coeffs)


def standard_tableaux(shape) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Standard Young tableaux of a straight shape, each as its rows of
    entries, top row first: 1, 2, ..., n are placed in turn at the end of
    every row that can take the next entry."""
    n = sum(shape)
    rows: list[list[int]] = [[] for _ in shape]

    def rec(v: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
        if v > n:
            yield tuple(tuple(r) for r in rows)
            return
        for idx in range(len(shape)):
            filled = len(rows[idx])
            if filled < shape[idx] and (idx == 0 or len(rows[idx - 1]) > filled):
                rows[idx].append(v)
                yield from rec(v + 1)
                rows[idx].pop()

    return rec(1)


def syt_descent_counts_by_enumeration(shape) -> Dict[int, int]:
    """Standard tableaux of the shape per descent-set mask, the descents of
    a tableau being {i : i+1 sits in a strictly lower row than i}."""
    counts: Dict[int, int] = {}
    for rows in standard_tableaux(shape):
        row_of = {v: ri for ri, row in enumerate(rows) for v in row}
        mask = 0
        for v in range(1, sum(shape)):
            if row_of[v + 1] > row_of[v]:
                mask |= 1 << (v - 1)
        counts[mask] = counts.get(mask, 0) + 1
    return counts


def restricted_partitions(i: int, r: int, s: int) -> Iterator[tuple[int, ...]]:
    """Partitions of i into at most s parts, each at most r.

    Yields lazily, in increasing lexicographic order, as weakly decreasing
    tuples of length exactly s (padded with zeros).
    """
    if i < 0 or r < 0 or s < 0:
        raise ValueError("arguments must be non-negative")

    def rec(remaining: int, slots: int, cap: int, acc: list[int]):
        if slots == 0:
            if remaining == 0:
                yield tuple(acc)
            return
        lo = -(-remaining // slots)  # smallest feasible leading part
        for v in range(lo, min(cap, remaining) + 1):
            acc.append(v)
            yield from rec(remaining - v, slots - 1, v, acc)
            acc.pop()

    return rec(i, s, r, [])
