"""Symmetric group characters, exactly.

Irreducible values come from the Murnaghan-Nakayama recursion on a
process-lifetime memo table (plain dict: atomic reads, idempotent
single-key inserts, safe for concurrent readers).  Higher Lie characters
are evaluated from scratch by enumerating the centralizer of a class
representative and summing the defining linear character over each
intersection with a conjugacy class; the root-of-unity sums are reduced
exactly modulo a cyclotomic polynomial, never through floats.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _perms, product as _product
from typing import Dict, Iterator, Tuple

from .combinat import (
    centralizer_order,
    class_size,
    divisors,
    is_partition,
    partition_list,
)

__all__ = [
    "DEFAULT_GUARD",
    "GuardExceeded",
    "CacheError",
    "ClassFunction",
    "character_value",
    "irreducible_character",
    "higher_lie_character",
    "inner_product",
    "schur_multiplicities",
    "hook_mults_oracle",
    "hook_shape",
    "character_table",
    "dump_table",
    "load_table",
    "clear_memo",
]

DEFAULT_GUARD = 10**7

CACHE_FORMAT = "sn-character-table"
CACHE_VERSION = 1


class GuardExceeded(RuntimeError):
    """Centralizer too large for the configured enumeration guard."""


class CacheError(ValueError):
    """Character table cache file is unusable (format, version, checksum)."""


# -- class functions ---------------------------------------------------------


@dataclass
class ClassFunction:
    """Values of a class function of S_n, keyed by cycle type."""

    n: int
    values: Dict[Tuple[int, ...], int]

    def __call__(self, mu) -> int:
        return self.values[tuple(mu)]

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if self.n != other.n:
            raise ValueError("class functions of different degrees")
        keys = set(self.values) | set(other.values)
        return ClassFunction(
            self.n,
            {k: self.values.get(k, 0) + other.values.get(k, 0) for k in keys},
        )


def inner_product(f: ClassFunction, g: ClassFunction) -> Fraction:
    """Standard S_n inner product (all characters here are rational)."""
    if f.n != g.n:
        raise ValueError("class functions of different degrees")
    acc = Fraction(0)
    for mu in partition_list(f.n):
        acc += class_size(mu) * Fraction(f(mu)) * Fraction(g(mu))
    return acc / math.factorial(f.n)


# -- Murnaghan-Nakayama ------------------------------------------------------

_MN_MEMO: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}


def _strip_removals(lam: tuple, t: int) -> Iterator[tuple]:
    """(shape after removing a border strip of size t, strip height)."""
    ell = len(lam)
    beta = [lam[i] + ell - 1 - i for i in range(ell)]
    bset = set(beta)
    for x in beta:
        y = x - t
        if y < 0 or y in bset:
            continue
        height = sum(1 for z in beta if y < z < x)
        nb = sorted((bset - {x}) | {y}, reverse=True)
        lam2 = tuple(nb[i] - (ell - 1 - i) for i in range(ell))
        while lam2 and lam2[-1] == 0:
            lam2 = lam2[:-1]
        yield lam2, height


def character_value(lam, mu) -> int:
    """chi^lam(mu) for partitions of the same n (Murnaghan-Nakayama)."""
    lam = tuple(lam)
    mu = tuple(mu)
    if not (is_partition(lam) and is_partition(mu)) or sum(lam) != sum(mu):
        raise ValueError(f"need partitions of equal size, got {lam}, {mu}")
    return _mn(lam, mu)


def _mn(lam: tuple, mu: tuple) -> int:
    if not mu:
        return 1
    key = (lam, mu)
    hit = _MN_MEMO.get(key)
    if hit is not None:
        return hit
    total = 0
    rest = mu[1:]
    for lam2, height in _strip_removals(lam, mu[0]):
        term = _mn(lam2, rest)
        total += -term if height % 2 else term
    _MN_MEMO[key] = total
    return total


@lru_cache(maxsize=None)
def irreducible_character(lam) -> ClassFunction:
    lam = tuple(lam)
    n = sum(lam)
    return ClassFunction(n, {mu: character_value(lam, mu) for mu in partition_list(n)})


def hook_shape(n: int, k: int) -> tuple[int, ...]:
    """The hook (n-k, 1^k)."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    return (n - k,) + (1,) * k


# -- cyclotomic reduction ----------------------------------------------------


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


# -- higher Lie characters ---------------------------------------------------


def _cycle_type_0(image: tuple[int, ...]) -> tuple[int, ...]:
    # like combinat.cycle_type but for 0-based image arrays
    n = len(image)
    seen = bytearray(n)
    parts = []
    for a in range(n):
        if seen[a]:
            continue
        ln = 0
        b = a
        while not seen[b]:
            seen[b] = 1
            b = image[b]
            ln += 1
        parts.append(ln)
    parts.sort(reverse=True)
    return tuple(parts)


def _centralizer_sums(mu: tuple[int, ...], order: int):
    """Per cycle type, the exponent histogram of the defining linear
    character over the centralizer of the standard representative of mu.

    The centralizer is the direct product over distinct part sizes i of
    the wreath-like group permuting the k_i blocks of size i and rotating
    each block; an element rotating block j by c_j contributes the
    exponent (order/i) * sum_j c_j to the primitive root of unity.
    """
    n = sum(mu)
    groups = []  # (size, block count, offset)
    off = 0
    idx = 0
    while idx < len(mu):
        j = idx
        while j < len(mu) and mu[j] == mu[idx]:
            j += 1
        k = j - idx
        groups.append((mu[idx], k, off))
        off += mu[idx] * k
        idx = j
    image = [0] * n
    sums: Dict[tuple[int, ...], list[int]] = {}

    def rec(gi: int, exp: int):
        if gi == len(groups):
            ct = _cycle_type_0(tuple(image))
            hist = sums.get(ct)
            if hist is None:
                hist = sums[ct] = [0] * order
            hist[exp % order] += 1
            return
        size, k, base = groups[gi]
        step = order // size
        for tau in _perms(range(k)):
            targets = [base + tj * size for tj in tau]
            for shifts in _product(range(size), repeat=k):
                for j in range(k):
                    t0 = targets[j]
                    c = shifts[j]
                    b = base + j * size
                    for t in range(size):
                        image[b + t] = t0 + (t + c) % size
                rec(gi + 1, exp + step * sum(shifts))

    rec(0, 0)
    return sums


def higher_lie_character(mu, guard: int = DEFAULT_GUARD) -> ClassFunction:
    """The character induced from the defining linear character of the
    centralizer of the class mu; values are exact integers.

    Enumerates all centralizer elements, so the centralizer order must
    not exceed `guard`.
    """
    mu = tuple(mu)
    if not is_partition(mu) or not mu:
        raise ValueError(f"not a partition: {mu!r}")
    z = centralizer_order(mu)
    if z > guard:
        raise GuardExceeded(f"centralizer order {z} exceeds guard {guard}")
    n = sum(mu)
    order = math.lcm(*set(mu))
    sums = _centralizer_sums(mu, order)
    values: Dict[tuple[int, ...], int] = {}
    for ctype in partition_list(n):
        hist = sums.get(ctype)
        if hist is None:
            values[ctype] = 0
            continue
        s = _reduce_root_sum(hist, order)
        num = centralizer_order(ctype) * s
        if num % z:
            raise ArithmeticError(f"non-integral induced value at {ctype}")
        values[ctype] = num // z
    return ClassFunction(n, values)


_HL_CACHE: Dict[tuple[int, ...], ClassFunction] = {}


def _higher_lie_cached(mu: tuple[int, ...], guard: int) -> ClassFunction:
    # the guard holds for cached characters too, so a call's outcome does
    # not depend on what earlier calls computed
    hit = _HL_CACHE.get(mu)
    if hit is None:
        hit = _HL_CACHE[mu] = higher_lie_character(mu, guard)
    elif (z := centralizer_order(mu)) > guard:
        raise GuardExceeded(f"centralizer order {z} exceeds guard {guard}")
    return hit


def schur_multiplicities(mu, guard: int = DEFAULT_GUARD) -> Dict[tuple, int]:
    """Multiplicity of every irreducible chi^lam in the higher Lie
    character of mu; asserts each is a non-negative integer."""
    mu = tuple(mu)
    psi = _higher_lie_cached(mu, guard)
    out = {}
    for lam in partition_list(psi.n):
        m = inner_product(psi, irreducible_character(lam))
        if m.denominator != 1 or m < 0:
            raise ArithmeticError(f"multiplicity of {lam} in psi^{mu} is {m}")
        out[lam] = int(m)
    return out


def hook_mults_oracle(mu, guard: int = DEFAULT_GUARD) -> tuple[int, ...]:
    """Hook constituents (m_0, ..., m_(n-1)) of the higher Lie character
    of mu, via explicit induction and inner products."""
    mu = tuple(mu)
    n = sum(mu)
    psi = _higher_lie_cached(mu, guard)
    out = []
    for k in range(n):
        m = inner_product(psi, irreducible_character(hook_shape(n, k)))
        if m.denominator != 1 or m < 0:
            raise ArithmeticError(f"hook multiplicity k={k} of psi^{mu} is {m}")
        out.append(int(m))
    return tuple(out)


# -- persistent character tables ---------------------------------------------


def character_table(n: int) -> list:
    """All (lam, mu, chi^lam(mu)) triples for partitions of n, sorted."""
    rows = []
    for lam in partition_list(n):
        for mu in partition_list(n):
            rows.append((lam, mu, character_value(lam, mu)))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def _records_checksum(records: list) -> str:
    canonical = json.dumps(records, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def dump_table(n: int, path) -> None:
    """Write the full S_n character table with a versioned, checksummed
    header.  Loading it back must reproduce the memo exactly."""
    records = [
        [list(lam), list(mu), str(v)] for lam, mu, v in character_table(n)
    ]
    doc = {
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "n": n,
        "sha256": _records_checksum(records),
        "records": records,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_table(path) -> int:
    """Validate a dumped table and seed the memo from it; returns n.

    A corrupt file (format, version, checksum, malformed records) raises
    CacheError and leaves both the memo and the file untouched.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CacheError(f"unreadable cache file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CACHE_FORMAT:
        raise CacheError(f"{path}: not a {CACHE_FORMAT} file")
    if doc.get("version") != CACHE_VERSION:
        raise CacheError(
            f"{path}: version {doc.get('version')!r}, expected {CACHE_VERSION}"
        )
    records = doc.get("records")
    n = doc.get("n")
    if not isinstance(records, list) or not isinstance(n, int):
        raise CacheError(f"{path}: malformed body")
    if _records_checksum(records) != doc.get("sha256"):
        raise CacheError(f"{path}: checksum mismatch")
    parsed = []
    for row in records:
        try:
            lam, mu, v = row
            lam = tuple(lam)
            mu = tuple(mu)
            value = int(v)
        except (TypeError, ValueError) as exc:
            raise CacheError(f"{path}: bad record {row!r}") from exc
        if not (is_partition(lam) and is_partition(mu)):
            raise CacheError(f"{path}: bad record {row!r}")
        if sum(lam) != n or sum(mu) != n:
            raise CacheError(f"{path}: record {row!r} is not about S_{n}")
        parsed.append((lam, mu, value))
    for lam, mu, value in parsed:
        known = _MN_MEMO.get((lam, mu))
        if known is not None and known != value:
            raise CacheError(f"{path}: conflicts with computed value at {(lam, mu)}")
    for lam, mu, value in parsed:
        _MN_MEMO[(lam, mu)] = value
    return n


def clear_memo() -> None:
    """Drop all memoized character data (mainly for tests)."""
    _MN_MEMO.clear()
    _HL_CACHE.clear()
    irreducible_character.cache_clear()
