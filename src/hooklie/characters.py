"""Symmetric group characters, exactly.

Irreducible values come from the Murnaghan-Nakayama recursion on a
process-lifetime memo table; no value is read from a file.  Higher Lie
characters come from Thrall's plethysm: the Frobenius image of psi^mu is
the product over part sizes i of h_(k_i)[Lie_i], with k_i the number of
parts i of mu and Lie_i = (1/i) sum over d | i of moebius(d) p_d^(i/d).
It is expanded once per class in a sparse power-sum algebra over Fraction
and kept scaled to integers: a common denominator den and the numerators
c_nu = den [p_nu] ch psi^mu (_frobenius).  No group element is enumerated.

Every quantity is one exact pairing of that expansion with a column of
values in nu, divided by den and checked to be an integer:
  higher_lie_character  psi^mu(nu) = z_nu [p_nu] ch psi^mu;
  schur_multiplicities  <psi^mu, chi^lam> = sum_nu [p_nu] ch psi^mu chi^lam(nu);
  hook_mults_oracle     the same pairing with the hooks (n-k, 1^k), read
                        off one polynomial in t per nu;
  h_pairings            <ch psi^mu, h_lam> = sum_nu [p_nu] ch psi^mu R(nu, lam),
                        which counts the class elements by descent set
                        (Gessel-Reutenauer), on one memo table of R shared
                        by every class.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, Tuple

from .combinat import (
    centralizer_order,
    check_class_type,
    divisors,
    is_partition,
    moebius,
    partition_list,
)

__all__ = [
    "character_value",
    "higher_lie_character",
    "schur_multiplicities",
    "hook_mults_oracle",
    "h_pairings",
    "clear_memo",
]


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


# -- higher Lie characters ---------------------------------------------------

# Symmetric functions of degree n in the power-sum basis: a dict from a
# partition nu to the coefficient of p_nu, nonzero coefficients only.
PowerSum = Dict[Tuple[int, ...], Fraction]


def _ps_mul(f: PowerSum, g: PowerSum) -> PowerSum:
    out: Dict[Tuple[int, ...], Fraction] = {}
    for a, ca in f.items():
        for b, cb in g.items():
            key = tuple(sorted(a + b, reverse=True))
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def _ps_adams(m: int, f: PowerSum) -> PowerSum:
    """The plethysm p_m[f]: every p_d becomes p_(md)."""
    return {tuple(m * d for d in key): c for key, c in f.items()}


def _lie_ps(i: int) -> PowerSum:
    """Lie_i = (1/i) sum over d | i of moebius(d) p_d^(i/d)."""
    return {
        (d,) * (i // d): Fraction(moebius(d), i) for d in divisors(i) if moebius(d)
    }


def _h_plethysm(k: int, f: PowerSum) -> PowerSum:
    """h_k[f] = sum over lam |- k of z_lam^-1 prod_j p_(lam_j)[f]."""
    adams = {m: _ps_adams(m, f) for m in range(1, k + 1)}
    total: Dict[Tuple[int, ...], Fraction] = {}
    for lam in partition_list(k):
        term: PowerSum = {(): Fraction(1, centralizer_order(lam))}
        for part in lam:
            term = _ps_mul(term, adams[part])
        for key, c in term.items():
            total[key] = total.get(key, 0) + c
    return {key: c for key, c in total.items() if c}


# ch psi^mu scaled to integers: the common denominator den of its power-sum
# coefficients and the pairs (nu, den [p_nu] ch psi^mu), nonzero ones only.
Scaled = Tuple[int, Tuple[Tuple[Tuple[int, ...], int], ...]]


@lru_cache(maxsize=None)
def _frobenius(mu: Tuple[int, ...]) -> Scaled:
    """ch psi^mu = prod over part sizes i of h_(k_i)[Lie_i] (Thrall), with
    k_i the number of parts i of mu, as (den, ((nu, c_nu), ...)) with
    c_nu = den [p_nu] ch psi^mu.  The one memo every pairing reads."""
    ch: PowerSum = {(): Fraction(1)}
    for i in sorted(set(mu)):
        ch = _ps_mul(ch, _h_plethysm(mu.count(i), _lie_ps(i)))
    den = math.lcm(*(c.denominator for c in ch.values()))
    return den, tuple((nu, c.numerator * (den // c.denominator)) for nu, c in ch.items())


def _count(acc: int, den: int, what: str, *args) -> int:
    """acc / den, refused with ArithmeticError unless an integer >= 0; the
    message names the quantity as what % args, formatted only then."""
    if acc % den or acc < 0:
        raise ArithmeticError(f"{what % args} is {Fraction(acc, den)}, not a count")
    return acc // den


def higher_lie_character(mu) -> Dict[Tuple[int, ...], int]:
    """The character psi^mu induced from the defining linear character of
    the centralizer of the class mu, as {nu: psi^mu(nu)} over every
    partition nu of n; values are exact integers.

    psi^mu(nu) = z_nu [p_nu] ch psi^mu, read off Thrall's plethysm, so
    nothing is enumerated; a non-integral value raises ArithmeticError.
    """
    mu = check_class_type(mu)
    den, terms = _frobenius(mu)
    values = dict.fromkeys(partition_list(sum(mu)), 0)
    for nu, c in terms:
        v, rem = divmod(c * centralizer_order(nu), den)
        if rem:
            raise ArithmeticError(f"non-integral induced value at {nu}")
        values[nu] = v
    return values


def schur_multiplicities(mu) -> Dict[Tuple[int, ...], int]:
    """Multiplicity of every irreducible chi^lam in the higher Lie
    character of mu: <psi^mu, chi^lam> = sum over nu of [p_nu] ch psi^mu *
    chi^lam(nu), over the nonzero coefficients only.  Each must be an
    integer >= 0; ArithmeticError otherwise."""
    mu = check_class_type(mu)
    den, terms = _frobenius(mu)
    return {
        lam: _count(
            sum(c * _mn(lam, nu) for nu, c in terms),
            den,
            "multiplicity of %s in psi^%s",
            lam,
            mu,
        )
        for lam in partition_list(sum(mu))
    }


def hook_mults_oracle(mu) -> tuple[int, ...]:
    """Hook constituents (m_0, ..., m_(n-1)) of the higher Lie character
    of mu: m_k = <psi^mu, chi^(n-k,1^k)> = sum over nu of
    [p_nu] ch psi^mu * chi^(n-k,1^k)(nu).

    The sum runs over the nonzero coefficients of ch psi^mu only, with the
    hook values from sum_k chi^(n-k,1^k)(nu) t^k = prod_j (1 - (-t)^nu_j)
    / (1 + t).  The cost follows the number of those coefficients: 1,292
    for (40^8), but all p(n) partitions of n for the identity class (1^n).
    """
    mu = check_class_type(mu)
    n = sum(mu)
    den, terms = _frobenius(mu)
    # (1 + t) * sum_k m_k t^k, scaled by den to stay in the integers
    acc = [0] * (n + 1)
    for nu, c in terms:
        poly = [c]
        for part in sorted(set(nu)):
            mult = nu.count(part)
            step = 1 if part % 2 else -1  # 1 - (-t)^part = 1 + step * t^part
            factor = [math.comb(mult, j) * step**j for j in range(mult + 1)]
            prod = [0] * (len(poly) + part * mult)
            for i, v in enumerate(poly):
                if v:
                    for j, b in enumerate(factor):
                        prod[i + part * j] += b * v
            poly = prod
        for i, v in enumerate(poly):
            acc[i] += v
    out = []
    prev = 0
    for k in range(n):
        cur = acc[k] - prev
        out.append(_count(cur, den, "hook multiplicity k=%d of psi^%s", k, mu))
        prev = cur
    if acc[n] != prev:
        raise ArithmeticError(f"hook expansion of psi^{mu} is not divisible by 1+t")
    return tuple(out)


# -- Gessel-Reutenauer pairings ----------------------------------------------

_R_MEMO: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}


def _drop_count(parts: Tuple[int, ...], caps: Tuple[int, ...]) -> int:
    """R(parts, caps): the ways to drop the parts (distinguishable, largest
    first) into labelled blocks of remaining capacities caps (decreasing,
    no zeros) so that every block ends exactly full.  Needs sum(parts) ==
    sum(caps).  R(nu, lam) = <p_nu, h_lam>, the coefficient of m_lam in p_nu.

    Memoized on (remaining parts, sorted remaining capacities), which does
    not depend on the class, so every class of every n shares the table.
    """
    if not parts:
        return 1
    first = parts[0]
    if first > caps[0]:
        return 0
    key = (parts, caps)
    hit = _R_MEMO.get(key)
    if hit is not None:
        return hit
    rest = parts[1:]
    total = 0
    i, ell = 0, len(caps)
    while i < ell and caps[i] >= first:
        cap = caps[i]
        j = i + 1
        while j < ell and caps[j] == cap:
            j += 1
        # the j - i blocks of capacity cap are labelled, so each is one way
        others = caps[:i] + caps[i + 1 :]
        left = cap - first
        if left:
            others = tuple(sorted(others + (left,), reverse=True))
        total += (j - i) * _drop_count(rest, others)
        i = j
    _R_MEMO[key] = total
    return total


def h_pairings(mu) -> Dict[Tuple[int, ...], int]:
    """<ch psi^mu, h_lam> for every lam |- n, as sum over nu of
    [p_nu] ch psi^mu * R(nu, lam).

    By Gessel and Reutenauer (JCTA 64, 1993), this counts the elements of
    the class of mu whose descent set lies inside any S with composition
    alpha(S) a rearrangement of lam.  Each pairing is checked to be an
    integer >= 0; ArithmeticError otherwise.
    """
    mu = check_class_type(mu)
    den, terms = _frobenius(mu)
    return {
        lam: _count(
            sum(c * _drop_count(nu, lam) for nu, c in terms),
            den,
            "<ch psi^%s, h_%s>",
            mu,
            lam,
        )
        for lam in partition_list(sum(mu))
    }


def clear_memo() -> None:
    """Drop all memoized character data (mainly for tests)."""
    _MN_MEMO.clear()
    _R_MEMO.clear()
    _frobenius.cache_clear()
