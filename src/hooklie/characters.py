"""Symmetric group characters, exactly.

Irreducible values come from the Murnaghan-Nakayama recursion on a
process-lifetime memo table; no value is read from a file.  Higher Lie
characters come from Thrall's plethysm: the Frobenius image of psi^mu is
the product over part sizes i of h_(k_i)[Lie_i], with k_i the number of
parts i of mu and Lie_i = (1/i) sum over d | i of moebius(d) p_d^(i/d).
It is expanded once per class in a sparse power-sum algebra over the
integers, held as tuples of (nu, coefficient) pairs, so no memoized value
can be changed by a caller.  Each factor is scaled by k_i! i^(k_i): i Lie_i
has integer coefficients, and k! i^k h_k[Lie_i] = sum over lam |- k of
(k!/z_lam) i^(k - l(lam)) prod_j p_(lam_j)[i Lie_i].  It is built once per
(k_i, i) and shared by every class with k_i parts of size i.  The product
of the scaled factors is z_mu ch psi^mu, so _frobenius keeps den = z_mu and
the integer numerators c_nu = den [p_nu] ch psi^mu.  z_mu is the least common
denominator: psi^mu is induced from a linear character of the centralizer,
whose order is z_mu, and [p_(1^n)] ch psi^mu = 1/z_mu.  No group element
is enumerated and no fraction is formed.

Both readers of that expansion are one exact pairing of it with a column
of values in nu, in one loop (_pairings), divided by den and checked to be
an integer >= 0:
  schur_multiplicities  <psi^mu, chi^lam> = sum_nu [p_nu] ch psi^mu chi^lam(nu);
  h_pairings            <ch psi^mu, h_lam> = sum_nu [p_nu] ch psi^mu R(nu, lam),
                        the class elements counted by descent set
                        (Gessel-Reutenauer), with R(nu, lam) the
                        coefficient of m_lam in p_nu.  The rows R(nu, .)
                        are built once per n, shared by every class, by
                        recurrence on n: p_nu = p_nu' p_k, with k the last
                        part of nu, and m_lam' p_k adds k to one part of
                        lam', so each row is one row of size n - k pushed
                        through one list of products per (n, k).
The hooks (hook_mults_oracle) read no power-sum coefficient.  The ring map
phi: p_d -> 1 - (-t)^d sends s_lam to t^k (1 + t) on the hook (n-k, 1^k)
and to 0 off the hooks, so phi(ch psi^mu) = (1 + t) sum_k m_k t^k, one
product of polynomials in t over the part sizes of mu (_hook_factor).
It decides nothing: lie.extension_certificate takes the same hooks of every
class from the closed rectangle formulas, (1 + t)^(c-1) prod_i N_(i,k_i)(t)
over the c distinct part sizes, and compares them with this oracle.  Divided
by 1 + t, that product has non-negative coefficients whenever c >= 2, so
only a rectangle can lack a cyclic descent extension; acceptance criterion
14 checks the dichotomy and both routes on every class with n <= 20.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import repeat
from operator import add, mul
from types import MappingProxyType
from typing import Dict, Iterator, Mapping, Tuple

from .combinat import (
    _centralizer_order,
    check_class_type,
    divisors,
    is_partition,
    moebius,
    partition_list,
)
from .series import IntPolynomial

__all__ = [
    "character_value",
    "schur_multiplicities",
    "hook_mults_oracle",
    "h_pairings",
]


# -- Murnaghan-Nakayama ------------------------------------------------------


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


@lru_cache(maxsize=None)
def _mn(lam: tuple, mu: tuple) -> int:
    if not mu:
        return 1
    total = 0
    rest = mu[1:]
    for lam2, height in _strip_removals(lam, mu[0]):
        term = _mn(lam2, rest)
        total += -term if height % 2 else term
    return total


# -- higher Lie characters ---------------------------------------------------

# Symmetric functions of degree n in the power-sum basis: a tuple of the
# pairs (nu, integer coefficient of p_nu), nonzero coefficients only, so a
# memoized value cannot be changed by a caller.
PowerSum = Tuple[Tuple[Tuple[int, ...], int], ...]


def _ps_mul(f: PowerSum, g: PowerSum) -> PowerSum:
    out: Dict[Tuple[int, ...], int] = {}
    for a, ca in f:
        for b, cb in g:
            key = tuple(sorted(a + b, reverse=True))
            out[key] = out.get(key, 0) + ca * cb
    return tuple((key, c) for key, c in out.items() if c)


def _ps_adams(m: int, f: PowerSum) -> PowerSum:
    """The plethysm p_m[f]: every p_d becomes p_(md)."""
    return tuple((tuple(m * d for d in key), c) for key, c in f)


def _lie_ps(i: int) -> PowerSum:
    """i Lie_i = sum over d | i of moebius(d) p_d^(i/d)."""
    return tuple(((d,) * (i // d), moebius(d)) for d in divisors(i) if moebius(d))


@lru_cache(maxsize=None)
def _h_plethysm(k: int, i: int) -> PowerSum:
    """k! i^k h_k[Lie_i] = sum over lam |- k of (k!/z_lam) i^(k - l(lam))
    prod_j p_(lam_j)[i Lie_i], since p_m[Lie_i] = p_m[i Lie_i] / i; k!/z_lam
    is the size of the class lam, an integer.  Memoized once per (k, i):
    every class with k parts of size i shares the factor."""
    lie = _lie_ps(i)
    adams = {m: _ps_adams(m, lie) for m in range(1, k + 1)}
    k_factorial = math.factorial(k)
    total: Dict[Tuple[int, ...], int] = {}
    for lam in partition_list(k):
        scale = k_factorial // _centralizer_order(lam) * i ** (k - len(lam))
        term: PowerSum = (((), scale),)
        for part in lam:
            term = _ps_mul(term, adams[part])
        for key, c in term:
            total[key] = total.get(key, 0) + c
    return tuple((key, c) for key, c in total.items() if c)


@lru_cache(maxsize=None)
def _frobenius(mu: Tuple[int, ...]) -> Tuple[int, PowerSum]:
    """ch psi^mu = prod over part sizes i of h_(k_i)[Lie_i] (Thrall), with
    k_i the number of parts i of mu, scaled to integers: (z_mu, ((nu, c_nu),
    ...)) with c_nu = z_mu [p_nu] ch psi^mu, nonzero ones only.  Since
    z_mu = prod over i of k_i! i^(k_i), the product of the shared factors
    _h_plethysm(k_i, i) is z_mu ch psi^mu; z_mu is its least common
    denominator, as [p_(1^n)] ch psi^mu = 1/z_mu.  The one memo every
    pairing reads."""
    factors = [_h_plethysm(mu.count(i), i) for i in sorted(set(mu))]
    return _centralizer_order(mu), reduce(_ps_mul, factors)


def _count(acc: int, den: int, what: str, mu: tuple, lam: tuple) -> int:
    """acc / den, refused with ArithmeticError unless an integer >= 0; the
    message names the quantity as what formatted with mu and lam and its
    value as a reduced fraction, formatted only then."""
    if acc % den or acc < 0:
        g = math.gcd(acc, den)
        value = f"{acc // g}" if g == den else f"{acc // g}/{den // g}"
        raise ArithmeticError(f"{what.format(mu=mu, lam=lam)} is {value}, not a count")
    return acc // den


def _pairings(mu: tuple, column, what: str) -> Dict[Tuple[int, ...], int]:
    """{lam: sum over nu of [p_nu] ch psi^mu * column(nu)[lam]} over every
    lam |- n, for a checked mu: one column per nonzero coefficient, each
    pairing an integer >= 0 by _count; what names it, formatted with mu, lam."""
    lams = partition_list(sum(mu))
    den, terms = _frobenius(mu)
    acc = [0] * len(lams)
    for nu, c in terms:
        acc = list(map(add, acc, map(mul, column(nu, lams), repeat(c))))
    return {lam: _count(a, den, what, mu, lam) for lam, a in zip(lams, acc)}


def schur_multiplicities(mu) -> Dict[Tuple[int, ...], int]:
    """Multiplicity of every irreducible chi^lam in the higher Lie
    character of mu: <psi^mu, chi^lam> = sum over nu of [p_nu] ch psi^mu *
    chi^lam(nu), over the nonzero coefficients only.  Each must be an
    integer >= 0; ArithmeticError otherwise."""
    return _pairings(
        check_class_type(mu),
        lambda nu, lams: [_mn(lam, nu) for lam in lams],
        "multiplicity of {lam} in psi^{mu}",
    )


def _divide(f: IntPolynomial, q: IntPolynomial, what: str) -> IntPolynomial:
    h = f.divide_exact(q)
    if h is None:
        raise ArithmeticError(f"{what} is not divisible by {q.pretty('t')}")
    return h


@lru_cache(maxsize=None)
def _adams_factor(i: int, m: int) -> IntPolynomial:
    """phi(p_m[Lie_i]), once per (i, m).  At m = 1 it is phi(Lie_i) = (1/i)
    sum over d | i of moebius(d) (1 - (-t)^d)^(i/d), the division checked
    exact; p_m[.] sends each p_d to p_(md), which under phi is t -> -(-t)^m,
    so every other m twists the signs of phi(Lie_i) and substitutes t^m."""
    if m > 1:
        lie = _adams_factor(i, 1)
        return (lie if m % 2 else lie.reflect()).substitute_power(m)
    total = IntPolynomial()
    for d in filter(moebius, divisors(i)):
        e = i // d
        row = IntPolynomial(math.comb(e, k) for k in range(e + 1))  # (1 + t)^e
        # (1 - (-t)^d)^e is (1 + t^d)^e at odd d and (1 - t^d)^e at even d
        step = row if d % 2 else row.reflect()
        total = total + step.substitute_power(d) * moebius(d)
    return _divide(total, IntPolynomial((i,)), f"phi(p_1[Lie_{i}])")


@lru_cache(maxsize=None)
def _hook_factor(i: int, k: int) -> IntPolynomial:
    """phi(h_k[Lie_i]) by Newton's identity k h_k[g] = sum over m = 1..k of
    p_m[g] h_(k-m)[g], with phi(p_m[Lie_i]) from _adams_factor; the
    division by k is checked exact."""
    if k == 0:
        return IntPolynomial((1,))
    total = IntPolynomial()
    for m in range(k, 0, -1):  # h_(k-m) ascends: each is memoized, no deep recursion
        total = total + _adams_factor(i, m) * _hook_factor(i, k - m)
    return _divide(total, IntPolynomial((k,)), f"phi(h_{k}[Lie_{i}])")


def hook_mults_oracle(mu) -> tuple[int, ...]:
    """Hook constituents (m_0, ..., m_(n-1)), m_k = <psi^mu, chi^(n-k,1^k)>,
    of the higher Lie character of mu, from (1 + t) sum_k m_k t^k = prod over
    part sizes i of phi(h_(k_i)[Lie_i]) (Thrall).  An inexact division or an
    m_k < 0 raises ArithmeticError."""
    mu = check_class_type(mu)
    factors = (_hook_factor(i, mu.count(i)) for i in set(mu))
    image = math.prod(factors, start=IntPolynomial((1,)))
    m = _divide(image, IntPolynomial((1, 1)), f"phi(ch psi^{mu})").coeffs
    if any(v < 0 for v in m):
        raise ArithmeticError(f"hook multiplicities of psi^{mu} are {m}, not counts")
    return m + (0,) * (sum(mu) - len(m))


# -- Gessel-Reutenauer pairings ----------------------------------------------


@lru_cache(maxsize=None)
def _power_products(n: int, k: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """m_lam' p_k = sum of mult m_lam, for every lam' |- n - k in
    partition_list order: the pairs (index of lam in partition_list(n),
    mult).  lam adds k to one part value v of lam' (v = 0: a new part k),
    and mult is the number of parts of lam equal to v + k."""
    index = {lam: j for j, lam in enumerate(partition_list(n))}
    products = []
    for head in partition_list(n - k):
        terms = []
        for v in {0, *head}:
            parts = list(head)
            if v:
                parts.remove(v)
            parts.append(v + k)
            parts.sort(reverse=True)
            terms.append((index[tuple(parts)], parts.count(v + k)))
        products.append(tuple(terms))
    return tuple(products)


@lru_cache(maxsize=None)
def _r_rows(n: int) -> Mapping[Tuple[int, ...], Tuple[int, ...]]:
    """For every nu |- n, the row of R(nu, lam) = <p_nu, h_lam>, the
    coefficient of m_lam in p_nu, over lam in partition_list(n), read-only.
    By recurrence on n from p_() = m_(): p_nu = p_nu' p_k, with k the last
    part of nu and nu' the rest, so the row of nu is the row of nu' pushed
    through _power_products(n, k)."""
    if n == 0:
        return MappingProxyType({(): (1,)})
    lams = partition_list(n)
    rows = {}
    for nu in lams:
        k = nu[-1]
        row = [0] * len(lams)
        for r, terms in zip(_r_rows(n - k)[nu[:-1]], _power_products(n, k)):
            if r:
                for j, mult in terms:
                    row[j] += r * mult
        rows[nu] = tuple(row)
    return MappingProxyType(rows)


def h_pairings(mu) -> Dict[Tuple[int, ...], int]:
    """<ch psi^mu, h_lam> for every lam |- n, as sum over nu of
    [p_nu] ch psi^mu * R(nu, lam), one row of R per nu.

    By Gessel and Reutenauer (JCTA 64, 1993), this counts the elements of
    the class of mu whose descent set lies inside any S with composition
    alpha(S) a rearrangement of lam.  Each pairing is checked to be an
    integer >= 0; ArithmeticError otherwise.
    """
    return _h_pairings(check_class_type(mu))


def _h_pairings(mu: tuple) -> Dict[Tuple[int, ...], int]:
    """h_pairings of a checked class type mu."""
    return _pairings(mu, lambda nu, lams: _r_rows(sum(nu))[nu], "<ch psi^{mu}, h_{lam}>")
