"""Closed formulas for hook constituents of higher Lie characters.

Everything is driven by the Witt coefficients f_0..f_r of a part size r:
the column-plus-row multiplicities e_i come from one exact product over
part sizes with parity-twisted binomial coefficients, the hook
multiplicities m_k are their partial alternating sums, and the
certificate d_k decides whether the class carries a cyclic descent
extension.  Each division by 1 + t is one routine (_alternating_sums),
q_k = a_k - q_(k-1) with the remainder last: m from e, d from m, and twice
for each test of (1+x)^2 on a column-row row or the Witt polynomial.
The column-plus-row numbers of each r live in one table of rows
y^0..y^s, built once per r and shared by every consumer (the
multiplicities, the series and the square-divisibility checks); it is
rebuilt only when a caller asks for a larger s than it holds.  The Witt
coefficients are checked at every r by the divisor-sum identity that
inverts their Moebius sum.  By Thrall, the hook polynomial of any class
is a product of rectangle formulas (extension_certificate), checked on
every class against characters.hook_mults_oracle, which reads it off the
specialization p_d -> 1 - (-t)^d of Thrall's plethysm and shares only
divisors, moebius (with the factorization behind both) and IntPolynomial
with the closed formula.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Dict, NamedTuple, Optional, Tuple, Union

from . import characters
from .combinat import check_class_type, check_walk, divisors, is_squarefree, moebius
from .series import BiSeries, IntPolynomial

__all__ = [
    "NoExtension",
    "SquarefreeReport",
    "SquareQuotient",
    "witt_coeffs",
    "column_row_mults",
    "hook_mults",
    "hook_poly",
    "column_row_series",
    "extension_certificate",
    "squarefree_criterion",
    "quotient_series",
    "subset_sum_count",
]


class NoExtension:
    """Why a class admits no cyclic descent extension.

    reason is "alternating-sum-nonzero" (the full alternating sum of the
    hook multiplicities is not zero) or "negative-partial-sum" (some
    partial alternating sum d_k is negative, with k in `index`).

    Immutable, and deliberately not a tuple: extension_certificate returns
    either a tuple (the certificate) or a NoExtension, and callers tell
    them apart with isinstance(cert, tuple).
    """

    __slots__ = ("reason", "index")

    def __init__(self, reason: str, index: Optional[int] = None):
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "index", index)

    def __setattr__(self, name, value):
        raise AttributeError("NoExtension is immutable")

    def __delattr__(self, name):
        raise AttributeError("NoExtension is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.reason, self.index) == (other.reason, other.index)

    def __hash__(self) -> int:
        return hash((self.reason, self.index))

    def __repr__(self) -> str:
        return f"NoExtension(reason={self.reason!r}, index={self.index!r})"


@lru_cache(maxsize=None)
def witt_coeffs(r: int) -> Tuple[int, ...]:
    """Coefficients f_0..f_r with f_j = (1/r) * sum over d | gcd(r, j)
    of moebius(d) * (-1)^(j + j/d) * binom(r/d, j/d).

    The sum runs divisor first: each square-free d | r adds
    moebius(d) * (-1)^(qd + q) * binom(r/d, q) to entry qd for q = 0..r/d,
    so moebius is evaluated once per divisor and the binomials are one
    row, each from the last by an exact division.  Equivalently the
    coefficients of the Witt transform of 1-x taken at -x.

    Checked at every r, any mismatch aborting, by the Moebius inversion
    run backwards: sum over d | r of (r/d) * g_(r/d)(x^d) = (1 - x)^r with
    g_m(x) = f^(m)(-x), f^(m) of each proper divisor m read from this
    memo.  By strong induction on r (g_1 = 1 - x) the d = 1 term is the
    only unknown, so a passing check proves f.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    total = [0] * (r + 1)
    for d in divisors(r):
        md = moebius(d)
        if md == 0:
            continue
        m = r // d
        binom = md  # moebius(d) * binom(m, q), stepped along the row
        for q in range(m + 1):
            total[q * d] += -binom if (q * d + q) % 2 else binom
            binom = binom * (m - q) // (q + 1)
    f = []
    for j, t in enumerate(total):
        if t % r:
            raise ArithmeticError(f"Witt coefficient f_{j} not integral at r={r}")
        f.append(t // r)
    if f[1] != 1:
        raise ArithmeticError(f"f_1 = {f[1]} != 1 at r={r}")
    if f[0] != (1 if r == 1 else 0):
        raise ArithmeticError(f"f_0 = {f[0]} wrong at r={r}")
    # the check at x^i, times (-1)^i: r * f_i = binom(r, i) minus
    # (r/d) * (-1)^(i + i/d) * f^(r/d)_(i/d) for each d > 1 dividing i
    rest = []
    binom = 1
    for i in range(r + 1):
        rest.append(binom)
        binom = binom * (r - i) // (i + 1)
    for d in divisors(r)[1:]:
        m = r // d
        flip = d % 2 == 0  # (-1)^(q*d + q) is -1 iff d even and q odd
        for q, c in enumerate(witt_coeffs(m)):
            rest[q * d] -= -m * c if flip and q % 2 else m * c
    if [r * c for c in f] != rest:
        raise ArithmeticError(f"Witt coefficient routes disagree at r={r}")
    return tuple(f)


def _column_row_table(r: int, s_max: int) -> list:
    """Coefficient lists of y^0..y^s_max in the product over part sizes j
    of sum_k B_j(k) x^(jk) y^k, with B_j(k) = binom(f_j, k) for odd j and
    binom(f_j + k - 1, k) for even j (even sizes repeat with multiplicity).

    Entry i of row s is e_i for the class (r^s); rows may be shorter than
    rs + 1 when their top coefficients vanish.
    """
    f = witt_coeffs(r)
    rows = [[1]] + [[] for _ in range(s_max)]
    for j, fj in enumerate(f):
        if fj == 0:
            continue
        bump = 1 - j % 2
        B = [math.comb(fj + (k - 1) * bump, k) for k in range(s_max + 1)]
        # top row first, so rows[s - k] still holds the product without j
        for s in range(s_max, 0, -1):
            acc = rows[s]
            for k in range(1, s + 1):
                src = rows[s - k]
                c = B[k]
                if not (src and c):
                    continue
                shift = j * k
                if len(acc) < shift + len(src):
                    acc.extend([0] * (shift + len(src) - len(acc)))
                for i, v in enumerate(src, shift):
                    acc[i] += c * v
    return rows


# r -> rows y^0..y^s of _column_row_table(r, s) for the largest s asked so far
_COLUMN_ROWS: Dict[int, Tuple[Tuple[int, ...], ...]] = {}


def _column_rows(r: int, s_max: int) -> Tuple[Tuple[int, ...], ...]:
    """Rows y^0..y^s_max of the column-row table of r (possibly more).

    Row s does not depend on the truncation order, so one memo entry per r
    serves every s up to the largest asked; a larger s rebuilds it.
    """
    rows = _COLUMN_ROWS.get(r)
    if rows is None or len(rows) <= s_max:
        rows = _COLUMN_ROWS[r] = tuple(map(tuple, _column_row_table(r, s_max)))
    return rows


def column_row_mults(r: int, s: int) -> Tuple[int, ...]:
    """Multiplicities e_0..e_(rs) of the column-plus-row characters
    chi^((1^k) + (n-k)) in the higher Lie character of the class (r^s).

    Row s of the product over part sizes (see column_row_series), padded
    to length rs + 1.
    """
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
    e = _column_rows(r, s)[s]
    return e + (0,) * (r * s + 1 - len(e))


def _alternating_sums(a) -> Tuple[int, ...]:
    """Partial alternating sums q_k = a_k - q_(k-1): the quotient of
    sum_k a_k t^k by 1 + t, with the remainder, zero iff 1 + t divides,
    as the last entry."""
    return tuple(accumulate(a, lambda q, v: v - q))


def hook_mults(r: int, s: int) -> Tuple[int, ...]:
    """Hook multiplicities m_0..m_(rs-1) of the class (r^s): partial
    alternating sums of the column-plus-row multiplicities.

    A negative partial sum or a nonzero full alternating sum would
    contradict character positivity and raises, the first in order.
    """
    *m, rem = _alternating_sums(column_row_mults(r, s))
    k = next((k for k, v in enumerate(m) if v < 0), None)
    if k is not None:
        raise ArithmeticError(f"negative hook multiplicity m_{k} at (r,s)=({r},{s})")
    if rem != 0:
        raise ArithmeticError(f"alternating sum of e is nonzero at (r,s)=({r},{s})")
    return tuple(m)


def hook_poly(r: int, s: int) -> IntPolynomial:
    """N_(r,s)(x) = sum_k m_k x^k."""
    return IntPolynomial(hook_mults(r, s))


def column_row_series(r: int, s_max: int) -> BiSeries:
    """Generating series: the coefficient of x^i y^s is e_i for (r^s).

    Product over part sizes j of (1 - (-1)^j x^j y) to the power
    (-1)^(j+1) f_j, truncated after y^s_max and exact in x.  The rows come
    from the one column-row table of r that column_row_mults,
    squarefree_criterion and quotient_series also read; it is built once
    per r and rebuilt only for a larger s_max than it holds.
    """
    if r < 1 or s_max < 0:
        raise ValueError("need r >= 1 and s_max >= 0")
    rows = _column_rows(r, s_max)[: s_max + 1]
    return BiSeries(s_max, tuple(map(IntPolynomial, rows)))


def _rectangle(mu: tuple) -> Optional[Tuple[int, int]]:
    if mu and all(p == mu[0] for p in mu):
        return mu[0], len(mu)
    return None


def _certificate_from_mults(m: Tuple[int, ...]) -> Union[Tuple[int, ...], NoExtension]:
    *d, rem = _alternating_sums(m)
    k = next((k for k, v in enumerate(d) if v < 0), None)
    if k is not None:
        return NoExtension("negative-partial-sum", k)
    if rem != 0:
        return NoExtension("alternating-sum-nonzero", len(m) - 1)
    return tuple(d)


def extension_certificate(mu) -> Union[Tuple[int, ...], NoExtension]:
    """Certificate (d_0, ..., d_(n-2)) for a cyclic descent extension on
    the class mu, or NoExtension naming the first violated condition.

    d_k is the k-th partial alternating sum of the hook multiplicities;
    an extension exists iff every d_k is non-negative and the full
    alternating sum d_(n-1) vanishes.  Every class takes m from (1 + t)^(c-1)
    prod_i N_(i,k_i)(t) over its c distinct part sizes i, each k_i times,
    compared with the character oracle.  For c >= 2, sum_k d_k t^k =
    (1 + t)^(c-2) prod_i N_(i,k_i)(t) has non-negative coefficients, so an
    extension exists; for c = 1 it is N_(r,s)/(1 + t), which the square-free
    dichotomy decides.  Acceptance criterion 14 checks every n <= 20.
    """
    mu = check_class_type(mu)
    sizes = set(mu)
    lift = IntPolynomial(math.comb(len(sizes) - 1, k) for k in range(len(sizes)))
    m = math.prod((hook_poly(i, mu.count(i)) for i in sizes), start=lift).coeffs
    m += (0,) * (sum(mu) - len(m))
    oracle = characters.hook_mults_oracle(mu)
    if oracle != m:
        raise ArithmeticError(f"hook multiplicity routes disagree on {mu}: {m} vs {oracle}")
    return _certificate_from_mults(m)


def _square_quotient(a) -> Optional[IntPolynomial]:
    """The quotient of sum_k a_k x^k by (1+x)^2, or None when it does not
    divide: two divisions by 1 + x, whose last two entries are both zero
    iff both remainders are."""
    q = _alternating_sums(_alternating_sums(a))
    return None if any(q[-2:]) else IntPolynomial(q[:-2])


class SquarefreeReport(NamedTuple):
    """Divisibility of each y-coefficient of the generating series by
    (1+x)^2, plus the first-moment identity of the Witt coefficients."""

    r: int
    s_max: int
    squarefree: bool
    divisible: Tuple[bool, ...]  # index s-1 holds the verdict for y^s
    moment: int

    @property
    def dichotomy_holds(self) -> bool:
        return all(div == (not self.squarefree) for div in self.divisible)


def squarefree_criterion(r: int, s_max: int) -> SquarefreeReport:
    """Check (1+x)^2 | [y^s] of the generating series for s <= s_max and
    the moment identity sum_j (-1)^(j+1) j f_j == moebius(r)."""
    if r < 1 or s_max < 1:
        raise ValueError("need r >= 1 and s_max >= 1")
    f = witt_coeffs(r)
    moment = sum((j * fj if j % 2 else -j * fj) for j, fj in enumerate(f))
    if moment != moebius(r):
        raise ArithmeticError(f"moment identity fails at r={r}: {moment}")
    rows = _column_rows(r, s_max)[1 : s_max + 1]
    divisible = tuple(_square_quotient(row) is not None for row in rows)
    return SquarefreeReport(r, s_max, is_squarefree(r), divisible, moment)


class SquareQuotient(NamedTuple):
    """(series - 1) / (1+x)^2 and the polynomial quotient of the Witt
    polynomial by (1+x)^2, both with non-negative coefficients."""

    series: BiSeries
    poly: IntPolynomial


def quotient_series(r: int, s_max: int) -> Optional[SquareQuotient]:
    """Exact quotient of the generating series minus 1 by (1+x)^2, or
    None for square-free r (where no such quotient exists).

    Both quotients must come out with non-negative coefficients; a
    negative coefficient is a bug signal and raises.
    """
    if r < 1 or s_max < 1:
        raise ValueError("need r >= 1 and s_max >= 1")
    if is_squarefree(r):
        return None
    polys = [IntPolynomial()]  # [y^0](series - 1) = 0
    for s, row in enumerate(_column_rows(r, s_max)[1 : s_max + 1], 1):
        q = _square_quotient(row)
        if q is None:
            raise ArithmeticError(f"(1+x)^2 does not divide [y^{s}] at r={r}")
        if any(c < 0 for c in q.coeffs):
            raise ArithmeticError(f"negative quotient coefficient at r={r}, s={s}")
        polys.append(q)
    g = _square_quotient(witt_coeffs(r))
    if g is None:
        raise ArithmeticError(f"(1+x)^2 does not divide the Witt polynomial at r={r}")
    if any(c < 0 for c in g.coeffs):
        raise ArithmeticError(f"negative Witt quotient coefficient at r={r}")
    return SquareQuotient(BiSeries(s_max, tuple(polys)), g)


def subset_sum_count(n: int, k: int, include_n: bool = False) -> int:
    """Count of k-subsets of {1..n-1} (or {1..n} when include_n) whose
    element sum is 1 modulo n.  More k-subsets than WALK_LIMIT are refused
    with ValueError before any work."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    top = n + 1 if include_n else n
    # C(m, k) >= 2^j for j = min(k, m - k), so j >= 20 is over the limit
    # without building a huge binomial
    m = top - 1
    items = math.comb(m, k) if min(k, m - k) < 20 else 1 << 20
    check_walk(items, f"the {k}-subsets of [{m}]")
    return sum(
        1 for c in combinations(range(1, top), k) if sum(c) % n == 1 % n
    )
