"""Exact integer polynomials and y-truncated bivariate series.

IntPolynomial is an immutable coefficient tuple with no trailing zeros.
BiSeries holds the coefficients of y^0 .. y^(s_max) as IntPolynomials and
is exact in x (no x-truncation anywhere).  Nothing here ever rounds.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .combinat import divisors, moebius

__all__ = [
    "IntPolynomial",
    "BiSeries",
    "witt_transform",
    "is_unimodal",
]


class IntPolynomial:
    """Polynomial over the integers; index k holds the coefficient of x^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-v for v in self.coeffs)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(other * v for v in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPolynomial":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPolynomial((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __call__(self, x: int) -> int:
        acc = 0
        for v in reversed(self.coeffs):
            acc = acc * x + v
        return acc

    def substitute_power(self, d: int) -> "IntPolynomial":
        """p(x^d)."""
        if d < 1:
            raise ValueError("d must be >= 1")
        out = [0] * (len(self.coeffs) * d)
        for i, v in enumerate(self.coeffs):
            out[i * d] = v
        return IntPolynomial(out)

    def reflect(self) -> "IntPolynomial":
        """p(-x)."""
        return IntPolynomial(
            -v if i % 2 else v for i, v in enumerate(self.coeffs)
        )

    def divide_exact(self, q: "IntPolynomial") -> Optional["IntPolynomial"]:
        """Quotient h with q*h == self, or None when no such h exists
        over the integers.  Dividing by the zero polynomial is an error."""
        if not q:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return IntPolynomial()
        dq = q.degree
        if dq > self.degree:
            return None
        rem = list(self.coeffs)
        lead = q.coeffs[-1]
        quot = [0] * (len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            if c % lead:
                return None
            f = c // lead
            quot[i - dq] = f
            for j in range(dq + 1):
                rem[i - dq + j] -= f * q.coeffs[j]
        if any(rem):
            return None
        return IntPolynomial(quot)

    def pretty(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, v in enumerate(self.coeffs):
            if v == 0:
                continue
            if i == 0:
                terms.append(str(v))
                continue
            mag = "" if abs(v) == 1 else str(abs(v))
            power = var if i == 1 else f"{var}^{i}"
            sign = "-" if v < 0 else ("+" if terms else "")
            terms.append(f"{sign} {mag}{power}".strip())
        return " ".join(terms)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs!r})"


_ZERO = IntPolynomial()


class BiSeries:
    """Series in y truncated after y^s_max, exact polynomial coefficients."""

    __slots__ = ("s_max", "polys")

    def __init__(self, s_max: int, polys: Sequence[IntPolynomial] = ()):
        if s_max < 0:
            raise ValueError("s_max must be >= 0")
        ps = list(polys)[: s_max + 1]
        ps += [_ZERO] * (s_max + 1 - len(ps))
        object.__setattr__(self, "s_max", s_max)
        object.__setattr__(self, "polys", tuple(ps))

    def __setattr__(self, name, value):
        raise AttributeError("BiSeries is immutable")

    def coeff(self, s: int) -> IntPolynomial:
        if not 0 <= s <= self.s_max:
            raise IndexError(f"y-degree {s} outside truncation {self.s_max}")
        return self.polys[s]

    def _match(self, other: "BiSeries") -> None:
        if self.s_max != other.s_max:
            raise ValueError("mismatched truncation orders")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiSeries)
            and self.s_max == other.s_max
            and self.polys == other.polys
        )

    def __hash__(self) -> int:
        return hash((self.s_max, self.polys))

    # kept for perfbench/tracer.py, which counts products by patching it
    def __mul__(self, other: "BiSeries") -> "BiSeries":
        self._match(other)
        out = [_ZERO] * (self.s_max + 1)
        for i, a in enumerate(self.polys):
            if not a:
                continue
            for j in range(self.s_max + 1 - i):
                b = other.polys[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return BiSeries(self.s_max, out)

    def __repr__(self) -> str:
        return f"BiSeries({self.s_max}, {self.polys!r})"


def witt_transform(p: IntPolynomial, r: int) -> IntPolynomial:
    """(1/r) * sum over d | r of moebius(d) * p(x^d)^(r/d).

    Every coefficient of the sum must be divisible by r; a failure is a
    bug or invalid input and raises instead of rounding.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    acc = _ZERO
    for d in divisors(r):
        md = moebius(d)
        if md == 0:
            continue
        acc = acc + md * (p.substitute_power(d) ** (r // d))
    bad = [v for v in acc.coeffs if v % r]
    if bad:
        raise ArithmeticError(f"Witt transform not integral at r={r}")
    return IntPolynomial(v // r for v in acc.coeffs)


def is_unimodal(seq) -> bool:
    """True iff the sequence rises weakly then falls weakly (all-zero: True)."""
    s = list(seq)
    n = len(s)
    i = 0
    while i + 1 < n and s[i] <= s[i + 1]:
        i += 1
    while i + 1 < n and s[i] >= s[i + 1]:
        i += 1
    return i + 1 >= n
