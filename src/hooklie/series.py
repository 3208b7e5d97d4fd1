"""Exact integer polynomials and y-truncated bivariate series.

IntPolynomial is an immutable coefficient tuple with no trailing zeros.
BiSeries is a record (s_max, polys) of the coefficients of y^0 .. y^(s_max)
as IntPolynomials, exact in x (no x-truncation anywhere); lie builds its
rows, and no series is ever multiplied.  Nothing here ever rounds.

Products of polynomials go by Kronecker substitution: the coefficients
are packed as base-2^k digits of one Python integer (the polynomial
evaluated at x = 2^k), the two integers are multiplied, and the digits
are read back as signed coefficients.  k is chosen before packing from
an a-priori bound on every output coefficient, so each digit holds its
coefficient exactly and no carry crosses into its neighbour.  __mul__ is
the one packing path; the binomial rows of characters and lie are
written with math.comb.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "IntPolynomial",
    "BiSeries",
    "is_unimodal",
]


# -- Kronecker substitution ----------------------------------------------------


def _digit_bytes(bound: int) -> int:
    """Bytes per digit for signed coefficients of absolute value at most
    bound: the digit width k = 8 * bytes satisfies bound < 2^(k-1)."""
    return bound.bit_length() // 8 + 1


def _pack(coeffs: Sequence[int], nb: int) -> int:
    """sum of coeffs[i] * 2^(8*nb*i), built from byte strings, not by Horner."""
    zero = bytes(nb)
    pos = b"".join(c.to_bytes(nb, "little") if c > 0 else zero for c in coeffs)
    value = int.from_bytes(pos, "little")
    if any(c < 0 for c in coeffs):
        neg = b"".join((-c).to_bytes(nb, "little") if c < 0 else zero for c in coeffs)
        value -= int.from_bytes(neg, "little")
    return value


def _unpack(value: int, length: int, nb: int) -> list:
    """The length signed base-2^(8*nb) digits of value, lowest first.

    Adding 2^(k-1) to every digit makes each one a non-negative k-bit
    field, so a single to_bytes call splits them; the offset is then
    subtracted digit by digit.
    """
    half = 1 << (8 * nb - 1)
    offset = int.from_bytes((bytes(nb - 1) + b"\x80") * length, "little")
    raw = (value + offset).to_bytes(nb * length, "little")
    return [
        int.from_bytes(raw[i : i + nb], "little") - half
        for i in range(0, nb * length, nb)
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

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(other * v for v in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        nb = _digit_bytes(min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b)))
        packed = _pack(a, nb) * _pack(b, nb)
        return IntPolynomial(_unpack(packed, len(a) + len(b) - 1, nb))

    __rmul__ = __mul__

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


class BiSeries(NamedTuple):
    """Series in y truncated after y^s_max: polys[s], s = 0 .. s_max, is the
    coefficient of y^s, an exact polynomial in x."""

    s_max: int
    polys: Tuple[IntPolynomial, ...]

    def coeff(self, s: int) -> IntPolynomial:
        if not 0 <= s <= self.s_max:
            raise IndexError(f"y-degree {s} outside truncation {self.s_max}")
        return self.polys[s]


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
