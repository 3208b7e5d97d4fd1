"""Tests for exact integer polynomials, truncated bivariate series, and the
Witt transform."""

import random

import pytest

from brute_force import power_by_squaring, schoolbook_mul, witt_transform_by_schoolbook
from hooklie import series
from hooklie.series import (
    BiSeries,
    IntPolynomial,
    is_unimodal,
    witt_transform,
)

X = IntPolynomial((0, 1))
ONE = IntPolynomial((1,))


# -- IntPolynomial -----------------------------------------------------------


def test_polynomial_normalization():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial(()).coeffs == ()
    assert IntPolynomial((0,)).degree == -1
    assert IntPolynomial((0, 0, 5)).degree == 2
    # immutable and hashed by its normalized coefficients
    assert hash(IntPolynomial((1, 2, 0))) == hash(IntPolynomial((1, 2)))
    assert len({IntPolynomial((1, 2, 0)), IntPolynomial((1, 2)), ONE}) == 2
    with pytest.raises(AttributeError, match="immutable"):
        ONE.coeffs = (2,)


def test_polynomial_arithmetic():
    p = ONE + X
    assert (p * p).coeffs == (1, 2, 1)
    assert (p**4).coeffs == (1, 4, 6, 4, 1)
    assert (p - p).coeffs == ()
    assert (p * 3).coeffs == (3, 3)
    assert (-p).coeffs == (-1, -1)


def test_polynomial_reflection():
    p = IntPolynomial((1, -2, 3))
    assert p.reflect().coeffs == (1, 2, 3)
    assert p.reflect().reflect() == p


def test_substitute_power():
    p = ONE + X
    assert p.substitute_power(3).coeffs == (1, 0, 0, 1)
    q = IntPolynomial((1, 2, 3))
    assert q.substitute_power(2).coeffs == (1, 0, 2, 0, 3)
    with pytest.raises(ValueError):
        q.substitute_power(0)


def _random_poly(rng, max_len, bits):
    top = 1 << bits
    length = rng.randrange(max_len + 1)
    return IntPolynomial(rng.randrange(-top, top + 1) for _ in range(length))


def test_product_and_power_match_schoolbook_oracle():
    # random polynomials: negative coefficients, coefficients past 2^64,
    # the zero polynomial (length 0) and sparse p(x^d)
    rng = random.Random(11)
    for _ in range(400):
        bits = rng.choice((1, 3, 31, 64, 70, 130))
        p, q = _random_poly(rng, 6, bits), _random_poly(rng, 6, bits)
        if rng.random() < 0.3:
            p = p.substitute_power(rng.randrange(2, 6))
        assert p * q == schoolbook_mul(p, q)
        assert q * p == schoolbook_mul(q, p)
        e = rng.randrange(6)
        assert p**e == power_by_squaring(p, e)


def test_product_and_power_edge_cases():
    zero = IntPolynomial()
    big = IntPolynomial((1 << 70, -(1 << 65) + 3, 7))
    assert big * zero == zero and zero * big == zero and zero * zero == zero
    assert zero**0 == ONE and zero**1 == zero and zero**5 == zero
    assert big**0 == ONE and big**1 == big
    assert big**3 == power_by_squaring(big, 3)
    sparse = big.substitute_power(4)
    assert sparse**3 == power_by_squaring(big, 3).substitute_power(4)
    assert sparse**3 == power_by_squaring(sparse, 3)


def test_product_and_power_at_the_packing_bound():
    # outputs whose extreme coefficient equals the a-priori bound
    # min(len a, len b) * max|a| * max|b| (products) or (sum |a_i|)^e
    # (powers of monomials), around each power of two
    for t in range(1, 140, 3):
        for c in ((1 << t) - 1, 1 << t, (1 << t) + 1):
            for n in (1, 2, 5):
                a = IntPolynomial([c] * n)
                b = IntPolynomial([-c] * n)
                assert a * b == schoolbook_mul(a, b)
                assert (a * b).coeff(n - 1) == -n * c * c
                assert a * a == schoolbook_mul(a, a)
            for e in (1, 2, 3, 7):
                m = IntPolynomial((0, 0, -c))
                assert (m**e).coeffs == (0,) * (2 * e) + ((-c) ** e,)
    # (1 + x)^e: the middle coefficient binom(e, e/2) is the largest
    for e in range(70):
        assert ((ONE + X) ** e) == power_by_squaring(ONE + X, e)
        assert ((ONE - X) ** e) == power_by_squaring(ONE - X, e)


def test_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        (ONE + X) ** -1


def test_divide_exact_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        a = IntPolynomial([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 7))])
        b = IntPolynomial([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 6))])
        if not b:
            continue
        prod = a * b
        q = prod.divide_exact(b)
        assert q is not None
        assert q == a or q * b == prod


def test_divide_exact_detects_inexact():
    assert (ONE + X).divide_exact(IntPolynomial((0, 1))) is None  # (1+x)/x
    assert IntPolynomial((1, 0, 1)).divide_exact(ONE + X) is None
    assert IntPolynomial((1, 2, 1)).divide_exact(ONE + X) == ONE + X


def test_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        (ONE + X).divide_exact(IntPolynomial(()))


def test_pretty_printing():
    assert IntPolynomial((0, 1, 1)).pretty() == "x + x^2"
    assert IntPolynomial(()).pretty() == "0"


# -- BiSeries ----------------------------------------------------------------


def test_biseries_coeff_out_of_range():
    series = BiSeries(2, (ONE, X, X))
    assert series.coeff(2) == X
    for s in (-1, 3):
        with pytest.raises(IndexError, match="outside truncation 2"):
            series.coeff(s)


# -- Witt transform ----------------------------------------------------------


def test_witt_transform_of_one_minus_x():
    # reflected transforms of 1 - x are the frozen coefficient vectors
    frozen = {
        1: (1, 1),
        2: (0, 1, 1),
        3: (0, 1, 1),
        4: (0, 1, 2, 1),
        5: (0, 1, 2, 2, 1),
        6: (0, 1, 3, 3, 2, 1),
    }
    p = ONE - X
    for r, coeffs in frozen.items():
        w = witt_transform(p, r).reflect()
        assert w.coeffs == coeffs


def test_witt_transform_degree_one_necklaces():
    # witt_transform(cx, r) counts necklaces: (1/r) sum mu(d) c^(r/d)
    for c in (2, 3, 5):
        p = IntPolynomial((0, c))
        w = witt_transform(p, 1)
        assert w.coeffs == (0, c)
    assert witt_transform(IntPolynomial((0, 2)), 2).coeffs == (0, 0, 1)
    assert witt_transform(IntPolynomial((0, 2)), 3).coeffs == (0, 0, 0, 2)
    assert witt_transform(IntPolynomial((0, 2)), 4).coeffs == (0, 0, 0, 0, 3)


def test_witt_transform_always_integral():
    # the necklace congruence sum mu(d) p(x^d)^(r/d) = 0 mod r holds for
    # every integer polynomial, so no valid input can trip the internal
    # integrality guard; spot-check it on random polynomials
    rng = random.Random(3)
    for _ in range(60):
        p = IntPolynomial([rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))])
        r = rng.randrange(1, 9)
        w = witt_transform(p, r)
        assert all(isinstance(c, int) for c in w.coeffs)


def test_witt_transform_refuses_a_non_integral_sum(monkeypatch):
    # so the guard is reached only through a doctored moebius: the d = 1
    # term alone leaves (1 + x)^2 / 2
    monkeypatch.setattr(series, "moebius", lambda d: int(d == 1))
    with pytest.raises(ArithmeticError, match="Witt transform not integral at r=2"):
        witt_transform(IntPolynomial((1, 1)), 2)


def test_witt_transform_matches_schoolbook_oracle():
    # the kernel route against the transform assembled from oracle products
    rng = random.Random(17)
    cases = [(IntPolynomial(), r) for r in (1, 6, 40)]
    for _ in range(80):
        bits = rng.choice((2, 8, 70))
        p = _random_poly(rng, 4, bits)
        cases.append((p, rng.randrange(1, 41)))
    for p, r in cases:
        assert witt_transform(p, r) == witt_transform_by_schoolbook(p, r)


def test_witt_transform_necklace_identity():
    # aperiodic necklace counts M(c, d) satisfy sum over d | r of
    # d * M(c, d) = c^r (every word factors through its period)
    from hooklie.combinat import divisors

    for c in (2, 3, 4):
        for r in range(1, 9):
            total = sum(
                d * witt_transform(IntPolynomial((0, c)), d).coeff(d)
                for d in divisors(r)
            )
            assert total == c**r


# -- unimodality helper --------------------------------------------------------


def test_is_unimodal():
    assert is_unimodal(())
    assert is_unimodal((1,))
    assert is_unimodal((1, 2, 3))
    assert is_unimodal((3, 2, 1))
    assert is_unimodal((1, 3, 3, 2))
    assert is_unimodal((0, 0, 2, 5, 5, 1, 0))
    assert not is_unimodal((1, 0, 1))
    assert not is_unimodal((2, 3, 1, 2))
