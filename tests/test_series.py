"""Tests for exact integer polynomials, truncated bivariate series, and the
Witt transform."""

import random

import pytest

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


def test_polynomial_arithmetic():
    p = ONE + X
    assert (p * p).coeffs == (1, 2, 1)
    assert (p**4).coeffs == (1, 4, 6, 4, 1)
    assert (p - p).coeffs == ()
    assert (p * 3).coeffs == (3, 3)
    assert (-p).coeffs == (-1, -1)


def test_polynomial_evaluation_and_reflection():
    p = IntPolynomial((1, -2, 3))
    assert p(2) == 1 - 4 + 12
    assert p(0) == 1
    assert p.reflect().coeffs == (1, 2, 3)
    assert p.reflect().reflect() == p


def test_substitute_power():
    p = ONE + X
    assert p.substitute_power(3).coeffs == (1, 0, 0, 1)
    q = IntPolynomial((1, 2, 3))
    assert q.substitute_power(2).coeffs == (1, 0, 2, 0, 3)


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


def test_biseries_one_and_monomial():
    one = BiSeries.one(3)
    assert one.coeff(0) == ONE
    assert one.coeff(3) == IntPolynomial(())
    m = BiSeries.monomial(3, x_deg=2, y_deg=1, c=5)
    assert m.coeff(1).coeffs == (0, 0, 5)
    assert m.coeff(0) == IntPolynomial(())


def test_biseries_truncating_product():
    t = BiSeries.monomial(2, x_deg=1)  # xy truncated at y^2
    sq = t * t
    assert sq.coeff(2).coeffs == (0, 0, 1)
    cube = sq * t  # y^3 term falls off the truncation
    assert all(not cube.coeff(s) for s in range(3))


def test_biseries_coeff_out_of_range():
    with pytest.raises(IndexError):
        BiSeries.one(2).coeff(3)


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
