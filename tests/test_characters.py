"""Tests for symmetric group character values and the induced characters
built from cyclic-rotation eigenvalues of centralizers.

Frozen vectors marked "brute force" were computed by enumerating the
relevant groups directly with exact root-of-unity arithmetic; the
enumeration lives on in tests/brute_force.py, and the plethysm route is
compared against it on every small centralizer.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from brute_force import (
    frobenius_over_fractions,
    h_pairings_by_necklaces,
    higher_lie_by_enumeration,
    power_by_squaring,
    standard_tableaux,
)

import hooklie
from hooklie import characters
from hooklie.characters import (
    character_value,
    h_pairings,
    hook_mults_oracle,
    schur_multiplicities,
)
from hooklie.combinat import (
    centralizer_order,
    class_size,
    divisors,
    is_partition,
    moebius,
    partition_list,
)
from hooklie.series import IntPolynomial


# -- Murnaghan-Nakayama values -----------------------------------------------


def test_character_value_examples():
    assert character_value((2, 1), (3,)) == -1
    assert character_value((2, 1), (2, 1)) == 0
    assert character_value((2, 1), (1, 1, 1)) == 2
    assert character_value((3, 1), (2, 2)) == -1
    assert character_value((2, 2), (2, 2)) == 2


def test_s4_character_table_row():
    # chi^(2,1,1) on classes (4), (3,1), (2,2), (2,1,1), (1^4)
    row = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [character_value((2, 1, 1), mu) for mu in row] == [1, 0, -1, -1, 3]


def test_trivial_and_sign_rows():
    for n in range(1, 7):
        for mu in partition_list(n):
            assert character_value((n,), mu) == 1
            sign = (-1) ** (n - len(mu))
            assert character_value((1,) * n, mu) == sign


def test_dimension_equals_tableau_count():
    for n in range(1, 7):
        for lam in partition_list(n):
            dim = character_value(lam, (1,) * n)
            assert dim == len(list(standard_tableaux(lam)))


def test_character_value_rejects_size_mismatch():
    with pytest.raises(ValueError):
        character_value((2, 1), (2, 2))


def test_orthonormality_of_irreducibles():
    # row orthogonality: sum over nu of chi^lam(nu) chi^kappa(nu) / z_nu
    for n in range(1, 8):
        shapes = partition_list(n)
        for lam in shapes:
            for kappa in shapes:
                total = sum(
                    Fraction(
                        character_value(lam, nu) * character_value(kappa, nu),
                        centralizer_order(nu),
                    )
                    for nu in shapes
                )
                assert total == (1 if lam == kappa else 0), (lam, kappa)


def test_column_orthogonality():
    # sum over lam of chi(mu) chi(nu) = z_mu [mu == nu]
    for n in range(1, 7):
        shapes = partition_list(n)
        for mu in shapes:
            for nu in shapes:
                total = sum(
                    character_value(lam, mu) * character_value(lam, nu)
                    for lam in shapes
                )
                want = math.factorial(n) // class_size(mu) if mu == nu else 0
                assert total == want


# -- induced characters from centralizers ------------------------------------


def higher_lie_values(mu):
    """psi^mu(nu) = z_nu c_nu / den on every class nu, read off the scaled
    expansion (den, ((nu, c_nu), ...)) of characters._frobenius; each value
    must be an integer."""
    den, terms = characters._frobenius(mu)
    values = dict.fromkeys(partition_list(sum(mu)), 0)
    for nu, c in terms:
        values[nu], rem = divmod(c * centralizer_order(nu), den)
        assert rem == 0, (mu, nu)
    return values


def test_higher_lie_of_identity_class_is_trivial():
    # the centralizer of the identity is all of S_n and the rotation
    # eigenvalue is 1, so the induced character is the trivial one
    for n in range(1, 7):
        psi = higher_lie_values((1,) * n)
        assert psi == dict.fromkeys(partition_list(n), 1)


def test_higher_lie_matches_brute_force():
    # Thrall's plethysm against walking the centralizer, on every class
    # of S_n (n <= 12) whose centralizer has at most 10^4 elements
    checked = 0
    for n in range(1, 13):
        for mu in partition_list(n):
            if centralizer_order(mu) <= 10**4:
                assert higher_lie_values(mu) == higher_lie_by_enumeration(mu), mu
                checked += 1
    assert checked == 250


def test_higher_lie_values_are_integers():
    for n in range(1, 7):
        for mu in partition_list(n):
            psi = higher_lie_values(mu)
            assert set(psi) == set(partition_list(n))
            assert all(isinstance(v, int) for v in psi.values())


def test_higher_lie_degree():
    # degree = n! / z_mu * (number of centralizer elements of exponent 0
    # weight 1 at identity...): the induced degree is [S_n : C_mu] = |K|
    for n in range(1, 11):
        for mu in partition_list(n):
            psi = higher_lie_values(mu)
            assert psi[(1,) * n] == class_size(mu)


def test_higher_lie_sum_is_regular_character():
    # summing over all classes of S_n gives the regular character
    for n in range(1, 7):
        total = {}
        for mu in partition_list(n):
            psi = higher_lie_values(mu)
            for k, v in psi.items():
                total[k] = total.get(k, 0) + v
        ident = (1,) * n
        assert total[ident] == math.factorial(n)
        assert all(v == 0 for k, v in total.items() if k != ident)


def test_schur_multiplicities_nonnegative_integral():
    for n in range(1, 8):
        for mu in partition_list(n):
            mults = schur_multiplicities(mu)
            assert set(mults) == set(partition_list(n))
            assert all(isinstance(m, int) and m >= 0 for m in mults.values())
            # total dimension returns the class size
            dim = sum(
                m * character_value(lam, (1,) * n) for lam, m in mults.items()
            )
            assert dim == class_size(mu)


def test_schur_expansion_reproduces_higher_lie_character():
    # sum over lam of m_lam chi^lam(nu) = psi^mu(nu) on every class nu, so
    # the multiplicities pair the plethysm against the whole character table
    for n in range(1, 9):
        shapes = partition_list(n)
        for mu in shapes:
            mults = schur_multiplicities(mu)
            psi = higher_lie_values(mu)
            for nu in shapes:
                got = sum(m * character_value(lam, nu) for lam, m in mults.items())
                assert got == psi[nu], (mu, nu)


def test_schur_multiplicities_frozen_small_cases():
    # brute force: psi^(4) = chi^(3,1) + chi^(2,1,1)
    mults = schur_multiplicities((4,))
    assert {lam: m for lam, m in mults.items() if m} == {(3, 1): 1, (2, 1, 1): 1}
    # psi^(2,2) = chi^(2,2) + chi^(1,1,1,1): degree 2 + 1 = 3 = class size
    mults = schur_multiplicities((2, 2))
    assert {lam: m for lam, m in mults.items() if m} == {
        (2, 2): 1,
        (1, 1, 1, 1): 1,
    }


def test_hook_mults_oracle_frozen_values():
    assert hook_mults_oracle((2,)) == (0, 1)
    assert hook_mults_oracle((1, 1)) == (1, 0)
    assert hook_mults_oracle((3,)) == (0, 1, 0)
    assert hook_mults_oracle((4,)) == (0, 1, 1, 0)
    assert hook_mults_oracle((2, 2)) == (0, 0, 0, 1)
    assert hook_mults_oracle((2, 1)) == (0, 1, 1)
    assert hook_mults_oracle((3, 2)) == (0, 0, 1, 1, 0)


def test_hook_mults_oracle_rectangle_4_4():
    # z = 4^2 * 2! = 32, small enough to enumerate quickly
    assert hook_mults_oracle((4, 4)) == (0, 0, 0, 2, 2, 0, 0, 0)


def test_hook_mults_oracle_matches_schur_expansion():
    # the oracle's specialization of Thrall's product against the power-sum
    # expansion paired with the Murnaghan-Nakayama values of the n hooks,
    # sum over nu of c_nu chi^(n-k,1^k)(nu) / den: the two routes share no
    # code, on every class with n <= 14
    checked = 0
    for n in range(1, 15):
        for mu in partition_list(n):
            den, terms = characters._frobenius(mu)
            hooks = []
            for k in range(n):
                hook = (n - k,) + (1,) * k
                acc = sum(c * character_value(hook, nu) for nu, c in terms)
                assert acc % den == 0, (mu, k)
                hooks.append(acc // den)
            assert hook_mults_oracle(mu) == tuple(hooks), mu
            checked += 1
    assert checked == 507


# -- Gessel-Reutenauer pairings ----------------------------------------------


def test_r_rows_match_assignment_count():
    # R(nu, lam) against a count over every assignment of the parts of nu to
    # len(nu) labelled blocks; a block-sum vector is read as the digits of
    # one integer in base n + 1, and lam pads to it with empty blocks
    for n in range(1, 8):
        base = n + 1
        rows = characters._r_rows(n)
        for nu in partition_list(n):
            k = len(nu)
            weights = [[p * base**b for b in range(k)] for p in nu]
            counts = Counter(map(sum, product(*weights)))
            for lam, got in zip(partition_list(n), rows[nu]):
                code = sum(x * base**b for b, x in enumerate(lam))
                want = counts[code] if len(lam) <= k else 0
                assert got == want, (nu, lam)


def test_h_pairings_transpositions_of_s3():
    # 213, 132, 321: Des inside {} none, inside {1} one, inside {1,2} all
    assert h_pairings((2, 1)) == {(3,): 0, (2, 1): 1, (1, 1, 1): 3}


def test_h_pairings_count_necklace_multisets():
    # Gessel-Reutenauer's necklaces against the pairing of Thrall's plethysm
    # with the R rows, on every pair (mu, lam) with n <= 9
    checked = 0
    for n in range(1, 10):
        for mu in partition_list(n):
            got = h_pairings(mu)
            assert got == h_pairings_by_necklaces(mu), mu
            checked += len(got)
    assert checked == 1818


def test_h_pairings_refuse_non_counts(monkeypatch):
    # a doctored expansion, in _frobenius's scaled form (den, ((nu, c), ...)):
    # ch = p_1^2 / 3 gives 1/3 and 2/3 where integers are due
    monkeypatch.setattr(characters, "_frobenius", lambda mu: (3, (((1, 1), 1),)))
    for reader in (h_pairings, schur_multiplicities):
        with pytest.raises(ArithmeticError):
            reader((1, 1))
    # ch = -p_1^2 gives integral values, but negative counts
    monkeypatch.setattr(characters, "_frobenius", lambda mu: (1, (((1, 1), -1),)))
    for reader in (h_pairings, schur_multiplicities):
        with pytest.raises(ArithmeticError):
            reader((1, 1))


def test_frobenius_is_scaled_to_lowest_integers():
    # den is the least common denominator: the numerators share no factor
    # with it, and no coefficient is stored as zero
    for n in range(1, 9):
        for mu in partition_list(n):
            den, terms = characters._frobenius(mu)
            assert den >= 1 and math.gcd(den, *(c for _, c in terms)) == 1
            assert all(c and is_partition(nu) and sum(nu) == n for nu, c in terms)


def test_frobenius_matches_fraction_expansion():
    # the integer expansion over den = z_mu against Thrall's product over
    # Fraction scaled by its least common denominator: the same den and the
    # same numerators, on every class with n <= 12
    checked = 0
    for n in range(1, 13):
        for mu in partition_list(n):
            den, terms = characters._frobenius(mu)
            assert den == centralizer_order(mu), mu
            assert (den, dict(terms)) == frobenius_over_fractions(mu), mu
            checked += 1
    assert checked == 271


def test_count_message_reduces_the_fraction(monkeypatch):
    # ch = p_1^2 / 3 stored as 2 p_1^2 over den 6: <ch, h_(2)> = 2/6 = 1/3
    monkeypatch.setattr(characters, "_frobenius", lambda mu: (6, (((1, 1), 2),)))
    with pytest.raises(ArithmeticError, match=r"h_\(2,\)> is 1/3, not a count"):
        h_pairings((1, 1))
    monkeypatch.setattr(characters, "_frobenius", lambda mu: (2, (((1, 1), -2),)))
    with pytest.raises(ArithmeticError, match=r"h_\(2,\)> is -1, not a count"):
        h_pairings((1, 1))


@pytest.fixture
def fresh_memo():
    # the doctored runs below fill the hook memo with wrong factors
    hooklie.clear_memos()
    yield
    hooklie.clear_memos()


def test_hook_oracle_refuses_inexact_division_by_i(fresh_memo, monkeypatch):
    # divisors(2) = (1,) leaves phi(p_1[Lie_2]) = (1 + t)^2 / 2
    monkeypatch.setattr(characters, "divisors", lambda i: (1,))
    with pytest.raises(ArithmeticError, match=r"p_1\[Lie_2\]\) is not divisible by 2"):
        hook_mults_oracle((2,))


def test_hook_oracle_refuses_inexact_division_by_j(fresh_memo, monkeypatch):
    # no doctored moebius or divisors is known that passes the division by i
    # and fails this one, so the memoized phi(h_1[Lie_1]) = 1 + t is doctored
    # to 1: Newton's step gives 2 phi(h_2[Lie_1]) = (1 + t) + (1 - t^2)
    real = characters._hook_factor
    one = IntPolynomial((1,))
    monkeypatch.setattr(
        characters, "_hook_factor", lambda i, k: one if k == 1 else real(i, k)
    )
    with pytest.raises(ArithmeticError, match=r"h_2\[Lie_1\]\) is not divisible by 2"):
        hook_mults_oracle((1, 1))


def test_hook_oracle_refuses_inexact_division_by_1_plus_t(fresh_memo, monkeypatch):
    # divisors(1) = (1, 2) adds moebius(2) (1 - t^2)^0 = -1 to Lie_1, so
    # phi(ch psi^(1)) = t, which 1 + t does not divide
    monkeypatch.setattr(characters, "divisors", lambda i: (1, 2))
    with pytest.raises(ArithmeticError, match=r"\(1,\)\) is not divisible by 1 \+ t"):
        hook_mults_oracle((1,))


def test_hook_oracle_refuses_negative_multiplicities(fresh_memo, monkeypatch):
    # moebius negated: -Lie_2 = -e_2, whose one hook constituent is -1
    real = characters.moebius
    monkeypatch.setattr(characters, "moebius", lambda d: -real(d))
    with pytest.raises(ArithmeticError, match=r"are \(0, -1\), not counts"):
        hook_mults_oracle((2,))


def test_adams_factors_are_built_once_per_part_count(fresh_memo):
    # phi(p_m[Lie_i]) read off phi(Lie_i) under t -> -(-t)^m equals the
    # direct (1/i) sum over d | i of moebius(d) (1 - (-t)^(md))^(i/d)
    for i in range(1, 13):
        for m in range(1, 7):
            direct = IntPolynomial()
            for d in divisors(i):
                base = IntPolynomial((1, -((-1) ** (m * d))))
                step = power_by_squaring(base, i // d)
                direct = direct + step.substitute_power(m * d) * moebius(d)
            assert characters._adams_factor(i, m) * i == direct, (i, m)
    # k parts of one size need the k factors m = 1..k, not k(k+1)/2
    hooklie.clear_memos()
    hook_mults_oracle((1,) * 30)
    assert characters._adams_factor.cache_info().currsize == 30


def test_plethysm_factors_are_shared_and_cannot_be_changed(fresh_memo):
    # h_2[Lie_3] is built once and shared by (3,3,1) and (3,3,2)
    characters._frobenius((3, 3, 1))
    characters._frobenius((3, 3, 2))
    info = characters._h_plethysm.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 1, 3)
    factor = characters._h_plethysm(2, 3)
    # tuples all the way down: hashable, with no item to assign
    hash(factor)
    with pytest.raises(TypeError):
        factor[0] = ((6,), 1)
    with pytest.raises(TypeError):
        factor[0][0][0] = 1
    # a class with one part size hands out the factor itself, so its
    # expansion is as immutable
    den, terms = characters._frobenius((3, 3))
    assert terms is factor and den == 18
    assert dict(terms) == frobenius_over_fractions((3, 3))[1]
    hooklie.clear_memos()
    assert characters._h_plethysm.cache_info().currsize == 0
    assert characters._h_plethysm(2, 3) == factor
