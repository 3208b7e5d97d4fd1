"""Tests for the closed hook-multiplicity formulas, their generating series,
the square-divisibility dichotomy, and extension certificates.

Every closed formula is compared against the independent character-theoretic
oracle on a range where the oracle stays cheap; frozen vectors were produced
by that oracle and spot-checked by hand.
"""

import json
import math
import random
import re

import pytest
from brute_force import (
    power_by_squaring,
    restricted_partitions,
    witt_transform_by_schoolbook,
)

import hooklie
from hooklie import cdes, characters, cli, lie
from hooklie.characters import hook_mults_oracle
from hooklie.combinat import is_squarefree, moebius, partition_list
from hooklie.lie import (
    NoExtension,
    column_row_mults,
    column_row_series,
    extension_certificate,
    hook_mults,
    hook_poly,
    quotient_series,
    squarefree_criterion,
    subset_sum_count,
    witt_coeffs,
)
from hooklie.series import IntPolynomial, is_unimodal

ONE_PLUS_X = IntPolynomial((1, 1))
X = IntPolynomial((0, 1))


def xpow(k, c=1):
    return IntPolynomial([0] * k + [c])


# -- Witt coefficients -------------------------------------------------------


def test_witt_coeffs_factored_forms():
    # frozen closed forms for r = 1..6
    assert IntPolynomial(witt_coeffs(1)) == ONE_PLUS_X
    assert IntPolynomial(witt_coeffs(2)) == ONE_PLUS_X * X
    assert IntPolynomial(witt_coeffs(3)) == ONE_PLUS_X * X
    assert IntPolynomial(witt_coeffs(4)) == ONE_PLUS_X * ONE_PLUS_X * X
    assert IntPolynomial(witt_coeffs(5)) == ONE_PLUS_X * X * IntPolynomial((1, 1, 1))
    assert IntPolynomial(witt_coeffs(6)) == ONE_PLUS_X * X * IntPolynomial((1, 2, 1, 1))


def test_witt_coeffs_normalization():
    for r in range(1, 30):
        f = witt_coeffs(r)
        assert len(f) == r + 1
        assert f[1] == 1
        assert f[0] == (1 if r == 1 else 0)
        assert all(c >= 0 for c in f)


def test_witt_coeffs_match_transform_route():
    # same numbers via the schoolbook Witt transform of 1 - x
    for r in [*range(1, 301), 360, 420, 720, 840]:
        direct = witt_coeffs(r)
        generic = witt_transform_by_schoolbook(IntPolynomial((1, -1)), r).reflect()
        assert IntPolynomial(direct) == generic


def test_witt_coeffs_do_not_depend_on_cache_order():
    # cold, the check of 840 fills in its divisors by recursion
    hooklie.clear_memos()
    cold = witt_coeffs(840)
    hooklie.clear_memos()
    for r in range(1, 841):
        warm = witt_coeffs(r)
    assert cold == warm


def test_witt_moment_identity():
    # alternating first moment equals the moebius function
    for r in [*range(1, 101), 4000]:
        f = witt_coeffs(r)
        moment = sum((-1) ** (j + 1) * j * fj for j, fj in enumerate(f))
        assert moment == moebius(r)


def test_witt_coeffs_rejects_bad_input():
    with pytest.raises(ValueError):
        witt_coeffs(0)


def test_witt_coeffs_cross_check_runs_at_large_r(monkeypatch):
    # the divisor-sum check reads f^(m) of each proper divisor m through the
    # module name; one wrong entry there must abort r itself, whose own
    # closed sum is untouched, so only the check can fire
    real = lie.witt_coeffs
    for r, bad in ((97, 1), (210, 105)):
        f = real(bad)
        wrong = f[:-1] + (f[-1] + 1,)
        with monkeypatch.context() as mp:
            mp.setattr(lie, "witt_coeffs", lambda m, b=bad, w=wrong: w if m == b else real(m))
            real.cache_clear()
            with pytest.raises(ArithmeticError, match="routes disagree"):
                real(r)


@pytest.mark.parametrize(
    "doctored, message",
    [
        # the d = 1 term alone: f_0 = 1/2
        (lambda real, d: int(d == 1), "Witt coefficient f_0 not integral at r=2"),
        # every term doubled: f = (0, 2, 2)
        (lambda real, d: 2 * real(d), "f_1 = 2 != 1 at r=2"),
        # moebius(2) = +1: f = (1, 1, 0)
        (lambda real, d: 1, "f_0 = 1 wrong at r=2"),
    ],
)
def test_witt_coeffs_refuse_a_wrong_closed_sum(doctored, message, monkeypatch):
    # each guard fires before the divisor-sum check reads the memo, so no
    # wrong entry is left in it
    real = lie.moebius
    monkeypatch.setattr(lie, "moebius", lambda d: doctored(real, d))
    lie.witt_coeffs.cache_clear()
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        lie.witt_coeffs(2)


# -- column-row and hook multiplicities --------------------------------------


def test_column_row_mults_hand_example():
    # r = 4, s = 2: two parts from {1..4} weighted by parity binomials
    assert column_row_mults(4, 2) == (0, 0, 0, 2, 4, 2, 0, 0, 0)
    for r, s in ((0, 2), (2, 0)):
        with pytest.raises(ValueError):
            column_row_mults(r, s)


def test_hook_mults_hand_examples():
    assert hook_mults(4, 2) == (0, 0, 0, 2, 2, 0, 0, 0)
    assert hook_mults(2, 2) == (0, 0, 0, 1)
    assert hook_mults(1, 1) == (1,)
    assert hook_mults(2, 1) == (0, 1)
    assert hook_mults(3, 1) == (0, 1, 0)


def test_column_row_equals_adjacent_hook_sums():
    # e_k = m_k + m_(k-1) for 0 <= k <= n, with m_(-1) = m_n = 0
    for r in range(1, 9):
        for s in range(1, 4):
            e = column_row_mults(r, s)
            m = hook_mults(r, s)
            n = r * s
            for k in range(n + 1):
                left = m[k] if k < n else 0
                right = m[k - 1] if k >= 1 else 0
                assert e[k] == left + right


def test_hook_mults_match_character_oracle():
    # the closed formula against the hooks of the induced character, read
    # off the specialization of Thrall's product, on every rs <= 40
    for r in range(1, 41):
        for s in range(1, 41):
            if r * s > 40:
                continue
            mu = (r,) * s
            assert hook_mults(r, s) == hook_mults_oracle(mu)


def test_hook_mults_match_oracle_one_column():
    # (1^60): the induced character is trivial, so only m_0 = 1 survives;
    # its centralizer is all of S_60
    assert hook_mults(1, 60) == (1,) + (0,) * 59
    assert hook_mults_oracle((1,) * 60) == (1,) + (0,) * 59


def test_hook_mults_nonnegative_and_double_count():
    # every hook multiplicity appears in exactly two column-row sums, so
    # the totals satisfy sum(e) = 2 sum(m)
    cases = [(r, s) for r in range(1, 13) for s in range(1, 5)] + [(40, 8)]
    for r, s in cases:
        m = hook_mults(r, s)
        assert all(v >= 0 for v in m)
        e = column_row_mults(r, s)
        assert sum(e) == 2 * sum(m)


# -- generating series -------------------------------------------------------


def _column_row_by_definition(r, s):
    # e_i = sum over s-tuples gamma of i with parts in {0..r} of the product
    # over distinct values j (used k_j times) of binom(f_j + (k_j-1)[j even], k_j)
    f = witt_coeffs(r)
    e = []
    for i in range(r * s + 1):
        total = 0
        for gamma in restricted_partitions(i, r, s):
            term = 1
            for j in set(gamma):
                k = gamma.count(j)
                term *= math.comb(f[j] + (k - 1) * (j % 2 == 0), k)
            total += term
        e.append(total)
    return tuple(e)


def test_series_matches_direct_multiplicities():
    for r in range(1, 13):
        s_max = 5
        series = column_row_series(r, s_max)
        for s in range(1, s_max + 1):
            direct = _column_row_by_definition(r, s)
            assert column_row_mults(r, s) == direct, (r, s)
            coeffs = series.coeff(s).coeffs
            assert coeffs + (0,) * (len(direct) - len(coeffs)) == direct, (r, s)


def test_column_row_memo_is_order_independent():
    # one table per r, grown on demand: the order of requests must not
    # change a row
    pairs = [(r, s) for r in range(1, 13) for s in range(1, 7)]
    expected = {pair: _column_row_by_definition(*pair) for pair in pairs}
    shuffled = random.Random(0).sample(pairs, len(pairs))
    for order in (pairs, pairs[::-1], shuffled):
        hooklie.clear_memos()
        assert {pair: column_row_mults(*pair) for pair in order} == expected
        for r in range(1, 13):
            assert all(type(row) is tuple for row in lie._COLUMN_ROWS[r])


def test_column_row_table_built_once_per_r(monkeypatch):
    builds = []
    table = lie._column_row_table

    def counted(r, s_max):
        builds.append((r, s_max))
        return table(r, s_max)

    monkeypatch.setattr(lie, "_column_row_table", counted)
    hooklie.clear_memos()
    for r in range(1, 13):
        column_row_series(r, 5)
        squarefree_criterion(r, 5)
        quotient_series(r, 5)
        for s in range(1, 6):
            column_row_mults(r, s)
    witt_coeffs(4)
    column_row_mults(4, 2)
    hook_mults(4, 2)
    extension_certificate((4, 4))
    assert builds == [(r, 5) for r in range(1, 13)]
    # only a larger s rebuilds the table
    assert column_row_series(3, 7).coeff(7) == xpow(13) * ONE_PLUS_X
    column_row_mults(3, 6)
    assert builds[12:] == [(3, 7)]


def test_series_constant_term_is_one():
    for r in (1, 2, 5, 9):
        assert column_row_series(r, 3).coeff(0) == IntPolynomial((1,))
    with pytest.raises(ValueError):
        column_row_series(2, -1)


def test_series_r2_closed_form():
    # [y^s] = x^(2s-1) (1 + x) for the two-cycle column
    series = column_row_series(2, 5)
    for s in range(1, 6):
        assert series.coeff(s) == xpow(2 * s - 1) * ONE_PLUS_X


# -- extension certificates --------------------------------------------------


def test_certificate_single_cycle_of_four():
    assert extension_certificate((4,)) == (0, 1, 0)


def test_certificate_two_rows_of_two_fails():
    cert = extension_certificate((2, 2))
    assert isinstance(cert, NoExtension)
    assert cert.reason == "alternating-sum-nonzero"
    assert cert.index == 3


def test_certificate_squarefree_cycles_fail():
    for r in (1, 2, 3, 5, 6, 7):
        assert isinstance(extension_certificate((r,)), NoExtension)


def test_certificate_non_rectangular_class():
    assert extension_certificate((2, 1)) == (0, 1)
    cert = extension_certificate((3, 2))
    assert not isinstance(cert, NoExtension)


def test_certificate_matches_squarefree_dichotomy():
    # rectangles: certificate exists iff the part size is not square-free
    for r in range(1, 9):
        for s in range(1, 4):
            if r * s > 12:
                continue
            cert_exists = not isinstance(
                extension_certificate((r,) * s), NoExtension
            )
            assert cert_exists == (not is_squarefree(r))


def test_certificate_cross_checks_every_class(monkeypatch):
    # no centralizer size and no class shape skips the oracle: (1^12) has
    # z = 12!, and non-rectangles are checked like rectangles
    monkeypatch.setattr(
        characters, "hook_mults_oracle", lambda mu: (0,) * sum(mu)
    )
    for mu in [
        (1,) * 12,
        (2,) * 6,
        (2, 1),
        (3, 2, 1),
        (4, 4, 1),
        (2, 2, 2, 1, 1, 1, 1, 1, 1),
    ]:
        with pytest.raises(ArithmeticError):
            extension_certificate(mu)


def test_certificate_reports_the_first_violation():
    # d = m_0, m_1 - m_0, ...: a negative partial sum at k is named before a
    # nonzero full alternating sum, which is named only when alone
    m = (1, 0, 3, 5)  # d = (1, -1, 4, 1)
    assert lie._certificate_from_mults(m) == NoExtension("negative-partial-sum", 1)
    m = (0, 1, 2, 2, 1)  # d = (0, 1, 1, 1, 0), then a nonzero total
    assert lie._certificate_from_mults(m + (1,)) == NoExtension(
        "alternating-sum-nonzero", 5
    )
    assert lie._certificate_from_mults(m) == (0, 1, 1, 1)


def test_hook_mults_reports_the_first_violation(monkeypatch):
    # e = (1, 0, 3, 5) gives m = (1, -1, 4) and a nonzero total: the
    # negative m_1 is named
    at = r" at \(r,s\)=\(1,3\)$"
    monkeypatch.setattr(lie, "column_row_mults", lambda r, s: (1, 0, 3, 5))
    with pytest.raises(ArithmeticError, match=r"^negative hook multiplicity m_1" + at):
        hook_mults(1, 3)
    monkeypatch.setattr(lie, "column_row_mults", lambda r, s: (1, 2, 3, 5))
    with pytest.raises(ArithmeticError, match=r"^alternating sum of e is nonzero" + at):
        hook_mults(1, 3)


def test_hook_theorem_by_three_routes():
    # on every class with n <= 14: the specialization of Thrall's product,
    # the closed product (1 + t)^(c-1) prod_i N_(i,k_i)(t), and the Des fiber
    # of the initial segment {1, ..., k}, the descent set of exactly one
    # standard tableau, of the hook (n-k, 1^k), and of no other shape
    checked = 0
    for n in range(1, 15):
        for mu in partition_list(n):
            sizes = set(mu)
            closed = math.prod(
                (hook_poly(i, mu.count(i)) for i in sizes),
                start=power_by_squaring(ONE_PLUS_X, len(sizes) - 1),
            ).coeffs
            closed += (0,) * (n - len(closed))
            dist = cdes.descent_distribution(mu)
            fibers = tuple(dist.count(2**k - 1) for k in range(n))
            assert hook_mults_oracle(mu) == closed == fibers, mu
            checked += 1
    assert checked == 507


def test_certificate_reaches_large_rectangles():
    # the oracle cross-check is cheap far beyond any enumerable centralizer
    for r, s in [(100, 1), (40, 4), (6, 6), (1, 60), (2, 30), (40, 8)]:
        cert = extension_certificate((r,) * s)
        assert isinstance(cert, NoExtension) == is_squarefree(r)


def test_certificate_reconstructs_hooks():
    # m_k = d_k + d_(k-1) whenever the certificate exists
    for (r, s) in [(4, 1), (4, 2), (8, 1), (9, 1), (4, 3)]:
        cert = extension_certificate((r,) * s)
        assert not isinstance(cert, NoExtension)
        m = hook_mults(r, s)
        n = r * s
        for k in range(n - 1):
            prev = cert[k - 1] if k >= 1 else 0
            assert m[k] == cert[k] + prev
        assert m[n - 1] == cert[n - 2]


# -- square-divisibility dichotomy -------------------------------------------


def test_squarefree_criterion_r4():
    rep = squarefree_criterion(4, 4)
    assert not rep.squarefree
    assert all(rep.divisible)
    assert rep.moment == moebius(4) == 0
    assert rep.dichotomy_holds


def test_squarefree_criterion_r6():
    rep = squarefree_criterion(6, 4)
    assert rep.squarefree
    assert not any(rep.divisible)
    assert rep.moment == moebius(6) == 1
    assert rep.dichotomy_holds


def test_squarefree_criterion_r1():
    rep = squarefree_criterion(1, 4)
    assert rep.squarefree
    assert rep.moment == 1
    assert rep.dichotomy_holds


def test_dichotomy_sweep():
    for r in range(1, 31):
        rep = squarefree_criterion(r, 4)
        assert rep.dichotomy_holds, r


def test_quotient_series_r4():
    q = quotient_series(4, 4)
    assert q is not None
    assert q.poly == X  # (x + 2x^2 + x^3) / (1 + x)^2
    # [y^s] of the quotient series is s * x^(2s-1)
    for s in range(1, 5):
        assert q.series.coeff(s) == xpow(2 * s - 1, s)
    with pytest.raises(ValueError):
        quotient_series(4, 0)


def test_quotient_series_r8_nonnegative():
    q = quotient_series(8, 4)
    assert q is not None
    assert q.poly.coeffs == (0, 1, 2, 2, 2, 1)
    for s in range(5):
        assert all(c >= 0 for c in q.series.coeff(s).coeffs)


def test_squarefree_criterion_refuses_a_wrong_moment(monkeypatch):
    # f = (0, 1, 2) gives 1 - 2 * 2 = -3, not moebius(2) = -1
    monkeypatch.setattr(lie, "witt_coeffs", lambda r: (0, 1, 2))
    with pytest.raises(ArithmeticError, match=re.escape("moment identity fails at r=2: -3")):
        lie.squarefree_criterion(2, 1)


@pytest.mark.parametrize(
    "row, witt, message",
    [
        ((1, 1), (0, 1, 2, 1, 0), "(1+x)^2 does not divide [y^1] at r=4"),
        ((-1, -2, -1), (0, 1, 2, 1, 0), "negative quotient coefficient at r=4, s=1"),
        ((1, 2, 1), (0, 1), "(1+x)^2 does not divide the Witt polynomial at r=4"),
        ((1, 2, 1), (-1, -2, -1), "negative Witt quotient coefficient at r=4"),
    ],
)
def test_quotient_series_refuses_a_wrong_quotient(row, witt, message, monkeypatch):
    # row y^1 and the Witt polynomial of r = 4 doctored: not divisible by
    # (1+x)^2, or -(1+x)^2, whose quotient is -1
    monkeypatch.setattr(lie, "_column_rows", lambda r, s: ((1,), row))
    monkeypatch.setattr(lie, "witt_coeffs", lambda r: witt)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        lie.quotient_series(4, 1)


def test_quotient_series_squarefree_is_none():
    assert quotient_series(6, 3) is None
    assert quotient_series(1, 3) is None
    assert quotient_series(30, 3) is None


# -- the hooks report --------------------------------------------------------


@pytest.mark.parametrize("r, s", [(4, 2), (6, 1), (2, 2), (1, 3), (12, 3)])
def test_hooks_report_reads_the_four_routes(r, s, capsys):
    assert cli.main(["hooks", str(r), str(s), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]

    def values(table):
        assert [row["k"] for row in table] == list(range(len(table)))
        return tuple(int(row["value"]) for row in table)

    m = hook_mults(r, s)
    cert = extension_certificate((r,) * s)
    assert payload["n"] == r * s
    assert values(payload["witt"]) == witt_coeffs(r)
    assert values(payload["column_row"]) == column_row_mults(r, s)
    assert values(payload["hooks"]) == m
    assert payload["hook_poly"] == hook_poly(r, s).pretty()
    # the certificate is the quotient N_(r,s)/(1+x) whenever 1 + x divides
    quotient = hook_poly(r, s).divide_exact(ONE_PLUS_X)
    if isinstance(cert, NoExtension):
        assert quotient is None
        assert payload["certificate"] is None
        assert payload["no_extension"] == cli.no_extension_payload(cert)
        assert payload["hook_poly_factored"] is None
    else:
        assert quotient == IntPolynomial(cert)
        assert values(payload["certificate"]) == cert
        assert "no_extension" not in payload
        assert payload["hook_poly_factored"] == {
            "factor": "1+x",
            "quotient": quotient.pretty(),
        }


def test_hook_poly_special_families():
    # frozen closed forms: single cycles of prime-squared length stay
    # concentrated; N(2,s) = N(3,s) = x^(2s-1); N(4,s) = s x^(2s-1)(1+x)
    for s in range(1, 6):
        assert hook_poly(2, s) == xpow(2 * s - 1)
        assert hook_poly(3, s) == xpow(2 * s - 1)
        assert hook_poly(4, s) == xpow(2 * s - 1, s) * ONE_PLUS_X


# -- subset-sum identities ---------------------------------------------------


def test_subset_sum_counts_match_hooks_of_full_cycle():
    for n in range(1, 13):
        m = hook_mults(n, 1)
        for k in range(n):
            assert m[k] == subset_sum_count(n, k, include_n=False)


def test_subset_sum_counts_match_witt():
    for n in range(1, 13):
        f = witt_coeffs(n)
        for k in range(n + 1):
            assert f[k] == subset_sum_count(n, k, include_n=True)


def test_subset_sum_edge_cases():
    # k = 0: empty sum is 0, which is 1 mod n only for n = 1
    assert subset_sum_count(1, 0, include_n=False) == 1
    assert subset_sum_count(2, 0, include_n=False) == 0
    # k = n - 1 inside [n-1] picks all of it
    assert subset_sum_count(3, 2, include_n=False) == (1 if (1 + 2) % 3 == 1 else 0)
    for n, k in ((0, 1), (3, -1)):
        with pytest.raises(ValueError, match="need n >= 1"):
            subset_sum_count(n, k)
    # C(59, 1) subsets are walked; C(59, 30) are refused before any
    assert subset_sum_count(60, 1) == 1
    with pytest.raises(ValueError, match="walk limit"):
        subset_sum_count(60, 30)


# -- unimodality -------------------------------------------------------------


def test_hook_mults_unimodal_single_cycles():
    for r in range(1, 41):
        assert is_unimodal(hook_mults(r, 1)), r


def test_hook_mults_unimodal_small_rectangles():
    for r in range(1, 13):
        for s in range(1, 5):
            assert is_unimodal(hook_mults(r, s)), (r, s)
