import math
from fractions import Fraction
from functools import cache
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from qplancherel import characters
from qplancherel.characters import (
    char_normalized,
    char_normalized_float,
    char_unnormalized,
    character_table,
    dim_of,
    log_dim,
    sigma_eval,
)
from qplancherel.measure import sample_rsk_chunk
from qplancherel.partitions import conjugate, partitions_of, size, z_of

from oracles import char_by_border_strips, conjugacy_class_size

# ---------------------------------------------------------------------------
# oracle: Frobenius character formula.  chi^lam(mu) is the coefficient of
# x^(lam + delta) in p_mu(x) * Vandermonde(x), delta = (m-1, ..., 1, 0).
# Exponent-vector polynomials over m variables, no strip removal involved.

Poly = dict[tuple[int, ...], int]


def vandermonde(m: int) -> Poly:
    delta = tuple(range(m - 1, -1, -1))
    out: Poly = {}
    for perm in permutations(range(m)):
        sign = perm_sign(perm)
        exps = tuple(delta[p] for p in perm)
        out[exps] = out.get(exps, 0) + sign
    return out


def perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def mul_by_power_sum(poly: Poly, k: int, m: int, exp_cap: int) -> Poly:
    out: Poly = {}
    for exps, c in poly.items():
        for i in range(m):
            if exps[i] + k > exp_cap:
                continue
            key = exps[:i] + (exps[i] + k,) + exps[i + 1 :]
            out[key] = out.get(key, 0) + c
    return {e: c for e, c in out.items() if c}


@cache
def frobenius_table(n: int) -> dict:
    m = n
    cap = n + m - 1
    table = {}
    for mu in partitions_of(n):
        poly = vandermonde(m)
        for k in mu:
            poly = mul_by_power_sum(poly, k, m, cap)
        row = {}
        for lam in partitions_of(n):
            target = tuple(
                (lam[i] if i < len(lam) else 0) + (m - 1 - i) for i in range(m)
            )
            row[lam] = poly.get(target, 0)
        table[mu] = row
    return table


partitions_small = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.sampled_from(partitions_of(n))
)


class TestDimensions:
    def test_hand_values(self):
        assert dim_of((2, 1)) == 2
        assert dim_of((2, 2)) == 2
        assert dim_of(()) == 1
        for n in range(1, 9):
            assert dim_of((n,)) == 1
            assert dim_of((1,) * n) == 1

    @given(st.integers(min_value=1, max_value=9))
    def test_sum_of_squares(self, n):
        assert sum(dim_of(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)

    @given(partitions_small)
    def test_log_dim_matches_exact(self, lam):
        assert log_dim(lam) == pytest.approx(math.log(dim_of(lam)), abs=1e-10)

    def test_log_dim_large(self):
        lam = (40, 30, 20, 10)
        assert log_dim(lam) == pytest.approx(math.log(dim_of(lam)), rel=1e-12)


class TestCharacterValues:
    def test_standard_rep_of_s3(self):
        assert char_normalized((2, 1), (3,)) == Fraction(-1, 2)
        assert char_normalized((2, 1), (2,)) == 0

    @given(partitions_small)
    def test_identity_class(self, lam):
        assert char_normalized(lam, (1,)) == 1
        assert char_normalized(lam, ()) == 1

    def test_size_guard(self):
        with pytest.raises(ValueError):
            char_unnormalized((2,), (3,))

    def test_s3_table(self):
        t = character_table(3)
        assert t[(3,)] == {(3,): 1, (2, 1): 1, (1, 1, 1): 1}
        assert t[(2, 1)] == {(3,): -1, (2, 1): 0, (1, 1, 1): 2}
        assert t[(1, 1, 1)] == {(3,): 1, (2, 1): -1, (1, 1, 1): 1}

    def test_s4_table(self):
        t = character_table(4)
        cols = partitions_of(4)  # (4),(3,1),(2,2),(2,1,1),(1^4)
        rows = {
            (4,): [1, 1, 1, 1, 1],
            (3, 1): [-1, 0, -1, 1, 3],
            (2, 2): [0, -1, 2, 0, 2],
            (2, 1, 1): [1, 0, -1, -1, 3],
            (1, 1, 1, 1): [-1, 1, 1, -1, 1],
        }
        for lam, expected in rows.items():
            assert [t[lam][mu] for mu in cols] == expected

    @pytest.mark.parametrize("n", range(1, 6))
    def test_against_frobenius_oracle(self, n):
        oracle = frobenius_table(n)
        for mu in partitions_of(n):
            for lam in partitions_of(n):
                assert char_unnormalized(lam, mu) == oracle[mu][lam], (lam, mu)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_column_orthogonality(self, n):
        parts = partitions_of(n)
        table = character_table(n)
        for mu in parts:
            for nu in parts:
                s = sum(table[lam][mu] * table[lam][nu] for lam in parts)
                assert s == (z_of(mu) if mu == nu else 0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_row_orthogonality(self, n):
        parts = partitions_of(n)
        table = character_table(n)
        for lam in parts:
            for rho in parts:
                s = sum(
                    conjugacy_class_size(mu) * table[lam][mu] * table[rho][mu]
                    for mu in parts
                )
                assert s == (math.factorial(n) if lam == rho else 0)

    @pytest.mark.parametrize("m", range(11))
    def test_beads_equal_the_border_strip_rule(self, m):
        # every lam of m, every cycle type of at most m boxes
        mus = [mu for j in range(m + 1) for mu in partitions_of(j)]
        for lam in partitions_of(m):
            for mu in mus:
                assert char_unnormalized(lam, mu) == char_by_border_strips(lam, mu), (lam, mu)

    @pytest.mark.parametrize("mu", [(2,), (3,), (5,), (3, 2), (4, 2, 2), (7,)])
    def test_beads_equal_the_border_strip_rule_on_long_shapes(self, mu):
        # conjugates of RSK shapes at n = 1000, q = 1/2: hundreds of rows,
        # beads far above 0, and strips that empty the bottom rows
        shapes = [conjugate(lam) for lam in sample_rsk_chunk(1000, 0.5, 42, 0, 2)]
        shapes += [(3,) * 40 + (1,) * 300, (1,) * 64, (4, 2, 1, 1, 1, 1)]
        assert min(len(lam) for lam in shapes[:2]) > 200
        for lam in shapes:
            assert char_unnormalized(lam, mu) == char_by_border_strips(lam, mu), (lam, mu)

    @given(partitions_small, st.sampled_from([(2,), (3,), (2, 2), (2, 1), (3, 2)]))
    def test_normalized_in_unit_interval(self, lam, mu):
        if size(mu) > size(lam):
            return
        v = char_normalized(lam, mu)
        assert -1 <= v <= 1


class TestSigmaEval:
    def test_hand_values(self):
        assert sigma_eval((2,), (2, 1)) == 0
        assert sigma_eval((3,), (3,)) == 6
        assert sigma_eval((2,), (1, 1)) == -2

    @given(partitions_small)
    def test_single_cycle_of_length_one(self, lam):
        assert sigma_eval((1,), lam) == size(lam)

    @given(partitions_small)
    def test_oversized_mu_gives_zero(self, lam):
        mu = (size(lam) + 1,)
        assert sigma_eval(mu, lam) == 0

    def test_ones_pad_out(self):
        # mu parts equal to 1 only shift the falling factorial
        lam = (3, 2)
        assert sigma_eval((2, 1), lam) == 5 * 4 * 3 * char_normalized(lam, (2,))

    def test_an_exact_integer_on_every_small_shape(self):
        # every lam of m <= 10 against every mu of at most m boxes, fixed
        # points included
        for m in range(11):
            mus = [mu for j in range(m + 1) for mu in partitions_of(j)]
            for lam in partitions_of(m):
                for mu in mus:
                    value = sigma_eval(mu, lam)
                    assert type(value) is int
                    assert value == math.perm(m, size(mu)) * char_normalized(lam, mu)
                for mu in partitions_of(m + 1):
                    assert sigma_eval(mu, lam) == 0


class TestFloatPath:
    @given(partitions_small, st.sampled_from([(2,), (3,), (2, 2), (4,), (3, 2)]))
    def test_matches_exact_small(self, lam, mu):
        if size(mu) > size(lam):
            return
        exact = float(char_normalized(lam, mu))
        approx = char_normalized_float(lam, mu)
        assert approx == pytest.approx(exact, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=25), min_size=4, max_size=12),
        st.sampled_from([(2,), (3,), (4,), (2, 2), (3, 2), (5,)]),
    )
    def test_matches_exact_fifty_to_hundred(self, parts, mu):
        lam = tuple(sorted(parts, reverse=True))
        assume(50 <= size(lam) <= 100)
        exact = char_normalized(lam, mu)
        approx = char_normalized_float(lam, mu)
        tol = 1e-9 * max(1.0, abs(float(exact)))
        assert abs(approx - float(exact)) <= tol

    def test_thousand_box_row_shape(self):
        # one huge row: trivial representation, all characters 1
        lam = (1000,)
        assert char_normalized_float(lam, (3,)) == pytest.approx(1.0, abs=1e-12)

    def test_thousand_box_column_shape(self):
        # sign character: value on a 2-cycle is -1.  The float path
        # rounds the exact value correctly, so it is -1.0 exactly
        lam = (1,) * 1000
        assert char_normalized_float(lam, (2,)) == -1.0


# every shape of at most 12 boxes, and every cycle type without fixed
# points of size at most 6; the fit of a type of size k uses only the
# shapes of at most k boxes, so most of these lie past its nodes
SHAPES_TO_12 = [lam for m in range(13) for lam in partitions_of(m)]
STRIP_TYPES_TO_6 = [rho for m in range(2, 7) for rho in partitions_of(m) if min(rho) >= 2]


def float_path_mismatches() -> list[tuple]:
    """(lam, rho) where the float path is not the correctly rounded
    exact normalized character."""
    return [
        (lam, rho)
        for rho in STRIP_TYPES_TO_6
        for lam in SHAPES_TO_12
        if size(rho) <= size(lam)
        and char_normalized_float(lam, rho) != float(char_normalized(lam, rho))
    ]


class TestContentMomentPath:
    def test_correctly_rounded_on_every_small_shape(self):
        assert float_path_mismatches() == []

    def test_a_wrong_fitted_coefficient_is_caught(self, monkeypatch):
        real = characters._content_polynomial

        def one_coefficient_off(mu):
            mu_size, k, d, terms = real(mu)
            if mu == (3, 2):
                (c, nu), *rest = terms
                terms = ((c + 1, nu), *rest)
            return mu_size, k, d, terms

        monkeypatch.setattr(characters, "_content_polynomial", one_coefficient_off)
        wrong = float_path_mismatches()
        assert wrong and {rho for _, rho in wrong} == {(3, 2)}

    def test_one_fit_per_strip_type(self):
        # mu and mu 1^j share the fit of their parts >= 2
        characters._content_polynomial((4,))
        fits = characters._content_fit.cache_info().misses
        for mu in [(4, 1), (4, 1, 1)]:
            assert characters._content_polynomial(mu)[1:] == characters._content_polynomial((4,))[1:]
        assert characters._content_fit.cache_info().misses == fits
        assert characters._content_polynomial((4, 1, 1))[0] == 6

    def test_the_fit_is_integral_and_the_right_size(self):
        # the monomials of weight <= k are indexed by the partitions of
        # size <= k: 19 of them at k = 5
        mu_size, k, d, terms = characters._content_polynomial((5, 1))
        assert (mu_size, k) == (6, 5) and len(terms) <= 19
        assert all(type(c) is int for c, _ in terms) and d >= 1
        assert {nu for _, nu in terms} <= set(SHAPES_TO_12[:19])

    def test_sigma_2_and_sigma_3_in_content_power_sums(self):
        # Sigma_2 = 2 p_1 and Sigma_3 = 3 p_2 - (3/2) n (n - 1), with
        # P_m = sum_j<m C(m, j) p_j: P_2 = n + 2 p_1, P_3 = n + 3 p_1 + 3 p_2
        assert characters._content_polynomial((2,))[1:] == (2, 1, ((-1, (1,)), (1, (2,))))
        k, d, terms = characters._content_polynomial((3,))[1:]
        lam = (5, 3, 3, 1)
        contents = [j - i for i, row in enumerate(lam) for j in range(row)]
        n, p1, p2 = len(contents), sum(contents), sum(c * c for c in contents)
        P = {1: n, 2: n + 2 * p1, 3: n + 3 * p1 + 3 * p2}
        value = sum(c * math.prod(P[m] for m in nu) for c, nu in terms)
        assert Fraction(value, d) == 3 * p2 - Fraction(3, 2) * n * (n - 1)
        assert Fraction(value, d) == sigma_eval((3,), lam)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            char_normalized_float((2,), (3,))
        with pytest.raises(ValueError):
            char_normalized_float((2,), (1, 1, 1))
