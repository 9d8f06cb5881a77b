import math
from fractions import Fraction
from functools import cache
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from qplancherel.characters import (
    char_normalized,
    char_normalized_float,
    char_unnormalized,
    character_table,
    dim_of,
    log_dim,
    sigma_eval,
)
from qplancherel.partitions import partitions_of, size, z_of

from oracles import conjugacy_class_size

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
        # sign character: value on a 2-cycle is -1 (1e-9 is the float
        # path's advertised relative accuracy)
        lam = (1,) * 1000
        assert char_normalized_float(lam, (2,)) == pytest.approx(-1.0, rel=1e-9)
