from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement

import pytest

from qplancherel.partitions import partitions_of, z_of
from qplancherel.symfunc import h_in_p, p_in_h, transition_matrix

# ---------------------------------------------------------------------------
# oracle: explicit polynomial expansion in k variables, m-coefficients
# extracted from monomials with sorted exponents, transitions recovered by
# exact linear algebra.  Independent of the Newton/zof routes in the module.

Poly = dict[tuple[int, ...], Fraction]


def poly_mul(a: Poly, b: Poly, nvars: int) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(ea[i] + eb[i] for i in range(nvars))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def p_poly(j: int, nvars: int) -> Poly:
    out: Poly = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = j
        out[tuple(e)] = out.get(tuple(e), Fraction(0)) + 1
    return out


def h_poly(j: int, nvars: int) -> Poly:
    out: Poly = {}
    for combo in combinations_with_replacement(range(nvars), j):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        key = tuple(e)
        out[key] = out.get(key, Fraction(0)) + 1
    return out


def product_poly(rho, factor, nvars: int) -> Poly:
    acc: Poly = {tuple([0] * nvars): Fraction(1)}
    for part in rho:
        acc = poly_mul(acc, factor(part, nvars), nvars)
    return acc


def m_coefficients(poly: Poly, k: int, nvars: int) -> dict[tuple, Fraction]:
    out = {}
    for nu in partitions_of(k):
        key = tuple(list(nu) + [0] * (nvars - len(nu)))
        out[nu] = poly.get(key, Fraction(0))
    return out


def solve_exact(matrix_rows, rhs):
    """Gaussian elimination over Fractions; matrix given as list of rows."""
    n = len(rhs)
    aug = [list(matrix_rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [xr - f * xc for xr, xc in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


@cache
def oracle_matrices(k: int):
    """(p in m, h in m) coefficient tables at degree k, by brute expansion."""
    nvars = k
    index = partitions_of(k)
    p_rows = {
        rho: m_coefficients(product_poly(rho, p_poly, nvars), k, nvars)
        for rho in index
    }
    h_rows = {
        rho: m_coefficients(product_poly(rho, h_poly, nvars), k, nvars)
        for rho in index
    }
    return p_rows, h_rows


def oracle_p_in_h(rho):
    """Coefficients of p_rho in the h basis via m-expansions + linear solve."""
    k = sum(rho)
    p_rows, h_rows = oracle_matrices(k)
    index = partitions_of(k)
    # p_rho = sum_kappa c_kappa h_kappa as vectors of m-coefficients
    matrix = [[h_rows[kappa][nu] for kappa in index] for nu in index]
    rhs = [p_rows[rho][nu] for nu in index]
    sol = solve_exact(matrix, rhs)
    return {kappa: c for kappa, c in zip(index, sol) if c}


def oracle_h_in_p(rho):
    k = sum(rho)
    p_rows, h_rows = oracle_matrices(k)
    index = partitions_of(k)
    matrix = [[p_rows[mu][nu] for mu in index] for nu in index]
    rhs = [h_rows[rho][nu] for nu in index]
    sol = solve_exact(matrix, rhs)
    return {mu: c for mu, c in zip(index, sol) if c}


# ---------------------------------------------------------------------------

class TestHInP:
    def test_degree_one_and_two(self):
        assert dict(h_in_p((1,)).items()) == {(1,): Fraction(1)}
        assert dict(h_in_p((2,)).items()) == {
            (2,): Fraction(1, 2),
            (1, 1): Fraction(1, 2),
        }
        assert dict(h_in_p((1, 1)).items()) == {(1, 1): Fraction(1)}

    @pytest.mark.parametrize("k", range(1, 6))
    def test_against_polynomial_oracle(self, k):
        for rho in partitions_of(k):
            assert dict(h_in_p(rho).items()) == oracle_h_in_p(rho)


class TestPInH:
    def test_newton_degree_two(self):
        assert dict(p_in_h((2,)).items()) == {(2,): Fraction(2), (1, 1): Fraction(-1)}

    def test_degree_three_single_part(self):
        # p_3 = 3h_3 - 3h_{2,1} + h_{1,1,1}
        assert dict(p_in_h((3,)).items()) == {
            (3,): Fraction(3),
            (2, 1): Fraction(-3),
            (1, 1, 1): Fraction(1),
        }

    @pytest.mark.parametrize("k", range(1, 6))
    def test_against_polynomial_oracle(self, k):
        for rho in partitions_of(k):
            assert dict(p_in_h(rho).items()) == oracle_p_in_h(rho)


def scalar_ph(nu, rho):
    """Hall pairing <p_nu, h_rho> = z_nu [p_nu] h_rho."""
    return z_of(nu) * h_in_p(rho).get(nu, 0)


class TestScalarProducts:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_ph_with_full_row_is_one(self, k):
        # <p_nu, h_k> = 1 for every nu of size k
        for nu in partitions_of(k):
            assert scalar_ph(nu, (k,)) == 1

    def test_ph_examples(self):
        assert scalar_ph((2,), (1, 1)) == 0
        assert scalar_ph((1, 1), (1, 1)) == 2

    def test_mp_examples(self):
        # <m_nu, p_rho> = [h_nu] p_rho, since <m_nu, h_kappa> = delta
        assert p_in_h((2,))[(2,)] == 2
        assert p_in_h((2,))[(1, 1)] == -1
        assert p_in_h((1,))[(1,)] == 1
        assert p_in_h((3,))[(1, 1, 1)] == 1

    @pytest.mark.parametrize("k", range(1, 7))
    def test_transition_matrices_mutually_inverse(self, k):
        # [p_nu coeff of h_kappa] times [h_kappa coeff of p_rho] = identity
        index = partitions_of(k)
        hp = transition_matrix(k, h_in_p)
        ph = transition_matrix(k, p_in_h)
        for nu in index:
            for rho in index:
                entry = sum(hp[nu][kappa] * ph[kappa][rho] for kappa in index)
                assert entry == (1 if nu == rho else 0)
