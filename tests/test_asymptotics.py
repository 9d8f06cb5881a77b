"""Limit covariances: route agreement, Mobius inversion, finite-n drift."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplancherel.asymptotics import (
    cov_closed_form,
    cov_double_sum,
    cov_z_finite,
    expectation_of_expansion,
    f1_family,
    f2_family,
    limit_cov_z,
    mobius_brute,
    mobius_closed,
    mobius_perm_brute,
    poly_class_function,
    q_char_cumulants_at,
    reduce_covariance_via_mobius,
    third_cumulant_sigma,
    third_cumulant_z_at,
    w_shape_at,
)
from qplancherel.measure import expectation_sigma, measure_table
from qplancherel.characters import sigma_eval
from qplancherel.hecke import q_char_normalized, sigma_q_in_sigma
from qplancherel.observables import ObservableExpansion
from qplancherel.partitions import partitions_of
from qplancherel.ratfunc import QPoly, QRat, one_minus_q_pow, qint, qrat_sum

HALF = Fraction(1, 2)
Q = QPoly.monomial(1)


# ---------------------------------------------------------------------------
# closed form

def test_closed_form_2_2():
    want = QRat(Q * one_minus_q_pow((1, 1, 1)), one_minus_q_pow((3,)))
    assert cov_closed_form(2, 2) == want


@pytest.mark.parametrize(
    "k,l,value",
    [
        (2, 2, Fraction(1, 14)),
        (2, 3, Fraction(1, 70)),
        (3, 3, Fraction(9, 2170)),
        (4, 5, Fraction(1, 12954)),
        (5, 5, Fraction(45, 2206498)),
    ],
)
def test_closed_form_at_half(k, l, value):
    assert cov_closed_form(k, l).eval_at(HALF) == value


def test_closed_form_symmetry():
    for k in range(2, 7):
        for l in range(2, 7):
            assert cov_closed_form(k, l) == cov_closed_form(l, k)


def test_route_agreement():
    # exact structural equality of canonical rational functions
    for k in range(2, 6):
        for l in range(k, 6):
            a = cov_closed_form(k, l)
            assert cov_double_sum(k, l) == a
            assert reduce_covariance_via_mobius(k, l) == a


def test_mobius_route_symmetry():
    for k, l in [(2, 3), (2, 5), (3, 4)]:
        assert reduce_covariance_via_mobius(k, l) == reduce_covariance_via_mobius(l, k)


@pytest.mark.parametrize("q0", [Fraction(1, 10), Fraction(1, 3), HALF, Fraction(9, 10)])
def test_positivity_below_one(q0):
    for k in range(2, 7):
        for l in range(2, 7):
            assert cov_closed_form(k, l).eval_at(q0) > 0


def test_sign_pattern_above_one():
    # at q = 2 the covariance carries sign (-1)^(k+l)
    for k in range(2, 7):
        for l in range(2, 7):
            v = cov_closed_form(k, l).eval_at(Fraction(2))
            assert (v > 0) == ((k + l) % 2 == 0)
            assert v != 0


def test_route_guards():
    with pytest.raises(ValueError):
        cov_closed_form(1, 3)
    with pytest.raises(ValueError):
        cov_double_sum(2, 1)
    with pytest.raises(ValueError):
        cov_double_sum(7, 8)
    with pytest.raises(ValueError):
        reduce_covariance_via_mobius(0, 2)


# ---------------------------------------------------------------------------
# limit covariance of the Z symbols

def test_limit_cov_z_2_2():
    want = QRat(
        QPoly.const(4) * Q * one_minus_q_pow((1,) * 5),
        one_minus_q_pow((2, 2, 3)),
    )
    assert limit_cov_z((2,), (2,)) == want


def test_limit_cov_z_single_box_vanishes():
    for nu in [(2,), (3, 1), (2, 2)]:
        assert limit_cov_z((1,), nu).is_zero()
        assert limit_cov_z(nu, (1,)).is_zero()


def test_limit_cov_z_symmetry():
    for mu, nu in [((2,), (3,)), ((2, 2), (3,)), ((3, 2), (2, 1))]:
        assert limit_cov_z(mu, nu) == limit_cov_z(nu, mu)


@given(
    mu=st.lists(st.integers(2, 5), min_size=1, max_size=3),
    nu=st.lists(st.integers(2, 5), min_size=1, max_size=3),
    ones=st.integers(1, 3),
)
def test_limit_cov_z_ignores_fixed_points(mu, nu, ones):
    # appending parts of size 1 changes neither the pair sum nor the
    # prefactor: each extra 1 contributes (1-q)/(1-q^1) = 1
    mu = tuple(sorted(mu, reverse=True))
    nu = tuple(sorted(nu, reverse=True))
    padded = mu + (1,) * ones
    assert limit_cov_z(padded, nu) == limit_cov_z(mu, nu)


def test_limit_cov_z_empty_rejected():
    with pytest.raises(ValueError):
        limit_cov_z((), (2,))


# ---------------------------------------------------------------------------
# Mobius inversion for additive class functions

def test_mobius_square_example():
    f = poly_class_function([0, 0, 1])
    assert mobius_brute(f, 2) == QRat(-1)
    assert mobius_closed(f, 2) == QRat(-1)


def test_mobius_requires_n_at_least_two():
    f = poly_class_function([1])
    with pytest.raises(ValueError):
        mobius_brute(f, 1)
    with pytest.raises(ValueError):
        mobius_closed(f, 0)


def test_perm_brute_cap():
    with pytest.raises(ValueError):
        mobius_perm_brute(poly_class_function([1]), 8)


@given(
    coeffs=st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=1,
        max_size=4,
    ),
    n=st.integers(2, 10),
)
@settings(max_examples=60, deadline=None)
def test_mobius_brute_equals_closed(coeffs, n):
    f = poly_class_function(coeffs)
    assert mobius_brute(f, n) == mobius_closed(f, n)


@pytest.mark.parametrize("n", range(2, 8))
def test_mobius_partition_form_equals_permutation_form(n):
    for coeffs in [[0, 0, 1], [1, -2, 0, 3], [0, Fraction(1, 2)]]:
        f = poly_class_function(coeffs)
        assert mobius_perm_brute(f, n) == mobius_brute(f, n)


def test_mobius_rational_family():
    # also holds for the non-polynomial class functions used in the
    # covariance reduction
    f = f1_family(3)
    for n in range(2, 9):
        assert mobius_brute(f, n) == mobius_closed(f, n)


def test_f2_degenerate_at_l_two():
    f2 = f2_family(2)
    for m in range(1, 6):
        assert f2(m).is_zero()


def test_f1_hand_value():
    f1 = f1_family(2)
    assert f1(2) == QRat(
        QPoly.const(2) * one_minus_q_pow((1, 1)), one_minus_q_pow((3,))
    )


def test_double_application_reduces_double_sum():
    # stripping the prefactor, the partition grid collapses through two
    # closed-form inversions into the four-fraction expression
    for k, l in [(2, 2), (2, 4), (3, 3), (4, 3)]:
        f1, f2 = f1_family(l), f2_family(l)
        g = lambda m: f2(m) - f1(m)
        prefactor = QRat(Q * one_minus_q_pow((1,) * (k + l - 3)))
        lhs = cov_double_sum(k, l) / prefactor
        assert lhs == mobius_brute(g, k)
        assert lhs == mobius_closed(g, k)


# ---------------------------------------------------------------------------
# finite-n covariance and drift

def brute_moment(exps, n):
    """E[prod Sigma_mu] by full enumeration over partitions of n."""
    table = measure_table(n)
    terms = []
    for lam, w in table.items():
        val = 1
        for mu in exps:
            val *= sigma_eval(mu, lam)
        terms.append(w * val)
    return qrat_sum(terms)


@pytest.mark.parametrize("n", [4, 6])
def test_cov_z_finite_against_enumeration(n):
    mu, nu = (2,), (2,)
    brute = brute_moment([mu, nu], n) - brute_moment([mu], n) * brute_moment([nu], n)
    assert cov_z_finite(mu, nu, n) == brute * Fraction(1, n**3)


def test_cov_z_finite_mixed_sizes():
    n, mu, nu = 7, (3,), (2,)
    brute = brute_moment([mu, nu], n) - brute_moment([mu], n) * brute_moment([nu], n)
    assert cov_z_finite(mu, nu, n) == brute * Fraction(1, n**4)


def test_cov_z_finite_guards():
    with pytest.raises(ValueError):
        cov_z_finite((6,), (5,), 12)
    with pytest.raises(ValueError):
        cov_z_finite((2,), (2,), 41)


@pytest.mark.parametrize("mu,nu", [((2,), (2,)), ((2,), (3,)), ((3,), (3,))])
def test_drift_shrinks(mu, nu):
    lim = limit_cov_z(mu, nu).eval_at(HALF)
    drift = [abs(cov_z_finite(mu, nu, n).eval_at(HALF) - lim) for n in (8, 16, 32)]
    assert drift[0] > drift[1] > drift[2]


def test_expectation_of_expansion_linear():
    a = ObservableExpansion.sigma((2,)).scale(QRat(3)) + ObservableExpansion.sigma(
        (1, 1)
    )
    n = 6
    want = expectation_sigma((2,), n) * 3 + expectation_sigma((1, 1), n)
    assert expectation_of_expansion(a, n) == want


# ---------------------------------------------------------------------------
# third cumulant of the rescaled symbol

def test_third_cumulant_constant_observable():
    # Sigma_1 is deterministic (equal to n), so all higher cumulants vanish
    assert third_cumulant_sigma((1,), 5).is_zero()


@pytest.mark.parametrize("n", [4, 6])
def test_third_cumulant_against_enumeration(n):
    mu = (2,)
    m1 = brute_moment([mu], n)
    m2 = brute_moment([mu, mu], n)
    m3 = brute_moment([mu, mu, mu], n)
    k3 = m3 - m2 * m1 * 3 + m1 * m1 * m1 * 2
    assert third_cumulant_sigma(mu, n) == k3


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", range(3, 9))
def test_shape_targets_against_enumeration(n, k):
    # cumulants of chi_q(lam, (k)) straight from the measure table and the
    # exact q-character values, against the Sigma-algebra route
    probs, values = [], []
    for lam, w in measure_table(n).items():
        probs.append(w.eval_at(HALF))
        values.append(q_char_normalized(lam, (k,), HALF))
    mean = sum(p * v for p, v in zip(probs, values))
    m2, m3, m4 = (
        sum(p * (v - mean) ** j for p, v in zip(probs, values)) for j in (2, 3, 4)
    )
    k4 = m4 - 3 * m2**2
    assert q_char_cumulants_at(k, n, HALF) == (mean, m2, m3, k4)
    # W_k = sqrt(n) chi has the same standardized cumulants: the excess
    # kurtosis is rational, the skewness the signed root of a rational
    skew, exkurt = w_shape_at(k, n, HALF)
    assert exkurt == float(k4 / m2**2)
    assert skew == math.copysign(math.sqrt(m3**2 / m2**3), m3)


def test_expectation_at_point_matches_symbolic():
    x = sigma_q_in_sigma((3,))
    a = x * x
    for n in (5, 40):
        assert expectation_of_expansion(a, n, HALF) == QRat(
            expectation_of_expansion(a, n).eval_at(HALF)
        )


def test_shape_targets_out_of_reach():
    # r-fold products of Sigma_{k,q} are capped at r k <= 14; W_4 (a
    # skewness but no excess kurtosis) is left out because its third
    # cumulant costs seconds of product-rule enumeration
    assert len(q_char_cumulants_at(3, 20, HALF)) == 4
    assert w_shape_at(5, 20, HALF) == (None, None)


def test_desk_scale_shape_targets():
    # the criterion-3 targets at n = 1000, q = 1/2: (skewness, excess
    # kurtosis) of W_2 and W_3
    assert w_shape_at(2, 1000, HALF) == pytest.approx((0.1284, 0.0281), abs=5e-5)
    assert w_shape_at(3, 1000, HALF) == pytest.approx((0.3469, 0.1859), abs=5e-5)


def test_third_cumulant_decay():
    k8 = third_cumulant_z_at((2,), 8, HALF)
    k16 = third_cumulant_z_at((2,), 16, HALF)
    assert 0 < k16 < k8
    # rescaled by sqrt(n) the two values agree within 15 percent, as an
    # n^(-1/2) tail should; n^(-1) or no decay would differ by ~41 percent
    r8, r16 = k8 * 8**0.5, k16 * 16**0.5
    assert abs(r16 - r8) / r8 < 0.15
    # the statistic the CLT report targets, the exact skewness of W_k,
    # falls from n = 1000 to 10000 at the same n^(-1/2) rate
    for k in (2, 3):
        s1 = w_shape_at(k, 1000, HALF)[0]
        s2 = w_shape_at(k, 10_000, HALF)[0]
        assert 0 < s2 < s1
        r1, r2 = s1 * 1000**0.5, s2 * 10_000**0.5
        assert abs(r2 - r1) / r1 < 0.15
