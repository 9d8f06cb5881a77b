"""Limit covariances: route agreement, Mobius inversion, finite-n drift."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplancherel.asymptotics import (
    _closed_weights,
    _moment_table,
    _partition_weights,
    cov_closed_form,
    cov_double_sum,
    cov_z_finite,
    expectation_of_expansion,
    f1_family,
    f2_family,
    joint_cumulant_at,
    limit_cov_z,
    mobius_brute,
    mobius_closed,
    mobius_perm_brute,
    poly_class_function,
    q_char_cumulants_at,
    reduce_covariance_via_mobius,
    third_cumulant_z_at,
    w_shape_at,
)
from qplancherel.measure import expectation_sigma, measure_table
from qplancherel.characters import char_normalized, sigma_eval
from qplancherel.hecke import q_char_normalized, sigma_q_in_sigma
from qplancherel.observables import ObservableExpansion, product_sigma
from qplancherel.partitions import partitions_of, size
from qplancherel.ratfunc import ZERO, QPoly, QRat, one_minus_q_pow
from qplancherel.selftest import product_rule_cumulants

from oracles import moment_differences_by_fractions

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
    for k in range(2, 11):
        for l in range(k, 11):
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
        reduce_covariance_via_mobius(0, 2)
    # no cap on the double sum past k + l = 14
    assert cov_double_sum(7, 8) == cov_closed_form(7, 8)


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


def test_partition_weights_are_the_closed_weights():
    # the inversion theorem itself, as one vector per n
    for n in range(2, 26):
        assert _partition_weights(n) == _closed_weights(n)


@pytest.mark.parametrize("n", range(2, 8))
def test_permutation_counts_give_the_same_weights(n):
    # f(m) = q^m makes the sum the generating polynomial of the weights
    q_power = lambda m: QRat(QPoly.monomial(m))
    weights = _partition_weights(n)
    assert mobius_perm_brute(q_power, n) == sum(
        (q_power(m) * w for m, w in enumerate(weights)), ZERO
    )


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


@pytest.mark.parametrize("route", [mobius_brute, mobius_perm_brute])
def test_mobius_oracles_evaluate_f_once_per_length(route):
    honest = poly_class_function([1, -2, 0, 3])
    calls = Counter()

    def f(m):
        calls[m] += 1
        return honest(m)

    assert route(f, 6) == mobius_closed(honest, 6)
    assert set(calls) <= set(range(1, 7)) and set(calls.values()) == {1}


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

def brute_moment(exps, n, q0):
    """E[prod Sigma_mu] at q0 by full enumeration over partitions of n."""
    total = Fraction(0)
    for lam, w in measure_table(n, q0).items():
        for mu in exps:
            w *= sigma_eval(mu, lam)
        total += w
    return total


def brute_cov(mu, nu, n, q0):
    return brute_moment([mu, nu], n, q0) - brute_moment([mu], n, q0) * brute_moment(
        [nu], n, q0
    )


# n = 9 lies past the interpolation nodes: sizes m <= 4 for the covariance
# of Sigma_(2), m <= 3 |mu| = 6 for its third cumulant
@pytest.mark.parametrize("n", [4, 6, 9])
def test_cov_z_finite_against_enumeration(n):
    mu, nu = (2,), (2,)
    for q0 in (HALF, Fraction(2)):
        assert cov_z_finite(mu, nu, n, q0) == brute_cov(mu, nu, n, q0) / n**3


def test_cov_z_finite_mixed_sizes():
    n, mu, nu = 7, (3,), (2,)
    assert cov_z_finite(mu, nu, n, HALF) == brute_cov(mu, nu, n, HALF) / n**4


@pytest.mark.parametrize("q0", [HALF, Fraction(2)])
@pytest.mark.parametrize("mu, nu", [((2,), (3,)), ((6,), (5,))])
def test_cov_z_finite_matches_product_rule(mu, nu, q0):
    # the moments extended in n from diagrams of at most |mu| + |nu| boxes
    # against the product rule averaged at q0, as exact Fractions, up to
    # |mu| + |nu| = 11 and n = 1000
    for n in (12, 41, 1000):
        mixed = expectation_of_expansion(product_sigma(mu, nu), n, q0).as_fraction()
        means = expectation_sigma(mu, n) * expectation_sigma(nu, n)
        want = (mixed - means.eval_at(q0)) / n ** (size(mu) + size(nu) - 1)
        assert cov_z_finite(mu, nu, n, q0) == want


@pytest.mark.parametrize("mu,nu", [((2,), (2,)), ((2,), (3,)), ((3,), (3,))])
def test_drift_shrinks(mu, nu):
    lim = limit_cov_z(mu, nu).eval_at(HALF)
    drift = [abs(cov_z_finite(mu, nu, n, HALF) - lim) for n in (8, 16, 32, 1000)]
    assert drift[0] > drift[1] > drift[2] > drift[3]


def test_expectation_of_expansion_linear():
    a = ObservableExpansion.sigma((2,)).scale(QRat(3)) + ObservableExpansion.sigma(
        (1, 1)
    )
    n = 6
    want = expectation_sigma((2,), n) * 3 + expectation_sigma((1, 1), n)
    for q0 in (HALF, Fraction(2)):
        assert expectation_of_expansion(a, n, q0) == QRat(want.eval_at(q0))


# ---------------------------------------------------------------------------
# third cumulant of the rescaled symbol

def test_third_cumulant_constant_observable():
    # Sigma_1 is deterministic (equal to n), so all higher cumulants vanish
    assert third_cumulant_z_at((1,), 5, HALF) == 0


@pytest.mark.parametrize("n", [4, 6, 9])
def test_third_cumulant_against_enumeration(n):
    mu = (2,)
    for q0 in (HALF, Fraction(2)):
        m1 = brute_moment([mu], n, q0)
        m2 = brute_moment([mu, mu], n, q0)
        m3 = brute_moment([mu, mu, mu], n, q0)
        k3 = m3 - 3 * m2 * m1 + 2 * m1**3
        want = float(k3) * n ** (1.5 - 3 * size(mu))
        assert third_cumulant_z_at(mu, n, q0) == pytest.approx(want, rel=1e-12)


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


def enumerated_cumulants(k, n, q0):
    """Cumulants of chi_q(lam, (k)) up to the fourth, summed over the
    measure table at q0."""
    table = measure_table(n, q0)
    values = {lam: q_char_normalized(lam, (k,), q0) for lam in table}
    mean = sum(w * values[lam] for lam, w in table.items())
    m2, m3, m4 = (
        sum(w * (values[lam] - mean) ** j for lam, w in table.items())
        for j in (2, 3, 4)
    )
    return mean, m2, m3, m4 - 3 * m2**2


@pytest.mark.parametrize("q0", [HALF, Fraction(2), Fraction(0.3)])
@pytest.mark.parametrize("k, orders", [(2, 4), (3, 4), (4, 3)])
def test_shape_targets_match_product_rule(k, orders, q0):
    # the moments extended in n from small diagrams against the r-fold
    # products of Sigma_{k,q}, as exact Fractions
    for n in (12, 1000, 10**4):
        kappa = q_char_cumulants_at(k, n, q0)
        assert len(kappa) == orders
        assert kappa == product_rule_cumulants(k, n, q0, orders)


@pytest.mark.parametrize("q0", [HALF, Fraction(2)])
@pytest.mark.parametrize("k, n", [(2, 9), (2, 10), (2, 11), (3, 13)])
def test_shape_targets_past_the_interpolation_nodes(k, n, q0):
    # the nodes stop at size 4 k; an enumeration beyond them tests that the
    # moments really are polynomials in n of at most that degree
    assert q_char_cumulants_at(k, n, q0) == enumerated_cumulants(k, n, q0)


@pytest.mark.parametrize(
    "q0", [Fraction(1, 10), HALF, Fraction(9, 10), Fraction(99, 100), Fraction(2)]
)
@pytest.mark.parametrize(
    "factors",
    [
        [("q", (2,))] * 4,
        [("q", (3,))] * 4,
        [("q", (4,))] * 3,
        [("plain", (2,)), ("plain", (3,))],
        [("q", (2,)), ("q", (3,))],
        [("q", (2,)), ("q", (3,)), ("q", (3,))],
    ],
    ids=["x2^4", "x3^4", "x4^3", "sigma2*sigma3", "x2*x3", "x2*x3^2"],
)
def test_integer_moment_tables_equal_the_fraction_sums(factors, q0):
    # Sigma_{k,q} at the orders of the report's shape targets, a mixed
    # pair as cov_z_finite passes it, and a two-variable table of order 3.
    # The table over the distinct factors at order len(factors) holds every
    # sorted monomial; the oracle, read at that monomial as its ordered
    # tuple, gives the monomial's differences as its last prefix.  The
    # table runs to order times the largest degree, so the differences
    # past the monomial's own degree must be 0.
    build = {"q": sigma_q_in_sigma, "plain": ObservableExpansion.sigma}
    xs = tuple(dict.fromkeys(build[kind](mu) for kind, mu in factors))
    table = _moment_table(xs, len(factors), q0)
    assert len(table) == math.comb(len(xs) + len(factors), len(factors)) - 1
    for a, got in table.items():
        oracle = moment_differences_by_fractions(tuple(xs[i] for i in a), q0)
        want = tuple(row[-1] for row in oracle)
        assert got[: len(want)] == want
        assert not any(got[len(want) :])


def enumerated_joint_moments(xs, n, q0):
    """E[x_i], E[x_i x_j] and E[x_i x_j x_l] over the measure table at n,
    for xs of (family, k): x = Sigma_{k,q}(lam) or Sigma_k(lam), taken as
    n^(falling k) times the exact normalized q-character or character."""
    char = {
        "q": lambda lam, k: q_char_normalized(lam, (k,), q0),
        "plain": lambda lam, k: char_normalized(lam, (k,)),
    }
    table = measure_table(n, q0)
    values = {lam: [math.perm(n, k) * char[f](lam, k) for f, k in xs] for lam in table}

    def moment(*idx):
        return sum(w * math.prod(values[lam][i] for i in idx) for lam, w in table.items())

    return moment


@pytest.mark.parametrize("q0", [HALF, Fraction(99, 100), Fraction(2)])
@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("family", ["q", "plain"])
def test_mixed_joint_cumulants_against_enumeration(family, n, q0):
    # kappa(x2, x3) and the mixed third cumulant kappa(x2, x2, x3), read off
    # one joint table, against the measure table.  The Sigma_{k,q} have
    # mean 0, so only the plain Sigma_k, whose means are not 0, test the
    # lower-order terms of the inversion
    build = {"q": sigma_q_in_sigma, "plain": ObservableExpansion.sigma}[family]
    x2, x3 = build((2,)), build((3,))
    E = enumerated_joint_moments([(family, 2), (family, 3)], n, q0)
    assert joint_cumulant_at((x2, x3), n, q0) == E(0, 1) - E(0) * E(1)
    k3 = E(0, 0, 1) - 2 * E(0, 1) * E(0) - E(0, 0) * E(1) + 2 * E(0) ** 2 * E(1)
    assert joint_cumulant_at((x2, x2, x3), n, q0) == k3


def test_cov_z_finite_reads_one_table():
    # a covariance is one read of one table: of order 2 over (Sigma_2,
    # Sigma_3), and over Sigma_3 alone when both symbols are Sigma_3
    _moment_table.cache_clear()
    cov_z_finite((2,), (3,), 10, Fraction(5, 11))
    assert _moment_table.cache_info().currsize == 1
    cov_z_finite((3,), (3,), 10, Fraction(5, 11))
    assert _moment_table.cache_info().currsize == 2


@pytest.mark.parametrize("q0", [HALF, Fraction(2), Fraction(3, 7), Fraction(0.3), 1])
def test_measure_table_at_a_point(q0):
    for n in range(9):
        table = measure_table(n, q0)
        assert table == {lam: w.eval_at(q0) for lam, w in measure_table(n).items()}
        assert list(table) == list(partitions_of(n))
        assert all(isinstance(w, Fraction) for w in table.values())


def test_expectation_at_point_matches_symbolic():
    x = sigma_q_in_sigma((3,))
    a = x * x
    for n in (5, 40):
        symbolic = sum((c * expectation_sigma(rho, n) for rho, c in a.terms.items()), ZERO)
        assert expectation_of_expansion(a, n, HALF) == QRat(symbolic.eval_at(HALF))


def test_shape_targets_out_of_reach():
    # the r-th cumulant stops at r k <= 14, the reach the product rule
    # once set.  It is now the report's scope, kept so that the report's
    # output is unchanged; the interpolation itself could go further
    assert len(q_char_cumulants_at(3, 20, HALF)) == 4
    assert w_shape_at(5, 20, HALF) == (None, None)


@pytest.mark.parametrize("k, n, message", [(1, 20, "k must be >= 2"), (5, 4, "k = 5 exceeds n = 4")])
def test_shape_targets_refuse_a_k_out_of_range(k, n, message):
    with pytest.raises(ValueError, match=message):
        q_char_cumulants_at(k, n, HALF)


@pytest.mark.parametrize("first, second", [(0.5, HALF), (HALF, 0.5)])
def test_shape_targets_at_a_float_q_do_not_depend_on_call_order(first, second):
    # 0.5 and 1/2 are one cache key; both orders must give the same values
    q_char_cumulants_at.cache_clear()
    a = w_shape_at(2, 20, first)
    b = w_shape_at(2, 20, second)
    q_char_cumulants_at.cache_clear()
    assert a == b == w_shape_at(2, 20, HALF)
    assert all(type(c) is Fraction for c in q_char_cumulants_at(2, 20, 0.5))


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
