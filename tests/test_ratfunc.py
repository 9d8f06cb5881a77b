import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qplancherel.asymptotics import cov_closed_form
from qplancherel.hecke import sigma_q_in_sigma
from qplancherel.measure import expectation_brute, measure_table
from qplancherel.observables import ObservableExpansion
from qplancherel.ratfunc import (
    ONE,
    PoleError,
    QPoly,
    QRat,
    ZERO,
    one_minus_q_int,
    one_minus_q_pow,
    poly_gcd,
    qfactorial,
    qint,
)

from oracles import (
    frac_add,
    frac_divmod,
    frac_eval,
    frac_gcd,
    frac_mul,
    frac_strip,
    parse_poly,
    parse_qrat,
    qrat_add_by_one_gcd,
    qrat_div_by_one_gcd,
    qrat_mul_by_one_gcd,
    qrat_sub_by_one_gcd,
    qrat_sum_by_denominator,
)

halves = st.fractions(max_denominator=8)
small_polys = st.lists(
    st.integers(min_value=-5, max_value=5), min_size=0, max_size=6
).map(QPoly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


def qrats(draw_num=small_polys, draw_den=nonzero_polys):
    return st.builds(QRat, draw_num, draw_den)


# products of factors out of a small pool of (1 - q^a) and {a}_q: every
# denominator has a factor 1 - q^a, so the denominators of two draws
# share 1 - q unless a numerator cancels it; a numerator starts from a
# small integer polynomial times a rational constant
one_minus_q_factors = st.integers(min_value=1, max_value=6).map(one_minus_q_int)
cyclotomic_factors = st.one_of(
    one_minus_q_factors, st.integers(min_value=2, max_value=6).map(qint)
)
small_factors = st.builds(
    QPoly.__mul__,
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3)
    .map(QPoly)
    .filter(lambda p: not p.is_zero()),
    st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool),
)


def products(first, rest):
    return st.tuples(first, st.lists(rest, max_size=3)).map(
        lambda fs: math.prod(fs[1], start=fs[0])
    )


shared_factor_qrats = st.builds(
    QRat,
    products(small_factors, cyclotomic_factors),
    products(one_minus_q_factors, cyclotomic_factors),
)


class TestQPoly:
    def test_qint_values(self):
        assert qint(1) == QPoly((1,))
        assert qint(3) == QPoly((1, 1, 1))
        assert qint(4).eval(Fraction(1, 2)) == Fraction(15, 8)

    def test_trailing_zeros_stripped(self):
        assert QPoly((1, 0, 0)) == QPoly((1,))
        assert QPoly((0, 0)).is_zero()
        assert QPoly((0,)).degree == -1

    def test_qfactorial(self):
        # {3!}_q = (1+q)(1+q+q^2)
        assert qfactorial(3) == qint(2) * qint(3)
        assert qfactorial(4).eval(Fraction(1)) == 24

    def test_divmod_exact(self):
        # (1 - q^2) = (1 - q)(1 + q)
        assert one_minus_q_int(2).exact_div(QPoly((1, -1))) == QPoly((1, 1))

    def test_exact_div_raises_on_remainder(self):
        with pytest.raises(ValueError):
            QPoly((1, 0, 1)).exact_div(QPoly((1, 1)))

    def test_pow(self):
        assert QPoly((1, 1)) ** 2 == QPoly((1, 2, 1))
        assert QPoly((0, 1)) ** 5 == QPoly.monomial(5)
        assert QPoly((3, 1)) ** 0 == QPoly.const(1)

    def test_reversed(self):
        p = QPoly((2, 0, 3))
        assert p.reversed_() == QPoly((3, 0, 2))

    @given(small_polys, small_polys, small_polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)

    @given(small_polys, small_polys, halves)
    def test_eval_is_homomorphism(self, a, b, x):
        assert (a * b).eval(x) == a.eval(x) * b.eval(x)
        assert (a + b).eval(x) == a.eval(x) + b.eval(x)


class TestPolyGcd:
    def test_shared_cyclotomic_factor(self):
        # gcd(1 - q^4, 1 - q^6) = 1 - q^2
        g = poly_gcd(one_minus_q_int(4), one_minus_q_int(6))
        # monic convention: leading coefficient 1
        assert g == QPoly((-1, 0, 1)) * Fraction(1)
        assert g.lead == 1
        assert one_minus_q_int(4).exact_div(g) is not None

    def test_coprime(self):
        g = poly_gcd(qint(2), qint(3))
        assert g == QPoly.const(1)

    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    def test_gcd_divides_products(self, a, b, c):
        g = poly_gcd(a * c, b * c)
        # c divides the gcd, so division must be exact
        assert g.exact_div(c) * c == g


frac_lists = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=6), min_size=0, max_size=6
)
nonzero_frac_lists = frac_lists.filter(lambda cs: any(cs))


def as_fractions(p: QPoly) -> list[Fraction]:
    return [Fraction(c, p.den) for c in p.ints]


class TestIntegerForm:
    """QPoly against plain Fraction-list arithmetic; its integer tuple
    over one denominator must be canonical."""

    @given(frac_lists)
    def test_canonical_storage(self, xs):
        p = QPoly(xs)
        assert as_fractions(p) == frac_strip(xs)
        assert all(isinstance(c, int) for c in p.ints)
        assert p.den > 0 and math.gcd(p.den, *p.ints) == 1
        assert not p.ints or p.ints[-1] != 0

    @given(frac_lists, frac_lists)
    def test_add_sub_mul(self, xs, ys):
        a, b = QPoly(xs), QPoly(ys)
        assert a + b == QPoly(frac_add(xs, ys))
        assert a - b == QPoly(frac_add(xs, [-y for y in ys]))
        assert a * b == QPoly(frac_mul(xs, ys))

    @given(frac_lists, st.fractions(min_value=-6, max_value=6, max_denominator=6))
    def test_scalar_mul(self, xs, c):
        assert QPoly(xs) * c == QPoly([x * c for x in xs]) == c * QPoly(xs)

    @given(frac_lists, nonzero_frac_lists)
    def test_divmod_and_exact_div(self, xs, ys):
        a, b = QPoly(xs), QPoly(ys)
        quot, rem = frac_divmod(xs, ys)
        assert (a * b).exact_div(b) == a
        if rem:
            with pytest.raises(ValueError):
                a.exact_div(b)
        else:
            assert a.exact_div(b) == QPoly(quot)

    @given(frac_lists, frac_lists)
    def test_gcd(self, xs, ys):
        assert poly_gcd(QPoly(xs), QPoly(ys)) == QPoly(frac_gcd(xs, ys))

    @given(frac_lists, st.fractions(min_value=-3, max_value=3, max_denominator=7))
    def test_eval_exact(self, xs, x):
        value = QPoly(xs).eval(x)
        assert isinstance(value, Fraction) and value == frac_eval(xs, x)

    @given(
        frac_lists,
        st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False),
    )
    def test_eval_float_is_bit_identical(self, xs, x):
        got, want = QPoly(xs).eval(x), frac_eval(frac_strip(xs), x)
        assert got == want and math.copysign(1, got) == math.copysign(1, want)

    def test_eval_float_of_huge_coefficients(self):
        # int / int true division is correctly rounded, like float(Fraction)
        xs = [Fraction(10**30 + 7, 3), Fraction(-(10**40), 9), Fraction(1, 10**25)]
        assert QPoly(xs).eval(0.7) == frac_eval(xs, 0.7)

    @given(frac_lists, frac_lists, st.integers(min_value=1, max_value=12))
    def test_equal_values_print_and_hash_alike(self, xs, ys, k):
        a = QPoly(xs)
        other = (a + QPoly(ys)) * Fraction(k, 7) * Fraction(7, k) - QPoly(ys)
        assert other == a
        assert (other.ints, other.den) == (a.ints, a.den)
        assert repr(other) == repr(a) and hash(other) == hash(a)

    def test_rejects_inexact_scalars(self):
        with pytest.raises(TypeError):
            QPoly((1, 0.5))

    def test_reversed_strips_the_zeros_it_creates(self):
        p = QPoly((0, 0, Fraction(1, 2), 3))
        assert p.reversed_() == QPoly((3, Fraction(1, 2)))
        assert p.reversed_().degree == 1


class TestGolden:
    """Rendered values as the Fraction-coefficient implementation printed
    them; the integer form must not move a character."""

    def test_measure_table_five(self):
        got = {lam: str(v) for lam, v in measure_table(5).items()}
        assert got == {
            (5,): "(1) / (1 + 4*q + 9*q^2 + 15*q^3 + 20*q^4 + 22*q^5 + 20*q^6"
            " + 15*q^7 + 9*q^8 + 4*q^9 + q^10)",
            (4, 1): "(4*q) / (1 + 3*q + 5*q^2 + 6*q^3 + 6*q^4 + 5*q^5 + 3*q^6 + q^7)",
            (3, 2): "(5*q^2) / (1 + 3*q + 5*q^2 + 6*q^3 + 5*q^4 + 3*q^5 + q^6)",
            (3, 1, 1): "(6*q^3) / (1 + 3*q + 4*q^2 + 4*q^3 + 4*q^4 + 3*q^5 + q^6)",
            (2, 2, 1): "(5*q^4) / (1 + 3*q + 5*q^2 + 6*q^3 + 5*q^4 + 3*q^5 + q^6)",
            (2, 1, 1, 1): "(4*q^6) / (1 + 3*q + 5*q^2 + 6*q^3 + 6*q^4 + 5*q^5"
            " + 3*q^6 + q^7)",
            (1, 1, 1, 1, 1): "(q^10) / (1 + 4*q + 9*q^2 + 15*q^3 + 20*q^4 + 22*q^5"
            " + 20*q^6 + 15*q^7 + 9*q^8 + 4*q^9 + q^10)",
        }

    def test_closed_form_covariance(self):
        assert str(cov_closed_form(3, 4)) == (
            "(q^4 - 5*q^5 + 10*q^6 - 10*q^7 + 5*q^8 - q^9)"
            " / (1 + 2*q^2 + q^3 + 2*q^4 + q^5 + 2*q^6 + q^8)"
        )

    def test_brute_expectations(self):
        assert str(expectation_brute(sigma_q_in_sigma((2, 1)), 6)) == "0"
        sigma21 = ObservableExpansion.sigma((2, 1))
        assert str(expectation_brute(sigma21, 5)) == "(60 - 60*q) / (1 + q)"
        multi = ObservableExpansion({(): 1, (2,): QRat(QPoly((0, 1))), (3, 1): 1})
        assert str(expectation_brute(multi, 6)) == (
            "(361 - 328*q - 358*q^2 + 361*q^3 - 30*q^4) / (1 + 2*q + 2*q^2 + q^3)"
        )


class TestQRat:
    def test_cancellation_to_polynomial(self):
        r = QRat(one_minus_q_int(2), one_minus_q_int(1))
        assert r.is_polynomial()
        assert r == QRat(QPoly((1, 1)))

    def test_canonical_form_unique(self):
        a = QRat(one_minus_q_int(2), one_minus_q_int(3))
        b = QRat(one_minus_q_int(2) * QPoly((7,)), one_minus_q_int(3) * QPoly((7,)))
        c = QRat(one_minus_q_int(2) * QPoly((1, 1)), one_minus_q_int(3) * QPoly((1, 1)))
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert a.den.lead == 1

    def test_eval_exact(self):
        r = QRat(qint(3), qint(2))
        assert r.eval_at(Fraction(1, 2)) == Fraction(7, 6)

    def test_eval_float(self):
        r = QRat(qint(3), qint(2))
        assert r.eval_at(0.5) == pytest.approx(7 / 6)

    def test_pole_detection(self):
        r = QRat(QPoly.const(1), one_minus_q_int(1))
        with pytest.raises(PoleError):
            r.eval_at(Fraction(1))

    def test_removable_singularity_evaluates(self):
        # (1-q^2)/(1-q) reduces to 1+q, so q=1 is fine after reduction
        r = QRat(one_minus_q_int(2), one_minus_q_int(1))
        assert r.eval_at(Fraction(1)) == 2

    def test_constant_extraction(self):
        assert QRat(QPoly((3,)), QPoly((4,))).as_fraction() == Fraction(3, 4)
        with pytest.raises(ValueError):
            QRat(qint(2)).as_fraction()

    def test_subs_inverse(self):
        # q -> 1/q on the q-integer [3]_q gives q^{-2}[3]_q
        r = QRat(qint(3))
        s = r.subs_inverse()
        assert s == QRat(qint(3), QPoly.monomial(2))
        assert s.eval_at(Fraction(2)) == QRat(qint(3)).eval_at(Fraction(1, 2))

    def test_subs_inverse_involution(self):
        r = QRat(one_minus_q_pow((2, 3)), qint(4) * qint(2))
        assert r.subs_inverse().subs_inverse() == r

    def test_arith_with_scalars(self):
        r = QRat(qint(2))
        assert r + 1 == QRat(QPoly((2, 1)))
        assert 2 * r == QRat(QPoly((2, 2)))
        assert r - r == ZERO
        assert r / r == ONE

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QRat(QPoly.const(1)) / ZERO
        with pytest.raises(ZeroDivisionError):
            QRat(QPoly.const(1), QPoly())

    def test_negative_power(self):
        r = QRat(qint(2))
        assert r ** -2 == ONE / (r * r)
        with pytest.raises(ZeroDivisionError):
            ZERO**-1

    @given(st.one_of(st.just(ZERO), qrats()))
    def test_power_is_the_repeated_product(self, r):
        # == is structural, so the power is in canonical form too
        acc = ONE
        for n in range(6):
            assert r**n == acc
            acc = acc * r

    def test_hash_agrees_with_eq(self):
        # a constant compares equal to its int or Fraction, so hashes as it
        for value in (0, 3, -7, Fraction(3, 4), Fraction(-5, 2)):
            r = QRat(value)
            assert r == value and hash(r) == hash(value)
            assert len({r, value, Fraction(value)}) == 1
            assert value in {r} and r in {value}
        # a q-dependent one equals no scalar, and hashes as its parts
        r = QRat(one_minus_q_int(2), qint(3))
        assert hash(r) == hash((r.num, r.den))

    def test_eq_is_symmetric_and_equal_values_hash_alike(self):
        # a QPoly equals no QRat and no scalar, whichever side it is on
        values = [0, 2, Fraction(2), Fraction(3, 4), QPoly.const(2), qint(2), QRat(2),
                  QRat(Fraction(3, 4)), QRat(qint(2)), QRat(one_minus_q_int(2), qint(3))]
        for a in values:
            for b in values:
                assert (a == b) == (b == a), (a, b)
                assert a != b or hash(a) == hash(b), (a, b)
        assert len({QRat(qint(2)), qint(2)}) == 2

    @given(qrats(), qrats(), qrats())
    def test_field_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)

    @given(qrats())
    def test_additive_multiplicative_inverses(self, a):
        assert a + (-a) == ZERO
        if not a.is_zero():
            assert a * (ONE / a) == ONE

    @given(qrats(), qrats(), halves)
    def test_eval_commutes_with_arithmetic(self, a, b, x):
        try:
            va, vb = a.eval_at(x), b.eval_at(x)
            vs = (a + b).eval_at(x)
            vp = (a * b).eval_at(x)
        except PoleError:
            return
        assert vs == va + vb
        assert vp == va * vb

    @given(shared_factor_qrats, shared_factor_qrats)
    # 1/(1 - q) - 2/(1 - q^2) = -1/(1 + q): the sum cancels a factor of g
    @example(QRat(1, one_minus_q_int(1)), QRat(2, one_minus_q_int(2)))
    @example(QRat(0), QRat(1, one_minus_q_int(2)))
    def test_split_gcds_equal_the_one_gcd_route(self, x, y):
        routes = [
            (x + y, qrat_add_by_one_gcd(x, y)),
            (x - y, qrat_sub_by_one_gcd(x, y)),
            (x * y, qrat_mul_by_one_gcd(x, y)),
        ]
        if not y.is_zero():
            routes.append((x / y, qrat_div_by_one_gcd(x, y)))
        for got, want in routes:
            assert (got.num, got.den) == (want.num, want.den)
            assert got.den.lead == 1
            assert poly_gcd(got.num, got.den) == QPoly.const(1)

    @given(st.lists(shared_factor_qrats, max_size=8))
    @example([QRat(qint(k), qint(k + 1)) for k in range(1, 6)])
    def test_sum_matches_the_grouped_oracle(self, terms):
        got = sum(terms, ZERO)
        want = qrat_sum_by_denominator(terms)
        assert (got.num, got.den) == (want.num, want.den)
        assert got.den.lead == 1
        assert poly_gcd(got.num, got.den) == QPoly.const(1)


class TestTextForm:
    def test_poly_render(self):
        assert str(QRat(one_minus_q_int(2))) == "1 - q^2"
        assert str(QRat(qint(3))) == "1 + q + q^2"
        assert str(ZERO) == "0"
        assert str(QRat(QPoly((0, 2)))) == "2*q"
        assert str(QRat(QPoly((Fraction(1, 2), 0, Fraction(-3, 4))))) == "1/2 - 3/4*q^2"

    def test_ratio_render(self):
        # reduction cancels the common 1-q first
        r = QRat(one_minus_q_int(2), one_minus_q_int(3))
        assert str(r) == "(1 + q) / (1 + q + q^2)"
        assert str(QRat(QPoly((1, 1)), QPoly((1, 1, 1)))) == "(1 + q) / (1 + q + q^2)"

    def test_parse_examples(self):
        assert parse_qrat("(1 - q^2) / (1 - q^3)") == QRat(
            one_minus_q_int(2), one_minus_q_int(3)
        )
        assert parse_qrat("(1 - q^2) / (1 - q^3)") == QRat(qint(2), qint(3))
        assert parse_qrat("1 + q + q^2") == QRat(qint(3))
        assert parse_poly("-q + 3") == QPoly((3, -1))
        assert parse_poly("1/2*q^2") == QPoly((0, 0, Fraction(1, 2)))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_poly("")
        with pytest.raises(ValueError):
            parse_poly("q^")
        with pytest.raises(ValueError):
            parse_poly("1 ++ q")

    @given(qrats())
    def test_round_trip(self, r):
        assert parse_qrat(str(r)) == r

    def test_one_minus_q_pow(self):
        assert one_minus_q_pow(()) == QPoly.const(1)
        assert one_minus_q_pow((2, 3)) == one_minus_q_int(2) * one_minus_q_int(3)
