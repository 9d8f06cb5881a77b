from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
    qrat_sum,
)

from oracles import parse_poly, parse_qrat

halves = st.fractions(max_denominator=8)
small_polys = st.lists(
    st.integers(min_value=-5, max_value=5), min_size=0, max_size=6
).map(QPoly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


def qrats(draw_num=small_polys, draw_den=nonzero_polys):
    return st.builds(QRat, draw_num, draw_den)


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
        q, r = divmod(one_minus_q_int(2), QPoly((1, -1)))
        assert r.is_zero()
        assert q == QPoly((1, 1))

    def test_divmod_remainder(self):
        a = QPoly((1, 0, 1))  # 1 + q^2
        b = QPoly((1, 1))  # 1 + q
        quot, rem = divmod(a, b)
        assert quot * b + rem == a
        assert rem.degree < b.degree

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

    @given(small_polys, nonzero_polys)
    def test_division_identity(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

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
        q, r = divmod(g, c * (1 / c.lead))
        assert r.is_zero()


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

    def test_qrat_sum_matches_left_fold(self):
        terms = [QRat(qint(k), qint(k + 1)) for k in range(1, 6)]
        acc = ZERO
        for t in terms:
            acc = acc + t
        assert qrat_sum(terms) == acc


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
