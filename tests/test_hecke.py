from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qplancherel import hecke
from qplancherel.characters import char_normalized
from qplancherel.hecke import (
    q_char_normalized,
    ram_round_trip,
    sigma_in_sigma_q,
    sigma_q_in_sigma,
)
from qplancherel.montecarlo import sample_partitions
from qplancherel.observables import ObservableExpansion, eval_expansion
from qplancherel.partitions import partitions_of, size
from qplancherel.ratfunc import QPoly, QRat

from oracles import parse_qrat

sigma = ObservableExpansion.sigma


def all_partitions_up_to(max_size):
    for n in range(1, max_size + 1):
        yield from partitions_of(n)


class TestSigmaQInSigma:
    def test_single_transposition(self):
        e = sigma_q_in_sigma((2,))
        assert e[(2,)] == parse_qrat("1/2 + 1/2*q")
        assert e[(1, 1)] == parse_qrat("-1/2 + 1/2*q")

    def test_length_one_cycle(self):
        assert sigma_q_in_sigma((1,)) == sigma((1,))

    def test_identity_type_word(self):
        # the identity-type quantized symbol evaluates to n(n-1)
        e = sigma_q_in_sigma((1, 1))
        for n in range(2, 7):
            for lam in partitions_of(n):
                assert eval_expansion(e, lam) == QRat(n * (n - 1))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_coefficients_are_polynomials(self, k):
        for rho in partitions_of(k):
            for nu, c in sigma_q_in_sigma(rho).terms.items():
                assert c.is_polynomial(), (rho, nu, str(c))


class TestSigmaInSigmaQ:
    def test_single_transposition(self):
        e = sigma_in_sigma_q((2,))
        # 2(q-1)/(q^2-1) and -(q-1)^2/(q^2-1), reduced
        assert e[(2,)] == QRat(QPoly((2,)), QPoly((1, 1)))
        assert e[(1, 1)] == QRat(QPoly((1, -1)), QPoly((1, 1)))

    def test_length_one_cycle(self):
        assert sigma_in_sigma_q((1,)) == sigma((1,))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_round_trip_is_identity(self, k):
        for rho in partitions_of(k):
            assert ram_round_trip(rho) == sigma(rho), rho


class TestQCharNormalized:
    def test_one_dimensional_representations(self):
        # the quadratic relation forces eigenvalues q and -1
        q = QRat(QPoly((0, 1)))
        assert q_char_normalized((2,), (2,)) == q
        assert q_char_normalized((1, 1), (2,)) == QRat(-1)

    def test_identity_type(self):
        for lam in partitions_of(4):
            assert q_char_normalized(lam, (1, 1)) == QRat(1)
            assert q_char_normalized(lam, ()) == QRat(1)

    def test_standard_rep_of_s3(self):
        # (q-1)/2 + ((q+1)/2) chi^{(2,1)}((2)), and the chi term is 0
        expected = QRat(QPoly((Fraction(-1, 2), Fraction(1, 2))))
        assert q_char_normalized((2, 1), (2,)) == expected

    def test_size_guard(self):
        with pytest.raises(ValueError):
            q_char_normalized((2,), (3,))

    @pytest.mark.parametrize(
        "order", [(0.5, Fraction(1, 2), None), (None, Fraction(1, 2), 0.5)]
    )
    def test_the_type_of_q_picks_the_scalar_domain(self, order):
        # 0.5 == Fraction(1, 2) as cache keys: an untyped coefficient cache
        # would hand the values cached for one to the other
        hecke._coefficients.cache_clear()
        got = {type(q0): q_char_normalized((2, 1), (2,), q0) for q0 in order}
        assert type(got[float]) is float
        assert type(got[Fraction]) is Fraction
        assert type(got[type(None)]) is QRat
        assert got[float] == got[Fraction] == Fraction(-1, 4)
        assert got[type(None)].eval_at(Fraction(1, 2)) == Fraction(-1, 4)

    @settings(deadline=None)
    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda n: st.sampled_from(partitions_of(n))
        ),
        st.sampled_from([(1,), (2,), (3,), (4,), (2, 1), (2, 2), (3, 1)]),
    )
    def test_q_equals_one_specializes_to_symmetric_group(self, lam, mu):
        if size(mu) > size(lam):
            return
        value = q_char_normalized(lam, mu)
        assert value.eval_at(Fraction(1)) == char_normalized(lam, mu)

    def test_float_matches_exact(self):
        for lam in partitions_of(6):
            for mu in [(2,), (3,), (2, 2)]:
                exact = q_char_normalized(lam, mu, Fraction(3, 10))
                approx = q_char_normalized(lam, mu, 0.3)
                assert approx == pytest.approx(float(exact), rel=1e-9)

    def test_large_lambda_float_path(self):
        # single row: trivial module, q-character of a k-cycle is q^{k-1}
        lam = (500,)
        assert q_char_normalized(lam, (3,), 0.5) == pytest.approx(0.25, rel=1e-9)

    def test_single_column_value(self):
        # sign module: T_sigma acts by (-1)^{length}, so a k-cycle word
        # of minimal length k-1 gives (-1)^{k-1}
        lam = (1,) * 30
        assert q_char_normalized(lam, (4,), 0.7) == pytest.approx(-1.0, rel=1e-9)
        assert q_char_normalized((1, 1, 1, 1), (4,), Fraction(1, 3)) == -1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_scalar_domain_follows_q(self, n):
        # None: QRat in q; int or Fraction: the exact value there; float:
        # a float close to it
        for lam in partitions_of(n):
            for k in range(n + 1):
                for mu in partitions_of(k):
                    symbolic = q_char_normalized(lam, mu)
                    assert isinstance(symbolic, QRat)
                    for q0 in (3, Fraction(1, 2), Fraction(2)):
                        exact = q_char_normalized(lam, mu, q0)
                        assert type(exact) is Fraction
                        assert exact == symbolic.eval_at(Fraction(q0))
                    approx = q_char_normalized(lam, mu, 0.5)
                    assert type(approx) is float
                    assert approx == pytest.approx(
                        float(symbolic.eval_at(Fraction(1, 2))), abs=1e-12
                    )


# the float domain against the exact one on sampled shapes; the bound is
# absolute because values near 0 carry relative errors up to ~1e-8
FLOAT_EXACT_ABS_TOL = 1e-11
DIFFERENTIAL_MUS = [(2,), (3,), (4,), (5,), (2, 2), (3, 2), (2, 2, 1), (4, 1), (3, 3)]


@pytest.mark.parametrize("n", [50, 200])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 2.0])
def test_float_domain_matches_exact_on_sampled_shapes(n, q):
    shapes = sample_partitions(n, q, 12, seed=n, method="rsk")
    for lam in shapes:
        for mu in DIFFERENTIAL_MUS:
            exact = q_char_normalized(lam, mu, Fraction(q))
            approx = q_char_normalized(lam, mu, q)
            assert abs(approx - exact) <= FLOAT_EXACT_ABS_TOL, (lam, mu, approx, exact)
