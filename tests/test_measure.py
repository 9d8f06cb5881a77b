import math
from collections import Counter
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qplancherel.hecke import sigma_q_in_sigma
from qplancherel.measure import (
    GrowthCoherencyError,
    expectation_brute,
    expectation_sigma,
    expectation_sigma_q,
    growth_transitions,
    growth_transitions_symbolic,
    measure_probabilities,
    measure_table,
    measure_value,
    stat_w,
)
from qplancherel.montecarlo import sample_partitions
from qplancherel.observables import ObservableExpansion
from qplancherel.partitions import conjugate, partitions_of, size
from qplancherel.ratfunc import ONE, QPoly, QRat, ZERO, qint

from oracles import parse_qrat

sigma = ObservableExpansion.sigma
sample_exact = partial(sample_partitions, method="exact")
sample_rsk = partial(sample_partitions, method="rsk")
sample_growth = partial(sample_partitions, method="growth")


class TestMeasureValues:
    def test_n_two(self):
        assert measure_value((2,)) == QRat(1, qint(2))
        assert measure_value((1, 1)) == QRat(QPoly.monomial(1), qint(2))

    def test_hook_shape(self):
        assert measure_value((2, 1)) == QRat(QPoly((0, 2)), qint(3))

    @pytest.mark.parametrize("n", range(0, 9))
    def test_normalization(self, n):
        total = ZERO
        for value in measure_table(n).values():
            total = total + value
        assert total == ONE

    @pytest.mark.parametrize("n", range(1, 8))
    def test_plancherel_specialization_at_one(self, n):
        # q -> 1 recovers dim^2 / n!
        from qplancherel.characters import dim_of

        for lam in partitions_of(n):
            assert measure_value(lam).eval_at(Fraction(1)) == Fraction(
                dim_of(lam) ** 2, math.factorial(n)
            )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_conjugation_duality(self, n):
        # M_{n,q}(lam) = M_{n,1/q}(lam'), exactly
        for lam in partitions_of(n):
            dual = measure_value(conjugate(lam)).subs_inverse()
            assert measure_value(lam) == dual

    def test_positivity_at_numeric_q(self):
        for q0 in (Fraction(1, 10), Fraction(1, 2), Fraction(2), Fraction(9, 10)):
            for lam in partitions_of(6):
                assert measure_value(lam).eval_at(q0) > 0

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError, match="q"):
            measure_probabilities(3, -0.5)

    @pytest.mark.parametrize("q0", [0.3, 0.5, 0.8, 2.0])
    def test_float_table_matches_exact(self, q0):
        parts, probs = measure_probabilities(6, q0)
        qr = Fraction(q0).limit_denominator(10**6)
        for lam, p in zip(parts, probs):
            assert p == pytest.approx(float(measure_value(lam).eval_at(qr)), rel=1e-9)


class TestExpectations:
    def test_sigma_two_at_n_two(self):
        assert expectation_sigma((2,), 2) == parse_qrat("(2 - 2*q) / (1 + q)")

    @given(st.integers(min_value=1, max_value=12))
    def test_sigma_single_box(self, n):
        assert expectation_sigma((1,), n) == QRat(n)

    def test_vanishes_above_n(self):
        assert expectation_sigma((3,), 2) == ZERO
        assert expectation_sigma_q((1, 1, 1), 2) == ZERO

    def test_sigma_q_closed_form(self):
        assert expectation_sigma_q((1, 1), 5) == QRat(20)
        assert expectation_sigma_q((2,), 9) == ZERO
        assert expectation_sigma_q((2, 1), 9) == ZERO

    @pytest.mark.parametrize("n", range(1, 9))
    def test_brute_normalization(self, n):
        one = ObservableExpansion({(): QRat(1)})
        assert expectation_brute(one, n) == ONE

    def test_brute_guard(self):
        with pytest.raises(ValueError):
            expectation_brute(sigma((2,)), 31)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sigma_closed_form_matches_brute(self, n):
        for k in range(1, 5):
            for mu in partitions_of(k):
                assert expectation_sigma(mu, n) == expectation_brute(sigma(mu), n), (
                    mu,
                    n,
                )

    @pytest.mark.parametrize("n", range(2, 8))
    def test_sigma_q_closed_form_matches_brute(self, n):
        for k in range(1, 5):
            for mu in partitions_of(k):
                brute = expectation_brute(sigma_q_in_sigma(mu), n)
                assert brute == expectation_sigma_q(mu, n), (mu, n)

    def test_brute_is_linear(self):
        a = sigma((2,)).scale(QRat(QPoly((0, 1)))) + sigma((1, 1))
        lhs = expectation_brute(a, 5)
        rhs = QRat(QPoly((0, 1))) * expectation_brute(
            sigma((2,)), 5
        ) + expectation_brute(sigma((1, 1)), 5)
        assert lhs == rhs


class TestStatW:
    def test_two_box_shapes(self):
        assert stat_w((2,), 2, 0.37) == pytest.approx(math.sqrt(2) * 0.37)
        assert stat_w((1, 1), 2, 0.37) == pytest.approx(-math.sqrt(2))

    def test_guards(self):
        with pytest.raises(ValueError):
            stat_w((3, 1), 1, 0.5)
        with pytest.raises(ValueError):
            stat_w((2, 1), 4, 0.5)

    def test_zero_mean_over_two_box_measure(self):
        # tau_q of a transposition word is 0
        q0 = 0.61
        parts, probs = measure_probabilities(2, q0)
        mean = sum(p * stat_w(lam, 2, q0) for lam, p in zip(parts, probs))
        assert mean == pytest.approx(0.0, abs=1e-12)


class TestExactSampler:
    def test_deterministic(self):
        a = sample_exact(6, 0.5, 500, seed=42)
        b = sample_exact(6, 0.5, 500, seed=42)
        assert a == b
        c = sample_exact(6, 0.5, 500, seed=43)
        assert a != c

    def test_chunked_stream_is_prefix_stable(self):
        long = sample_exact(5, 0.4, 3000, seed=7)
        short = sample_exact(5, 0.4, 1500, seed=7)
        assert long[:1500] == short

    def test_two_box_frequencies(self):
        draws = sample_exact(2, 0.5, 100_000, seed=11)
        freq = Counter(draws)[(2,)] / len(draws)
        assert freq == pytest.approx(2 / 3, abs=0.01)

    def test_small_q_concentrates_on_one_row(self):
        draws = sample_exact(5, 0.1, 20_000, seed=3)
        counts = Counter(draws)
        assert counts.most_common(1)[0][0] == (5,)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            sample_exact(41, 0.5, 10, seed=0)

    def test_large_q_via_duality_matches_small_q(self):
        # the exact table itself handles q > 1; check it against the
        # conjugated law at 1/q
        parts, probs = measure_probabilities(5, 2.0)
        table = dict(zip(parts, probs))
        parts_inv, probs_inv = measure_probabilities(5, 0.5)
        for lam, p in zip(parts_inv, probs_inv):
            assert table[conjugate(lam)] == pytest.approx(p, rel=1e-9)


class TestRskSampler:
    def test_single_letter(self):
        assert set(sample_rsk(1, 0.3, 50, seed=1)) == {(1,)}

    def test_deterministic(self):
        assert sample_rsk(30, 0.5, 200, seed=5) == sample_rsk(30, 0.5, 200, seed=5)

    def test_shapes_are_partitions_of_n(self):
        for lam in sample_rsk(25, 0.6, 100, seed=9):
            assert size(lam) == 25
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))

    def test_rejects_q_one(self):
        with pytest.raises(ValueError):
            sample_rsk(5, 1.0, 10, seed=0)

    def test_first_row_fraction_at_scale(self):
        draws = sample_rsk(1000, 0.5, 1000, seed=42)
        mean_top = np.mean([lam[0] for lam in draws]) / 1000
        assert mean_top == pytest.approx(0.5, abs=0.02)

    def test_q_above_one_conjugates(self):
        # at q = 2 long columns dominate instead of long rows
        draws = sample_rsk(30, 2.0, 200, seed=8)
        mean_len = np.mean([len(lam) for lam in draws])
        draws_inv = sample_rsk(30, 0.5, 200, seed=8)
        mean_top = np.mean([lam[0] for lam in draws_inv])
        assert mean_len == pytest.approx(mean_top, rel=0.15)


class TestGrowthSampler:
    def test_symbolic_first_step(self):
        trans = growth_transitions_symbolic((1,))
        assert trans[(2,)] == QRat(1, qint(2))
        assert trans[(1, 1)] == QRat(QPoly.monomial(1), qint(2))

    @pytest.mark.parametrize("n", range(0, 6))
    def test_symbolic_coherency(self, n):
        for lam in partitions_of(n):
            total = ZERO
            for p in growth_transitions_symbolic(lam).values():
                total = total + p
            assert total == ONE, lam

    @pytest.mark.parametrize("n", range(1, 6))
    def test_marginal_matches_measure(self, n):
        # pushing the symbolic chain forward n steps lands on M_{n,q}
        dist = {(): ONE}
        for _ in range(n):
            new: dict = {}
            for lam, w in dist.items():
                for big, p in growth_transitions_symbolic(lam).items():
                    new[big] = new.get(big, ZERO) + w * p
            dist = new
        for lam, w in dist.items():
            assert w == measure_value(lam), lam

    def test_numeric_transitions_sum_to_one(self):
        for q0 in (0.3, 0.8, 2.0, 5.0):
            for lam in [(), (1,), (3, 1), (2, 2, 1)]:
                _, probs = growth_transitions(lam, q0)
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_coherency_violation_aborts(self, monkeypatch):
        import qplancherel.measure as measure_mod

        monkeypatch.setattr(
            measure_mod, "_log_q_hook_sum", lambda lam, q0: 0.1 * size(lam)
        )
        with pytest.raises(GrowthCoherencyError, match="sum to"):
            growth_transitions((2, 1), 0.5)

    def test_deterministic(self):
        assert sample_growth(8, 0.5, 100, seed=2) == sample_growth(8, 0.5, 100, seed=2)

    def test_sizes(self):
        for lam in sample_growth(7, 1.7, 50, seed=13):
            assert size(lam) == 7

    def test_q_above_one_conjugates_the_dual_chain(self):
        # past n of about 165 the chain run directly at q = 2 loses the
        # 1e-12 coherency; the sampler draws at 1/q and conjugates instead
        draws = sample_growth(200, 2.0, 4, seed=0)
        dual = sample_growth(200, 0.5, 4, seed=0)
        assert draws == [conjugate(lam) for lam in dual]

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            sample_growth(5, 0.0, 10, seed=0)
        with pytest.raises(ValueError):
            sample_growth(5, 1.0, 10, seed=0)
