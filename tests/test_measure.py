import hashlib
import math
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qplancherel import measure
from qplancherel.hecke import q_char_normalized, sigma_q_in_sigma
from qplancherel.measure import (
    EXACT_SAMPLER_MAX_N,
    SAMPLER_CHUNK_FNS,
    GrowthCoherencyError,
    _geometric_letters,
    _largest_letter,
    _row_capacities,
    _rsk_shapes,
    chunk_generator,
    expectation_brute,
    expectation_sigma,
    expectation_sigma_q,
    growth_transitions_symbolic,
    measure_probabilities,
    measure_table,
    measure_value,
    sample_growth_chunk,
    sample_rsk_chunk,
    stat_w,
)
from qplancherel.montecarlo import sample_partitions
from qplancherel.observables import ObservableExpansion
from qplancherel.partitions import (
    added_row,
    check_partition,
    conjugate,
    covers_of,
    partitions_of,
    size,
)
from qplancherel.ratfunc import ONE, QPoly, QRat, ZERO, qint

from oracles import (
    char_normalized_float_mn,
    expectation_by_partition,
    growth_shape_by_steps,
    growth_transitions,
    parse_qrat,
    rsk_shape_by_insertion,
    transition_weights,
)

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

    def test_float_table_where_q_to_the_h_overflows(self):
        # at q = 1e300 every q^h with h >= 2 overflows; the table is still
        # the conjugated table at 1/q, which puts its mass on the column
        parts, probs = measure_probabilities(5, 1e300)
        assert probs.sum() == pytest.approx(1.0)
        table = dict(zip(parts, probs))
        assert table[(1,) * 5] == pytest.approx(1.0)
        for lam, p in zip(*measure_probabilities(5, 1e-300)):
            assert table[conjugate(lam)] == pytest.approx(p, rel=1e-9)

    @pytest.mark.parametrize("q0", [0.5, 0.1])
    def test_exact_table_reads_a_float_as_its_exact_fraction(self, q0):
        # a float and its equal Fraction are one cache key: call past it
        table = measure_table.__wrapped__(4, q0)
        assert table == measure_table(4, Fraction(q0))
        assert all(type(v) is Fraction for v in table.values())

    def test_float_table_is_one_shared_read_only_array(self):
        # the gate and the exact sampler read the same cached table
        parts, probs = measure_probabilities(6, 0.5)
        assert measure_probabilities(6, 0.5)[1] is probs
        with pytest.raises(ValueError, match="read-only"):
            probs[0] = 0.0


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


# Sigma_empty + q Sigma_(2) + Sigma_(3,1): symbols of three sizes, one
# coefficient depending on q
MIXED = ObservableExpansion({(): 1, (2,): QRat(QPoly.monomial(1)), (3, 1): 1})


class TestBruteExpectation:
    """`expectation_brute` reduces once per symbol over {n!}_q; the
    reference reduces one measure value times a(lam) per partition."""

    @pytest.mark.parametrize("n", range(0, 9))
    def test_equals_the_per_partition_sum(self, n):
        assert expectation_brute(MIXED, n) == expectation_by_partition(MIXED, n)

    @pytest.fixture
    def fresh_symbol_expectations(self):
        # an E_n[Sigma_rho] cached before a test that patches
        # `_measure_numerator` would hide the patch, and one cached under
        # the patch outlive it
        measure._brute_sigma_expectation.cache_clear()
        yield
        measure._brute_sigma_expectation.cache_clear()

    def test_a_perturbed_numerator_is_caught(self, monkeypatch, fresh_symbol_expectations):
        n, lam = 6, (4, 2)
        want = expectation_by_partition(MIXED, n)  # before the perturbation
        honest = measure._measure_numerator

        def perturbed(mu):
            return honest(mu) + QPoly.monomial(1) if mu == lam else honest(mu)

        monkeypatch.setattr(measure, "_measure_numerator", perturbed)
        assert expectation_brute(MIXED, n) != want


class TestStatW:
    def test_two_box_shapes(self):
        assert stat_w((2,), 2, 0.37) == pytest.approx(math.sqrt(2) * 0.37)
        assert stat_w((1, 1), 2, 0.37) == pytest.approx(-math.sqrt(2))

    def test_guards(self):
        with pytest.raises(ValueError):
            stat_w((3, 1), 1, 0.5)
        with pytest.raises(ValueError, match=r"\|mu\| = 4 exceeds \|lam\| = 3"):
            stat_w((2, 1), 4, 0.5)

    def test_zero_mean_over_two_box_measure(self):
        # tau_q of a transposition word is 0
        q0 = 0.61
        parts, probs = measure_probabilities(2, q0)
        mean = sum(p * stat_w(lam, 2, q0) for lam, p in zip(parts, probs))
        assert mean == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [50, 200, 1000])
    @pytest.mark.parametrize("q0", [0.3, 0.5, 0.9, 2.0])
    def test_against_the_exact_and_the_log_space_characters(self, n, q0):
        # the exact path costs up to about 1 s a shape at n = 1000 (q = 0.9:
        # thousands of big-integer dimensions), so there it checks the
        # first few shapes; the log-space oracle checks all of them.  That
        # oracle is itself off from the exact W by up to 2.3e-11 at
        # n = 1000: it sums lgamma values near 6000, each rounded by ~1e-12
        exact_shapes, mn_tol = (50, 1e-11) if n < 1000 else (4, 1e-10)
        for i, lam in enumerate(sample_rsk(n, q0, 50, seed=3)):
            for k in range(2, 6):
                w = stat_w(lam, k, q0)
                mn = sum(
                    c.eval_at(q0) * char_normalized_float_mn(lam, nu)
                    for nu, c in sigma_q_in_sigma((k,)).terms.items()
                )
                assert abs(w - math.sqrt(n) * mn) <= mn_tol
                if i < exact_shapes:
                    exact = q_char_normalized(lam, (k,), Fraction(q0))
                    assert abs(w - math.sqrt(n) * float(exact)) <= 1e-13


@pytest.mark.parametrize(
    "method, n, q0",
    [
        (method, n, q0)
        for method in sorted(SAMPLER_CHUNK_FNS)
        for n in (0, 6, 14, 15, 200)  # the exact sampler stops at 40
        for q0 in (0.5, 2.0)
        if method != "exact" or n <= EXACT_SAMPLER_MAX_N
    ],
)
def test_an_empty_chunk_is_an_empty_list(method, n, q0):
    assert SAMPLER_CHUNK_FNS[method](n, q0, 3, 1, 0) == []


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

    @pytest.mark.parametrize("m", [1, 7, 1024])
    @pytest.mark.parametrize("n", [0, 1, 2, 6, 50, 200, 1000])
    @pytest.mark.parametrize("q0", [0.3, 0.5, 0.9, 0.99, 2.0])
    def test_chunk_equals_insertion_oracle(self, q0, n, m):
        low = min(q0, 1 / q0)
        letters = _geometric_letters(chunk_generator(11, 0, 3), n, m, low)
        expected = [rsk_shape_by_insertion(letters[i].tolist()) for i in range(m)]
        if q0 > 1:
            expected = [conjugate(lam) for lam in expected]
        assert sample_rsk_chunk(n, q0, 11, 3, m) == expected

    def test_adversarial_words(self):
        n = 200
        words = np.array(
            [
                [5] * n,  # constant: one row
                range(n, 0, -1),  # strictly decreasing: one column, n rows
                np.random.default_rng(1).permutation(n) + 1,  # all distinct
                [1 + (7 * i) % 3 for i in range(n)],
            ],
            dtype=np.int64,
        )
        expected = [rsk_shape_by_insertion(w.tolist()) for w in words]
        assert expected[0] == (n,) and expected[1] == (1,) * n
        assert _rsk_shapes(words) == expected
        assert [_rsk_shapes(words[i : i + 1])[0] for i in range(len(words))] == expected

    @pytest.mark.parametrize("words", [16, 17])
    def test_both_key_dtypes(self, words):
        # the keys are int32 while runs * b * 2^B <= 2^31, the largest key
        # being runs * b * 2^B - 1.  The cheapest words to pass the bound
        # pair one strictly increasing word (runs = n, so n steps) with
        # constant ones (n slots each): at n = 2^13, B = 14, 16 words put
        # the largest key at 2^31 - 1 and 17 words past it
        n = 1 << 13
        letters = np.full((words, n), 7, dtype=np.int64)
        letters[words // 2] = np.arange(1, n + 1)
        runs, bits = n, n.bit_length()
        assert (runs * words * 2**bits <= 2**31) == (words == 16)
        expected = [rsk_shape_by_insertion(w.tolist()) for w in letters]
        assert expected[words // 2] == (n,) and expected[0] == (n,)
        assert _rsk_shapes(letters) == expected

    @staticmethod
    def capacity_words(n):
        """Words that reach the row capacities min(n // (r + 1), N_r),
        N_r the word's letters of rank >= r."""
        k, c = 5, n // 10
        return {
            "increasing": np.arange(1, n + 1),  # one row of n
            "decreasing": np.arange(n, 0, -1),  # row n - 1 holds 1 = n // n
            "constant": np.full(n, 4),  # one row of N_0 = n
            # blocks of c letters k, k - 1, ..., 2, then n - (k - 1) c ones:
            # row k - 1 holds the c letters k, exactly N_(k-1) < n // k
            "staircase": np.repeat(
                np.arange(k, 0, -1), [c] * (k - 1) + [n - (k - 1) * c]
            ),
        }

    @pytest.mark.parametrize("kind", ["increasing", "decreasing", "constant", "staircase"])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 200])
    def test_words_at_their_row_capacities(self, kind, n):
        word = self.capacity_words(n)[kind]
        expected = rsk_shape_by_insertion(word.tolist())
        # the same ranks through both ranking routes and the overflow guard:
        # a narrow alphabet is counted, a wide one sorted, and letters past
        # 2^(63 - B) are ranked before they are shifted into keys
        for letters in (word, word + 10 * n, word * 2**52):
            assert _rsk_shapes(letters[None, :]) == [expected], letters.max()

    @pytest.mark.parametrize("n", [8, 200])
    def test_wide_word_among_narrow_ones(self, n):
        # the batch's runs come from the one word with n distinct letters;
        # the narrow words get no slots past their own few ranks
        rng = np.random.default_rng(n)
        words = rng.integers(1, 3, size=(9, n))
        words[4] = rng.permutation(n) + 1
        words[7] = self.capacity_words(n)["staircase"]
        expected = [rsk_shape_by_insertion(w.tolist()) for w in words]
        assert len(expected[4]) > 2
        assert _rsk_shapes(words) == expected
        assert _rsk_shapes(np.delete(words, 4, axis=0)) == expected[:4] + expected[5:]

    @pytest.mark.parametrize("batch", [1, 7, 100])
    def test_sub_batch_size_does_not_change_shapes(self, monkeypatch, batch):
        n, q0, m = 200, 0.9, 100
        letters = _geometric_letters(chunk_generator(5, 0, 0), n, m, q0)
        expected = [rsk_shape_by_insertion(letters[i].tolist()) for i in range(m)]
        # sub-batches are sized before their letters are drawn, by the
        # largest letter any draw at q0 can give
        per_word = int(_row_capacities(n, min(n, _largest_letter(q0))).sum())
        monkeypatch.setattr(measure, "RSK_TABLE_SLOTS", batch * per_word)
        sizes = []

        def spy(words):
            sizes.append(len(words))
            return _rsk_shapes(words)

        monkeypatch.setattr(measure, "_rsk_shapes", spy)
        assert sample_rsk_chunk(n, q0, 5, 0, m) == expected
        assert sizes == [min(batch, m - i) for i in range(0, m, batch)]

    @pytest.mark.parametrize("q0", [0.5, 2.0])
    def test_python_int_letters_draw_the_same_shapes(self, q0):
        # the insertion oracle on the chunk's numpy int64 letters
        def digest(shapes):
            return hashlib.sha256(repr(shapes).encode()).hexdigest()

        low = min(q0, 1 / q0)
        letters = _geometric_letters(chunk_generator(7, 0, 0), 1000, 300, low)
        old = [rsk_shape_by_insertion(letters[i]) for i in range(300)]
        if q0 > 1:
            old = [conjugate(lam) for lam in old]
        assert digest(sample_rsk(1000, q0, 300, seed=7)) == digest(old)

    def test_alphabet_cap_as_q_nears_one(self):
        # the cap is where a letter's tail mass falls below 2^-64, but it
        # never binds: the largest 53-bit uniform below 1 gives letter
        # 1 + floor(53 ln 2 / -ln q) = 3656 here, so nothing is truncated
        q0 = 0.99
        cap = math.ceil(64 * math.log(2) / -math.log(q0))
        assert cap == 4414 and _largest_letter(q0) == 3656

        class LargestUniform:
            def random(self, shape):
                return np.full(shape, np.nextafter(1.0, 0.0))

        top = _geometric_letters(LargestUniform(), 200, 2, q0)
        assert (top == _largest_letter(q0)).all()
        assert top.max() <= cap
        letters = _geometric_letters(chunk_generator(3, 0, 0), 200, 50, q0)
        assert 1 <= letters.min() and letters.max() <= cap
        for lam in sample_rsk_chunk(200, q0, 3, 0, 50):
            assert size(lam) == 200 and check_partition(lam) == lam

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
                assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q0", [0.05, 0.5, 0.95, 2.0])
    def test_numeric_transitions_match_symbolic(self, q0):
        # the telescoped float products against the exact q-hook quotients
        for n in range(11):
            for lam in partitions_of(n):
                bigs, probs = growth_transitions(lam, q0)
                exact = growth_transitions_symbolic(lam)
                assert bigs == tuple(exact), lam
                for big, p in zip(bigs, probs):
                    assert abs(p - float(exact[big].eval_at(Fraction(q0)))) <= 1e-13

    @pytest.mark.parametrize("m", [1, 7, 300])
    # n <= 14 walks the cached growth table, larger n weighs every step
    @pytest.mark.parametrize("n", [0, 1, 2, 6, 13, 14, 15, 50, 200])
    @pytest.mark.parametrize("q0", [0.05, 0.3, 0.5, 0.9, 0.99, 1.01, 2.0, 20.0])
    def test_chunk_equals_step_oracle(self, q0, n, m):
        # the batched chains against one chain at a time, on the same uniforms
        assert sample_growth_chunk(n, q0, 4, 0, m) == self.step_oracle(n, q0, m)

    @staticmethod
    def step_oracle(n, q0, m):
        us = chunk_generator(4, 0, 0).random((m, n))
        step_q = q0 if q0 < 1 else 1 / q0
        expected = [growth_shape_by_steps(row, step_q) for row in us.tolist()]
        if q0 > 1:
            expected = [conjugate(lam) for lam in expected]
        return expected

    # n = 12 walks the growth table, n = 200 weighs every step
    @pytest.mark.parametrize("n", [12, 200])
    @pytest.mark.parametrize("q0", [0.99999, 1 - 1e-7, 1.00001])
    def test_chunk_equals_step_oracle_near_q_one(self, q0, n):
        # each 1 - q^k is -expm1(k ln q): as 1.0 - q ** k it cancelled, and
        # the chains failed the 1e-12 coherency within a few boxes
        assert sample_growth_chunk(n, q0, 4, 0, 7) == self.step_oracle(n, q0, 7)

    @pytest.mark.parametrize("q0", [0.5, 0.99, 2.0])
    def test_gate_chunk_equals_step_oracle(self, q0):
        # the gate's chunk: 1024 chains walk the 19 shapes of fewer than 6 boxes
        assert sample_growth_chunk(6, q0, 4, 0, 1024) == self.step_oracle(6, q0, 1024)

    @pytest.mark.parametrize("q0", [0.05, 0.5, 0.95])
    def test_batched_weights_are_the_step_weights_bitwise(self, q0, monkeypatch):
        # every shape of at most 10 boxes and the staircases of up to 31
        # parts (32 covers, as many as q = 0.99 reaches at n = 1000) in one
        # batch, so that the small shapes' blocks are dead or padded in
        # most of the runs of blocks: the same floats, not only the same
        # draws
        shapes = [lam for n in range(11) for lam in partitions_of(n)]
        shapes += [tuple(range(k, 0, -1)) for k in range(1, 32)]
        rows = np.zeros((len(shapes), 32), dtype=np.intp)
        for s, lam in enumerate(shapes):
            rows[s, : len(lam)] = lam
        powers = measure._growth_powers(496 + 1, q0)  # up to size + 3
        # blocks per (B, m, C) factor array: one, a few, and the default
        for step in (1, 3, 7, None):
            if step is not None:
                monkeypatch.setattr(measure, "GROWTH_FACTOR_SLOTS", step * len(shapes) * 32)
            tops, count, w = measure._growth_weights(rows, *powers)
            assert w.shape[1] == 32
            for s, lam in enumerate(shapes):
                k = count[s]
                assert w[s, :k].tolist() == list(transition_weights(lam, q0)), lam
                assert not w[s, k:].any(), lam
                added = [added_row(lam, big) - 1 for big in covers_of(lam)]
                assert tops[s, :k].tolist() == added, lam
            monkeypatch.undo()

    @settings(max_examples=80, deadline=None)
    @given(
        shapes=st.lists(
            st.one_of(
                st.lists(st.integers(1, 12), max_size=12).map(
                    lambda parts: tuple(sorted(parts, reverse=True))
                ),
                # up to 32 covers and size 496: the largest exponents
                st.integers(1, 31).map(lambda k: tuple(range(k, 0, -1))),
                # blocks wider and taller than the quotient table
                st.tuples(st.integers(1, 60), st.integers(1, 60)).map(lambda ab: ab[:1] * ab[1]),
            ),
            min_size=1,
            max_size=8,
        ),
        q0=st.sampled_from([0.05, 0.5, 0.95, 1 - 1e-7]),
        blocks=st.sampled_from([1, 2, 5, 40]),
        by_column=st.booleans(),
    )
    def test_mixed_batch_weights_are_the_step_weights_bitwise(
        self, shapes, q0, blocks, by_column
    ):
        # shapes of different cover counts in one batch, so that each
        # shape's dead and padded blocks fall in runs of live blocks of
        # the others; n is the least the largest shape allows
        m, c = len(shapes), max(len(set(lam)) + 1 for lam in shapes)
        rows = np.zeros((m, max(map(len, shapes)) + 1), dtype=np.intp)
        for s, lam in enumerate(shapes):
            rows[s, : len(lam)] = lam
        if by_column:  # the step loop's layout: one column a chain
            rows = np.ascontiguousarray(rows.T).T
        powers = measure._growth_powers(max(map(sum, shapes)) + 1, q0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measure, "GROWTH_FACTOR_SLOTS", blocks * m * c)
            tops, count, w = measure._growth_weights(rows, *powers)
        assert w.shape == tops.shape == (m, c)
        for s, lam in enumerate(shapes):
            k = count[s]
            assert w[s, :k].tolist() == list(transition_weights(lam, q0)), lam
            assert not w[s, k:].any(), lam
            added = [added_row(lam, big) - 1 for big in covers_of(lam)]
            assert tops[s, :k].tolist() == added, lam

    @pytest.mark.parametrize("q0", [0.05, 0.5, 0.95, 2.0])
    def test_growth_table_is_the_step_route_bitwise(self, q0):
        # the running sums each table walk bisects and the covers it moves
        # to, against one shape at a time: the same floats, not only the
        # same draws
        for n in range(1, measure.GROWTH_TABLE_MAX_N + 1):
            table = measure._growth_table(n, q0)
            small = [lam for k in range(n) for lam in partitions_of(k)]
            assert table.shapes == (*small, *partitions_of(n))
            assert not table.incoherent
            for s, lam in enumerate(small):
                k = table.last[s] + 1
                assert table.cum[:k, s].tolist() == list(accumulate(transition_weights(lam, q0))), lam
                assert [table.shapes[j] for j in table.succ[s, :k]] == list(covers_of(lam)), lam

    @pytest.fixture
    def fresh_growth_tables(self):
        # a table cached before a test that patches `_growth_weights`
        # would hide the patch, and one built under the patch outlive it
        measure._growth_table.cache_clear()
        yield
        measure._growth_table.cache_clear()

    @staticmethod
    def inflate_weights(monkeypatch, bad):
        # the weights of the shapes in `bad` scaled by 1.1, past the check
        weights = measure._growth_weights

        def inflated(rows, *powers):
            tops, count, w = weights(rows, *powers)
            for s, row in enumerate(rows.tolist()):
                if tuple(x for x in row if x) in bad:
                    w[s] *= 1.1
            return tops, count, w

        monkeypatch.setattr(measure, "_growth_weights", inflated)

    def test_an_unvisited_incoherent_shape_does_not_fail(self, monkeypatch, fresh_growth_tables):
        # at q = 0.05 no chain of the gate's chunk reaches (1, 1, 1, 1, 1),
        # whose weights the table holds and finds incoherent
        column = (1,) * 5
        self.inflate_weights(monkeypatch, {column})
        draws = sample_growth_chunk(6, 0.05, 4, 0, 1024)
        table = measure._growth_table(6, 0.05)
        assert [table.shapes[s] for s in table.incoherent] == [column]
        assert draws == self.step_oracle(6, 0.05, 1024)
        assert all(len(lam) < 5 for lam in draws)

    def test_coherency_violation_aborts(self, monkeypatch, fresh_growth_tables):
        weights = measure._growth_weights

        def inflated(*args):
            tops, count, w = weights(*args)
            return tops, count, 1.1 * w

        monkeypatch.setattr(measure, "_growth_weights", inflated)
        with pytest.raises(GrowthCoherencyError, match="sum to"):
            sample_growth_chunk(5, 0.5, 1, 0, 7)

    # n = 5 walks the growth table, n = 16 weighs every chain each step
    @pytest.mark.parametrize("n", [5, 16])
    @pytest.mark.parametrize("inflate", ["one shape", "every shape of 3 boxes"])
    def test_coherency_error_names_the_first_failing_chain(
        self, inflate, n, monkeypatch, fresh_growth_tables
    ):
        m, q0 = 64, 0.5
        us = chunk_generator(1, 0, 0).random((m, n))
        at_three = [growth_shape_by_steps(row[:3], q0) for row in us.tolist()]
        bad = {(2, 1)} if inflate == "one shape" else set(partitions_of(3))
        # (3,) has the smallest key of the three, but chain 0 grows (2, 1)
        assert at_three[0] == (2, 1) and (3,) in at_three
        self.inflate_weights(monkeypatch, bad)
        with pytest.raises(GrowthCoherencyError) as err:
            sample_growth_chunk(n, q0, 1, 0, m)
        assert str(err.value).startswith("transition probabilities out of (2, 1) at q = 0.5 ")

    def test_coherency_screen_defers_to_fsum(self):
        # rows whose left-to-right sum and fsum fall on either side of the
        # 1e-12 bound: fsum decides, as it does one chain at a time
        ulp = 2.0**-52
        passes = [1 + 4502 * ulp, (0.5 + 2**-8) * ulp, (0.5 + 2**-8) * ulp]
        fails = [1 + 4503 * ulp, ulp / 4, ulp / 4, ulp / 4]
        w = np.zeros((2, 4))
        w[0, :3], w[1] = passes, fails
        sums = np.cumsum(w, axis=1)[:, -1]
        assert abs(sums[0] - 1) > 1e-12 and abs(math.fsum(passes) - 1) <= 1e-12
        assert abs(sums[1] - 1) <= 1e-12 and abs(math.fsum(fails) - 1) > 1e-12
        assert measure._incoherent(w, sums) == {1: math.fsum(fails)}

    @pytest.mark.parametrize("q0", [0.5, 0.9, 2.0])
    def test_coherent_at_n_1000(self, q0):
        # the 1e-12 transition-sum check holds along every step to n = 1000
        for lam in sample_growth(1000, q0, 64, seed=5):
            assert check_partition(lam) == lam and size(lam) == 1000

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
