import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qplancherel.characters import sigma_eval
from qplancherel.groupcenter import class_product
from qplancherel.observables import (
    ObservableExpansion,
    class_sum_coefficient,
    disjoint_product,
    eval_expansion,
    expansion_str,
    identity_cumulant,
    joint_cumulant,
    product_sigma,
    project_to_class_sums,
    transitive_cumulant_oracle,
)
from qplancherel.partitions import (
    partitions_of,
    size,
    union,
)
from qplancherel.ratfunc import QRat, ZERO

sigma = ObservableExpansion.sigma


def expansion_of(pairs) -> ObservableExpansion:
    return ObservableExpansion({mu: QRat(c) for mu, c in pairs})


small_partition = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.sampled_from(partitions_of(n))
)


class TestProductSigma:
    def test_worked_example_three_two(self):
        assert product_sigma((3,), (2,)) == expansion_of(
            [((3, 2), 1), ((4,), 6), ((2, 1), 6)]
        )

    def test_two_two(self):
        assert product_sigma((2,), (2,)) == expansion_of(
            [((2, 2), 1), ((3,), 4), ((1, 1), 2)]
        )

    def test_one_one(self):
        assert product_sigma((1,), (1,)) == expansion_of([((1, 1), 1), ((1,), 1)])

    def test_empty_is_identity(self):
        assert product_sigma((), (3, 1)) == sigma((3, 1))

    def test_total_multiplicity_counts_matchings(self):
        # sum of coefficients = number of partial injections between
        # position sets of sizes K and L
        for mu, nu in [((3,), (2,)), ((2, 1), (2,)), ((2, 2), (3,))]:
            K, L = size(mu), size(nu)
            expected = sum(
                math.comb(K, j) * math.comb(L, j) * math.factorial(j)
                for j in range(min(K, L) + 1)
            )
            total = sum(c.as_fraction() for c in product_sigma(mu, nu).terms.values())
            assert total == expected

    def test_term_sizes_bookkeeping(self):
        for mu, nu in [((3,), (2,)), ((2, 2), (2,)), ((3, 1), (2, 1))]:
            prod = product_sigma(mu, nu)
            for rho in prod.terms:
                assert max(size(mu), size(nu)) <= size(rho) <= size(mu) + size(nu)
            assert prod[union(mu, nu)] == QRat(1)

    @given(small_partition, small_partition)
    def test_commutative(self, mu, nu):
        assert product_sigma(mu, nu) == product_sigma(nu, mu)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            product_sigma((8,), (7,))


def top_two_terms(mu, nu) -> ObservableExpansion:
    """Oracle: leading and subleading layer of Sigma_mu Sigma_nu in closed
    form.

    Sigma_(mu u nu) plus, for each part c of mu and d of nu, the term
    c*d*Sigma over the index where c and d merge into a (c+d-1)-cycle.
    """
    acc = {union(mu, nu): QRat(1)}
    for i, c in enumerate(mu):
        for j, d in enumerate(nu):
            rest_mu = mu[:i] + mu[i + 1 :]
            rest_nu = nu[:j] + nu[j + 1 :]
            key = union(union(rest_mu, rest_nu), (c + d - 1,))
            acc[key] = acc.get(key, ZERO) + QRat(c * d)
    return ObservableExpansion(acc)


class TestTopTwoTerms:
    def test_examples(self):
        assert top_two_terms((3,), (2,)) == expansion_of([((3, 2), 1), ((4,), 6)])
        assert top_two_terms((2,), (2,)) == expansion_of([((2, 2), 1), ((3,), 4)])
        assert top_two_terms((1,), (1,)) == expansion_of([((1, 1), 1), ((1,), 1)])

    @given(small_partition, small_partition)
    def test_agrees_with_full_product_on_top_layers(self, mu, nu):
        cutoff = size(mu) + size(nu) - 1
        full = product_sigma(mu, nu).terms
        top = top_two_terms(mu, nu).terms
        assert {m: c for m, c in full.items() if size(m) >= cutoff} == {
            m: c for m, c in top.items() if size(m) >= cutoff
        }


class TestDisjointProduct:
    def test_basis_action(self):
        assert disjoint_product(sigma((3,)), sigma((2,))) == sigma((3, 2))
        assert disjoint_product(sigma((2,)), sigma((2,))) == sigma((2, 2))

    def test_bilinearity(self):
        a = sigma((1,)).scale(2)
        b = sigma((1,)).scale(3)
        assert disjoint_product(a, b) == sigma((1, 1)).scale(6)

    @given(small_partition, small_partition)
    def test_degree_adds(self, mu, nu):
        prod = disjoint_product(sigma(mu), sigma(nu))
        assert prod.degree == size(mu) + size(nu)


class TestExpansionContainer:
    def test_no_zero_terms_stored(self):
        e = expansion_of([((2,), 1)]) - expansion_of([((2,), 1)])
        assert e.terms == {}
        assert e.degree == -math.inf

    def test_degree(self):
        assert expansion_of([((3, 2), 2), ((1,), 1)]).degree == 5

    def test_scale_by_zero(self):
        assert sigma((2,)).scale(0).terms == {}


class TestProjection:
    def test_hand_examples(self):
        assert project_to_class_sums(sigma((2,)), 2) == {(2,): QRat(2)}
        assert project_to_class_sums(sigma((2,)), 1) == {}
        assert project_to_class_sums(sigma((1,)), 3) == {(1, 1, 1): QRat(3)}

    def test_coefficient_formula(self):
        # mu with repeated parts and ones
        assert class_sum_coefficient((2, 2), 5) == 8  # 2^2 * 2!
        assert class_sum_coefficient((1,), 3) == 3
        assert class_sum_coefficient((1, 1), 4) == 12  # 4*3 ways into 2 fixed pts + 2
        assert class_sum_coefficient((3,), 2) == 0

    @given(small_partition, st.integers(min_value=1, max_value=7))
    def test_character_consistency(self, mu, n):
        # applying the normalized character of lam to the projection
        # must reproduce sigma_eval; a class sum of type rho contributes
        # |C_rho| * char_normalized
        from qplancherel.characters import char_normalized
        from oracles import conjugacy_class_size

        projected = project_to_class_sums(sigma(mu), n)
        for lam in partitions_of(n):
            total = sum(
                (
                    c.as_fraction()
                    * conjugacy_class_size(full)
                    * char_normalized(lam, full)
                    for full, c in projected.items()
                ),
                Fraction(0),
            )
            assert total == sigma_eval(mu, lam)

    @pytest.mark.parametrize(
        "mu,nu,n",
        [
            ((2,), (2,), 4),
            ((2,), (2,), 5),
            ((3,), (2,), 5),
            ((3,), (2,), 6),
            ((2, 1), (2,), 6),
            ((2, 2), (2,), 6),
            ((3,), (3,), 6),
        ],
    )
    def test_projection_homomorphism_vs_convolution(self, mu, nu, n):
        lhs = project_to_class_sums(product_sigma(mu, nu), n)
        a = project_to_class_sums(sigma(mu), n)
        b = project_to_class_sums(sigma(nu), n)
        rhs: dict = {}
        for ta, ca in a.items():
            for tb, cb in b.items():
                for tc, mult in class_product(ta, tb).items():
                    rhs[tc] = rhs.get(tc, ZERO) + ca * cb * mult
        rhs = {t: c for t, c in rhs.items() if not c.is_zero()}
        assert lhs == rhs


class TestEvaluation:
    @given(small_partition, small_partition, st.integers(min_value=1, max_value=8))
    def test_multiplicative_at_partitions(self, mu, nu, n):
        for lam in partitions_of(n):
            lhs = eval_expansion(product_sigma(mu, nu), lam)
            rhs = QRat(sigma_eval(mu, lam) * sigma_eval(nu, lam))
            assert lhs == rhs


class TestJointCumulant:
    def test_single_argument_is_expectation(self):
        E = lambda a: eval_expansion(a, (3, 1))
        x = sigma((2,))
        assert joint_cumulant(E, [x]) == E(x)

    def test_deterministic_argument_kills_higher_cumulants(self):
        E = lambda a: eval_expansion(a, (2, 2))
        one = ObservableExpansion({(): QRat(1)})
        assert joint_cumulant(E, [one, sigma((2,))]) == ZERO

    @given(
        st.lists(small_partition, min_size=2, max_size=3),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_point_evaluation_is_homomorphism_so_cumulants_vanish(self, mus, n):
        # evaluation at a fixed partition is multiplicative, hence all
        # joint cumulants of order >= 2 w.r.t. it must vanish
        if sum(size(m) for m in mus) > 8:
            return
        for lam in partitions_of(n):
            E = lambda a: eval_expansion(a, lam)
            assert joint_cumulant(E, [sigma(m) for m in mus]) == ZERO


class TestIdentityCumulant:
    def test_hand_examples(self):
        assert identity_cumulant((1, 1)) == sigma((1,))
        assert identity_cumulant((2, 2)) == expansion_of([((3,), 4), ((1, 1), 2)])
        for k in range(1, 6):
            assert identity_cumulant((k,)) == sigma((k,))

    def test_defining_recursion_reassembles_product(self):
        # sum over set partitions of disjoint products of identity
        # cumulants rebuilds the ordinary product
        from qplancherel.partitions import set_partitions_of

        ks = (2, 2, 1)
        full = sigma((ks[0],))
        for k in ks[1:]:
            full = full * sigma((k,))
        total = ObservableExpansion({})
        for pi in set_partitions_of(len(ks)):
            prod = None
            for block in pi:
                part = identity_cumulant(tuple(sorted(ks[i] for i in block)))
                prod = part if prod is None else disjoint_product(prod, part)
            total = total + prod
        assert total == full

    @pytest.mark.parametrize(
        "ks",
        [
            (1, 1),
            (2,),
            (2, 2),
            (2, 1),
            (3, 2),
            (2, 2, 2),
            (3, 3),
            (2, 2, 1),
            (4, 2),
            (2, 2, 2, 2),
            (3, 2, 2),
            (4, 4),
        ],
    )
    def test_matches_transitive_oracle(self, ks):
        assert identity_cumulant(ks) == transitive_cumulant_oracle(ks)

    @pytest.mark.parametrize(
        "ks", [(2, 2), (3, 2), (2, 2, 2), (4, 3), (2, 2, 2, 2), (5, 3), (6, 2)]
    )
    def test_degree_bound(self, ks):
        bound = sum(ks) - len(ks) + 1
        assert identity_cumulant(ks).degree <= bound

    def test_oracle_guard(self):
        with pytest.raises(ValueError):
            transitive_cumulant_oracle((5, 4))


class TestRendering:
    def test_worked_example_format(self):
        s = expansion_str(product_sigma((3,), (2,)))
        assert s == "Sigma[3,2] + 6*Sigma[4] + 6*Sigma[2,1]"

    def test_zero(self):
        assert expansion_str(ObservableExpansion({})) == "0"

    def test_negative_and_fractional_coefficients(self):
        e = ObservableExpansion(
            {(2,): QRat(Fraction(-1, 2)), (1, 1): QRat(Fraction(3, 2))}
        )
        assert expansion_str(e) == "-1/2*Sigma[2] + 3/2*Sigma[1,1]"

    def test_qrat_coefficient(self):
        from qplancherel.ratfunc import QPoly

        e = ObservableExpansion({(2,): QRat(QPoly((0, 1)))})
        assert expansion_str(e) == "(q)*Sigma[2]"

    def test_empty_index_renders(self):
        e = ObservableExpansion({(): QRat(2)})
        assert expansion_str(e) == "2*Sigma[]"
