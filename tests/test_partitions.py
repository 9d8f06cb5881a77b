import math
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from qplancherel.partitions import (
    added_row,
    check_partition,
    conjugate,
    covers_of,
    cycle_type,
    hooks,
    n_stat,
    parse_partition,
    partition_str,
    partitions_of,
    set_partitions_of,
    size,
    union,
    z_of,
)

from oracles import border_strips_of, conjugacy_class_size


@st.composite
def partitions(draw, max_size=12):
    n = draw(st.integers(min_value=0, max_value=max_size))
    all_parts = partitions_of(n)
    return all_parts[draw(st.integers(min_value=0, max_value=len(all_parts) - 1))]


class TestEnumeration:
    def test_zero(self):
        assert partitions_of(0) == ((),)

    def test_four_reverse_lex(self):
        assert partitions_of(4) == (
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        )

    def test_count_ten(self):
        assert len(partitions_of(10)) == 42

    def test_counts_match_recurrence(self):
        # p(n) via Euler's pentagonal recurrence, independent of the enumerator
        p = [1]
        for n in range(1, 13):
            total = 0
            k = 1
            while True:
                g1 = k * (3 * k - 1) // 2
                g2 = k * (3 * k + 1) // 2
                if g1 > n and g2 > n:
                    break
                sign = -1 if k % 2 == 0 else 1
                if g1 <= n:
                    total += sign * p[n - g1]
                if g2 <= n:
                    total += sign * p[n - g2]
                k += 1
            p.append(total)
        for n in range(13):
            assert len(partitions_of(n)) == p[n]

    @given(st.integers(min_value=0, max_value=12))
    def test_all_valid_and_distinct(self, n):
        parts = partitions_of(n)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert check_partition(lam) == lam
            assert size(lam) == n


class TestCountingConstants:
    def test_z_values(self):
        assert z_of((2, 1)) == 2
        assert z_of((1, 1, 1)) == 6
        for k in range(1, 8):
            assert z_of((k,)) == k

    @given(st.integers(min_value=1, max_value=10))
    def test_class_sizes_sum_to_factorial(self, n):
        assert sum(conjugacy_class_size(nu) for nu in partitions_of(n)) == math.factorial(n)


class TestDiagramOps:
    def test_hooks(self):
        assert sorted(hooks((2, 1))) == [1, 1, 3]
        assert sorted(hooks((2, 2))) == [1, 2, 2, 3]
        assert hooks(()) == ()

    def test_n_stat(self):
        assert n_stat((2, 1)) == 1
        assert n_stat((1, 1, 1)) == 3
        assert n_stat((5,)) == 0

    def test_conjugate(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate(()) == ()

    def test_union(self):
        assert union((3,), (2,)) == (3, 2)
        assert union((2, 1), (3, 1)) == (3, 2, 1, 1)
        assert union((), (2,)) == (2,)

    @given(partitions())
    def test_conjugate_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam
        assert size(conjugate(lam)) == size(lam)

    @given(partitions())
    def test_hooks_conjugation_invariant(self, lam):
        assert sorted(hooks(lam)) == sorted(hooks(conjugate(lam)))

    @given(partitions())
    def test_n_stat_via_conjugate(self, lam):
        # sum_i (i-1) lam_i = sum_j C(lam'_j, 2)
        assert n_stat(lam) == sum(c * (c - 1) // 2 for c in conjugate(lam))

    @given(partitions(max_size=8), partitions(max_size=8))
    def test_union_size(self, mu, nu):
        assert size(union(mu, nu)) == size(mu) + size(nu)
        assert Counter(union(mu, nu)) == Counter(mu) + Counter(nu)


class TestCovers:
    def test_counts(self):
        assert covers_of(()) == ((1,),)
        assert set(covers_of((2, 1))) == {(3, 1), (2, 2), (2, 1, 1)}

    @given(partitions(max_size=10))
    def test_cover_count_is_distinct_parts_plus_one(self, lam):
        assert len(covers_of(lam)) == len(set(lam)) + 1

    @given(partitions(max_size=10))
    def test_covers_are_valid_and_one_bigger(self, lam):
        for big in covers_of(lam):
            assert check_partition(big) == big
            assert size(big) == size(lam) + 1
            i = added_row(lam, big)
            padded = lam + (0,) * (len(big) - len(lam))
            assert big[i - 1] == padded[i - 1] + 1


class TestSetPartitions:
    def test_small_counts(self):
        assert len(list(set_partitions_of(1))) == 1
        assert len(list(set_partitions_of(3))) == 5
        assert len(list(set_partitions_of(4))) == 15

    @given(st.integers(min_value=1, max_value=7))
    def test_blocks_cover_and_disjoint(self, r):
        seen = set()
        for pi in set_partitions_of(r):
            key = frozenset(frozenset(b) for b in pi)
            assert key not in seen
            seen.add(key)
            elems = [x for b in pi for x in b]
            assert sorted(elems) == list(range(r))

    def test_bell_numbers(self):
        bell = [1, 1, 2, 5, 15, 52, 203, 877]
        for r in range(1, 8):
            assert len(list(set_partitions_of(r))) == bell[r]


def skew_cells(lam, kappa) -> list[tuple[int, int]]:
    """Cells (row, column) of the skew diagram lam / kappa."""
    return [
        (r, c) for r in range(len(lam)) for c in range(kappa[r] if r < len(kappa) else 0, lam[r])
    ]


class TestBorderStrips:
    def test_whole_diagram_strip(self):
        strips = border_strips_of((2, 1), 3)
        assert len(strips) == 1
        [(height, shape_after)] = strips
        assert height == 1
        assert shape_after == ()
        assert len(skew_cells((2, 1), shape_after)) == 3

    def test_no_strip(self):
        assert border_strips_of((1,), 2) == ()

    def test_two_by_two(self):
        strips = border_strips_of((2, 2), 2)
        assert len(strips) == 2
        by_shape = {shape_after: height for height, shape_after in strips}
        # bottom row comes off with height 0, right column with height 1
        assert by_shape == {(2,): 0, (1, 1): 1}

    @given(partitions(max_size=10), st.integers(min_value=1, max_value=6))
    def test_removal_leaves_valid_partition(self, lam, k):
        for _, kappa in border_strips_of(lam, k):
            assert check_partition(kappa) == kappa
            assert size(kappa) == size(lam) - k
            assert len(skew_cells(lam, kappa)) == k
            # kappa fits inside lam
            for i, p in enumerate(kappa):
                assert p <= lam[i]

    @given(partitions(max_size=10), st.integers(min_value=1, max_value=6))
    def test_strip_has_no_two_by_two(self, lam, k):
        for _, shape_after in border_strips_of(lam, k):
            cells = set(skew_cells(lam, shape_after))
            for (r, c) in cells:
                assert not (
                    (r + 1, c) in cells and (r, c + 1) in cells and (r + 1, c + 1) in cells
                )

    @given(partitions(max_size=10), st.integers(min_value=1, max_value=6))
    def test_strip_connected_and_height(self, lam, k):
        for height, shape_after in border_strips_of(lam, k):
            rows = {r for (r, _) in skew_cells(lam, shape_after)}
            assert height == len(rows) - 1
            assert rows == set(range(min(rows), max(rows) + 1))

    def test_single_box_strips_match_corners(self):
        lam = (4, 2, 2, 1)
        strips = border_strips_of(lam, 1)
        shapes = {shape_after for _, shape_after in strips}
        assert shapes == {(3, 2, 2, 1), (4, 2, 1, 1), (4, 2, 2)}
        assert all(height == 0 for height, _ in strips)


class TestTextForms:
    def test_parse_comma(self):
        assert parse_partition("3,1,1") == (3, 1, 1)
        assert parse_partition("") == ()
        assert parse_partition(" 5 ") == (5,)

    def test_parse_json(self):
        assert parse_partition("[3, 1, 1]") == (3, 1, 1)
        assert parse_partition("[]") == ()

    def test_parse_rejects_bad_input(self):
        # a text that starts with [ is a JSON array or no JSON at all
        for text in ("1,3", "0", "a,b", "[3, 1", "[3] [1]", "[[3]]", '["3"]'):
            with pytest.raises(ValueError):
                parse_partition(text)

    @pytest.mark.parametrize("text", ["[true]", "[2, true]"])
    def test_parse_rejects_json_bools(self, text):
        with pytest.raises(ValueError):
            parse_partition(text)

    @given(partitions())
    def test_round_trip(self, lam):
        assert parse_partition(partition_str(lam)) == lam


class TestCycleType:
    def test_hand_values(self):
        assert cycle_type((0, 1, 2)) == (1, 1, 1)
        assert cycle_type((1, 2, 0, 4, 3)) == (3, 2)
        assert cycle_type({5: 9, 9: 5, 7: 7}) == (2, 1)
        assert cycle_type(()) == ()

    @pytest.mark.parametrize("as_dict", [False, True], ids=["tuple", "dict"])
    def test_counts_are_class_sizes(self, as_dict):
        for n in range(8):
            counts = Counter(
                cycle_type(dict(enumerate(p)) if as_dict else p)
                for p in permutations(range(n))
            )
            assert counts == {
                nu: conjugacy_class_size(nu) for nu in partitions_of(n)
            }
