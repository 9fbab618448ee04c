"""Partition enumeration, staircase permutations, shifted diagram data."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from spinhecke.combinatorics import (
    all_reduced_words,
    cycle_type,
    delta_stat,
    enumerate_partitions,
    is_partition,
    is_strict,
    left_descents,
    left_mul_s,
    min_length_class_representatives,
    parse_word,
    partition_str,
    perm_from_word,
    perm_identity,
    perm_inverse,
    perm_length,
    reduced_word,
    right_mul_s,
    shifted_data,
    w_gamma,
    w_gamma_form,
    word_str,
)


# ---------------------------------------------------------------------------
# partitions


def test_enumeration_small_cases():
    assert enumerate_partitions(3, "strict") == [(3,), (2, 1)]
    assert enumerate_partitions(3, "odd") == [(3,), (1, 1, 1)]
    assert enumerate_partitions(4, "strict") == [(4,), (3, 1)]
    assert enumerate_partitions(4, "odd") == [(3, 1), (1, 1, 1, 1)]
    assert enumerate_partitions(4) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_enumeration_counts():
    # p(n) and the strict = odd coincidence
    expected_all = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
    for n, count in expected_all.items():
        assert len(enumerate_partitions(n)) == count
    for n in range(1, 11):
        strict = enumerate_partitions(n, "strict")
        odd = enumerate_partitions(n, "odd")
        assert len(strict) == len(odd)
        assert all(is_strict(p) for p in strict)
        assert all(is_partition(p) and all(part % 2 for part in p) for p in odd)


def test_enumeration_reverse_lex_order():
    for kind in ("all", "strict", "odd"):
        for n in range(1, 9):
            parts = enumerate_partitions(n, kind)
            assert parts == sorted(parts, reverse=True)
            assert len(set(parts)) == len(parts)
            assert all(sum(p) == n for p in parts)


def test_enumeration_rejects_unknown_kind():
    with pytest.raises(ValueError):
        enumerate_partitions(3, "even")


def test_partition_strings():
    assert partition_str((3, 1)) == "3,1"
    assert partition_str((1,)) == "1"
    assert partition_str(()) == ""


def test_delta_stat():
    assert delta_stat((3,)) == 1
    assert delta_stat((2, 1)) == 0
    assert delta_stat(()) == 0


# ---------------------------------------------------------------------------
# permutations


def test_word_and_multiplication_conventions():
    # right multiplication swaps positions, left multiplication swaps values
    a = perm_from_word([1, 2], 3)
    assert a == (2, 3, 1)
    assert right_mul_s((1, 2, 3), 1) == (2, 1, 3)
    assert left_mul_s(1, (2, 3, 1)) == (1, 3, 2)
    assert right_mul_s((2, 1, 3), 2) == (2, 3, 1)


def test_perm_length_matches_word_length():
    for n in (2, 3, 4):
        for line in itertools.permutations(range(1, n + 1)):
            word = reduced_word(line)
            assert len(word) == perm_length(line)
            assert perm_from_word(word, n) == line


def test_inverse_and_identity():
    for line in itertools.permutations(range(1, 5)):
        inv = perm_inverse(line)
        assert tuple(line[x - 1] for x in inv) == perm_identity(4)
        assert tuple(inv[x - 1] for x in line) == perm_identity(4)
        assert perm_length(inv) == perm_length(line)


def test_reduced_word_is_lex_smallest():
    for line in itertools.permutations(range(1, 5)):
        words = all_reduced_words(line)
        assert reduced_word(line) == min(words)
        # every enumerated word evaluates back and has reduced length
        for word in words:
            assert perm_from_word(word, 4) == line
            assert len(word) == perm_length(line)


def test_descents():
    a = (3, 1, 2)
    assert list(left_descents(a)) == [2]
    inv = perm_inverse(a)
    assert perm_length(left_mul_s(2, a)) == perm_length(a) - 1
    assert inv == (2, 3, 1)


@given(st.integers(2, 6), st.data())
def test_word_evaluation_respects_braid_moves(n, data):
    word = data.draw(st.lists(st.integers(1, n - 1), max_size=8))
    a = perm_from_word(word, n)
    # appending j twice is a no-op
    j = data.draw(st.integers(1, n - 1))
    assert perm_from_word(word + [j, j], n) == a
    # adjacent braid move
    if n >= 3:
        k = data.draw(st.integers(1, n - 2))
        assert perm_from_word(word + [k, k + 1, k], n) == perm_from_word(
            word + [k + 1, k, k + 1], n
        )


def test_cycle_type():
    assert cycle_type((2, 3, 1)) == (3,)
    assert cycle_type((2, 1, 3)) == (2, 1)
    assert cycle_type(perm_identity(4)) == (1, 1, 1, 1)


def test_min_length_class_representatives():
    for n in (2, 3, 4):
        by_class = min_length_class_representatives(n)
        assert sorted(by_class) == sorted(enumerate_partitions(n))
        for mu in enumerate_partitions(n):
            reps = by_class[mu]
            assert w_gamma(mu)[0] in reps
            assert reps == [
                line
                for line in itertools.permutations(range(1, n + 1))
                if cycle_type(line) == mu and perm_length(line) == n - len(mu)
            ]
    # the full cycle class at n=3 has exactly two minimal-length members
    assert len(min_length_class_representatives(3)[(3,)]) == 2


def test_word_strings():
    assert word_str([2, 1, 3, 2, 3, 1]) == "2,1,3,2,3,1"
    assert parse_word("2,1,3,2,3,1") == [2, 1, 3, 2, 3, 1]
    assert parse_word("") == []
    with pytest.raises(ValueError):
        parse_word("1,a")


# ---------------------------------------------------------------------------
# staircase elements


def test_w_gamma_examples():
    perm, word = w_gamma((2, 1))
    assert perm == (2, 1, 3)
    assert word == [1]
    perm, word = w_gamma((3,))
    assert perm == (2, 3, 1)
    assert word == [1, 2]
    perm, word = w_gamma((1, 1, 1))
    assert perm == (1, 2, 3)
    assert word == []


def test_w_gamma_length_and_type():
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            perm, word = w_gamma(mu)
            assert perm_length(perm) == n - len(mu)
            assert len(word) == n - len(mu)
            assert cycle_type(perm) == mu
            assert w_gamma_form(perm) == mu


def test_w_gamma_word_is_the_smallest_reduced_word():
    # the reduced word of a staircase need not be unique, but w_gamma's is
    # the lexicographically smallest, on every composition
    assert sorted(all_reduced_words(w_gamma((2, 2))[0])) == [[1, 3], [3, 1]]
    for n in range(1, 7):
        for gamma in {g for mu in enumerate_partitions(n) for g in itertools.permutations(mu)}:
            perm, word = w_gamma(gamma)
            assert word == reduced_word(perm) == min(all_reduced_words(perm))


def test_w_gamma_form_characterization():
    # exactly the permutations with a(p) <= p+1 everywhere
    for n in (2, 3, 4, 5):
        hits = 0
        for line in itertools.permutations(range(1, n + 1)):
            gamma = w_gamma_form(line)
            cond = all(line[p] <= p + 2 for p in range(n))
            assert (gamma is not None) == cond
            if gamma is not None:
                hits += 1
                assert w_gamma(gamma)[0] == line
        assert hits == 2 ** (n - 1)  # one per composition of n


def test_w_gamma_rejects_bad_composition():
    with pytest.raises(ValueError):
        w_gamma((2, 0, 1))


# ---------------------------------------------------------------------------
# shifted data


def test_hooks_match_the_doubled_diagram():
    # reference: the double of lam glues the shifted diagram, pushed one
    # column right, disjointly to its transpose, and is an ordinary Young
    # diagram; shifted cell (i, j) takes the ordinary hook length of cell
    # (i, j + 1) of the double
    for n in range(1, 15):
        for lam in enumerate_partitions(n, "strict"):
            shifted = {
                (i + 1, j)
                for i, part in enumerate(lam)
                for j in range(i + 1, part + i + 1)
            }
            double = {(i, j + 1) for i, j in shifted} | {
                (j, i) for i, j in shifted
            }
            assert len(double) == 2 * n
            assert all(
                (i == 1 or (i - 1, j) in double) and (j == 1 or (i, j - 1) in double)
                for i, j in double
            )
            hooks = tuple(
                tuple(
                    sum(
                        1
                        for a, b in double
                        if (a == i and b > j) or (b == j + 1 and a > i)
                    )
                    for j in range(i, part + i)
                )
                for i, part in enumerate(lam, start=1)
            )
            assert shifted_data(lam).hooks == hooks, lam


def test_shifted_data_hook_example():
    data = shifted_data((4, 3, 1))
    assert data.hooks == ((7, 5, 4, 2), (4, 3, 1), (1,))
    assert data.contents == ((0, 1, 2, 3), (0, 1, 2), (0,))
    assert data.n_stat == 5
    assert data.delta == 1
    assert math.prod(data.all_hooks()) == 3360


def test_shifted_data_small_cases():
    assert shifted_data((1,)).hooks == ((1,),)
    assert shifted_data((2,)).hooks == ((2, 1),)
    assert shifted_data((2, 1)).hooks == ((3, 2), (1,))
    assert shifted_data((3,)).hooks == ((3, 2, 1),)


def test_shifted_data_rejects_non_strict():
    with pytest.raises(ValueError):
        shifted_data((2, 2))
    with pytest.raises(ValueError):
        shifted_data((1, 2))


def test_hook_count_matches_size():
    for n in range(1, 10):
        for lam in enumerate_partitions(n, "strict"):
            data = shifted_data(lam)
            assert len(data.all_hooks()) == n
            assert len(data.all_contents()) == n
            assert all(h >= 1 for h in data.all_hooks())
            # row i contents are 0..lam_i-1
            for row, part in zip(data.contents, lam):
                assert row == tuple(range(part))


def test_hook_products_divide_factorial_bound():
    # 2^(n - (l - d)/2) * n! / prod(hooks) is the bar-degree; it must be a
    # positive integer for every strict partition
    for n in range(1, 9):
        for lam in enumerate_partitions(n, "strict"):
            data = shifted_data(lam)
            ell, d = len(lam), data.delta
            num = 2 ** (n - (ell - d) // 2) * math.factorial(n)
            den = math.prod(data.all_hooks())
            assert num % den == 0
