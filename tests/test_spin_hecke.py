import itertools
import random

import pytest

from spinhecke._linalg import column_rank
from spinhecke.combinatorics import enumerate_partitions, reduced_word, w_gamma
from spinhecke.hecke_clifford import T_gen, c_gen, multiply, one
from spinhecke.scalars import MINUS_ONE, ONE, TWO, V, ZERO
from spinhecke.spin_hecke import (
    R_element,
    canonical_class_word,
    delta_minus,
    dim_clifford_module,
    gimel_minus,
    spin_character_table,
    spin_character_value,
    spin_class_polynomials,
    spin_schur_elements,
    verify_iso,
    verify_trace_vanishing,
)
from spinhecke.traces import zero_vector

V1 = V - ONE


# -- the embedding ------------------------------------------------------------


def test_generator_image_pinned():
    r = R_element([1], 2)
    assert r == multiply(c_gen(2, 1) - c_gen(2, 2), T_gen(2, 1)) + c_gen(2, 2).scale(V1)
    assert r.render() == "c1 T1 + (v-1)*c2 - c2 T1"


def test_square_is_minus_v_squared_plus_one():
    assert R_element([1, 1], 2) == one(2).scale(-(V**2 + ONE))


def test_empty_word_is_the_unit():
    assert R_element([], 3) == one(3)


def test_index_range_checked():
    with pytest.raises(ValueError):
        R_element([2], 2)
    with pytest.raises(ValueError):
        R_element([0], 3)


def test_images_are_odd_elements():
    for n in (2, 3, 4):
        for i in range(1, n):
            assert R_element([i], n).parity() == 1


# -- isomorphism checks --------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_iso(n):
    report = verify_iso(n)
    assert report.passed, report.failure
    assert report.failure is None


def test_verify_iso_counts_all_relations():
    # n=4: four squares + four round trips + two braids + one distant pair
    assert verify_iso(4).checked == 9


def test_verify_iso_needs_a_generator():
    with pytest.raises(ValueError):
        verify_iso(1)


def test_deformed_braid_explicit():
    r1, r2 = R_element([1], 3), R_element([2], 3)
    lhs = multiply(multiply(r1, r2), r1) - multiply(multiply(r2, r1), r2)
    assert lhs == (r2 - r1).scale(V1 * V1)


def test_distant_generators_anticommute():
    r1, r3 = R_element([1], 4), R_element([3], 4)
    assert multiply(r1, r3) == multiply(r3, r1).scale(MINUS_ONE)


def test_round_trip_recovers_T1():
    r = R_element([1], 2)
    back = multiply(r, c_gen(2, 1) - c_gen(2, 2)).scale(MINUS_ONE / TWO) + (
        one(2) - multiply(c_gen(2, 1), c_gen(2, 2))
    ).scale(V1 / TWO)
    assert back == T_gen(2, 1)


# -- the induced trace ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_trace_of_empty_word_is_one(n):
    assert gimel_minus([], n) == ONE


def test_trace_kills_the_full_cycle_word():
    word = canonical_class_word((3,))
    assert word == (1, 2)
    assert gimel_minus(word, 3) == ZERO


def test_trace_pinned_value_rank_four():
    val = gimel_minus([2, 1, 3, 2, 3, 1], 4)
    assert val == MINUS_ONE * V1**4 * (V**2 + ONE)
    assert val.render() == "-v^6+4*v^5-7*v^4+8*v^3-7*v^2+4*v-1"


def test_odd_words_trace_to_zero():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(5):
            word = [rng.randrange(1, n) for _ in range(rng.choice([1, 3, 5]))]
            assert gimel_minus(word, n) == ZERO


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_vanishing_on_minimal_class_words(n):
    report = verify_trace_vanishing(n)
    assert report.passed, report.failure
    assert report.words_checked > 1


# -- spin class polynomials ------------------------------------------------------


def test_canonical_words_give_unit_vectors():
    for n in (2, 3, 4):
        for nu in enumerate_partitions(n, "odd"):
            vec = spin_class_polynomials(canonical_class_word(nu), n)
            for other, val in vec.coeffs.items():
                assert val == (ONE if other == nu else ZERO)


def test_odd_length_words_give_zero_vector():
    assert spin_class_polynomials([1], 2) == zero_vector(2)
    assert spin_class_polynomials([1, 2, 1], 3) == zero_vector(3)


def test_pinned_class_polynomial_rank_four():
    vec = spin_class_polynomials([2, 1, 3, 2, 3, 1], 4)
    assert vec[(1, 1, 1, 1)] == MINUS_ONE * V1**4 * (V**2 + ONE)


def test_trace_reads_off_the_identity_coefficient():
    # gimel-minus takes value 1 on the empty word and 0 on the other class
    # words, so it must agree with the (1^n) coordinate of any even word
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(6):
            word = [rng.randrange(1, n) for _ in range(rng.choice([2, 4]))]
            vec = spin_class_polynomials(word, n)
            assert gimel_minus(word, n) == vec[(1,) * n]


def test_class_polynomial_trace_property():
    rng = random.Random(13)
    for n in (2, 3, 4):
        for _ in range(8):
            a = [rng.randrange(1, n) for _ in range(rng.randrange(1, 4))]
            b = [rng.randrange(1, n) for _ in range(rng.randrange(1, 4))]
            assert spin_class_polynomials(a + b, n) == spin_class_polynomials(b + a, n)


# -- spin characters and Schur elements -------------------------------------------


def test_spin_table_rank_two():
    t = spin_character_table(2)
    assert t.rows == ((2,),) and t.columns == ((1, 1),)
    assert t.entry((2,), (1, 1)) == TWO


def test_spin_table_rank_three_identity_column():
    t = spin_character_table(3)
    assert t.entry((3,), (1, 1, 1)) == TWO
    assert t.entry((2, 1), (1, 1, 1)) == TWO


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_spin_degrees_are_positive_integers(n):
    t = spin_character_table(n)
    ones = (1,) * n
    for lam in t.rows:
        val = t.entry(lam, ones).specialize(1)
        assert val.im == 0
        assert val.re.denominator == 1 and val.re > 0


def test_clifford_module_dimensions():
    assert [dim_clifford_module(n) for n in range(1, 7)] == [2, 2, 4, 4, 8, 8]


def test_delta_minus_flips_at_odd_rank():
    assert delta_minus((2,), 2) == 1
    assert delta_minus((2, 1), 3) == 1
    assert delta_minus((3,), 3) == 0
    assert delta_minus((3, 1), 4) == 0


def test_spin_schur_elements_pinned():
    assert spin_schur_elements(2) == {(2,): ONE}
    got = spin_schur_elements(3)
    assert got[(3,)] == TWO * (V**2 + V + ONE) / (V**2 + ONE)
    assert got[(2, 1)] == (V**2 + V + ONE) / V


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spin_schur_halving_cross_check_passes(n):
    # the RuntimeError inside is the reported-failure path; reaching the
    # return at all means the closed halving relation held for every row
    elements = spin_schur_elements(n)
    assert set(elements) == set(enumerate_partitions(n, "strict"))


@pytest.mark.parametrize("n", [3, 4])
def test_trace_decomposes_through_spin_characters(n):
    elements = spin_schur_elements(n)
    rng = random.Random(17)
    for _ in range(4):
        word = [rng.randrange(1, n) for _ in range(rng.choice([2, 4]))]
        img = R_element(word, n)
        total = ZERO
        for lam, c_minus in elements.items():
            weight = ONE / (TWO ** delta_minus(lam, n) * c_minus)
            total = total + weight * spin_character_value(lam, img)
        assert total == gimel_minus(word, n)


# -- the basis claim ---------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_images_of_reduced_words_are_independent(n):
    perms = list(itertools.permutations(range(1, n + 1)))
    images = [R_element(reduced_word(p), n) for p in perms]
    keys = sorted({key for img in images for key in img.terms})
    rows = [[img.terms.get(key, ZERO) for key in keys] for img in images]
    assert column_rank(rows) == len(perms)


def test_canonical_class_word_examples():
    assert canonical_class_word((2, 2)) == (1, 3)
    assert canonical_class_word((1, 1, 1)) == ()
    perm, _ = w_gamma((3, 1))
    assert canonical_class_word((3, 1)) == tuple(reduced_word(perm))
