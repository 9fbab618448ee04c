import hashlib
import itertools
import random

import pytest

from _bareiss_reference import solve_exact
from _class_values import values_on_class_vector
from spinhecke import characters, spin_hecke
from spinhecke._linalg import column_rank
from spinhecke.characters import schur_element
from spinhecke.combinatorics import enumerate_partitions, reduced_word, w_gamma
from spinhecke.hecke_clifford import T_gen, c_gen, multiply, one
from spinhecke.scalars import MINUS_ONE, ONE, TWO, V, ZERO, _poly_add, sc_int
from spinhecke.spin_hecke import (
    R_class_vector,
    R_element,
    canonical_class_word,
    class_word_vector,
    delta_minus,
    dim_clifford_module,
    gimel_minus,
    spin_character_table,
    spin_class_polynomials,
    spin_schur_elements,
    verify_iso,
    verify_trace_vanishing,
)
from spinhecke.traces import reduce, zero_vector

V1 = V - ONE


def spin_character_value(lam, h):
    """zeta-minus of an even embedded element: the ordinary value over the
    Clifford-module dimension, doubled at odd rank with an even number of
    rows."""
    n = h.n
    halving = n % 2 == 1 and len(lam) % 2 == 0
    scale = (TWO if halving else ONE) / sc_int(dim_clifford_module(n))
    return scale * values_on_class_vector(reduce(h))[tuple(lam)]


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
            assert {len(I) % 2 for _, I in R_element([i], n).terms} == {1}


# -- isomorphism checks --------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_iso(n):
    assert verify_iso(n) == ""


def test_verify_iso_reaches_every_relation(monkeypatch):
    # a failure planted at the last generator, the last braid and the last
    # distant pair must be found and named: each loop runs to its end
    exact_image = spin_hecke.R_element

    def negated_last(word, n):
        image = exact_image(word, n)
        return image.scale(MINUS_ONE) if tuple(word) == (n - 1,) else image

    with monkeypatch.context() as patch:
        # -R_4 still squares to -(v^2+1), but does not map back to T_4
        patch.setattr(spin_hecke, "R_element", negated_last)
        assert verify_iso(5) == "round trip failed on T_4"
    exact_product = spin_hecke.multiply
    for (i, j), failure in [
        ((4, 3), "deformed braid failed at i=3"),
        ((4, 2), "R_2 R_4 + R_4 R_2 != 0"),
    ]:
        pair = (R_element((i,), 5), R_element((j,), 5))

        def doubled(a, b, pair=pair):
            product = exact_product(a, b)
            return product + product if (a, b) == pair else product

        with monkeypatch.context() as patch:
            patch.setattr(spin_hecke, "multiply", doubled)
            assert verify_iso(5) == failure


def test_verify_iso_holds_without_a_generator():
    assert verify_iso(1) == ""


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
    assert verify_trace_vanishing(n) == ""


def test_vanishing_sweep_reaches_its_last_word(monkeypatch):
    # at n = 4 the sweep ends on the word 1 of class 2,1,1; a value planted
    # there must be found and named
    exact = spin_hecke.gimel_minus
    monkeypatch.setattr(
        spin_hecke, "gimel_minus", lambda word, n: ONE if tuple(word) == (1,) else exact(word, n)
    )
    assert verify_trace_vanishing(4) == "word 1 (class 2,1,1) traces to 1"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_odd_words_have_the_zero_class_vector(n):
    # an odd-length R-word is odd, so its class vector is zero without
    # building it; the built route agrees
    rng = random.Random(n)
    for length in (1, 3, 5):
        word = [rng.randrange(1, n) for _ in range(length)]
        assert R_class_vector(word, n) == reduce(R_element(word, n)) == zero_vector(n), word


@pytest.mark.parametrize("word", [(0,), (1, 2, 3), (3,)])
def test_odd_words_are_checked_before_the_zero_vector(word):
    with pytest.raises(ValueError, match="out of range"):
        R_class_vector(word, 3)


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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_class_polynomials_match_the_spin_table_solve(n):
    # the spin table is D X B with D, X invertible, so solving against it
    # gives the same vector as solving against B alone
    table = spin_character_table(n)
    rows = [[table.entry(lam, nu) for nu in table.columns] for lam in table.rows]
    rng = random.Random(19 + n)
    for _ in range(4):
        word = [rng.randrange(1, n) for _ in range(rng.choice([2, 4, 6]))]
        img = R_element(word, n)
        rhs = [spin_character_value(lam, img) for lam in table.rows]
        expected = dict(zip(table.columns, solve_exact(rows, rhs)))
        assert spin_class_polynomials(word, n).coeffs == expected


def test_class_polynomial_trace_property():
    rng = random.Random(13)
    for n in (2, 3, 4):
        for _ in range(8):
            a = [rng.randrange(1, n) for _ in range(rng.randrange(1, 4))]
            b = [rng.randrange(1, n) for _ in range(rng.randrange(1, 4))]
            assert spin_class_polynomials(a + b, n) == spin_class_polynomials(b + a, n)


# -- closed-form class vectors ----------------------------------------------------


@pytest.mark.parametrize("n", range(1, 8))
def test_closed_form_class_vectors_match_the_reduction(n):
    # the p-cycle closed form and the product rule over the parts, against
    # the reduction of R(canonical class word) for every odd nu
    for nu in enumerate_partitions(n, "odd"):
        expected = reduce(R_element(canonical_class_word(nu), n))
        assert class_word_vector(nu) == expected, nu


def test_closed_form_three_cycle():
    # (-1)^k Cat_k 2^(p-l) (v-1)^(l-1) l!/prod m_i! at p = 3
    vec = class_word_vector((3,))
    assert vec[(3,)] == sc_int(4)
    assert vec[(1, 1, 1)] == MINUS_ONE * V1**2


# -- spin characters and Schur elements -------------------------------------------


def test_spin_table_json_digest_pinned():
    # sha256 of to_json(), captured while the spin table was still the
    # ordinary one paired with each class vector in Scalars
    text = spin_character_table(12).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cea0783e67971f5b341f4281587e17754163fe3a92faa08a13f251bb1197caa7"
    )


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


@pytest.mark.parametrize("n", range(1, 11))
def test_certified_schur_elements_match_the_bareiss_solve(n):
    # the weights solved for by fraction-free elimination, as the package
    # did before it certified the closed-form ones
    table = spin_character_table(n)
    rows = [[table.entry(lam, nu) for lam in table.rows] for nu in table.columns]
    rhs = [ONE if nu == (1,) * n else ZERO for nu in table.columns]
    weights = solve_exact(rows, rhs)
    solved = {
        lam: ONE / (TWO ** delta_minus(lam, n) * w) for lam, w in zip(table.rows, weights)
    }
    assert spin_schur_elements(n) == solved


def test_certificate_rejects_an_altered_entry(monkeypatch):
    # the ordinary entry at ((4,), (3,1)) plus 1: the certificate reads the
    # ordinary table through the class words, so the spin entries at (3,1)
    # move with it
    table = {nu: dict(column) for nu, column in characters._table_ints(4).items()}
    table[(3, 1)][(4,)] = _poly_add(table[(3, 1)].get((4,), ()), (1,))
    monkeypatch.setattr(characters, "_table_ints", lambda m: table)
    with pytest.raises(RuntimeError, match="on the class word of 3,1$"):
        spin_schur_elements(4)


def test_certificate_rejects_a_singular_table(monkeypatch):
    # the class vector of (3,1,1) a copy of that of (5): the weights still
    # pass the product check, since both words must give 0, but B is no
    # longer triangular, so the spin table is singular
    exact = spin_hecke._class_word_ints
    monkeypatch.setattr(
        spin_hecke, "_class_word_ints", lambda nu: exact((5,) if nu == (3, 1, 1) else nu)
    )
    with pytest.raises(RuntimeError, match="^the spin character table is singular$"):
        spin_schur_elements(5)


@pytest.mark.parametrize("n", range(1, 13))
def test_spin_schur_elements_never_build_the_spin_table(monkeypatch, n):
    def refuse(m):
        raise AssertionError("the spin table was multiplied out")

    monkeypatch.setattr(spin_hecke, "_spin_table_ints", refuse)
    assert set(spin_schur_elements(n)) == set(enumerate_partitions(n, "strict"))


@pytest.mark.parametrize("n", range(1, 17))
def test_spin_schur_elements_halve_the_ordinary_ones(n):
    # c-minus = 2^(gamma - delta-minus) / (d u) is the ordinary Schur element
    # halved floor(n/2) + (n mod 2) delta-minus times
    for lam, c_minus in spin_schur_elements(n).items():
        halvings = n // 2 + n % 2 * delta_minus(lam, n)
        assert c_minus == schur_element(lam) / TWO**halvings, lam


@pytest.mark.parametrize("n", range(1, 10))
def test_class_word_basis_is_triangular(n):
    # spin_class_polynomials back-substitutes on this: column nu is supported
    # on partitions lexicographically at most nu, with 2^(n - len(nu)) at nu
    for nu in enumerate_partitions(n, "odd"):
        coeffs = class_word_vector(nu).coeffs
        assert max(mu for mu, x in coeffs.items() if not x.is_zero()) == nu
        assert coeffs[nu] == sc_int(2 ** (n - len(nu)))


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
    # the staircase's own word is the smallest reduced word of its permutation
    for n in range(1, 11):
        for nu in enumerate_partitions(n, "odd"):
            assert canonical_class_word(nu) == tuple(reduced_word(w_gamma(nu)[0]))
