"""Normal-form arithmetic in the Hecke-Clifford algebra."""

import itertools
import random

import pytest

from spinhecke.combinatorics import (
    enumerate_partitions,
    perm_identity,
    reduced_word,
    w_gamma,
)
from spinhecke.hecke_clifford import (
    AlgebraElement,
    ElementParseError,
    T_gen,
    build_T_w,
    c_gen,
    from_word,
    multiply,
    one,
    parse_element,
    zero,
)
from spinhecke.scalars import HALF, MINUS_ONE, ONE, TWO, V, V_MINUS_1, sc_int, sc_parse


def term(n, perm, cliff, coeff=ONE):
    return AlgebraElement(n, {(tuple(perm), frozenset(cliff)): coeff})


# ---------------------------------------------------------------------------
# pinned small products


def test_quadratic_word():
    got = from_word(2, ["T1", "T1"])
    assert got == term(2, (2, 1), (), V_MINUS_1) + term(2, (1, 2), (), V)


def test_clifford_passes_staircase():
    got = from_word(2, ["T1", "c1"])
    assert got == term(2, (2, 1), {2})
    assert got.render() == "c2 T1"


def test_clifford_reflects_with_correction():
    got = from_word(2, ["T1", "c2"])
    expected = (
        term(2, (2, 1), {1})
        + term(2, (1, 2), {2}, V_MINUS_1)
        - term(2, (1, 2), {1}, V_MINUS_1)
    )
    assert got == expected


def test_clifford_squares_and_swaps():
    assert multiply(c_gen(2, 1), c_gen(2, 1)) == one(2)
    got = multiply(c_gen(2, 2), c_gen(2, 1))
    assert got == term(2, (1, 2), {1, 2}, MINUS_ONE)


def test_braid_difference_vanishes():
    lhs = from_word(3, ["T1", "T2", "T1"])
    rhs = from_word(3, ["T2", "T1", "T2"])
    assert (lhs - rhs).is_zero()


def test_from_word_accepts_pairs_and_rejects_junk():
    assert from_word(3, [("T", 2), ("c", 3)]) == from_word(3, ["T2", "c3"])
    with pytest.raises(ValueError):
        from_word(3, ["q1"])
    with pytest.raises(IndexError):
        from_word(3, ["T3"])
    with pytest.raises(IndexError):
        from_word(3, ["c4"])
    assert from_word(3, ["T1"], coeff=sc_int(0)).is_zero()


# ---------------------------------------------------------------------------
# defining relations; nine families over all index pairs


def _relation_cases(n):
    for i in range(1, n):
        yield "product-form quadratic", multiply(
            T_gen(n, i) - one(n).scale(V), T_gen(n, i) + one(n)
        )
        yield "expanded quadratic", (
            multiply(T_gen(n, i), T_gen(n, i))
            - T_gen(n, i).scale(V_MINUS_1)
            - one(n).scale(V)
        )
    for i in range(1, n - 1):
        a, b = T_gen(n, i), T_gen(n, i + 1)
        yield "braid", multiply(multiply(a, b), a) - multiply(multiply(b, a), b)
    for i, j in itertools.combinations(range(1, n), 2):
        if j - i >= 2:
            yield "distant commute", (
                multiply(T_gen(n, i), T_gen(n, j))
                - multiply(T_gen(n, j), T_gen(n, i))
            )
    for k in range(1, n + 1):
        yield "clifford square", multiply(c_gen(n, k), c_gen(n, k)) - one(n)
    for k, m in itertools.combinations(range(1, n + 1), 2):
        yield "anticommute", (
            multiply(c_gen(n, k), c_gen(n, m))
            + multiply(c_gen(n, m), c_gen(n, k))
        )
    for i in range(1, n):
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                yield "uninvolved commute", (
                    multiply(T_gen(n, i), c_gen(n, j))
                    - multiply(c_gen(n, j), T_gen(n, i))
                )
        yield "pass", multiply(T_gen(n, i), c_gen(n, i)) - multiply(
            c_gen(n, i + 1), T_gen(n, i)
        )
        yield "reflect", (
            multiply(T_gen(n, i), c_gen(n, i + 1))
            - multiply(c_gen(n, i), T_gen(n, i))
            - (c_gen(n, i + 1) - c_gen(n, i)).scale(V_MINUS_1)
        )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_all_relations_vanish(n):
    for name, residue in _relation_cases(n):
        assert residue.is_zero(), f"{name} fails at n={n}: {residue.render()}"


# ---------------------------------------------------------------------------
# random algebra checks


COEFF_POOL = [ONE, MINUS_ONE, TWO, V, V_MINUS_1, HALF, sc_parse("(v-1)/2")]


def random_element(rng, n, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        sigma = tuple(rng.sample(range(1, n + 1), n))
        cliff = frozenset(k for k in range(1, n + 1) if rng.random() < 0.4)
        terms[(sigma, cliff)] = rng.choice(COEFF_POOL)
    return AlgebraElement(n, terms)


def test_associativity_on_random_triples():
    rng = random.Random(20260818)
    for trial in range(200):
        n = rng.choice([2, 3, 4])
        a, b, c = (random_element(rng, n) for _ in range(3))
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        assert left == right, f"trial {trial} n={n}"


def test_distributivity_and_scaling():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.choice([2, 3])
        a, b, c = (random_element(rng, n) for _ in range(3))
        assert multiply(a + b, c) == multiply(a, c) + multiply(b, c)
        assert multiply(a, b + c) == multiply(a, b) + multiply(a, c)
        assert multiply(a.scale(V), b) == multiply(a, b).scale(V)


def test_parity_of_products():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.choice([2, 3])
        sigma = tuple(rng.sample(range(1, n + 1), n))
        tau = tuple(rng.sample(range(1, n + 1), n))
        I = frozenset(k for k in range(1, n + 1) if rng.random() < 0.5)
        J = frozenset(k for k in range(1, n + 1) if rng.random() < 0.5)
        prod = multiply(term(n, sigma, I), term(n, tau, J))
        if not prod.is_zero():
            assert prod.parity() == (len(I) + len(J)) % 2


# ---------------------------------------------------------------------------
# basis reachability / dimension


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_words_reach_whole_basis(n):
    seen = set()
    for line in itertools.permutations(range(1, n + 1)):
        word_T = [("T", j) for j in reduced_word(line)]
        for size in range(n + 1):
            for cliff in itertools.combinations(range(1, n + 1), size):
                word = [("c", k) for k in cliff] + word_T
                elem = from_word(n, word)
                assert len(elem.terms) == 1
                ((sigma, I), coeff) = next(iter(elem.terms.items()))
                assert coeff == ONE
                assert sigma == line and I == frozenset(cliff)
                seen.add((sigma, I))
    import math

    assert len(seen) == 2**n * math.factorial(n)


# ---------------------------------------------------------------------------
# named elements


def test_build_T_w():
    assert build_T_w((1, 1, 1)) == one(3)
    assert build_T_w((3,)) == term(3, (2, 3, 1), ())
    elem = build_T_w((2, 2))
    assert elem == term(4, (2, 1, 4, 3), ())
    assert w_gamma((2, 2))[1] == [1, 3]
    assert build_T_w((2,), n=2) == T_gen(2, 1)
    with pytest.raises(ValueError):
        build_T_w((2, 1), n=4)


def test_build_T_w_matches_word_product():
    for n in (2, 3, 4):
        for mu in enumerate_partitions(n):
            _, word = w_gamma(mu)
            assert build_T_w(mu) == from_word(n, [("T", j) for j in word])


def test_inverse_of_clifford_word():
    # the inverse of C_I is the reversed word, (-1)^(k(k-1)/2) C_I for |I| = k
    def inverse(n, cliff):
        return from_word(n, [("c", k) for k in reversed(cliff)])

    assert inverse(2, (1,)) == term(2, (1, 2), {1})
    assert inverse(2, (1, 2)) == term(2, (1, 2), {1, 2}, MINUS_ONE)
    assert inverse(4, (1, 2, 3, 4)) == term(4, (1, 2, 3, 4), {1, 2, 3, 4})
    for n in (1, 2, 3, 4):
        for size in range(n + 1):
            for cliff in itertools.combinations(range(1, n + 1), size):
                forward = from_word(n, [("c", k) for k in cliff])
                inv = inverse(n, cliff)
                sign = MINUS_ONE if (size * (size - 1) // 2) % 2 else ONE
                assert inv == forward.scale(sign)
                assert multiply(forward, inv) == one(n)
                assert multiply(inv, forward) == one(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_staircase_absorbs_last_clifford(n):
    # x_n c_n = c_1 T'_1...T'_{n-1} + (v-1) sum_k c_k T_1..T_{k-2} T'_k..T'_{n-1}
    # with x_n = T_1...T_{n-1} and T'_i = T_i - v + 1
    def t_prime(i):
        return T_gen(n, i) - one(n).scale(V_MINUS_1)

    lhs = multiply(build_T_w((n,)), c_gen(n, n))
    expected = c_gen(n, 1)
    for i in range(1, n):
        expected = multiply(expected, t_prime(i))
    for k in range(2, n + 1):
        piece = c_gen(n, k)
        for j in range(1, k - 1):
            piece = multiply(piece, T_gen(n, j))
        for i in range(k, n):
            piece = multiply(piece, t_prime(i))
        expected = expected + piece.scale(V_MINUS_1)
    assert lhs == expected


# ---------------------------------------------------------------------------
# element plumbing


def test_rank_mismatch_and_immutability():
    with pytest.raises(ValueError):
        multiply(one(2), one(3))
    with pytest.raises(ValueError):
        one(2) + one(3)
    elem = T_gen(3, 1)
    with pytest.raises(TypeError):
        elem.terms[(perm_identity(3), frozenset())] = ONE
    with pytest.raises(AttributeError):
        elem.n = 5


def test_zero_and_render():
    assert zero(3).is_zero()
    assert zero(3).render() == "0"
    assert one(2).render() == "1"
    assert (T_gen(2, 1) - T_gen(2, 1)).is_zero()
    assert parse_element(4, "c1 c3").render() == "c1 c3"
    assert parse_element(4, "c3 c1").render() == "-c1 c3"
    assert T_gen(2, 1).scale(V_MINUS_1).render() == "(v-1)*T1"


# ---------------------------------------------------------------------------
# expression parsing


def test_parse_element_example():
    built = from_word(4, ["T1", "T2", "c1", "c3"], coeff=sc_parse("(v-1)/2"))
    built = built + c_gen(4, 2)
    assert parse_element(4, "(v-1)/2 * T1 T2 c1 c3 + c2") == built


def test_parse_element_forms():
    assert parse_element(2, "T1 T1") == from_word(2, ["T1", "T1"])
    assert parse_element(2, "2*T1") == T_gen(2, 1).scale(TWO)
    assert parse_element(2, "v^-1 * c1") == c_gen(2, 1).scale(sc_parse("v^-1"))
    assert parse_element(2, "-c1") == -c_gen(2, 1)
    assert parse_element(2, "v") == one(2).scale(V)
    assert parse_element(3, "T1 - T1").is_zero()
    assert parse_element(2, "c1 + 1") == c_gen(2, 1) + one(2)


def test_parse_element_errors():
    for bad in [
        "",
        "   ",
        "2 T1",
        "T1 +",
        "(v-1 * T1",
        "v-1)*T1",
        "x * T1",
        "T9",
        "c9",
        "T1 q2",
    ]:
        with pytest.raises(ElementParseError):
            parse_element(3, bad)


def test_render_parse_roundtrip():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        elem = random_element(rng, n)
        assert parse_element(n, elem.render()) == elem
