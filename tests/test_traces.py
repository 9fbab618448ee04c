"""Class polynomial reduction and the symmetrizing trace."""

import hashlib
import itertools
import json
import random

import pytest

from spinhecke.combinatorics import enumerate_partitions
from spinhecke.hecke_clifford import (
    AlgebraElement,
    T_gen,
    build_T_w,
    c_gen,
    from_word,
    multiply,
    one,
)
from spinhecke import hecke_clifford, traces
from spinhecke.scalars import HALF, ONE, V, V_MINUS_1, ZERO, sc_parse
from spinhecke.traces import (
    ClassVector,
    clear_caches,
    f_nu,
    gimel,
    gimel_weight,
    odd_partitions,
    reduce,
    unit_vector,
    zero_vector,
)


def basis_term(n, sigma, cliff, coeff=ONE):
    return AlgebraElement(n, {(tuple(sigma), frozenset(cliff)): coeff})


def random_basis_term(rng, n):
    sigma = tuple(rng.sample(range(1, n + 1), n))
    cliff = frozenset(k for k in range(1, n + 1) if rng.random() < 0.5)
    return basis_term(n, sigma, cliff)


# ---------------------------------------------------------------------------
# pinned reductions


def test_reduce_generator_at_rank_two():
    vec = reduce(T_gen(2, 1))
    assert vec[(1, 1)] == V_MINUS_1 * HALF


def test_reduce_clifford_pair_vanishes():
    vec = reduce(multiply(c_gen(2, 1), c_gen(2, 2)))
    assert vec.is_zero()


def test_reduce_odd_element_vanishes():
    assert reduce(c_gen(3, 2)).is_zero()
    assert reduce(from_word(3, ["T1", "c1", "c2", "c3"])).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_reduce_staircases_to_unit_vectors(n):
    for nu in odd_partitions(n):
        assert reduce(build_T_w(nu)) == unit_vector(n, nu)


def test_idempotence_on_class_combinations():
    rng = random.Random(5)
    pool = [ONE, V, V_MINUS_1, HALF, sc_parse("(v-1)/2"), sc_parse("2*v")]
    for n in (2, 3, 4):
        coeffs = {nu: rng.choice(pool) for nu in odd_partitions(n)}
        elem = AlgebraElement(n, {})
        for nu, s in coeffs.items():
            elem = elem + build_T_w(nu).scale(s)
        assert reduce(elem) == ClassVector(n, coeffs)


# ---------------------------------------------------------------------------
# linearity and the trace property


def test_linearity_random():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.choice([2, 3])
        x = random_basis_term(rng, n)
        y = random_basis_term(rng, n)
        a, b = sc_parse("(v-1)/2"), sc_parse("v+1")
        combo = x.scale(a) + y.scale(b)
        assert reduce(combo) == reduce(x).scale(a).add(reduce(y).scale(b))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_trace_property_random_pairs(n):
    rng = random.Random(100 + n)
    for _ in range(100):
        x = random_basis_term(rng, n)
        y = random_basis_term(rng, n)
        assert reduce(multiply(x, y)) == reduce(multiply(y, x))


def test_gimel_symmetry_random_elements():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.choice([2, 3])
        x = random_basis_term(rng, n) + random_basis_term(rng, n).scale(V)
        y = random_basis_term(rng, n) + random_basis_term(rng, n).scale(HALF)
        assert gimel(multiply(x, y)) == gimel(multiply(y, x))


# ---------------------------------------------------------------------------
# ring membership


def test_class_polynomials_lie_in_A_full_basis_rank_three():
    for line in itertools.permutations(range(1, 4)):
        for size in range(4):
            for cliff in itertools.combinations(range(1, 4), size):
                vec = reduce(basis_term(3, line, cliff))
                for nu, val in vec.coeffs.items():
                    assert val.membership("A"), (line, cliff, nu, val.render())


def test_class_polynomials_lie_in_A_sampled_rank_four():
    rng = random.Random(41)
    for _ in range(60):
        vec = reduce(random_basis_term(rng, 4))
        for val in vec.coeffs.values():
            assert val.membership("A")


# ---------------------------------------------------------------------------
# gimel


def test_gimel_of_identity():
    for n in (1, 2, 3, 4):
        assert gimel(one(n)) == ONE


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gimel_on_all_staircases(n):
    # the weight formula holds for every partition, not only odd ones
    for mu in enumerate_partitions(n):
        assert gimel(build_T_w(mu)) == gimel_weight(n, mu)


def test_gimel_kills_odd_terms():
    for n in (2, 3):
        for line in itertools.permutations(range(1, n + 1)):
            for size in range(1, n + 1, 2):
                for cliff in itertools.combinations(range(1, n + 1), size):
                    assert gimel(basis_term(n, line, cliff)) == ZERO


def test_f_nu_duality():
    for n in (2, 3, 4):
        for nu in odd_partitions(n):
            for rho in odd_partitions(n):
                expected = ONE if nu == rho else ZERO
                assert f_nu(build_T_w(rho), nu) == expected


# ---------------------------------------------------------------------------
# plumbing


def test_class_vector_json():
    vec = reduce(T_gen(2, 1))
    data = json.loads(vec.to_json())
    assert data == {"1,1": "(v-1)/2"}
    vec4 = reduce(build_T_w((3, 1)))
    data4 = json.loads(vec4.to_json())
    assert list(data4) == ["3,1", "1,1,1,1"]
    assert data4["3,1"] == "1"


def test_vector_plumbing_errors():
    with pytest.raises(KeyError):
        unit_vector(3, (2, 1))
    with pytest.raises(ValueError):
        zero_vector(2).add(zero_vector(3))


# sha256 of the class vectors of every basis term C_I T_sigma with n <= 5, one
# to_json() line per term in the order of all_basis_terms(); recorded from the
# earlier reduction engine, which rewrote terms in the T_sigma C_I orientation
GOLDEN_BASIS_DIGEST = "4a21ad291fe815bf39fa345f882ed3d42bd0bdda407b237541ac110a17053600"


def all_basis_terms(max_n):
    for n in range(1, max_n + 1):
        for sigma in itertools.permutations(range(1, n + 1)):
            for size in range(n + 1):
                for cliff in itertools.combinations(range(1, n + 1), size):
                    yield basis_term(n, sigma, cliff)


def test_golden_class_vectors_through_rank_five():
    lines = [reduce(h).to_json() for h in all_basis_terms(5)]
    assert len(lines) == 4282
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_BASIS_DIGEST


def test_clear_caches_empties_every_reduction_memo():
    reduce(from_word(4, ["c1", "c3", "T2", "T1", "T3"]))
    assert traces._MEMO and hecke_clifford._PUSH_MEMO
    clear_caches()
    assert not traces._MEMO
    assert not hecke_clifford._PUSH_MEMO
    assert reduce(build_T_w((3, 1))) == unit_vector(4, (3, 1))


def test_full_basis_reduction_closes_rank_four():
    # every rank-4 basis term reduces without tripping the fuel guard and
    # lands on odd partitions only
    rng = random.Random(9)
    keys = set(odd_partitions(4))
    for _ in range(40):
        vec = reduce(random_basis_term(rng, 4))
        assert set(vec.coeffs) == keys
