"""The int-tuple generator products and the (e, {nu: ints}) reduction memo
against the Scalar-coefficient reference in `_scalar_kernels`.

The kernels key a raw term by (sigma, bitmask) and the reference by
(sigma, frozenset); the comparison converts keys at this boundary."""

import itertools
import random

import pytest

import _scalar_kernels as ref
from spinhecke import hecke_clifford, traces
from spinhecke.hecke_clifford import AlgebraElement, build_T_w
from spinhecke.scalars import HALF, I, ONE, U, V, V_MINUS_1, Scalar, sc_int, sc_parse
from spinhecke.spin_hecke import R_class_vector, R_element
from spinhecke.traces import clear_caches, odd_partitions, reduce

# 3v^2 - v + 2: a coefficient that is no unit, so a kernel that dropped it
# for 1 would show
_P = (2, -1, 3)

_KERNELS = [
    ("lmul_T", hecke_clifford._lmul_T, ref.lmul_T, "T"),
    ("lmul_c", hecke_clifford._lmul_c, ref.lmul_c, "c"),
    ("rmul_c", hecke_clifford._rmul_c, ref.rmul_c, "c"),
]


def _as_scalars(raw: dict) -> dict:
    """Raw {(sigma, mask): ints} as reference terms {(sigma, frozenset): Scalar}."""
    return {
        (sigma, frozenset(k for k in range(mask.bit_length()) if mask >> k & 1)):
        Scalar.from_v_ints(p)
        for (sigma, mask), p in raw.items()
    }


def _mask(cliff) -> int:
    return sum(1 << k for k in cliff)


def _basis_keys(n):
    for sigma in itertools.permutations(range(1, n + 1)):
        for size in range(n + 1):
            for cliff in itertools.combinations(range(1, n + 1), size):
                yield sigma, frozenset(cliff)


@pytest.mark.parametrize("name, fast, slow, kind", _KERNELS, ids=[k[0] for k in _KERNELS])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_int_kernels_match_the_scalar_reference(n, name, fast, slow, kind):
    gens = range(1, n) if kind == "T" else range(1, n + 1)
    for key in _basis_keys(n):
        for g in gens:
            for p in ((1,), _P):
                got = fast({(key[0], _mask(key[1])): p}, g)
                assert all(got.values()), (key, g)  # no zero coefficient kept
                want = slow({key: Scalar.from_v_ints(p)}, g)
                assert _as_scalars(got) == want, (name, key, g, p)


def test_push_memo_holds_int_tuples():
    clear_caches()
    hecke_clifford._rmul_c({((3, 1, 4, 2), _mask((2,))): (1,)}, 3)
    assert hecke_clifford._PUSH_MEMO
    for terms in hecke_clifford._PUSH_MEMO.values():
        for coeff in terms.values():
            assert isinstance(coeff, tuple) and all(isinstance(a, int) for a in coeff)


def test_raw_keys_are_permutation_and_bitmask():
    clear_caches()
    for key in _basis_keys(4):
        reduce(AlgebraElement(4, {key: ONE}))
    assert traces._MEMO and hecke_clifford._PUSH_MEMO
    keys = list(traces._MEMO)
    keys += [key for terms in hecke_clifford._PUSH_MEMO.values() for key in terms]
    for sigma, mask in keys:
        assert type(sigma) is tuple and type(mask) is int
    # a push through T_sigma leaves exactly one Clifford letter
    for terms in hecke_clifford._PUSH_MEMO.values():
        assert all(mask.bit_count() == 1 for _, mask in terms)


@pytest.mark.parametrize("text", ["0", "1", "-3", "v", "2*v^2-1", "v^5-7*v^2+4"])
def test_v_ints_round_trips_on_integer_polynomials_in_v(text):
    value = sc_parse(text)
    ints = value.v_ints()
    assert isinstance(ints, tuple) and all(type(a) is int for a in ints)
    assert not ints or ints[-1]  # trimmed
    assert Scalar.from_v_ints(ints) == value
    assert Scalar.from_v_ints(ints).v_ints() == ints


@pytest.mark.parametrize(
    "value", [HALF * V_MINUS_1, I * U, U, sc_parse("1/(v+1)")], ids=["half", "iu", "u", "inverse"]
)
def test_v_ints_refuses_values_outside_integer_polynomials_in_v(value):
    assert value.v_ints() is None


def test_by_coeff_makes_one_group_for_every_integer_polynomial_coefficient():
    sigma = (2, 1, 3)
    terms = {
        (sigma, frozenset()): ONE,
        (sigma, frozenset((1, 3))): V_MINUS_1,
        ((1, 2, 3), frozenset((2,))): sc_int(-3),
        ((1, 3, 2), frozenset((1,))): HALF,
        ((3, 2, 1), frozenset()): HALF,
        ((1, 2, 3), frozenset()): I * U,
    }
    groups = hecke_clifford._by_coeff(terms)
    assert set(groups) == {ONE, HALF, I * U}
    assert groups[ONE] == {
        (sigma, 0): (1,),
        (sigma, 0b1010): (-1, 1),
        ((1, 2, 3), 0b100): (-3,),
    }
    assert groups[HALF] == {((1, 3, 2), 0b10): (1,), ((3, 2, 1), 0): (1,)}
    assert hecke_clifford._scalar_terms(groups) == terms


# ---------------------------------------------------------------------------
# the reduction


_COEFFS = [
    ONE,
    V,
    V_MINUS_1,
    HALF * V_MINUS_1,
    I * U,
    sc_int(-3),
    sc_parse("1/(v+1)"),
    sc_parse("(u^3-2*i)/(2*v-1)"),
]


def _random_element(rng, n, size):
    keys = list(_basis_keys(n))
    terms = {}
    for key in rng.sample(keys, size):
        terms[key] = rng.choice(_COEFFS)
    return AlgebraElement(n, terms)


def _reference_reduce(h, memo, stats):
    vec = {nu: Scalar.from_int(0) for nu in odd_partitions(h.n)}
    vec.update(ref.reduce_terms(dict(h.terms), memo, stats))
    return vec


def test_reduce_matches_the_scalar_memo_reduction_at_rank_five():
    rng = random.Random(2012)
    clear_caches()
    memo, stats = {}, {}
    elements = [_random_element(rng, 5, rng.randint(1, 6)) for _ in range(30)]
    # staircases with an even block reach the halving step (6) directly
    elements += [build_T_w(mu) for mu in [(2, 2, 1), (4, 1), (2, 1, 1, 1), (2, 3)]]
    for h in elements:
        assert reduce(h).coeffs == _reference_reduce(h, memo, stats)
    assert stats["halvings"] >= 4


def test_reduce_matches_the_reference_on_every_even_halving_staircase():
    for mu in [(2,), (4,), (2, 2), (3, 2, 1), (2, 2, 2), (4, 2), (6,)]:
        clear_caches()
        h = build_T_w(mu)
        assert reduce(h).coeffs == _reference_reduce(h, {}, {})


def test_memo_values_are_over_a_minimal_power_of_two():
    # at rank 3 already, c1 c2 T_sigma for sigma = 231 sums halved terms
    # whose values are all even
    clear_caches()
    for key in _basis_keys(4):
        reduce(AlgebraElement(4, {key: ONE}))
    halved = 0
    for e, vec in traces._MEMO.values():
        assert all(isinstance(a, int) for val in vec.values() for a in val)
        assert all(val and val[-1] for val in vec.values())  # no zeros kept
        if not vec:
            assert e == 0
        elif e:
            halved += 1
            assert any(a % 2 for val in vec.values() for a in val)
    assert halved


@pytest.mark.parametrize("word", [(1, 2, 1, 3), (2, 1, 3, 2, 3, 1), (4, 3, 2, 1, 4, 2)])
def test_R_class_vector_is_the_reduction_of_R_element(word):
    clear_caches()
    expected = _reference_reduce(R_element(word, 5), {}, {})
    assert R_class_vector(word, 5).coeffs == expected
    assert reduce(R_element(word, 5)).coeffs == expected
