"""The packed-int generator products and the (e, {nu: packed}, h) reduction
memo against the Scalar-coefficient reference in `_scalar_kernels`, and the
width rule that guards every decode of a packed value.

The kernels key a raw term by (sigma, bitmask) and the reference by
(sigma, frozenset); the comparison converts keys and decodes values at this
boundary."""

import itertools
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _scalar_kernels as ref
from spinhecke import hecke_clifford, scalars, traces
from spinhecke.combinatorics import perm_inverse, perm_length, reduced_word, right_mul_s
from spinhecke.hecke_clifford import AlgebraElement, build_T_w, multiply
from spinhecke.scalars import (
    HALF,
    I,
    ONE,
    U,
    V,
    V_MINUS_1,
    Scalar,
    WidthError,
    _pack,
    _unpack,
    sc_int,
    sc_parse,
)
from spinhecke.spin_hecke import R_class_vector, R_element
from spinhecke.traces import clear_caches, odd_partitions, reduce

# 3v^2 - v + 2: a coefficient that is no unit, so a kernel that dropped it
# for 1 would show
_P = (2, -1, 3)

# the largest coefficient every decode at the default width may meet
_TOP = (1 << (scalars._W - 1)) - 1


def _lmul_c(terms: dict, k: int) -> tuple:
    # _lmul_c keeps the norm: its factor is 1
    return hecke_clifford._lmul_c(terms, k), 1


# the kernel as (product, factor that scales the l1 norm bound), the
# reference, the generator kind, and the largest factor the kernel may
# return (None: any exact push norm)
_KERNELS = [
    ("lmul_T", hecke_clifford._lmul_T, ref.lmul_T, "T", 7),
    ("lmul_R", hecke_clifford._lmul_R, ref.lmul_R, "T", 16),
    ("lmul_c", _lmul_c, ref.lmul_c, "c", 1),
    ("rmul_c", hecke_clifford._rmul_c, ref.rmul_c, "c", None),
]


def _norm(ints) -> int:
    return sum(abs(a) for a in ints)


def _as_scalars(raw: dict, bound: int) -> dict:
    """Raw {(sigma, mask): packed} of summed l1 norm at most bound, decoded
    to reference terms {(sigma, frozenset): Scalar}."""
    return {
        (sigma, frozenset(k for k in range(mask.bit_length()) if mask >> k & 1)):
        Scalar.from_v_ints(_unpack(p, bound))
        for (sigma, mask), p in raw.items()
    }


def _mask(cliff) -> int:
    return sum(1 << k for k in cliff)


def _basis_keys(n):
    for sigma in itertools.permutations(range(1, n + 1)):
        for size in range(n + 1):
            for cliff in itertools.combinations(range(1, n + 1), size):
                yield sigma, frozenset(cliff)


@pytest.mark.parametrize("name, fast, slow, kind, most", _KERNELS, ids=[k[0] for k in _KERNELS])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_int_kernels_match_the_scalar_reference(n, name, fast, slow, kind, most):
    gens = range(1, n) if kind == "T" else range(1, n + 1)
    for key in _basis_keys(n):
        for g in gens:
            for p in ((1,), _P):
                got, factor = fast({(key[0], _mask(key[1])): _pack(p)}, g)
                assert most is None or factor <= most
                assert all(got.values()), (key, g)  # no zero coefficient kept
                # the returned factor bounds the exact norm of the product
                bound = factor * _norm(p)
                assert sum(_norm(_unpack(q, _TOP)) for q in got.values()) <= bound
                want = slow({key: Scalar.from_v_ints(p)}, g)
                assert _as_scalars(got, bound) == want, (name, key, g, p)


def test_push_memo_holds_packed_ints_with_exact_norms():
    clear_caches()
    for key in _basis_keys(4):
        for k in range(1, 5):
            hecke_clifford._rmul_c({(key[0], _mask(key[1])): 1}, k)
    assert hecke_clifford._PUSH_MEMO
    for terms, norm in hecke_clifford._PUSH_MEMO.values():
        assert all(type(p) is int and p for p in terms.values())
        assert norm == sum(_norm(_unpack(p, _TOP)) for p in terms.values())


def test_raw_keys_are_permutation_and_bitmask():
    clear_caches()
    for key in _basis_keys(4):
        reduce(AlgebraElement(4, {key: ONE}))
    assert traces._MEMO and hecke_clifford._PUSH_MEMO
    keys = list(traces._MEMO)
    keys += [key for terms, _ in hecke_clifford._PUSH_MEMO.values() for key in terms]
    for sigma, mask in keys:
        assert type(sigma) is tuple and type(mask) is int
    # a push through T_sigma leaves exactly one Clifford letter
    for terms, _ in hecke_clifford._PUSH_MEMO.values():
        assert all(mask.bit_count() == 1 for _, mask in terms)


# ---------------------------------------------------------------------------
# the packing width


def _width(monkeypatch, width: int) -> None:
    """Pack at `width` bits in every module of the package that binds the
    width, with every cache emptied (a memo holds values packed at one
    width only)."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("spinhecke") and hasattr(mod, "_W"):
            monkeypatch.setattr(mod, "_W", width)
    clear_caches()


@pytest.fixture
def width(monkeypatch):
    yield lambda w: _width(monkeypatch, w)
    clear_caches()


@given(st.lists(st.integers(-_TOP, _TOP), max_size=12))
def test_pack_and_unpack_round_trip_below_half_the_width(ints):
    trimmed = list(ints)
    while trimmed and not trimmed[-1]:
        trimmed.pop()
    p = _pack(ints)
    assert _unpack(p, max(map(abs, ints), default=0)) == tuple(trimmed)
    assert _unpack(p, _TOP) == tuple(trimmed)
    assert (p == 0) == (not trimmed)


def test_unpack_refuses_a_bound_at_half_the_width():
    with pytest.raises(WidthError):
        _unpack(_pack((1, 2)), 1 << (scalars._W - 1))


# R(1 2 3 4 1 2 3 4) at rank 5 has 400 v^3 in its (3, 1, 1) class polynomial
_WIDE_WORD = (1, 2, 3, 4, 1, 2, 3, 4)


def test_a_narrow_width_is_refused_never_decoded(width):
    clear_caches()
    vec = R_class_vector(_WIDE_WORD, 5)
    assert max(_norm(val.v_ints()) for val in vec.coeffs.values()) >= 1 << 7
    width(8)
    with pytest.raises(WidthError):
        R_class_vector(_WIDE_WORD, 5)
    with pytest.raises(WidthError):
        reduce(R_element(_WIDE_WORD, 5))


def _rank_five_vectors() -> list:
    words = [_WIDE_WORD, (2, 1, 3, 2, 3, 1), (4, 3, 2, 1, 4, 2)]
    h = hecke_clifford.from_word(5, "c1 c2 T1 T2 T1 T3 T4 T3 c5".split())
    g = hecke_clifford.from_word(5, "T2 T3 T4 T1 T2 c3 c4".split())
    elements = [build_T_w((2, 2, 1)), build_T_w((4, 1)), h, multiply(h, g)]
    return [R_class_vector(word, 5) for word in words] + [reduce(x) for x in elements]


def test_a_narrow_width_that_fits_gives_the_same_vectors(width):
    clear_caches()
    wide = _rank_five_vectors()
    width(48)
    assert _rank_five_vectors() == wide


def _basis_pairs(count: int) -> list:
    """Pairs of rank-5 basis keys (sigma, I), sigma of length at least 7."""
    rng = random.Random(5)
    longs = [s for s in itertools.permutations(range(1, 6)) if perm_length(s) >= 7]

    def key():
        return rng.choice(longs), frozenset(rng.sample(range(1, 6), rng.choice((0, 2, 3))))

    return [(key(), key()) for _ in range(count)]


def _basis(key) -> AlgebraElement:
    return AlgebraElement(5, {key: ONE})


def _rank_five_products() -> list:
    """Products of basis terms and of R-words at rank 5, built at the
    current width (raw groups are packed at one width only)."""
    words = [
        (_WIDE_WORD, (2, 1, 3, 2)),
        ((2, 1, 3, 2, 3, 1), (4, 3, 2, 1, 4, 2)),
        ((4, 3, 2, 1, 4, 2), (2, 1, 3, 2, 3, 1)),
        ((1, 2, 3, 4), (1, 2, 3, 4)),
    ]
    pairs = [(_basis(a), _basis(b)) for a, b in _basis_pairs(20)]
    pairs += [(R_element(x, 5), R_element(y, 5)) for x, y in words]
    return [multiply(a, b) for a, b in pairs]


def test_a_narrow_width_reduces_products_raw_as_decoded(width):
    # a product reaches reduce with multiply's proven bound, not the exact
    # norm of its decoded terms; at 48 bits that refuses none of them
    clear_caches()
    wide = [reduce(p) for p in _rank_five_products()]
    width(48)
    products = _rank_five_products()
    raw = [reduce(p) for p in products]  # before any .terms is read
    assert raw == [reduce(AlgebraElement(5, dict(p.terms))) for p in products]
    assert raw == wide


def test_a_loose_product_bound_gives_way_to_the_exact_norm(width, monkeypatch):
    # at 36 bits this product's bound times the largest memo bound reaches
    # 2^35, while the exact norm of its terms times that memo bound does not
    a = ((5, 4, 3, 1, 2), frozenset((1, 4)))
    b = ((4, 5, 2, 3, 1), frozenset((1, 5)))
    clear_caches()
    wide = reduce(multiply(_basis(a), _basis(b)))
    width(36)
    exact = []
    monkeypatch.setattr(traces, "_norm", lambda values, bound: exact.append(bound) or
                        scalars._norm(values, bound))
    product = multiply(_basis(a), _basis(b))
    assert reduce(product) == wide
    assert exact
    assert reduce(AlgebraElement(5, dict(product.terms))) == wide


def test_a_loose_operand_bound_gives_way_to_the_regrouped_terms(width, monkeypatch):
    # at 24 bits the product of R(2 1 3 2) with itself overflows under the
    # word's own bound, but not under the exact norm of its decoded terms
    word = (2, 1, 3, 2)
    clear_caches()
    wide = dict(multiply(R_element(word, 5), R_element(word, 5)).terms)
    width(24)
    regrouped = []
    by_coeff = hecke_clifford._by_coeff
    monkeypatch.setattr(hecke_clifford, "_by_coeff", lambda terms: regrouped.append(1) or
                        by_coeff(terms))
    r = R_element(word, 5)
    assert dict(multiply(r, r).terms) == wide
    assert regrouped


def _reference_product(a, b) -> dict:
    """C_I T_sigma times the basis key b on the Scalar reference kernels:
    the letters of a act on b from the left, as in multiply."""
    return _reference_action(a, {b: ONE})


def _reference_action(a, terms: dict) -> dict:
    """C_I T_sigma times the reference terms {(sigma, frozenset): Scalar}."""
    sigma, cliff = a
    cur = terms
    for j in reversed(reduced_word(sigma)):
        cur = ref.lmul_T(cur, j)
    for k in sorted(cliff, reverse=True):
        cur = ref.lmul_c(cur, k)
    return cur


def test_products_reach_the_reduction_with_no_scalar_term(monkeypatch):
    clear_caches()
    pairs = _basis_pairs(12)
    words = [_WIDE_WORD, (2, 1, 3, 2, 3, 1)]

    def refuse(groups):
        raise AssertionError("a Scalar term was built")

    monkeypatch.setattr(hecke_clifford, "_scalar_terms", refuse)
    products = [multiply(_basis(a), _basis(b)) for a, b in pairs]
    vectors = [reduce(p) for p in products]
    spin = [R_class_vector(word, 5) for word in words]
    monkeypatch.undo()
    for (a, b), product, vec in zip(pairs, products, vectors):
        want = _reference_product(a, b)
        assert dict(product.terms) == want
        assert vec == reduce(AlgebraElement(5, want))
    for word, vec in zip(words, spin):
        assert vec == reduce(AlgebraElement(5, dict(R_element(word, 5).terms)))
    # an element built from raw groups and one built from Scalar terms
    for a, b in pairs:
        eager = AlgebraElement(5, _reference_product(a, b))
        assert hash(multiply(_basis(a), _basis(b))) == hash(eager)
        assert multiply(_basis(a), _basis(b)) == eager
        assert eager == multiply(_basis(a), _basis(b))


def test_a_product_runs_each_left_permutation_word_once(monkeypatch):
    # the left terms of R(2 1 3 2) that share a permutation share the image
    # of its T-word: _lmul_T runs once per letter of each distinct
    # permutation, not once per left term
    clear_caches()
    r = R_element((2, 1, 3, 2), 5)
    terms = dict(r.terms)
    perms = {sigma for sigma, _ in terms}
    assert len(perms) < len(terms)
    calls = []
    lmul_T = hecke_clifford._lmul_T
    monkeypatch.setattr(hecke_clifford, "_lmul_T", lambda t, j: calls.append(j) or lmul_T(t, j))
    product = multiply(r, r)
    assert len(calls) == sum(perm_length(sigma) for sigma in perms)
    monkeypatch.undo()
    want: dict = {}
    for key, coeff in terms.items():
        for k, val in _reference_action(key, terms).items():
            scalars._acc(want, k, coeff * val)
    assert dict(product.terms) == want


def test_every_memo_bound_covers_the_exact_norm_at_rank_five():
    clear_caches()
    for sigma in itertools.permutations(range(1, 6)):
        for cliff in ((), (1, 2), (2, 4), (1, 3, 4, 5)):
            reduce(AlgebraElement(5, {(sigma, frozenset(cliff)): ONE}))
    assert len(traces._MEMO) > 500
    for e, vec, h in traces._MEMO.values():
        assert e >= 0 and (vec or (e, h) == (0, 0))
        for p in vec.values():
            assert p and h >= _norm(_unpack(p, _TOP))


def test_pass_through_rotations_share_their_image_entry():
    # a rotation whose moved term is one term with coefficient 1 (growth 1)
    # memoizes its image's entry itself, not a copy of its dict and ints
    clear_caches()
    for sigma in ((5, 4, 3, 2, 1), (2, 3, 4, 5, 1), (3, 5, 1, 4, 2)):
        for cliff in ((), (1, 2), (2, 3, 4, 5)):
            reduce(AlgebraElement(5, {(sigma, frozenset(cliff)): ONE}))
    passes = 0
    for (sigma, mask), entry in traces._MEMO.items():
        inv = perm_inverse(sigma)
        i = next((i for i in range(1, 6) if inv[i - 1] > i + 1), None)
        if i is None:
            continue  # no rotation: a staircase or a sorted block form
        j = inv[i - 1] - 1
        moved, growth = hecke_clifford._lmul_T({(right_mul_s(sigma, j), mask): 1}, j)
        if growth == 1:
            (image,) = moved
            assert entry is traces._MEMO[image]
            passes += 1
    assert passes
    assert len({id(entry) for entry in traces._MEMO.values()}) < len(traces._MEMO)


@pytest.mark.parametrize("text", ["0", "1", "-3", "v", "2*v^2-1", "v^5-7*v^2+4"])
def test_v_ints_round_trips_on_integer_polynomials_in_v(text):
    value = sc_parse(text)
    ints = value.v_ints()
    assert isinstance(ints, tuple) and all(type(a) is int for a in ints)
    assert not ints or ints[-1]  # trimmed
    assert Scalar.from_v_ints(ints) == value
    assert Scalar.from_v_ints(ints).v_ints() == ints


@pytest.mark.parametrize(
    "p, q, total",
    [
        ((1, 0), (-1,), ()),
        ((), (1, 0), (1,)),
        ((), (1, 2, 3), (1, 2, 3)),
        ((1,), (1, 2, 0), (2, 2)),
        ((1, 2, 3), (-1, -2, -3), ()),
        ((0, 1), (0, -1, 5), (0, 0, 5)),
        ((), (), ()),
    ],
)
def test_int_polynomial_sums_are_trimmed(p, q, total):
    # certificates compare these tuples with !=, so zero must be () and a
    # sum never ends in 0, whatever its operands end in
    assert scalars._poly_add(p, q) == scalars._poly_add(q, p) == total
    # accumulated onto an absent key, p is stored as it is, and 0 not at all
    acc = {}
    scalars._poly_acc(acc, "key", p)
    assert acc == ({"key": p} if p else {})


@pytest.mark.parametrize(
    "p, q, product",
    [
        ((), (1, 2, 3), ()),
        ((), (), ()),
        ((2,), (0, 3), (0, 6)),
        ((0, 1), (0, -1, 5), (0, 0, -1, 5)),
        ((1, 2, 3), (-1, -2, -3), (-1, -4, -10, -12, -9)),
        ((0,), (1, 2), ()),
        ((0,), (0,), ()),
    ],
)
def test_int_polynomial_products_by_zero_are_empty(p, q, product):
    assert scalars._poly_mul(p, q) == scalars._poly_mul(q, p) == product
    # a constant factor k is the same product as the scaling by k
    for k, r in ((p, q), (q, p)):
        if len(k) == 1:
            assert scalars._poly_scale(r, k[0]) == product


@pytest.mark.parametrize(
    "value", [HALF * V_MINUS_1, I * U, U, sc_parse("1/(v+1)")], ids=["half", "iu", "u", "inverse"]
)
def test_v_ints_refuses_values_outside_integer_polynomials_in_v(value):
    assert value.v_ints() is None


def test_by_coeff_makes_one_group_for_every_integer_polynomial_coefficient():
    sigma = (2, 1, 3)
    big = sc_int(1 << (scalars._W // 2))
    terms = {
        (sigma, frozenset()): ONE,
        (sigma, frozenset((1, 3))): V_MINUS_1,
        ((1, 2, 3), frozenset((2,))): sc_int(-3),
        ((1, 3, 2), frozenset((1,))): HALF,
        ((3, 2, 1), frozenset()): HALF,
        ((1, 2, 3), frozenset()): I * U,
        ((2, 3, 1), frozenset()): big,
    }
    groups = hecke_clifford._by_coeff(terms)
    assert set(groups) == {ONE, HALF, I * U, big}
    # the group of 1 holds packed ints with their exact summed l1 norm
    assert groups[ONE] == (
        {
            (sigma, 0): _pack((1,)),
            (sigma, 0b1010): _pack((-1, 1)),
            ((1, 2, 3), 0b100): _pack((-3,)),
        },
        6,
    )
    assert groups[HALF] == ({((1, 3, 2), 0b10): 1, ((3, 2, 1), 0): 1}, 2)
    # an integer too long for the width heads a group of its own, at 1
    assert groups[big] == ({((2, 3, 1), 0): 1}, 1)
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


def test_memo_values_are_over_a_minimal_power_of_two(width, monkeypatch):
    # at 16 bits a bound is decoded once it passes 2^8, so most entries at
    # rank 4 are; at rank 3 already, c1 c2 T_sigma for sigma = 231 sums
    # halved terms whose values are all even
    width(16)
    decoded = []
    lowest = traces._lowest

    def spy(e, vec, h):
        out = lowest(e, vec, h)
        if h >> 8:
            decoded.append(out)
        return out

    monkeypatch.setattr(traces, "_lowest", spy)
    for key in _basis_keys(4):
        reduce(AlgebraElement(4, {key: ONE}))
    decoded_ids = {id(out) for out in decoded}
    halved = 0
    for entry in traces._MEMO.values():
        e, vec, h = entry
        assert all(type(p) is int and p for p in vec.values())  # no zeros kept
        if not vec:
            assert (e, h) == (0, 0)
        elif id(entry) in decoded_ids:
            ints = [_unpack(p, h) for p in vec.values()]
            assert h == max(_norm(val) for val in ints)  # exact once decoded
            if e:
                halved += 1
                assert any(a % 2 for val in ints for a in val)
    assert halved


@pytest.mark.parametrize("word", [(1, 2, 1, 3), (2, 1, 3, 2, 3, 1), (4, 3, 2, 1, 4, 2)])
def test_R_class_vector_is_the_reduction_of_R_element(word):
    clear_caches()
    expected = _reference_reduce(R_element(word, 5), {}, {})
    assert R_class_vector(word, 5).coeffs == expected
    assert reduce(R_element(word, 5)).coeffs == expected
