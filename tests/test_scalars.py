"""Tests for exact Q(i)(u) arithmetic, canonical forms, parsing, membership."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _euclid_reference import euclid_canonical
from spinhecke.scalars import (
    HALF,
    I,
    MINUS_ONE,
    ONE,
    TWO,
    U,
    V,
    ZERO,
    GaussianRational,
    Scalar,
    ScalarParseError,
    UPoly,
    half,
    sc_int,
    sc_parse,
)

# ---------------------------------------------------------------------------
# pinned arithmetic facts


def test_add_halves():
    a = half(V - ONE)
    assert a + a == V - ONE
    assert (a + a).render() == "v-1"


def test_u_squared_is_v():
    assert U * U == V
    assert (U * U).render() == "v"


def test_cancellation():
    assert (ONE - V * V) / (ONE - V) == ONE + V
    assert ((ONE - V * V) / (ONE - V)).render() == "v+1"


def test_i_squared():
    assert I * I == MINUS_ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        Scalar(V.num, ZERO.num)
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


# pinned canonical strings: value -> rendered form
RENDER_TABLE = {
    "zero": (ZERO, "0"),
    "one": (ONE, "1"),
    "minus_one": (MINUS_ONE, "-1"),
    "half": (HALF, "1/2"),
    "three_halves": (Scalar.from_rational(Fraction(3, 2)), "3/2"),
    "v": (V, "v"),
    "u": (U, "u"),
    "i": (I, "i"),
    "2v+2": (TWO * (V + ONE), "2*v+2"),
    "half_vm1": (half(V - ONE), "(v-1)/2"),
    "inv_vp1": (ONE / (V + ONE), "1/(v+1)"),
    "neg_pow": (Scalar.v_power(-2), "1/v^2"),
    "u_cubed": (U**3, "u^3"),
    "iu": (I * U, "i*u"),
    "mixed": ((TWO + I) * V, "(2+i)*v"),
    "deg6": (
        -((V - ONE) ** 4) * (V * V + ONE),
        "-v^6+4*v^5-7*v^4+8*v^3-7*v^2+4*v-1",
    ),
    "laurent": ((V**3 + ONE) / V, "(v^3+1)/v"),
    "rat_fun": ((V - ONE) / (TWO * (V + ONE)), "(v-1)/(2*v+2)"),
}


@pytest.mark.parametrize("name", sorted(RENDER_TABLE))
def test_render(name):
    value, expected = RENDER_TABLE[name]
    assert value.render() == expected


@pytest.mark.parametrize("name", sorted(RENDER_TABLE))
def test_parse_roundtrip(name):
    value, expected = RENDER_TABLE[name]
    assert sc_parse(expected) == value
    # rendering is stable under a parse/render cycle
    assert sc_parse(value.render()).render() == value.render()


def test_parse_errors_carry_position():
    with pytest.raises(ScalarParseError) as err:
        sc_parse("v + + ")
    assert "position" in str(err.value)
    with pytest.raises(ScalarParseError):
        sc_parse("(v-1")
    with pytest.raises(ScalarParseError):
        sc_parse("v^x")
    with pytest.raises(ScalarParseError):
        sc_parse("1/0")
    with pytest.raises(ScalarParseError, match="position 4: division by zero"):
        sc_parse("0^-1")


def test_parse_whitespace_and_unary():
    assert sc_parse(" - v ^ 2 + 1 ") == ONE - V * V
    assert sc_parse("-2*-3") == sc_int(6)
    assert sc_parse("v^-1") == ONE / V


# ---------------------------------------------------------------------------
# specialization


def test_specialize_simple():
    assert half(V - ONE).specialize(1) == GaussianRational(0)
    assert (TWO * (V * V - V + ONE)).specialize(1) == GaussianRational(2)
    # v = u^2, so u0 = 2 means v = 4
    assert V.specialize(2) == GaussianRational(4)


def test_specialize_pole():
    with pytest.raises(ZeroDivisionError, match="pole"):
        (ONE / (ONE - V)).specialize(1)


def test_specialize_is_multiplicative():
    a = (V + TWO) / (V - TWO)
    b = U**3 - ONE
    u0 = GaussianRational(Fraction(1, 3))
    assert (a * b).specialize(u0) == a.specialize(u0) * b.specialize(u0)
    assert (a + b).specialize(u0) == a.specialize(u0) + b.specialize(u0)


# ---------------------------------------------------------------------------
# ring membership

MEMBERSHIP_TABLE = [
    (half(V - ONE), "A", True),
    (ONE / (V + ONE), "A", False),
    (U, "Qv", False),
    (U, "A", False),
    (V**3 / TWO + V, "A", True),
    (Scalar.v_power(-3) * HALF, "A", True),
    (Scalar.from_rational(Fraction(1, 3)), "A", False),
    (Scalar.from_rational(Fraction(1, 3)), "Qv", True),
    (I, "real", False),
    (I, "Qv", False),
    ((V - ONE) / (V + ONE), "Qv", True),
    ((V - ONE) / (V + ONE), "real", True),
    (U / (U + ONE), "real", True),
    (I * U, "real", False),
    ((V - ONE) / sc_int(4) / V, "A", True),
    (ONE / sc_int(3), "A", False),
    (ONE / (TWO * V + TWO), "A", False),
]


@pytest.mark.parametrize("value,ring,expected", MEMBERSHIP_TABLE)
def test_membership(value, ring, expected):
    assert value.membership(ring) is expected


def test_membership_unknown_ring():
    with pytest.raises(ValueError):
        ONE.membership("bogus")


# ---------------------------------------------------------------------------
# property tests: field axioms and canonicalization


@st.composite
def scalars(draw):
    """Random smallish elements of Q(i)(u), biased toward real Laurent forms."""
    num_terms = draw(st.integers(1, 3))
    num = ZERO
    for _ in range(num_terms):
        c = draw(st.integers(-4, 4))
        if c == 0:
            c = 1
        use_i = draw(st.booleans()) and draw(st.booleans())
        e = draw(st.integers(0, 5))
        term = sc_int(c) * (U**e)
        num = num + (term * I if use_i else term)
    den_choice = draw(st.integers(0, 3))
    if den_choice == 0:
        return num
    if den_choice == 1:
        return num / TWO
    if den_choice == 2:
        return num / (V + ONE)
    return num / (U**draw(st.integers(1, 3)))


@given(scalars(), scalars(), scalars())
@settings(max_examples=100, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars())
@settings(max_examples=100, deadline=None)
def test_add_neg_and_div(a):
    assert a - a == ZERO
    if not a.is_zero():
        assert a / a == ONE
        assert a * (ONE / a) == ONE


@given(scalars(), scalars())
@settings(max_examples=100, deadline=None)
def test_canonicalization_idempotent(a, b):
    if b.is_zero():
        b = ONE
    q = a / b
    # rebuilding from the stored numerator/denominator changes nothing
    assert Scalar(q.num, q.den) == q
    # rendering is injective: distinct values render distinctly
    if a != q:
        assert a.render() != q.render()


@given(scalars())
@settings(max_examples=60, deadline=None)
def test_render_parse_roundtrip(a):
    assert sc_parse(a.render()) == a


@given(scalars())
@settings(max_examples=60, deadline=None)
def test_denominator_normalization(a):
    if a.is_zero():
        return
    den = a.den
    lead = den.coeffs[max(den.coeffs)]
    # leading coefficient of a canonical denominator is a positive integer
    assert lead.im == 0 and lead.re > 0 and lead.re.denominator == 1
    # all coefficients are Gaussian integers
    assert all(
        c.re.denominator == 1 and c.im.denominator == 1 for c in den.coeffs.values()
    )


@given(scalars(), scalars(), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_constant_denominator_path_matches_the_gcd_path(a, b, k):
    # the same sum and product with num and den both times v+1: the
    # constructor must cancel it by the polynomial gcd
    if a.den.degree() or b.den.degree():
        return
    a = a / sc_int(k)
    w = (V + ONE).num
    assert Scalar(a.num * b.num * w, a.den * b.den * w) == a * b
    assert Scalar((a.num * b.den + b.num * a.den) * w, a.den * b.den * w) == a + b
    if not b.is_zero() and not b.num.degree():
        assert Scalar(a.num * b.den * w, a.den * b.num * w) == a / b


def _gaussian_poly(*coeffs) -> UPoly:
    """sum_k coeffs[k] u^k for (re, im) pairs coeffs[k]."""
    return UPoly({k: GaussianRational(*c) for k, c in enumerate(coeffs)})


# (1+i)u+3 leads with a non-real coefficient; 5u+(2+i) = (2+i)((2-i)u+1) has
# Gaussian content 2+i, so dividing by the primitive gcd of a pair that
# shares (2-i)u+1 is exact over Q(i) only
COMMON_FACTORS = [
    _gaussian_poly((1, 0)),
    _gaussian_poly((3, 0), (1, 1)),
    _gaussian_poly((2, 1), (5, 0)),
    _gaussian_poly((1, 0), (2, -1)),
    _gaussian_poly((0, 2), (0, 0), (4, 0)),
    _gaussian_poly((-1, 0), (0, 0), (1, 0)),
]


@st.composite
def gaussian_polys(draw, nonzero: bool = False):
    """Polynomials in u of degree <= 3 with small Gaussian-integer parts."""
    part = st.integers(-5, 5)
    coeffs = draw(
        st.dictionaries(st.integers(0, 3), st.tuples(part, part), min_size=int(nonzero), max_size=4)
    )
    poly = UPoly({e: GaussianRational(*c) for e, c in coeffs.items()})
    return poly if poly.coeffs or not nonzero else _gaussian_poly((1, 1))


@st.composite
def gaussian_pairs(draw):
    """(num, den) sharing a factor drawn from COMMON_FACTORS or at random,
    each times one more factor from COMMON_FACTORS, which may be an
    associate of the other's."""
    shared = draw(st.one_of(st.sampled_from(COMMON_FACTORS), gaussian_polys(nonzero=True)))
    num = draw(st.one_of(st.just(UPoly({})), gaussian_polys())) * shared
    den = draw(gaussian_polys(nonzero=True)) * shared
    extra = st.sampled_from(COMMON_FACTORS)
    return num * draw(extra), den * draw(extra)


@given(gaussian_pairs())
@settings(max_examples=300, deadline=None)
def test_primitive_gcd_form_matches_the_euclid_reference(pair):
    num, den = pair
    value = Scalar(num, den)
    assert (value.num, value.den) == euclid_canonical(num, den)


def test_euclid_reference_cases():
    # ((2-i)u+1) / (5u+2+i) = 1/(2+i) = (2-i)/5, though the primitive gcd
    # 5u+2+i does not divide the numerator over Z[i]
    num = _gaussian_poly((1, 0), (2, -1))
    den = _gaussian_poly((2, 1), (5, 0))
    value = Scalar(num, den)
    assert value.render() == "(2-i)/5"
    assert (value.num, value.den) == euclid_canonical(num, den)
    assert Scalar(UPoly({}), den) == ZERO


def test_canonical_forms_build_no_fraction(monkeypatch):
    from spinhecke.spin_hecke import spin_schur_elements

    def refuse(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr("spinhecke.scalars.Fraction", refuse)
    assert len(spin_schur_elements(7)) == 5
    value = sc_parse("(2*u-i)/((1+i)*u+3) + 1/(5*u+2+i)")
    assert value.render() == "((10-10*i)*v+(3-7*i)*u+(2-6*i))/(10*v+(19-13*i)*u+(9-3*i))"


def test_constructor_refuses_parts_that_are_not_ints():
    half_part = UPoly({0: GaussianRational(Fraction(1, 2))})
    with pytest.raises(TypeError, match="parts must be ints"):
        Scalar(half_part)
    with pytest.raises(TypeError, match="parts must be ints"):
        Scalar(V.num, half_part)
    float_part = GaussianRational(1)
    float_part.im = 0.5  # past GaussianRational's own check
    with pytest.raises(TypeError, match="parts must be ints"):
        Scalar(UPoly({1: float_part}))
    assert Scalar.from_rational(Fraction(-6, 4)) == sc_parse("-3/2")


# ---------------------------------------------------------------------------
# coefficient representation: int parts in num and den, the rational
# constant in den


def _random_expression(rng: random.Random, depth: int) -> str:
    """A random text in the scalar grammar, nested at most depth deep."""
    roll = rng.randrange(10 if depth else 4)
    if roll == 0:
        return str(rng.randrange(0, 7))
    if roll == 1:
        return rng.choice("vui")
    if roll == 2:
        return f"{rng.randrange(1, 13)}/{rng.randrange(1, 9)}"
    if roll == 3:
        return rng.choice(["v-1", "v+1", "2*u-i", "u^3+v"])
    a = _random_expression(rng, depth - 1)
    b = _random_expression(rng, depth - 1)
    if roll <= 5:
        return f"({a}){rng.choice('+-')}({b})"
    if roll <= 7:
        return f"({a})*({b})"
    if roll == 8:
        return f"({a})/({b})"
    return f"({a})^{rng.choice(['-2', '-1', '2', '3'])}"


def _random_values(count: int, seed: int) -> list:
    """count parsed random expressions; None where one divides by zero."""
    rng = random.Random(seed)
    values = []
    for _ in range(count):
        try:
            values.append(sc_parse(_random_expression(rng, 4)))
        except ScalarParseError:
            values.append(None)
    return values


def _content(poly) -> int:
    return math.gcd(*(part for c in poly.coeffs.values() for part in (c.re, c.im)))


def _canonical_parts(x: Scalar) -> bool:
    """Every part of num and den is an int, and no integer > 1 divides both."""
    parts = [
        part
        for poly in (x.num, x.den)
        for c in poly.coeffs.values()
        for part in (c.re, c.im)
    ]
    if not all(type(part) is int for part in parts):
        return False
    return x.is_zero() or math.gcd(_content(x.num), _content(x.den)) == 1


def test_parts_are_ints_or_proper_fractions():
    values = [x for x in _random_values(120, 7) if x is not None]
    assert all(_canonical_parts(x) for x in values)
    for a, b in zip(values, values[1:]):
        results = [a + b, a - b, a * b, a**2, a**3]
        if not b.is_zero():
            results += [a / b, b**-2]
        for result in results:
            assert _canonical_parts(result), (a, b, result)


def test_division_of_ints_is_a_fraction():
    q = GaussianRational(1) / GaussianRational(2)
    assert type(q.re) is Fraction and q.re == Fraction(1, 2)
    assert type(q.im) is int and q.im == 0
    q = GaussianRational(6, 4) / GaussianRational(2)
    assert (type(q.re), type(q.im)) == (int, int) and (q.re, q.im) == (3, 2)
    assert (HALF.num, HALF.den) == (sc_int(1).num, TWO.num)


def test_int_and_fraction_inputs_agree():
    for k in (-3, 0, 1, 7):
        a, b = GaussianRational(k), GaussianRational(Fraction(k))
        assert type(b.re) is int
        assert a == b == k == Fraction(k)
        assert hash(a) == hash(b) == hash(k) == hash(Fraction(k))
        assert Scalar.from_rational(Fraction(2 * k, 2)) == sc_int(k)
        assert hash(Scalar.from_rational(Fraction(k))) == hash(sc_int(k))
    a, b = GaussianRational(1, 2), GaussianRational(Fraction(2, 2), Fraction(4, 2))
    assert a == b and hash(a) == hash(b) == hash((1, 2))
    assert GaussianRational(Fraction(3, 2)) == Fraction(3, 2)
    assert hash(GaussianRational(Fraction(3, 2))) == hash(Fraction(3, 2))


def test_float_parts_are_refused():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        GaussianRational(1, 0.5)
    with pytest.raises(TypeError):
        Scalar.from_rational(0.5)
    with pytest.raises(TypeError):
        V.specialize(0.5)
    assert V.specialize(Fraction(1, 2)) == Fraction(1, 4)
    assert V.specialize(GaussianRational(0, 1)) == -1


def test_render_and_hash_digests_are_pinned():
    # digests of the rendered strings and hash values of 500 random values,
    # taken when every coefficient part was still a Fraction
    values = _random_values(500, 2012)
    rendered = "\n".join("!" if x is None else x.render() for x in values)
    hashes = "\n".join("!" if x is None else str(hash(x)) for x in values)
    assert hashlib.sha256(rendered.encode()).hexdigest() == (
        "7159cb27be733f5b7b1daa9ebef2f474d13e78b2eb3c625a03fcefe72fb9cc84"
    )
    assert hashlib.sha256(hashes.encode()).hexdigest() == (
        "ae7c033c9b3fcfd011023e9f7a19ae9531478dd7db55201a50653b6aa3b1853c"
    )


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
