"""Canonical form by Euclid over Q(i): the reference that the primitive-gcd
normalization of `Scalar` is checked against.

This is the rule `Scalar` used before its arithmetic went onto int parts:
divide out the monic gcd of a long-division Euclid on Gaussian-rational
coefficients, make the denominator monic, make that primitive with
Gaussian-integer parts, then move the lcm of the numerator's part
denominators into both.  Reduced pairs differ by a constant factor, and
passing through the (unique) monic denominator kills it.
"""

from fractions import Fraction
from math import gcd, lcm

from spinhecke.scalars import GaussianRational, UPoly

_ONE = GaussianRational(1)


def _scale(p: UPoly, c: GaussianRational) -> UPoly:
    return UPoly({e: k * c for e, k in p.coeffs.items()})


def _divmod(a: UPoly, b: UPoly) -> tuple:
    """Long division over Q(i): a = q*b + r with deg r < deg b."""
    q = {}
    r = dict(a.coeffs)
    top = max(b.coeffs)
    lead = b.coeffs[top]
    while r and max(r) >= top:
        e = max(r)
        f = r[e] / lead
        q[e - top] = f
        for oe, oc in b.coeffs.items():
            te = e - top + oe
            s = r.get(te, GaussianRational(0)) - f * oc
            if s:
                r[te] = s
            else:
                r.pop(te, None)
    return UPoly(q), UPoly(r)


def _monic_gcd(a: UPoly, b: UPoly) -> UPoly:
    while b.coeffs:
        a, b = b, _divmod(a, b)[1]
    return _scale(a, _ONE / a.coeffs[max(a.coeffs)])


def _rational_content(p: UPoly) -> tuple:
    """Positive integers (g, m) with p*m/g having integer re/im parts of
    gcd 1: g is the gcd of the numerators, m the lcm of the denominators."""
    num_g = 0
    den_l = 1
    for c in p.coeffs.values():
        for part in (c.re, c.im):
            if part:
                num_g = gcd(num_g, Fraction(part).numerator)
                den_l = lcm(den_l, Fraction(part).denominator)
    return (num_g or 1), den_l


def euclid_canonical(num: UPoly, den: UPoly) -> tuple:
    """The canonical (numerator, denominator) of num/den, den != 0."""
    if not num.coeffs:
        return UPoly({}), UPoly({0: _ONE})
    if den.degree() > 0:
        g = _monic_gcd(num, den)
        if g.degree() > 0:
            num = _divmod(num, g)[0]
            den = _divmod(den, g)[0]
    inv = _ONE / den.coeffs[max(den.coeffs)]
    num, den = _scale(num, inv), _scale(den, inv)
    g, m = _rational_content(den)
    inv = GaussianRational(Fraction(m, g))
    num, den = _scale(num, inv), _scale(den, inv)
    _, m = _rational_content(num)
    inv = GaussianRational(m)
    return _scale(num, inv), _scale(den, inv)
