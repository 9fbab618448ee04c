"""Symmetric polynomials given on full exponent vectors: the reference that
partition-keyed results are checked against."""

from collections import Counter
from math import factorial

from spinhecke.symfunc import SymPoly


def from_exponents(m: int, degree: int, terms: dict) -> SymPoly:
    """The polynomial sum c x^e given on full exponent vectors of length m;
    raises unless every monomial orbit is complete with equal weights."""
    orbits: dict = {}
    for exp, coeff in terms.items():
        if not coeff.is_zero():
            key = tuple(sorted((e for e in exp if e), reverse=True))
            orbits.setdefault(key, []).append(coeff)
    for key, coeffs in orbits.items():
        expected = factorial(m)
        for count in Counter(key + (0,) * (m - len(key))).values():
            expected //= factorial(count)
        if len(coeffs) != expected or any(c != coeffs[0] for c in coeffs):
            raise ValueError(f"not symmetric: orbit {key} incomplete or uneven")
    return SymPoly(m, degree, {key: coeffs[0] for key, coeffs in orbits.items()})
