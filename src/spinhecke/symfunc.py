"""Symmetric polynomials: monomials, Schur Q-functions, and the deformed
family underlying the character formula.

All polynomials here are homogeneous of a declared degree in a fixed number m
of variables, stored as monomial coefficients {partition: coefficient}: the
key lambda stands for the orbit sum m_lambda, so keys have at most m parts and
truncating to m variables drops longer keys.  Full exponent vectors appear only
at the tensor oracle's boundary, where `SymPoly.from_exponents` checks that
every orbit is complete with equal weights.  Degree-n linear algebra only ever
needs m = n variables; larger m exists for the truncation cross-checks.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from math import factorial
from types import MappingProxyType

from ._linalg import solve_triangular
from .combinatorics import enumerate_partitions, is_strict, shifted_data
from .scalars import MINUS_ONE, ONE, Scalar, TWO, V_MINUS_1, ZERO, sc_int

_V = Scalar.v_power(1)


class SymPoly:
    """Homogeneous symmetric polynomial as monomial coefficients keyed by
    partitions."""

    __slots__ = ("m", "degree", "terms")

    def __init__(self, m: int, degree: int, terms: dict):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "degree", degree)
        clean = {key: c for key, c in terms.items() if not c.is_zero()}
        object.__setattr__(self, "terms", MappingProxyType(clean))

    @classmethod
    def from_exponents(cls, m: int, degree: int, terms: dict) -> "SymPoly":
        """The polynomial sum c x^e given on full exponent vectors of length m;
        raises unless every monomial orbit is complete with equal weights."""
        orbits: dict = {}
        for exp, coeff in terms.items():
            if not coeff.is_zero():
                key = tuple(sorted((e for e in exp if e), reverse=True))
                orbits.setdefault(key, []).append(coeff)
        for key, coeffs in orbits.items():
            expected = factorial(m) // _multiplicity_factorials(key, m)
            if len(coeffs) != expected or any(c != coeffs[0] for c in coeffs):
                raise ValueError(f"not symmetric: orbit {key} incomplete or uneven")
        return cls(m, degree, {key: coeffs[0] for key, coeffs in orbits.items()})

    def __setattr__(self, name, value):
        raise AttributeError("SymPoly is immutable")

    def __eq__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self.m == other.m and dict(self.terms) == dict(other.terms)

    def __hash__(self):
        return hash((self.m, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SymPoly") -> "SymPoly":
        self._check(other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            cur = acc.get(key)
            acc[key] = c if cur is None else cur + c
        return SymPoly(self.m, max(self.degree, other.degree), acc)

    def scale(self, s: Scalar) -> "SymPoly":
        return SymPoly(self.m, self.degree, {k: c * s for k, c in self.terms.items()})

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        return product(self, other)

    def _check(self, other: "SymPoly") -> None:
        if self.m != other.m:
            raise ValueError(f"variable count mismatch: {self.m} vs {other.m}")

    def specialize(self, point) -> Scalar:
        """Evaluate at x_i = point[i]."""
        if len(point) != self.m:
            raise ValueError("point length must equal the variable count")
        total = ZERO
        for key, coeff in self.terms.items():
            for exp in _arrangements(key, self.m):
                val = coeff
                for base, e in zip(point, exp):
                    if e:
                        val = val * base**e
                total = total + val
        return total

    def to_json(self) -> str:
        items = sorted(self.terms.items(), reverse=True)
        return json.dumps({",".join(map(str, key)): val.render() for key, val in items})

    def __repr__(self):
        return f"<SymPoly m={self.m} deg={self.degree} {self.to_json()}>"


def _multiplicity_factorials(key, slots: int) -> int:
    """prod over values of (multiplicity)! for key padded with zeros to slots."""
    out = factorial(slots - len(key))
    for count in Counter(key).values():
        out *= factorial(count)
    return out


def _arrangements(key, slots: int) -> list:
    """Every distinct exponent vector of length slots that sorts to key, each
    once: the positions of each part value are chosen among the free ones."""
    vecs = [[0] * slots]
    for value, count in Counter(key).items():
        placed = []
        for vec in vecs:
            free = [i for i, x in enumerate(vec) if not x]
            for chosen in itertools.combinations(free, count):
                new = vec.copy()
                for i in chosen:
                    new[i] = value
                placed.append(new)
        vecs = placed
    return vecs


def _monomial_product(lam: tuple, mu: tuple, m: int) -> dict:
    """m_lam * m_mu in m variables as {nu: integer coefficient}.

    Fix x^lam and add every arrangement b of mu: the count N(nu) of sums
    sorting to nu equals c_nu |orbit(nu)| / |orbit(lam)|.  Working in
    min(m, len(lam) + len(mu)) slots loses nothing and truncates to m.
    """
    if len(lam) < len(mu):
        lam, mu = mu, lam
    slots = min(m, len(lam) + len(mu))
    base = lam + (0,) * (slots - len(lam))
    hits = Counter(
        tuple(sorted((a + b for a, b in zip(base, vec) if a + b), reverse=True))
        for vec in _arrangements(mu, slots)
    )
    weight = _multiplicity_factorials(lam, slots)
    return {
        nu: count * _multiplicity_factorials(nu, slots) // weight
        for nu, count in hits.items()
    }


def zero_poly(m: int, degree: int = 0) -> SymPoly:
    return SymPoly(m, degree, {})


def one_poly(m: int) -> SymPoly:
    return SymPoly(m, 0, {(): ONE})


def monomial(mu, m: int) -> SymPoly:
    """m_mu in m variables: the orbit sum of x^mu."""
    key = tuple(sorted((p for p in mu if p), reverse=True))
    if len(key) > m:
        raise ValueError(f"too few variables: need {len(key)}, have {m}")
    return SymPoly(m, sum(key), {key: ONE})


def product(f: SymPoly, g: SymPoly) -> SymPoly:
    f._check(g)
    acc: dict = {}
    for lam, c1 in f.terms.items():
        for mu, c2 in g.terms.items():
            val = c1 * c2
            for nu, count in _monomial_product(lam, mu, f.m).items():
                term = val if count == 1 else val * sc_int(count)
                cur = acc.get(nu)
                acc[nu] = term if cur is None else cur + term
    return SymPoly(f.m, f.degree + g.degree, acc)


# ---------------------------------------------------------------------------
# the deformed family


def delta(s: int) -> Scalar:
    """2(v^s - (-1)^s)/(v+1), with delta(0) = 1; always a polynomial."""
    if s < 0:
        raise ValueError("delta needs s >= 0")
    if s == 0:
        return ONE
    sign = ONE if s % 2 == 0 else MINUS_ONE
    return TWO * (Scalar.v_power(s) - sign) / (_V + ONE)


def _delta_product(rho) -> Scalar:
    out = ONE
    for part in rho:
        out = out * delta(part)
    return out


def g_tilde_one_part(r: int, m: int) -> SymPoly:
    """The single-part deformed function as a monomial combination."""
    if m < r:
        raise ValueError(f"too few variables: need {r}, have {m}")
    out = zero_poly(m, r)
    for rho in enumerate_partitions(r):
        coeff = _delta_product(rho) * V_MINUS_1 ** (len(rho) - 1)
        out = out + monomial(rho, m).scale(coeff)
    return out


def g_tilde(mu, m: int) -> SymPoly:
    """Product over the parts of mu of the single-part functions."""
    mu = tuple(mu)
    n = sum(mu)
    if m < n:
        raise ValueError(f"too few variables: need {n}, have {m}")
    out = one_poly(m)
    for part in mu:
        out = out * g_tilde_one_part(part, m)
    return out


# ---------------------------------------------------------------------------
# Schur Q-functions


def q_whole(r: int, m: int) -> SymPoly:
    """q_r: the t^r coefficient of prod_i (1 + 2 sum_s (t x_i)^s), which is
    sum over partitions lambda of r of 2^len(lambda) m_lambda."""
    terms = {lam: TWO ** len(lam) for lam in enumerate_partitions(r) if len(lam) <= m}
    return SymPoly(m, r, terms)


def _q_two_row(a: int, b: int, m: int) -> SymPoly:
    if b == 0:
        return q_whole(a, m)
    out = q_whole(a, m) * q_whole(b, m)
    for i in range(1, b + 1):
        piece = q_whole(a + i, m) * q_whole(b - i, m)
        sign = MINUS_ONE if i % 2 else ONE
        out = out + piece.scale(TWO * sign)
    return out


def schur_q(lam, m: int) -> SymPoly:
    """Q_lambda by the two-row rule and first-row Pfaffian expansion."""
    lam = tuple(lam)
    if not is_strict(lam):
        raise ValueError(f"{lam} is not a strict partition")
    if m < sum(lam):
        raise ValueError(f"too few variables: need {sum(lam)}, have {m}")
    return _schur_q_rec(lam, m)


def _schur_q_rec(lam, m: int) -> SymPoly:
    if not lam:
        return one_poly(m)
    if len(lam) == 1:
        return q_whole(lam[0], m)
    if len(lam) == 2:
        return _q_two_row(lam[0], lam[1], m)
    padded = lam if len(lam) % 2 == 0 else lam + (0,)
    out = zero_poly(m, sum(lam))
    for j in range(2, len(padded) + 1):
        rest = tuple(p for idx, p in enumerate(padded) if idx not in (0, j - 1) and p)
        piece = _q_two_row(padded[0], padded[j - 1], m) * _schur_q_rec(rest, m)
        sign = ONE if j % 2 == 0 else MINUS_ONE
        out = out + piece.scale(sign)
    return out


def q_basis(n: int, m: int) -> dict:
    """Monomial coefficients of every Q_lambda, lambda a strict partition of n.

    Q_lambda = 2^len(lambda) m_lambda + dominance-lower terms (Macdonald III.8),
    so lambda is the largest key of its own vector and the family is
    triangular.
    """
    stricts = enumerate_partitions(n, "strict")
    return {lam: schur_q(lam, m).terms for lam in stricts}


def expand_in_Q(f: SymPoly) -> dict:
    """Coefficients a_lambda with f = sum a_lambda Q_lambda, by back-substitution
    against the triangular Q basis; a leftover non-strict monomial means f is
    not in the span and raises ValueError.
    """
    n = f.degree
    if f.m < n:
        raise ValueError(f"too few variables: need {n}, have {f.m}")
    basis, target = q_basis(n, f.m), f.terms
    try:
        return solve_triangular(basis, target)
    except ValueError as err:
        raise ValueError("not in the span of Q-functions") from err


def principal_specialization_Q(lam) -> Scalar:
    """Q_lambda at x = (1, v, v^2, ...): v^n(lam) prod(1+v^c) / prod(1-v^h)."""
    data = shifted_data(tuple(lam))
    num = Scalar.v_power(data.n_stat)
    for c in data.all_contents():
        num = num * (ONE + Scalar.v_power(c))
    den = ONE
    for h in data.all_hooks():
        den = den * (ONE - Scalar.v_power(h))
    return num / den


def principal_specialization_g_tilde(mu) -> Scalar:
    """The exact infinite-variable specialization of g-tilde at x = (1, v, ...),
    computed through the Q-expansion."""
    mu = tuple(mu)
    n = sum(mu)
    coeffs = expand_in_Q(g_tilde(mu, n))
    total = ZERO
    for lam, val in coeffs.items():
        if not val.is_zero():
            total = total + val * principal_specialization_Q(lam)
    return total
