"""Symmetric polynomials: monomials, power sums, Schur Q-functions, and the
deformed family underlying the character formula.

All polynomials here are homogeneous of a declared degree in a fixed number m
of variables, stored on full exponent vectors so that products stay exact and
symmetry is a checkable property rather than a convention.  Degree-n linear
algebra only ever needs m = n variables; larger m exists for the truncation
cross-checks.
"""

from __future__ import annotations

import itertools
import json
from types import MappingProxyType

from ._linalg import solve_triangular
from .combinatorics import enumerate_partitions, is_strict, shifted_data
from .scalars import MINUS_ONE, ONE, Scalar, TWO, V_MINUS_1, ZERO

_V = Scalar.v_power(1)


class SymPoly:
    """Homogeneous symmetric polynomial on full exponent vectors."""

    __slots__ = ("m", "degree", "terms")

    def __init__(self, m: int, degree: int, terms: dict):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "degree", degree)
        clean = {exp: c for exp, c in terms.items() if not c.is_zero()}
        object.__setattr__(self, "terms", MappingProxyType(clean))

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
        for exp, c in other.terms.items():
            cur = acc.get(exp)
            acc[exp] = c if cur is None else cur + c
        return SymPoly(self.m, max(self.degree, other.degree), acc)

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self + other.scale(MINUS_ONE)

    def scale(self, s: Scalar) -> "SymPoly":
        if s.is_zero():
            return SymPoly(self.m, self.degree, {})
        return SymPoly(self.m, self.degree, {e: c * s for e, c in self.terms.items()})

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        return product(self, other)

    def _check(self, other: "SymPoly") -> None:
        if self.m != other.m:
            raise ValueError(f"variable count mismatch: {self.m} vs {other.m}")

    def monomial_view(self) -> dict:
        """Coefficients keyed by the sorted exponent partition."""
        view: dict = {}
        for exp, coeff in self.terms.items():
            key = tuple(sorted((e for e in exp if e), reverse=True))
            seen = view.get(key)
            if seen is None:
                view[key] = coeff
            elif seen != coeff:
                raise ValueError("polynomial is not symmetric")
        return view

    def validate_symmetric(self) -> None:
        """Raise unless every monomial orbit is complete with equal weights."""
        orbits: dict = {}
        for exp, coeff in self.terms.items():
            key = tuple(sorted(exp, reverse=True))
            orbits.setdefault(key, []).append(coeff)
        for key, coeffs in orbits.items():
            expected = _orbit_size(key, self.m)
            if len(coeffs) != expected or any(c != coeffs[0] for c in coeffs):
                raise ValueError(f"orbit of {key} is incomplete or uneven")

    def specialize(self, point) -> Scalar:
        """Evaluate at x_i = point[i]."""
        if len(point) != self.m:
            raise ValueError("point length must equal the variable count")
        total = ZERO
        for exp, coeff in self.terms.items():
            val = coeff
            for base, e in zip(point, exp):
                if e:
                    val = val * base**e
            total = total + val
        return total

    def to_json(self) -> str:
        view = self.monomial_view()
        return json.dumps(
            {",".join(map(str, key)): val.render() for key, val in sorted(view.items(), reverse=True)}
        )

    def __repr__(self):
        return f"<SymPoly m={self.m} deg={self.degree} {self.to_json()}>"


def _orbit_size(sorted_exp, m):
    from math import factorial

    counts: dict = {}
    for e in sorted_exp:
        counts[e] = counts.get(e, 0) + 1
    size = factorial(m)
    for c in counts.values():
        size //= factorial(c)
    return size


def zero_poly(m: int, degree: int = 0) -> SymPoly:
    return SymPoly(m, degree, {})


def one_poly(m: int) -> SymPoly:
    return SymPoly(m, 0, {(0,) * m: ONE})


def monomial(mu, m: int) -> SymPoly:
    """m_mu in m variables: the orbit sum of x^mu."""
    mu = tuple(mu)
    if len(mu) > m:
        raise ValueError(f"too few variables: need {len(mu)}, have {m}")
    padded = mu + (0,) * (m - len(mu))
    terms = {exp: ONE for exp in set(itertools.permutations(padded))}
    return SymPoly(m, sum(mu), terms)


def power_sum(r: int, m: int) -> SymPoly:
    if r < 1:
        raise ValueError("power sum needs r >= 1")
    return monomial((r,), m)


def product(f: SymPoly, g: SymPoly) -> SymPoly:
    f._check(g)
    acc: dict = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            val = c1 * c2
            cur = acc.get(exp)
            total = val if cur is None else cur + val
            if total.is_zero():
                acc.pop(exp, None)
            else:
                acc[exp] = total
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
    """q_r: the t^r coefficient of prod_i (1 + 2 sum_s (t x_i)^s)."""
    if r == 0:
        return one_poly(m)
    if r < 0:
        return zero_poly(m)
    # dp over variables, truncated at degree r; descending s keeps the
    # lower slices at their pre-variable state, so each variable is
    # consumed at most once
    slices = [dict() for _ in range(r + 1)]
    slices[0][(0,) * m] = ONE
    for i in range(m):
        for s in range(r, 0, -1):
            acc = slices[s]
            for a in range(1, s + 1):
                for exp, coeff in slices[s - a].items():
                    new = exp[:i] + (a,) + exp[i + 1 :]
                    val = coeff * TWO
                    cur = acc.get(new)
                    acc[new] = val if cur is None else cur + val
    return SymPoly(m, r, slices[r])


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
    return {lam: schur_q(lam, m).monomial_view() for lam in stricts}


def expand_in_Q(f: SymPoly) -> dict:
    """Coefficients a_lambda with f = sum a_lambda Q_lambda, by back-substitution
    against the triangular Q basis; a leftover non-strict monomial means f is
    not in the span and raises ValueError.
    """
    n = f.degree
    if f.m < n:
        raise ValueError(f"too few variables: need {n}, have {f.m}")
    basis, target = q_basis(n, f.m), f.monomial_view()
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
