"""Symmetric polynomials: monomials, Schur Q-functions, and the deformed
family underlying the character formula.

The polynomials of the monomial layer are homogeneous of a declared degree
in a fixed number m of variables, stored as monomial coefficients
{partition: coefficient}: the key lambda stands for the orbit sum m_lambda,
so keys have at most m parts and truncating to m variables drops longer
keys.  No caller hands in full exponent vectors: the tensor oracle's traces,
one per dominant weight, are already m_lambda coefficients, and
`expand_in_Q`, the one Q-expansion, turns them into Q-coefficients by
back-substitution.  Degree-n linear algebra only ever needs m = n
variables; larger m exists for the truncation cross-checks.

The deformed family never touches monomials.  As Q(t) = sum_k q_k t^k =
exp(2 sum_(k odd) p_k t^k / k) (Macdonald III.8), a one-part function is

    g-tilde_(r) = (-1)^(r-1) sum over the partitions sigma of r into odd
                  parts of z_sigma^-1 (1 - v)^(len-1) prod_i [sigma_i]_v 2 p_(sigma_i),

[k]_v = 1 + ... + v^(k-1); the sign is +1 for odd r, but even parts need
it.  So g-tilde_mu = prod_r g-tilde_(r) is a triangular deformation M(v) of
the products of the 2 p_r, the spin analogue of Ram's q-power sums, and
their Q-coefficients come from the bar rule (Macdonald III.8 Ex. 11): for
odd r, Q_mu 2 p_r is the sum of 2 s Q_lambda for each part m of mu with
m + r not in mu (m raised to m + r), s Q_lambda if r is not in mu (r
appended) and (-1)^b s Q_lambda for 0 < b < r/2 with r - b and b not in mu
(both appended, in that order), s the sign of the sort into decreasing
order.  Scaled by prod_r r!, every weight of M is in Z[v], so a column is
sum_rho M_mu,rho(v) times an int vector, on int tuples, divided once.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from math import factorial, prod
from types import MappingProxyType

from ._linalg import solve_triangular
from .combinatorics import enumerate_partitions, is_strict, shifted_data
from .scalars import MINUS_ONE, ONE, Scalar, TWO, ZERO, register_cache, sc_int
from .scalars import _int_acc, _poly_acc, _poly_mul, _poly_scale


class SymPoly:
    """Homogeneous symmetric polynomial as monomial coefficients keyed by
    partitions."""

    __slots__ = ("m", "degree", "terms")

    def __init__(self, m: int, degree: int, terms: dict):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "degree", degree)
        clean = {key: c for key, c in terms.items() if not c.is_zero()}
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
# the deformed family in the Q basis: {strict lambda: coefficient}, an int at
# v = 1, else an integer polynomial in v as an ascending int tuple


def _times_2p(vec: dict, r: int) -> dict:
    """vec * 2 p_r for odd r, by the bar rule of the module docstring.

    >>> _times_2p({(): 1}, 3) == {(3,): 1, (2, 1): -1}
    True
    >>> _times_2p({(2, 1): 1}, 3) == {(5, 1): 2, (4, 2): -2, (3, 2, 1): 1}
    True
    """
    out: dict = {}
    for mu, c in vec.items():
        terms = [(mu[:i] + (m + r,) + mu[i + 1 :], 2 * c) for i, m in enumerate(mu)]
        terms.append((mu + (r,), c))
        terms += [(mu + (r - b, b), (-1) ** b * c) for b in range(1, (r + 1) // 2)]
        for seq, coeff in terms:
            lam = tuple(sorted(seq, reverse=True))
            if len(set(lam)) == len(lam):
                swaps = sum(x < y for i, x in enumerate(seq) for y in seq[i + 1 :])
                _int_acc(out, lam, -coeff if swaps % 2 else coeff)
    return out


def _power_vector(rho: tuple, memo: dict) -> dict:
    """The Q-vector of prod_j 2 p_(rho_j), memoized on the suffixes of rho."""
    vec = memo.get(rho)
    if vec is None:
        vec = memo[rho] = _times_2p(_power_vector(rho[1:], memo), rho[0]) if rho else {(): 1}
    return vec


def _deformation_row(mu: tuple, memo: dict) -> dict:
    """{rho: M} with prod_r r! g-tilde_mu = sum M prod_j 2 p_(rho_j), the
    product of the one-part rows of the module docstring, each scaled by r!;
    memoized on the suffixes of mu."""
    if not mu:
        return {(): (1,)}
    row = memo.get(mu)
    if row is None:
        row = memo[mu] = {}
        r, rest = mu[0], _deformation_row(mu[1:], memo)
        for sigma in enumerate_partitions(r, "odd"):
            z = prod(part**count * factorial(count) for part, count in Counter(sigma).items())
            # (1 - v)^(len-1) prod_i [sigma_i]_v = [sigma_1]_v prod_(i>=2) (1 - v^sigma_i)
            w = ((-1) ** (r - 1) * factorial(r) // z,) * sigma[0]
            for part in sigma[1:]:
                w = _poly_mul(w, (1,) + (0,) * (part - 1) + (-1,))
            for tau, x in rest.items():
                _poly_acc(row, tuple(sorted(sigma + tau, reverse=True)), _poly_mul(w, x))
    return row


def _g_tilde_vector(mu: tuple, memo: tuple) -> dict:
    """The Q-coefficients of g-tilde_mu, sum_rho M_mu,rho(v) times the power
    vector of rho, divided by prod_r r!; memo is a pair of dicts, for the
    power vectors and the rows."""
    powers, rows = memo
    column: dict = {}
    for rho, weight in _deformation_row(mu, rows).items():
        for lam, c in _power_vector(rho, powers).items():
            _poly_acc(column, lam, _poly_scale(weight, c))
    scale = prod(map(factorial, mu))
    return {lam: tuple(c // scale for c in coeff) for lam, coeff in column.items()}


def g_tilde_in_Q(mu) -> dict:
    """The coefficients a_lambda of g-tilde_mu = sum a_lambda Q_lambda, the
    product over the parts r of mu of the one-part functions g-tilde_(r),
    by the bar rule and the deformation rows; zeros are left out.

    >>> {lam: a.render() for lam, a in g_tilde_in_Q((3,)).items()}
    {(3,): 'v^2-v+1', (2, 1): '-v'}
    """
    vec = _g_tilde_vector(tuple(mu), ({}, {}))
    return {lam: Scalar.from_v_ints(coeff) for lam, coeff in vec.items()}


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


# (n, m) -> q_basis(n, m), so the columns of one table share one basis
_Q_BASES: dict = register_cache({})


def expand_in_Q(f: SymPoly) -> dict:
    """Coefficients a_lambda with f = sum a_lambda Q_lambda, by back-substitution
    against the triangular Q basis, built once per degree and variable count;
    a leftover non-strict monomial means f is not in the span and raises
    ValueError.
    """
    n = f.degree
    if f.m < n:
        raise ValueError(f"too few variables: need {n}, have {f.m}")
    basis = _Q_BASES.get((n, f.m))
    if basis is None:
        basis = _Q_BASES[n, f.m] = q_basis(n, f.m)
    try:
        return solve_triangular(basis, f.terms)
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
    total = ZERO
    for lam, val in g_tilde_in_Q(mu).items():
        total = total + val * principal_specialization_Q(lam)
    return total
