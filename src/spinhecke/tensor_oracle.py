"""Tensor-space realization of the algebra, used as an independent oracle.

The algebra acts on n-fold tensors over a superspace with basis e_k indexed by
k in {-m,...,-1,1,...,m} (e_k is odd exactly when k < 0).  T_j acts on the
adjacent factors (j, j+1) through an eight-case exchange operator and c_k acts
on factor k through a quarter-turn on the +/- pair with the usual sign crossing
the first k-1 factors.  Traces against the diagonal weight operator produce
symmetric polynomials whose Q-expansion recovers the character table.

Shared with the symmetric-function route: the scalars, the combinatorics, the
element type with build_T_w, SymPoly, and table_from_columns (the Q basis,
back-substitution and scaling into a CharacterTable).  Independent of it: the
columns, from the tensor action and trace_poly here against the normal-form
product, the reduction modulo commutators and g-tilde there.  An element's
normal-form terms are read but never multiplied or reduced, and trace_poly
hands full exponent vectors to SymPoly.from_exponents, which checks every
orbit; that is what makes the comparison a genuine cross-check.

Operators are never materialized: everything is the action on sparse vectors
(dicts mapping index tuples to scalars), and traces accumulate diagonal
coefficients one weight block at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .characters import CharacterTable, character_table, table_from_columns
from .combinatorics import partition_str, reduced_word
from .hecke_clifford import AlgebraElement, build_T_w
from .scalars import I, MINUS_ONE, ONE, Scalar, U, V, ZERO
from .symfunc import SymPoly

_V1 = V - ONE
_NEG_I = MINUS_ONE * I


@dataclass(frozen=True)
class TensorSpace:
    """n-fold tensor power of the 2m-dimensional superspace."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("tensor space needs m >= 1 and n >= 1")

    @property
    def indices(self) -> tuple:
        return tuple(range(-self.m, 0)) + tuple(range(1, self.m + 1))

    @property
    def dimension(self) -> int:
        return (2 * self.m) ** self.n

    def basis_tuples(self):
        return itertools.product(self.indices, repeat=self.n)

    def weight(self, tup) -> tuple:
        counts = [0] * self.m
        for idx in tup:
            counts[abs(idx) - 1] += 1
        return tuple(counts)


@lru_cache(maxsize=None)
def _exchange(k: int, l: int) -> tuple:
    """Image of e_k (x) e_l under the two-factor exchange operator, as a tuple
    of ((a, b), coefficient) meaning coefficient * e_a (x) e_b."""
    if k == l:
        if k >= 1:
            return (((k, k), V), ((-k, -k), _V1))
        return (((k, k), MINUS_ONE),)
    if k == -l:
        if k >= 1:
            return (((l, k), ONE),)
        return (((l, k), V), ((k, l), _V1))
    if abs(k) < abs(l):
        if l >= 1:
            return (((l, k), U), ((-k, -l), _V1), ((k, l), _V1))
        sgn = ONE if k >= 1 else MINUS_ONE
        return (((l, k), U * sgn),)
    if k >= 1:
        sgn = ONE if l >= 1 else MINUS_ONE
        return (((l, k), U), ((-k, -l), sgn * _V1))
    sgn = ONE if l >= 1 else MINUS_ONE
    return (((l, k), U * sgn), ((k, l), _V1))


def _parse_generator(gen):
    if isinstance(gen, str):
        kind, idx = gen[0], gen[1:]
        if kind not in ("T", "c") or not idx.isdigit():
            raise ValueError(f"unrecognized generator {gen!r}")
        return kind, int(idx)
    kind, idx = gen
    if kind not in ("T", "c"):
        raise ValueError(f"unrecognized generator kind {kind!r}")
    return kind, int(idx)


def apply(space: TensorSpace, gen, vec: dict) -> dict:
    """One generator applied to a sparse vector {tuple: Scalar}."""
    kind, idx = _parse_generator(gen)
    out: dict = {}
    if kind == "T":
        if not 1 <= idx <= space.n - 1:
            raise ValueError(f"T index {idx} out of range for n={space.n}")
        pos = idx - 1
        for tup, coeff in vec.items():
            for (a, b), s in _exchange(tup[pos], tup[pos + 1]):
                key = tup[:pos] + (a, b) + tup[pos + 2 :]
                cur = out.get(key)
                val = coeff * s if cur is None else cur + coeff * s
                if val.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = val
        return out
    if not 1 <= idx <= space.n:
        raise ValueError(f"c index {idx} out of range for n={space.n}")
    pos = idx - 1
    for tup, coeff in vec.items():
        sign_flips = sum(1 for e in tup[:pos] if e < 0)
        factor = _NEG_I if tup[pos] > 0 else I
        if sign_flips % 2:
            factor = -factor
        key = tup[:pos] + (-tup[pos],) + tup[pos + 1 :]
        out[key] = coeff * factor
    return out


def apply_element(space: TensorSpace, h: AlgebraElement, vec: dict) -> dict:
    """Whole-element action: each stored term is a Clifford word times T_sigma,
    so the T word acts first (right to left), then the Clifford letters."""
    if h.n != space.n:
        raise ValueError(f"element rank {h.n} does not match tensor rank {space.n}")
    total: dict = {}
    for (sigma, cliff), coeff in h.terms.items():
        cur = vec
        for j in reversed(reduced_word(sigma)):
            cur = apply(space, ("T", j), cur)
        for k in sorted(cliff, reverse=True):
            cur = apply(space, ("c", k), cur)
        for tup, val in cur.items():
            prev = total.get(tup)
            add = coeff * val if prev is None else prev + coeff * val
            if add.is_zero():
                total.pop(tup, None)
            else:
                total[tup] = add
    return total


def _diagonal(space: TensorSpace, h: AlgebraElement, tup) -> Scalar:
    image = apply_element(space, h, {tup: ONE})
    return image.get(tup, ZERO)


def weight_trace(h: AlgebraElement, mu, m: int) -> Scalar:
    """Trace of the action of h on the weight-mu block."""
    mu = tuple(mu)
    if len(mu) != m:
        raise ValueError(f"weight needs exactly {m} parts, got {len(mu)}")
    if any(part < 0 for part in mu) or sum(mu) != h.n:
        raise ValueError(f"weight {mu} does not sum to {h.n}")
    space = TensorSpace(m=m, n=h.n)
    values = []
    for k, count in enumerate(mu, start=1):
        values.extend([k] * count)
    total = ZERO
    for arrangement in set(itertools.permutations(values)):
        for signs in itertools.product((1, -1), repeat=h.n):
            tup = tuple(s * a for s, a in zip(signs, arrangement))
            total = total + _diagonal(space, h, tup)
    return total


def trace_poly(h: AlgebraElement, m: int) -> SymPoly:
    """All weight traces of h assembled into one symmetric polynomial; every
    monomial orbit is checked to be complete with equal weights."""
    if m < 1:
        raise ValueError("need at least one variable")
    space = TensorSpace(m=m, n=h.n)
    terms: dict = {}
    for tup in space.basis_tuples():
        d = _diagonal(space, h, tup)
        if d.is_zero():
            continue
        exp = space.weight(tup)
        cur = terms.get(exp)
        terms[exp] = d if cur is None else cur + d
    return SymPoly.from_exponents(m, h.n, terms)


def oracle_characters(n: int) -> CharacterTable:
    """The character table recomputed from tensor traces alone (m = n)."""
    return table_from_columns(n, lambda nu: trace_poly(build_T_w(nu), n))


@dataclass(frozen=True)
class OracleReport:
    n: int
    passed: bool
    mismatch: Optional[str]


def cross_check(n: int) -> OracleReport:
    """Compare the tensor-trace table against the symmetric-function table."""
    direct = character_table(n)
    oracle = oracle_characters(n)
    for lam in direct.rows:
        for nu in direct.columns:
            lhs = direct.entry(lam, nu)
            rhs = oracle.entry(lam, nu)
            if lhs != rhs:
                return OracleReport(
                    n=n,
                    passed=False,
                    mismatch=(
                        f"lambda={partition_str(lam)} nu={partition_str(nu)}: "
                        f"table={lhs.render()} oracle={rhs.render()}"
                    ),
                )
    return OracleReport(n=n, passed=True, mismatch=None)
