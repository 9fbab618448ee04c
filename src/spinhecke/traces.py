"""Class polynomials and the symmetrizing trace.

Working modulo the span of all commutators [a, b] = ab - ba, every even
element of the algebra is congruent to a unique combination of the elements
T_{w_nu} over odd partitions nu, and odd elements contribute nothing to any
trace.  This module computes that combination — the class polynomial vector —
by the staircase reduction, and builds the trace functions f_nu and the
symmetrizing form gimel on top of it.

The reduction rewrites the public normal-form terms C_I T_sigma directly,
with the generator products of hecke_clifford: a trailing T_j rotates to the
front, and a Clifford letter c_k conjugates from both sides.  Rotation stops
at inverse staircases T_{w_gamma^{-1}}, so the survivors are T_{w_mu^{-1}}
for odd partitions mu.  These count as T_{w_mu}: w_mu and w_mu^{-1} are
minimal-length elements of one conjugacy class of S_n, so T_{w_mu^{-1}} and
T_{w_mu} agree modulo commutators of the Hecke algebra (Geck-Pfeiffer,
Characters of Finite Coxeter Groups and Iwahori-Hecke Algebras, ch. 8), and
those commutators are commutators here too.

Conjugation invariance is free for ordinary commutators: for invertible u,
x - u^{-1} x u = [u, u^{-1} x], so every rotation and conjugation below
preserves the class vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .combinatorics import (
    enumerate_partitions,
    perm_inverse,
    right_mul_s,
    w_gamma,
    w_gamma_form,
)
from .hecke_clifford import (
    AlgebraElement,
    _acc,
    clear_push_memo,
    _lmul_c,
    _lmul_T,
    _rmul_c,
)
from .scalars import HALF, ONE, Scalar, V_MINUS_1, ZERO, half, sc_int

_GIMEL_BASE = V_MINUS_1 * HALF  # (v-1)/2


@dataclass(frozen=True)
class ClassVector:
    """Coefficients of an element modulo commutators, one per odd partition."""

    n: int
    coeffs: dict

    def __getitem__(self, nu) -> Scalar:
        return self.coeffs[tuple(nu)]

    def is_zero(self) -> bool:
        return all(val.is_zero() for val in self.coeffs.values())

    def add(self, other: "ClassVector") -> "ClassVector":
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        return ClassVector(
            self.n,
            {nu: val + other.coeffs[nu] for nu, val in self.coeffs.items()},
        )

    def scale(self, s: Scalar) -> "ClassVector":
        return ClassVector(self.n, {nu: val * s for nu, val in self.coeffs.items()})

    def to_json(self) -> str:
        return json.dumps(
            {",".join(map(str, nu)): val.render() for nu, val in self.coeffs.items()}
        )


def odd_partitions(n: int) -> list:
    return enumerate_partitions(n, "odd")


def zero_vector(n: int) -> ClassVector:
    return ClassVector(n, {nu: ZERO for nu in odd_partitions(n)})


def unit_vector(n: int, nu) -> ClassVector:
    nu = tuple(nu)
    vec = {rho: ZERO for rho in odd_partitions(n)}
    if nu not in vec:
        raise KeyError(f"{nu} is not an odd partition of {n}")
    vec[nu] = ONE
    return ClassVector(n, vec)


# ---------------------------------------------------------------------------
# the reduction


class ReductionError(RuntimeError):
    """Internal invariant failure; must never fire on valid input."""


_MEMO: dict = {}
# never filled; bound only because perfbench/tracer.py reports its size
_CPUSH_MEMO: dict = {}
_DEFAULT_FUEL = 5_000_000


def clear_caches() -> None:
    """Empty the reduction memo and the Clifford push memo it reads."""
    _MEMO.clear()
    clear_push_memo()


class _Fuel:
    """Per-call budget of term reductions, plus the terms still in progress
    (a term met again while in progress is a rewriting cycle)."""

    __slots__ = ("left", "active")

    def __init__(self, amount: int):
        self.left = amount
        self.active: set = set()

    def burn(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise ReductionError(
                "reduction fuel exhausted; the rewriting invariants are broken"
            )


def _blocks(gamma):
    offset = 0
    for part in gamma:
        yield range(offset + 1, offset + part + 1)
        offset += part


def _combine(acc: dict, vec: dict, coeff: Scalar) -> None:
    for nu, val in vec.items():
        _acc(acc, nu, coeff * val)


def _reduce_terms(terms: dict, fuel: _Fuel) -> dict:
    acc: dict = {}
    for (sigma, cliff), coeff in terms.items():
        _combine(acc, _reduce_term(sigma, cliff, fuel), coeff)
    return acc


def _reduce_term(sigma, cliff, fuel: _Fuel) -> dict:
    key = (sigma, cliff)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached
    if key in fuel.active:
        raise ReductionError(f"reduction cycle at term {key}")
    fuel.active.add(key)
    try:
        result = _reduce_term_inner(sigma, cliff, fuel)
    finally:
        fuel.active.discard(key)
    _MEMO[key] = result
    return result


def _reduce_term_inner(sigma, cliff, fuel: _Fuel) -> dict:
    fuel.burn()
    n = len(sigma)

    # (1) odd terms carry no trace
    if len(cliff) % 2:
        return {}

    # (2) rotate a trailing T_j away until sigma^{-1} is a staircase
    inv = perm_inverse(sigma)
    for i in range(1, n + 1):
        if inv[i - 1] > i + 1:
            j = inv[i - 1] - 1
            # minimality of i puts the value j after position i in sigma^{-1},
            # so sigma s_j is shorter and C_I T_sigma = (C_I T_{sigma s_j}) T_j
            # rotates to T_j (C_I T_{sigma s_j}) modulo commutators
            moved = _lmul_T({(right_mul_s(sigma, j), cliff): ONE}, j)
            return _reduce_terms(moved, fuel)

    gamma = w_gamma_form(inv)
    if gamma is None:
        raise ReductionError(f"non-staircase survived rotation: {inv}")

    # (3) a block holding an odd number of Clifford letters kills the term
    block_list = list(_blocks(gamma))
    for block in block_list:
        if sum(1 for e in cliff if e in block) % 2:
            return {}

    # (4) strip Clifford letters pairwise by conjugating with c_{min+1}
    if cliff:
        k = min(cliff) + 1
        conj = _rmul_c(_lmul_c({(sigma, cliff): ONE}, k), k)
        return _reduce_terms(conj, fuel)

    # (5) sort the staircase blocks
    mu = tuple(sorted(gamma, reverse=True))
    if mu != gamma:
        return _reduce_term(perm_inverse(w_gamma(mu)[0]), cliff, fuel)

    if all(part % 2 for part in mu):
        return {mu: ONE}

    # (6) halve away the first even block via its Clifford volume element
    a = next(idx for idx, part in enumerate(mu) if part % 2 == 0)
    block = block_list[a]
    size = len(block)
    sign = sc_int(-1 if (size * (size - 1) // 2) % 2 else 1)
    cur = {(sigma, frozenset()): sign}
    for k in reversed(block):
        cur = _lmul_c(cur, k)
    for k in block:
        cur = _rmul_c(cur, k)
    _acc(cur, (sigma, frozenset()), ONE)
    if (sigma, frozenset()) in cur:
        raise ReductionError(f"even-block halving left T_w_mu alive for mu={mu}")
    halved = {term: half(val) for term, val in cur.items()}
    return _reduce_terms(halved, fuel)


# ---------------------------------------------------------------------------
# public API


def reduce(h: AlgebraElement) -> ClassVector:
    """Class polynomials: the coefficients of h on the T_{w_nu} basis
    modulo commutators (odd terms contribute nothing)."""
    fuel = _Fuel(_DEFAULT_FUEL)
    raw = _reduce_terms(dict(h.terms), fuel)
    vec = {nu: ZERO for nu in odd_partitions(h.n)}
    for nu, val in raw.items():
        if nu not in vec:
            raise ReductionError(f"reduction produced non-odd partition {nu}")
        vec[nu] = val
    return ClassVector(h.n, vec)


def f_nu(h: AlgebraElement, nu) -> Scalar:
    """The trace function dual to T_{w_nu}: f_nu(T_{w_rho}) = delta."""
    return reduce(h)[tuple(nu)]


def gimel_weight(n: int, nu) -> Scalar:
    return _GIMEL_BASE ** (n - len(nu))


def gimel(h: AlgebraElement) -> Scalar:
    """The symmetrizing trace: sum of f_nu(h) * ((v-1)/2)^(n - len(nu))."""
    vec = reduce(h)
    total = ZERO
    for nu, val in vec.coeffs.items():
        if not val.is_zero():
            total = total + val * gimel_weight(h.n, nu)
    return total
