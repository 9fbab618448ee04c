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

The reduction runs on the raw terms of hecke_clifford, keyed by (one-line
permutation, bitmask of the Clifford indices) and with integer polynomials
in v, each packed into one int (scalars._pack), as coefficients.  Its one
division is the 1/2 of the even-block halving (6); by linearity it is taken
after the halved terms are reduced, as one more power of 2 in a common
denominator.  So the memo maps a term to (e, {nu: packed}, h), each value
read over 2^e and of l1 norm at most h.  The bound follows the reduction:
the values of a term sum its rewritten terms' values, so h is the norm
bound of those terms times the largest h among their entries, each brought
to the common power of 2.  A value is
decoded only when h passes 2^(W/2) (_lowest: h becomes the exact norm and e
is made minimal) and at the root of reduce, where a Scalar is built: one
product per (coefficient, nu).  reduce reads the raw groups of its element
(hecke_clifford.AlgebraElement), and reduces the terms of one group
together: a product, a word or an R-word (spin_hecke.R_class_vector)
arrives as the packed terms it was built from, with no Scalar per term,
and an element over Z[v] is one group.  At the root a value is bounded by
the group's bound times the largest h of the memo entries it sums.  A
product's bound may be looser than the exact norm of its terms (multiply
tightens it only past 2^(W/2)), so before a decode is refused the exact
norm takes its place: the bound that the decoded terms, regrouped, carry.
"""

from __future__ import annotations

import json
from collections import namedtuple
from math import gcd as _intgcd

from .combinatorics import (
    enumerate_partitions,
    perm_inverse,
    right_mul_s,
    w_gamma,
    w_gamma_form,
)
from .hecke_clifford import (
    AlgebraElement,
    _lmul_c,
    _lmul_T,
    _rmul_c,
)
from .scalars import HALF, Scalar, V_MINUS_1, ZERO, _W, _acc, _int_acc, _norm, _unpack
from .scalars import _REGISTERED, register_cache

_GIMEL_BASE = V_MINUS_1 * HALF  # (v-1)/2


class ClassVector(namedtuple("ClassVector", "n coeffs")):
    """Coefficients of an element modulo commutators, one per odd partition."""

    __slots__ = ()

    def __getitem__(self, nu) -> Scalar:
        return self.coeffs[tuple(nu)]

    def is_zero(self) -> bool:
        return all(val.is_zero() for val in self.coeffs.values())

    def to_json(self) -> str:
        return json.dumps(
            {",".join(map(str, nu)): val.render() for nu, val in self.coeffs.items()}
        )


def odd_partitions(n: int) -> list:
    return enumerate_partitions(n, "odd")


def zero_vector(n: int) -> ClassVector:
    return ClassVector(n, {nu: ZERO for nu in odd_partitions(n)})


# ---------------------------------------------------------------------------
# the reduction


class ReductionError(RuntimeError):
    """Internal invariant failure; must never fire on valid input."""


_MEMO: dict = register_cache({})
# never filled; bound only because perfbench/tracer.py reports its size
_CPUSH_MEMO: dict = {}
_DEFAULT_FUEL = 5_000_000


def clear_caches() -> None:
    """Empty every cache that a module registered with scalars.register_cache."""
    for cache in _REGISTERED:
        cache.clear()


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


def _lowest(e: int, vec: dict, h: int) -> tuple:
    """(e, vec, h) read as each packed value over 2^e, each of l1 norm at
    most h.  Once h passes 2^(_W / 2) the values are decoded: h becomes
    their largest exact norm and e is made minimal."""
    if not vec:
        return 0, vec, 0
    if not h >> (_W // 2):
        return e, vec, h
    ints = [_unpack(p, h) for p in vec.values()]
    g = _intgcd(*(a for val in ints for a in val))
    t = min(e, (g & -g).bit_length() - 1)
    h = max(sum(abs(a) for a in val) for val in ints) >> t
    if t:
        vec = {nu: p >> t for nu, p in vec.items()}
    return e - t, vec, h


def _reduce_terms(terms: dict, bound: int, fuel: _Fuel) -> tuple:
    """The class vector of raw terms whose packed values have summed l1
    norm at most bound, as (e, {nu: packed}, h): each value an integer
    polynomial in v over 2^e, of l1 norm at most h.  e is not made
    minimal here; _lowest does that."""
    e = top = 0
    acc: dict = {}
    for (sigma, mask), p in terms.items():
        if mask.bit_count() & 1:
            continue  # (1) odd terms carry no trace, and never enter the memo
        f, vec, h = _reduce_term(sigma, mask, fuel)
        if not vec:
            continue
        if f > e:
            acc = {nu: val << (f - e) for nu, val in acc.items()}
            top <<= f - e
            e = f
        elif f < e:
            p <<= e - f
            h <<= e - f
        if h > top:
            top = h
        for nu, val in vec.items():
            _int_acc(acc, nu, p * val)
    # each value sums p * val over the terms, and the p sum to at most bound
    return e, acc, bound * top


def _reduce_term(sigma, mask: int, fuel: _Fuel) -> tuple:
    key = (sigma, mask)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached
    if key in fuel.active:
        raise ReductionError(f"reduction cycle at term {key}")
    fuel.active.add(key)
    try:
        result = _reduce_term_inner(sigma, mask, fuel)
    finally:
        fuel.active.discard(key)
    _MEMO[key] = result
    return result


def _reduce_term_inner(sigma, mask: int, fuel: _Fuel) -> tuple:
    fuel.burn()
    n = len(sigma)

    # (2) rotate a trailing T_j away until sigma^{-1} is a staircase
    inv = perm_inverse(sigma)
    for i in range(1, n + 1):
        if inv[i - 1] > i + 1:
            j = inv[i - 1] - 1
            # minimality of i puts the value j after position i in sigma^{-1},
            # so sigma s_j is shorter and C_I T_sigma = (C_I T_{sigma s_j}) T_j
            # rotates to T_j (C_I T_{sigma s_j}) modulo commutators
            moved, growth = _lmul_T({(right_mul_s(sigma, j), mask): 1}, j)
            if growth == 1:
                # a pass-through: one term with coefficient 1, whose entry
                # is already _lowest and is shared rather than copied
                (key,) = moved
                return _reduce_term(*key, fuel)
            return _lowest(*_reduce_terms(moved, growth, fuel))

    gamma = w_gamma_form(inv)
    if gamma is None:
        raise ReductionError(f"non-staircase survived rotation: {inv}")

    # (3) a block holding an odd number of Clifford letters kills the term
    block_list = list(_blocks(gamma))
    for block in block_list:
        if (mask & ((1 << block.stop) - (1 << block.start))).bit_count() & 1:
            return 0, {}, 0

    # (4) strip Clifford letters pairwise by conjugating with c_{min+1}
    if mask:
        k = (mask & -mask).bit_length()  # min(I) + 1
        conj, bound = _rmul_c(_lmul_c({(sigma, mask): 1}, k), k)
        return _lowest(*_reduce_terms(conj, bound, fuel))

    # (5) sort the staircase blocks
    mu = tuple(sorted(gamma, reverse=True))
    if mu != gamma:
        return _reduce_term(perm_inverse(w_gamma(mu)[0]), 0, fuel)

    if all(part % 2 for part in mu):
        return 0, {mu: 1}, 1

    # (6) halve away the first even block via its Clifford volume element:
    # twice T_w_mu is congruent to the terms below, so by linearity they are
    # reduced with int coefficients and the half is one more power of 2
    a = next(idx for idx, part in enumerate(mu) if part % 2 == 0)
    block = block_list[a]
    size = len(block)
    cur = {(sigma, 0): -1 if (size * (size - 1) // 2) % 2 else 1}
    for k in reversed(block):
        cur = _lmul_c(cur, k)
    bound = 1
    for k in block:
        cur, growth = _rmul_c(cur, k)
        bound *= growth
    _int_acc(cur, (sigma, 0), 1)
    if (sigma, 0) in cur:
        raise ReductionError(f"even-block halving left T_w_mu alive for mu={mu}")
    e, vec, h = _reduce_terms(cur, bound + 1, fuel)
    return _lowest(e + 1, vec, h)


# ---------------------------------------------------------------------------
# public API


def reduce(h: AlgebraElement) -> ClassVector:
    """Class polynomials: the coefficients of h on the T_{w_nu} basis
    modulo commutators (odd terms contribute nothing).  The raw terms of
    one coefficient are reduced together, with one Scalar product per
    (coefficient, nu)."""
    fuel = _Fuel(_DEFAULT_FUEL)
    raw: dict = {}
    for c, (terms, bound) in h._groups().items():
        e, vec, most = _reduce_terms(terms, bound, fuel)
        if most >> (_W - 1):
            # most is bound times the largest memo bound; a product's bound
            # may be looser than the exact norm of its terms, so try that
            most = most // bound * _norm(terms.values(), bound)
        for nu, p in vec.items():
            _acc(raw, nu, c * Scalar.from_v_ints(_unpack(p, most), 1 << e))
    vec = {nu: ZERO for nu in odd_partitions(h.n)}
    for nu, val in raw.items():
        if nu not in vec:
            raise ReductionError(f"reduction produced non-odd partition {nu}")
        vec[nu] = val
    return ClassVector(h.n, vec)


def gimel_weight(n: int, nu) -> Scalar:
    return _GIMEL_BASE ** (n - len(nu))


def gimel(h: AlgebraElement) -> Scalar:
    """The symmetrizing trace: sum of f_nu(h) * ((v-1)/2)^(n - len(nu))."""
    return _gimel_of(reduce(h))


def _gimel_of(vec: ClassVector) -> Scalar:
    total = ZERO
    for nu, val in vec.coeffs.items():
        if not val.is_zero():
            total = total + val * gimel_weight(vec.n, nu)
    return total
