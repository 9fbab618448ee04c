"""Tensor-space realization of the algebra, used as an independent oracle.

The algebra acts on n-fold tensors over a superspace with basis e_k indexed by
k in {-m,...,-1,1,...,m} (e_k is odd exactly when k < 0).  T_j acts on the
adjacent factors (j, j+1) through an eight-case exchange operator and c_k acts
on factor k through a quarter-turn on the +/- pair with the usual sign crossing
the first k-1 factors.  Every generator preserves the weight of a tuple (how
many factors have each absolute value), and the action commutes with the
quantum queer superalgebra, so a trace is a symmetric polynomial whose m_lambda
coefficient is the trace on the block of dominant weight lambda; its
Q-expansion recovers the character table.

Shared with the symmetric-function route: the scalars, the combinatorics, the
element type with build_T_w, and the CharacterTable container.  Only the
oracle still expands monomials in Q-functions: table_from_columns
back-substitutes its traces against the Q basis, while the g-tilde columns
are Pieri products built in the Q basis.  Independent of it: the columns,
from the tensor action and trace_poly here against the Pieri products of
g-tilde there.  An element's
normal-form terms are read but never multiplied or reduced, and the weight
blocks are enumerated here, not borrowed from symfunc; that is what makes the
comparison a genuine cross-check.  The full-orbit pass (every tuple, every
orbit checked complete and even) is kept in the tests as the reference for the
dominant-weight shortcut.

Operators are never materialized.  A Clifford-free staircase term T_{w_gamma}
(every class column is one) is traced by a chain transfer: its gates are
two-site exchanges, so the diagonal on a weight block is a walk along each
block of gamma whose state is the weight still to place and the index carried
between neighbouring gates, with no tuple of the block ever listed.  Every
other term (Clifford letters, or a permutation that is no staircase) acts on
sparse vectors (dicts mapping index tuples to scalars) and its diagonal is
summed tuple by tuple, one dominant weight block at a time; the tests check
the transfer against that per-tuple sum.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ._record import Record
from .characters import CharacterTable, character_table, table_from_columns
from .combinatorics import enumerate_partitions, partition_str, reduced_word, w_gamma_form
from .hecke_clifford import AlgebraElement, build_T_w
from .scalars import I, MINUS_ONE, ONE, Scalar, U, V, V_MINUS_1, ZERO, _acc
from .symfunc import SymPoly

_NEG_I = MINUS_ONE * I


class TensorSpace(Record):
    """n-fold tensor power of the 2m-dimensional superspace."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError("tensor space needs m >= 1 and n >= 1")
        super().__init__(m, n)

    @property
    def indices(self) -> tuple:
        return tuple(range(-self.m, 0)) + tuple(range(1, self.m + 1))

    def basis_tuples(self):
        return itertools.product(self.indices, repeat=self.n)


@lru_cache(maxsize=None)
def _exchange(k: int, l: int) -> tuple:
    """Image of e_k (x) e_l under the two-factor exchange operator, as a tuple
    of ((a, b), coefficient) meaning coefficient * e_a (x) e_b."""
    if k == l:
        if k >= 1:
            return (((k, k), V), ((-k, -k), V_MINUS_1))
        return (((k, k), MINUS_ONE),)
    if k == -l:
        if k >= 1:
            return (((l, k), ONE),)
        return (((l, k), V), ((k, l), V_MINUS_1))
    if abs(k) < abs(l):
        if l >= 1:
            return (((l, k), U), ((-k, -l), V_MINUS_1), ((k, l), V_MINUS_1))
        sgn = ONE if k >= 1 else MINUS_ONE
        return (((l, k), U * sgn),)
    if k >= 1:
        sgn = ONE if l >= 1 else MINUS_ONE
        return (((l, k), U), ((-k, -l), sgn * V_MINUS_1))
    sgn = ONE if l >= 1 else MINUS_ONE
    return (((l, k), U * sgn), ((k, l), V_MINUS_1))


def apply(space: TensorSpace, gen, vec: dict) -> dict:
    """One generator, ("T", j) or ("c", k), applied to a sparse vector
    {tuple: Scalar}."""
    kind, idx = gen
    if kind not in ("T", "c"):
        raise ValueError(f"unrecognized generator kind {kind!r}")
    out: dict = {}
    if kind == "T":
        if not 1 <= idx <= space.n - 1:
            raise ValueError(f"T index {idx} out of range for n={space.n}")
        pos = idx - 1
        for tup, coeff in vec.items():
            for (a, b), s in _exchange(tup[pos], tup[pos + 1]):
                _acc(out, tup[:pos] + (a, b) + tup[pos + 2 :], coeff * s)
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
            _acc(total, tup, coeff * val)
    return total


def _diagonal(space: TensorSpace, h: AlgebraElement, tup) -> Scalar:
    image = apply_element(space, h, {tup: ONE})
    return image.get(tup, ZERO)


def _picks(counts: tuple):
    """Each signed index a weight with these counts can still place, with the
    counts left after placing it."""
    for k, count in enumerate(counts, start=1):
        if count:
            rest = counts[: k - 1] + (count - 1,) + counts[k:]
            yield k, rest
            yield -k, rest


def _weight_block(counts: tuple):
    """Every index tuple with counts[k - 1] factors of absolute value k, each
    once: a signed first factor, then the block of what remains."""
    if not any(counts):
        yield ()
    for t, rest in _picks(counts):
        for tail in _weight_block(rest):
            yield (t,) + tail


def _staircase_trace(gamma: tuple, lam: tuple) -> Scalar:
    """Trace of T_{w_gamma} on the block of weight lam, by a transfer along
    the chain of exchange gates.

    On a block covering positions p..q the staircase T_p ... T_{q-1} applies
    its gates from (q-1, q) down to (p, p+1), and each gate leaves its right
    factor final.  So the diagonal coefficient at t is a walk from q down to
    p: pick t_q, then at each j < q pick t_j, exchange (t_j, carried), keep
    the outputs whose right factor gives back the index the previous step
    must return, and carry the left one; the block closes when the carried
    index is t_p again.  States are (counts left, carried, required) with
    their summed coefficients; between blocks only the counts remain.
    """
    states = {lam: ONE}
    for part in gamma:
        walk: dict = {}
        for counts, val in states.items():
            for t, rest in _picks(counts):
                _acc(walk, (rest, t, t), val)
        for _ in range(part - 1):
            step: dict = {}
            for (counts, carried, required), val in walk.items():
                for t, rest in _picks(counts):
                    for (a, b), s in _exchange(t, carried):
                        if b == required:
                            _acc(step, (rest, a, t), val * s)
            walk = step
        states = {}
        for (counts, carried, required), val in walk.items():
            if carried == required:
                _acc(states, counts, val)
    return states.get((0,) * len(lam), ZERO)


def trace_poly(h: AlgebraElement, m: int) -> SymPoly:
    """The trace of h as a symmetric polynomial in m variables: the m_lambda
    coefficient is the trace on the block of weight lambda, lambda |- n with
    at most m parts.

    A Clifford-free term T_{w_gamma} on a staircase is traced by the chain
    transfer of _staircase_trace; every other term (one with Clifford letters,
    or a permutation that is no staircase) goes tuple by tuple through the
    diagonal of its action on the weight block.
    """
    if m < 1:
        raise ValueError("need at least one variable")
    space = TensorSpace(m=m, n=h.n)
    staircases = []
    rest = {}
    for (sigma, cliff), coeff in h.terms.items():
        gamma = None if cliff else w_gamma_form(sigma)
        if gamma is None:
            rest[(sigma, cliff)] = coeff
        else:
            staircases.append((gamma, coeff))
    other = AlgebraElement(h.n, rest)
    terms = {}
    for lam in enumerate_partitions(h.n):
        if len(lam) > m:
            continue
        total = sum((c * _staircase_trace(g, lam) for g, c in staircases), ZERO)
        if rest:
            total = sum((_diagonal(space, other, t) for t in _weight_block(lam)), total)
        terms[lam] = total
    return SymPoly(m, h.n, terms)


def oracle_characters(n: int) -> CharacterTable:
    """The character table recomputed from tensor traces alone (m = n)."""
    return table_from_columns(n, lambda nu: trace_poly(build_T_w(nu), n))


class OracleReport(Record):
    __slots__ = ("n", "passed", "mismatch")


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
