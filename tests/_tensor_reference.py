"""The tensor action and the staircase trace with a `Scalar` on every
coefficient: the reference that the int kernel of `tensor_oracle` and its
block-factored staircase traces are checked against.

`apply` acts by one generator on a sparse vector {tuple: Scalar}, one
`Scalar` product per output coefficient; `_staircase_trace` walks the chain
transfer along every block of gamma in turn, with no memo and no split of the
weight among the blocks.
"""

from __future__ import annotations

from functools import lru_cache

from spinhecke.combinatorics import reduced_word
from spinhecke.hecke_clifford import AlgebraElement
from spinhecke.scalars import I, MINUS_ONE, ONE, U, V, V_MINUS_1, ZERO, Scalar, _acc
from spinhecke.tensor_oracle import TensorSpace

_NEG_I = MINUS_ONE * I


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


def _picks(counts: tuple):
    """Each signed index a weight with these counts can still place, with the
    counts left after placing it."""
    for k, count in enumerate(counts, start=1):
        if count:
            rest = counts[: k - 1] + (count - 1,) + counts[k:]
            yield k, rest
            yield -k, rest


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
