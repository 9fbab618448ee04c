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
element type with build_T_w, the presentation (`relations`, the one list of
defining relations that the normal form is checked against too), the
CharacterTable container, and `symfunc.expand_in_Q`, the one Q-expansion.
Only the oracle expands monomials in Q-functions: oracle_characters
back-substitutes its traces against the Q basis and reads zeta off the
Q-coefficients itself, while the g-tilde columns are built in the Q basis
by the bar rule.  Independent of it: the columns, from the tensor action and
trace_poly here against the bar-rule columns of g-tilde there.  An element's
normal-form terms are read but never multiplied or reduced, and the weight
blocks are enumerated here, not borrowed from symfunc; that is what makes
the comparison a genuine cross-check: the oracle reads the algebra's
definition, never its products.  The full-orbit pass (every tuple, every
orbit checked complete and even) is kept in the tests as the reference for
the dominant-weight shortcut.

One integer kernel carries the action.  Every exchange coefficient lies in
Z[u] (v = u^2), and c_k sends a tuple to one tuple with a sign and one factor
of i.  So a vector is {tuple: ints}, each value an ascending int tuple in u,
and a word acting on a real vector carries one power of i for the whole
vector, the number of its c letters.  No Gaussian arithmetic runs inside the
kernel.  One evaluator, _element_ints, runs a sum of words for the
per-tuple traces and the relation check, keeping the image of every suffix
so that a suffix shared by several words acts once.  `apply` keeps
{tuple: Scalar} at its boundary: it groups the input by coefficient (a real
coefficient in Z[u] joins the int group of 1, any other `Scalar` heads a
group of its own), runs the kernel on each group, and builds one `Scalar`
per output entry.

Operators are never materialized.  A Clifford-free staircase term T_{w_gamma}
(every class column is one) acts as a tensor product of one-block operators,
so its trace on a weight block is a sum, over the splits of the weight among
the blocks of gamma, of products of one-block traces.  A one-block trace
B_p(mu) is a chain transfer: the gates of T_1 ... T_{p-1} are two-site
exchanges, so the diagonal is a walk whose state is the weight still to
place and the index carried between neighbouring gates, with no tuple of the
block ever listed.  B_p(mu) and the trace of every suffix of gamma depend on
the weight only through its sorted counts, so both are memoized on them, for
one trace_poly or oracle_characters call.  Every other term (Clifford
letters, or a permutation that is no staircase) acts on the kernel's sparse
vectors and its diagonal is summed tuple by tuple, one dominant weight block
at a time; the tests check the factored traces against the unfactored
transfer and against that per-tuple sum.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .characters import CharacterTable, character_table
from .combinatorics import (
    delta_stat,
    enumerate_partitions,
    partition_str,
    reduced_word,
    w_gamma_form,
)
from .hecke_clifford import AlgebraElement, build_T_w, relations
from .scalars import ONE, TWO, ZERO, Scalar, _acc, _poly_acc, _poly_add, _poly_mul, _poly_scale
from .symfunc import SymPoly, expand_in_Q

# exchange coefficients as ascending int tuples in u
_V = (0, 0, 1)
_VM1 = (-1, 0, 1)  # v - 1
_MINUS_VM1 = (1, 0, -1)
_U = (0, 1)
_MINUS_U = (0, -1)


class TensorSpace(namedtuple("TensorSpace", "m n")):
    """n-fold tensor power of the 2m-dimensional superspace."""

    __slots__ = ()

    def __new__(cls, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError("tensor space needs m >= 1 and n >= 1")
        return super().__new__(cls, m, n)

    @property
    def indices(self) -> tuple:
        return tuple(range(-self.m, 0)) + tuple(range(1, self.m + 1))

    def basis_tuples(self):
        return itertools.product(self.indices, repeat=self.n)


@lru_cache(maxsize=None)
def _exchange(k: int, l: int) -> tuple:
    """Image of e_k (x) e_l under the two-factor exchange operator, as a tuple
    of ((a, b), ints) meaning ints * e_a (x) e_b, ints ascending in u."""
    if k == l:
        if k >= 1:
            return (((k, k), _V), ((-k, -k), _VM1))
        return (((k, k), (-1,)),)
    if k == -l:
        if k >= 1:
            return (((l, k), (1,)),)
        return (((l, k), _V), ((k, l), _VM1))
    if abs(k) < abs(l):
        if l >= 1:
            return (((l, k), _U), ((-k, -l), _VM1), ((k, l), _VM1))
        return (((l, k), _U if k >= 1 else _MINUS_U),)
    if k >= 1:
        return (((l, k), _U), ((-k, -l), _VM1 if l >= 1 else _MINUS_VM1))
    return (((l, k), _U if l >= 1 else _MINUS_U), ((k, l), _VM1))


# ---------------------------------------------------------------------------
# the integer kernel: vectors {tuple: ints in u}


def _T_ints(vec: dict, j: int) -> dict:
    """T_j on an int vector."""
    pos = j - 1
    out: dict = {}
    for tup, p in vec.items():
        head, tail = tup[:pos], tup[pos + 2 :]
        for (a, b), s in _exchange(tup[pos], tup[pos + 1]):
            _poly_acc(out, head + (a, b) + tail, _poly_mul(p, s))
    return out


def _c_ints(vec: dict, k: int) -> dict:
    """c_k on an int vector, all but the factor i of every image: e_t goes
    to -e_t' when t_k > 0 and to e_t' otherwise (t' is t with t_k negated),
    the sign flipped once more for each odd factor before k."""
    pos = k - 1
    out: dict = {}
    for tup, p in vec.items():
        flips = sum(1 for e in tup[:pos] if e < 0) + (tup[pos] > 0)
        out[tup[:pos] + (-tup[pos],) + tup[pos + 1 :]] = _poly_scale(p, -1) if flips & 1 else p
    return out


def _element_ints(terms, images: dict) -> tuple:
    """sum over (word, ints) in terms of ints times word on the real int
    vector images[()], the rightmost letter first, as the int vectors
    (re, im) of its real and imaginary parts.

    images keeps the image of every suffix of every word, without the factor
    i of its c letters, so a suffix shared by several words, or by the words
    of several calls on one images, acts once.  A word with `turns` c letters
    carries i^turns: its image joins the imaginary part when turns is odd,
    with the sign -1 exactly when turns & 2.
    """
    parts: tuple = ({}, {})
    for word, q in terms:
        k = 0
        while word[k:] not in images:
            k += 1
        image = images[word[k:]]
        while k:
            k -= 1
            kind, idx = word[k]
            image = images[word[k:]] = _T_ints(image, idx) if kind == "T" else _c_ints(image, idx)
        turns = sum(1 for kind, _ in word if kind == "c")
        if turns & 2:
            q = _poly_scale(q, -1)
        part = parts[turns & 1]
        for tup, p in image.items():
            _poly_acc(part, tup, _poly_mul(p, q))
    return parts


def _word(sigma, cliff) -> tuple:
    """The letters of C_I T_sigma: the Clifford word, then a reduced word."""
    return tuple(("c", k) for k in sorted(cliff)) + tuple(("T", j) for j in reduced_word(sigma))


# ---------------------------------------------------------------------------
# the boundary: {key: Scalar} in and out


def _groups(coeffs: dict) -> list:
    """{key: Scalar} as [(c, {key: ints})], read as the sum over c of c times
    its group.  A real coefficient in Z[u] joins the group of 1 as its int
    tuple; any other c heads a group of its own, at 1."""
    ints_of_one: dict = {}
    others: dict = {}
    for key, c in coeffs.items():
        ints = c.u_ints()
        if ints is None:
            others.setdefault(c, {})[key] = (1,)
        elif ints:
            ints_of_one[key] = ints
    groups = [(ONE, ints_of_one)] if ints_of_one else []
    return groups + list(others.items())


def _collect(out: dict, c: Scalar, re: dict, im: dict) -> None:
    """out[t] += c * (re[t] + i im[t]) for the int vectors re and im."""
    for tup, p in re.items():
        _acc(out, tup, c * Scalar.from_u_ints(p, im.get(tup, ())))
    for tup, p in im.items():
        if tup not in re:
            _acc(out, tup, c * Scalar.from_u_ints((), p))


def apply(space: TensorSpace, gen, vec: dict) -> dict:
    """One generator, ("T", j) or ("c", k), applied to a sparse vector
    {tuple: Scalar}."""
    kind, idx = gen
    if kind not in ("T", "c"):
        raise ValueError(f"unrecognized generator kind {kind!r}")
    top = space.n - 1 if kind == "T" else space.n
    if not 1 <= idx <= top:
        raise ValueError(f"{kind} index {idx} out of range for n={space.n}")
    out: dict = {}
    for c, group in _groups(vec):
        if kind == "T":
            _collect(out, c, _T_ints(group, idx), {})
        else:
            _collect(out, c, {}, _c_ints(group, idx))
    return out


# ---------------------------------------------------------------------------
# the defining relations, checked on the kernel


def relation_failure(space: TensorSpace, picks) -> str:
    """The first defining relation of `relations` that the tensor action
    breaks on one of the vectors sum_{t in pick} e_t, pick in picks (each a
    collection of basis tuples), as "<name> leaked", or "" when all hold.
    The relations are read and their coefficients converted once; each
    vector keeps one memo of suffix images across all of them."""
    rels = [
        (name, [(lhs, (1,))], [(word, c.u_ints()) for c, word in rhs])
        for name, lhs, rhs in relations(space.n)
    ]
    for pick in picks:
        images = {(): {t: (1,) for t in pick}}
        for name, lhs, rhs in rels:
            if _element_ints(lhs, images) != _element_ints(rhs, images):
                return f"{name} leaked"
    return ""


# ---------------------------------------------------------------------------
# traces on weight blocks


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


def _block_trace(mu: tuple) -> tuple:
    """B_p(mu): the trace of T_1 ... T_{p-1} on the block of weight mu, p = |mu|,
    by a transfer along the chain of exchange gates.

    The staircase applies its gates from (p-1, p) down to (1, 2), and each
    gate leaves its right factor final.  So the diagonal coefficient at t is
    a walk from p down to 1: pick t_p, then at each j < p pick t_j, exchange
    (t_j, carried), keep the outputs whose right factor gives back the index
    the previous step must return, and carry the left one; the walk closes
    when the carried index is t_1 again.  States are (counts left, carried,
    required) with their summed int coefficients.
    """
    walk: dict = {}
    for t, rest in _picks(mu):
        walk[(rest, t, t)] = (1,)
    for _ in range(sum(mu) - 1):
        step: dict = {}
        for (counts, carried, required), p in walk.items():
            for t, rest in _picks(counts):
                for (a, b), s in _exchange(t, carried):
                    if b == required:
                        _poly_acc(step, (rest, a, t), _poly_mul(p, s))
        walk = step
    total = ()
    for (_, carried, required), p in walk.items():
        if carried == required:
            total = _poly_add(total, p)
    return total


def _splits(counts: tuple, size: int):
    """Each way to take size factors out of a weight with these counts: the
    counts taken and the counts left."""
    if not counts:
        if not size:
            yield (), ()
        return
    first, rest = counts[0], counts[1:]
    for taken in range(max(0, size - sum(rest)), min(first, size) + 1):
        for more, left in _splits(rest, size - taken):
            yield (taken,) + more, (first - taken,) + left


def _dominant(counts) -> tuple:
    return tuple(sorted((c for c in counts if c), reverse=True))


def _staircase_trace(gamma: tuple, lam: tuple, memo: dict) -> tuple:
    """The trace of T_{w_gamma} on the block of weight lam (a partition of
    |gamma|), as ints in u: the sum over the splits of lam between the first
    block of gamma and the rest of B_{gamma_1}(taken) times the trace of the
    rest on what is left.  Both factors depend only on the sorted counts, so
    splits with the same sorted pair are taken once, times their number, and
    memo keeps every (suffix of gamma, sorted weight)."""
    key = (gamma, lam)
    got = memo.get(key)
    if got is not None:
        return got
    if len(gamma) == 1:
        got = _block_trace(lam)
    else:
        pairs: dict = {}
        for taken, left in _splits(lam, gamma[0]):
            pair = (_dominant(taken), _dominant(left))
            pairs[pair] = pairs.get(pair, 0) + 1
        got = ()
        for (mu, nu), count in pairs.items():
            head = _staircase_trace(gamma[:1], mu, memo)
            if head:
                tail = _staircase_trace(gamma[1:], nu, memo)
                got = _poly_add(got, _poly_scale(_poly_mul(head, tail), count))
    memo[key] = got
    return got


def _trace_poly(h: AlgebraElement, m: int, memo: dict) -> SymPoly:
    if m < 1:
        raise ValueError("need at least one variable")
    groups = []
    for c, terms in _groups(h.terms):
        staircases, words = [], []
        for (sigma, cliff), p in terms.items():
            if len(cliff) % 2:
                continue  # an odd term flips the parity of the odd factors: no diagonal
            gamma = None if cliff else w_gamma_form(sigma)
            if gamma is None:
                words.append((_word(sigma, cliff), p))
            else:
                staircases.append((gamma, p))
        groups.append((c, staircases, words))
    terms = {}
    for lam in enumerate_partitions(h.n):
        if len(lam) > m:
            continue
        total = ZERO
        for c, staircases, words in groups:
            diag = ()
            for gamma, p in staircases:
                diag = _poly_add(diag, _poly_mul(p, _staircase_trace(gamma, lam, memo)))
            if words:
                # the imaginary part has no diagonal entry: a T letter keeps
                # the parity of the odd factors and a c letter flips it
                for tup in _weight_block(lam):
                    real = _element_ints(words, {(): {tup: (1,)}})[0]
                    diag = _poly_add(diag, real.get(tup, ()))
            total = total + c * Scalar.from_u_ints(diag)
        terms[lam] = total
    return SymPoly(m, h.n, terms)


def trace_poly(h: AlgebraElement, m: int) -> SymPoly:
    """The trace of h as a symmetric polynomial in m variables: the m_lambda
    coefficient is the trace on the block of weight lambda, lambda |- n with
    at most m parts.

    A Clifford-free term T_{w_gamma} on a staircase is traced block by block
    (_staircase_trace); every other term (one with Clifford letters, or a
    permutation that is no staircase) goes tuple by tuple through the
    diagonal of its action on the weight block.  One `Scalar` is built per
    m_lambda coefficient and coefficient group of h.
    """
    return _trace_poly(h, m, {})


def oracle_characters(n: int) -> CharacterTable:
    """The character table recomputed from tensor traces alone (m = n):
    column nu is the Q-expansion sum a_lambda Q_lambda of the trace of
    T_w_nu, read as zeta^lambda = 2^((len+delta)/2) a_lambda.  The columns
    share one memo of block and suffix traces, and expand_in_Q builds the Q
    basis of degree n once."""
    memo: dict = {}
    rows = tuple(enumerate_partitions(n, "strict"))
    columns = tuple(enumerate_partitions(n, "odd"))
    entries = {}
    for nu in columns:
        coeffs = expand_in_Q(_trace_poly(build_T_w(nu), n, memo))
        for lam in rows:
            power = (len(lam) + delta_stat(lam)) // 2
            entries[(lam, nu)] = coeffs.get(lam, ZERO) * TWO**power
    return CharacterTable(n=n, rows=rows, columns=columns, entries=entries)


def cross_check(n: int) -> str:
    """Compare the tensor-trace table against the symmetric-function table:
    "" when they agree, else the first differing entry."""
    direct = character_table(n)
    oracle = oracle_characters(n)
    for lam in direct.rows:
        for nu in direct.columns:
            lhs = direct.entry(lam, nu)
            rhs = oracle.entry(lam, nu)
            if lhs != rhs:
                return (
                    f"lambda={partition_str(lam)} nu={partition_str(nu)}: "
                    f"table={lhs.render()} oracle={rhs.render()}"
                )
    return ""
