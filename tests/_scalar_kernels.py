"""The generator products and the staircase reduction with a `Scalar` on
every coefficient: the reference that the int-tuple kernels of
`hecke_clifford` and the (e, {nu: ints}) memo of `traces` are checked
against.

Raw terms are {(sigma, frozenset(I)): Scalar} for C_I T_sigma.  The
reduction halves with `half` in step (6), before the halved terms are
reduced, and memoizes Scalar vectors in a dict of its own.
"""

from spinhecke.combinatorics import (
    left_descents,
    left_mul_s,
    perm_inverse,
    right_mul_s,
    w_gamma,
    w_gamma_form,
)
from spinhecke.scalars import ONE, V, V_MINUS_1, _acc, half, sc_int

_MINUS_VM1 = -V_MINUS_1


def _left_hecke(j, sigma):
    """T_j * T_sigma as [(perm, coeff), ...]."""
    inv = perm_inverse(sigma)
    if inv[j - 1] < inv[j]:
        return [(left_mul_s(j, sigma), ONE)]
    return [(sigma, V_MINUS_1), (left_mul_s(j, sigma), V)]


def lmul_c(terms: dict, k: int) -> dict:
    acc: dict = {}
    for (sigma, cliff), coeff in terms.items():
        if sum(1 for e in cliff if e < k) % 2:
            coeff = -coeff
        _acc(acc, (sigma, cliff ^ {k}), coeff)
    return acc


def lmul_T(terms: dict, j: int) -> dict:
    acc: dict = {}
    pair = frozenset((j, j + 1))
    for (sigma, cliff), coeff in terms.items():
        inter = cliff & pair
        if not inter:
            for tau, s in _left_hecke(j, sigma):
                _acc(acc, (tau, cliff), coeff * s)
        elif inter == frozenset((j,)):
            swapped = cliff ^ pair
            for tau, s in _left_hecke(j, sigma):
                _acc(acc, (tau, swapped), coeff * s)
        elif inter == frozenset((j + 1,)):
            swapped = cliff ^ pair
            for tau, s in _left_hecke(j, sigma):
                _acc(acc, (tau, swapped), coeff * s)
            _acc(acc, (sigma, cliff), coeff * V_MINUS_1)
            _acc(acc, (sigma, swapped), coeff * _MINUS_VM1)
        else:
            for tau, s in _left_hecke(j, sigma):
                _acc(acc, (tau, cliff), -(coeff * s))
            _acc(acc, (sigma, cliff - pair), coeff * V_MINUS_1)
            _acc(acc, (sigma, cliff), coeff * V_MINUS_1)
    return acc


def lmul_R(terms: dict, i: int) -> dict:
    """R_i h = c_i T_i h - c_{i+1} T_i h + (v-1) c_{i+1} h."""
    lifted = lmul_T(terms, i)
    acc = lmul_c(lifted, i)
    for key, coeff in lmul_c(lifted, i + 1).items():
        _acc(acc, key, -coeff)
    for key, coeff in lmul_c(terms, i + 1).items():
        _acc(acc, key, coeff * V_MINUS_1)
    return acc


def _push_c_left(sigma, k: int) -> dict:
    """T_sigma * c_k, through the first left descent of sigma."""
    j = next(left_descents(sigma), None)
    if j is None:
        return {(sigma, frozenset((k,))): ONE}
    return lmul_T(_push_c_left(left_mul_s(j, sigma), k), j)


def rmul_c(terms: dict, k: int) -> dict:
    acc: dict = {}
    for (sigma, cliff), coeff in terms.items():
        for (tau, letter), s in _push_c_left(sigma, k).items():
            (m,) = letter
            val = coeff * s
            if sum(1 for e in cliff if e > m) % 2:
                val = -val
            _acc(acc, (tau, cliff ^ letter), val)
    return acc


# ---------------------------------------------------------------------------
# the reduction, Scalar vectors in the memo


def _blocks(gamma):
    offset = 0
    for part in gamma:
        yield range(offset + 1, offset + part + 1)
        offset += part


def _combine(acc: dict, vec: dict, coeff) -> None:
    for nu, val in vec.items():
        _acc(acc, nu, coeff * val)


def reduce_terms(terms: dict, memo: dict, stats: dict) -> dict:
    """{nu: Scalar} of raw Scalar terms; stats["halvings"] counts step (6)."""
    acc: dict = {}
    for (sigma, cliff), coeff in terms.items():
        _combine(acc, _reduce_term(sigma, cliff, memo, stats), coeff)
    return acc


def _reduce_term(sigma, cliff, memo: dict, stats: dict) -> dict:
    key = (sigma, cliff)
    if key not in memo:
        memo[key] = _reduce_term_inner(sigma, cliff, memo, stats)
    return memo[key]


def _reduce_term_inner(sigma, cliff, memo: dict, stats: dict) -> dict:
    n = len(sigma)
    if len(cliff) % 2:
        return {}
    inv = perm_inverse(sigma)
    for i in range(1, n + 1):
        if inv[i - 1] > i + 1:
            j = inv[i - 1] - 1
            moved = lmul_T({(right_mul_s(sigma, j), cliff): ONE}, j)
            return reduce_terms(moved, memo, stats)
    gamma = w_gamma_form(inv)
    block_list = list(_blocks(gamma))
    for block in block_list:
        if sum(1 for e in cliff if e in block) % 2:
            return {}
    if cliff:
        k = min(cliff) + 1
        conj = rmul_c(lmul_c({(sigma, cliff): ONE}, k), k)
        return reduce_terms(conj, memo, stats)
    mu = tuple(sorted(gamma, reverse=True))
    if mu != gamma:
        return _reduce_term(perm_inverse(w_gamma(mu)[0]), cliff, memo, stats)
    if all(part % 2 for part in mu):
        return {mu: ONE}
    stats["halvings"] = stats.get("halvings", 0) + 1
    a = next(idx for idx, part in enumerate(mu) if part % 2 == 0)
    block = block_list[a]
    size = len(block)
    cur = {(sigma, frozenset()): sc_int(-1 if (size * (size - 1) // 2) % 2 else 1)}
    for k in reversed(block):
        cur = lmul_c(cur, k)
    for k in block:
        cur = rmul_c(cur, k)
    _acc(cur, (sigma, frozenset()), ONE)
    assert (sigma, frozenset()) not in cur
    halved = {term: half(val) for term, val in cur.items()}
    return reduce_terms(halved, memo, stats)
