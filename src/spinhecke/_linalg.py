"""Exact linear algebra over the scalar field: ranks at a point modulo a
prime, and back-substitution on triangular systems.

No general system is solved here.  A rank is taken at a point u = u0 in the
field of P = 2^64 - 59 elements, by plain Gaussian elimination on ints.  P is
1 modulo 4, so i maps to a fixed square root of -1 and Gaussian entries need
no second code path.  A minor that is zero over Q(i)(u) is zero at every
point, so the rank at a point is a lower bound on the rank over Q(i)(u).
"""

from __future__ import annotations

from .scalars import _acc

_P = 2**64 - 59  # a prime, 5 modulo 8, so 2 is not a square modulo P
_I_MOD_P = pow(2, (_P - 1) // 4, _P)  # a square root of -1 modulo P
_POINTS = (7919, 104729, 1299709)


def _at(p, u0: int) -> int:
    """The polynomial p, a UPoly with int parts, at u = u0 modulo P."""
    return sum((c.re + c.im * _I_MOD_P) * pow(u0, e, _P) for e, c in p.coeffs.items()) % _P


def _rank_mod_p(rows: list) -> int:
    """The rank modulo P of a non-empty matrix of ints, by Gaussian elimination."""
    rank = 0
    for col in range(len(rows[0])):
        k = next((k for k, row in enumerate(rows) if row[col]), None)
        if k is not None:
            pivot, rank = rows.pop(k), rank + 1
            inv = pow(pivot[col], -1, _P)
            rows = [[(a - row[col] * inv * b) % _P for a, b in zip(row, pivot)] for row in rows]
    return rank


def column_rank(rows) -> int:
    """The rank of a matrix of Scalars at u = u0 modulo P, for the first u0
    of `_POINTS` where no denominator vanishes.

    A rank at a point never exceeds the rank over Q(i)(u), so full rank here
    proves full rank there, which is all that every caller asks: the `spin
    basis rank` check of `verify --suite spin`, and the proof in
    `spin_schur_elements` that the ordinary table, and so the spin table, is
    nonsingular.  Below full rank the value is a lower bound only.
    """
    if not rows:
        return 0
    for u0 in _POINTS:
        values = [[(_at(x.num, u0), _at(x.den, u0)) for x in row] for row in rows]
        if all(den for row in values for _, den in row):
            return _rank_mod_p([[a * pow(b, -1, _P) % _P for a, b in row] for row in values])
    raise ZeroDivisionError("a denominator vanishes at every point")


def solve_triangular(basis: dict, target: dict) -> dict:
    """Coefficients x with target = sum x[key] * basis[key], by back-substitution.

    Each basis[key] is a sparse vector (a dict) whose largest key is key
    itself, so the largest key left in the remainder names the next basis
    vector.  The coefficients come out in descending key order.  Raises
    ValueError when that key has no basis vector, i.e. target is not in the
    span.
    """
    rest = {key: val for key, val in target.items() if not val.is_zero()}
    out = {}
    while rest:
        key = max(rest)
        vec = basis.get(key)
        if vec is None:
            raise ValueError(f"no basis vector for {key}")
        coeff = out[key] = rest[key] / vec[key]
        neg = -coeff
        for k, c in vec.items():
            _acc(rest, k, neg * c)
    return out
