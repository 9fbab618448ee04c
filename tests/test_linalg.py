"""Fraction-free elimination against Gauss–Jordan elimination over the field.

`_gauss_jordan` below is the solver that `_linalg` used before its Bareiss
elimination: it divides every pivot row by its pivot, so each step runs a
gcd per entry.  On seeded random systems both must give the same solution,
the same rank and the same error text.
"""

import itertools
import random

import pytest

from _bareiss_reference import _bareiss, _exact, _polynomial_row, solve_exact
from spinhecke._linalg import _I_MOD_P, _P, _POINTS, column_rank
from spinhecke.scalars import I, MINUS_ONE, ONE, Scalar, TWO, U, V, ZERO, sc_int, sc_parse


def _gauss_jordan(work: list, ncols: int) -> list:
    """Bring the rows of `work` to reduced echelon form on their first ncols
    columns, in place; return the pivot columns."""
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        pivot_row = next(
            (k for k in range(r, len(work)) if not work[k][col].is_zero()), None
        )
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][col].inverse()
        work[r] = [x * inv for x in work[r]]
        for k in range(len(work)):
            if k != r and not work[k][col].is_zero():
                factor = work[k][col]
                work[k] = [a - factor * b for a, b in zip(work[k], work[r])]
        pivots.append(col)
    return pivots


def reference_solve(rows, rhs):
    if not rows:
        raise ValueError("empty linear system")
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = _gauss_jordan(aug, ncols)
    for k in range(len(pivots), len(aug)):
        if not aug[k][ncols].is_zero():
            raise ValueError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined linear system")
    sol = [ZERO] * ncols
    for idx, col in enumerate(pivots):
        sol[col] = aug[idx][ncols]
    return sol


def reference_rank(rows) -> int:
    if not rows:
        return 0
    return len(_gauss_jordan([list(row) for row in rows], len(rows[0])))


def _outcome(solve, rows, rhs):
    try:
        return solve(rows, rhs)
    except ValueError as err:
        return str(err)


# -- random entries ---------------------------------------------------------

_POLYNOMIAL = [ZERO, ONE, MINUS_ONE, TWO, V, V - ONE, V * V + ONE, sc_int(3) * V - TWO]
_RATIONAL = _POLYNOMIAL + [
    sc_parse("1/3"),
    sc_parse("(v-1)/2"),
    sc_parse("1/(v+1)"),
    sc_parse("(v^2+1)/(v-1)"),
    sc_parse("2/(3*v^2-1)"),
]
_GAUSSIAN = _RATIONAL + [I, ONE + I, U, I * V - U, sc_parse("(1-i)/(u+i)")]
# no constant entry, so every pivot is a polynomial, and half the entries
# zero, so rows skip steps and are divided by an older pivot when next changed
_SPARSE = [ZERO] * 6 + [V, V - ONE, V * V + ONE, sc_int(3) * V - TWO, V * V - V, I * V + TWO]
_KINDS = {
    "polynomial": _POLYNOMIAL,
    "rational": _RATIONAL,
    "gaussian": _GAUSSIAN,
    "sparse": _SPARSE,
}


def _matrix(rng, pool, m, n):
    return [[rng.choice(pool) for _ in range(n)] for _ in range(m)]


def _combine(rng, pool, vectors):
    """A random linear combination of equal-length vectors."""
    coeffs = [rng.choice(pool) for _ in vectors]
    return [
        sum((c * vec[j] for c, vec in zip(coeffs, vectors)), ZERO)
        for j in range(len(vectors[0]))
    ]


def _apply(rows, x):
    return [sum((a * b for a, b in zip(row, x)), ZERO) for row in rows]


def _systems(kind: str, seed: int):
    """(label, rows, rhs) for square, overdetermined, inconsistent and
    singular systems with up to 4 unknowns (3 with Gaussian entries, where
    the reference is slow, and 5 with sparse ones)."""
    rng = random.Random(seed)
    pool = _KINDS[kind]
    for n in range(1, {"gaussian": 4, "sparse": 6}.get(kind, 5)):
        rows = _matrix(rng, pool, n, n)
        yield "square", rows, [rng.choice(pool) for _ in range(n)]
        tall = _matrix(rng, pool, n + 2, n)
        x = [rng.choice(pool) for _ in range(n)]
        yield "overdetermined", tall, _apply(tall, x)
        rhs = _apply(tall, x)
        rhs[-1] = rhs[-1] + ONE
        yield "inconsistent", tall, rhs
        if n >= 2:
            # a dependent row makes a singular square system; a dependent
            # column makes every right-hand side underdetermined or worse
            base = _matrix(rng, pool, n - 1, n)
            singular = base + [_combine(rng, pool, base)]
            yield "singular", singular, _apply(singular, x)
            yield "singular", singular, [rng.choice(pool) for _ in range(n)]
            cols = [[row[j] for row in rows] for j in range(n - 1)]
            dependent = _combine(rng, pool, cols)
            wide = [row[: n - 1] + [dependent[i]] for i, row in enumerate(rows)]
            yield "dependent column", wide, _apply(wide, x)


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("seed", range(3))
def test_bareiss_matches_gauss_jordan(kind, seed):
    seen = set()
    for label, rows, rhs in _systems(kind, 2012 + seed):
        got = _outcome(solve_exact, rows, rhs)
        assert got == _outcome(reference_solve, rows, rhs), (label, rows, rhs)
        assert column_rank(rows) == reference_rank(rows), (label, rows)
        seen.add(got if isinstance(got, str) else "solved")
    assert seen == {
        "solved",
        "inconsistent linear system",
        "underdetermined linear system",
    }


def _determinant(rows):
    total = ZERO
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = MINUS_ONE if inversions % 2 else ONE
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def test_last_pivot_is_the_determinant():
    # Bareiss keeps every entry a minor of the matrix, so with polynomial
    # entries the last pivot of a nonsingular square matrix is its
    # determinant up to sign, and no entry ever grew beyond that
    rng = random.Random(2012)
    checked = 0
    while checked < 6:
        n = 3 + checked % 3
        rows = _matrix(rng, _SPARSE, n, n)
        det = _determinant(rows)
        if det.is_zero():
            continue
        work = [_polynomial_row(row) for row in rows]
        pivots = _bareiss(work, n)
        last = Scalar(work[n - 1][pivots[-1]])
        assert last in (det, -det), (rows, last.render(), det.render())
        checked += 1


def test_error_texts():
    with pytest.raises(ValueError, match="^empty linear system$"):
        solve_exact([], [])
    with pytest.raises(ValueError, match="^inconsistent linear system$"):
        solve_exact([[ONE], [ONE]], [ONE, TWO])
    with pytest.raises(ValueError, match="^underdetermined linear system$"):
        solve_exact([[ONE, V], [TWO, TWO * V]], [ONE, TWO])
    assert column_rank([]) == 0


def test_constant_denominators():
    half, third = sc_parse("1/2"), sc_parse("1/3")
    rows = [[half, third], [sc_parse("1/4"), ONE]]
    rhs = [ONE, sc_parse("1/6")]
    assert solve_exact(rows, rhs) == reference_solve(rows, rhs)


def test_exact_division_refuses_an_inexact_quotient():
    u_plus_1 = (U + ONE).num
    # a remainder: v+1 = (u+1)(u-1) + 2
    with pytest.raises(ArithmeticError, match="inexact division"):
        _exact((V + ONE).num, u_plus_1)
    # exact over Q(i) but not over Z[i]: (u+1)/(2u+2) = 1/2
    with pytest.raises(ArithmeticError, match="inexact division"):
        _exact(u_plus_1, (TWO * (U + ONE)).num)
    # a divisor with a non-real lead is conjugated first
    d = ((ONE + I) * U + sc_int(3)).num
    assert _exact((U - I).num * d, d) == (U - I).num


# -- ranks at a point modulo P ---------------------------------------------


def test_i_is_a_square_root_of_minus_one_modulo_p():
    assert _P % 4 == 1 and pow(3, _P - 1, _P) == 1
    assert _I_MOD_P * _I_MOD_P % _P == _P - 1


def test_gaussian_ranks():
    # det [[i, 1], [1, i]] = -2, det [[i, 1], [1, -i]] = 0
    assert column_rank([[I, ONE], [ONE, I]]) == 2
    assert column_rank([[I, ONE], [ONE, -I]]) == 1
    assert column_rank([[U, I * U], [I, MINUS_ONE]]) == 1


def test_rank_skips_a_point_where_a_denominator_vanishes():
    pole = ONE / (U - sc_int(_POINTS[0]))
    assert column_rank([[pole, ONE], [ONE, ONE]]) == 2
    assert column_rank([[pole, pole], [ONE, ONE]]) == 1
    for u0 in _POINTS[1:]:
        pole = pole / (U - sc_int(u0))
    with pytest.raises(ZeroDivisionError, match="vanishes at every point"):
        column_rank([[pole]])
