"""Exact linear algebra over the scalar field: Gauss–Jordan elimination and
back-substitution on triangular systems."""

from __future__ import annotations

from .scalars import ZERO, _acc


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


def solve_exact(rows, rhs):
    """Solve an (possibly overdetermined) exact linear system.

    rows: list of coefficient rows, rhs: right-hand sides.  Returns the unique
    solution vector.  Raises ValueError("inconsistent linear system") when no
    solution exists and ValueError("underdetermined linear system") when the
    columns are dependent.
    """
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


def column_rank(rows) -> int:
    if not rows:
        return 0
    return len(_gauss_jordan([list(row) for row in rows], len(rows[0])))


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
