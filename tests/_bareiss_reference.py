"""The fraction-free (Bareiss) solver that `spinhecke._linalg` used before
the spin Schur elements were certified rather than solved for, kept as the
reference: `test_linalg` checks it against Gauss-Jordan elimination, and
`test_spin_hecke` checks the certified weights and the triangular class
polynomials against its solutions.

Bareiss elimination works on polynomials, not on fractions.  Each row is
first multiplied by a common multiple of its entries' denominators.  A step
with pivot p then replaces every entry x of a row below it by
(p x - x_col y) / p_prev, where y is the pivot row, x_col the row's entry in
the pivot column and p_prev the previous pivot; by Sylvester's identity the
division is exact, and each entry stays a minor of the cleared matrix.  The
pivot may sit in any column not pivoted yet (`_choose_pivot`).  A unique
solution comes out of one fraction-free back-substitution as polynomials
y_j = D x_j, D the last pivot, and each unknown costs one division
x_j = y_j / D at the end.  The entries are polynomials over Z[i], so each
step's division is exact over Z[i][u]: `_exact` pseudo-divides on int parts
with scale 1.
"""

from math import lcm

from spinhecke.scalars import GaussianRational, Scalar, UP_ONE, UPoly, _const_den, _lead_factor


def _exact(x: UPoly, d: UPoly) -> UPoly:
    """x / d for a d that divides x over Z[i][u], by pseudo-division once d
    leads with a positive int; a remainder or a scale means a broken invariant."""
    if (c := _lead_factor(d)) is not None:
        x, d = x.scale(c), d.scale(c)
    q, rest, s = x.divmod(d)
    if rest.coeffs or s != 1:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


def _polynomial_row(row) -> list:
    """The row times a common multiple of its entries' denominators, as
    polynomials: the lcm of the constant denominators times each distinct
    other one."""
    k, others = 1, []
    for x in row:
        c = _const_den(x.den)
        if c:
            k = lcm(k, c)
        elif x.den not in others:
            others.append(x.den)
    if k == 1 and not others:
        return [x.num for x in row]
    common = UPoly({0: GaussianRational(k)})
    for den in others:
        common = common * den
    return [x.num * (common if x.den.is_one() else _exact(common, x.den)) for x in row]


def _choose_pivot(work: list, r: int, free: list):
    """(row, column) of the next pivot among rows r.. and the columns not yet
    pivoted: the first constant entry, scanning the columns in order and each
    column down, else the first non-zero entry; None when all are zero.  A
    constant pivot keeps the minors from growing; natural order suits dense
    systems best."""
    first = None
    for c in free:
        for k in range(r, len(work)):
            x = work[k][c]
            if not x.is_zero():
                if not x.degree():
                    return k, c
                if first is None:
                    first = (k, c)
    return first


def _bareiss(work: list, ncols: int) -> list:
    """Bring the polynomial rows of `work` to fraction-free echelon form on
    their first ncols columns, in place; return the pivot column of each
    pivot row, in order.

    A row whose entry in the pivot column is zero would only be scaled by
    p_t / p_(t-1), so it is left as it stands and its stage s (the last step
    that changed it) is kept instead: the scalings telescope, and its next
    change divides by p_s rather than by p_(t-1).  Below the pivot rows only
    zeros remain on the first ncols columns, so a stale row there differs
    from its eliminated form by a non-zero factor only.
    """
    pivots = []
    free = list(range(ncols))
    stage = [0] * len(work)
    pivot_at = [UP_ONE]  # pivot_at[t] is the pivot of step t; step 0 has 1
    while (chosen := _choose_pivot(work, len(pivots), free)) is not None:
        r = len(pivots)
        pivot_row, col = chosen
        work[r], work[pivot_row] = work[pivot_row], work[r]
        stage[r], stage[pivot_row] = stage[pivot_row], stage[r]
        if stage[r] < r:
            scale, by = pivot_at[r], pivot_at[stage[r]]
            work[r] = [x if x.is_zero() else _exact(x * scale, by) for x in work[r]]
        free.remove(col)
        rest = free + list(range(ncols, len(work[r])))
        top = work[r]
        p = top[col]
        for k in range(r + 1, len(work)):
            row = work[k]
            factor = row[col]
            if factor.is_zero():
                continue
            prev = pivot_at[stage[k]]
            divide = not prev.is_one()
            for j in rest:
                a, b = row[j], top[j]
                if b.is_zero():
                    if a.is_zero():
                        continue
                    x = p * a
                else:
                    x = p * a - factor * b
                row[j] = _exact(x, prev) if divide else x
            row[col] = UPoly({})
            stage[k] = r + 1
        pivot_at.append(p)
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
    aug = [_polynomial_row(list(row) + [b]) for row, b in zip(rows, rhs)]
    pivots = _bareiss(aug, ncols)
    for k in range(len(pivots), len(aug)):
        if not aug[k][ncols].is_zero():
            raise ValueError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined linear system")
    if not ncols:
        return []
    det = aug[ncols - 1][pivots[-1]]
    scaled = {}  # scaled[col] = det * x_col, a polynomial
    for i in reversed(range(ncols)):
        row = aug[i]
        acc = det * row[ncols]
        for col in pivots[i + 1 :]:
            if not row[col].is_zero():
                acc = acc - row[col] * scaled[col]
        scaled[pivots[i]] = _exact(acc, row[pivots[i]])
    return [Scalar(scaled[col], det) for col in range(ncols)]
