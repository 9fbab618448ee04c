"""Irreducible characters on the class basis, Schur elements, generic degrees.

The character table is produced entirely inside symmetric-function land: for
each odd partition nu the deformed product function expands as

    g-tilde_nu = sum over strict lambda of 2^(-(len+delta)/2) Q_lambda zeta^lambda(T_w_nu),

and `symfunc._g_tilde_vector` builds that expansion directly in the Q basis,
a deformation M(v) of products of power sums whose Q-vectors come from the
bar rule, so a column is read off with no monomials and no
back-substitution.  Its coefficients are integer polynomials in v, and so
are the values: each rank caches them once as int tuples, the one table that
both `character_table` and the spin table are read from.  The Schur elements
and generic degrees are hook-content products on the shifted diagram; every
factor is a ratio of polynomials v^k - 1, so they are kept as Phi_d(v)
exponents and multiplied out once through v^k - 1, in lowest terms.  Both
trace decompositions, the ordinary one here and the spin one, are certified
on one weighted pass over the int table: no element is reduced.
"""

from __future__ import annotations

import io
import json
from collections import Counter, namedtuple
from itertools import accumulate
from operator import sub

from .combinatorics import (
    delta_stat,
    enumerate_partitions,
    partition_str,
    shifted_data,
)
from .scalars import Scalar, _poly_add, _poly_mul, _poly_scale, _v_poly, register_cache
from .symfunc import _g_tilde_vector


class CharacterTable(namedtuple("CharacterTable", "n rows columns entries")):
    """Rows: strict partitions; columns: odd partitions; both reverse-lex.
    `entries` maps (lambda, nu) to a Scalar."""

    __slots__ = ()

    def entry(self, lam, nu) -> Scalar:
        return self.entries[(tuple(lam), tuple(nu))]

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "rows": [
                {
                    "lambda": partition_str(lam),
                    "values": {
                        partition_str(nu): self.entry(lam, nu).render()
                        for nu in self.columns
                    },
                }
                for lam in self.rows
            ],
        }
        return json.dumps(payload)

    def to_csv(self) -> str:
        import csv  # only this method writes CSV, so a CLI launch skips the import

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["lambda"] + [partition_str(nu) for nu in self.columns])
        for lam in self.rows:
            writer.writerow(
                [partition_str(lam)]
                + [self.entry(lam, nu).render() for nu in self.columns]
            )
        return buf.getvalue()

    def to_latex(self) -> str:
        lines = [
            "\\begin{tabular}{l|" + "c" * len(self.columns) + "}",
            " & "
            + " & ".join(f"${partition_str(nu)}$" for nu in self.columns)
            + " \\\\",
            "\\hline",
        ]
        for lam in self.rows:
            cells = [self.entry(lam, nu).render() for nu in self.columns]
            lines.append(f"${partition_str(lam)}$ & " + " & ".join(cells) + " \\\\")
        lines.append("\\end{tabular}")
        return "\n".join(lines)


# n -> {odd nu: {strict lambda: zeta^lambda(T_w_nu) as an int tuple in v}}
_TABLE_CACHE: dict = register_cache({})


def _table_ints(n: int) -> dict:
    """zeta^lambda(T_w_nu) = 2^((len+delta)/2) a_lambda, a_lambda the
    Q-coefficients of g-tilde_nu, as {nu: {lambda: int tuple in v}} with zeros
    left out; cached per rank, the columns built on one memo of their factors."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    table = _TABLE_CACHE.get(n)
    if table is None:
        memo = ({}, {})
        table = {}
        for nu in enumerate_partitions(n, "odd"):
            column = table[nu] = {}
            for lam, coeff in _g_tilde_vector(nu, memo).items():
                power = (len(lam) + delta_stat(lam)) // 2
                column[lam] = tuple(c << power for c in coeff)
        _TABLE_CACHE[n] = table
    return table


def _table_of(n: int, table: dict, den: int = 1) -> CharacterTable:
    """The CharacterTable whose entry (lambda, nu) is table[nu][lambda] / den."""
    rows = tuple(enumerate_partitions(n, "strict"))
    entries = {
        (lam, nu): Scalar.from_v_ints(column.get(lam, ()), den)
        for nu, column in table.items()
        for lam in rows
    }
    return CharacterTable(n=n, rows=rows, columns=tuple(table), entries=entries)


def character_table(n: int) -> CharacterTable:
    """The table zeta^lambda(T_w_nu), column nu the Q-expansion of
    g-tilde_nu built by the bar rule, read off the cached int table."""
    return _table_of(n, _table_ints(n))


# ---------------------------------------------------------------------------
# Schur elements and degrees, as products of v^k - 1
#
# Each value below is a triple of ints (k, a, exps) standing for
# 2^k * v^a * prod_d Phi_d(v)^exps[d], read straight off hooks and contents:
#
#     1 - v^k = -prod_{d | k} Phi_d,
#     1 + v^c = prod_{d | 2c, d not dividing c} Phi_d  for c >= 1,  1 + v^0 = 2.
#
# A partition of n has n hooks, so the signs of the n factors 1 - v^h cancel
# against those of (1 - v)^n.  Quotients subtract exponents, and a value is
# multiplied out into a Scalar once, at the end, through v^k - 1 alone.


def _divisors(k: int) -> list:
    return [d for d in range(1, k + 1) if k % d == 0]


def _ratio_exponents(ks, n: int) -> Counter:
    """Exponents of prod_k (1 - v^k) / (1 - v)^n over n values k."""
    exps = Counter()
    for k in ks:
        exps.update(_divisors(k))
    exps[1] -= n
    return exps


def _schur_factors(lam: tuple) -> tuple:
    data = shifted_data(lam)
    n = sum(lam)
    exps = _ratio_exponents(data.all_hooks(), n)
    for c in data.all_contents():
        exps.subtract(d for d in _divisors(2 * c) if c % d)
    # each row has one content 0 (no divisors): its 1 + v^0 = 2 is the - len(lam)
    return n + (len(lam) - data.delta) // 2 - len(lam), -data.n_stat, exps


def _quotient(x: tuple, y: tuple) -> tuple:
    (k1, a1, e1), (k2, a2, e2) = x, y
    exps = Counter(e1)
    exps.subtract(e2)
    return k1 - k2, a1 - a2, exps


def _phi_products(exps) -> tuple:
    """(prod_d Phi_d^e_d over e_d > 0, prod_d Phi_d^-e_d over e_d < 0) for
    the exponents {d: e_d}, as ascending int tuples in v.

    v^k - 1 = prod_{d | k} Phi_d, so each side is prod_k (v^k - 1)^b_k, with
    b_d = e_d - sum_{j >= 2} b_jd from the top down, and as it is monic, it
    is prod_k (1 - v^k)^b_k up to the sign of its top coefficient.  The
    b_k > 0 multiply in first, each a shift and a subtraction; each b_k < 0
    then divides exactly, as what is left is a polynomial, by the running sum
    q_i = p_i + q_(i-k) with stride k.
    """
    sides = []
    for sign in (1, -1):
        side = {d: sign * e for d, e in exps.items() if sign * e > 0}
        b = [0] * (max(side, default=0) + 1)
        for d in range(len(b) - 1, 0, -1):
            b[d] = side.get(d, 0) - sum(b[2 * d :: d])
        p = [1]
        for k in range(1, len(b)):
            for _ in range(b[k]):
                p = list(map(sub, p + [0] * k, [0] * k + p))
        for k in range(1, len(b)):
            for _ in range(-b[k]):
                for r in range(k):
                    p[r::k] = accumulate(p[r::k])
                del p[-k:]
        sides.append(tuple(p) if p[-1] > 0 else tuple(-c for c in p))
    return tuple(sides)


def _expand(factored: tuple) -> Scalar:
    """The Scalar of a factored value, multiplied out with no gcd.

    The Phi_d are distinct monic irreducibles prime to v, so positive
    exponents over negative ones is already a coprime pair of primitive
    integer polynomials, the denominator monic.  Like v^a, 2^k goes to the
    numerator for k >= 0 and to the denominator otherwise, so one side is
    free of 2: the content condition of the canonical form of `Scalar`.
    """
    k, a, exps = factored
    top, bottom = _phi_products(exps)
    num = _v_poly(top, max(a, 0), 1 << max(k, 0))
    den = _v_poly(bottom, max(-a, 0), 1 << max(-k, 0))
    return Scalar(num, den, _canonical=True)


def schur_element(lam) -> Scalar:
    """c^lambda = 2^(n + (len - delta)/2) prod_h (1 - v^h)
    / (v^n(lambda) (1 - v)^n prod_c (1 + v^c)) over the n hooks h and contents
    c of the shifted diagram.

    Every factor is a ratio of polynomials v^k - 1, so the value is kept as
    Phi_d exponents and multiplied out once through v^k - 1: it is already
    in lowest terms, and no polynomial gcd is taken.
    """
    return _expand(_schur_factors(tuple(lam)))


def generic_degree(lam) -> Scalar:
    """D^lambda = 2^n P_n / c^lambda, the spin fake degree: a subtraction of
    cyclotomic exponents, multiplied out through v^k - 1 with no gcd."""
    n = sum(lam)
    total = (n, 0, _ratio_exponents(range(1, n + 1), n))
    return _expand(_quotient(total, _schur_factors(tuple(lam))))


def _u_factors(lam) -> tuple:
    """The factored coefficient of zeta^lambda in the trace decomposition,
    1 / (2^delta c^lambda)."""
    return _quotient((-delta_stat(lam), 0, Counter()), _schur_factors(lam))


# ---------------------------------------------------------------------------
# the trace decomposition, certified on the int table


def _gimel_sums(n: int) -> tuple:
    """(y, g) with y[nu] = sum_lambda u_lambda zeta^lambda(T_w_nu), u_lambda =
    1 / (2^delta c^lambda), and g[nu] = gimel(T_w_nu) = ((v-1)/2)^(n - len(nu))
    for every odd nu: the one weighted pass over the int table that certifies
    both trace decompositions.  All are int tuples in v times one common
    multiple of every denominator, the powers of 2 and of v cleared by shifts
    and the Phi_d by prod_d Phi_d^(E_d), each multiplied out through v^k - 1.
    """
    table = _table_ints(n)
    weights = {lam: _u_factors(lam) for lam in enumerate_partitions(n, "strict")}
    targets = {nu: (len(nu) - n, 0, Counter({1: n - len(nu)})) for nu in table}
    values = [*weights.values(), *targets.values()]
    twos = max(0, *(-k for k, _, _ in values))
    shift = max(0, *(-a for _, a, _ in values))
    common = Counter()
    for _, _, exps in values:
        common |= -exps

    def cleared(factored):
        k, a, exps = factored
        top = _phi_products(common + exps)[0]
        return (0,) * (a + shift) + _poly_scale(top, 1 << (k + twos))

    weight_ints = {lam: cleared(w) for lam, w in weights.items()}
    sums = dict.fromkeys(table, ())
    for nu, column in table.items():
        for lam, ints in column.items():
            sums[nu] = _poly_add(sums[nu], _poly_mul(ints, weight_ints[lam]))
    return sums, {nu: cleared(g) for nu, g in targets.items()}


def verify_gimel_decomposition(n: int) -> str:
    """Check gimel(T_w_nu) = sum_lambda u_lambda zeta^lambda(T_w_nu) for every
    odd nu, with u_lambda = 1 / (2^delta c^lambda), on the int table: "" when
    it holds, else the text naming the first failing nu.

    gimel(T_w_nu) = ((v-1)/2)^(n - len(nu)), and a trace function is fixed by
    its values on the T_w_nu, so this is the whole identity gimel = sum_lambda
    u_lambda zeta^lambda.
    """
    sums, targets = _gimel_sums(n)
    bad = [partition_str(nu) for nu in sums if sums[nu] != targets[nu]]
    return f"T_w_nu for nu={bad[0]}: gimel != sum_lambda u_lambda zeta^lambda" if bad else ""
