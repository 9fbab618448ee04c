"""Irreducible characters on the class basis, Schur elements, generic degrees.

The character table is produced entirely inside symmetric-function land: for
each odd partition nu the deformed product function expands as

    g-tilde_nu = sum over strict lambda of 2^(-(len+delta)/2) Q_lambda zeta^lambda(T_w_nu),

and since Q_lambda = 2^len(lambda) m_lambda + dominance-lower terms, the zeta
values of a column come out by back-substitution against one Q basis built
once per table.  Values on arbitrary elements follow by pairing a column with
class polynomials.  The Schur elements and generic degrees are hook-content
products on the shifted diagram; every factor is a product of cyclotomic
polynomials Phi_d(v), so they are computed as Phi_d exponents and multiplied
out once, already in lowest terms.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._linalg import solve_triangular
from .combinatorics import (
    delta_stat,
    enumerate_partitions,
    partition_str,
    shifted_data,
)
from .hecke_clifford import AlgebraElement, build_T_w
from .scalars import GaussianRational, Scalar, TWO, UPoly, ZERO
from .symfunc import g_tilde, q_basis
from .traces import gimel_weight, reduce, register_cache


@dataclass(frozen=True)
class CharacterTable:
    """Rows: strict partitions; columns: odd partitions; both reverse-lex."""

    n: int
    rows: tuple
    columns: tuple
    entries: dict  # (lambda, nu) -> Scalar

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


_TABLE_CACHE: dict = register_cache({})


def table_from_columns(n: int, column) -> CharacterTable:
    """The table whose column nu is read off column(nu) = sum over strict
    lambda of a_lambda Q_lambda, as zeta^lambda = 2^((len+delta)/2) a_lambda;
    every column is back-substituted against one Q basis of degree n."""
    rows = tuple(enumerate_partitions(n, "strict"))
    columns = tuple(enumerate_partitions(n, "odd"))
    basis = q_basis(n, n)
    entries = {}
    for nu in columns:
        try:
            coeffs = solve_triangular(basis, column(nu).terms)
        except ValueError as err:
            raise ValueError("not in the span of Q-functions") from err
        for lam in rows:
            power = (len(lam) + delta_stat(lam)) // 2
            entries[(lam, nu)] = coeffs.get(lam, ZERO) * TWO**power
    return CharacterTable(n=n, rows=rows, columns=columns, entries=entries)


def character_table(n: int) -> CharacterTable:
    """The table zeta^lambda(T_w_nu), column nu from g-tilde_nu."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    cached = _TABLE_CACHE.get(n)
    if cached is None:
        cached = _TABLE_CACHE[n] = table_from_columns(n, lambda nu: g_tilde(nu, n))
    return cached


def character_values(h: AlgebraElement) -> dict:
    """zeta^lambda(h) for every strict lambda: one class vector of h, paired
    with each row of the table."""
    table = character_table(h.n)
    vec = reduce(h)
    out = {}
    for lam in table.rows:
        total = ZERO
        for nu, val in vec.coeffs.items():
            if not val.is_zero():
                total = total + val * table.entry(lam, nu)
        out[lam] = total
    return out


def character_value(lam, h: AlgebraElement) -> Scalar:
    """zeta^lambda(h) through class polynomials."""
    return character_values(h)[tuple(lam)]


# ---------------------------------------------------------------------------
# Schur elements and degrees, in cyclotomic form
#
# Each value below is a triple (const, a, exps) standing for
# const * v^a * prod_d Phi_d(v)^exps[d], read straight off hooks and contents:
#
#     1 - v^k = -prod_{d | k} Phi_d,
#     1 + v^c = prod_{d | 2c, d not dividing c} Phi_d  for c >= 1,  1 + v^0 = 2.
#
# A partition of n has n hooks, so the signs of the n factors 1 - v^h cancel
# against those of (1 - v)^n.  Quotients subtract exponents, and a value is
# multiplied out into a Scalar once, at the end.


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
    const = Fraction(2) ** (n + (len(lam) - data.delta) // 2)
    exps = _ratio_exponents(data.all_hooks(), n)
    for c in data.all_contents():
        if c:
            exps.subtract(d for d in _divisors(2 * c) if c % d)
        else:
            const /= 2
    return const, -data.n_stat, exps


def _quotient(x: tuple, y: tuple) -> tuple:
    (c1, a1, e1), (c2, a2, e2) = x, y
    exps = Counter(e1)
    exps.subtract(e2)
    return c1 / c2, a1 - a2, exps


def _poly_mul(p: list, q: list) -> list:
    """Product of integer polynomials given as ascending coefficient lists."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _poly_div_exact(p: list, q: list) -> list:
    """p / q for a monic q that divides p."""
    rest = list(p)
    shift = len(q) - 1
    out = [0] * (len(p) - shift)
    for i in range(len(out) - 1, -1, -1):
        c = out[i] = rest[i + shift]
        if c:
            for j, b in enumerate(q):
                rest[i + j] -= c * b
    return out


def _cyclotomic(top: int) -> dict:
    """Phi_d(v) for d <= top, each by exact division of v^d - 1 by the Phi_e
    with e | d, e < d."""
    phi = {}
    for d in range(1, top + 1):
        poly = [-1] + [0] * (d - 1) + [1]
        for e in _divisors(d)[:-1]:
            poly = _poly_div_exact(poly, phi[e])
        phi[d] = poly
    return phi


def _v_poly(coeffs: list, shift: int, const) -> UPoly:
    """const * v^shift * sum_k coeffs[k] v^k, with v = u^2."""
    return UPoly(
        {2 * (k + shift): GaussianRational(const * c) for k, c in enumerate(coeffs)}
    )


def _expand(factored: tuple) -> Scalar:
    """The Scalar of a factored value, multiplied out with no gcd.

    The Phi_d are distinct monic irreducibles prime to v, so positive
    exponents over negative ones is already a coprime pair whose denominator
    is monic with integer coefficients: the canonical form of `Scalar`.
    """
    const, a, exps = factored
    phi = _cyclotomic(max((d for d, e in exps.items() if e), default=1))
    top, bottom = [1], [1]
    for d, e in exps.items():
        for _ in range(e):
            top = _poly_mul(top, phi[d])
        for _ in range(-e):
            bottom = _poly_mul(bottom, phi[d])
    num = _v_poly(top, max(a, 0), const)
    den = _v_poly(bottom, max(-a, 0), 1)
    return Scalar(num, den, _canonical=True)


def poincare(n: int) -> Scalar:
    """prod_{k<=n} (1-v^k)/(1-v)^n."""
    return _expand((Fraction(1), 0, _ratio_exponents(range(1, n + 1), n)))


def schur_element(lam) -> Scalar:
    """c^lambda = 2^(n + (len - delta)/2) prod_h (1 - v^h)
    / (v^n(lambda) (1 - v)^n prod_c (1 + v^c)) over the n hooks h and contents
    c of the shifted diagram.

    Every factor is a product of cyclotomic polynomials Phi_d(v), so the
    value is assembled as exponents of Phi_d and multiplied out once; the
    result is already in lowest terms, and no polynomial gcd is taken.
    """
    return _expand(_schur_factors(tuple(lam)))


def generic_degree(lam) -> Scalar:
    """D^lambda = 2^n P_n / c^lambda, the spin fake degree: a subtraction of
    cyclotomic exponents, multiplied out once with no polynomial gcd."""
    n = sum(lam)
    total = (Fraction(2) ** n, 0, _ratio_exponents(range(1, n + 1), n))
    return _expand(_quotient(total, _schur_factors(tuple(lam))))


def u_weight(lam) -> Scalar:
    """The coefficient of zeta^lambda in the trace decomposition,
    1 / (2^delta c^lambda)."""
    lam = tuple(lam)
    scale = (Fraction(1, 2 ** delta_stat(lam)), 0, Counter())
    return _expand(_quotient(scale, _schur_factors(lam)))


# ---------------------------------------------------------------------------
# the trace decomposition


@dataclass(frozen=True)
class DecompositionReport:
    n: int
    passed: bool
    checked: int
    counterexample: Optional[str]


def verify_gimel_decomposition(n: int) -> DecompositionReport:
    """Check gimel(h) = sum_lambda u_lambda zeta^lambda(h) on every T_w_nu
    (nu odd) and every T_w_mu (mu any partition of n).

    Both sides are linear in the class vector of h, so each h is reduced once
    and paired with gimel's class weights and with the column sums
    sum_lambda u_lambda zeta^lambda(T_w_nu), built once per table.
    """
    table = character_table(n)
    weights = {lam: u_weight(lam) for lam in table.rows}
    column_sums = {}
    for nu in table.columns:
        total = ZERO
        for lam in table.rows:
            total = total + weights[lam] * table.entry(lam, nu)
        column_sums[nu] = total
    seen = []
    for mu in enumerate_partitions(n, "odd") + enumerate_partitions(n):
        if mu in seen:
            continue
        seen.append(mu)
        vec = reduce(build_T_w(mu))
        lhs = rhs = ZERO
        for nu, val in vec.coeffs.items():
            if not val.is_zero():
                lhs = lhs + val * gimel_weight(n, nu)
                rhs = rhs + val * column_sums[nu]
        if lhs != rhs:
            return DecompositionReport(
                n=n,
                passed=False,
                checked=len(seen),
                counterexample=(
                    f"T_w_mu for mu={partition_str(mu)}: "
                    f"gimel={lhs.render()} decomposition={rhs.render()}"
                ),
            )
    return DecompositionReport(n=n, passed=True, checked=len(seen), counterexample=None)
