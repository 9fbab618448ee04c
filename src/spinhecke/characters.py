"""Irreducible characters on the class basis, Schur elements, generic degrees.

The character table is produced entirely inside symmetric-function land: for
each odd partition nu the deformed product function expands as

    g-tilde_nu = sum over strict lambda of 2^(-(len+delta)/2) Q_lambda zeta^lambda(T_w_nu),

so one exact linear solve per column recovers the zeta values.  Values on
arbitrary elements follow by pairing a column with class polynomials, and the
Schur element / generic degree formulas come from hooks and contents of the
doubled diagram.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Optional

from .combinatorics import (
    delta_stat,
    enumerate_partitions,
    partition_str,
    shifted_data,
)
from .hecke_clifford import AlgebraElement, build_T_w
from .scalars import ONE, Scalar, TWO, ZERO
from .symfunc import expand_in_Q, g_tilde
from .traces import gimel, reduce

_V = Scalar.v_power(1)


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


_TABLE_CACHE: dict = {}


def _column(n: int, nu) -> dict:
    coeffs = expand_in_Q(g_tilde(nu, n))
    out = {}
    for lam in enumerate_partitions(n, "strict"):
        a = coeffs.get(lam, ZERO)
        power = (len(lam) + delta_stat(lam)) // 2
        out[lam] = a * TWO**power
    return out


def character_table(n: int) -> CharacterTable:
    """The table zeta^lambda(T_w_nu); columns are independent exact solves."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    cached = _TABLE_CACHE.get(n)
    if cached is not None:
        return cached
    rows = tuple(enumerate_partitions(n, "strict"))
    columns = tuple(enumerate_partitions(n, "odd"))
    solved = [_column(n, nu) for nu in columns]
    entries = {
        (lam, nu): col[lam] for nu, col in zip(columns, solved) for lam in rows
    }
    table = CharacterTable(n=n, rows=rows, columns=columns, entries=entries)
    _TABLE_CACHE[n] = table
    return table


def character_value(lam, h: AlgebraElement) -> Scalar:
    """zeta^lambda(h) through class polynomials."""
    table = character_table(h.n)
    lam = tuple(lam)
    vec = reduce(h)
    total = ZERO
    for nu, val in vec.coeffs.items():
        if not val.is_zero():
            total = total + val * table.entry(lam, nu)
    return total


# ---------------------------------------------------------------------------
# Schur elements and degrees


def poincare(n: int) -> Scalar:
    """prod_{k<=n} (1-v^k)/(1-v)^n."""
    num = ONE
    for k in range(1, n + 1):
        num = num * (ONE - Scalar.v_power(k))
    return num / (ONE - _V) ** n


def schur_element(lam) -> Scalar:
    lam = tuple(lam)
    n = sum(lam)
    data = shifted_data(lam)
    power = n + (len(lam) - data.delta) // 2
    num = TWO**power
    for h in data.all_hooks():
        num = num * (ONE - Scalar.v_power(h))
    den = Scalar.v_power(data.n_stat) * (ONE - _V) ** n
    for c in data.all_contents():
        den = den * (ONE + Scalar.v_power(c))
    return num / den


def generic_degree(lam) -> Scalar:
    n = sum(lam)
    return TWO**n * poincare(n) / schur_element(lam)


def u_weight(lam) -> Scalar:
    """The coefficient of zeta^lambda in the trace decomposition."""
    return ONE / (TWO ** delta_stat(tuple(lam)) * schur_element(lam))


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
    (nu odd) and every T_w_mu (mu any partition of n)."""
    stricts = enumerate_partitions(n, "strict")
    weights = {lam: u_weight(lam) for lam in stricts}
    seen = []
    for mu in enumerate_partitions(n, "odd") + enumerate_partitions(n):
        if mu in seen:
            continue
        seen.append(mu)
        h = build_T_w(mu)
        lhs = gimel(h)
        rhs = ZERO
        for lam in stricts:
            rhs = rhs + weights[lam] * character_value(lam, h)
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
