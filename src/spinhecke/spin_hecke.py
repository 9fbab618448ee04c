"""The odd-generator subalgebra, reached through its faithful embedding.

Every computation here routes through the embedding R_i |-> (c_i - c_{i+1})T_i
+ (v-1)c_{i+1}: products of R generators become ordinary normal forms, the
induced trace is the restriction of gimel, and the spin character table is the
ordinary one rescaled by the Clifford-module dimension.  No native rewriting on
R-words is attempted — the deformed braid relation makes confluence unclear,
whereas the embedding is exact and its relations are *verified* rather than
assumed (see verify_iso).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._linalg import solve_exact
from .characters import CharacterTable, character_value, character_values, schur_element
from .combinatorics import (
    all_reduced_words,
    delta_stat,
    enumerate_partitions,
    partition_str,
    reduced_word,
    w_gamma,
    word_str,
)
from .hecke_clifford import AlgebraElement, T_gen, c_gen, multiply, one
from .scalars import ONE, Scalar, TWO, V_MINUS_1, ZERO, half, sc_int
from .traces import ClassVector, gimel, reduce, zero_vector


def dim_clifford_module(n: int) -> int:
    """2^k for n = 2k, and 2^(k+1) for n = 2k + 1."""
    k = n // 2
    return 2 ** (k + n % 2)


def delta_minus(lam, n: int) -> int:
    d = delta_stat(tuple(lam))
    return d if n % 2 == 0 else 1 - d


def _gamma_exponent(lam, n: int) -> int:
    # the halving case: odd rank with an even number of rows
    return 1 if n % 2 == 1 and len(lam) % 2 == 0 else 0


def _generator_image(i: int, n: int) -> AlgebraElement:
    return multiply(c_gen(n, i) - c_gen(n, i + 1), T_gen(n, i)) + c_gen(
        n, i + 1
    ).scale(V_MINUS_1)


def _checked_word(word, n: int) -> tuple:
    word = tuple(word)
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range for n={n}")
    return word


def R_element(word, n: int) -> AlgebraElement:
    """Normal form of R_{i_1} ... R_{i_r}; the word need not be reduced."""
    out = one(n)
    for i in _checked_word(word, n):
        out = multiply(out, _generator_image(i, n))
    return out


# ---------------------------------------------------------------------------
# the embedding is an isomorphism: relations one way, generators back


@dataclass(frozen=True)
class IsoReport:
    n: int
    passed: bool
    checked: int
    failure: Optional[str]


def verify_iso(n: int) -> IsoReport:
    if n < 2:
        raise ValueError("need n >= 2 for at least one generator")
    checked = 0
    minus_v2_plus_1 = -(Scalar.v_power(2) + ONE)

    def fail(msg):
        return IsoReport(n=n, passed=False, checked=checked, failure=msg)

    images = {i: _generator_image(i, n) for i in range(1, n)}
    for i, r in images.items():
        checked += 1
        if multiply(r, r) != one(n).scale(minus_v2_plus_1):
            return fail(f"R_{i}^2 != -(v^2+1)")
        checked += 1
        back = multiply(r, c_gen(n, i) - c_gen(n, i + 1)).scale(-half(ONE)) + (
            one(n) - multiply(c_gen(n, i), c_gen(n, i + 1))
        ).scale(half(V_MINUS_1))
        if back != T_gen(n, i):
            return fail(f"round trip failed on T_{i}")
    for i in range(1, n - 1):
        checked += 1
        lhs = multiply(multiply(images[i], images[i + 1]), images[i]) - multiply(
            multiply(images[i + 1], images[i]), images[i + 1]
        )
        rhs = (images[i + 1] - images[i]).scale(V_MINUS_1 * V_MINUS_1)
        if lhs != rhs:
            return fail(f"deformed braid failed at i={i}")
    for i in range(1, n):
        for j in range(i + 2, n):
            checked += 1
            anti = multiply(images[i], images[j]) + multiply(images[j], images[i])
            if not anti.is_zero():
                return fail(f"R_{i} R_{j} + R_{j} R_{i} != 0")
    return IsoReport(n=n, passed=True, checked=checked, failure=None)


# ---------------------------------------------------------------------------
# trace, class polynomials, characters


def gimel_minus(word, n: int) -> Scalar:
    """The induced trace of the R-word: gimel of its embedded normal form."""
    return gimel(R_element(word, n))


def canonical_class_word(nu) -> tuple:
    """Lexicographically smallest reduced word of the staircase w_nu."""
    perm, _ = w_gamma(tuple(nu))
    return tuple(reduced_word(perm))


def spin_character_table(n: int) -> CharacterTable:
    """zeta-minus on the canonical class words: the ordinary value divided by
    the Clifford-module dimension, doubled in the odd-rank/even-rows case;
    each column's R-image is reduced once."""
    rows = tuple(enumerate_partitions(n, "strict"))
    columns = tuple(enumerate_partitions(n, "odd"))
    dim_u = sc_int(dim_clifford_module(n))
    entries = {}
    for nu in columns:
        values = character_values(R_element(canonical_class_word(nu), n))
        for lam in rows:
            scale = TWO ** _gamma_exponent(lam, n) / dim_u
            entries[(lam, nu)] = scale * values[lam]
    return CharacterTable(n=n, rows=rows, columns=columns, entries=entries)


def spin_character_value(lam, h: AlgebraElement) -> Scalar:
    """zeta-minus of an even embedded element."""
    n = h.n
    scale = TWO ** _gamma_exponent(lam, n) / sc_int(dim_clifford_module(n))
    return scale * character_value(lam, h)


def spin_class_polynomials(word, n: int) -> ClassVector:
    """Coordinates of the R-word in the R_{w_nu} class basis.

    Odd-length words lie in the kernel of every trace function and return the
    zero vector outright.  An even-length word is resolved by one exact solve
    B x = reduce(R(word)), where column nu of B is the class vector of the
    canonical class word of nu; no character table is built.
    """
    word = _checked_word(word, n)
    if len(word) % 2 == 1:
        return zero_vector(n)
    columns = enumerate_partitions(n, "odd")
    basis = [reduce(R_element(canonical_class_word(nu), n)) for nu in columns]
    target = reduce(R_element(word, n))
    rows = [[vec[mu] for vec in basis] for mu in columns]
    solution = solve_exact(rows, [target[mu] for mu in columns])
    return ClassVector(n=n, coeffs=dict(zip(columns, solution)))


def spin_schur_elements(n: int) -> dict:
    """c-minus for every strict partition, via the trace decomposition.

    The weights u-minus are pinned down by gimel-minus taking value 1 on the
    empty word and 0 on every other canonical class word; the resulting
    elements are cross-checked against the halved ordinary Schur elements
    (2^-k at even rank; one extra halving at odd rank when delta-minus is 1).
    """
    table = spin_character_table(n)
    rows = [[table.entry(lam, nu) for lam in table.rows] for nu in table.columns]
    rhs = [ONE if nu == (1,) * n else ZERO for nu in table.columns]
    weights = solve_exact(rows, rhs)
    out = {}
    k = n // 2
    for lam, w in zip(table.rows, weights):
        c_minus = ONE / (TWO ** delta_minus(lam, n) * w)
        expected = schur_element(lam) / TWO ** (k + (n % 2) * delta_minus(lam, n))
        if c_minus != expected:
            raise RuntimeError(
                f"spin Schur element for {partition_str(lam)} is "
                f"{c_minus.render()}, expected {expected.render()} from the "
                "halving relation"
            )
        out[lam] = c_minus
    return out


# ---------------------------------------------------------------------------
# vanishing sweep used by the verification suite


@dataclass(frozen=True)
class VanishingReport:
    n: int
    passed: bool
    words_checked: int
    failure: Optional[str]


def verify_trace_vanishing(n: int) -> VanishingReport:
    """gimel-minus is 1 on the empty word and 0 for every reduced word of
    every minimal-length representative of every other conjugacy class."""
    from .combinatorics import min_length_class_representatives

    checked = 0
    if gimel_minus((), n) != ONE:
        return VanishingReport(n, False, 1, "empty word does not trace to 1")
    checked += 1
    for mu in enumerate_partitions(n):
        if mu == (1,) * n:
            continue
        for rep in min_length_class_representatives(n, mu):
            for word in all_reduced_words(rep):
                checked += 1
                val = gimel_minus(word, n)
                if not val.is_zero():
                    return VanishingReport(
                        n,
                        False,
                        checked,
                        f"word {word_str(word)} (class {partition_str(mu)}) "
                        f"traces to {val.render()}",
                    )
    return VanishingReport(n, True, checked, None)
