"""The odd-generator subalgebra, reached through its faithful embedding.

Every computation here routes through the embedding R_i |-> (c_i - c_{i+1})T_i
+ (v-1)c_{i+1}: products of R generators become ordinary normal forms, the
induced trace is the restriction of gimel, and the spin character table is
read off the ordinary one.  No native rewriting on
R-words is attempted — the deformed braid relation makes confluence unclear,
whereas the embedding is exact and its relations are *verified* rather than
assumed (verify_iso returns the first that fails).

The class vectors of the canonical class words are taken in closed form.
For odd p and an odd partition nu of p with l = len(nu) = 2k + 1 parts, the
class vector of R(w_(p)) in HC_p has nu-coefficient

    (-1)^k Cat_k 2^(p-l) (v-1)^(l-1) l! / prod_i m_i(nu)!,

and the vector of the canonical word of any odd nu is the product of its
parts' vectors, partitions concatenated (even elements of disjoint parabolic
blocks commute, so a commutator times an even element of the other block is
a commutator).  Both identities are observed, not proved: the first was
checked against the reduction for p = 1, 3, ..., 11 (p = 11 took 138 s and
3 GB), the product rule for every odd nu with n <= 8, and the certificate of
`spin_schur_elements`, which reads them, passes at every n <= 24.
`verify --suite spin` rechecks the p-cycles up to p = min(n, 9) at run time,
and the reduction of R-images is left for arbitrary words and for those checks.

The spin table is the int table of `characters` times these int vectors, over
the Clifford-module dimension, multiplied out on int tuples in v once for
`spin_character_table`; the certificate pairs the vectors with the weighted
sums of the ordinary table instead.
R_element hands its word to hecke_clifford as R letters, which the word
action there multiplies out on raw terms with a bound on their norms; this
module knows nothing of their packed form.  R_class_vector is the reduction
of that element, which reads those raw terms as they are.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial

from ._linalg import column_rank, solve_triangular
from .characters import (
    CharacterTable,
    _expand,
    _gimel_sums,
    _quotient,
    _table_ints,
    _table_of,
    _u_factors,
)
from .combinatorics import (
    all_reduced_words,
    delta_stat,
    enumerate_partitions,
    min_length_class_representatives,
    partition_str,
    w_gamma,
    word_str,
)
from .hecke_clifford import (
    AlgebraElement,
    T_gen,
    _of_letters,
    c_gen,
    multiply,
    one,
)
from .scalars import (
    ONE,
    Scalar,
    V_MINUS_1,
    ZERO,
    _poly_acc,
    _poly_add,
    _poly_mul,
    _poly_scale,
    half,
)
from .traces import ClassVector, _gimel_of, reduce, zero_vector


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


def _checked_word(word, n: int) -> tuple:
    word = tuple(word)
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range for n={n}")
    return word


def R_element(word, n: int) -> AlgebraElement:
    """Normal form of R_{i_1} ... R_{i_r}; the word need not be reduced."""
    return _of_letters(n, [("R", i) for i in _checked_word(word, n)])


def R_class_vector(word, n: int) -> ClassVector:
    """The class vector of the R-word, reduced on its packed terms.  Every R_i
    is odd, so an odd-length word is an odd element, whose every term reduce
    drops: it is the zero vector, and nothing is built."""
    word = _checked_word(word, n)
    if len(word) % 2:
        return zero_vector(n)
    return reduce(R_element(word, n))


# ---------------------------------------------------------------------------
# the embedding is an isomorphism: relations one way, generators back


def verify_iso(n: int) -> str:
    """Check R_i^2 = -(v^2+1), the round trip from R_i back to T_i, the
    deformed braid relation and the anticommuting of distant R_i, on the
    normal forms of the images: "" when all hold, else the first that fails.
    At n = 1 there is no generator, so no relation can fail."""
    minus_v2_plus_1 = -(Scalar.v_power(2) + ONE)
    images = {i: R_element((i,), n) for i in range(1, n)}
    for i, r in images.items():
        if multiply(r, r) != one(n).scale(minus_v2_plus_1):
            return f"R_{i}^2 != -(v^2+1)"
        back = multiply(r, c_gen(n, i) - c_gen(n, i + 1)).scale(-half(ONE)) + (
            one(n) - multiply(c_gen(n, i), c_gen(n, i + 1))
        ).scale(half(V_MINUS_1))
        if back != T_gen(n, i):
            return f"round trip failed on T_{i}"
    for i in range(1, n - 1):
        lhs = multiply(multiply(images[i], images[i + 1]), images[i]) - multiply(
            multiply(images[i + 1], images[i]), images[i + 1]
        )
        rhs = (images[i + 1] - images[i]).scale(V_MINUS_1 * V_MINUS_1)
        if lhs != rhs:
            return f"deformed braid failed at i={i}"
    for i in range(1, n):
        for j in range(i + 2, n):
            anti = multiply(images[i], images[j]) + multiply(images[j], images[i])
            if not anti.is_zero():
                return f"R_{i} R_{j} + R_{j} R_{i} != 0"
    return ""


# ---------------------------------------------------------------------------
# trace, class polynomials, characters


def gimel_minus(word, n: int) -> Scalar:
    """The induced trace of the R-word: gimel of its embedded normal form."""
    return _gimel_of(R_class_vector(word, n))


def canonical_class_word(nu) -> tuple:
    """Lexicographically smallest reduced word of the staircase w_nu."""
    return tuple(w_gamma(nu)[1])


def _cycle_vector(p: int) -> dict:
    """The closed-form class vector of R(w_(p)) in HC_p for odd p, as
    {odd nu of p: integer polynomial in v, ascending}:
    (-1)^k Cat_k 2^(p-l) (v-1)^(l-1) l!/prod_i m_i(nu)! with l = len(nu) = 2k+1."""
    out = {}
    for nu in enumerate_partitions(p, "odd"):
        ell = len(nu)
        k = ell // 2
        const = (-1) ** k * comb(2 * k, k) // (k + 1) * 2 ** (p - ell) * factorial(ell)
        for m in Counter(nu).values():
            const //= factorial(m)
        out[nu] = [const * comb(ell - 1, j) * (-1) ** (ell - 1 - j) for j in range(ell)]
    return out


def _class_word_ints(nu) -> dict:
    """The closed-form class vector of R(canonical_class_word(nu)) as
    {odd mu: ints}, zeros left out: the product over the parts p of nu of
    the vectors of the p-cycles, partitions concatenated."""
    acc: dict = {(): (1,)}
    for p in nu:
        cycle = _cycle_vector(p)
        out: dict = {}
        for key, a in acc.items():
            for part_key, b in cycle.items():
                mu = tuple(sorted(key + part_key, reverse=True))
                _poly_acc(out, mu, _poly_mul(a, b))
        acc = out
    return acc


def class_word_vector(nu) -> ClassVector:
    """The class vector of R(canonical_class_word(nu)), with no reduction."""
    ints, n = _class_word_ints(nu), sum(nu)
    return ClassVector(
        n, {mu: Scalar.from_v_ints(ints.get(mu, ())) for mu in enumerate_partitions(n, "odd")}
    )


def _spin_table_ints(n: int) -> dict:
    """dim_clifford_module(n) times the spin table, {nu: {lambda: ints}} with
    zeros left out: the ordinary int table paired with the closed-form class
    vector of nu, doubled in the odd-rank/even-rows case."""
    table = _table_ints(n)
    out = {}
    for nu in table:
        column: dict = {}
        for mu, b in _class_word_ints(nu).items():
            for lam, t in table[mu].items():
                _poly_acc(column, lam, _poly_mul(b, t))
        out[nu] = {lam: _poly_scale(p, 2 ** _gamma_exponent(lam, n)) for lam, p in column.items()}
    return out


def spin_character_table(n: int) -> CharacterTable:
    """zeta-minus on the canonical class words: the ordinary value divided by
    the Clifford-module dimension, doubled in the odd-rank/even-rows case;
    each column pairs the table with a closed-form class vector."""
    return _table_of(n, _spin_table_ints(n), dim_clifford_module(n))


def spin_class_polynomials(word, n: int) -> ClassVector:
    """Coordinates of the R-word in the R_{w_nu} class basis.

    An odd-length word has the zero vector (R_class_vector), and so the zero
    coordinates.  Otherwise the class vector is resolved by back-substitution
    against the basis B whose column nu is the closed-form class vector of the
    canonical class word of nu: that column is supported on the refinements
    of nu, which are lexicographically at most nu, and its entry at nu itself
    is 2^(n - len(nu)), so B is triangular.  Only the word itself is reduced,
    and no character table is built.
    """
    columns = enumerate_partitions(n, "odd")
    basis = {nu: class_word_vector(nu).coeffs for nu in columns}
    solution = solve_triangular(basis, R_class_vector(word, n).coeffs)
    return ClassVector(n=n, coeffs={nu: solution.get(nu, ZERO) for nu in columns})


def spin_schur_elements(n: int) -> dict:
    """c-minus for every strict partition, the ordinary Schur element halved
    floor(n/2) + (n mod 2) delta-minus times, certified.

    T-minus = B T diag(2^gamma) / d, with B the closed-form class vectors
    (`_class_word_ints`), T the ordinary table and d = dim_clifford_module(n).
    The weights w = 1 / (2^delta-minus c-minus) must solve T-minus^t w = e, e
    the indicator of the empty word (gimel-minus is 1 there, 0 elsewhere).
    c-minus = 2^(gamma - delta-minus) / (d u), u the ordinary weights, makes
    w = d 2^(-gamma) u, so T-minus^t w = B y for y of `characters._gimel_sums`,
    and B y = e is checked with no spin table built.  B is triangular with
    diagonal 2^(n - len(nu)), so rank T-minus = rank T, and T of full rank at
    a point modulo a prime (`column_rank`) makes w the only solution.  Raises
    RuntimeError naming the first failing class word, or saying that the
    spin table is singular.
    """
    sums, targets = _gimel_sums(n)
    basis, empty = {nu: _class_word_ints(nu) for nu in sums}, (1,) * n
    for nu, vector in basis.items():
        total = ()
        for mu, b in vector.items():
            total = _poly_add(total, _poly_mul(b, sums[mu]))
        if total != (targets[empty] if nu == empty else ()):
            raise RuntimeError(
                "the closed-form spin Schur weights fail the trace decomposition "
                f"on the class word of {partition_str(nu)}"
            )
    rows = enumerate_partitions(n, "strict")
    matrix = [[Scalar.from_v_ints(c.get(lam, ())) for lam in rows] for c in _table_ints(n).values()]
    if any(max(vec) != nu for nu, vec in basis.items()) or column_rank(matrix) < len(rows):
        raise RuntimeError("the spin character table is singular")
    log_d = dim_clifford_module(n).bit_length() - 1
    twos = {lam: _gamma_exponent(lam, n) - delta_minus(lam, n) - log_d for lam in rows}
    return {lam: _expand(_quotient((k, 0, Counter()), _u_factors(lam))) for lam, k in twos.items()}


# ---------------------------------------------------------------------------
# vanishing sweep used by the verification suite


def verify_trace_vanishing(n: int) -> str:
    """gimel-minus is 1 on the empty word and 0 for every reduced word of
    every minimal-length representative of every other conjugacy class: ""
    when it is, else the first word where it is not."""
    if gimel_minus((), n) != ONE:
        return "empty word does not trace to 1"
    reps = min_length_class_representatives(n)
    for mu in enumerate_partitions(n):
        if mu == (1,) * n:
            continue
        for rep in reps[mu]:
            for word in all_reduced_words(rep):
                val = gimel_minus(word, n)
                if not val.is_zero():
                    return (
                        f"word {word_str(word)} (class {partition_str(mu)}) "
                        f"traces to {val.render()}"
                    )
    return ""
