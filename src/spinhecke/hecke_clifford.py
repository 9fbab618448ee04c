"""Exact arithmetic in the rank-n Hecke-Clifford algebra.

The algebra is generated over the scalar field by even elements T_1..T_{n-1}
and odd elements c_1..c_n subject to the relations listed by relations(n):

    (T_i - v)(T_i + 1) = 0,
    T_i T_{i+1} T_i = T_{i+1} T_i T_{i+1},      T_i T_j = T_j T_i   (|i-j| > 1),
    T_i c_i = c_{i+1} T_i,    T_i c_{i+1} = c_i T_i + (v-1)(c_{i+1} - c_i),
    T_i c_j = c_j T_i   (j != i, i+1),
    c_i^2 = 1,    c_i c_j = -c_j c_i (i != j).

The reflection follows from the others; the list states it anyway, so that
both realizations checked against the list (this normal form, and the tensor
action of tensor_oracle) are checked on it directly.  Elements are stored in
the normal form

    sum of  coeff * C_I * T_sigma,   C_I = c_{i_1} ... c_{i_k},  i_1 < ... < i_k,

keyed by the pair (one-line permutation, frozen index set).  Products work
on these terms through one word action, _act: its letters ("T", j),
("c", k) and ("R", i) multiply from the left, the last letter first, by the
left generator products _lmul_T, _lmul_c and _lmul_R, the last for the
image (c_i - c_{i+1}) T_i + (v-1) c_{i+1} of the odd generator R_i of
spin_hecke.  from_word runs its letters through it from 1, and so does
spin_hecke.R_element with R letters; multiply runs the T-word of each
permutation in a once on b, and the Clifford letters of each term of a on
the image of its permutation.  The relations that move T_j across c_j and
c_{j+1} are written once, in _lmul_T.  The right product _rmul_c serves
the trace reduction in traces.py only: it pushes c_k left through T_sigma
by letting the reduced word of sigma act on c_k through _act, memoized per
(sigma, k).

Every structure constant of these products lies in Z[v], so the generator
products work on raw terms whose coefficients are integer polynomials in v,
each packed into one int, its value at v = 2^W (`scalars._pack`).  A sum
of two coefficients is one int addition, a product one int multiplication,
and times v, v - 1 or -1 is a shift, a shift and a subtraction, or a
negation.  Each dict of raw terms travels with a proven bound on the sum of
the l1 norms of its coefficients, and is decoded (`scalars._unpack`) only
where that bound proves the digits: at the public boundary, and once a
bound passes 2^(W/2), when the exact norm replaces it (`scalars._tighten`).
A raw term is keyed by (one-line permutation, bitmask), bit k set for c_k,
so a Clifford sign is the parity of a masked bit count and a letter flip is
an xor; the memo of Clifford pushes holds raw terms too, each push with its
exact norm.  The public key stays (permutation, frozenset).

An element holds raw groups {c: (raw terms, l1 norm bound)}, read as the
sum over c of c times the terms of c, or public terms {(permutation,
frozenset): Scalar}, or both: each form is built from the other when first
read, and kept.  from_word, multiply and spin_hecke.R_element build
elements from raw groups, and a Scalar per term is built only when .terms
is first read (_scalar_terms: one product per (c, key)).  An element built
from public terms gets its raw groups once, when a product or a reduction
first reads them (_by_coeff): every coefficient in Z[v] rides in the group
of 1 as its packed int (unless its norm reaches 2^(W/2): then it heads a
group of its own, like any other Scalar).  The action of multiply is linear
over the terms of b that share a coefficient, so it runs group by group,
and a product that is only reduced (traces.reduce) never builds a Scalar
per term.  The bound of a product, a word or an R-word may be looser than
the exact norm of its terms; where it would refuse a product, multiply
retries on the groups of the decoded terms, so that no product is refused
that those terms allow.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from types import MappingProxyType

from .combinatorics import perm_identity, reduced_word, w_gamma
from .scalars import (
    MINUS_ONE,
    ONE,
    V,
    V_MINUS_1,
    Scalar,
    ScalarParseError,
    WidthError,
    _W,
    _acc,
    _int_acc,
    _norm,
    _pack,
    _tighten,
    _unpack,
    sc_int,
    sc_parse,
)


class AlgebraElement:
    """A sparse normal-form element; immutable after construction.

    .terms is a read-only mapping {(permutation, frozenset): Scalar}; an
    element built from raw groups (_of_groups) decodes it on first read.
    """

    __slots__ = ("n", "_terms", "_raw")

    def __init__(self, n: int, terms: dict):
        if n < 1:
            raise ValueError("rank must be at least 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", MappingProxyType(dict(terms)))
        object.__setattr__(self, "_raw", None)

    @classmethod
    def _of_groups(cls, n: int, groups: dict) -> "AlgebraElement":
        elem = object.__new__(cls)
        object.__setattr__(elem, "n", n)
        object.__setattr__(elem, "_terms", None)
        object.__setattr__(elem, "_raw", groups)
        return elem

    @property
    def terms(self):
        if self._terms is None:
            object.__setattr__(self, "_terms", MappingProxyType(_scalar_terms(self._raw)))
        return self._terms

    def _groups(self) -> dict:
        if self._raw is None:
            object.__setattr__(self, "_raw", _by_coeff(self._terms))
        return self._raw

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_rank(other)
        acc = dict(self.terms)
        for key, val in other.terms.items():
            _acc(acc, key, val)
        return AlgebraElement(self.n, acc)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.n, {k: -v for k, v in self.terms.items()})

    def scale(self, s) -> "AlgebraElement":
        if isinstance(s, int):
            s = sc_int(s)
        if s.is_zero():
            return AlgebraElement(self.n, {})
        return AlgebraElement(self.n, {k: v * s for k, v in self.terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return multiply(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and dict(self.terms) == dict(other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def _check_rank(self, other: "AlgebraElement") -> None:
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")

    # -- display ------------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (sigma, cliff), coeff in sorted(
            self.terms.items(), key=lambda kv: (sorted(kv[0][1]), kv[0][0])
        ):
            factors = [f"c{k}" for k in sorted(cliff)]
            factors += [f"T{j}" for j in reduced_word(sigma)]
            body = " ".join(factors)
            text = coeff.render()
            if not body:
                pieces.append(text)
            elif text == "1":
                pieces.append(body)
            elif text == "-1":
                pieces.append(f"-{body}")
            elif re.fullmatch(r"-?[0-9]+|-?[vu](\^[0-9]+)?", text):
                pieces.append(f"{text}*{body}")
            else:
                pieces.append(f"({text})*{body}")
        out = pieces[0]
        for piece in pieces[1:]:
            out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return out

    def __repr__(self):
        return f"<AlgebraElement n={self.n}: {self.render()}>"


def zero(n: int) -> AlgebraElement:
    return AlgebraElement(n, {})


def one(n: int) -> AlgebraElement:
    return AlgebraElement(n, {(perm_identity(n), frozenset()): ONE})


def T_gen(n: int, i: int) -> AlgebraElement:
    return from_word(n, [("T", i)])


def c_gen(n: int, k: int) -> AlgebraElement:
    return from_word(n, [("c", k)])


# ---------------------------------------------------------------------------
# generator multiplication on raw term dicts {(sigma, mask): packed int}, where
# bit k of mask is set when c_k is in I; a product scales the summed l1 norm
# of the terms by at most a factor: 1 for _lmul_c, and the one that _lmul_T,
# _lmul_R and _rmul_c return


def _bits(mask: int) -> list:
    """The indices of the set bits of mask, ascending."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _lmul_c(terms: dict, k: int) -> dict:
    # C_I -> c_k C_I is a bijection on the keys, so nothing merges; the sign
    # is the parity of the letters below k
    bit = 1 << k
    below = bit - 1
    return {
        (sigma, mask ^ bit): -p if (mask & below).bit_count() & 1 else p
        for (sigma, mask), p in terms.items()
    }


def _lmul_T(terms: dict, j: int) -> tuple:
    """(T_j times terms, the factor that scales their l1 norm bound)."""
    # passing T_j through C_I before the Hecke step T_j T_sigma; the four
    # cases follow from T_j c_j = c_{j+1} T_j and its mirror.  A term grows
    # by 1 (the Hecke step keeps one term) or 3 (it makes v - 1 and v), plus
    # 4 when c_{j+1} is in I (two more terms at v - 1)
    w = _W
    acc: dict = {}
    growth = 0
    high = 1 << (j + 1)
    pair = (1 << j) | high
    for (sigma, mask), p in terms.items():
        grow = 1
        inter = mask & pair
        if inter == pair:
            vm1 = (p << w) - p
            _int_acc(acc, (sigma, mask ^ pair), vm1)
            _int_acc(acc, (sigma, mask), vm1)
            p = -p
            grow = 5
        elif inter:
            if inter == high:
                vm1 = (p << w) - p
                _int_acc(acc, (sigma, mask), vm1)
                _int_acc(acc, (sigma, mask ^ pair), -vm1)
                grow = 5
            mask ^= pair
        a = sigma.index(j)
        b = sigma.index(j + 1)
        line = list(sigma)
        line[a] = j + 1
        line[b] = j
        tau = tuple(line)  # s_j sigma
        if a < b:
            _int_acc(acc, (tau, mask), p)
        else:
            _int_acc(acc, (sigma, mask), (p << w) - p)
            _int_acc(acc, (tau, mask), p << w)  # v p
            grow += 2
        if grow > growth:
            growth = grow
    return acc, growth


def _lmul_R(terms: dict, i: int) -> tuple:
    """(R_i times terms, the factor that scales their l1 norm bound), for
    the image R_i = (c_i - c_{i+1}) T_i + (v-1) c_{i+1} of the odd
    generator: c_i T_i h - c_{i+1} T_i h + (v-1) c_{i+1} h.  The factor is
    twice the growth of T_i, plus 2: at most 2 * 7 + 2 = 16."""
    lifted, growth = _lmul_T(terms, i)
    acc = _lmul_c(lifted, i)
    for key, p in _lmul_c(lifted, i + 1).items():
        _int_acc(acc, key, -p)
    for key, p in _lmul_c(terms, i + 1).items():
        _int_acc(acc, key, (p << _W) - p)
    return acc, 2 * growth + 2


def _act(letters, terms: dict, bound: int) -> tuple:
    """(the product of letters times terms, a bound on its summed l1 norm),
    for raw terms of summed l1 norm at most bound.  The letters ("T", j),
    ("c", k) and ("R", i) multiply from the left, the last letter first;
    the bound is tightened after each letter that scales it."""
    for kind, idx in reversed(letters):
        if kind == "T":
            terms, growth = _lmul_T(terms, idx)
        elif kind == "c":
            terms = _lmul_c(terms, idx)
            continue
        else:
            terms, growth = _lmul_R(terms, idx)
        bound = _tighten(terms.values(), growth * bound)
    return terms, bound


# (sigma, k) -> (T_sigma * c_k, its exact l1 norm), emptied by
# traces.clear_caches()
_PUSH_MEMO: dict = {}


def _push_c_left(sigma, k: int) -> tuple:
    """T_sigma * c_k as normal-form terms {(tau, 1 << m): packed}, with the
    exact l1 norm of those terms: the reduced word of sigma acts on c_k
    through _act, and _lmul_T keeps every term at exactly one Clifford
    letter.  Memoized per (sigma, k).
    """
    key = (sigma, k)
    cached = _PUSH_MEMO.get(key)
    if cached is None:
        word = [("T", j) for j in reduced_word(sigma)]
        terms, bound = _act(word, {(perm_identity(len(sigma)), 1 << k): 1}, 1)
        cached = _PUSH_MEMO[key] = terms, _norm(terms.values(), bound)
    return cached


def _rmul_c(terms: dict, k: int) -> tuple:
    """(terms times c_k, the factor that scales their l1 norm bound)."""
    # C_I c_m: the sign is the parity of the letters of I above m
    acc: dict = {}
    growth = 0
    for (sigma, mask), p in terms.items():
        push, norm = _push_c_left(sigma, k)
        if norm > growth:
            growth = norm
        for (tau, letter), s in push.items():
            val = p * s
            if (mask & -(letter << 1)).bit_count() & 1:
                val = -val
            _int_acc(acc, (tau, mask ^ letter), val)
    return acc, growth


def _by_coeff(terms) -> dict:
    """Scalar terms as raw groups {c: (raw terms, l1 norm bound)}, read as
    the sum over c of c times its group.  A coefficient in Z[v] joins the
    group of 1 as its packed int; any other c heads a group of its own, at
    1, and so does an integer polynomial too long for the packing width."""
    groups: dict = {}
    packed = None  # the group of 1, looked up once
    norm = 0
    roomy = 1 << (_W // 2)
    for (sigma, cliff), c in terms.items():
        key = (sigma, sum(1 << k for k in cliff))
        ints = c.v_ints()
        size = None if ints is None else sum(abs(a) for a in ints)
        if size is None or size >= roomy:
            groups.setdefault(c, {})[key] = 1
        elif size:
            if packed is None:
                packed = groups[ONE] = {}
            packed[key] = _pack(ints)
            norm += size
    return {c: (raw, norm if raw is packed else len(raw)) for c, raw in groups.items()}


def _scalar_terms(groups: dict) -> dict:
    """Public terms {(sigma, frozenset): Scalar} from raw groups {c: (raw
    terms, l1 norm bound)}: the sum over c of c times each decoded integer
    polynomial in v, one product per (c, key)."""
    acc: dict = {}
    for c, (terms, bound) in groups.items():
        for (sigma, mask), p in terms.items():
            value = Scalar.from_v_ints(_unpack(p, bound))
            _acc(acc, (sigma, frozenset(_bits(mask))), c * value)
    return acc


# ---------------------------------------------------------------------------
# public constructors and products


def _gen_token(tok):
    if isinstance(tok, str):
        match = re.fullmatch(r"([Tc])(\d+)", tok)
        if not match:
            raise ValueError(f"bad generator token {tok!r}")
        return match.group(1), int(match.group(2))
    kind, idx = tok
    if kind not in ("T", "c"):
        raise ValueError(f"bad generator token {tok!r}")
    return kind, int(idx)


def from_word(n: int, word: Iterable, coeff: Scalar = ONE) -> AlgebraElement:
    """Normal form of coeff * (product of the listed generators).

    Generators are given as "T3"/"c1" strings or ("T", 3)/("c", 1) pairs and
    multiplied left to right: every token is checked first, then the letters
    act on 1 from the right end by left generator products.

    >>> from_word(2, ["T1", "c1"]).render()
    'c2 T1'
    """
    letters = []
    for tok in word:
        kind, idx = _gen_token(tok)
        top = n - 1 if kind == "T" else n
        if not 1 <= idx <= top:
            raise IndexError(f"{kind} index {idx} out of range for n={n}")
        letters.append((kind, idx))
    if isinstance(coeff, int):
        coeff = sc_int(coeff)
    if coeff.is_zero():
        return zero(n)
    return _of_letters(n, letters, coeff)


def _of_letters(n: int, letters, coeff: Scalar = ONE) -> AlgebraElement:
    """coeff * (the product of the letters, unchecked) as raw groups: the
    letters act on 1 by _act."""
    return AlgebraElement._of_groups(n, {coeff: _act(letters, {(perm_identity(n), 0): 1}, 1)})


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product in normal form.

    Each left term C_I T_sigma acts on b by left generator multiplications:
    the letters of a reduced word of sigma innermost first, then the Clifford
    indices of I from the largest down.  The action is linear, so it runs on
    the raw groups of a and b: a product of two elements with coefficients
    in Z[v] is one group of int terms.  The product keeps its groups, each
    bound tightened, and builds Scalar terms only if .terms is read.
    """
    a._check_rank(b)
    try:
        groups = _product(a._groups(), b._groups())
    except WidthError:
        # the bound of a product, a word or an R-word may be looser than the
        # exact norm of its terms: retry on the groups of its decoded terms,
        # as an element built from them would have
        groups = _product(_by_coeff(a.terms), _by_coeff(b.terms))
    return AlgebraElement._of_groups(a.n, groups)


def _product(a_groups: dict, b_groups: dict) -> dict:
    """The raw groups of the product of the elements with raw groups
    a_groups and b_groups, each bound tightened.  The left terms of a group
    that share a permutation sigma share the image of T_sigma: its word
    acts on b once, and each term's Clifford letters act on that image."""
    groups: dict = {}
    for a_coeff, (a_terms, a_bound) in a_groups.items():
        by_perm: dict = {}
        for (sigma, mask), p in a_terms.items():
            by_perm.setdefault(sigma, []).append(([("c", k) for k in _bits(mask)], p))
        actions = [
            ([("T", j) for j in reduced_word(sigma)], cliffs) for sigma, cliffs in by_perm.items()
        ]
        for b_coeff, (b_terms, b_bound) in b_groups.items():
            c = a_coeff * b_coeff
            into, bound = groups.get(c, ({}, 0))
            top = 0
            for word, cliffs in actions:
                image, image_bound = _act(word, b_terms, b_bound)
                for letters, p in cliffs:
                    for key, q in _act(letters, image, image_bound)[0].items():
                        _int_acc(into, key, p * q)
                top = max(top, image_bound)
            # the summed norm of the a-side values is at most a_bound, and
            # a c letter keeps the norm
            groups[c] = into, bound + a_bound * top
    return {c: (terms, _tighten(terms.values(), bound)) for c, (terms, bound) in groups.items()}


def relations(n: int) -> list:
    """The defining relations of the rank-n algebra, as (name, lhs word,
    [(coefficient, word), ...]) for lhs = the sum of coefficient * word;
    a word is a tuple of ("T", j) and ("c", k) letters, multiplied left to
    right.  The quadratic relations come first, then the braid relations,
    then for each i the distant commutations of T_i, the pass T_i c_i =
    c_{i+1} T_i, the reflection T_i c_{i+1} = c_i T_i + (v-1)(c_{i+1} - c_i)
    and the commutations of T_i with every other c_k, and last c_k^2 = 1 with
    the anticommutations.  Every coefficient lies in Z[v], and the words of
    one relation carry c letters of one parity."""
    rels = []
    for i in range(1, n):
        t = ("T", i)
        rels.append((f"T{i} quadratic", (t, t), [(V_MINUS_1, (t,)), (V, ())]))
    for i in range(1, n - 1):
        a, b = ("T", i), ("T", i + 1)
        rels.append((f"braid {i}", (a, b, a), [(ONE, (b, a, b))]))
    for i in range(1, n):
        t = ("T", i)
        low, high = ("c", i), ("c", i + 1)
        for j in range(i + 2, n):
            rels.append((f"T{i} T{j} commute", (t, ("T", j)), [(ONE, (("T", j), t))]))
        rels.append((f"T{i} c{i} pass", (t, low), [(ONE, (high, t))]))
        rels.append((f"T{i} c{i + 1} reflect", (t, high),
                     [(ONE, (low, t)), (V_MINUS_1, (high,)), (-V_MINUS_1, (low,))]))
        for k in range(1, n + 1):
            if k not in (i, i + 1):
                c = ("c", k)
                rels.append((f"T{i} c{k} commute", (t, c), [(ONE, (c, t))]))
    for k in range(1, n + 1):
        c = ("c", k)
        rels.append((f"c{k} square", (c, c), [(ONE, ())]))
        for l in range(k + 1, n + 1):
            d = ("c", l)
            rels.append((f"c{k} c{l} anticommute", (c, d), [(MINUS_ONE, (d, c))]))
    return rels


def build_T_w(mu, n: int | None = None) -> AlgebraElement:
    """The basis element T_{w_mu} for a composition mu of n."""
    total = sum(mu)
    if n is None:
        n = total
    elif n != total:
        raise ValueError(f"composition {mu} does not compose {n}")
    perm, _ = w_gamma(mu)
    return AlgebraElement(n, {(perm, frozenset()): ONE})


# ---------------------------------------------------------------------------
# element expressions


class ElementParseError(ValueError):
    """Raised for malformed element expressions."""


_FACTOR_RE = re.compile(r"([Tc])(\d+)")


def parse_element(n: int, text: str) -> AlgebraElement:
    """Parse "coeff * factors" sums, e.g. "(v-1)/2 * T1 T2 c1 c3 + c2".

    Terms are separated by top-level +/-; each term is an optional scalar
    coefficient (parenthesize sums), a '*', and whitespace-separated T/c
    factors.  A bare coefficient with no factors is a multiple of 1.
    """
    out = zero(n)
    for sign, chunk, pos in _split_terms(text):
        out = out + _parse_term(n, chunk, pos).scale(sc_int(sign))
    return out


def _split_terms(text: str):
    if not text.strip():
        raise ElementParseError("empty element expression")
    terms = []
    depth = 0
    start = 0
    sign = 1
    prev = ""
    first = next(i for i, c in enumerate(text) if not c.isspace())
    if text[first] in "+-":
        sign = -1 if text[first] == "-" else 1
        start = first + 1
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ElementParseError(f"unbalanced ')' at position {pos}")
        elif ch in "+-" and depth == 0 and prev not in ("", "^", "*", "/", "(", "+", "-"):
            terms.append((sign, text[start:pos], start))
            sign = 1 if ch == "+" else -1
            start = pos + 1
        if not ch.isspace():
            prev = ch
    if depth != 0:
        raise ElementParseError("unbalanced '(' in element expression")
    terms.append((sign, text[start:], start))
    return terms


def _parse_term(n: int, chunk: str, pos: int) -> AlgebraElement:
    if not chunk.strip():
        raise ElementParseError(f"empty term at position {pos}")
    match = _FACTOR_RE.search(chunk)
    head = chunk if match is None else chunk[: match.start()]
    factor_text = chunk[len(head):]
    coeff_text = head.strip()
    if coeff_text.endswith("*"):
        coeff_text = coeff_text[:-1].strip()
        star = pos + head.rindex("*")
        if not coeff_text:
            raise ElementParseError(f"missing coefficient before '*' at position {star}")
        if not factor_text:
            raise ElementParseError(f"missing factors after '*' at position {star}")
    elif coeff_text and factor_text:
        raise ElementParseError(
            f"expected '*' between coefficient and factors near position {pos}"
        )
    if coeff_text:
        try:
            coeff = sc_parse(coeff_text)
        except ScalarParseError as err:
            raise ElementParseError(
                f"bad coefficient {coeff_text!r} at position {pos}: {err}"
            ) from err
    else:
        coeff = ONE
    word = []
    cursor = 0
    for fmatch in _FACTOR_RE.finditer(factor_text):
        between = factor_text[cursor : fmatch.start()]
        if between.strip():
            raise ElementParseError(
                f"unexpected {between.strip()!r} inside term at position {pos}"
            )
        word.append((fmatch.group(1), int(fmatch.group(2))))
        cursor = fmatch.end()
    if factor_text[cursor:].strip():
        raise ElementParseError(
            f"unexpected {factor_text[cursor:].strip()!r} at end of term"
        )
    try:
        return from_word(n, word, coeff)
    except IndexError as err:
        raise ElementParseError(str(err)) from err
