"""Exact arithmetic in the rank-n Hecke-Clifford algebra.

The algebra is generated over the scalar field by even elements T_1..T_{n-1}
and odd elements c_1..c_n subject to

    (T_i - v)(T_i + 1) = 0,
    T_i T_{i+1} T_i = T_{i+1} T_i T_{i+1},      T_i T_j = T_j T_i   (|i-j| > 1),
    c_i^2 = 1,    c_i c_j = -c_j c_i (i != j),
    T_i c_i = c_{i+1} T_i,    T_i c_j = c_j T_i   (j != i, i+1),

from which T_i c_{i+1} = c_i T_i + (v-1)(c_{i+1} - c_i) follows.  Elements are
stored in the normal form

    sum of  coeff * C_I * T_sigma,   C_I = c_{i_1} ... c_{i_k},  i_1 < ... < i_k,

keyed by the pair (one-line permutation, frozen index set).  Keeping the
Clifford part on the left makes right multiplication by any T_j a plain Hecke
step on sigma.  Products and the trace reduction in traces.py both work on
these terms through the generator products below: _lmul_T and _lmul_c on the
left, _rmul_T and _rmul_c on the right.
"""

from __future__ import annotations

import re
from types import MappingProxyType
from typing import Iterable, Optional

from .combinatorics import (
    left_mul_s,
    perm_identity,
    perm_inverse,
    reduced_word,
    right_descents,
    right_mul_s,
    w_gamma,
)
from .scalars import ONE, Scalar, ScalarParseError, V_MINUS_1, sc_int, sc_parse

_MINUS_VM1 = -V_MINUS_1
_V = Scalar.v_power(1)


def _acc(acc: dict, key, value: Scalar) -> None:
    cur = acc.get(key)
    total = value if cur is None else cur + value
    if total.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = total


class AlgebraElement:
    """A sparse normal-form element; immutable after construction."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict):
        if n < 1:
            raise ValueError("rank must be at least 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", MappingProxyType(dict(terms)))

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

    def parity(self) -> Optional[int]:
        """0 or 1 for homogeneous elements, None for mixed ones."""
        seen = {len(I) % 2 for (_, I) in self.terms}
        if not seen:
            return 0
        return seen.pop() if len(seen) == 1 else None

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
    if not 1 <= i <= n - 1:
        raise IndexError(f"T index {i} out of range for n={n}")
    return AlgebraElement(
        n, {(right_mul_s(perm_identity(n), i), frozenset()): ONE}
    )


def c_gen(n: int, k: int) -> AlgebraElement:
    if not 1 <= k <= n:
        raise IndexError(f"c index {k} out of range for n={n}")
    return AlgebraElement(n, {(perm_identity(n), frozenset((k,))): ONE})


# ---------------------------------------------------------------------------
# generator multiplication on raw term dicts


def _right_hecke(sigma, j):
    """T_sigma * T_j as [(perm, coeff), ...]."""
    if sigma[j - 1] < sigma[j]:
        return [(right_mul_s(sigma, j), ONE)]
    return [(sigma, V_MINUS_1), (right_mul_s(sigma, j), _V)]


def _left_hecke(j, sigma):
    """T_j * T_sigma as [(perm, coeff), ...]."""
    inv = perm_inverse(sigma)
    if inv[j - 1] < inv[j]:
        return [(left_mul_s(j, sigma), ONE)]
    return [(sigma, V_MINUS_1), (left_mul_s(j, sigma), _V)]


def _rmul_T(terms: dict, j: int) -> dict:
    acc: dict = {}
    for (sigma, cliff), coeff in terms.items():
        for tau, s in _right_hecke(sigma, j):
            _acc(acc, (tau, cliff), coeff * s)
    return acc


def _lmul_c(terms: dict, k: int) -> dict:
    acc: dict = {}
    for (sigma, cliff), coeff in terms.items():
        if sum(1 for e in cliff if e < k) % 2:
            coeff = -coeff
        _acc(acc, (sigma, cliff ^ {k}), coeff)
    return acc


def _lmul_T(terms: dict, j: int) -> dict:
    # passing T_j through C_I before the Hecke step on sigma; the four cases
    # follow from T_j c_j = c_{j+1} T_j and its mirror
    acc: dict = {}
    pair = frozenset((j, j + 1))
    for (sigma, cliff), coeff in terms.items():
        inter = cliff & pair
        if not inter:
            for tau, s in _left_hecke(j, sigma):
                _acc(acc, (tau, cliff), coeff * s)
        elif inter == frozenset((j,)):
            swapped = cliff ^ pair
            for tau, s in _left_hecke(j, sigma):
                _acc(acc, (tau, swapped), coeff * s)
        elif inter == frozenset((j + 1,)):
            swapped = cliff ^ pair
            for tau, s in _left_hecke(j, sigma):
                _acc(acc, (tau, swapped), coeff * s)
            _acc(acc, (sigma, cliff), coeff * V_MINUS_1)
            _acc(acc, (sigma, swapped), coeff * _MINUS_VM1)
        else:
            for tau, s in _left_hecke(j, sigma):
                _acc(acc, (tau, cliff), -(coeff * s))
            _acc(acc, (sigma, cliff - pair), coeff * V_MINUS_1)
            _acc(acc, (sigma, cliff), coeff * V_MINUS_1)
    return acc


_PUSH_MEMO: dict = {}


def clear_push_memo() -> None:
    """Empty the memo of Clifford pushes through T_sigma."""
    _PUSH_MEMO.clear()


def _push_c_left(sigma, k: int) -> dict:
    """T_sigma * c_k as {(m, tau): coeff} meaning coeff * c_m * T_tau.

    Every term of the expansion carries exactly one Clifford letter, so the
    single index m is enough.  Memoized per (sigma, k).
    """
    key = (sigma, k)
    cached = _PUSH_MEMO.get(key)
    if cached is not None:
        return cached
    j = next(right_descents(sigma), None)
    if j is None:
        result = {(k, sigma): ONE}
    else:
        tau = right_mul_s(sigma, j)
        if k == j:
            result = _push_rmul_T(_push_c_left(tau, j + 1), j)
        elif k == j + 1:
            result = dict(_push_rmul_T(_push_c_left(tau, j), j))
            for mkey, s in _push_c_left(tau, j + 1).items():
                _acc(result, mkey, s * V_MINUS_1)
            for mkey, s in _push_c_left(tau, j).items():
                _acc(result, mkey, s * _MINUS_VM1)
        else:
            result = _push_rmul_T(_push_c_left(tau, k), j)
    _PUSH_MEMO[key] = result
    return result


def _push_rmul_T(push: dict, j: int) -> dict:
    acc: dict = {}
    for (m, rho), coeff in push.items():
        for tau, s in _right_hecke(rho, j):
            _acc(acc, (m, tau), coeff * s)
    return acc


def _rmul_c(terms: dict, k: int) -> dict:
    acc: dict = {}
    for (sigma, cliff), coeff in terms.items():
        for (m, tau), s in _push_c_left(sigma, k).items():
            val = coeff * s
            if sum(1 for e in cliff if e > m) % 2:
                val = -val
            _acc(acc, (tau, cliff ^ {m}), val)
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
    multiplied left to right.

    >>> from_word(2, ["T1", "c1"]).render()
    'c2 T1'
    """
    if isinstance(coeff, int):
        coeff = sc_int(coeff)
    terms = {(perm_identity(n), frozenset()): coeff}
    if coeff.is_zero():
        return zero(n)
    for tok in word:
        kind, idx = _gen_token(tok)
        if kind == "T":
            if not 1 <= idx <= n - 1:
                raise IndexError(f"T index {idx} out of range for n={n}")
            terms = _rmul_T(terms, idx)
        else:
            if not 1 <= idx <= n:
                raise IndexError(f"c index {idx} out of range for n={n}")
            terms = _rmul_c(terms, idx)
    return AlgebraElement(n, terms)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product in normal form.

    Each left term C_I T_sigma acts on b by left generator multiplications:
    the letters of a reduced word of sigma innermost first, then the Clifford
    indices of I from the largest down.
    """
    a._check_rank(b)
    acc: dict = {}
    base = dict(b.terms)
    for (sigma, cliff), coeff in a.terms.items():
        cur = base
        for j in reversed(reduced_word(sigma)):
            cur = _lmul_T(cur, j)
        for k in sorted(cliff, reverse=True):
            cur = _lmul_c(cur, k)
        for key, val in cur.items():
            _acc(acc, key, coeff * val)
    return AlgebraElement(a.n, acc)


def build_T_w(mu, n: Optional[int] = None) -> AlgebraElement:
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
    if match is None:
        coeff_text, factor_text = chunk, ""
    else:
        coeff_text, factor_text = chunk[: match.start()], chunk[match.start():]
    coeff_text = coeff_text.strip()
    if coeff_text.endswith("*"):
        coeff_text = coeff_text[:-1].strip()
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


if __name__ == "__main__":
    import doctest

    doctest.testmod()
