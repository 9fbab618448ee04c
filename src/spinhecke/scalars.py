"""Exact arithmetic in the field Q(i)(u) of rational functions.

The base variable is u, and the symbol v is an abbreviation for u**2, so
that half-integer powers of v (which show up in the tensor-space operators)
and the imaginary unit (which shows up in the Clifford action) live in one
scalar type.  Values are reduced fractions of sparse polynomials in u with
Gaussian-rational coefficients, kept in a canonical form so that equality
is plain structural equality and the rendered string of a value is unique.

Coefficients
------------
A coefficient is a `GaussianRational`.  In a canonical `Scalar` both parts
of every coefficient of the numerator and of the denominator are plain
Python ints: a rational constant such as the 1/2 of (v-1)/2 lives in the
denominator, which is then the constant 2.  No part is ever a float: a
float argument raises TypeError.

Canonical form
--------------
* numerator and denominator are coprime and have Gaussian-integer
  coefficients;
* the denominator is m*d, where d has integer content 1 and a positive
  integer leading coefficient, and no integer above 1 divides the
  numerator's content and m together.  A polynomial with integer
  coefficients has denominator 1, one with half-integer coefficients the
  constant 2.

One function, `_over`, makes this form on int parts, with no `Fraction`: it
divides out a gcd taken by a primitive remainder sequence (`UPoly.gcd`),
multiplies by the conjugate of the denominator's leading coefficient, and
divides by the gcd of all int parts, which fixes the scale once that lead is
a positive int.  A constant denominator takes the last step only: one
integer gcd.  The hash is that of (num/c, den/c) for the integer content c
of den, which is the pair of the form whose denominator is d.

Rendering
---------
The stored numerator and denominator print as they are: polynomials in
decreasing degree with even u-powers written as powers of v and odd ones
left in u; a denominator of 1 is omitted; multi-term
numerators or denominators of a genuine fraction are parenthesized:

>>> sc_parse("(1-v^2)/(1-v)").render()
'v+1'
>>> (half(ONE) * (V - ONE)).render()
'(v-1)/2'

Caches
------
Every module registers its caches here, below every route (`register_cache`),
and `traces.clear_caches()` empties them all.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _intgcd
from operator import add


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Each part is an `int` when it is integral and a `Fraction` (denominator
    at least 2) otherwise, so equal numbers have equal parts.  The
    coefficients of a canonical `Scalar` have int parts only; a `Fraction`
    part arises only in the values `Scalar.specialize` computes and in those
    a caller builds.  A float part is refused.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        self.re = _part(re)
        self.im = _part(im)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        # hash(k) == hash(Fraction(k)): the hash ignores which type a part has
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return _gr(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return _gr(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        res = _new(GaussianRational)
        res.re = -self.re
        res.im = -self.im
        return res

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, d = self.re, self.im, other.re, other.im
        if b or d:
            return _gr(a * c - b * d, a * d + b * c)
        return _gr(a * c, 0)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        """Exact quotient: integral parts come out as ints, never floats.

        >>> GaussianRational(1) / GaussianRational(2)
        GaussianRational(Fraction(1, 2), 0)
        >>> GaussianRational(6, -3) / GaussianRational(3)
        GaussianRational(2, -1)
        >>> GaussianRational(1, 1) / GaussianRational(0, 2)
        GaussianRational(Fraction(1, 2), Fraction(-1, 2))
        """
        c, d = other.re, other.im
        norm = c * c + d * d
        if not norm:
            raise ZeroDivisionError("zero denominator")
        a, b = self.re, self.im
        return _gr(Fraction(a * c + b * d, norm), Fraction(b * c - a * d, norm))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _part(x: int | Fraction) -> int | Fraction:
    """x as a canonical part; only ints and Fractions are exact rationals."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"expected an int or a Fraction, not {type(x).__name__}")


def _gr(re: int | Fraction, im: int | Fraction) -> GaussianRational:
    """Slot-filling constructor for arithmetic results: ints pass through,
    a Fraction with denominator 1 is stored as its int."""
    if re.__class__ is not int and re.denominator == 1:
        re = re.numerator
    if im.__class__ is not int and im.denominator == 1:
        im = im.numerator
    res = _new(GaussianRational)
    res.re = re
    res.im = im
    return res


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


class UPoly:
    """Sparse polynomial in u over GaussianRational: {exponent: coefficient}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        c = self.coeffs.get(0)
        return c is not None and len(self.coeffs) == 1 and c.re == 1 and not c.im

    def is_int(self, k: int) -> bool:
        """self == k, without building the constant polynomial k."""
        if not k:
            return not self.coeffs
        c = self.coeffs.get(0)
        return c is not None and len(self.coeffs) == 1 and c.re == k and not c.im

    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention here
        return max(self.coeffs) if self.coeffs else -1

    def __eq__(self, other) -> bool:
        return isinstance(other, UPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "UPoly") -> "UPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        res = UPoly.__new__(UPoly)
        res.coeffs = out
        return res

    def __neg__(self) -> "UPoly":
        res = UPoly.__new__(UPoly)
        res.coeffs = {e: -c for e, c in self.coeffs.items()}
        return res

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + (-other)

    def __mul__(self, other: "UPoly") -> "UPoly":
        """Product with the real and imaginary parts of each output exponent
        summed as plain numbers: one coefficient object per exponent."""
        if not self.coeffs or not other.coeffs:
            return UPoly({})
        re: dict = {}
        im: dict = {}
        right = [(e, c.re, c.im) for e, c in other.coeffs.items()]
        for e1, c1 in self.coeffs.items():
            a, b = c1.re, c1.im
            for e2, c, d in right:
                e = e1 + e2
                if e in re:
                    re[e] += a * c - b * d
                    im[e] += a * d + b * c
                else:
                    re[e] = a * c - b * d
                    im[e] = a * d + b * c
        res = _new(UPoly)
        res.coeffs = {e: _gr(r, im[e]) for e, r in re.items() if r or im[e]}
        return res

    def scale(self, c: GaussianRational) -> "UPoly":
        if not c:
            return UPoly({})
        res = UPoly.__new__(UPoly)
        res.coeffs = {e: k * c for e, k in self.coeffs.items()}
        return res

    def divmod(self, other: "UPoly") -> tuple:
        """Pseudo-division on int parts by an `other` that leads with a
        positive int L: (q, r, s) with s*self = q*other + r, deg r < deg other
        and s a power of L.  A step scales by L only when L does not divide
        the leading parts, so s = 1 whenever other divides self over Z[i][u]."""
        if not other.coeffs:
            raise ZeroDivisionError("zero denominator")
        top = max(other.coeffs)
        lead = other.coeffs[top]
        big = lead.re
        if lead.im or big <= 0:
            raise ValueError("the divisor must lead with a positive int")
        tail = [(e - top, c.re, c.im) for e, c in other.coeffs.items() if e != top]
        re = {e: c.re for e, c in self.coeffs.items()}
        im = {e: c.im for e, c in self.coeffs.items()}
        q: dict = {}
        s = 1
        for e in range(max(re, default=-1), top - 1, -1):
            a = re.pop(e, 0)
            b = im.pop(e, 0)
            if not (a or b):
                continue
            if a % big or b % big:
                for k in re:
                    re[k] *= big
                    im[k] *= big
                for k, (x, y) in q.items():
                    q[k] = (x * big, y * big)
                s *= big
            else:
                a //= big
                b //= big
            q[e - top] = (a, b)
            for off, c, d in tail:
                k = e + off
                re[k] = re.get(k, 0) - a * c + b * d
                im[k] = im.get(k, 0) - a * d - b * c
        quot = _new(UPoly)
        quot.coeffs = {k: _gr(x, y) for k, (x, y) in q.items()}
        rest = _new(UPoly)
        rest.coeffs = {k: _gr(x, im[k]) for k, x in re.items() if x or im[k]}
        return quot, rest, s

    def gcd(self, other: "UPoly") -> "UPoly":
        """A greatest common divisor over Q(i)[u], by a primitive remainder
        sequence on int parts: primitive as `_primitive` makes it."""
        a, b = _primitive(self), _primitive(other)
        while b.coeffs:
            a, b = b, _primitive(a.divmod(b)[1])
        return a

    def evaluate(self, u0: GaussianRational) -> GaussianRational:
        acc = GR_ZERO
        for e, c in self.coeffs.items():
            term = c
            # repeated squaring is overkill for the degrees seen here
            for _ in range(e):
                term = term * u0
            acc = acc + term
        return acc

    def __repr__(self):
        return f"UPoly({self.coeffs!r})"


UP_ZERO = UPoly({})
UP_ONE = UPoly({0: GR_ONE})


def _lead_factor(p: UPoly):
    """The GaussianRational c that makes c times the leading coefficient of p
    a positive int (the conjugate of a non-real lead, -1 for a negative one),
    or None when that lead is a positive int already."""
    lead = p.coeffs[max(p.coeffs)]
    if lead.im:
        return _gr(lead.re, -lead.im)
    return None if lead.re > 0 else _gr(-1, 0)


def _content(g: int, p: UPoly) -> int:
    """gcd of g and every int part of p."""
    for c in p.coeffs.values():
        g = _intgcd(g, c.re, c.im)
        if g == 1:
            break
    return g


def _divide_parts(p: UPoly, g: int) -> UPoly:
    """p with every part divided by the int g, which divides them all."""
    res = _new(UPoly)
    res.coeffs = {e: _gr(c.re // g, c.im // g) for e, c in p.coeffs.items()}
    return res


def _primitive(p: UPoly) -> UPoly:
    """p times the constant that makes it lead with a positive int and the
    gcd of its int parts 1; zero stays zero."""
    if not p.coeffs:
        return p
    if (c := _lead_factor(p)) is not None:
        p = p.scale(c)
    g = _content(0, p)
    return p if g == 1 else _divide_parts(p, g)


def _const_den(den: UPoly) -> int:
    """The integer k when the canonical denominator den is the constant k,
    else 0."""
    coeffs = den.coeffs
    if len(coeffs) == 1:
        c = coeffs.get(0)
        if c is not None:
            return c.re
    return 0


def _unit(coeffs: dict) -> int:
    """1 or -1 when the polynomial {exponent: coefficient} is that constant,
    else 0."""
    if len(coeffs) == 1:
        c = coeffs.get(0)
        if c is not None and not c.im and (c.re == 1 or c.re == -1):
            return c.re
    return 0


def _over(num: UPoly, den) -> "Scalar":
    """The canonical Scalar num / den, for num with int parts and den a
    non-zero int or a UPoly with int parts.

    A den of positive degree first loses its gcd with num: both are
    pseudo-divided by it, and the two scales cross-multiplied.  den is then
    made to lead with a positive int, and last num and den are divided by
    the gcd of all their int parts.  An int den takes the last step only:
    one integer gcd.
    """
    if not num.coeffs:
        return ZERO
    if den.__class__ is not int:
        if den.degree() > 0 and (g := num.gcd(den)).degree() > 0:
            num, _, s = num.divmod(g)
            den, _, t = den.divmod(g)
            if s != t:
                num, den = num.scale(_gr(t, 0)), den.scale(_gr(s, 0))
        if (c := _lead_factor(den)) is not None:
            num, den = num.scale(c), den.scale(c)
        if not den.degree():
            den = den.coeffs[0].re
    if den.__class__ is int:
        if den < 0:
            num, den = -num, -den
        g = den
    else:
        g = _content(0, den)
    if g != 1 and (g := _content(g, num)) != 1:
        num = _divide_parts(num, g)
        den = den // g if den.__class__ is int else _divide_parts(den, g)
    if den.__class__ is int:
        den = UP_ONE if den == 1 else UPoly({0: GaussianRational(den)})
    return Scalar(num, den, _canonical=True)


class Scalar:
    """An element of Q(i)(u) in canonical reduced-fraction form."""

    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: UPoly = UP_ONE, *, _canonical: bool = False):
        if not _canonical:
            if not den.coeffs:
                raise ZeroDivisionError("zero denominator")
            parts = [x for p in (num, den) for c in p.coeffs.values() for x in (c.re, c.im)]
            if any(x.__class__ is not int for x in parts):
                raise TypeError("Scalar parts must be ints; rationals enter by from_rational")
            value = _over(num, den)
            num, den = value.num, value.den
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(k: int) -> "Scalar":
        return Scalar(UPoly({0: GaussianRational(k)}), UP_ONE, _canonical=True)

    @staticmethod
    def from_rational(q: int | Fraction) -> "Scalar":
        """The int or Fraction q as its numerator over its denominator."""
        q = _part(q)
        return _over(UPoly({0: GaussianRational(q.numerator)}), q.denominator)

    @staticmethod
    def from_v_ints(coeffs, den: int = 1) -> "Scalar":
        """sum_k coeffs[k] v^k / den for ints coeffs[k] and a positive int
        den: canonical as it stands when den is 1, one integer gcd otherwise.

        >>> Scalar.from_v_ints([-1, 0, 2]).render()
        '2*v^2-1'
        >>> Scalar.from_v_ints((-2, 2), 4).render()
        '(v-1)/2'
        """
        num = _v_poly(coeffs, 0, 1)
        if not num.coeffs:
            return ZERO
        return Scalar(num, UP_ONE, _canonical=True) if den == 1 else _over(num, den)

    def v_ints(self):
        """The inverse of from_v_ints on Z[v]: the ascending int tuple of a
        value with denominator 1, even u-exponents and real int parts
        (() for zero), and None for any other value.

        >>> sc_parse("2*v^2-1").v_ints()
        (-1, 0, 2)
        >>> sc_parse("(v-1)/2").v_ints() is None
        True
        """
        if not self.den.is_one():
            return None
        coeffs = self.num.coeffs
        out = [0] * (max(coeffs, default=-2) // 2 + 1)
        for e, c in coeffs.items():
            if e & 1 or c.im or c.re.__class__ is not int:
                return None
            out[e >> 1] = c.re
        return tuple(out)

    @staticmethod
    def from_u_ints(re, im=()) -> "Scalar":
        """sum_k (re[k] + i im[k]) u^k for int sequences re and im: a
        polynomial over the Gaussian integers, canonical as it stands.

        >>> Scalar.from_u_ints((-1, 0, 1)).render()
        'v-1'
        >>> Scalar.from_u_ints((0, 1), (2,)).render()
        'u+2*i'
        """
        coeffs = {k: _gr(a, 0) for k, a in enumerate(re) if a}
        for k, b in enumerate(im):
            if b:
                c = coeffs.get(k)
                coeffs[k] = _gr(0 if c is None else c.re, b)
        if not coeffs:
            return ZERO
        res = _new(UPoly)
        res.coeffs = coeffs
        return Scalar(res, UP_ONE, _canonical=True)

    def u_ints(self):
        """The ascending int tuple in u of a value with denominator 1 and real
        int parts (() for zero), and None for any other value.

        >>> sc_parse("v-u").u_ints()
        (0, -1, 1)
        >>> sc_parse("u/2").u_ints() is None
        True
        """
        if not self.den.is_one():
            return None
        coeffs = self.num.coeffs
        out = [0] * (max(coeffs, default=-1) + 1)
        for e, c in coeffs.items():
            if c.im or c.re.__class__ is not int:
                return None
            out[e] = c.re
        return tuple(out)

    @staticmethod
    def v_power(k: int) -> "Scalar":
        """v**k as a Scalar, for any integer k (negative gives 1/v**|k|)."""
        if k >= 0:
            return Scalar(UPoly({2 * k: GR_ONE}), UP_ONE, _canonical=True)
        return Scalar(UP_ONE, UPoly({-2 * k: GR_ONE}), _canonical=True)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den.is_one() and self.num.is_int(other)
        return NotImplemented

    def __hash__(self):
        # the hash of the pair with den's integer content c divided out, so
        # it equals the hash of the form whose denominator had content 1
        c = _content(0, self.den)
        if c == 1:
            return hash((self.num, self.den))
        inv = GaussianRational(Fraction(1, c))
        return hash((self.num.scale(inv), self.den.scale(inv)))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if not self.num.coeffs:
            return other
        if not other.num.coeffs:
            return self
        k1 = _const_den(self.den)
        k2 = _const_den(other.den)
        if k1 and k2:
            if k1 == k2:
                if k1 == 1:
                    return Scalar(self.num + other.num, UP_ONE, _canonical=True)
                return _over(self.num + other.num, k1)
            k = k1 * k2 // _intgcd(k1, k2)
            a = self.num if k == k1 else self.num.scale(_gr(k // k1, 0))
            b = other.num if k == k2 else other.num.scale(_gr(k // k2, 0))
            return _over(a + b, k)
        if self.den == other.den:
            return _over(self.num + other.num, self.den)
        return _over(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.num, self.den, _canonical=True)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if not self.num.coeffs or not other.num.coeffs:
            return ZERO
        k1 = _const_den(self.den)
        k2 = _const_den(other.den)
        # a product by 1 or -1 is free
        if k1 == 1 and (unit := _unit(self.num.coeffs)):
            return other if unit == 1 else Scalar(-other.num, other.den, _canonical=True)
        if k2 == 1 and (unit := _unit(other.num.coeffs)):
            return self if unit == 1 else Scalar(-self.num, self.den, _canonical=True)
        if k1 and k2:
            if k1 == 1 and k2 == 1:
                return Scalar(self.num * other.num, UP_ONE, _canonical=True)
            return _over(self.num * other.num, k1 * k2)
        return _over(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if other.num.is_zero():
            raise ZeroDivisionError("zero denominator")
        return _over(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return (ONE / self) ** (-k)
        acc = ONE
        base = self
        while k:
            if k & 1:
                acc = acc * base
            k >>= 1
            if k:
                base = base * base
        return acc

    def inverse(self) -> "Scalar":
        return ONE / self

    # -- queries -----------------------------------------------------------

    def specialize(self, u0) -> GaussianRational:
        """Exact evaluation at u = u0; raises on a pole."""
        if not isinstance(u0, GaussianRational):
            u0 = GaussianRational(u0)
        d = self.den.evaluate(u0)
        if not d:
            raise ZeroDivisionError("pole at specialization point")
        return self.num.evaluate(u0) / d

    def membership(self, ring: str) -> bool:
        """Membership test: ring is 'A', 'Qv' or 'real'.

        'A'    — Laurent polynomials in v over Z[1/2];
        'Qv'   — rational functions of v with rational coefficients;
        'real' — no imaginary part anywhere.
        """
        if ring == "A":
            if len(self.den.coeffs) != 1:
                return False
            (k, lead), = self.den.coeffs.items()
            m = lead.re
            if m & (m - 1):  # not a power of two
                return False
            return all(not (e - k) % 2 and not c.im for e, c in self.num.coeffs.items())
        if ring == "Qv":
            for poly in (self.num, self.den):
                for e, c in poly.coeffs.items():
                    if e % 2 or c.im:
                        return False
            return True
        if ring == "real":
            for poly in (self.num, self.den):
                for c in poly.coeffs.values():
                    if c.im:
                        return False
            return True
        raise ValueError(f"unknown ring {ring!r}")

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical string; see the module docstring for the format."""
        if self.num.is_zero():
            return "0"
        if self.den.is_one():
            return _render_poly(self.num)
        tops = _render_poly(self.num)
        bots = _render_poly(self.den)
        if len(self.num.coeffs) > 1:
            tops = f"({tops})"
        if _needs_parens(bots):
            bots = f"({bots})"
        return f"{tops}/{bots}"

    def __repr__(self):
        return f"<Scalar {self.render()}>"


def _needs_parens(rendered: str) -> bool:
    return any(ch in rendered for ch in "+-*")


def _render_var(e: int) -> str:
    if e == 0:
        return ""
    if e % 2 == 0:
        return "v" if e == 2 else f"v^{e // 2}"
    return "u" if e == 1 else f"u^{e}"


def _render_gaussian(c: GaussianRational) -> str:
    """Render a Gaussian number with both parts nonzero, like 2-3*i."""
    a, b = c.re, c.im
    mag = -b if b < 0 else b
    ipart = "i" if mag == 1 else f"{mag}*i"
    return f"{a}-{ipart}" if b < 0 else f"{a}+{ipart}"


def _render_poly(p: UPoly) -> str:
    """Render an integer-coefficient polynomial, decreasing degree."""
    if p.is_zero():
        return "0"
    pieces = []
    for e in sorted(p.coeffs, reverse=True):
        c = p.coeffs[e]
        var = _render_var(e)
        if c.im == 0:
            a = c.re
            neg = a < 0
            mag = -a if neg else a
            if var and mag == 1:
                body = var
            elif var:
                body = f"{mag}*{var}"
            else:
                body = f"{mag}"
            pieces.append(("-" if neg else "+", body))
        elif c.re == 0:
            b = c.im
            neg = b < 0
            mag = -b if neg else b
            coef = "i" if mag == 1 else f"{mag}*i"
            body = f"{coef}*{var}" if var else coef
            pieces.append(("-" if neg else "+", body))
        else:
            inner = _render_gaussian(c)
            body = f"({inner})*{var}" if var else f"({inner})"
            pieces.append(("+", body))
    sign0, body0 = pieces[0]
    out = [body0 if sign0 == "+" else f"-{body0}"]
    for sign, body in pieces[1:]:
        out.append(sign)
        out.append(body)
    return "".join(out)


# -- parsing ---------------------------------------------------------------


class ScalarParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ScalarParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Scalar:
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return value

    def expr(self) -> Scalar:
        value = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self) -> Scalar:
        value = self.unary()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                value = value * self.unary()
            elif ch == "/":
                self.pos += 1
                divisor = self.unary()
                if divisor.is_zero():
                    self.error("division by zero")
                value = value / divisor
            else:
                return value

    def unary(self) -> Scalar:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return -self.unary()
        if ch == "+":
            self.pos += 1
            return self.unary()
        return self.power()

    def power(self) -> Scalar:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            ch = self.peek()
            neg = False
            if ch == "-":
                self.pos += 1
                neg = True
            k = self.integer()
            if neg and base.is_zero():
                self.error("division by zero")
            return base ** (-k if neg else k)
        return base

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def atom(self) -> Scalar:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return value
        if ch.isdigit():
            return Scalar.from_int(self.integer())
        if ch == "v":
            self.pos += 1
            return V
        if ch == "u":
            self.pos += 1
            return U
        if ch == "i":
            self.pos += 1
            return I
        self.error("expected a value" if not ch else f"unexpected {ch!r}")


def sc_parse(text: str) -> Scalar:
    """Parse the canonical scalar grammar.

    >>> sc_parse("2*v+2").render()
    '2*v+2'
    >>> sc_parse("(v-1)/2").render()
    '(v-1)/2'
    >>> sc_parse("u*u").render()
    'v'
    """
    return _Parser(text).parse()


# -- shared constants and small helpers -------------------------------------

ZERO = Scalar(UP_ZERO, UP_ONE, _canonical=True)
ONE = Scalar(UP_ONE, UP_ONE, _canonical=True)
TWO = Scalar.from_int(2)
MINUS_ONE = Scalar.from_int(-1)
V = Scalar.v_power(1)
U = Scalar(UPoly({1: GR_ONE}), UP_ONE, _canonical=True)
I = Scalar(UPoly({0: GaussianRational(0, 1)}), UP_ONE, _canonical=True)
HALF = Scalar.from_rational(Fraction(1, 2))
V_MINUS_1 = V - ONE


def half(x: Scalar) -> Scalar:
    return HALF * x


def sc_int(k: int) -> Scalar:
    return Scalar.from_int(k)


def _v_poly(coeffs, shift: int, const: int) -> UPoly:
    """const * v^shift * sum_k coeffs[k] v^k for ints coeffs[k], with v = u^2."""
    res = _new(UPoly)
    res.coeffs = {2 * (k + shift): _gr(const * c, 0) for k, c in enumerate(coeffs) if c}
    return res


def _poly_add(p, q) -> tuple:
    """Sum of integer polynomials given as ascending coefficient sequences;
    trailing zeros are dropped, so the zero polynomial is ()."""
    if len(p) < len(q):
        p, q = q, p
    out = (*map(add, p, q), *p[len(q):])
    k = len(out)
    while k and not out[k - 1]:
        k -= 1
    return out[:k]


def _poly_mul(p, q) -> tuple:
    """Product of integer polynomials given as ascending coefficient sequences;
    a zero factor, () or (0,), gives ()."""
    if len(p) > len(q):
        p, q = q, p
    if not p:
        return ()
    if len(p) == 1:
        a = p[0]
        if not a:
            return ()
        return tuple(q) if a == 1 else tuple(a * b for b in q)
    if len(p) == 2:
        a, b = p
        return (a * q[0], *[a * x + b * y for x, y in zip(q[1:], q)], b * q[-1])
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q, i):
                out[j] += a * b
    return tuple(out)


def _poly_scale(p, k: int) -> tuple:
    """k * p for an int k and an integer polynomial p; () when k is 0."""
    return tuple([k * a for a in p]) if k else ()


def _poly_acc(acc: dict, key, p: tuple) -> None:
    """acc[key] += p on integer polynomials; a key summing to 0 is dropped."""
    cur = acc.get(key)
    total = p if cur is None else _poly_add(cur, p)
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


# Packed integer polynomials in v: sum_k a_k v^k stored as the one int
# sum_k a_k 2^(k _W), its value at v = 2^_W.  That is a ring map from Z[v]
# to Z, so sums, products, negation, dropping a key whose int is 0, and the
# shifts (times v is << _W, times 2^e is << e) are exact with no condition.
# Reading the digits back is exact when every |a_k| < 2^(_W - 1), so every
# packed value carries a proven bound on its l1 norm (the sum of |a_k|):
# ||p + q|| <= ||p|| + ||q|| and ||pq|| <= ||p|| ||q||.  A bound that passes
# 2^(_W / 2) is replaced by the exact norm (`_tighten`), and _unpack refuses
# a bound at or above 2^(_W - 1).

_W = 128


class WidthError(OverflowError):
    """A packed value whose norm bound does not fit the packing width."""


def _pack(ints) -> int:
    """The packed int of the ascending coefficient sequence ints."""
    w = _W
    return sum(a << (k * w) for k, a in enumerate(ints))


def _unpack(p: int, bound: int) -> tuple:
    """The ascending int tuple (() for 0) of the packed p, whose coefficients
    are at most bound in absolute value (as they are under a bound on the
    l1 norm); WidthError when bound does not prove the balanced digits.

    >>> _unpack(_pack((-1, 0, 2)), 3)
    (-1, 0, 2)
    """
    w = _W
    if bound >> (w - 1):
        raise WidthError(
            f"packed norm bound {bound} reaches 2^{w - 1}: "
            f"a width of {w} bits cannot decode it"
        )
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    out = []
    while p:
        a = ((p + half) & mask) - half
        out.append(a)
        p = (p - a) >> w
    return tuple(out)


def _norm(values, bound: int) -> int:
    """The exact summed l1 norm of packed values whose coefficients are at
    most bound in absolute value."""
    return sum(abs(a) for p in values for a in _unpack(p, bound))


def _tighten(values, bound: int) -> int:
    """bound on the summed l1 norm of the packed values, or their exact
    summed norm when bound has passed 2^(_W / 2)."""
    return _norm(values, bound) if bound >> (_W // 2) else bound


def _int_acc(acc: dict, key, p: int) -> None:
    """acc[key] += p on packed ints; a key summing to 0 is dropped."""
    total = acc.get(key, 0) + p
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _acc(acc: dict, key, value: Scalar) -> None:
    cur = acc.get(key)
    total = value if cur is None else cur + value
    if total.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = total


_REGISTERED: list = []


def register_cache(cache: dict) -> dict:
    """Have traces.clear_caches() empty `cache` as well; returns `cache`."""
    _REGISTERED.append(cache)
    return cache
