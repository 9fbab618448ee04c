"""Exact arithmetic in the field Q(i)(u) of rational functions.

The base variable is u, and the symbol v is an abbreviation for u**2, so
that half-integer powers of v (which show up in the tensor-space operators)
and the imaginary unit (which shows up in the Clifford action) live in one
scalar type.  Values are reduced fractions of sparse polynomials in u with
Gaussian-rational coefficients, kept in a canonical form so that equality
is plain structural equality and the rendered string of a value is unique.

Canonical form
--------------
* numerator and denominator are coprime (monic gcd divided out);
* the denominator has Gaussian-integer coefficients with rational content 1,
  and its leading coefficient is unit-normalized (real part positive, or
  zero real part and positive imaginary part) — for the common case of a
  real denominator this means a positive integer leading coefficient.

Rendering
---------
Polynomials print in decreasing degree with even u-powers written as powers
of v and odd ones left in u; a denominator of 1 is omitted; multi-term
numerators or denominators of a genuine fraction are parenthesized:

>>> sc_parse("(1-v^2)/(1-v)").render()
'v+1'
>>> (half(ONE) * (V - ONE)).render()
'(v-1)/2'
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _intgcd
from typing import Union

Rat = Union[int, Fraction]


class GaussianRational:
    """A complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, d = self.re, self.im, other.re, other.im
        if b == 0 and d == 0:
            return GaussianRational(a * c)
        return GaussianRational(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        c, d = other.re, other.im
        if d == 0:
            if c == 0:
                raise ZeroDivisionError("zero denominator")
            return GaussianRational(self.re / c, self.im / c)
        norm = c * c + d * d
        a, b = self.re, self.im
        return GaussianRational((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


class UPoly:
    """Sparse polynomial in u over GaussianRational: {exponent: coefficient}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    @staticmethod
    def const(c: GaussianRational) -> "UPoly":
        return UPoly({0: c}) if c else UPoly({})

    @staticmethod
    def mono(e: int, c: GaussianRational = GR_ONE) -> "UPoly":
        return UPoly({e: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs.get(0) == GR_ONE

    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention here
        return max(self.coeffs) if self.coeffs else -1

    def leading(self) -> GaussianRational:
        return self.coeffs[max(self.coeffs)]

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
        if not self.coeffs or not other.coeffs:
            return UPoly({})
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                p = c1 * c2
                s = out.get(e)
                if s is None:
                    out[e] = p
                else:
                    out[e] = s + p
        res = UPoly.__new__(UPoly)
        res.coeffs = {e: c for e, c in out.items() if c}
        return res

    def scale(self, c: GaussianRational) -> "UPoly":
        if not c:
            return UPoly({})
        res = UPoly.__new__(UPoly)
        res.coeffs = {e: k * c for e, k in self.coeffs.items()}
        return res

    def divmod(self, other: "UPoly") -> tuple:
        """Long division: self = q*other + r with deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("zero denominator")
        q: dict = {}
        r = dict(self.coeffs)
        dlead = max(other.coeffs)
        dcoef = other.coeffs[dlead]
        while r:
            e = max(r)
            if e < dlead:
                break
            f = r[e] / dcoef
            q[e - dlead] = f
            for oe, oc in other.coeffs.items():
                te = e - dlead + oe
                s = r.get(te, GR_ZERO) - f * oc
                if s:
                    r[te] = s
                elif te in r:
                    del r[te]
        return UPoly(q), UPoly(r)

    def gcd(self, other: "UPoly") -> "UPoly":
        """Monic greatest common divisor (Euclid)."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        lead = a.leading()
        if lead == GR_ONE:
            return a
        return a.scale(GR_ONE / lead)

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


def _rational_content(p: UPoly) -> Fraction:
    """Positive rational c with p/c having integer re/im parts of gcd 1."""
    num_g = 0
    den_l = 1
    for c in p.coeffs.values():
        for part in (c.re, c.im):
            if part:
                num_g = _intgcd(num_g, abs(part.numerator))
                den_l = den_l * part.denominator // _intgcd(den_l, part.denominator)
    if num_g == 0:
        return Fraction(1)
    return Fraction(num_g, den_l)


class Scalar:
    """An element of Q(i)(u) in canonical reduced-fraction form."""

    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: UPoly = UP_ONE, *, _canonical: bool = False):
        if _canonical:
            self.num = num
            self.den = den
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = UP_ZERO
            self.den = UP_ONE
            return
        if not den.is_one():
            g = num.gcd(den)
            if not g.is_one():
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        if den.is_one():
            self.num = num
            self.den = UP_ONE
            return
        # reduced pairs differ by a constant factor; kill it by passing
        # through the (unique) monic denominator, then clear rational
        # denominators so den has Gaussian-integer coefficients of content 1
        # with a positive integer leading coefficient.
        lead = den.leading()
        if lead != GR_ONE:
            inv = GR_ONE / lead
            den = den.scale(inv)
            num = num.scale(inv)
        c = _rational_content(den)
        if c != 1:
            inv = GaussianRational(1 / c)
            den = den.scale(inv)
            num = num.scale(inv)
        if den.is_one():
            self.num = num
            self.den = UP_ONE
            return
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(k: int) -> "Scalar":
        return Scalar(UPoly.const(GaussianRational(k)))

    @staticmethod
    def from_rational(q: Rat) -> "Scalar":
        return Scalar(UPoly.const(GaussianRational(q)))

    @staticmethod
    def v_power(k: int) -> "Scalar":
        """v**k as a Scalar, for any integer k (negative gives 1/v**|k|)."""
        if k >= 0:
            return Scalar(UPoly.mono(2 * k), UP_ONE, _canonical=True)
        return Scalar(UP_ONE, UPoly.mono(-2 * k), _canonical=True)

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
            return self.den.is_one() and self.num == UPoly.const(GaussianRational(other))
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den.is_one() and other.den.is_one():
            return Scalar(self.num + other.num, UP_ONE, _canonical=True)
        if self.den == other.den:
            return Scalar(self.num + other.num, self.den)
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.num, self.den, _canonical=True)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if self.num.is_zero() or other.num.is_zero():
            return ZERO
        if self.den.is_one() and other.den.is_one():
            return Scalar(self.num * other.num, UP_ONE, _canonical=True)
        return Scalar(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if other.num.is_zero():
            raise ZeroDivisionError("zero denominator")
        if self.num.is_zero():
            return ZERO
        return Scalar(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return (ONE / self) ** (-k)
        acc = ONE
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
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
            if lead != GR_ONE:
                return False
            for e, c in self.num.coeffs.items():
                if (e - k) % 2:
                    return False
                if c.im:
                    return False
                d = c.re.denominator
                if d & (d - 1):  # not a power of two
                    return False
            return True
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
        # the numerator (num / c) * c.numerator, written as one scaling
        c = _rational_content(self.num)
        top = self.num.scale(GaussianRational(c.denominator))
        bot = self.den.scale(GaussianRational(c.denominator))
        if bot.is_one():
            return _render_poly(top)
        tops = _render_poly(top)
        bots = _render_poly(bot)
        if len(top.coeffs) > 1:
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
U = Scalar(UPoly.mono(1), UP_ONE, _canonical=True)
I = Scalar(UPoly.const(GaussianRational(0, 1)), UP_ONE, _canonical=True)
HALF = Scalar.from_rational(Fraction(1, 2))
V_MINUS_1 = V - ONE


def half(x: Scalar) -> Scalar:
    return HALF * x


def sc_int(k: int) -> Scalar:
    return Scalar.from_int(k)
