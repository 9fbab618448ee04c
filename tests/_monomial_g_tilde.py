"""The deformed family on monomials: the reference that the bar-rule
columns of `symfunc.g_tilde_in_Q` are checked against, and the monomial
m_mu that the tests build symmetric polynomials from.

g-tilde_(r) = sum over partitions rho of r of
Delta_rho (v-1)^(len(rho)-1) m_rho, with Delta_rho = prod_i delta(rho_i), and
g-tilde_mu is the product of its parts' one-part functions.
"""

from spinhecke.combinatorics import enumerate_partitions
from spinhecke.scalars import MINUS_ONE, ONE, Scalar, TWO, V, V_MINUS_1
from spinhecke.symfunc import SymPoly, one_poly, zero_poly


def monomial(mu, m: int) -> SymPoly:
    """m_mu in m variables: the orbit sum of x^mu."""
    key = tuple(sorted((p for p in mu if p), reverse=True))
    if len(key) > m:
        raise ValueError(f"too few variables: need {len(key)}, have {m}")
    return SymPoly(m, sum(key), {key: ONE})


def delta(s: int) -> Scalar:
    """2(v^s - (-1)^s)/(v+1), with delta(0) = 1; always a polynomial."""
    if s < 0:
        raise ValueError("delta needs s >= 0")
    if s == 0:
        return ONE
    sign = ONE if s % 2 == 0 else MINUS_ONE
    return TWO * (Scalar.v_power(s) - sign) / (V + ONE)


def _delta_product(rho) -> Scalar:
    out = ONE
    for part in rho:
        out = out * delta(part)
    return out


def g_tilde_one_part(r: int, m: int) -> SymPoly:
    """The single-part deformed function as a monomial combination."""
    if m < r:
        raise ValueError(f"too few variables: need {r}, have {m}")
    out = zero_poly(m, r)
    for rho in enumerate_partitions(r):
        coeff = _delta_product(rho) * V_MINUS_1 ** (len(rho) - 1)
        out = out + monomial(rho, m).scale(coeff)
    return out


def g_tilde(mu, m: int) -> SymPoly:
    """Product over the parts of mu of the single-part functions."""
    mu = tuple(mu)
    n = sum(mu)
    if m < n:
        raise ValueError(f"too few variables: need {n}, have {m}")
    out = one_poly(m)
    for part in mu:
        out = out * g_tilde_one_part(part, m)
    return out
