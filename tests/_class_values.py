"""Character values on any class vector: the vector paired with the rows of
the ordinary character table.  The tests read zeta^lambda of an arbitrary
element through this, one reduction of the element and one pairing;
u_weight gives the coefficients of the trace decomposition."""

from __future__ import annotations

from spinhecke.characters import _expand, _u_factors, character_table
from spinhecke.scalars import Scalar, ZERO


def u_weight(lam) -> Scalar:
    """The coefficient of zeta^lambda in the trace decomposition,
    1 / (2^delta c^lambda): the factored weight of the certificate,
    multiplied out."""
    return _expand(_u_factors(lam))


def values_on_class_vector(vec) -> dict:
    """zeta^lambda of every element whose class vector is vec, for every
    strict lambda: vec paired with each row of the table."""
    table = character_table(vec.n)
    out = {}
    for lam in table.rows:
        total = ZERO
        for nu, val in vec.coeffs.items():
            if not val.is_zero():
                total = total + val * table.entry(lam, nu)
        out[lam] = total
    return out
