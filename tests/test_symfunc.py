"""Symmetric polynomial layer: monomials, Q-functions, deformed family."""

import itertools
import json
import random
from collections import Counter

import pytest

from spinhecke._linalg import column_rank, solve_exact, solve_triangular
from spinhecke.combinatorics import enumerate_partitions
from spinhecke.scalars import MINUS_ONE, ONE, Scalar, TWO, V_MINUS_1, ZERO, sc_int, sc_parse
from spinhecke.symfunc import (
    SymPoly,
    delta,
    expand_in_Q,
    g_tilde,
    g_tilde_one_part,
    monomial,
    one_poly,
    principal_specialization_Q,
    principal_specialization_g_tilde,
    product,
    q_basis,
    schur_q,
    zero_poly,
)

V = Scalar.v_power(1)


# ---------------------------------------------------------------------------
# plumbing bases


def test_monomial_examples():
    assert monomial((1,), 2).terms == {(1,): ONE}
    assert monomial((0, 1, 2), 3).terms == {(2, 1): ONE}
    p1 = monomial((1,), 2)
    assert (p1 * p1).terms == {(2,): ONE, (1, 1): TWO}
    mixed = product(monomial((2,), 3), monomial((1,), 3))
    assert mixed.terms == {(3,): ONE, (2, 1): ONE}
    # in one variable x^1 * x^1 is x^2 alone: the (1, 1) key is truncated
    assert (monomial((1,), 1) * monomial((1,), 1)).terms == {(2,): ONE}


def test_monomial_errors():
    with pytest.raises(ValueError, match="too few variables"):
        monomial((2, 1, 1), 2)
    with pytest.raises(ValueError, match="variable count"):
        product(one_poly(2), one_poly(3))


def _exponent_terms(f):
    """f on full exponent vectors: every arrangement of each key, m slots."""
    out = {}
    for key, coeff in f.terms.items():
        padded = key + (0,) * (f.m - len(key))
        for exp in set(itertools.permutations(padded)):
            out[exp] = coeff
    return out


def test_symmetry_validation():
    for f in (monomial((3,), 4), g_tilde((2, 1), 3), schur_q((3, 1), 5)):
        assert SymPoly.from_exponents(f.m, f.degree, _exponent_terms(f)) == f
    # zero coefficients drop out before the orbits are counted: the lone
    # (1, 1, 0) would otherwise be an incomplete orbit
    padded = {(2, 0, 0): ONE, (0, 2, 0): ONE, (0, 0, 2): ONE, (1, 1, 0): ZERO}
    assert SymPoly.from_exponents(3, 2, padded) == monomial((2,), 3)
    with pytest.raises(ValueError, match="orbit"):
        SymPoly.from_exponents(2, 2, {(2, 0): ONE})
    with pytest.raises(ValueError, match="not symmetric"):
        SymPoly.from_exponents(2, 2, {(2, 0): ONE, (0, 2): TWO})


@pytest.mark.parametrize("total", range(2, 8))
def test_product_matches_full_vector_multiplication(total):
    # every m_lam * m_mu with |lam| + |mu| = total, in every m from the longer
    # length to total, against the product of the two full orbits; m below
    # len(lam) + len(mu) exercises truncation
    for a in range(1, total):
        for lam in enumerate_partitions(a):
            for mu in enumerate_partitions(total - a):
                for m in range(max(len(lam), len(mu)), total + 1):
                    f, g = monomial(lam, m), monomial(mu, m)
                    counts = Counter()
                    for e1 in _exponent_terms(f):
                        for e2 in _exponent_terms(g):
                            counts[tuple(x + y for x, y in zip(e1, e2))] += 1
                    full = {exp: sc_int(c) for exp, c in counts.items()}
                    expected = SymPoly.from_exponents(m, total, full)
                    assert product(f, g) == expected, (lam, mu, m)


def test_specialize_and_json():
    p2 = monomial((2,), 3)
    assert p2.specialize([ONE, V, V * V]) == ONE + Scalar.v_power(2) + Scalar.v_power(4)
    data = json.loads(g_tilde((2,), 2).to_json())
    assert data == {"2": "2*v-2", "1,1": "4*v-4"}
    with pytest.raises(ValueError):
        p2.specialize([ONE])


# ---------------------------------------------------------------------------
# the deformed family


def test_delta_values():
    assert delta(0) == ONE
    assert delta(1) == TWO
    assert delta(2) == TWO * V_MINUS_1
    assert delta(3) == sc_parse("2*v^2-2*v+2")
    # always polynomial: v+1 divides 2(v^s - (-1)^s)
    for s in range(8):
        assert delta(s).membership("Qv")
    with pytest.raises(ValueError):
        delta(-1)


def test_g_tilde_small():
    assert g_tilde((1,), 1).terms == {(1,): TWO}
    got = g_tilde((2,), 2).terms
    assert got == {(2,): TWO * V_MINUS_1, (1, 1): sc_parse("4*v-4")}
    with pytest.raises(ValueError, match="too few variables"):
        g_tilde((3,), 2)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_g_tilde_at_v_equal_one(r):
    # 2 p_r for odd r, identically zero for even r
    spec = {
        key: val.specialize(1)
        for key, val in g_tilde_one_part(r, r).terms.items()
    }
    if r % 2:
        assert {k: v for k, v in spec.items() if v != 0} == {(r,): 2}
    else:
        assert all(v == 0 for v in spec.values())


def _series_coefficients(n):
    """Coefficients of t^r, r <= n, of prod_i (1-tx_i)(1+vtx_i)/((1+tx_i)(1-vtx_i))."""
    # per variable the t^s coefficient is d_s x^s with
    # d_s = sum_{c<=2} N_c sum_{a+b=s-c} (-1)^a v^b,  N = [1, v-1, -v]
    num = [ONE, V_MINUS_1, -V]
    d = []
    for s in range(n + 1):
        total = ZERO
        for c in range(min(2, s) + 1):
            for a in range(s - c + 1):
                b = s - c - a
                piece = num[c] * Scalar.v_power(b)
                if a % 2:
                    piece = -piece
                total = total + piece
        d.append(total)
    # the series on full exponent vectors: multiplying in variable i adds
    # d_s at exponent s to slot i
    series = [{(0,) * n: ONE}] + [{} for _ in range(n)]
    for i in range(n):
        updated = [{} for _ in range(n + 1)]
        for r in range(n + 1):
            acc = updated[r]
            for s in range(r + 1):
                if d[s].is_zero():
                    continue
                for exp, coeff in series[r - s].items():
                    key = exp[:i] + (exp[i] + s,) + exp[i + 1 :]
                    acc[key] = acc.get(key, ZERO) + coeff * d[s]
        series = updated
    return series


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_generating_series_matches_closed_form(n):
    series = _series_coefficients(n)
    for r in range(1, n + 1):
        got = SymPoly.from_exponents(n, r, series[r])
        assert got == g_tilde_one_part(r, n).scale(V_MINUS_1), r


# ---------------------------------------------------------------------------
# Schur Q-functions


def test_schur_q_small():
    assert schur_q((1,), 1).terms == {(1,): TWO}
    assert schur_q((2,), 2).terms == {(2,): TWO, (1, 1): sc_parse("4")}
    got = schur_q((2, 1), 3).terms
    assert got == {(2, 1): sc_parse("4"), (1, 1, 1): sc_parse("8")}
    with pytest.raises(ValueError, match="strict"):
        schur_q((2, 2), 4)
    with pytest.raises(ValueError, match="too few variables"):
        schur_q((3, 1), 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_schur_q_coefficients_even_nonnegative(n):
    for lam in enumerate_partitions(n, "strict"):
        for val in schur_q(lam, n).terms.values():
            const = val.specialize(1)
            assert val == Scalar.from_rational(const.re)  # constant
            assert const.im == 0 and const.re == int(const.re)
            assert int(const.re) >= 0 and int(const.re) % 2 == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_q_family_has_full_column_rank(n):
    stricts = enumerate_partitions(n, "strict")
    columns = [schur_q(lam, n).terms for lam in stricts]
    keys = enumerate_partitions(n)
    rows = [[col.get(key, ZERO) for col in columns] for key in keys]
    assert column_rank(rows) == len(stricts)


@pytest.mark.parametrize("n", range(1, 8))
def test_q_basis_is_triangular(n):
    # the precondition of the back-substitution in expand_in_Q: the largest
    # key of Q_lambda is lambda, with coefficient 2^len, and every other key
    # is dominance-below lambda
    def dominated(mu, lam):
        return all(sum(mu[:k]) <= sum(lam[:k]) for k in range(1, len(mu) + 1))

    for lam, vec in q_basis(n, n).items():
        assert max(vec) == lam
        assert vec[lam] == TWO ** len(lam)
        assert all(dominated(mu, lam) for mu in vec if mu != lam)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_expand_in_Q_round_trips_seeded_combinations(n):
    rng = random.Random(2012 + n)
    values = [ZERO, ONE, MINUS_ONE, TWO, V, V_MINUS_1, sc_parse("1/3")]
    basis = q_basis(n, n)
    for _ in range(4):
        coeffs = {lam: rng.choice(values) for lam in basis}
        f = zero_poly(n, n)
        for lam, a in coeffs.items():
            f = f + schur_q(lam, n).scale(a)
        expected = {lam: a for lam, a in coeffs.items() if not a.is_zero()}
        assert solve_triangular(basis, f.terms) == expected
        assert expand_in_Q(f) == expected


def test_expand_in_Q_examples():
    assert expand_in_Q(schur_q((2, 1), 3)) == {(2, 1): ONE}
    assert expand_in_Q(g_tilde((1, 1), 2)) == {(2,): TWO}
    got = expand_in_Q(g_tilde((3,), 3))
    assert got == {(3,): sc_parse("v^2-v+1"), (2, 1): -V}


def test_expand_in_Q_rejects_outsiders():
    with pytest.raises(ValueError, match="not in the span of Q-functions"):
        expand_in_Q(monomial((2,), 2))
    with pytest.raises(ValueError, match="not in the span of Q-functions"):
        expand_in_Q(monomial((4,), 4))


def test_solver_plumbing():
    with pytest.raises(ValueError, match="underdetermined"):
        solve_exact([[ONE, ONE]], [TWO])
    assert solve_exact([[TWO]], [ONE]) == [sc_parse("1/2")]
    assert column_rank([[ONE, ONE], [ONE, ONE]]) == 1
    basis = {(2,): {(2,): TWO, (1, 1): ONE}, (1, 1): {(1, 1): sc_parse("4")}}
    got = solve_triangular(basis, {(2,): TWO, (1, 1): TWO})
    assert got == {(2,): ONE, (1, 1): sc_parse("1/4")}
    assert solve_triangular(basis, {(2,): ZERO}) == {}
    with pytest.raises(ValueError, match="no basis vector"):
        solve_triangular({(1, 1): {(1, 1): ONE}}, {(2,): ONE})


# ---------------------------------------------------------------------------
# principal specializations


def test_principal_specialization_small():
    assert principal_specialization_Q((1,)) == sc_parse("2/(1-v)")
    assert principal_specialization_Q((2,)) == sc_parse("2/(1-v)^2")


def test_principal_specialization_hook_shape():
    got = principal_specialization_Q((4, 3, 1))
    expected = sc_parse(
        "v^5 * 8 * (1+v)^2 * (1+v^2)^2 * (1+v^3)"
        " / ((1-v^7)*(1-v^5)*(1-v^4)^2*(1-v^3)*(1-v^2)*(1-v)^2)"
    )
    assert got == expected


@pytest.mark.parametrize(
    "n,m", [(1, 8), (2, 12), (3, 9), (4, 10), (5, 12)]
)
def test_truncated_specialization_matches_closed_form(n, m):
    point = [Scalar.v_power(i) for i in range(m)]
    for lam in enumerate_partitions(n, "strict"):
        finite = schur_q(lam, m).specialize(point)
        closed = principal_specialization_Q(lam)
        diff = finite - closed
        if diff.is_zero():
            continue
        # the truncation error starts beyond v-degree m - n
        valuation = min(diff.num.coeffs)
        assert valuation > 2 * (m - n), (lam, valuation)


@pytest.mark.parametrize("n", range(1, 7))
def test_g_tilde_principal_specialization_identity(n):
    for mu in enumerate_partitions(n):
        got = principal_specialization_g_tilde(mu)
        expected = (TWO ** len(mu)) * (MINUS_ONE**n) / (V_MINUS_1 ** len(mu))
        assert got == expected, mu
