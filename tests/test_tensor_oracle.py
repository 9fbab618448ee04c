import itertools
import random

import pytest

from spinhecke.combinatorics import enumerate_partitions
from spinhecke.hecke_clifford import build_T_w, from_word, one
from spinhecke.scalars import HALF, I, MINUS_ONE, ONE, TWO, U, V, ZERO
from spinhecke.symfunc import SymPoly, delta, g_tilde
from spinhecke.tensor_oracle import (
    OracleReport,
    TensorSpace,
    apply,
    apply_element,
    cross_check,
    oracle_characters,
    trace_poly,
    weight_trace,
)
from spinhecke.characters import character_table

V1 = V - ONE


# -- sparse-vector helpers ----------------------------------------------------


def vsub(a, b):
    out = dict(a)
    for key, c in b.items():
        cur = out.get(key)
        val = -c if cur is None else cur - c
        if val.is_zero():
            out.pop(key, None)
        else:
            out[key] = val
    return out


def vadd(a, b):
    return vsub(a, {k: -c for k, c in b.items()})


def vscale(a, s):
    return {k: c * s for k, c in a.items()}


def chain(space, gens, vec):
    # operator composition: the rightmost generator acts first
    for gen in reversed(gens):
        vec = apply(space, gen, vec)
    return vec


def random_sparse(space, rng, size=3):
    pool = [ONE, MINUS_ONE, V, U, I, TWO, HALF]
    vec = {}
    tuples = list(space.basis_tuples())
    for tup in rng.sample(tuples, size):
        vec[tup] = rng.choice(pool)
    return vec


# -- the space itself ---------------------------------------------------------


def test_space_shape():
    sp = TensorSpace(m=2, n=3)
    assert sp.indices == (-2, -1, 1, 2)
    assert sp.dimension == 64
    assert sp.weight((1, -2, 1)) == (2, 1)
    assert len(list(sp.basis_tuples())) == 64


def test_space_validation():
    with pytest.raises(ValueError):
        TensorSpace(m=0, n=1)
    with pytest.raises(ValueError):
        TensorSpace(m=1, n=0)


# -- single-generator action ---------------------------------------------------


def test_exchange_on_equal_positive_pair():
    sp = TensorSpace(m=1, n=2)
    out = apply(sp, "T1", {(1, 1): ONE})
    assert out == {(1, 1): V, (-1, -1): V1}


def test_exchange_on_equal_negative_pair():
    sp = TensorSpace(m=1, n=2)
    out = apply(sp, "T1", {(-1, -1): ONE})
    assert out == {(-1, -1): MINUS_ONE}


def test_quarter_turn_on_single_factor():
    sp = TensorSpace(m=1, n=1)
    assert apply(sp, "c1", {(1,): ONE}) == {(-1,): MINUS_ONE * I}
    assert apply(sp, "c1", {(-1,): ONE}) == {(1,): I}


def test_tuple_and_string_generators_agree():
    sp = TensorSpace(m=2, n=2)
    vec = {(1, -2): TWO, (2, 2): U}
    assert apply(sp, "T1", vec) == apply(sp, ("T", 1), vec)
    assert apply(sp, "c2", vec) == apply(sp, ("c", 2), vec)


def test_generator_index_errors():
    sp = TensorSpace(m=2, n=2)
    with pytest.raises(ValueError):
        apply(sp, "T2", {(1, 1): ONE})
    with pytest.raises(ValueError):
        apply(sp, "c3", {(1, 1): ONE})
    with pytest.raises(ValueError):
        apply(sp, "x1", {(1, 1): ONE})
    with pytest.raises(ValueError):
        apply(sp, ("q", 1), {(1, 1): ONE})


def test_apply_element_rank_mismatch():
    sp = TensorSpace(m=2, n=3)
    with pytest.raises(ValueError):
        apply_element(sp, one(2), {(1, 1, 1): ONE})


def test_generators_preserve_weight():
    sp = TensorSpace(m=3, n=3)
    for tup in sp.basis_tuples():
        w = sp.weight(tup)
        for gen in ("T1", "T2", "c1", "c2", "c3"):
            for out_tup in apply(sp, gen, {tup: ONE}):
                assert sp.weight(out_tup) == w


# -- defining relations hold on the tensor side --------------------------------


def _relation_residuals(space, vec):
    n = space.n
    res = []
    for j in range(1, n):
        tj = [("T", j)]
        res.append(
            vsub(
                chain(space, tj + tj, vec),
                vadd(vscale(chain(space, tj, vec), V1), vscale(vec, V)),
            )
        )
        res.append(vsub(chain(space, tj + [("c", j)], vec),
                        chain(space, [("c", j + 1)] + tj, vec)))
        res.append(
            vsub(
                chain(space, tj + [("c", j + 1)], vec),
                vadd(
                    chain(space, [("c", j)] + tj, vec),
                    vscale(
                        vsub(apply(space, ("c", j + 1), vec), apply(space, ("c", j), vec)),
                        V1,
                    ),
                ),
            )
        )
        for k in range(1, n + 1):
            if k not in (j, j + 1):
                res.append(vsub(chain(space, tj + [("c", k)], vec),
                                chain(space, [("c", k)] + tj, vec)))
    for j in range(1, n - 1):
        res.append(
            vsub(
                chain(space, [("T", j), ("T", j + 1), ("T", j)], vec),
                chain(space, [("T", j + 1), ("T", j), ("T", j + 1)], vec),
            )
        )
    for i in range(1, n):
        for j in range(i + 2, n):
            res.append(vsub(chain(space, [("T", i), ("T", j)], vec),
                            chain(space, [("T", j), ("T", i)], vec)))
    for k in range(1, n + 1):
        res.append(vsub(chain(space, [("c", k), ("c", k)], vec), vec))
        for l in range(k + 1, n + 1):
            res.append(vadd(chain(space, [("c", k), ("c", l)], vec),
                            chain(space, [("c", l), ("c", k)], vec)))
    return res


@pytest.mark.parametrize("n", [2, 3])
def test_relations_annihilate_every_basis_vector(n):
    sp = TensorSpace(m=n, n=n)
    for tup in sp.basis_tuples():
        for residual in _relation_residuals(sp, {tup: ONE}):
            assert not residual


def test_relations_annihilate_random_sparse_vectors_rank_four():
    rng = random.Random(41)
    sp = TensorSpace(m=4, n=4)
    for _ in range(50):
        vec = random_sparse(sp, rng)
        for residual in _relation_residuals(sp, vec):
            assert not residual


# -- weight traces --------------------------------------------------------------


def test_weight_trace_identity_rank_one():
    assert weight_trace(one(1), (1,), 1) == TWO


def test_weight_trace_coxeter_generator():
    got = weight_trace(from_word(2, ["T1"]), (1, 1), 2)
    assert got == TWO * TWO * (V - ONE)
    assert got.render() == "4*v-4"


def test_weight_trace_odd_element_vanishes():
    h = from_word(2, ["c1"])
    for mu in [(2, 0), (1, 1), (0, 2)]:
        assert weight_trace(h, mu, 2) == ZERO


def test_weight_trace_validation():
    with pytest.raises(ValueError):
        weight_trace(one(2), (1,), 2)  # wrong number of parts
    with pytest.raises(ValueError):
        weight_trace(one(2), (2, 1), 2)  # wrong total
    with pytest.raises(ValueError):
        weight_trace(one(2), (3, -1), 2)  # negative part


def test_weight_trace_matches_trace_poly_coefficient():
    h = build_T_w((2, 1))
    poly = trace_poly(h, 3)
    for mu in [(1, 1, 1), (2, 1, 0), (3, 0, 0), (0, 2, 1)]:
        key = tuple(sorted((e for e in mu if e), reverse=True))
        assert weight_trace(h, mu, 3) == poly.terms.get(key, ZERO)


# -- trace polynomials -----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trace_poly_on_class_elements_is_the_deformed_product(n):
    # single pass per partition; covers both the n-cycle statement and the
    # block-factorization statement at once
    for mu in enumerate_partitions(n):
        assert trace_poly(build_T_w(mu), n) == g_tilde(mu, n)


def test_trace_poly_coefficients_are_rational_and_real():
    for mu in enumerate_partitions(3):
        poly = trace_poly(build_T_w(mu), 3)
        for coeff in poly.terms.values():
            assert coeff.membership("Qv")
            assert coeff.membership("real")


def test_trace_poly_full_cycle_monomial_coefficients():
    # coefficient of m_mu in the n-cycle trace: Delta_mu * (v-1)^(len(mu)-1)
    poly = trace_poly(build_T_w((3,)), 3)
    for mu, coeff in poly.terms.items():
        expected = ONE
        for part in mu:
            expected = expected * delta(part)
        expected = expected * V1 ** (len(mu) - 1)
        assert coeff == expected


def test_trace_poly_validates_input():
    with pytest.raises(ValueError):
        trace_poly(one(2), 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_increasing_tuple_statistics(n):
    # closed combinatorial form of the n-cycle trace: sum over weakly
    # increasing tuples of v^f (-1)^g (v-1)^h x_|i1| ... x_|in|
    sp = TensorSpace(m=n, n=n)
    terms = {}
    for tup in itertools.combinations_with_replacement(sp.indices, n):
        f = sum(1 for a, b in zip(tup, tup[1:]) if a == b and a >= 1)
        g = sum(1 for a, b in zip(tup, tup[1:]) if a == b and a <= -1)
        h = sum(1 for a, b in zip(tup, tup[1:]) if a < b)
        coeff = V**f * MINUS_ONE**g * V1**h
        exp = sp.weight(tup)
        cur = terms.get(exp)
        terms[exp] = coeff if cur is None else cur + coeff
    assert SymPoly.from_exponents(n, n, terms) == trace_poly(build_T_w((n,)), n)


# -- the cross-validation gate ----------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_table_equals_direct_table(n):
    direct = character_table(n)
    oracle = oracle_characters(n)
    assert oracle.rows == direct.rows
    assert oracle.columns == direct.columns
    assert oracle.entries == direct.entries


def test_cross_check_report():
    report = cross_check(3)
    assert isinstance(report, OracleReport)
    assert report.passed and report.mismatch is None
