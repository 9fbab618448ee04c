import itertools
import random

import pytest

import _tensor_reference as ref
from _monomial_g_tilde import delta, g_tilde
from _orbits import from_exponents
from spinhecke import characters, symfunc, tensor_oracle
from spinhecke.combinatorics import enumerate_partitions, reduced_word
from spinhecke.hecke_clifford import build_T_w, from_word, one, parse_element
from spinhecke.scalars import HALF, I, MINUS_ONE, ONE, TWO, U, V, ZERO, _poly_add, sc_parse
from spinhecke.tensor_oracle import (
    TensorSpace,
    apply,
    cross_check,
    oracle_characters,
    trace_poly,
)
from spinhecke.characters import character_table
from spinhecke.traces import clear_caches

V1 = V - ONE


# -- sparse-vector helpers ----------------------------------------------------


def weight(space, tup):
    counts = [0] * space.m
    for idx in tup:
        counts[abs(idx) - 1] += 1
    return tuple(counts)


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
    assert len(list(sp.basis_tuples())) == 64


def test_space_validation():
    with pytest.raises(ValueError):
        TensorSpace(m=0, n=1)
    with pytest.raises(ValueError):
        TensorSpace(m=1, n=0)


# -- single-generator action ---------------------------------------------------


def test_exchange_on_equal_positive_pair():
    sp = TensorSpace(m=1, n=2)
    out = apply(sp, ("T", 1), {(1, 1): ONE})
    assert out == {(1, 1): V, (-1, -1): V1}


def test_exchange_on_equal_negative_pair():
    sp = TensorSpace(m=1, n=2)
    out = apply(sp, ("T", 1), {(-1, -1): ONE})
    assert out == {(-1, -1): MINUS_ONE}


def test_quarter_turn_on_single_factor():
    sp = TensorSpace(m=1, n=1)
    assert apply(sp, ("c", 1), {(1,): ONE}) == {(-1,): MINUS_ONE * I}
    assert apply(sp, ("c", 1), {(-1,): ONE}) == {(1,): I}


def test_generator_index_errors():
    sp = TensorSpace(m=2, n=2)
    with pytest.raises(ValueError):
        apply(sp, ("T", 2), {(1, 1): ONE})
    with pytest.raises(ValueError):
        apply(sp, ("c", 3), {(1, 1): ONE})
    with pytest.raises(ValueError):
        apply(sp, ("q", 1), {(1, 1): ONE})


def test_generators_preserve_weight():
    sp = TensorSpace(m=3, n=3)
    for tup in sp.basis_tuples():
        w = weight(sp, tup)
        for gen in (("T", 1), ("T", 2), ("c", 1), ("c", 2), ("c", 3)):
            for out_tup in apply(sp, gen, {tup: ONE}):
                assert weight(sp, out_tup) == w


# -- the int kernel against the Scalar reference --------------------------------

# 1/2 and 1/(1-v) head coefficient groups of their own, and so does i; u, v,
# 2 and -1 join the group of 1 as int tuples other than (1,)
_REFERENCE_POOL = [ONE, MINUS_ONE, V, TWO, HALF, I, U, sc_parse("1/(1-v)")]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_action_matches_the_scalar_reference(n):
    rng = random.Random(700 + n)
    sp = TensorSpace(m=min(n, 3), n=n)
    tuples = list(sp.basis_tuples())
    gens = [("T", j) for j in range(1, n)] + [("c", k) for k in range(1, n + 1)]
    for _ in range(12):
        size = rng.randint(1, min(4, len(tuples)))
        vec = {tup: rng.choice(_REFERENCE_POOL) for tup in rng.sample(tuples, size)}
        for gen in gens:
            assert apply(sp, gen, vec) == ref.apply(sp, gen, vec), (gen, vec)


def _compositions(n):
    for cuts in itertools.product((False, True), repeat=n - 1):
        gamma, part = [], 1
        for cut in cuts:
            if cut:
                gamma.append(part)
                part = 1
            else:
                part += 1
        yield tuple(gamma + [part])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_block_factored_traces_match_the_unfactored_transfer(n):
    for gamma in _compositions(n):
        h = build_T_w(gamma)
        want = {lam: ref._staircase_trace(gamma, lam) for lam in enumerate_partitions(n)}
        for m in range(1, n + 1):
            got = trace_poly(h, m).terms
            assert set(got) == {lam for lam in want if len(lam) <= m}, (gamma, m)
            for lam, value in got.items():
                assert value == want[lam], (gamma, m, lam)


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_normal_form_acts_like_its_word(n):
    # C_I T_sigma c_k is rewritten by the crossing relations into normal form;
    # on tensor space it must still act as its letters do, one at a time
    rng = random.Random(100 + n)
    sp = TensorSpace(m=n, n=n)
    tuples = list(sp.basis_tuples())
    for sigma in itertools.permutations(range(1, n + 1)):
        for k in range(1, n + 1):
            prefix = [("c", i) for i in range(1, n + 1) if rng.random() < 0.5]
            word = prefix + [("T", j) for j in reduced_word(sigma)] + [("c", k)]
            h = from_word(n, word)
            for tup in rng.sample(tuples, 8):
                assert ref.apply_element(sp, h, {tup: ONE}) == chain(sp, word, {tup: ONE})


# -- weight traces --------------------------------------------------------------


def _full_trace(h, m):
    """The reference: the diagonal of h on all (2m)^n tuples, keyed by weight
    and checked orbit by orbit."""
    space = TensorSpace(m=m, n=h.n)
    terms = {}
    for tup in space.basis_tuples():
        d = ref.apply_element(space, h, {tup: ONE}).get(tup, ZERO)
        exp = weight(space, tup)
        terms[exp] = terms.get(exp, ZERO) + d
    return from_exponents(m, h.n, terms)


# elements with Clifford letters, one with non-real coefficients; c1 c2 T_{w0}
# is taken at n = 3 because its full-orbit reference at n = 4 takes over a minute
_CLIFFORD_ELEMENTS = {
    3: ["c1 c2 T1 T2 T1"],
    4: ["u * c1 c3 T2 + i * c2 c4 T1 T3 + 2"],
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dominant_weights_match_the_full_orbit_trace(n):
    elements = [build_T_w(mu) for mu in enumerate_partitions(n)]
    elements += [parse_element(n, text) for text in _CLIFFORD_ELEMENTS.get(n, [])]
    for h in elements:
        for m in range(1, n + 2):
            assert trace_poly(h, m) == _full_trace(h, m), (h.render(), m)


def test_weight_trace_identity_rank_one():
    assert trace_poly(one(1), 1).terms == {(1,): TWO}


def test_weight_trace_coxeter_generator():
    got = trace_poly(from_word(2, [("T", 1)]), 2).terms[(1, 1)]
    assert got == TWO * TWO * (V - ONE)
    assert got.render() == "4*v-4"


def test_weight_trace_odd_element_vanishes():
    assert trace_poly(from_word(2, [("c", 1)]), 2).is_zero()


def test_weight_trace_matches_trace_poly_coefficient():
    # the trace on a block of any weight, dominant or not, is the coefficient
    # of its sorted weight
    h = build_T_w((2, 1))
    space = TensorSpace(m=3, n=3)
    poly = trace_poly(h, 3)
    for mu in [(1, 1, 1), (2, 1, 0), (3, 0, 0), (0, 2, 1)]:
        block = [tup for tup in space.basis_tuples() if weight(space, tup) == mu]
        got = sum((ref.apply_element(space, h, {t: ONE}).get(t, ZERO) for t in block), ZERO)
        key = tuple(sorted((e for e in mu if e), reverse=True))
        assert got == poly.terms.get(key, ZERO)


def _dominant_block(lam):
    """Every signed tuple of weight lam, listed without the oracle's help."""
    values = [k for k, part in enumerate(lam, start=1) for _ in range(part)]
    for arrangement in set(itertools.permutations(values)):
        for signs in itertools.product((1, -1), repeat=len(values)):
            yield tuple(s * a for s, a in zip(signs, arrangement))


@pytest.mark.parametrize("gamma", enumerate_partitions(5) + [(2, 1, 2), (1, 3, 1)], ids=str)
def test_chain_transfer_matches_the_per_tuple_trace(gamma):
    # staircase traces never act on a tuple; check each m_lambda coefficient
    # against the diagonal of the action summed over the dominant block
    h = build_T_w(gamma)
    space = TensorSpace(m=5, n=5)
    poly = trace_poly(h, 5)
    for lam in enumerate_partitions(5):
        got = sum(
            (ref.apply_element(space, h, {t: ONE}).get(t, ZERO) for t in _dominant_block(lam)),
            ZERO,
        )
        assert got == poly.terms.get(lam, ZERO), (gamma, lam)


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


def test_odd_terms_trace_to_zero_without_the_per_tuple_sweep(monkeypatch):
    # every term of c1 T1 T2 T3 T4 has one Clifford letter, and an odd term
    # has no diagonal entry: no weight block is listed for it
    def no_sweep(lam):
        raise AssertionError(f"swept the block of weight {lam}")

    monkeypatch.setattr(tensor_oracle, "_weight_block", no_sweep)
    h = from_word(5, ["c1", "T1", "T2", "T3", "T4"])
    assert {len(I) % 2 for _, I in h.terms} == {1}
    poly = trace_poly(h, 5)
    assert all(coeff.is_zero() for coeff in poly.terms.values())


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
        exp = weight(sp, tup)
        cur = terms.get(exp)
        terms[exp] = coeff if cur is None else cur + coeff
    assert from_exponents(n, n, terms) == trace_poly(build_T_w((n,)), n)


# -- the cross-validation gate ----------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_oracle_table_equals_direct_table(n):
    direct = character_table(n)
    oracle = oracle_characters(n)
    assert oracle.rows == direct.rows
    assert oracle.columns == direct.columns
    assert oracle.entries == direct.entries


def test_oracle_table_builds_its_q_basis_once(monkeypatch):
    # every column is expanded against one cached Q basis of degree n
    exact = symfunc.q_basis
    calls = []

    def counted(n, m):
        calls.append((n, m))
        return exact(n, m)

    monkeypatch.setattr(symfunc, "q_basis", counted)
    clear_caches()
    oracle_characters(5)
    assert calls == [(5, 5)]
    oracle_characters(5)
    assert calls == [(5, 5)]


def test_cross_check_reaches_rank_nine():
    assert cross_check(9) == ""


def test_cross_check_report(monkeypatch):
    # the last entry of the symfunc table, bumped, is the one mismatch: every
    # entry is compared, and the text names it with both values
    assert cross_check(3) == ""
    table = {nu: dict(column) for nu, column in characters._table_ints(3).items()}
    table[(1, 1, 1)][(2, 1)] = _poly_add(table[(1, 1, 1)][(2, 1)], (1,))
    monkeypatch.setattr(characters, "_table_ints", lambda n: table)
    assert cross_check(3) == "lambda=2,1 nu=1,1,1: table=5 oracle=4"
