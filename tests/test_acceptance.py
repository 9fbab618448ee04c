"""Acceptance gate: one test per shipped guarantee, self-contained.

Run `pytest -v tests/test_acceptance.py` to get exactly one pass/fail line per
criterion.  Stated runtime budgets are asserted, not just hoped for.
"""

import itertools
import random
import time
from fractions import Fraction
from math import factorial

from spinhecke._linalg import column_rank
from spinhecke.characters import (
    character_table,
    generic_degree,
    verify_gimel_decomposition,
)
from spinhecke.cli import run
from spinhecke.combinatorics import (
    delta_stat,
    enumerate_partitions,
    reduced_word,
    shifted_data,
)
from spinhecke.hecke_clifford import T_gen, build_T_w, c_gen, from_word, multiply, one
from spinhecke.scalars import MINUS_ONE, ONE, Scalar, TWO, V, V_MINUS_1, ZERO, half
from spinhecke.spin_hecke import (
    R_element,
    canonical_class_word,
    gimel_minus,
    spin_schur_elements,
    verify_trace_vanishing,
)
from spinhecke.symfunc import (
    principal_specialization_Q,
    principal_specialization_g_tilde,
    schur_q,
)
from spinhecke.tensor_oracle import TensorSpace, apply, oracle_characters
from spinhecke.traces import gimel, gimel_weight, reduce


def _random_basis_term(n, rng):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    cliff = [k for k in range(1, n + 1) if rng.random() < 0.5]
    element = from_word(n, [f"c{k}" for k in cliff])
    for j in reduced_word(tuple(perm)):
        element = multiply(element, T_gen(n, j))
    return element


def test_criterion_1_spin_trace_example_under_ten_seconds(capsys):
    started = time.monotonic()
    code = run(["gimel", "--n", "4", "--spin", "--word", "2,1,3,2,3,1"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    expected = (MINUS_ONE * V_MINUS_1**4 * (V**2 + ONE)).render()
    assert code == 0
    assert out == expected + "\n"
    assert out == "-v^6+4*v^5-7*v^4+8*v^3-7*v^2+4*v-1\n"
    assert elapsed < 10.0


def test_criterion_2_character_table_matches_tensor_oracle():
    started = time.monotonic()
    for n in (2, 3, 4):
        direct = character_table(n)
        oracle = oracle_characters(n)
        assert oracle.rows == direct.rows and oracle.columns == direct.columns
        for key, val in direct.entries.items():
            assert oracle.entries[key] == val, key
    assert time.monotonic() - started < 300.0


def test_criterion_3_class_polynomials_are_trace_functions():
    for n in (1, 2, 3, 4):
        rng = random.Random(100 + n)
        for _ in range(100):
            a = _random_basis_term(n, rng)
            b = _random_basis_term(n, rng)
            assert reduce(multiply(a, b)) == reduce(multiply(b, a))
    # ring membership on the full basis through n = 3
    for n in (1, 2, 3):
        for perm in itertools.permutations(range(1, n + 1)):
            for subset in itertools.chain.from_iterable(
                itertools.combinations(range(1, n + 1), r) for r in range(n + 1)
            ):
                element = from_word(n, [f"c{k}" for k in subset])
                for j in reduced_word(perm):
                    element = multiply(element, T_gen(n, j))
                for val in reduce(element).coeffs.values():
                    assert val.membership("A")


def test_criterion_4_gimel_closed_form_all_classes_through_rank_six():
    started = time.monotonic()
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            assert gimel(build_T_w(mu)) == gimel_weight(n, mu), (n, mu)
    assert time.monotonic() - started < 120.0


def test_criterion_5_trace_decomposition_and_specialization():
    for n in range(1, 6):
        assert verify_gimel_decomposition(n) == ""
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            closed = (
                TWO ** len(mu)
                * MINUS_ONE**n
                / V_MINUS_1 ** len(mu)
            )
            assert principal_specialization_g_tilde(mu) == closed, (n, mu)


def test_criterion_6_generic_degrees_polynomial_dimension_wedderburn():
    for n in range(1, 7):
        total = Fraction(0)
        for lam in enumerate_partitions(n, "strict"):
            degree = generic_degree(lam)
            assert degree.den.is_one()
            assert all(e >= 0 and e % 2 == 0 for e in degree.num.coeffs)
            data = shifted_data(lam)
            hooks = 1
            for h in data.all_hooks():
                hooks *= h
            at_one = degree.specialize(1)
            assert at_one.im == 0
            expected = Fraction(
                2 ** (n - (len(lam) - data.delta) // 2) * factorial(n), hooks
            )
            assert at_one.re == expected
            total += Fraction(at_one.re * at_one.re, 2 ** delta_stat(lam))
        assert total == 2**n * factorial(n)


def test_criterion_7_principal_specialization_truncation():
    m = 12
    point = [Scalar.v_power(i) for i in range(m)]
    for n in range(1, 6):
        for lam in enumerate_partitions(n, "strict"):
            finite = schur_q(lam, m).specialize(point)
            diff = principal_specialization_Q(lam) - finite
            if not diff.is_zero():
                # u-exponents are twice v-degrees; valuation beyond m - n
                assert min(diff.num.coeffs) - min(diff.den.coeffs, default=0) > 2 * (
                    m - n
                ), lam


def test_criterion_8_spin_layer():
    for n in range(1, 6):
        for nu in enumerate_partitions(n, "odd"):
            value = gimel_minus(canonical_class_word(nu), n)
            assert value == (ONE if nu == (1,) * n else ZERO), (n, nu)
        assert verify_trace_vanishing(n) == ""
    for n in range(1, 5):
        spin_schur_elements(n)  # raises on any halving mismatch
    for n in range(1, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        images = [R_element(reduced_word(p), n) for p in perms]
        keys = sorted({key for img in images for key in img.terms})
        rows = [[img.terms.get(key, ZERO) for key in keys] for img in images]
        assert column_rank(rows) == factorial(n)


def _vsub(a, b):
    out = dict(a)
    for key, c in b.items():
        cur = out.get(key)
        val = -c if cur is None else cur - c
        if val.is_zero():
            out.pop(key, None)
        else:
            out[key] = val
    return out


def _vscale(a, s):
    return {k: c * s for k, c in a.items()}


def _tensor_R(space, i, vec):
    # the embedded odd generator, assembled from raw generator actions only
    t = apply(space, ("T", i), vec)
    out = _vsub(apply(space, ("c", i), t), apply(space, ("c", i + 1), t))
    return _vsub(out, _vscale(apply(space, ("c", i + 1), vec), MINUS_ONE * V_MINUS_1))


def test_criterion_9_relations_hold_both_ways_under_a_minute():
    started = time.monotonic()
    # normal-form side: every defining relation, including the odd-generator ones
    for n in (2, 3, 4):
        for i in range(1, n):
            t = T_gen(n, i)
            assert multiply(t, t) == t.scale(V_MINUS_1) + one(n).scale(V)
            assert multiply(t, c_gen(n, i)) == multiply(c_gen(n, i + 1), t)
            assert multiply(t, c_gen(n, i + 1)) == multiply(c_gen(n, i), t) + (
                c_gen(n, i + 1) - c_gen(n, i)
            ).scale(V_MINUS_1)
            for k in range(1, n + 1):
                if k not in (i, i + 1):
                    assert multiply(t, c_gen(n, k)) == multiply(c_gen(n, k), t)
        for i in range(1, n - 1):
            assert multiply(multiply(T_gen(n, i), T_gen(n, i + 1)), T_gen(n, i)) == (
                multiply(multiply(T_gen(n, i + 1), T_gen(n, i)), T_gen(n, i + 1))
            )
        for i in range(1, n):
            for j in range(i + 2, n):
                assert multiply(T_gen(n, i), T_gen(n, j)) == multiply(
                    T_gen(n, j), T_gen(n, i)
                )
        for k in range(1, n + 1):
            assert multiply(c_gen(n, k), c_gen(n, k)) == one(n)
            for l in range(k + 1, n + 1):
                assert multiply(c_gen(n, k), c_gen(n, l)) == multiply(
                    c_gen(n, l), c_gen(n, k)
                ).scale(MINUS_ONE)
        r = {i: R_element([i], n) for i in range(1, n)}
        for i in range(1, n):
            assert multiply(r[i], r[i]) == one(n).scale(-(V**2 + ONE))
        for i in range(1, n - 1):
            lhs = multiply(multiply(r[i], r[i + 1]), r[i]) - multiply(
                multiply(r[i + 1], r[i]), r[i + 1]
            )
            assert lhs == (r[i + 1] - r[i]).scale(V_MINUS_1 * V_MINUS_1)
        for i in range(1, n):
            for j in range(i + 2, n):
                assert (multiply(r[i], r[j]) + multiply(r[j], r[i])).is_zero()
    # tensor side: the same relations as residuals on random sparse vectors
    for n in (2, 3, 4):
        space = TensorSpace(m=n, n=n)
        rng = random.Random(900 + n)
        tuples = list(space.basis_tuples())
        pool = [ONE, MINUS_ONE, V, TWO, half(ONE)]
        for _ in range(10):
            vec = {tup: rng.choice(pool) for tup in rng.sample(tuples, 3)}
            for i in range(1, n):
                ti = lambda w, i=i: apply(space, ("T", i), w)
                ci = lambda w, k: apply(space, ("c", k), w)
                assert not _vsub(
                    ti(ti(vec)), _vsub(_vscale(ti(vec), V_MINUS_1), _vscale(vec, -V))
                )
                assert not _vsub(ti(ci(vec, i)), ci(ti(vec), i + 1))
                lhs = ti(ci(vec, i + 1))
                rhs = ci(ti(vec), i)
                corr = _vscale(_vsub(ci(vec, i + 1), ci(vec, i)), V_MINUS_1)
                assert not _vsub(lhs, _vsub(rhs, _vscale(corr, MINUS_ONE)))
                for k in range(1, n + 1):
                    if k not in (i, i + 1):
                        assert not _vsub(ti(ci(vec, k)), ci(ti(vec), k))
            for i in range(1, n - 1):
                lhs = apply(space, ("T", i), apply(space, ("T", i + 1), apply(space, ("T", i), vec)))
                rhs = apply(space, ("T", i + 1), apply(space, ("T", i), apply(space, ("T", i + 1), vec)))
                assert not _vsub(lhs, rhs)
            for k in range(1, n + 1):
                assert not _vsub(apply(space, ("c", k), apply(space, ("c", k), vec)), vec)
                for l in range(k + 1, n + 1):
                    lhs = apply(space, ("c", k), apply(space, ("c", l), vec))
                    rhs = apply(space, ("c", l), apply(space, ("c", k), vec))
                    assert not _vsub(lhs, _vscale(rhs, MINUS_ONE))
            for i in range(1, n):
                assert not _vsub(
                    _tensor_R(space, i, _tensor_R(space, i, vec)),
                    _vscale(vec, -(V**2 + ONE)),
                )
            for i in range(1, n - 1):
                lhs = _vsub(
                    _tensor_R(space, i, _tensor_R(space, i + 1, _tensor_R(space, i, vec))),
                    _tensor_R(space, i + 1, _tensor_R(space, i, _tensor_R(space, i + 1, vec))),
                )
                rhs = _vscale(
                    _vsub(_tensor_R(space, i + 1, vec), _tensor_R(space, i, vec)),
                    V_MINUS_1 * V_MINUS_1,
                )
                assert not _vsub(lhs, rhs)
            for i in range(1, n):
                for j in range(i + 2, n):
                    anti = _vsub(
                        _tensor_R(space, i, _tensor_R(space, j, vec)),
                        _vscale(_tensor_R(space, j, _tensor_R(space, i, vec)), MINUS_ONE),
                    )
                    assert not anti
    assert time.monotonic() - started < 60.0
