import hashlib
import json
from fractions import Fraction
from math import factorial

import pytest

from spinhecke._linalg import column_rank
from spinhecke.characters import (
    CharacterTable,
    character_table,
    character_value,
    generic_degree,
    poincare,
    schur_element,
    u_weight,
    verify_gimel_decomposition,
)
from spinhecke.combinatorics import (
    delta_stat,
    enumerate_partitions,
    shifted_data,
)
from spinhecke.hecke_clifford import build_T_w, from_word, one
from spinhecke.scalars import MINUS_ONE, ONE, Scalar, TWO, V, ZERO, sc_int
from spinhecke.symfunc import expand_in_Q, g_tilde, monomial
from spinhecke.traces import gimel


def _is_v_polynomial(s: Scalar) -> bool:
    if not s.den.is_one():
        return False
    return all(e >= 0 and e % 2 == 0 for e in s.num.coeffs)


# -- the table itself -------------------------------------------------------


def test_table_n2_is_the_single_value_four():
    t = character_table(2)
    assert t.rows == ((2,),)
    assert t.columns == ((1, 1),)
    assert t.entry((2,), (1, 1)) == sc_int(4)


def test_table_n3_pinned_column():
    t = character_table(3)
    assert t.rows == ((3,), (2, 1))
    assert t.columns == ((3,), (1, 1, 1))
    assert t.entry((3,), (3,)) == TWO * (V**2 - V + ONE)
    assert t.entry((2, 1), (3,)) == MINUS_ONE * TWO * V
    assert t.entry((3,), (1, 1, 1)) == sc_int(8)
    assert t.entry((2, 1), (1, 1, 1)) == sc_int(4)


@pytest.mark.parametrize("n", range(1, 7))
def test_table_is_invertible(n):
    t = character_table(n)
    rows = [[t.entry(lam, nu) for nu in t.columns] for lam in t.rows]
    assert len(t.rows) == len(t.columns)
    assert column_rank(rows) == len(t.columns)


@pytest.mark.parametrize("n", range(1, 6))
def test_entries_live_in_Qv_and_are_real(n):
    t = character_table(n)
    for val in t.entries.values():
        assert val.membership("Qv")
        assert val.membership("real")


@pytest.mark.parametrize("n", range(1, 7))
def test_identity_column_is_constant_positive_even(n):
    t = character_table(n)
    ones = (1,) * n
    for lam in t.rows:
        val = t.entry(lam, ones)
        spec = val.specialize(1)
        assert val == Scalar.from_rational(spec.re)  # constant
        assert spec.im == 0
        assert spec.re.denominator == 1
        assert spec.re > 0 and spec.re % 2 == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_table_at_v_equals_one_matches_doubled_power_sums(n):
    # at v = 1 the column generator degenerates to a product of 2*p_r factors
    t = character_table(n)
    for nu in t.columns:
        f = monomial((nu[0],), n)
        for part in nu[1:]:
            f = f * monomial((part,), n)
        f = f.scale(TWO ** len(nu))
        coeffs = expand_in_Q(f)
        for lam in t.rows:
            power = (len(lam) + delta_stat(lam)) // 2
            expected = (TWO**power * coeffs.get(lam, ZERO)).specialize(1)
            assert t.entry(lam, nu).specialize(1) == expected


def test_cache_returns_identical_object():
    assert character_table(3) is character_table(3)


def test_bad_rank_rejected():
    with pytest.raises(ValueError):
        character_table(0)


# -- values on arbitrary elements -------------------------------------------


def test_value_on_T1_at_rank_two():
    h = from_word(2, ["T1"])
    assert character_value((2,), h) == TWO * (V - ONE)


def test_value_at_identity_matches_table_column():
    for n in (2, 3, 4):
        t = character_table(n)
        for lam in t.rows:
            assert character_value(lam, one(n)) == t.entry(lam, (1,) * n)


@pytest.mark.parametrize("n", [3, 4])
def test_values_on_non_odd_classes_match_direct_expansion(n):
    # the class-polynomial route and the symmetric-function route agree on
    # any T_w_mu, not only on the odd ones used to build the table
    for mu in enumerate_partitions(n):
        h = build_T_w(mu)
        coeffs = expand_in_Q(g_tilde(mu, n))
        for lam in enumerate_partitions(n, "strict"):
            power = (len(lam) + delta_stat(lam)) // 2
            assert character_value(lam, h) == TWO**power * coeffs.get(lam, ZERO)


# -- Schur elements, Poincare series, degrees --------------------------------


def test_poincare_small():
    assert poincare(1) == ONE
    assert poincare(2) == V + ONE
    assert poincare(2).render() == "v+1"


def test_schur_element_pinned():
    assert schur_element((2,)) == TWO
    assert schur_element((3,)) == sc_int(4) * (V**2 + V + ONE) / (V**2 + ONE)
    assert schur_element((2, 1)) == sc_int(4) * (V**2 + V + ONE) / V


def test_generic_degree_pinned():
    assert generic_degree((2,)).render() == "2*v+2"
    assert generic_degree((1,)) == TWO


def test_u_weight_pinned():
    assert u_weight((2,)).render() == "1/4"
    # one = gimel(1) = sum of u_lambda zeta^lambda(1); spot-check at n = 3
    total = ZERO
    for lam in enumerate_partitions(3, "strict"):
        total = total + u_weight(lam) * character_table(3).entry(lam, (1, 1, 1))
    assert total == ONE


def _poincare_product(n):
    num = ONE
    for k in range(1, n + 1):
        num = num * (ONE - Scalar.v_power(k))
    return num / (ONE - V) ** n


def _hook_content_product(lam):
    """c^lambda multiplied out in plain Scalar arithmetic, every step
    cancelled by polynomial gcd: the route the cyclotomic form replaced."""
    n = sum(lam)
    data = shifted_data(lam)
    num = TWO ** (n + (len(lam) - data.delta) // 2)
    for h in data.all_hooks():
        num = num * (ONE - Scalar.v_power(h))
    den = Scalar.v_power(data.n_stat) * (ONE - V) ** n
    for c in data.all_contents():
        den = den * (ONE + Scalar.v_power(c))
    return num / den


@pytest.mark.parametrize("n", range(1, 10))
def test_cyclotomic_form_matches_hook_content_products(n):
    p_n = _poincare_product(n)
    pairs = [(poincare(n), p_n)]
    for lam in enumerate_partitions(n, "strict"):
        c = _hook_content_product(lam)
        pairs += [
            (schur_element(lam), c),
            (generic_degree(lam), TWO**n * p_n / c),
            (u_weight(lam), ONE / (TWO ** delta_stat(lam) * c)),
        ]
    for got, want in pairs:
        assert (got.num, got.den) == (want.num, want.den)
        # the values are built with _canonical=True; the full constructor
        # must find nothing left to cancel or normalize
        rebuilt = Scalar(got.num, got.den)
        assert (rebuilt.num, rebuilt.den) == (got.num, got.den)


@pytest.mark.parametrize("n", range(1, 7))
def test_generic_degrees_are_polynomials(n):
    for lam in enumerate_partitions(n, "strict"):
        assert _is_v_polynomial(generic_degree(lam))


@pytest.mark.parametrize("n", range(1, 7))
def test_degree_at_one_closed_form(n):
    for lam in enumerate_partitions(n, "strict"):
        data = shifted_data(lam)
        hooks = 1
        for h in data.all_hooks():
            hooks *= h
        expected = Fraction(
            2 ** (n - (len(lam) - data.delta) // 2) * factorial(n), hooks
        )
        got = generic_degree(lam).specialize(1)
        assert got.im == 0 and got.re == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_wedderburn_dimension_count(n):
    total = Fraction(0)
    for lam in enumerate_partitions(n, "strict"):
        d1 = generic_degree(lam).specialize(1).re
        total += d1 * d1 / 2 ** delta_stat(lam)
    assert total == 2**n * factorial(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_character_degree_equals_generic_degree_at_one(n):
    t = character_table(n)
    for lam in t.rows:
        zeta1 = t.entry(lam, (1,) * n).specialize(1)
        assert zeta1 == generic_degree(lam).specialize(1)


# -- the trace decomposition -------------------------------------------------


@pytest.mark.parametrize("n", range(1, 6))
def test_gimel_decomposition_verifies(n):
    report = verify_gimel_decomposition(n)
    assert report.passed, report.counterexample
    assert report.counterexample is None
    assert report.checked == len(enumerate_partitions(n))


def test_decomposition_on_a_mixed_element():
    # not part of the verification sweep: a random-ish non-class element
    h = from_word(3, ["T1", "T2", "T1"]) + from_word(3, ["T2"]).scale(V)
    lhs = gimel(h)
    rhs = ZERO
    for lam in enumerate_partitions(3, "strict"):
        rhs = rhs + u_weight(lam) * character_value(lam, h)
    assert lhs == rhs


# -- emitters ----------------------------------------------------------------


def test_json_shape_n2():
    payload = json.loads(character_table(2).to_json())
    assert payload == {"n": 2, "rows": [{"lambda": "2", "values": {"1,1": "4"}}]}


def test_json_orders_n4():
    payload = json.loads(character_table(4).to_json())
    assert [r["lambda"] for r in payload["rows"]] == ["4", "3,1"]
    assert list(payload["rows"][0]["values"]) == ["3,1", "1,1,1,1"]


# sha256 of to_json(); n <= 6 captured with the Gaussian-elimination solver
# that preceded the triangular back-substitution, n = 7, 8 with SymPoly still
# stored on full exponent vectors
_TABLE_DIGESTS = {
    1: "c067ac8043cdc3701fab2d16c132bb83ccef3ec5ce5a2fb7b05878a6b40a2843",
    2: "ae73c32663dc39350d219768c7203a7a33fd7c69d128d895c7c233c6e339fd90",
    3: "970feb1202fa5103a0397ad8ac121fcd07a040ae867165ccd2cd5cf43c3ea599",
    4: "646e0f3e17232c3baf9b72d3641d5e6a5c5dfdee2d20ec265c54a3ad3127b88a",
    5: "85b5276da4b72d5f53149f599b7fcae8718b925196f843fe0ac3a7baddb4b2ef",
    6: "ea2232cf1596d7d7aa5b4ddf6b1d8b2e8e795e08bf15deb606eb51b2d4ac06a7",
    7: "b38527a6185d3080a9a5dfb6c7711b85cae61ab8aa7d1e2eceaf8f0eac502a7c",
    8: "7c74af34345a91779c46ba86eaed3e1fcbed43f78c14921fcc92c51c9c84c55f",
}


@pytest.mark.parametrize("n", sorted(_TABLE_DIGESTS))
def test_table_json_digest_pinned(n):
    text = character_table(n).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == _TABLE_DIGESTS[n]


def test_csv_n3_exact():
    text = character_table(3).to_csv()
    lines = text.splitlines()
    assert lines[0] == 'lambda,3,"1,1,1"'
    assert lines[1] == "3,2*v^2-2*v+2,8"
    assert lines[2] == '"2,1",-2*v,4'


def test_latex_n3():
    text = character_table(3).to_latex()
    assert text.startswith("\\begin{tabular}{l|cc}")
    assert "$3$ & 2*v^2-2*v+2 & 8 \\\\" in text
    assert text.endswith("\\end{tabular}")


def test_table_is_immutable():
    t = character_table(2)
    assert isinstance(t, CharacterTable)
    with pytest.raises(AttributeError):
        t.n = 5
