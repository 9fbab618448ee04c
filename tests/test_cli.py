import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import spinhecke
from spinhecke import characters, hecke_clifford, spin_hecke, tensor_oracle, traces
from spinhecke.cli import run
from spinhecke.scalars import MINUS_ONE, ONE, _poly_add


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- happy paths --------------------------------------------------------------


def test_gimel_spin_word(capsys):
    code, out, _ = invoke(capsys, "gimel", "--n", "4", "--spin", "--word", "2,1,3,2,3,1")
    assert code == 0
    assert out == "-v^6+4*v^5-7*v^4+8*v^3-7*v^2+4*v-1\n"


def test_gimel_element(capsys):
    code, out, _ = invoke(capsys, "gimel", "--n", "2", "--element", "T1")
    assert code == 0
    assert out == "(v-1)/2\n"


def test_generic_degrees(capsys):
    code, out, _ = invoke(capsys, "generic-degrees", "--n", "2")
    assert code == 0
    assert out == '{"2": "2*v+2"}\n'


def test_class_poly(capsys):
    code, out, _ = invoke(capsys, "class-poly", "--n", "2", "--element", "T1")
    assert code == 0
    assert out == '{"1,1": "(v-1)/2"}\n'


def test_element_with_leading_minus(capsys):
    # a separate value that starts with '-' is the element, as with '='
    for separate in (["--element", "-T1"], ["--element=-T1"]):
        code, out, _ = invoke(capsys, "class-poly", "--n", "2", *separate)
        assert code == 0
        assert out == '{"1,1": "(-v+1)/2"}\n'
        code, out, _ = invoke(capsys, "gimel", "--n", "2", *separate)
        assert code == 0
        assert out == "(-v+1)/2\n"


def test_spin_class_poly(capsys):
    code, out, _ = invoke(capsys, "spin-class-poly", "--n", "2", "--word", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["1,1"] == "-v^2-1"


def test_char_table_json(capsys):
    code, out, _ = invoke(capsys, "char-table", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["rows"][0]["lambda"] == "3"
    assert payload["rows"][1]["values"]["3"] == "-2*v"


def test_char_table_csv(capsys):
    code, out, _ = invoke(capsys, "char-table", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == 'lambda,3,"1,1,1"'


def test_char_table_latex(capsys):
    code, out, _ = invoke(capsys, "char-table", "--n", "2", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    assert "\\end{tabular}" in out


def test_schur_elements(capsys):
    code, out, _ = invoke(capsys, "schur-elements", "--n", "3")
    assert code == 0
    assert json.loads(out) == {
        "3": "(4*v^2+4*v+4)/(v^2+1)",
        "2,1": "(4*v^2+4*v+4)/v",
    }


def test_schur_elements_spin(capsys):
    code, out, _ = invoke(capsys, "schur-elements", "--n", "2", "--spin")
    assert code == 0
    assert json.loads(out) == {"2": "1"}


@pytest.mark.parametrize("suite", ["core", "oracle", "spin", "all"])
def test_verify_suites_pass(capsys, suite):
    code, out, _ = invoke(capsys, "verify", "--n", "3", "--suite", suite)
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_oracle_suite_catches_a_missing_sign_crossing(capsys, monkeypatch):
    # c_k without its sign over the odd factors before k still squares to 1
    # and leaves the T quadratic relation alone; the Clifford relations must
    # catch it
    def no_crossing(vec, k):
        pos = k - 1
        return {
            tup[:pos] + (-tup[pos],) + tup[pos + 1 :]: tuple(-a for a in p) if tup[pos] > 0 else p
            for tup, p in vec.items()
        }

    monkeypatch.setattr(tensor_oracle, "_c_ints", no_crossing)
    code, out, _ = invoke(capsys, "verify", "--n", "3", "--suite", "oracle")
    assert code == 1
    assert "ok - character table cross-check" in out
    (line,) = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert line.startswith("FAIL - tensor relations on random vectors: ")
    assert line.endswith(" leaked") and "quadratic" not in line


def test_oracle_suite_catches_a_broken_exchange_coefficient(capsys, monkeypatch):
    # e_1 (x) e_-1 -> -e_-1 (x) e_1: no diagonal entry of a staircase sees
    # the flipped sign, so the cross-check still passes; the braid relation
    # must catch it
    exact = tensor_oracle._exchange

    def broken(k, l):
        if (k, l) == (1, -1):
            return (((-1, 1), (-1,)),)
        return exact(k, l)

    monkeypatch.setattr(tensor_oracle, "_exchange", broken)
    code, out, _ = invoke(capsys, "verify", "--n", "3", "--suite", "oracle")
    assert code == 1
    assert "ok - character table cross-check" in out
    (line,) = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert line == "FAIL - tensor relations on random vectors: braid 1 leaked"


@pytest.mark.parametrize(
    "suite, line",
    [
        ("core", "FAIL - normal-form relations: T1 c3 anticommute"),
        ("oracle", "FAIL - tensor relations on random vectors: T1 c3 anticommute leaked"),
    ],
    ids=["core", "oracle"],
)
def test_relation_suites_read_the_shared_list(capsys, monkeypatch, suite, line):
    # T1 c3 = -c3 T1 is false; both realizations must be checked against it
    # and name it
    exact = hecke_clifford.relations

    def with_a_false_one(n):
        false = ("T1 c3 anticommute", (("T", 1), ("c", 3)), [(MINUS_ONE, (("c", 3), ("T", 1)))])
        return exact(n) + [false]

    monkeypatch.setattr(hecke_clifford, "relations", with_a_false_one)
    monkeypatch.setattr(tensor_oracle, "relations", with_a_false_one)
    code, out, _ = invoke(capsys, "verify", "--n", "3", "--suite", suite)
    assert code == 1
    assert [text for text in out.splitlines() if text.startswith("FAIL")] == [line]


def test_oracle_suite_reads_the_relation_list_once(capsys, monkeypatch):
    # the ten random vectors are checked against one list, converted once
    exact = hecke_clifford.relations
    calls = []

    def counted(n):
        calls.append(n)
        return exact(n)

    monkeypatch.setattr(tensor_oracle, "relations", counted)
    code, out, _ = invoke(capsys, "verify", "--n", "4", "--suite", "oracle")
    assert code == 0, out
    assert calls == [4]


def test_spin_suite_rechecks_the_closed_form(capsys, monkeypatch):
    # a closed form off by a sign at p = 3 must fail the recheck against the
    # reduction, naming p
    exact = spin_hecke._cycle_vector

    def wrong(p):
        vec = exact(p)
        return {nu: [-c for c in coeff] for nu, coeff in vec.items()} if p == 3 else vec

    monkeypatch.setattr(spin_hecke, "_cycle_vector", wrong)
    code, out, _ = invoke(capsys, "verify", "--n", "4", "--suite", "spin")
    assert code == 1
    assert "FAIL - spin closed-form cycle vectors: differs from the reduction at p=3" in out


def test_spin_suite_reports_a_failed_certificate(capsys, monkeypatch):
    # one altered entry of the ordinary int table, which the certificate of
    # the spin Schur elements reads through the class words, must fail it,
    # and the suite must report it
    table = {nu: dict(column) for nu, column in characters._table_ints(4).items()}
    table[(3, 1)][(4,)] = _poly_add(table[(3, 1)].get((4,), ()), (1,))
    monkeypatch.setattr(characters, "_table_ints", lambda n: table)
    code, out, _ = invoke(capsys, "verify", "--n", "4", "--suite", "spin")
    assert code == 1
    (line,) = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert line.startswith("FAIL - spin Schur halving: ")
    assert line.endswith("on the class word of 3,1")


def test_core_suite_reports_a_failed_gimel_decomposition(capsys, monkeypatch):
    # one altered entry of the ordinary int table must fail the certificate
    # of the trace decomposition, and the suite must name the column
    table = {nu: dict(column) for nu, column in characters._table_ints(5).items()}
    table[(3, 1, 1)][(5,)] = _poly_add(table[(3, 1, 1)].get((5,), ()), (1,))
    monkeypatch.setattr(characters, "_table_ints", lambda n: table)
    code, out, _ = invoke(capsys, "verify", "--n", "5", "--suite", "core")
    assert code == 1
    (line,) = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert line.startswith("FAIL - gimel decomposition: T_w_nu for nu=3,1,1: ")


def test_core_suite_names_the_class_a_closed_form_misses(capsys, monkeypatch):
    # a trace planted wrong on the last class, 1^3, must fail the closed
    # form there; gimel_weight stays exact, since gimel reads it too
    exact = traces.gimel
    last = hecke_clifford.build_T_w((1, 1, 1))
    monkeypatch.setattr(traces, "gimel", lambda h: exact(h) + ONE if h == last else exact(h))
    code, out, _ = invoke(capsys, "verify", "--n", "3", "--suite", "core")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL - gimel closed form on all classes: "
        "T_w_mu for mu=1,1,1: gimel != ((v-1)/2)^(n-len(mu))"
    ]


def test_verify_output_is_deterministic(capsys):
    first = invoke(capsys, "verify", "--n", "2", "--suite", "core", "--seed", "5")
    second = invoke(capsys, "verify", "--n", "2", "--suite", "core", "--seed", "5")
    assert first == second


# sha256 of stdout, captured with the hook-content products multiplied out
# term by term and cancelled by polynomial gcd (before the cyclotomic form)
_DEGREE_DIGESTS = {
    "generic-degrees --n 1": "a5a99760ae04d337c2cbc4065e02d2630202f6ffeae908c878ad623b31a0dbc6",
    "schur-elements --n 1": "3392886804cdf8bfc3a76abb16b2c9e3d93eeb5c1c830a3e3519fb1457504da6",
    "generic-degrees --n 2": "372ce9992b87c1755ef38cd9940d991432525f0ba6d8e89671d8db1baae66163",
    "schur-elements --n 2": "2c2607f49454f314e680a82ae747b6a9125c7dce61d7b0256ab26c464657139c",
    "generic-degrees --n 3": "81418843521e0dd8619dfe5a75c67bc173f158a0fd7292b56e68600de1066e81",
    "schur-elements --n 3": "e23655d3e144be7e51b5e1037143847242d9322267e3344f0edd20128c0dd5f2",
    "generic-degrees --n 4": "537a90ca3ca0c3c59314eb816ee4332595722b6ca39976ff3fa3d052445515f1",
    "schur-elements --n 4": "20443182245954530e3954dcda818ae13403e2efdb91c21f9255757637081e2f",
    "generic-degrees --n 5": "7158b36b0e4f11a43aff94ae54a885de1171a915389fc048581f1071d1e54dfd",
    "schur-elements --n 5": "7940aca0084dd697c753f6365a8b29f53a92461c5344616c55a0ef01441544ba",
    "generic-degrees --n 6": "368d2cc4a2c8fd5f4bc9b91a50ef1ee25ee92305524b8a13f165719a682cdcec",
    "schur-elements --n 6": "cdb3a8707befe88340d7c812006ae555376927916ab757440c97c132ecc1d57d",
    "generic-degrees --n 7": "f9db1b20603130b40b34d4a1860f2a38dd27135c577c68b3c700a519ce2a085a",
    "schur-elements --n 7": "1fb3626dd70a38c40bf273e46e89fa26665df3d6199817469262f15b6e3c64a2",
    "generic-degrees --n 8": "d08e7e1d6437f528821bea84cd150c5fc0bb8ed79d81b2a43deae4ed66ac3773",
    "schur-elements --n 8": "4840385d2cb94c9266a8f8c7b0c3e82b8e62371fdc72f2d816df619f1fbc1699",
    "generic-degrees --n 9": "40e3f8be57ad24b15c62fccbf1cb5ff7d492324fc2b93e28c49454efe4f22cdc",
    "schur-elements --n 9": "bd64ccdf33dbcfec7841a652a92c7d5b5884f39d890c1ba27460a3afa6143bd0",
    "generic-degrees --n 10": "cbfb8cd86d3109550aa340cb5938ebaa757695cf699cd907abc1e564b0b8b929",
    "schur-elements --n 10": "199827dac325a68710eb4ca7b8cc95450dd8751ca0749ddcf65328edcb4fc7a2",
    "generic-degrees --n 11": "084e1914d0550903d2df323a3816ca9ff1d3803000a6d2be60b4da8b2ff05085",
    "schur-elements --n 11": "be5914ba197979d83e030f6c4a435ca0c4c27a5830baafbfb5c19eb526764652",
    "generic-degrees --n 12": "1bd31f43a49a4d3c7473d47aee3c736b9cf2f4a00786e7ccb0125baae857b202",
    "schur-elements --n 12": "cac9d2cdb313e17079c52103f6b1046d70e33ec65d6b8289eb1c913de51283e7",
    "generic-degrees --n 13": "5d7b1ae870b4bf20fbe1f0f6e2b12fc275aeef66ff408e08cddb8a37a3ee0f01",
    "schur-elements --n 13": "f931f8755e9f433becd30f116b2e18dd72b970e0f626af13d4461b741218abcf",
    "schur-elements --n 6 --spin": "2e812124998acab997418fa1f9d9e599cf97fd12f745130f16514d78f599ef2c",
    # captured with the Phi_d multiplied out from a table of cyclotomic
    # polynomials, before the products of v^k - 1: factors up to v^48 - 1
    "generic-degrees --n 24": "f28f7d05341771786cf5d113f90fb05f6a2450c8dd480f0842c8e68e25c633e9",
    "schur-elements --n 24": "2296ae2ee8feb494045235d2aa35ca3bb2fff941a98a001f72f9e2beaf4c11ad",
    "schur-elements --n 16 --spin": "f23583b076904a9a19d602b95c4c29f10d6675a65b172812a5bd3783d1507d2a",
}


@pytest.mark.parametrize("command", list(_DEGREE_DIGESTS))
def test_degree_commands_golden_stdout(capsys, command):
    code, out, _ = invoke(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _DEGREE_DIGESTS[command]


# sha256 of stdout, captured while half-integer coefficient parts were still
# Fractions: the reduction route at n = 7 and the spin route at n = 6, 7
_W0_7 = "c1 c2 T1 T2 T1 T3 T2 T1 T4 T3 T2 T1 T5 T4 T3 T2 T1 T6 T5 T4 T3 T2 T1"
_ROUTE_DIGESTS = {
    ("class-poly", "--n", "7", "--element", _W0_7): (
        "44d05b25892aae6eb89493ef063993ee5b21a03dd0b1b7ae25ea6e9c2a436880"
    ),
    ("schur-elements", "--n", "7", "--spin"): (
        "94521b8f71341c73dde57d3372c019fdf1d59f9bbc7b03de565ad3c485fae378"
    ),
    ("spin-class-poly", "--n", "6", "--word", "1,2,3,4,5,1,2,3"): (
        "baa545a1b4db960be425a262ff770cd0e6adccaebb2328c0d5215b3bbcebb204"
    ),
    ("gimel", "--n", "6", "--spin", "--word", "2,1,3,2,3,1,5,4,5,4"): (
        "e62272966e051ce503b1cc22f9130617ea7da22f17add87eed020ad54fa95aba"
    ),
}


@pytest.mark.parametrize("argv", list(_ROUTE_DIGESTS), ids=lambda argv: argv[0])
def test_reduction_and_spin_routes_golden_stdout(capsys, argv):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out.strip() not in ("0", "")
    assert hashlib.sha256(out.encode()).hexdigest() == _ROUTE_DIGESTS[argv]


# sha256 of stdout, captured while every spin column was still the reduction
# of its canonical class word's R-image
_SPIN_DIGESTS = {
    "schur-elements --n 8 --spin": (
        "72e1757cdc5fb20a07a70a579dba5f680ba53cbf8fa720c29da367575b0af8ac"
    ),
    "schur-elements --n 9 --spin": (
        "592a5f2a4c077415a762b4125bf74cb647c7a31273fb52f937d0db16e8ccbd58"
    ),
    "schur-elements --n 10 --spin": (
        "20595a6f26b236fd1fd2f4a52165aed20edd2affbbf46fdcc4b0d8bb9779ca1f"
    ),
    # captured while the weights were still solved for by Bareiss elimination
    "schur-elements --n 12 --spin": (
        "c482406381ce5b4ae4bbf1437d68235dcd4f6ffff76268bdad1d696ecb94d233"
    ),
    "schur-elements --n 14 --spin": (
        "f9f6ade603ba3f6d123b1351dd2f4976ae65c2b337fae0605fc54763c8ecff92"
    ),
    # captured while the spin table was still the ordinary one paired with
    # each class vector in Scalars
    "schur-elements --n 16 --spin": (
        "f23583b076904a9a19d602b95c4c29f10d6675a65b172812a5bd3783d1507d2a"
    ),
    # captured while the certificate still multiplied out the spin table
    "schur-elements --n 19 --spin": (
        "d006d49f275d1640dea8313b6e3f60d6864886b71fa1eef4333b3bea15e4e5e5"
    ),
    "schur-elements --n 20 --spin": (
        "3aa58963b280c53060ce00d797f3c0e4aaf294a3cf79a6345ae8583613a620fb"
    ),
    "spin-class-poly --n 8 --word 2,1,3,2,3,1,5,4,5,4": (
        "541b85ddcd786dd8d47ca002bdfe8ce214543a03294c590e676cbb48233da589"
    ),
    "gimel --n 8 --spin --word 1,2,7,6,1,2,7,6": (
        "6cdc81ac1a69a1cacdc3ac0964f79baa5239815ce1cf123eb20960cc893e1e3c"
    ),
}


@pytest.mark.parametrize("command", list(_SPIN_DIGESTS))
def test_spin_route_golden_stdout_at_higher_rank(capsys, command):
    code, out, _ = invoke(capsys, *command.split())
    assert code == 0
    assert out.strip() not in ("0", "")
    assert hashlib.sha256(out.encode()).hexdigest() == _SPIN_DIGESTS[command]


# sha256 of stdout, captured while the reduction still carried a Scalar on
# every coefficient: Gaussian, odd-u and rational-function coefficients meet
# the products and the reduction (the first element's i and 1/(v+1) terms
# are odd, so only its first term has a trace; every term of the second is
# even)
_MIXED = (
    "(v-1)/2 * c1 c2 T1 T2 + i*u * T3 c4 - 1/(v+1) * T2 T1 c3",
    "(v-1)/2 * c1 c2 T1 T2 + i*u * c1 c4 T3 T4 T2 - 1/(v+1) * T2 T1 c3 c5 T4 T3"
    " + (u^3-2*i)/(2*v-1) * c1 c2 c3 c4 T1 T3 T2 T4 T1 + u * T1 T2 T3 T4",
)
_MIXED_DIGESTS = {
    ("class-poly", 0): "88e287a6cb68c66ead5fa1d435a09ec842a362deb32585a937644b85ad0fcde2",
    ("gimel", 0): "6a502ce25aa69a8e43fe88f2bac7e041437b0326f5113d8a8d63dcb767329cde",
    ("class-poly", 1): "fb184818608e3d727de183edea76767645fb5685809726b7b15d383daeb300ab",
    ("gimel", 1): "63747bea8f003a9dbf081f82ebd1b3bce2d096c5293d777278ba569c1fb6aa3a",
}


# sha256 of stdout, captured while the reduction route still held each
# integer polynomial in v as an ascending int tuple
_PACKED_DIGESTS = {
    ("verify", "--suite", "core", "--n", "6"): (
        "43c8085657423f6f21f6ffddc09a2083ba13c0cad681d4a147c0c49d273c8ab4"
    ),
    ("verify", "--suite", "spin", "--n", "6"): (
        "1da94a6797403501c45d8551bf94471fd99817c8964496a2024fd2f45a926f92"
    ),
    ("class-poly", "--n", "7", "--element", "c1 c3 c4 c6 T2 T1 T3 T2 T4 T3 T5 T4 T6 T5 T1 T2"): (
        "87dc80d978fd78b3bb2e9d3b20d261c9c98bca756231108107cb4e5f26e44819"
    ),
    ("gimel", "--spin", "--n", "7", "--word", "1,2,3,4,1,2,3,4"): (
        "47555e529ead2b9ac988c05b770e90f101a47f3b26079453d6ad1a9879c6cc1f"
    ),
}


@pytest.mark.parametrize("argv", list(_PACKED_DIGESTS), ids=lambda argv: "-".join(argv[:3]))
def test_packed_reduction_route_golden_stdout(capsys, argv):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out.strip() not in ("0", "")
    assert hashlib.sha256(out.encode()).hexdigest() == _PACKED_DIGESTS[argv]


# sha256 of stdout, captured while each check still returned its own report
# record with a passed flag
_VERIFY_DIGESTS = {
    ("verify", "--suite", "all", "--n", "4"): (
        "21bad1beb0f8ac7355728564f04ee3abab7c561e5e086bfc0f44c305f3cd1436"
    ),
    ("verify", "--suite", "all", "--n", "5"): (
        "63b6cb316fa2b2f3fe0f968335183d14dd82058a41ffc6ed4b685a4ae9406ecb"
    ),
    ("verify", "--suite", "oracle", "--n", "5"): (
        "ee62bf537a526b7756d3e86908530260e83e09f10fe14259420b62863faa1efe"
    ),
}


@pytest.mark.parametrize("argv", list(_VERIFY_DIGESTS), ids=lambda argv: "-".join(argv[2:]))
def test_verify_golden_stdout(capsys, argv):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_DIGESTS[argv]


# sha256 of stdout, captured while the columns were still Pieri products of
# the one-part functions
_TABLE_DIGESTS = {
    "char-table --n 12 --format latex": (
        "0f325f6aef1c380a28541bc27826ab7b89bbc44eff047f6845242d12338055b9"
    ),
    "char-table --n 16": (
        "37f03022ca0961c8f0575741e48d61d2ddf6bedbd9f847bc407d98bd71b5d9c3"
    ),
    "char-table --n 20 --format csv": (
        "839f0957a9fdbdb4a5489219ace06a248447456c2c6f49a9173ffc04c1b98d86"
    ),
}


@pytest.mark.parametrize("command", list(_TABLE_DIGESTS))
def test_char_table_golden_stdout_at_rank(capsys, command):
    code, out, _ = invoke(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _TABLE_DIGESTS[command]


@pytest.mark.parametrize("command, which", list(_MIXED_DIGESTS))
def test_mixed_coefficient_element_golden_stdout(capsys, command, which):
    code, out, _ = invoke(capsys, command, "--n", "5", "--element", _MIXED[which])
    assert code == 0
    assert out.strip() not in ("0", "")
    assert hashlib.sha256(out.encode()).hexdigest() == _MIXED_DIGESTS[(command, which)]


# -- error paths ---------------------------------------------------------------


def test_bad_element_reports_position(capsys):
    # a dangling '*' and a negative power of zero included
    for element in ["T1 + @", "(v-1)/2*", "*T1", "2*", "0^-1*T1", "(u^2-v)^-1*T1"]:
        code, out, err = invoke(capsys, "class-poly", "--n", "2", "--element", element)
        assert code == 2
        assert out == ""
        assert "position" in err, element


def test_spin_flag_conflicts(capsys):
    code, _, err = invoke(capsys, "gimel", "--n", "2", "--spin", "--element", "T1")
    assert code == 2 and "--word" in err
    code, _, err = invoke(capsys, "gimel", "--n", "2", "--spin")
    assert code == 2 and "--word" in err
    code, _, err = invoke(capsys, "gimel", "--n", "2", "--word", "1,1")
    assert code == 2 and "--spin" in err
    code, _, err = invoke(capsys, "gimel", "--n", "2")
    assert code == 2 and "--element" in err


def test_rank_validation(capsys):
    code, _, err = invoke(capsys, "char-table", "--n", "0")
    assert code == 2
    assert "--n" in err


def test_bad_word_rejected(capsys):
    code, _, err = invoke(capsys, "spin-class-poly", "--n", "3", "--word", "1,x")
    assert code == 2
    assert "word" in err


@pytest.mark.parametrize("word", ["7", "0"])
def test_out_of_range_odd_word_rejected(capsys, word):
    # an odd-length word is checked before the zero-vector shortcut
    code, out, err = invoke(capsys, "spin-class-poly", "--n", "3", "--word", word)
    assert code == 2 and out == ""
    assert "out of range" in err


@pytest.mark.parametrize("command", ["gimel --spin", "spin-class-poly"])
def test_packing_width_refusal_exits_two(capsys, command):
    # the product of 240 letters has a norm bound past 2^127: a clean error,
    # not a traceback under the exit code of a failed verification
    word = ",".join(["1,2"] * 120)
    code, out, err = invoke(capsys, *command.split(), "--n", "3", "--word", word)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "a width of 128 bits" in err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        run(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run(["char-table"])  # missing --n
    assert info.value.code == 2


_HELP_LINES = [
    "char-table print the character table",
    "class-poly class polynomials of an element",
    "spin-class-poly class polynomials of a spin word",
    "gimel the symmetrizing trace of an element",
    "schur-elements Schur elements by strict partition",
    "generic-degrees generic degrees by strict partition",
    "verify run a verification suite",
]
_CHAR_TABLE_USAGE = "usage: spinhecke char-table [-h] --n N [--format {json,csv,latex}]"
# command -> (exit code, the stream that prints, line starts it must hold),
# each run of whitespace read as one space; the other stream stays empty.
# Only these lines are pinned: argparse's own wording around them varies
# between Python versions
_USAGE_LINES = {
    "--help": (0, "out", _HELP_LINES),
    "char-table --help": (0, "out", [_CHAR_TABLE_USAGE, "--n N", "--format {json,csv,latex}"]),
    "verify --help": (0, "out", ["--n N", "--suite {core,oracle,spin,all}", "--seed SEED"]),
    "no-such-command": (
        2,
        "err",
        ["spinhecke: error: argument command: invalid choice: 'no-such-command'"],
    ),
    "char-table": (
        2,
        "err",
        [
            _CHAR_TABLE_USAGE,
            "spinhecke char-table: error: the following arguments are required: --n",
        ],
    ),
    "gimel --n 3 --spin --element T1": (2, "err", ["error: --spin takes --word, not --element"]),
    "class-poly --n 2 --element -T1": (0, "out", ['{"1,1": "(-v+1)/2"}']),
    "char-table --n 3 --bogus": (2, "err", ["spinhecke: error: unrecognized arguments: --bogus"]),
}


@pytest.mark.parametrize("command", list(_USAGE_LINES))
def test_usage_and_error_output(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    try:
        code = run(command.split())
    except SystemExit as exit_:
        code = exit_.code
    streams = dict(zip(("out", "err"), capsys.readouterr()))
    expected_code, stream, starts = _USAGE_LINES[command]
    lines = [" ".join(line.split()) for line in streams.pop(stream).splitlines()]
    assert code == expected_code
    assert [start for start in starts if not any(line.startswith(start) for line in lines)] == []
    assert list(streams.values()) == [""]


# -- plumbing -------------------------------------------------------------------


def _child_env():
    """The environment with the directory of the imported package first on
    PYTHONPATH, so a child interpreter imports the same spinhecke."""
    env = dict(os.environ)
    path = [str(pathlib.Path(spinhecke.__file__).parent.parent)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def test_import_keeps_the_recursion_limit():
    code = (
        "import sys; before = sys.getrecursionlimit(); import spinhecke.cli; "
        "print(before, sys.getrecursionlimit())"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert result.returncode == 0, result.stderr
    before, after = result.stdout.split()
    assert before == after


_TABLE_ROUTE = {"scalars", "combinatorics", "_linalg", "symfunc", "characters", "cli"}


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("char-table --n 4", _TABLE_ROUTE),
        ("generic-degrees --n 4", _TABLE_ROUTE),
        ("schur-elements --n 4", _TABLE_ROUTE),
        ("verify --suite oracle --n 2", _TABLE_ROUTE | {"hecke_clifford", "tensor_oracle"}),
    ],
    ids=["char-table", "generic-degrees", "schur-elements", "verify-oracle"],
)
def test_a_launch_loads_only_its_route(command, loaded):
    # the table commands never load the reduction, the normal form or the
    # oracle, and the oracle suite never loads the spin side
    code = (
        "import contextlib, io, sys\n"
        "from spinhecke.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run({command.split()!r})\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('spinhecke.')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert result.returncode == 0, result.stderr
    exit_code, *modules = result.stdout.split()
    assert exit_code == "0"
    assert {name.removeprefix("spinhecke.") for name in modules} == loaded


def test_oracle_suite_reaches_rank_six():
    result = subprocess.run(
        [sys.executable, "-m", "spinhecke", "verify", "--suite", "oracle", "--n", "6"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] == "all 2 checks passed"


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "spinhecke", "generic-degrees", "--n", "2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert result.stdout == '{"2": "2*v+2"}\n'
