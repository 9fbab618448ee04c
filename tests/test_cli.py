import json
import subprocess
import sys

import pytest

from spinhecke.cli import run


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


def test_verify_output_is_deterministic(capsys):
    first = invoke(capsys, "verify", "--n", "2", "--suite", "core", "--seed", "5")
    second = invoke(capsys, "verify", "--n", "2", "--suite", "core", "--seed", "5")
    assert first == second


# -- error paths ---------------------------------------------------------------


def test_bad_element_reports_position(capsys):
    code, out, err = invoke(capsys, "class-poly", "--n", "2", "--element", "T1 + @")
    assert code == 2
    assert out == ""
    assert "position" in err


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


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        run(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run(["char-table"])  # missing --n
    assert info.value.code == 2


# -- plumbing -------------------------------------------------------------------


def test_import_keeps_the_recursion_limit():
    code = (
        "import sys; before = sys.getrecursionlimit(); import spinhecke.cli; "
        "print(before, sys.getrecursionlimit())"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    before, after = result.stdout.split()
    assert before == after


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "spinhecke", "generic-degrees", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == '{"2": "2*v+2"}\n'
