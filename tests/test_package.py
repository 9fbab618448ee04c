"""Package hygiene: every docstring example runs, no module or test file
imports a name it never uses, every function the package defines is named
somewhere besides its own def, and the tensor oracle stays independent of the
symmetric-function route.  Importing the command line stays light, and the
result records behave as frozen value types."""

import ast
import doctest
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import spinhecke
from spinhecke.characters import CharacterTable
from spinhecke.combinatorics import ShiftedData
from spinhecke.tensor_oracle import TensorSpace
from spinhecke.traces import ClassVector

PACKAGE = pathlib.Path(spinhecke.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))
PERFBENCH = sorted((pathlib.Path(__file__).parent.parent / "perfbench").glob("*.py"))


def test_docstring_examples_pass():
    attempted = 0
    for path in SOURCES:
        if path.stem == "__main__":
            continue  # importing it runs the command line
        name = "spinhecke" if path.stem == "__init__" else f"spinhecke.{path.stem}"
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted > 0


def _unused_imports(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    unused = {
        str(path.relative_to(path.parent.parent)): names
        for path in SOURCES + TESTS
        if (names := _unused_imports(path))
    }
    assert unused == {}


def _names(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def _defined_functions() -> dict:
    """{name: file} of every function or method the package defines, bar
    the dunder methods, which the interpreter calls."""
    defined = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                defined.setdefault(node.name, path.name)
    return defined


def test_every_defined_function_is_named_elsewhere():
    # a def that nothing names is dead code
    defined = _defined_functions()
    named = set()
    for path in SOURCES + TESTS + PERFBENCH:
        named |= _names(ast.parse(path.read_text()))
    assert {name: where for name, where in defined.items() if name not in named} == {}


# public functions that nothing in the package or the benchmark calls, each
# kept for a caller outside them
_PUBLIC_FOR_OTHERS = {
    "specialize": "acceptance criteria 6 and 7 evaluate at points",
    "membership": "acceptance criterion 3 checks ring membership",
    "principal_specialization_g_tilde": "acceptance criterion 5",
    "basis_tuples": "acceptance criterion 9 enumerates the tensor basis",
    "apply": "acceptance criterion 9 applies generators to tensors",
    "spin_character_table": "a spin char-table command is planned to call it",
    "clear_caches": "every cache can be cleared",
}


def test_every_public_function_has_a_caller_outside_the_tests():
    # no public API that only its own tests call
    named = set()
    for path in SOURCES:
        named |= _names(ast.parse(path.read_text()))
    for path in PERFBENCH:
        tree = ast.parse(path.read_text())
        named |= _names(tree)
        # the tracer wraps methods named by strings, such as Scalar.inverse
        named |= {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
    uncalled = {
        name: where
        for name, where in _defined_functions().items()
        if not name.startswith("_") and name not in named
    }
    assert set(uncalled) == set(_PUBLIC_FOR_OTHERS), uncalled


def _perfbench(*argv) -> str:
    """stdout of `python argv...` run in perfbench/ on this package."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=PERFBENCH[0].parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_perfbench_tracer_installs():
    # the tracer wraps UPoly.gcd and UPoly.divmod by name and reads the memo
    # tables of traces and hecke_clifford, all from outside the package
    _perfbench("-c", "import tracer; tracer.install(tracer.Tracer()); tracer.memo_sizes()")


def test_traced_classpoly_ops_match_their_goldens():
    # one trace-property pair and one gimel-minus word of the classpoly pool,
    # run by the benchmark's worker with every public function wrapped
    code = (
        "import json, run; pool = run.classpoly_pool(); "
        "print(json.dumps([next(op for op in pool if op['kind'] == kind) "
        "for kind in ('pair', 'word')]))"
    )
    ops = json.loads(_perfbench("-c", code))
    job = {"trace": True, "op_base": 0, "ops": ops}
    report = json.loads(_perfbench("worker.py", json.dumps(job)).splitlines()[-1])
    goldens = json.loads((PERFBENCH[0].parent / "goldens.json").read_text())
    results = report["ops"]
    assert [r.get("error") for r in results] == [None, None]
    assert [r["digest"] for r in results] == [goldens[op["key"]] for op in ops]
    assert results[0]["check"] is True
    assert report["trace"]["names"]["traces.reduce"]["calls"] >= 2  # the pair, traced


def test_classpoly_workload_matches_its_goldens():
    # every op of a classpoly pass (the 45-op pool and class-poly --n 6),
    # run untraced by the benchmark's worker, prints its golden bytes
    code = (
        "import json, run; steps = run.workload_steps('classpoly', 0); "
        "print(json.dumps([op for step in steps "
        "for op in (step['ops'] if step['kind'] == 'batch' else [step])]))"
    )
    ops = json.loads(_perfbench("-c", code))
    assert len(ops) == 46 and ops[-1]["kind"] == "cli"
    job = {"trace": False, "op_base": 0, "ops": ops}
    report = json.loads(_perfbench("worker.py", json.dumps(job)).splitlines()[-1])
    goldens = json.loads((PERFBENCH[0].parent / "goldens.json").read_text())
    results = report["ops"]
    assert [r.get("error") for r in results] == [None] * len(ops)
    assert {op["key"]: r["digest"] for op, r in zip(ops, results)} == {
        op["key"]: goldens[op["key"]] for op in ops
    }
    assert all(r["check"] is not False for r in results)


@pytest.mark.parametrize("workload", ["characters", "degrees"])
def test_cli_workload_matches_its_goldens(workload):
    # every op of a pass is a CLI command (char-table, schur-elements --spin,
    # generic-degrees, schur-elements), run by the benchmark's worker
    # through cli.run; each prints its golden bytes
    code = f"import json, run; print(json.dumps(run.workload_steps({workload!r}, 0)))"
    ops = json.loads(_perfbench("-c", code))
    assert ops and all(op["kind"] == "cli" for op in ops)
    job = {"trace": False, "op_base": 0, "ops": ops}
    report = json.loads(_perfbench("worker.py", json.dumps(job)).splitlines()[-1])
    goldens = json.loads((PERFBENCH[0].parent / "goldens.json").read_text())
    results = report["ops"]
    assert [r.get("error") for r in results] == [None] * len(ops)
    assert {op["key"]: r["digest"] for op, r in zip(ops, results)} == {
        op["key"]: goldens[op["key"]] for op in ops
    }
    assert all(r["check"] for r in results)


@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_workload_matches_its_goldens(seed):
    # verify --suite oracle --n 4 and the (1^5) tensor-trace column, run
    # untraced by the benchmark's worker, print their golden bytes
    code = (
        f"import json, run; steps = run.workload_steps('oracle', {seed}); "
        "print(json.dumps([op for step in steps "
        "for op in (step['ops'] if step['kind'] == 'batch' else [step])]))"
    )
    ops = json.loads(_perfbench("-c", code))
    assert sorted(op["kind"] for op in ops) == ["cli", "column"]
    job = {"trace": False, "op_base": 0, "ops": ops}
    report = json.loads(_perfbench("worker.py", json.dumps(job)).splitlines()[-1])
    goldens = json.loads((PERFBENCH[0].parent / "goldens.json").read_text())
    results = report["ops"]
    assert [r.get("error") for r in results] == [None] * len(ops)
    assert {op["key"]: r["digest"] for op, r in zip(ops, results)} == {
        op["key"]: goldens[op["key"]] for op in ops
    }
    assert all(r["check"] is not False for r in results)


def _assert_imports_within(filename: str, allowed: dict) -> None:
    """The package module `filename` imports, of each module named in
    `allowed`, only the names listed there, and never a module as a whole."""
    tree = ast.parse((PACKAGE / filename).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[-1] not in allowed, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            names = {alias.name for alias in node.names}
            if module in allowed:
                assert names <= allowed[module], (module, names - allowed[module])
            else:
                assert not names & set(allowed), names


def test_tensor_oracle_borrows_nothing_from_the_route_it_checks():
    # the oracle's traces must not reuse g-tilde, the reduction or the
    # Frobenius columns; it takes only the SymPoly container, the one
    # Q-expansion and the table container.  Of the normal form it reads the
    # element type, the staircase basis elements and the presentation, never
    # multiply, from_word or the generator kernels
    allowed = {
        "symfunc": {"SymPoly", "expand_in_Q"},
        "traces": set(),
        "characters": {"CharacterTable", "character_table"},
        "hecke_clifford": {"AlgebraElement", "build_T_w", "relations"},
    }
    _assert_imports_within("tensor_oracle.py", allowed)


@pytest.mark.parametrize("filename", ["tensor_oracle.py", "spin_hecke.py"])
def test_imports_no_packed_helper(filename):
    # the packed form of Z[v] and its generator kernels belong to the
    # normal form and the reduction: the oracle's kernel keeps its own int
    # tuples in u, and the spin side reaches the normal form through the
    # letters of hecke_clifford
    tree = ast.parse((PACKAGE / filename).read_text())
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not names & {
        "_W", "_pack", "_unpack", "_tighten", "_norm", "_int_acc", "WidthError",
        "_lmul_T", "_lmul_c", "_rmul_c",
    }


def test_characters_reach_neither_the_normal_form_nor_the_reduction():
    # both trace decompositions are certified on the int table, so the
    # character module imports nothing of hecke_clifford or traces (its cache
    # registers in scalars); its columns are built in the Q basis, so of
    # symfunc it takes only those and it solves no linear system.  Nor does
    # symfunc reach the reduction
    allowed = {
        "hecke_clifford": set(),
        "traces": set(),
        "symfunc": {"_g_tilde_vector"},
        "_linalg": set(),
    }
    _assert_imports_within("characters.py", allowed)
    _assert_imports_within("symfunc.py", {"hecke_clifford": set(), "traces": set()})


def test_cli_import_leaves_out_dataclasses():
    env = dict(os.environ)
    path = [str(PACKAGE.parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    code = "import sys, spinhecke.cli; print('dataclasses' in sys.modules, 'csv' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False False"
    # without site, which imports typing itself, the package must not load it:
    # its annotations are never evaluated
    code = "import sys, spinhecke.cli; print('typing' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("filename", ["characters.py", "spin_hecke.py"])
def test_factored_values_need_no_rationals(filename):
    # a factored value holds the exponent k of 2^k as an int, cleared by a
    # shift like the power of v, so no Fraction and no lcm is needed
    tree = ast.parse((PACKAGE / filename).read_text())
    modules = set()
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            names.update(alias.name for alias in node.names)
    assert "fractions" not in modules
    assert not names & {"Fraction", "lcm"}


def test_records_are_frozen_values():
    space = TensorSpace(m=2, n=3)
    assert space == TensorSpace(2, 3) != TensorSpace(3, 2)
    assert hash(space) == hash(TensorSpace(n=3, m=2))
    assert (space.m, space.n) == (2, 3)
    with pytest.raises(AttributeError):
        space.m = 5
    with pytest.raises(AttributeError):
        space.extra = 1
    with pytest.raises(TypeError):
        ClassVector(2)
    with pytest.raises(TypeError):
        ClassVector(2, {}, n=2)
    vec = ClassVector(n=2, coeffs={})
    assert vec == ClassVector(2, {}) and vec != space
    assert repr(vec) == "ClassVector(n=2, coeffs={})"
    table = CharacterTable(n=1, rows=((1,),), columns=((1,),), entries={})
    assert table == CharacterTable(1, ((1,),), ((1,),), {})
    assert table != CharacterTable(2, ((1,),), ((1,),), {})
    with pytest.raises(AttributeError):
        table.entries = {}
    with pytest.raises(TypeError):
        CharacterTable(1, (), ())
    data = ShiftedData(contents=((0,),), hooks=((1,),), n_stat=0, delta=1)
    assert data == ShiftedData(((0,),), ((1,),), 0, 1) != ShiftedData(((0,),), ((1,),), 0, 0)
    assert hash(data) == hash(ShiftedData(((0,),), ((1,),), 0, 1))
    with pytest.raises(AttributeError):
        data.delta = 0
    with pytest.raises(TypeError):
        ShiftedData(((0,),), ((1,),), n_stat=0)
