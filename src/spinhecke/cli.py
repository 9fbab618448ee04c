"""Command-line front end.

Seven subcommands: rendering the character table, class polynomials for
parsed elements or spin words, the trace form on either side, Schur elements,
generic degrees, and a verification driver with selectable suites.  JSON is
the machine format of record; output bytes are deterministic for fixed flags
and seed.

Exit codes: 0 on success, 1 when a verification suite reports a failure,
2 on usage, parse, or domain errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from typing import Optional

from .characters import (
    character_table,
    generic_degree,
    schur_element,
    verify_gimel_decomposition,
)
from .combinatorics import enumerate_partitions, partition_str, parse_word
from .hecke_clifford import (
    T_gen,
    build_T_w,
    c_gen,
    from_word,
    multiply,
    one,
    parse_element,
)
from .scalars import MINUS_ONE, ONE, V, V_MINUS_1, half
from .spin_hecke import (
    R_element,
    gimel_minus,
    spin_class_polynomials,
    spin_schur_elements,
    verify_iso,
    verify_trace_vanishing,
)
from .tensor_oracle import TensorSpace, apply, cross_check
from .traces import gimel, gimel_weight, reduce


@dataclass(frozen=True)
class Config:
    """Validated run parameters shared by the subcommands."""

    n: int
    format: str = "json"
    seed: int = 0
    suite: Optional[str] = None


def _config_from(args) -> Config:
    cfg = Config(
        n=args.n,
        format=getattr(args, "format", "json"),
        seed=getattr(args, "seed", 0),
        suite=getattr(args, "suite", None),
    )
    if cfg.n < 1:
        raise ValueError("--n must be at least 1")
    return cfg


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_char_table(args) -> int:
    cfg = _config_from(args)
    table = character_table(cfg.n)
    if cfg.format == "json":
        print(table.to_json())
    elif cfg.format == "csv":
        print(table.to_csv(), end="")
    else:
        print(table.to_latex())
    return 0


def _cmd_class_poly(args) -> int:
    cfg = _config_from(args)
    element = parse_element(cfg.n, args.element)
    print(reduce(element).to_json())
    return 0


def _cmd_spin_class_poly(args) -> int:
    cfg = _config_from(args)
    print(spin_class_polynomials(parse_word(args.word), cfg.n).to_json())
    return 0


def _cmd_gimel(args) -> int:
    cfg = _config_from(args)
    if args.spin:
        if args.element is not None:
            raise ValueError("--spin takes --word, not --element")
        if args.word is None:
            raise ValueError("--spin requires --word")
        print(gimel_minus(parse_word(args.word), cfg.n).render())
        return 0
    if args.element is None:
        raise ValueError("need --element (or --spin with --word)")
    if args.word is not None:
        raise ValueError("--word only applies with --spin")
    print(gimel(parse_element(cfg.n, args.element)).render())
    return 0


def _cmd_schur_elements(args) -> int:
    cfg = _config_from(args)
    if args.spin:
        values = spin_schur_elements(cfg.n)
        payload = {partition_str(lam): values[lam].render() for lam in values}
    else:
        payload = {
            partition_str(lam): schur_element(lam).render()
            for lam in enumerate_partitions(cfg.n, "strict")
        }
    print(json.dumps(payload))
    return 0


def _cmd_generic_degrees(args) -> int:
    cfg = _config_from(args)
    payload = {
        partition_str(lam): generic_degree(lam).render()
        for lam in enumerate_partitions(cfg.n, "strict")
    }
    print(json.dumps(payload))
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _relation_pairs(n: int):
    """Defining relations as (name, lhs, rhs) element pairs."""
    pairs = []
    for i in range(1, n):
        t = T_gen(n, i)
        pairs.append(
            (
                f"T{i} quadratic",
                multiply(t, t),
                t.scale(V_MINUS_1) + one(n).scale(V),
            )
        )
        pairs.append((f"T{i} c{i} pass", multiply(t, c_gen(n, i)),
                      multiply(c_gen(n, i + 1), t)))
        pairs.append(
            (
                f"T{i} c{i + 1} reflect",
                multiply(t, c_gen(n, i + 1)),
                multiply(c_gen(n, i), t)
                + (c_gen(n, i + 1) - c_gen(n, i)).scale(V_MINUS_1),
            )
        )
        for k in range(1, n + 1):
            if k not in (i, i + 1):
                pairs.append((f"T{i} c{k} commute", multiply(t, c_gen(n, k)),
                              multiply(c_gen(n, k), t)))
    for i in range(1, n - 1):
        pairs.append(
            (
                f"braid {i}",
                multiply(multiply(T_gen(n, i), T_gen(n, i + 1)), T_gen(n, i)),
                multiply(multiply(T_gen(n, i + 1), T_gen(n, i)), T_gen(n, i + 1)),
            )
        )
    for i in range(1, n):
        for j in range(i + 2, n):
            pairs.append((f"T{i} T{j} commute", multiply(T_gen(n, i), T_gen(n, j)),
                          multiply(T_gen(n, j), T_gen(n, i))))
    for k in range(1, n + 1):
        pairs.append((f"c{k} square", multiply(c_gen(n, k), c_gen(n, k)), one(n)))
        for l in range(k + 1, n + 1):
            pairs.append(
                (
                    f"c{k} c{l} anticommute",
                    multiply(c_gen(n, k), c_gen(n, l)),
                    multiply(c_gen(n, l), c_gen(n, k)).scale(MINUS_ONE),
                )
            )
    return pairs


def _random_basis_term(n: int, rng: random.Random):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    cliff = frozenset(k for k in range(1, n + 1) if rng.random() < 0.5)
    word = []
    for k in sorted(cliff):
        word.append(f"c{k}")
    element = from_word(n, word)
    from .combinatorics import reduced_word

    for j in reduced_word(tuple(perm)):
        element = multiply(element, T_gen(n, j))
    return element


def _suite_core(cfg: Config):
    checks = []
    ok = all(lhs == rhs for _, lhs, rhs in _relation_pairs(cfg.n))
    checks.append(("normal-form relations", ok, ""))
    rng = random.Random(cfg.seed)
    bad = ""
    for _ in range(25):
        a = _random_basis_term(cfg.n, rng)
        b = _random_basis_term(cfg.n, rng)
        if reduce(multiply(a, b)) != reduce(multiply(b, a)):
            bad = "a trace function separated hh' from h'h"
            break
    checks.append(("trace property on random pairs", not bad, bad))
    closed = all(
        gimel(build_T_w(mu)) == gimel_weight(cfg.n, mu)
        for mu in enumerate_partitions(cfg.n)
    )
    checks.append(("gimel closed form on all classes", closed, ""))
    report = verify_gimel_decomposition(cfg.n)
    checks.append(
        ("gimel decomposition", report.passed, report.counterexample or "")
    )
    return checks


def _suite_oracle(cfg: Config):
    checks = []
    report = cross_check(cfg.n)
    checks.append(("character table cross-check", report.passed, report.mismatch or ""))
    space = TensorSpace(m=cfg.n, n=cfg.n) if cfg.n >= 2 else None
    if space is None:
        checks.append(("tensor relations on random vectors", True, "no generators"))
        return checks
    rng = random.Random(cfg.seed)
    tuples = list(space.basis_tuples())
    failure = ""
    for _ in range(10):
        vec = {tup: ONE for tup in rng.sample(tuples, min(3, len(tuples)))}
        for i in range(1, cfg.n):
            lhs = apply(space, ("T", i), apply(space, ("T", i), vec))
            mid = apply(space, ("T", i), vec)
            rhs = {}
            for tup, coeff in mid.items():
                rhs[tup] = coeff * V_MINUS_1
            for tup, coeff in vec.items():
                cur = rhs.get(tup)
                rhs[tup] = coeff * V if cur is None else cur + coeff * V
            diff = dict(lhs)
            for tup, coeff in rhs.items():
                cur = diff.get(tup)
                val = -coeff if cur is None else cur - coeff
                if val.is_zero():
                    diff.pop(tup, None)
                else:
                    diff[tup] = val
            if diff:
                failure = f"quadratic relation leaked at T{i}"
                break
        if failure:
            break
    checks.append(("tensor relations on random vectors", not failure, failure))
    return checks


def _suite_spin(cfg: Config):
    checks = []
    if cfg.n >= 2:
        report = verify_iso(cfg.n)
        checks.append(("embedding relations", report.passed, report.failure or ""))
    else:
        checks.append(("embedding relations", True, "no generators"))
    vanishing = verify_trace_vanishing(cfg.n)
    checks.append(
        ("spin trace vanishing", vanishing.passed, vanishing.failure or "")
    )
    try:
        spin_schur_elements(cfg.n)
        checks.append(("spin Schur halving", True, ""))
    except RuntimeError as err:
        checks.append(("spin Schur halving", False, str(err)))
    if cfg.n <= 4:
        import itertools

        from ._linalg import column_rank
        from .combinatorics import reduced_word
        from .scalars import ZERO

        perms = list(itertools.permutations(range(1, cfg.n + 1)))
        images = [R_element(reduced_word(p), cfg.n) for p in perms]
        keys = sorted({key for img in images for key in img.terms})
        rows = [[img.terms.get(key, ZERO) for key in keys] for img in images]
        ok = column_rank(rows) == len(perms)
        checks.append(("spin basis rank", ok, f"expected rank {len(perms)}"))
    return checks


_SUITES = {"core": [_suite_core], "oracle": [_suite_oracle], "spin": [_suite_spin]}
_SUITES["all"] = _SUITES["core"] + _SUITES["oracle"] + _SUITES["spin"]


def _cmd_verify(args) -> int:
    cfg = _config_from(args)
    failed = 0
    total = 0
    for suite in _SUITES[cfg.suite]:
        for name, ok, detail in suite(cfg):
            total += 1
            if ok:
                print(f"ok - {name}")
            else:
                failed += 1
                print(f"FAIL - {name}: {detail}")
    if failed:
        print(f"{failed} of {total} checks failed")
        return 1
    print(f"all {total} checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinhecke",
        description="Exact character-theoretic computations for the "
        "Hecke-Clifford algebra and its spin subalgebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("char-table", help="print the character table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv", "latex"], default="json")
    p.set_defaults(handler=_cmd_char_table)

    p = sub.add_parser("class-poly", help="class polynomials of an element")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--element", required=True, metavar="EXPR")
    p.set_defaults(handler=_cmd_class_poly)

    p = sub.add_parser("spin-class-poly", help="class polynomials of a spin word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True, metavar="W")
    p.set_defaults(handler=_cmd_spin_class_poly)

    p = sub.add_parser("gimel", help="the symmetrizing trace of an element")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--element", metavar="EXPR")
    p.add_argument("--spin", action="store_true")
    p.add_argument("--word", metavar="W")
    p.set_defaults(handler=_cmd_gimel)

    p = sub.add_parser("schur-elements", help="Schur elements by strict partition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spin", action="store_true")
    p.set_defaults(handler=_cmd_schur_elements)

    p = sub.add_parser("generic-degrees", help="generic degrees by strict partition")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_generic_degrees)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--suite", choices=["core", "oracle", "spin", "all"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ZeroDivisionError) as err:
        # ElementParseError and ScalarParseError carry positions in their text
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
