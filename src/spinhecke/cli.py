"""Command-line front end.

Seven subcommands: rendering the character table, class polynomials for
parsed elements or spin words, the trace form on either side, Schur elements,
generic degrees, and a verification driver with selectable suites.  JSON is
the machine format of record; output bytes are deterministic for fixed flags
and seed.

Exit codes: 0 on success, 1 when a verification suite reports a failure,
2 on usage, parse, or domain errors, and on a value whose norm bound the
packing width of the reduction route cannot decode (scalars.WidthError).

Every verification check returns "" when it holds and otherwise the text of
its failure; a suite yields (name, failure) pairs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys

from .characters import (
    character_table,
    generic_degree,
    schur_element,
    verify_gimel_decomposition,
)
from ._linalg import column_rank
from .combinatorics import enumerate_partitions, partition_str, parse_word, reduced_word
from .hecke_clifford import build_T_w, from_word, multiply, parse_element, relations, zero
from .scalars import ZERO, WidthError
from .spin_hecke import (
    R_class_vector,
    R_element,
    canonical_class_word,
    class_word_vector,
    gimel_minus,
    spin_class_polynomials,
    spin_schur_elements,
    verify_iso,
    verify_trace_vanishing,
)
from .tensor_oracle import TensorSpace, cross_check, relation_failure
from .traces import gimel, gimel_weight, reduce


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_char_table(args) -> int:
    table = character_table(args.n)
    if args.format == "json":
        print(table.to_json())
    elif args.format == "csv":
        print(table.to_csv(), end="")
    else:
        print(table.to_latex())
    return 0


def _cmd_class_poly(args) -> int:
    element = parse_element(args.n, args.element)
    print(reduce(element).to_json())
    return 0


def _cmd_spin_class_poly(args) -> int:
    print(spin_class_polynomials(parse_word(args.word), args.n).to_json())
    return 0


def _cmd_gimel(args) -> int:
    if args.spin:
        if args.element is not None:
            raise ValueError("--spin takes --word, not --element")
        if args.word is None:
            raise ValueError("--spin requires --word")
        print(gimel_minus(parse_word(args.word), args.n).render())
        return 0
    if args.element is None:
        raise ValueError("need --element (or --spin with --word)")
    if args.word is not None:
        raise ValueError("--word only applies with --spin")
    print(gimel(parse_element(args.n, args.element)).render())
    return 0


def _print_json_object(entries) -> None:
    """Print the (key, value) string pairs as json.dumps prints their dict,
    one entry at a time."""
    print("{", end="")
    for k, (key, value) in enumerate(entries):
        print(f"{', ' if k else ''}{json.dumps(key)}: {json.dumps(value)}", end="")
    print("}")


def _cmd_schur_elements(args) -> int:
    if args.spin:
        values = spin_schur_elements(args.n).items()
    else:
        values = ((lam, schur_element(lam)) for lam in enumerate_partitions(args.n, "strict"))
    _print_json_object((partition_str(lam), value.render()) for lam, value in values)
    return 0


def _cmd_generic_degrees(args) -> int:
    _print_json_object(
        (partition_str(lam), generic_degree(lam).render())
        for lam in enumerate_partitions(args.n, "strict")
    )
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _broken_relation(n: int) -> str:
    """The name of the first defining relation the normal form breaks, or ""."""
    for name, lhs, rhs in relations(n):
        if from_word(n, lhs) != sum((from_word(n, word, c) for c, word in rhs), zero(n)):
            return name
    return ""


def _random_basis_term(n: int, rng: random.Random):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    cliff = [("c", k) for k in range(1, n + 1) if rng.random() < 0.5]
    return from_word(n, cliff + [("T", j) for j in reduced_word(tuple(perm))])


def _suite_core(args):
    n = args.n
    yield "normal-form relations", _broken_relation(n)
    rng = random.Random(args.seed)
    pairs = ((_random_basis_term(n, rng), _random_basis_term(n, rng)) for _ in range(25))
    separated = any(reduce(multiply(a, b)) != reduce(multiply(b, a)) for a, b in pairs)
    yield "trace property on random pairs", (
        "a trace function separated hh' from h'h" if separated else ""
    )
    wrong = [mu for mu in enumerate_partitions(n) if gimel(build_T_w(mu)) != gimel_weight(n, mu)]
    yield "gimel closed form on all classes", (
        f"T_w_mu for mu={partition_str(wrong[0])}: gimel != ((v-1)/2)^(n-len(mu))" if wrong else ""
    )
    yield "gimel decomposition", verify_gimel_decomposition(n)


def _suite_oracle(args):
    yield "character table cross-check", cross_check(args.n)
    space = TensorSpace(m=args.n, n=args.n)
    rng = random.Random(args.seed)
    size = len(space.indices)
    # ten draws of rng.sample(list(space.basis_tuples()), 3), unlisted; at
    # n = 1 the basis has only two tuples
    picks = [
        [
            tuple(space.indices[j // size**p % size] for p in reversed(range(args.n)))
            for j in rng.sample(range(size**args.n), min(3, size**args.n))
        ]
        for _ in range(10)
    ]
    yield "tensor relations on random vectors", relation_failure(space, picks)


def _suite_spin(args):
    yield "embedding relations", verify_iso(args.n)
    yield "spin trace vanishing", verify_trace_vanishing(args.n)
    # the closed-form cycle vectors are observed, not proved: recheck them by
    # reduction up to p = 9 (p = 11 takes minutes and gigabytes)
    bad = [
        p
        for p in range(1, min(args.n, 9) + 1, 2)
        if class_word_vector((p,)) != R_class_vector(canonical_class_word((p,)), p)
    ]
    yield "spin closed-form cycle vectors", (
        f"differs from the reduction at p={bad[0]}" if bad else ""
    )
    try:
        spin_schur_elements(args.n)
        failure = ""
    except RuntimeError as err:
        failure = str(err)
    yield "spin Schur halving", failure
    if args.n <= 4:
        perms = list(itertools.permutations(range(1, args.n + 1)))
        images = [R_element(reduced_word(p), args.n) for p in perms]
        keys = sorted({key for img in images for key in img.terms})
        rows = [[img.terms.get(key, ZERO) for key in keys] for img in images]
        yield "spin basis rank", (
            "" if column_rank(rows) == len(perms) else f"expected rank {len(perms)}"
        )


_SUITES = {"core": [_suite_core], "oracle": [_suite_oracle], "spin": [_suite_spin]}
_SUITES["all"] = _SUITES["core"] + _SUITES["oracle"] + _SUITES["spin"]


def _cmd_verify(args) -> int:
    failed = 0
    total = 0
    for suite in _SUITES[args.suite]:
        for name, failure in suite(args):
            total += 1
            if failure:
                failed += 1
                print(f"FAIL - {name}: {failure}")
            else:
                print(f"ok - {name}")
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


def _attach_element(argv: list) -> list:
    """`--element -T1` as `--element=-T1`: argparse would read a separate
    value that starts with '-' as an option and report a missing value."""
    rest, out = list(argv), []
    while rest:
        arg = rest.pop(0)
        if arg == "--element" and rest and not rest[0].startswith("--"):
            arg = f"--element={rest.pop(0)}"
        out.append(arg)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_element(sys.argv[1:] if argv is None else argv))
    try:
        if args.n < 1:
            raise ValueError("--n must be at least 1")
        return args.handler(args)
    except (ValueError, ZeroDivisionError, WidthError) as err:
        # ElementParseError and ScalarParseError carry positions in their text
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
