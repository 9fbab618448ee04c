"""One step of a benchmark pass, run in a fresh interpreter.

    python3 perfbench/worker.py '<job json>'

The job names a list of ops and whether to trace them.  Op kinds:

* ``cli``    -- ``spinhecke.cli.run(argv)`` in process, stdout captured;
* ``pair``   -- the trace property ``reduce(a b) == reduce(b a)`` on two
  basis terms ``C_I T_sigma``;
* ``word``   -- ``gimel_minus`` of an R-word;
* ``column`` -- the oracle column ``expand_in_Q(trace_poly(T_{w_nu}, m))``.

The last line of stdout is one JSON object: per op its latency, the sha256
of its output text and the result of its own check, plus the memo sizes of
the process and, when traced, the tracer's totals.  Library functions are
looked up on their modules at call time, so traced runs go through the
wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time

import tracer as tracing
from spinhecke import (  # modules only: functions are looked up at call time
    cli,
    combinatorics,
    hecke_clifford,
    scalars,
    spin_hecke,
    symfunc,
    tensor_oracle,
    traces,
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _basis_term(n, term):
    sigma, cliff = term
    return hecke_clifford.AlgebraElement(n, {(tuple(sigma), frozenset(cliff)): scalars.ONE})


def run_op(op):
    """(output text, check passed or None) for one op."""
    kind = op["kind"]
    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(op["argv"])
        return buf.getvalue(), code == 0
    if kind == "pair":
        n = op["n"]
        a, b = _basis_term(n, op["a"]), _basis_term(n, op["b"])
        ab = traces.reduce(hecke_clifford.multiply(a, b))
        ba = traces.reduce(hecke_clifford.multiply(b, a))
        return ab.to_json(), ab == ba
    if kind == "word":
        return spin_hecke.gimel_minus(op["word"], op["n"]).render(), None
    if kind == "column":
        element = hecke_clifford.build_T_w(tuple(op["nu"]))
        coeffs = symfunc.expand_in_Q(tensor_oracle.trace_poly(element, op["m"]))
        return json.dumps({combinatorics.partition_str(lam): c.render() for lam, c in coeffs.items()}), None
    raise ValueError(f"unknown op kind {kind!r}")


def main(job: dict) -> dict:
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    results = []
    for k, op in enumerate(job["ops"]):
        if tracer is not None:
            tracer.state.op = job["op_base"] + k
        t0 = time.perf_counter()
        try:
            text, check = run_op(op)
        except Exception as err:  # an op that crashes is counted as failed
            results.append({"latency": time.perf_counter() - t0, "error": repr(err)})
            continue
        results.append(
            {"latency": time.perf_counter() - t0, "digest": digest(text), "check": check}
        )
    report = {"ops": results, "memo": tracing.memo_sizes()}
    if tracer is not None:
        report["trace"] = tracer.stats()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
