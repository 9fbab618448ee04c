"""The spinhecke benchmark: time to solution on four seeded workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --capture-goldens

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Workloads (see README.md):

* ``characters`` -- ``char-table --n 5``, ``--n 6`` and
  ``schur-elements --n 6 --spin``: the Frobenius / Q-function route;
* ``degrees``    -- ``generic-degrees`` and ``schur-elements`` at n = 12, 13:
  few huge fraction canonicalizations (``UPoly.gcd``);
* ``classpoly``  -- one process, cold memos: a stream of trace-property
  pairs and ``gimel_minus`` words at n = 5, then ``class-poly`` of
  ``c1 c2 T_{w0}`` at n = 6: the reduction route;
* ``oracle``     -- ``verify --suite oracle --n 4`` and the tensor-trace
  column nu = (1^5): the tensor route.

Load shape: a closed loop with one client.  A pass issues the workload's ops
one at a time, each CLI op in a fresh ``python3 -m spinhecke`` process and
each in-process batch in one fresh worker process, so no cache is warm at the
start of a pass.  Passes repeat until ``--seconds`` is used (at least two).
``--seed`` orders the ops, differently in each pass (and is the ``verify``
seed); it never changes how much work a pass does.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (launch to
``import spinhecke.cli`` done, median of several launches), ``wall_s``
(median pass time), ``op_p50_s``/``op_tail_s`` (op latency at the median
and at the highest percentile with at least ten ops beyond it) and
``peak_rss_mb`` (peak resident memory of any child process).  ``--trace 1``
runs one untraced and one traced pass and prints the per-layer metrics; the
traced pass runs every op in a worker with ``tracer.install()`` active.

Every op's output is hashed and compared with ``goldens.json`` (captured
on the unmodified package with ``--capture-goldens``); trace-property pairs
and ``verify`` also check themselves.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1
when any op failed and 2 when the package cannot be found.  A full record
(git sha, Python, nproc, ``SPINHECKE_THREADS``, counters) is written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDENS = HERE / "goldens.json"

WORKLOADS = ("characters", "degrees", "classpoly", "oracle")
DEFAULT_SEED = 0
SECOND_SEED = 1  # later claims must also hold on this seed
SETUP_PROBES = 3  # at start; one more follows each untraced step
MIN_PASSES = 2
RUN_BUDGET_S = 150.0  # no pass starts that would end after this
TAIL_BEYOND = 10
NAMED_LAYER = {
    "characters": "symfunc",
    "degrees": "scalars.gcd",
    "classpoly": "traces.reduce",
    "oracle": "tensor_oracle",
}

# the classpoly stream: a fixed pool of ops, so every op has a golden and
# every seed does the same work; the seed only orders the pool
CLASSPOLY_N = 5
POOL_SEED = 2012
POOL_PAIRS = 30
POOL_WORDS = 15
PAIR_LENGTH = 4  # length of each sigma
PAIR_CLIFFORD = 2  # size of each I
W0_ELEMENT = "c1 c2 T1 T2 T1 T3 T2 T1 T4 T3 T2 T1 T5 T4 T3 T2 T1"  # c1 c2 T_{w0}, n = 6
ORACLE_COLUMNS = ((1, 1, 1, 1, 1),)


def _cli(*argv: str, key: str = "") -> dict:
    return {"kind": "cli", "argv": list(argv), "key": key or " ".join(argv)}


def _inversions(perm) -> int:
    return sum(1 for a, b in itertools.combinations(perm, 2) if a > b)


def classpoly_pool() -> list:
    """Trace-property pairs of basis terms C_I T_sigma (fixed length and
    Clifford degree, so ops cost alike) and even R-words of length 2-8."""
    n = CLASSPOLY_N
    rng = random.Random(POOL_SEED)
    perms = [p for p in itertools.permutations(range(1, n + 1)) if _inversions(p) == PAIR_LENGTH]

    def term():
        return [list(rng.choice(perms)), sorted(rng.sample(range(1, n + 1), PAIR_CLIFFORD))]

    pool = []
    for _ in range(POOL_PAIRS):
        a, b = term(), term()
        pool.append({"kind": "pair", "n": n, "a": a, "b": b, "key": f"pair n={n} {a} {b}"})
    for _ in range(POOL_WORDS):
        word = [rng.randint(1, n - 1) for _ in range(rng.choice((2, 4, 6, 8)))]
        pool.append({"kind": "word", "n": n, "word": word, "key": f"word n={n} {word}"})
    return pool


def _column(nu) -> dict:
    m = sum(nu)
    return {"kind": "column", "nu": list(nu), "m": m, "key": f"column m={m} nu={list(nu)}"}


def workload_steps(workload: str, seed: int, pass_no: int = 0) -> list:
    """Pass `pass_no` of a run: steps in order; a step is a CLI op or a batch
    of in-process ops.  Each pass has its own order, so that a run's op
    latencies do not all come from one order of memo fills."""
    rng = random.Random(f"{seed}/{pass_no}")
    if workload == "characters":
        steps = [
            _cli("char-table", "--n", "5"),
            _cli("char-table", "--n", "6"),
            _cli("schur-elements", "--n", "6", "--spin"),
        ]
    elif workload == "degrees":
        steps = [_cli(cmd, "--n", str(k)) for cmd in ("generic-degrees", "schur-elements") for k in (12, 13)]
    elif workload == "classpoly":
        pool = classpoly_pool()
        rng.shuffle(pool)
        return [
            {"kind": "batch", "ops": pool},
            _cli("class-poly", "--n", "6", "--element", W0_ELEMENT, key="class-poly --n 6 c1 c2 T_w0"),
        ]
    elif workload == "oracle":
        verify = _cli("verify", "--suite", "oracle", "--n", "4", "--seed", str(seed),
                      key="verify --suite oracle --n 4")
        steps = [verify, {"kind": "batch", "ops": [_column(nu) for nu in ORACLE_COLUMNS]}]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(steps)
    return steps


# ---------------------------------------------------------------------------
# running ops in child processes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPINHECKE_THREADS", None)  # table builds stay sequential
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # launches reuse compiled bytecode, as installs do
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs steps one at a time and checks every op against the goldens."""

    def __init__(self, goldens, deadline: float):
        self.goldens = goldens  # None while capturing
        self.deadline = deadline
        self.env = child_env()
        self.captured: dict = {}
        self.failures: list = []
        self.memo: dict = {}
        self.setup: list = []  # launch-to-ready times

    def _timeout(self) -> float:
        return max(1.0, self.deadline + 20.0 - time.monotonic())

    def judge(self, op: dict, digest, check, error=None) -> bool:
        """Record the op's digest; True when it matches its golden and its own check."""
        key = op["key"]
        if error is None and digest is not None:
            if self.goldens is None:
                self.captured[key] = digest
            elif self.goldens.get(key) != digest:
                error = "output differs from golden" if key in self.goldens else "no golden"
        if error is None and check is False:
            error = "self-check failed"
        if error is not None:
            self.failures.append(f"{key}: {error}")
        return error is None

    def run_cli(self, op: dict) -> list:
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "spinhecke", *op["argv"]],
                cwd=ROOT, env=self.env, capture_output=True, timeout=self._timeout(),
            )
        except subprocess.TimeoutExpired:
            return [(time.monotonic() - t0, self.judge(op, None, None, "timed out"))]
        latency = time.monotonic() - t0
        if proc.returncode != 0:
            return [(latency, self.judge(op, None, None, f"exit code {proc.returncode}"))]
        digest = hashlib.sha256(proc.stdout).hexdigest()
        return [(latency, self.judge(op, digest, True))]

    def run_worker(self, ops: list, trace: bool, op_base: int, spans_path=None):
        job = {"ops": ops, "trace": trace, "op_base": op_base,
               "spans_path": str(spans_path) if spans_path else None}
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                cwd=ROOT, env=self.env, capture_output=True, timeout=self._timeout(),
            )
            report = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            if len(report["ops"]) != len(ops):
                raise ValueError("op count")
        except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as err:
            elapsed = time.monotonic() - t0
            why = f"worker failed: {type(err).__name__}"
            return [(elapsed / len(ops), self.judge(op, None, None, why)) for op in ops], None
        for key, size in report["memo"].items():
            self.memo[key] = max(self.memo.get(key, 0), size)
        timed = []
        for op, res in zip(ops, report["ops"]):
            ok = self.judge(op, res.get("digest"), res.get("check"), res.get("error"))
            timed.append((res["latency"], ok))
        return timed, report.get("trace")

    def run_pass(self, steps: list, trace: bool = False, spans_prefix=None) -> dict:
        """One pass; CLI ops run as real CLI launches unless traced.  An
        untraced pass probes set-up time after each step, outside its wall."""
        wall = 0.0
        ops, traces = [], []
        for k, step in enumerate(steps):
            t0 = time.monotonic()
            if step["kind"] == "cli" and not trace:
                ops += self.run_cli(step)
            else:
                batch = step["ops"] if step["kind"] == "batch" else [step]
                spans = f"{spans_prefix}-step{k}.csv.gz" if spans_prefix else None
                timed, stats = self.run_worker(batch, trace, len(ops), spans)
                ops += timed
                if stats is not None:
                    traces.append(stats)
            wall += time.monotonic() - t0
            if not trace:
                self.probe_setup()
        return {"wall": wall, "ops": ops, "traces": traces, "steps": steps}

    def probe_setup(self) -> None:
        """Time one launch to `import spinhecke.cli` done, and check that the
        package comes from this checkout's src/."""
        code = "import time, spinhecke.cli, spinhecke; print(time.monotonic(), spinhecke.__file__)"
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: cannot import spinhecke from {SRC}:\n{proc.stderr}")
        ready, origin = proc.stdout.split(maxsplit=1)
        if not Path(origin.strip()).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"perfbench: spinhecke was imported from {origin.strip()}, not {SRC}")
        self.setup.append(float(ready) - t0)


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(ops_per_pass: int) -> int:
    """The highest percentile with at least ten ops beyond it in a run of
    MIN_PASSES passes, so that every run of a workload reports the same
    percentile; p90 when such a run has too few ops for that."""
    n = MIN_PASSES * ops_per_pass
    if n <= 2 * TAIL_BEYOND:
        return 90
    return 100 * (n - TAIL_BEYOND) // n


def merge_traces(reports: list) -> dict:
    names, groups, counters = {}, {}, {}
    spans = 0
    for rep in reports:
        for name, rec in rep["names"].items():
            acc = names.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for field, val in rec.items():
                acc[field] += val
        for g, busy in rep["groups"].items():
            groups[g] = groups.get(g, 0.0) + busy
        for key, val in rep["counters"].items():
            if key.endswith("_max"):
                counters[key] = max(counters.get(key, 0), val)
            else:
                counters[key] = counters.get(key, 0) + val
        spans += rep["spans"]
    return {"names": names, "groups": groups, "counters": counters, "spans": spans}


def layer_metrics(merged: dict, memo: dict, wall_traced: float, wall_plain: float,
                  workload: str) -> dict:
    names, groups, ctr = merged["names"], merged["groups"], merged["counters"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def busy(name):
        return names.get(name, {}).get("busy_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        own = [rec for name, rec in names.items() if name.split(".", 1)[0] == layer]
        m[f"{layer}.calls"] = (sum(r["calls"] for r in own), "count")
        m[f"{layer}.busy_s"] = (groups.get(layer, 0.0), "s")
        m[f"{layer}.self_s"] = (sum(r["self_s"] for r in own), "s")
    add_mul = calls("scalars.Scalar.__add__") + calls("scalars.Scalar.__mul__")
    reduces = calls("traces.reduce")
    m.update({
        "scalars.mul.calls": (calls("scalars.Scalar.__mul__"), "count"),
        "scalars.add.calls": (calls("scalars.Scalar.__add__"), "count"),
        "scalars.div.calls": (calls("scalars.Scalar.__truediv__"), "count"),
        "scalars.realint_ratio": (ratio(ctr.get("scalars.realint_hits", 0), add_mul), "ratio"),
        "scalars.gcd.calls": (calls("scalars.UPoly.gcd"), "count"),
        "scalars.gcd.busy_s": (groups.get("scalars.gcd", 0.0), "s"),
        "hecke_clifford.multiply.calls": (calls("hecke_clifford.multiply"), "count"),
        "hecke_clifford.multiply.busy_s": (busy("hecke_clifford.multiply"), "s"),
        "hecke_clifford.multiply.terms_max": (ctr.get("hecke_clifford.multiply.terms_max", 0), "terms"),
        "hecke_clifford.parse.busy_s": (busy("hecke_clifford.parse_element"), "s"),
        "hecke_clifford.push_memo.entries": (memo.get("hecke_clifford.push_memo.entries", 0), "entries"),
        "traces.reduce.calls": (reduces, "count"),
        "traces.reduce.busy_s": (busy("traces.reduce"), "s"),
        "traces.reduce.self_s": (names.get("traces.reduce", {}).get("self_s", 0.0), "s"),
        "traces.memo.entries": (memo.get("traces.memo.entries", 0), "entries"),
        "traces.cpush_memo.entries": (memo.get("traces.cpush_memo.entries", 0), "entries"),
        "traces.memo.new_per_reduce": (ratio(ctr.get("traces.memo.new", 0), reduces), "entries"),
        "symfunc.schur_q.calls": (calls("symfunc.schur_q"), "count"),
        "symfunc.schur_q.busy_s": (busy("symfunc.schur_q"), "s"),
        "symfunc.g_tilde.busy_s": (busy("symfunc.g_tilde"), "s"),
        "symfunc.expand_in_Q.calls": (calls("symfunc.expand_in_Q"), "count"),
        "symfunc.expand_in_Q.busy_s": (busy("symfunc.expand_in_Q"), "s"),
        "symfunc.terms_max": (ctr.get("symfunc.terms_max", 0), "terms"),
        "linalg.solve_exact.calls": (calls("linalg.solve_exact"), "count"),
        "linalg.solve_exact.busy_s": (busy("linalg.solve_exact"), "s"),
        "linalg.cells": (ctr.get("linalg.cells", 0), "cells"),
        "characters.character_table.busy_s": (busy("characters.character_table"), "s"),
        "characters.schur_element.busy_s": (busy("characters.schur_element"), "s"),
        "characters.generic_degree.busy_s": (busy("characters.generic_degree"), "s"),
        "tensor_oracle.trace_poly.busy_s": (busy("tensor_oracle.trace_poly"), "s"),
        "tensor_oracle.tuples_visited": (ctr.get("tensor_oracle.tuples_visited", 0), "count"),
        "tensor_oracle.apply.calls": (calls("tensor_oracle.apply"), "count"),
        "tensor_oracle.diag_nonzero_ratio": (
            ratio(ctr.get("tensor_oracle.diag_nonzero", 0), ctr.get("tensor_oracle.tuples_visited", 0)),
            "ratio",
        ),
        "spin_hecke.R_element.calls": (calls("spin_hecke.R_element"), "count"),
        "spin_hecke.R_element.busy_s": (busy("spin_hecke.R_element"), "s"),
        "spin_hecke.gimel_minus.busy_s": (busy("spin_hecke.gimel_minus"), "s"),
        "cli.render.busy_s": (groups.get("cli.render", 0.0), "s"),
        "trace.overhead_ratio": (ratio(wall_traced, wall_plain), "ratio"),
        "trace.spans": (merged["spans"], "count"),
    })
    named = NAMED_LAYER[workload]
    named_busy = groups.get(named, busy(named))
    m["trace.named_layer_share"] = (ratio(named_busy, wall_traced), "ratio")
    return m


# ---------------------------------------------------------------------------
# records


def provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "spinhecke").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "spinhecke_threads": "unset in children (inherited: %s)"
        % os.environ.get("SPINHECKE_THREADS", "unset"),
    }


def emit(lines: list, result: dict, record: dict, record_name: str) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / record_name
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for line in lines:
        print(line)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)


def capture_goldens() -> int:
    """Write goldens.json from the package as it is now (run on the seed commit)."""
    runner = Runner(goldens=None, deadline=time.monotonic() + 3600)
    ops = {}
    for workload in WORKLOADS:
        for step in workload_steps(workload, DEFAULT_SEED):
            for op in step["ops"] if step["kind"] == "batch" else [step]:
                ops.setdefault(op["key"], op)
    cli_ops = [op for op in ops.values() if op["kind"] == "cli"]
    for op in cli_ops:
        runner.run_cli(op)
    runner.run_worker([op for op in ops.values() if op["kind"] != "cli"], False, 0)
    if runner.failures:
        print("\n".join(runner.failures), file=sys.stderr)
        return 1
    GOLDENS.write_text(json.dumps(dict(sorted(runner.captured.items())), indent=1) + "\n")
    print(f"wrote {len(runner.captured)} goldens to {GOLDENS.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"claims must hold on {DEFAULT_SEED} and on {SECOND_SEED}")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-goldens", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "spinhecke" / "__init__.py").is_file():
        print(f"perfbench: no spinhecke package under {SRC}", file=sys.stderr)
        return 2
    if args.capture_goldens:
        return capture_goldens()
    if args.workload is None:
        parser.error("--workload is required")
    started = time.monotonic()
    runner = Runner(json.loads(GOLDENS.read_text()), deadline=started + RUN_BUDGET_S)
    for _ in range(SETUP_PROBES):
        runner.probe_setup()
    passes = []
    while True:
        passes.append(runner.run_pass(workload_steps(args.workload, args.seed, len(passes))))
        now = time.monotonic()
        last = passes[-1]["wall"]
        if args.trace or now + last > started + RUN_BUDGET_S:
            break
        if len(passes) >= MIN_PASSES and now + last > started + args.seconds:
            break
    traced = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        prefix = OUT / f"spans-{args.workload}-seed{args.seed}"
        traced = runner.run_pass(passes[0]["steps"], trace=True, spans_prefix=prefix)

    all_ops = [op for p in passes for op in p["ops"]] + (traced["ops"] if traced else [])
    attempted = len(all_ops)
    failed = sum(1 for _, ok in all_ops if not ok)
    latencies = [lat for p in passes for lat, _ in p["ops"]]
    walls = [p["wall"] for p in passes]
    lines = [f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
             f"ops {len(latencies)}  trace {args.trace}"]
    if args.trace:
        merged = merge_traces(traced["traces"])
        metrics = layer_metrics(merged, runner.memo, traced["wall"], walls[0], args.workload)
        for name, (value, unit) in metrics.items():
            lines.append(f"{name:40s} {value:.6g} {unit}")
        share = metrics["trace.named_layer_share"][0]
        named = NAMED_LAYER[args.workload]
        verdict = "as predicted" if share > 0.5 else "MISMATCH: not most of wall_s"
        lines.append(f"named layer {named} holds {share:.1%} of traced wall_s ({verdict})")
        per_step = {}
        for step, stats in zip(traced["steps"], traced["traces"]):
            key = step.get("key", f"batch of {len(step.get('ops', ()))} ops")
            per_step[key] = stats
            muls = stats["names"].get("scalars.Scalar.__mul__", {}).get("calls", 0)
            lines.append(f"step {key}: {muls} Scalar.__mul__ calls")
        counters = {"merged": merged, "per_step": per_step}
    else:
        steps = passes[0]["steps"]
        pct = tail_percentile(sum(len(st["ops"]) if st["kind"] == "batch" else 1 for st in steps))
        tail_value = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
        beyond = sum(1 for lat in latencies if lat > tail_value)
        metrics = {
            "setup_s": (statistics.median(runner.setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (tail_value, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        }
        notes = {
            "setup_s": f"median of {len(runner.setup)} launches",
            "wall_s": f"median of {len(walls)} passes",
            "op_p50_s": f"p50 of {len(latencies)} ops",
            "op_tail_s": f"p{pct} of {len(latencies)} ops, {beyond} beyond",
            "peak_rss_mb": "largest child process",
        }
        for name, (value, unit) in metrics.items():
            lines.append(f"{name:12s} {value:.4f} {unit:3s} ({notes[name]})")
        counters = {"memo": runner.memo}
        lines += growth_lines(args.workload, passes)
    lines.append(f"fail_ratio   {failed / attempted:.4f} ratio ({failed} of {attempted} ops)")
    lines += [f"FAILED {f}" for f in runner.failures]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **provenance(), "result": result, "pass_walls": walls, "op_latencies": latencies,
        "counters": counters, "failures": runner.failures,
    }
    emit(lines, result, record, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    return 0 if failed == 0 else 1


def growth_lines(workload: str, passes: list) -> list:
    """Per-rank growth of the median op latency (a diagnostic, not a metric:
    cheaper small ranks raise it)."""
    if workload not in ("characters", "degrees"):
        return []
    by_key = {}
    for p in passes:
        for step, (lat, _) in zip(p["steps"], p["ops"]):
            by_key.setdefault(step["key"], []).append(lat)
    med = {key: statistics.median(v) for key, v in by_key.items()}
    pairs = ([("char-table --n 5", "char-table --n 6")] if workload == "characters" else
             [(f"{cmd} --n 12", f"{cmd} --n 13") for cmd in ("generic-degrees", "schur-elements")])
    return [f"growth {hi} / {lo.rsplit(' ', 1)[-1]}: {med[hi] / med[lo]:.2f}x" for lo, hi in pairs]


if __name__ == "__main__":
    sys.exit(main())
