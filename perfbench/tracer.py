"""Per-layer tracing of spinhecke from outside the package.

`install()` replaces every public function of every spinhecke module with a
recording wrapper, in every module namespace that bound it (`characters`
binds `expand_in_Q` by name, `cli` binds `reduce` and `multiply`, ...).  The
arithmetic methods of `Scalar` and `UPoly`, and the render methods of the
result classes, are patched on their classes.  The library itself is not
edited.

Each wrapped call is a span with a name, start, end, parent span and op id.
A span's self time is its duration minus the time its child spans cover.
Spans of the scalar methods (millions of calls) are folded into per-name
totals as they close; every other span is also kept in memory and written
out by `write_spans()` at the end of the process.

Layers are the modules (`_linalg` is the layer `linalg`).  Two extra groups
span modules: `scalars.gcd` (`UPoly.gcd` and `UPoly.divmod`, i.e. fraction
canonicalization) and `cli.render` (the `render`/`to_json`/`to_csv`/
`to_latex` methods).  A group's busy time is the time at least one of its
spans is open, so recursion is not counted twice.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
import types
from array import array

MODULES = (
    "scalars",
    "combinatorics",
    "hecke_clifford",
    "traces",
    "symfunc",
    "_linalg",
    "characters",
    "tensor_oracle",
    "spin_hecke",
    "cli",
)
LAYERS = tuple(m.lstrip("_") for m in MODULES)

# (module, class) -> methods wrapped on the class
SCALAR_METHODS = {
    ("scalars", "Scalar"): (
        "__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__", "inverse",
    ),
    ("scalars", "UPoly"): ("gcd", "divmod"),
}
RENDER_METHODS = {
    ("scalars", "Scalar"): ("render",),
    ("hecke_clifford", "AlgebraElement"): ("render",),
    ("traces", "ClassVector"): ("to_json",),
    ("characters", "CharacterTable"): ("to_json", "to_csv", "to_latex"),
    ("symfunc", "SymPoly"): ("to_json",),
}
GCD_GROUP = ("scalars.UPoly.gcd", "scalars.UPoly.divmod")


class _State:
    __slots__ = ("span", "op")

    def __init__(self):
        self.span = -1
        self.op = -1


class Tracer:
    """Span recorder and per-name/per-group accumulator for one process."""

    def __init__(self):
        self.names: list = []
        self.calls: list = []
        self.busy: list = []
        self.self_s: list = []
        self.depth: list = []
        self.groups: list = []
        self.gbusy: list = []
        self.gdepth: list = []
        self.stack: list = []
        self.state = _State()
        self.span_fid = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict = {}
        self.fid_of: dict = {}
        self.gid_of: dict = {}

    # -- registration --------------------------------------------------------

    def group(self, name: str) -> int:
        gid = self.gid_of.get(name)
        if gid is None:
            gid = self.gid_of[name] = len(self.groups)
            self.groups.append(name)
            self.gbusy.append(0.0)
            self.gdepth.append(0)
        return gid

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def wrap(self, fn, name: str, groups, record: bool, pre=None, post=None):
        fid = self.fid_of[name] = len(self.names)
        self.names.append(name)
        for lst, zero in ((self.calls, 0), (self.busy, 0.0), (self.self_s, 0.0), (self.depth, 0)):
            lst.append(zero)
        gids = tuple(self.group(g) for g in groups)
        clock = time.perf_counter
        stack, state = self.stack, self.state
        calls, busy, self_s, depth = self.calls, self.busy, self.self_s, self.depth
        gbusy, gdepth = self.gbusy, self.gdepth
        s_fid, s_parent, s_op = self.span_fid, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            frame = [0.0]
            stack.append(frame)
            depth[fid] += 1
            for g in gids:
                gdepth[g] += 1
            if record:
                parent = state.span
                idx = len(s_end)
                s_fid.append(fid)
                s_parent.append(parent)
                s_op.append(state.op)
                s_start.append(0.0)
                s_end.append(0.0)
                state.span = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                calls[fid] += 1
                self_s[fid] += dur - frame[0]
                depth[fid] -= 1
                if not depth[fid]:
                    busy[fid] += dur
                for g in gids:
                    gdepth[g] -= 1
                    if not gdepth[g]:
                        gbusy[g] += dur
                if record:
                    s_start[idx] = t0
                    s_end[idx] = t1
                    state.span = parent
            if post is not None:
                post(args, result)
            return result

        return wrapper

    # -- results ---------------------------------------------------------------

    def stats(self) -> dict:
        """Totals by span name, by group, and the extra counters."""
        return {
            "names": {
                name: {"calls": self.calls[i], "busy_s": self.busy[i], "self_s": self.self_s[i]}
                for i, name in enumerate(self.names)
                if self.calls[i]
            },
            "groups": {g: self.gbusy[i] for i, g in enumerate(self.groups)},
            "counters": dict(self.counters),
            "spans": len(self.span_end),
        }

    def write_spans(self, path) -> None:
        """Kept spans as gzipped CSV: a JSON header naming the span ids, then
        one `name_id,start,end,parent,op` line per span (parent -1: a root)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_end)):
                out.write(
                    f"{self.span_fid[i]},{self.span_start[i]:.9f},{self.span_end[i]:.9f},"
                    f"{self.span_parent[i]},{self.span_op[i]}\n"
                )


# ---------------------------------------------------------------------------
# counters measured at the layer boundaries


def _public_function(mod, attr: str, obj) -> bool:
    """A public function defined in `mod` (not one it imported)."""
    return (
        not attr.startswith("_")
        and isinstance(obj, types.FunctionType)
        and obj.__module__ == mod.__name__
    )


def _is_realint(x) -> bool:
    return x.den.is_one() and all(
        not c.im and c.re.denominator == 1 for c in x.num.coeffs.values()
    )


def _hooks(tracer: Tracer, mods: dict) -> dict:
    """name -> (pre, post) callbacks that measure sizes where the work is."""
    traces = mods["traces"]
    sympoly = mods["symfunc"].SymPoly

    def realint(args):
        a, b = args
        if type(a) is type(b) and _is_realint(a) and _is_realint(b):
            tracer.count("scalars.realint_hits")

    def multiply_post(args, result):
        tracer.maximum("hecke_clifford.multiply.terms_max", len(result.terms))

    def sympoly_post(args, result):
        if isinstance(result, sympoly):
            tracer.maximum("symfunc.terms_max", len(result.terms))

    def solve_pre(args):
        rows = args[0]
        tracer.count("linalg.cells", len(rows) * (len(rows[0]) if rows else 0))

    def apply_element_post(args, result):
        tracer.count("tensor_oracle.tuples_visited")
        vec = args[2]
        if len(vec) == 1:
            (tup,) = vec
            value = result.get(tup)
            if value is not None and not value.is_zero():
                tracer.count("tensor_oracle.diag_nonzero")

    memo_before = []

    def reduce_pre(args):
        memo_before.append(len(traces._MEMO))

    def reduce_post(args, result):
        tracer.count("traces.memo.new", len(traces._MEMO) - memo_before.pop())

    hooks = {
        "scalars.Scalar.__add__": (realint, None),
        "scalars.Scalar.__mul__": (realint, None),
        "hecke_clifford.multiply": (None, multiply_post),
        "linalg.solve_exact": (solve_pre, None),
        "tensor_oracle.apply_element": (None, apply_element_post),
        "traces.reduce": (reduce_pre, reduce_post),
    }
    symfunc = mods["symfunc"]
    for attr, obj in vars(symfunc).items():
        if _public_function(symfunc, attr, obj):
            hooks.setdefault(f"symfunc.{attr}", (None, sympoly_post))
    return hooks


def memo_sizes() -> dict:
    """Entries in the reduction and normal-form memos of this process."""
    traces = importlib.import_module("spinhecke.traces")
    hc = importlib.import_module("spinhecke.hecke_clifford")
    return {
        "traces.memo.entries": len(traces._MEMO),
        "traces.cpush_memo.entries": len(traces._CPUSH_MEMO),
        "hecke_clifford.push_memo.entries": len(hc._PUSH_MEMO),
    }


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and scalar/render methods."""
    mods = {m: importlib.import_module(f"spinhecke.{m}") for m in MODULES}
    hooks = _hooks(tracer, mods)
    wrapped = {}
    for mod_name, layer in zip(MODULES, LAYERS):
        mod = mods[mod_name]
        for attr, obj in list(vars(mod).items()):
            if not _public_function(mod, attr, obj):
                continue
            name = f"{layer}.{attr}"
            pre, post = hooks.get(name, (None, None))
            wrapped[id(obj)] = tracer.wrap(obj, name, (layer,), True, pre, post)
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and isinstance(obj, types.FunctionType):
                setattr(mod, attr, wrapped[id(obj)])
    for table, record in ((SCALAR_METHODS, False), (RENDER_METHODS, True)):
        for (mod_name, cls_name), methods in table.items():
            cls = getattr(mods[mod_name], cls_name)
            layer = mod_name.lstrip("_")
            for meth in methods:
                name = f"{layer}.{cls_name}.{meth}"
                groups = [layer]
                if name in GCD_GROUP:
                    groups.append("scalars.gcd")
                if record:
                    groups.append("cli.render")
                pre, post = hooks.get(name, (None, None))
                setattr(cls, meth, tracer.wrap(vars(cls)[meth], name, groups, record, pre, post))
