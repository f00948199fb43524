"""Spans and counts around the package's layers, installed from outside.

The package is not edited. Tracer.install() replaces each traced function
by a wrapper in every namespace of the package that holds it, since
modules import each other's functions by name (pipeline calls
express_in_classes, h_ranks, is_cocycle and cech_psi through its own
globals; cech calls cech_D, operator_int_rows and int_rank_sparse through
its own). Methods are wrapped on their class. Tracer.remove() puts every
original back.

A span records its name, start, end, parent span and op id. Spans are kept
in memory, in flat arrays, and written out once the run ends. A span's self
time is its duration minus the durations of its child spans; spans nest
because the benchmark runs one op at a time in one thread.

compute_tate is one function, so its stages are spans the tracer opens
itself: when compute_tate (or its current stage) directly calls a function
that starts a stage, the previous stage closes and the named one opens.
Stage spans are the children of compute_tate and the parents of the calls
made while they are open.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter

# (module, function or Class.method) pairs that get a span
SPANS = (
    ("pipeline", "compute_tate"), ("pipeline", "render_report"),
    ("pipeline", "verify_suite"), ("pipeline", "fiber_one_form_lines"),
    ("cech", "cech_D"), ("cech", "cech_frobenius"), ("cech", "cech_N"),
    ("cech", "cech_psi"), ("cech", "operator_int_rows"),
    ("cech", "operator_matrix"), ("cech", "express_in_classes"),
    ("cech", "h_ranks"), ("cech", "is_cocycle"), ("cech", "class_e1"),
    ("cech", "class_e2"), ("cech", "unit_class"), ("cech", "top_class"),
    ("linalg", "solve"), ("linalg", "row_reduce"),
    ("linalg", "int_rank_sparse"), ("linalg", "int_kernel_sparse"),
    ("linalg", "rank_at"), ("linalg", "kernel_basis"),
    ("kimhain", "UForm.d"), ("kimhain", "UForm.mul"), ("kimhain", "UForm.N"),
    ("kimhain", "UForm.frobenius"), ("kimhain", "UForm.evaluate"),
    ("kimhain", "UForm.restrict_nat"), ("kimhain", "UForm.restrict_twist"),
    ("charts", "ChartElement.mul"), ("charts", "ChartElement.d"),
    ("charts", "ChartElement.restrict_nat"),
    ("charts", "ChartElement.restrict_twist"),
    ("field", "KElement.inverse"), ("field", "KElement.expansion_str"),
    ("plog", "LogBranch.log"), ("plog", "log_one_unit"),
    ("phin", "matrix_inverse"), ("phin", "exp_unipotent"),
    ("phin", "FilteredPhiNModule.__init__"),
)
# called too often to time without swamping the trace: counted only
COUNTS = (
    ("field", "KElement.__mul__"), ("padic", "PadicScalar.__mul__"),
    ("padic", "PadicScalar.__add__"),
)
STAGE_NAMES = ("certify", "phi_n", "psi", "filtration", "h_ranks_hk",
               "h_ranks_dr")
# functions that, called straight from compute_tate, start a stage
STAGES = {
    "cech.class_e1": "certify", "cech.class_e2": "certify",
    "cech.unit_class": "certify", "cech.top_class": "certify",
    "cech.is_cocycle": "certify",
    "cech.cech_frobenius": "phi_n", "cech.cech_N": "phi_n",
    "cech.cech_psi": "psi",
    "pipeline.fiber_one_form_lines": "filtration",
    "cech.h_ranks": "h_ranks_",      # completed by the side of the spec
}
ROOT = "pipeline.compute_tate"
# layer work measured in its own units, beside the call counts
SIZES = {
    "cech.operator_int_rows": ("columns", lambda args: len(args[0])),
    "linalg.int_rank_sparse": ("nnz_in", lambda args: sum(map(len, args[0]))),
}


def _span_key(name: str) -> str:
    """Metric prefix of a span: a class constructor is named by its class."""
    return name[:-len(".__init__")] if name.endswith(".__init__") else name


class Tracer:
    """Records spans and counts for the package while installed."""

    def __init__(self, package):
        self.package = package
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.op_id = -1
        self.counts = Counter()
        self._restore = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -------------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        t = time.perf_counter()
        while self.stack and self.stack[-1] != i:   # stages left open
            self.end[self.stack.pop()] = t
        self.end[i] = t
        self.stack.pop()

    def _enter_stage(self, stage: str):
        """Open `stage` under compute_tate if compute_tate, or another stage,
        is making this call itself."""
        if not self.stack:
            return
        top = self.names[self.name[self.stack[-1]]]
        name = "pipeline.stage." + stage
        if top == name:
            return
        if top.startswith("pipeline.stage."):
            self.end[self.stack.pop()] = time.perf_counter()
        elif top != ROOT:
            return
        self._open(self._id(name))

    def _span_wrapper(self, name: str, fn):
        nid = self._id(name)
        stage = STAGES.get(name)
        size = SIZES.get(name)
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if stage is not None:
                tracer._enter_stage(stage + args[0].side if stage == "h_ranks_"
                                    else stage)
            if size is not None:
                counts[f"{name}.{size[0]}"] += size[1](args)
            i = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ------------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [self.package] + [m for k, m in sorted(sys.modules.items())
                                 if k.startswith(prefix) and m is not None]

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for table, make in ((SPANS, self._span_wrapper),
                            (COUNTS, self._count_wrapper)):
            for mod_name, attr in table:
                name = f"{mod_name}.{attr}"
                mod = sys.modules[f"{self.package.__name__}.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, make(name, orig))
                    continue
                orig = getattr(mod, attr)
                wrapped = make(name, orig)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._restore.append((m, key, orig))
                            setattr(m, key, wrapped)

    def remove(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer value the trace gives: self seconds and calls per
        traced function, inclusive seconds per stage, and the counts."""
        total, own, calls = self.self_times()
        out = {}
        for mod_name, attr in SPANS:
            key = _span_key(f"{mod_name}.{attr}")
            out[f"{key}.s"] = own[key]
            out[f"{key}.calls"] = calls[key]
        for stage in STAGE_NAMES:
            out[f"pipeline.stage.{stage}.s"] = total[f"pipeline.stage.{stage}"]
        for mod_name, attr in COUNTS:
            out[f"{mod_name}.{attr}.calls"] = 0
        for name, (unit, _) in SIZES.items():
            out[f"{name}.{unit}"] = 0
        out.update(self.counts)
        return out

    def self_times(self):
        """(inclusive seconds, self seconds, calls) per span name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, par in enumerate(self.parent):
            if par >= 0:
                child[par] += dur[i]
        total, own, calls = Counter(), Counter(), Counter()
        for i in range(n):
            key = _span_key(self.names[self.name[i]])
            total[key] += dur[i]
            own[key] += dur[i] - child[i]
            calls[key] += 1
        return total, own, calls

    def write(self, path):
        """Write spans and counts: one JSON header line, then the arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["start", "end", "name", "parent", "op"],
                  "counts": dict(self.counts)}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for key in header["arrays"]:
                getattr(self, key).tofile(fh)


def read_trace(path):
    """(header, arrays) of a file written by Tracer.write."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for key, code in zip(header["arrays"], "ddiii"):
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * header["spans"]))
            arrays[key] = arr
    return header, arrays
