"""Layer tracing from outside the library.

The tracer replaces each listed public function with a wrapper in every
``winfty`` module namespace that holds it (``onevar`` and ``intermediate``
bind ``bracket``/``mul`` by ``from ... import``; ``weyl.bracket`` calls
``mul`` through its module global), and wraps the ``Scalar``,
``WeylElement``, ``Lattice`` and ``GeneratedSubalgebra`` methods on their
classes.  Wrappers return results unchanged.  Each call records a span
(name, parent span, op, start, end, two counters) in flat arrays; the
per-layer metrics are derived from the span tree when the run ends.

A wrapper spends some time outside its own span but inside its parent's:
opening the span before the clock starts, and closing it and computing its
counters after the clock stops.  The counter time is clocked per span; the
rest is measured once per run on a wrapped no-op (``Tracer.calibrate``).
Both are taken off the parent's self time.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from winfty.lattice import Lattice
from winfty.onevar import GeneratedSubalgebra
from winfty.scalars import Scalar
from winfty.weyl import WeylElement


def _rational_operands(args, result) -> Tuple[int, int]:
    """1 when both factors of a Scalar product are rational constants."""
    other = args[1]
    rational = args[0].is_rational() and (not isinstance(other, Scalar)
                                          or other.is_rational())
    return int(rational), 0


def _mul_counts(args, result) -> Tuple[int, int]:
    x, y = args[0], args[1]
    return len(x.terms) * len(y.terms), len(result.terms)


# Module-level functions: (home module, attribute, span name, counter).
# A counter maps (args, result) to the span's two integer counters.
FUNCTIONS = (
    ("winfty.weyl", "mul", "weyl.mul", _mul_counts),
    ("winfty.weyl", "bracket", "weyl.bracket", lambda a, r: (len(r.terms), 0)),
    ("winfty.weyl", "cocycle", "weyl.cocycle", None),
    ("winfty.scalars", "binom", "scalars.binom", None),
    ("winfty.intermediate", "act", "intermediate.act", None),
    ("winfty.intermediate", "normalize_ddt_basis", "intermediate.normalize", None),
    ("winfty.weightlab", "build_p_series", "weightlab.build", None),
    ("winfty.weightlab", "build_f_polynomials", "weightlab.build", None),
    ("winfty.weightlab", "virasoro_consistency", "weightlab.claims", None),
    ("winfty.weightlab", "coefficient_claims", "weightlab.claims", None),
    ("winfty.weightlab", "verify_yk_relations", "weightlab.claims", None),
    ("winfty.parser", "parse", "parser.parse", lambda a, r: (len(a[0]), 0)),
    ("winfty.parser", "evaluate", "parser.evaluate", None),
    ("winfty.printer", "format_element", "printer.format", lambda a, r: (len(r), 0)),
)

# Methods wrapped on their class: (class, attribute, span name, counter).
METHODS = (
    (Scalar, "__mul__", "scalars.mul", _rational_operands),
    (Scalar, "__rmul__", "scalars.mul", _rational_operands),
    (Scalar, "__add__", "scalars.add", None),
    (Scalar, "__radd__", "scalars.add", None),
    (Scalar, "__sub__", "scalars.add", None),
    (Scalar, "__pow__", "scalars.pow", None),
    (Scalar, "exact_div", "scalars.exact_div", None),
    (Scalar, "substitute", "scalars.substitute", None),
    (WeylElement, "__add__", "weyl.add", None),
    (WeylElement, "to_power", "weyl.basis_convert", None),
    (WeylElement, "to_falling", "weyl.basis_convert", None),
    (Lattice, "membership", "lattice.membership", None),
    (Lattice, "ambient", "lattice.ambient", None),
    (GeneratedSubalgebra, "__init__", "onevar.closure",
     lambda a, r: (a[0].dimension, a[0].rounds)),
    (GeneratedSubalgebra, "membership", "onevar.membership", None),
    (GeneratedSubalgebra, "eval_word", "onevar.eval_word", None),
)

CALL_METRICS = (
    "scalars.mul", "scalars.add", "scalars.pow", "scalars.exact_div",
    "scalars.substitute", "scalars.binom",
    "lattice.membership", "lattice.ambient",
    "weyl.mul", "weyl.bracket", "weyl.cocycle", "weyl.add", "weyl.basis_convert",
    "onevar.membership", "onevar.eval_word",
    "intermediate.act",
    "parser.parse", "parser.evaluate", "printer.format",
)
SELF_ONLY = ("onevar.closure", "intermediate.normalize", "weightlab.build",
             "weightlab.claims")

OP_SPAN = "op"
CALIBRATION_CALLS = 2000
CALIBRATION_REPEATS = 7


class Tracer:
    """Span store plus the wrappers that fill it.

    Use as a context manager around traced ops: entering installs the
    wrappers, leaving restores every original binding.  Call ``calibrate``
    once before the metrics are read.
    """

    def __init__(self):
        self.names: List[str] = [OP_SPAN]
        self._name_ids: Dict[str, int] = {OP_SPAN: 0}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.a = array("q")
        self.b = array("q")
        self.counter_ns = array("q")
        self.overhead_ns = 0
        self._stack = [-1]
        self._op_index = -1
        self.active = False
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        """Append a span under the innermost open one and make it innermost."""
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_index)
        for column in (self.start, self.end, self.a, self.b, self.counter_ns):
            column.append(0)
        self._stack.append(sid)
        return sid

    def _wrap(self, fn: Callable, name: str, counter: Optional[Callable]) -> Callable:
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
            tracer.start[sid] = t0
            tracer.end[sid] = t1
            if counter is not None:
                tracer.a[sid], tracer.b[sid] = counter(args, result)
                tracer.counter_ns[sid] = clock() - t1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def run_op(self, index: int, fn: Callable):
        """Run one op under a root span; the op index tags every child span."""
        self._op_index = index
        sid = self._open(0)
        t0 = time.perf_counter_ns()
        try:
            return fn()
        finally:
            self.end[sid] = time.perf_counter_ns()
            self.start[sid] = t0
            self._stack.pop()

    def calibrate(self) -> int:
        """Nanoseconds a wrapped call costs its caller outside the call's span.

        Times CALIBRATION_CALLS calls of a wrapped and a bare no-op, takes the
        difference less the wrapped spans' own time, repeats, keeps the
        median and drops the calibration spans.
        """
        def noop(x, y):
            return None

        wrapped = self._wrap(noop, "trace.calibrate", None)
        clock = time.perf_counter_ns
        first = len(self.name)
        was_active, self.active = self.active, True
        samples = []
        for _ in range(CALIBRATION_REPEATS):
            t0 = clock()
            for _ in range(CALIBRATION_CALLS):
                noop(1, 2)
            bare = clock() - t0
            mark = len(self.name)
            t0 = clock()
            for _ in range(CALIBRATION_CALLS):
                wrapped(1, 2)
            traced = clock() - t0
            inside = sum(self.end[i] - self.start[i] for i in range(mark, len(self.name)))
            samples.append((traced - inside - bare) / CALIBRATION_CALLS)
        self.active = was_active
        for column in (self.name, self.parent, self.op, self.start, self.end,
                       self.a, self.b, self.counter_ns):
            del column[first:]
        samples.sort()
        self.overhead_ns = max(0, round(samples[len(samples) // 2]))
        return self.overhead_ns

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "winfty" or k.startswith("winfty.")) and m is not None]
        for home, attr, name, counter in FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(original, name, counter)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for cls, attr, name, counter in METHODS:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, counter))
        self.active = True
        return self

    def __exit__(self, *exc):
        self.active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        """Dump every span as tab-separated text, one line per span."""
        with open(path, "w") as fh:
            fh.write(f"# wrapper overhead outside each span: {self.overhead_ns} ns\n")
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\ta\tb\tcounter_ns\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t{names[self.name[i]]}\t"
                         f"{self.start[i]}\t{self.end[i]}\t{self.a[i]}\t{self.b[i]}\t"
                         f"{self.counter_ns[i]}\n")

    def metrics(self) -> Dict[str, float]:
        """Per-layer counts, self times and ratios, from the span tree.

        A span's self time is its duration minus that of its direct child
        spans and the tracer's own time around each of them (see the module
        docstring); the children of one span never overlap (one thread).
        """
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i] + self.counter_ns[i] + self.overhead_ns
        names = self.names
        calls: Dict[str, int] = {}
        self_ns: Dict[str, int] = {}
        a_sum: Dict[str, int] = {}
        b_sum: Dict[str, int] = {}
        nid = {name: i for i, name in enumerate(names)}
        bracket_id = nid.get("weyl.bracket", -2)
        mul_id = nid.get("weyl.mul", -2)
        closure_id = nid.get("onevar.closure", -2)
        mul_out_under_bracket = 0
        brackets_under_closure = 0
        for i in range(n):
            name = names[self.name[i]]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + dur[i] - child[i]
            a_sum[name] = a_sum.get(name, 0) + self.a[i]
            b_sum[name] = b_sum.get(name, 0) + self.b[i]
            p = parent[i]
            if p >= 0:
                if self.name[i] == mul_id and self.name[p] == bracket_id:
                    mul_out_under_bracket += self.b[i]
                if self.name[i] == bracket_id and self.name[p] == closure_id:
                    brackets_under_closure += 1

        def ratio(num, den):
            return num / den if den else 0.0

        out: Dict[str, float] = {}
        for name in CALL_METRICS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
        out["scalars.mul.rational_share"] = ratio(a_sum.get("scalars.mul", 0),
                                                  calls.get("scalars.mul", 0))
        out["weyl.mul.term_pairs"] = a_sum.get("weyl.mul", 0)
        out["weyl.mul.terms_out"] = b_sum.get("weyl.mul", 0)
        out["weyl.bracket.kept_ratio"] = ratio(a_sum.get("weyl.bracket", 0),
                                               mul_out_under_bracket)
        dimension = a_sum.get("onevar.closure", 0)
        out["onevar.closure.brackets"] = brackets_under_closure
        out["onevar.closure.dimension"] = dimension
        out["onevar.closure.rounds"] = b_sum.get("onevar.closure", 0)
        out["onevar.closure.accept_ratio"] = ratio(dimension, brackets_under_closure)
        out["parser.chars_in"] = a_sum.get("parser.parse", 0)
        out["printer.chars_out"] = a_sum.get("printer.format", 0)
        return out
