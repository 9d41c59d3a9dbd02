"""Span tracing around rmrll's public functions, installed from outside.

``install`` replaces each traced function or method with a wrapper, in
every ``rmrll`` module namespace that holds it, so calls made inside
the library are traced as well as calls made by the benchmark.  Spans
are aggregated in memory as they close: per name (calls, seconds,
seconds covered by child spans) and per (parent, name) edge.  One
trial at m=6 makes about 2**15 prefix encodes, so keeping every span
would hold millions of records; the aggregate keeps what the per-layer
metrics and the trace file need.

Spans are recorded only while an operation or the set-up runs
(``begin``/``end``), so the benchmark's own checks, which call the
library too, do not enter the trace.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

ROOTS = {"setup": "bench.setup", "ops": "bench.op"}  # root span of each scope

# (module, attribute path, span name); methods are patched on their class.
SPANS = (
    ("coset", "build_plan", "coset.build_plan"),
    ("coset", "encode", "coset.encode"),
    ("coset", "decode", "coset.decode"),
    ("gf2", "BinaryMatrix.column_submatrix", "gf2.column_submatrix"),
    ("gf2", "BinaryMatrix.solve_right", "gf2.solve_right"),
    ("gf2", "BinaryMatrix.vecmat", "gf2.vecmat"),
    ("gf2", "BinaryMatrix.rref", "gf2.rref"),
    ("gf2", "BinaryMatrix.rank", "gf2.rank"),
    ("gf2", "BinaryMatrix.rank_of_columns", "gf2.rank_of_columns"),
    ("rll", "enumerative_encode", "rll.enumerative_encode"),
    ("rll", "enumerative_decode", "rll.enumerative_decode"),
    ("rm", "RmCode.__init__", "rm.RmCode"),
    ("rm", "complement_basis", "rm.complement_basis"),
    ("ordering", "run_profile", "ordering.run_profile"),
    ("subcodes", "build_subcode", "subcodes.build_subcode"),
    ("subcodes", "RllSubcode.encode", "subcodes.RllSubcode.encode"),
    ("channels", "trial_stream", "channels.trial_stream"),
    ("channels", "BEC.transmit", "channels.transmit"),
    ("channels", "BSC.transmit", "channels.transmit"),
    ("cli", "main", "cli.main"),
)

# Called hundreds of thousands of times per flip-channel trial from
# inside enumerative coding: counted, not timed, so its time stays in
# the caller's self time.
COUNTERS = (("rll", "count_constrained", "rll.count_constrained"),)

DECODE_STATUSES = ("message", "ambiguous", "failure")


class Tracer:
    """In-memory span aggregate for one benchmark process."""

    def __init__(self):
        self.scopes = {"setup": {}, "ops": {}}  # scope -> name -> [calls, s, child_s]
        self.edges = {"setup": {}, "ops": {}}  # scope -> (parent, name) -> [calls, s]
        self.counts = {"setup": {}, "ops": {}}  # scope -> name -> count
        self._scope = None
        self._stack = []  # open spans as [name, child seconds]

    def begin(self, scope: str) -> None:
        self._scope = scope
        self._stack = [[ROOTS[scope], 0.0]]

    def end(self, seconds: float) -> None:
        """Close the root span; ``seconds`` is its measured duration."""
        root, child_seconds = self._stack[0]
        self._close(root, None, seconds, child_seconds)
        self._scope = None
        self._stack = []

    def count(self, name: str) -> None:
        table = self.counts[self._scope]
        table[name] = table.get(name, 0) + 1

    def _close(self, name, parent, seconds, child_seconds):
        stat = self.scopes[self._scope].setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += seconds
        stat[2] += child_seconds
        edge = self.edges[self._scope].setdefault((parent, name), [0, 0.0])
        edge[0] += 1
        edge[1] += seconds

    def span(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._scope is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0]
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][1] += elapsed
                tracer._close(name, parent, elapsed, frame[1])
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._scope is not None:
                tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def value(self, name: str, field: str, ops: int) -> float:
        """Set-up total plus per-operation total of one span field.

        ``field`` is "calls", "s", "self_s" or "count"; each traced name
        occurs in only one of the two scopes of a workload.
        """
        total = 0.0
        for scope, divisor in (("setup", 1), ("ops", ops)):
            if field == "count":
                raw = self.counts[scope].get(name, 0)
            else:
                calls, seconds, child = self.scopes[scope].get(name, (0, 0.0, 0.0))
                raw = {"calls": calls, "s": seconds, "self_s": seconds - child}[field]
            total += raw / divisor
        return total

    def dump(self) -> dict:
        """JSON-ready aggregate: per-name stats and parent edges per scope."""
        return {
            scope: {
                "spans": {
                    name: {"calls": c, "s": s, "self_s": s - ch}
                    for name, (c, s, ch) in sorted(self.scopes[scope].items())
                },
                "edges": [
                    {"parent": p, "name": n, "calls": c, "s": s}
                    for (p, n), (c, s) in sorted(
                        self.edges[scope].items(), key=lambda e: (str(e[0][0]), e[0][1])
                    )
                ],
                "counts": dict(sorted(self.counts[scope].items())),
            }
            for scope in ("setup", "ops")
        }


def _replace_everywhere(original, wrapped) -> None:
    """Point every rmrll module attribute bound to ``original`` at ``wrapped``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "rmrll" or mod_name.startswith("rmrll.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, wrapped)


def install(tracer: Tracer, rmrll) -> None:
    """Wrap the traced functions of an imported rmrll package."""

    def on_decode(result):
        tracer.count(f"coset.decode.{result.status}")

    def patch(module_name, attr, make):
        module = getattr(rmrll, module_name)
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, fn_name, make(owner.__dict__[fn_name]))
        else:
            original = getattr(module, fn_name)
            _replace_everywhere(original, make(original))

    for module_name, attr, name in SPANS:
        hook = on_decode if name == "coset.decode" else None
        patch(module_name, attr, lambda fn, n=name, h=hook: tracer.span(n, fn, h))
    for module_name, attr, name in COUNTERS:
        patch(module_name, attr, lambda fn, n=name: tracer.counter(n, fn))
