"""In-memory spans around the public functions of ``almterm``.

The package is not edited: each traced function is replaced, for the length
of the traced run, at every module attribute through which a caller looks it
up (``almterm.decider.feasible_point``, ``almterm.lp.feasible_point``, ...).
A span records its name, start, end, parent, request id and thread, plus a few
counts taken from the call's arguments and result.

Self time: at every instant of a request, the innermost active spans (those
with no active child) share that instant evenly.  Without threads this is a
span's duration minus the time its children cover; with the CLI's thread pool
it splits the interpreter's time between the files analysed concurrently, so
the self times of a request always sum to its duration.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    sid: int
    name: str
    request: int
    parent: int | None
    thread: int
    start: int  # perf_counter_ns
    end: int = 0
    counts: dict[str, int] = field(default_factory=dict)


# (module, function) -> (measure from (args, result), the module attributes
# through which the package and the benchmark call it)
TRACED: dict[tuple[str, str], tuple[Callable[[tuple, Any], dict[str, int]] | None, tuple[str, ...]]] = {
    ("parser", "parse_program"): (lambda args, res: {"rules": len(res.rules)}, ("almterm", "almterm.cli")),
    ("binarize", "binarize"): (lambda args, res: {"rules_out": len(res.rules)}, ("almterm.decider",)),
    ("decider", "decide"): (None, ("almterm", "almterm.cli")),
    ("decider", "assemble"): (lambda args, res: {"rows": res.num_rows}, ("almterm.decider",)),
    ("decider", "coefficient_rows"): (lambda args, res: {"rows": len(res)}, ("almterm.decider",)),
    ("lp", "project_constraints"): (None, ("almterm.decider", "almterm.derivation")),
    ("lp", "deduplicate"): (lambda args, res: {"rows_kept": res.num_rows}, ("almterm.decider",)),
    ("lp", "feasible_point"): (None, ("almterm.lp", "almterm.decider", "almterm.derivation")),
    ("lp", "minimize"): (None, ("almterm.lp", "almterm.verifier", "almterm.derivation")),
    ("lp", "drop_redundant"): (
        lambda args, res: {"rows_in": args[0].num_rows, "rows_kept": res.num_rows},
        ("almterm.lp", "almterm.decider"),
    ),
    ("verifier", "verify"): (lambda args, res: {"checks": len(res.checks)}, ("almterm.cli", "almterm.derivation")),
    ("derivation", "step"): (None, ("almterm.derivation",)),
    ("derivation", "store_satisfiable"): (None, ("almterm.derivation",)),
    ("derivation", "compact_store"): (None, ("almterm.derivation",)),
    ("cli", "analyze_file"): (None, ("almterm.cli",)),
    ("cli", "main"): (None, ("almterm.cli",)),
}


# The decider looks up ``feasible_point`` only for the final solve of
# ``decide``; spans opened through that attribute are tagged ``solves`` so the
# solve can be told apart from the small satisfiability tests of lp.feasible.
SOLVE_HOLDER = "almterm.decider"


class Tracer:
    """Records spans while installed; one request at a time (closed loop)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._request = -1
        self._main: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        # worker threads of the CLI's pool start with an empty stack: their
        # spans belong under the innermost span of the thread that runs the
        # request (cli.main, waiting on the pool)
        if stack:
            parent = stack[-1]
        else:
            parent = self._main[-1] if self._main else None
        with self._lock:
            sid = self._next
            self._next += 1
        span = Span(sid, name, self._request, parent, threading.get_ident(), time.perf_counter_ns())
        stack.append(sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def request(self, rid: int) -> "_RequestSpan":
        return _RequestSpan(self, rid)

    def wrap(self, name: str, fn: Callable, measure) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if measure is not None:
                span.counts = measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        for (module, func), (measure, holders) in TRACED.items():
            original = getattr(importlib.import_module(f"almterm.{module}"), func)
            wrapper = self.wrap(f"{module}.{func}", original, measure)
            for holder in holders:
                mod = importlib.import_module(holder)
                if getattr(mod, func) is not original:
                    raise RuntimeError(f"{holder}.{func} is not almterm.{module}.{func}")
                self._saved.append((mod, func, original))
                if func == "feasible_point" and holder == SOLVE_HOLDER:
                    setattr(mod, func, self.wrap(f"{module}.{func}", original, lambda args, res: {"solves": 1}))
                else:
                    setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for mod, func, original in reversed(self._saved):
            setattr(mod, func, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for s in sorted(self.spans, key=lambda s: s.sid):
                out.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "request": s.request,
                            "parent": s.parent,
                            "thread": s.thread,
                            "start_ns": s.start,
                            "end_ns": s.end,
                            "counts": s.counts,
                        }
                    )
                    + "\n"
                )


class _RequestSpan:
    def __init__(self, tracer: Tracer, rid: int):
        self.tracer = tracer
        self.rid = rid

    def __enter__(self) -> Span:
        self.tracer._request = self.rid
        self.tracer._main = self.tracer._stack()
        self.span = self.tracer._open("request")
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.span)
        self.tracer._main = []


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time in seconds of every span of one request (see module
    docstring)."""
    events: list[tuple[int, int, int]] = []  # (time, 0=end/1=start, sid)
    by_id = {s.sid: s for s in spans}
    for s in spans:
        events.append((s.start, 1, s.sid))
        events.append((s.end, 0, s.sid))
    events.sort()
    active: set[int] = set()
    busy_children: dict[int, int] = defaultdict(int)
    own = {s.sid: 0.0 for s in spans}
    last = None
    for t, kind, sid in events:
        if last is not None and t > last and active:
            charged = [a for a in active if busy_children[a] == 0]
            share = (t - last) / len(charged)
            for a in charged:
                own[a] += share
        last = t
        parent = by_id[sid].parent
        if kind == 1:
            active.add(sid)
            if parent in by_id:
                busy_children[parent] += 1
        else:
            active.discard(sid)
            if parent in by_id:
                busy_children[parent] -= 1
    return {sid: ns / 1e9 for sid, ns in own.items()}


def layer_table(spans: list[Span], scale: dict[int, float]) -> tuple[dict[str, float], float]:
    """Per-name totals (``<name>.self_s``, ``<name>.calls`` and one entry per
    recorded count) over all requests, and the largest gap between a
    request's duration and the sum of its spans' self times.  Self times of
    request ``r`` are multiplied by ``scale[r]``."""
    per_request: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        per_request[s.request].append(s)
    totals: dict[str, float] = defaultdict(float)
    worst_gap = 0.0
    for group in per_request.values():
        own = self_times(group)
        root = next(s for s in group if s.name == "request")
        worst_gap = max(worst_gap, abs(sum(own.values()) - (root.end - root.start) / 1e9))
        factor = scale[root.request]
        for s in group:
            totals[f"{s.name}.self_s"] += own[s.sid] * factor
            totals[f"{s.name}.calls"] += 1
            for key, value in s.counts.items():
                totals[f"{s.name}.{key}"] += value
            if s.counts.get("solves"):
                totals[f"{s.name}.solve_self_s"] += own[s.sid] * factor
    return dict(totals), worst_gap
