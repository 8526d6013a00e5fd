"""In-memory span tracer that wraps specbounds' public functions from the
outside, so the library itself carries no tracing code.

A span records its name, start and end (perf_counter_ns), its parent span
and the thread it ran on.  The parent is the innermost open span on the
same thread; a span opened on a worker thread with nothing open there takes
the innermost span open on the main thread (the estimator that submitted
the work) as its parent.  Self time subtracts only children on the same
thread, so a caller blocked on a thread pool keeps its waiting time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from pathlib import Path

# (module, attribute path) of every traced callable.  Classes are traced
# through their constructor.  Functions bound into other modules with
# "from X import f" are rebound at every site that holds them.
TARGETS = (
    ("cli", "main"),
    ("cli", "basic_corpus"),
    ("generators", "parse_family_spec"),
    ("generators", "random_profile"),
    ("generators", "random_symmetric"),
    ("profile", "StdDevProfile"),
    ("profile", "rearrange"),
    ("linalg", "spectral_norm"),
    ("linalg", "sym_eig"),
    ("linalg", "psd_split"),
    ("linalg", "operator_norm"),
    ("linalg", "split_invariant_violations"),
    ("montecarlo", "RandomStream.generator"),
    ("montecarlo", "sample_X"),
    ("montecarlo", "est_norm"),
    ("montecarlo", "est_rowmax"),
    ("montecarlo", "est_entrymax"),
    ("montecarlo", "est_gdot"),
    ("montecarlo", "est_ymax"),
    ("montecarlo", "est_distance_sq"),
    ("geometry", "natural_dist_sq"),
    ("geometry", "basic_gap"),
    ("geometry", "comparison_dist_sq"),
    ("geometry", "simplex_sup"),
    ("geometry", "violation_scan"),
    ("bounds", "compute_bound_report"),
    ("bounds", "optimize_gamma"),
    ("slicing", "verify_slice_inequality"),
    ("slicing", "slice_assembled_bound"),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr in TARGETS)

# Generator functions get one span per yielded item, not one per call.
PER_ITEM = {"cli.basic_corpus"}

# Indices into a span record.
NAME, START, END, PARENT, THREAD = range(5)


class Tracer:
    """Collects spans while installed; install() and uninstall() swap the
    wrappers in and out of the specbounds modules."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._main_thread = threading.main_thread()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        span = [name, time.perf_counter_ns(), 0, parent, threading.get_ident()]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack().pop()

    def discard(self, span: list) -> None:
        self._stack().pop()
        for k in range(len(self.spans) - 1, -1, -1):
            if self.spans[k] is span:
                del self.spans[k]
                return

    def wrap(self, name: str, fn):
        if name in PER_ITEM:
            @functools.wraps(fn)
            def per_item(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    span = self.begin(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        self.discard(span)
                        return
                    except BaseException:
                        self.end(span)
                        raise
                    self.end(span)
                    yield item

            return per_item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "specbounds" or key.startswith("specbounds."))]
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            owner = sys.modules[f"specbounds.{module_name}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            if isinstance(original, type):
                # Construction, including validation, is the class's __init__.
                self._patch(original, "__init__", self.wrap(name, original.__init__))
            elif path:
                self._patch(owner, leaf, self.wrap(name, original))
            else:
                wrapper = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def summarize(self) -> dict[str, dict]:
        """calls, busy_s and self_s per span name, over every span recorded."""
        child_ns: dict[int, int] = {}
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None and parent[THREAD] == span[THREAD]:
                child_ns[id(parent)] = child_ns.get(id(parent), 0) + span[END] - span[START]
        totals = {name: [0, 0, 0] for name in SPAN_NAMES}
        for span in self.spans:
            busy = span[END] - span[START]
            row = totals[span[NAME]]
            row[0] += 1
            row[1] += busy
            row[2] += busy - child_ns.get(id(span), 0)
        return {name: {"calls": c, "busy_s": b * 1e-9, "self_s": s * 1e-9}
                for name, (c, b, s) in totals.items()}

    def top_level_ns(self) -> int:
        """Total time covered by main-thread spans that have no parent."""
        main = threading.main_thread().ident
        return sum(s[END] - s[START] for s in self.spans
                   if s[PARENT] is None and s[THREAD] == main)

    def write(self, path: Path, meta: dict) -> None:
        """Write every span as one JSON line: [name, start_ns, end_ns,
        parent index or -1, thread index], after one header line."""
        index = {id(span): k for k, span in enumerate(self.spans)}
        threads: dict[int, int] = {}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({**meta, "fields": ["name", "start_ns", "end_ns",
                                                     "parent", "thread"]}) + "\n")
            for span in self.spans:
                parent = span[PARENT]
                thread = threads.setdefault(span[THREAD], len(threads))
                out.write(json.dumps([span[NAME], span[START], span[END],
                                      -1 if parent is None else index[id(parent)],
                                      thread]) + "\n")
