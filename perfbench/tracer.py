"""Spans around the calls into each qconn layer, recorded from outside.

Modules import functions by name, so each wrapper is installed where the
caller looks the name up (``qconn.certifier.decide_q_ge``, not
``qconn.spectral.decide_q_ge``); methods are wrapped on the ``Graph``
class.  A call site missing from the program (a later refactor may delete
it) is listed as absent and its metrics read zero; it never stops the run.

Every call is aggregated by (name, parent name) into calls, busy time and
self time (busy minus the busy time of wrapped children).  With
``keep_spans`` each call is also kept as a span (id, parent id, name,
start, end, self) in memory, to be written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

# (metric name, [(module, attribute path where callers look it up)], extra)
# ``extra`` names the work counters read from the call's result.
SITES = (
    ("graphs.parse_graph6", [("qconn.harness", "parse_graph6")], None),
    ("graphs.Graph.subgraph", [("qconn.graphs", "Graph.subgraph")], None),
    ("graphs.Graph.adjacency_bool", [("qconn.graphs", "Graph.adjacency_bool")], None),
    ("graphs.components", [("qconn.spectral", "components")], None),
    ("graphs.degree_profile", [("qconn.certifier", "degree_profile")], None),
    ("graphs.is_connected", [("qconn.harness", "is_connected")], None),
    ("graphs.iter_labeled_graphs", [("qconn.harness", "iter_labeled_graphs")], None),
    ("spectral.decide_q_ge", [("qconn.certifier", "decide_q_ge")], "decision"),
    ("spectral.q_index", [("qconn.certifier", "q_index")], "estimate"),
    ("spectral.decide_q_gt", [("qconn.harness", "decide_q_gt")], "decision"),
    ("connectivity.is_k_connected",
     [("qconn.certifier", "is_k_connected"), ("qconn.harness", "is_k_connected")], None),
    ("connectivity.local_connectivity", [("qconn.connectivity", "local_connectivity")], None),
    ("connectivity.is_k_connected_small", [("qconn.harness", "is_k_connected_small")], None),
    ("extremal.classify_membership",
     [("qconn.certifier", "classify_membership"), ("qconn.harness", "classify_membership")],
     "member"),
    ("certifier.certify", [("qconn.certifier", "certify")], None),
    ("harness.run_campaign", [("qconn.harness", "run_campaign")], None),
    ("harness.stream_corpus", [("qconn.harness", "stream_corpus")], None),
)
SITE_NAMES = tuple(name for name, _, _ in SITES)
LAYERS = ("graphs", "spectral", "connectivity", "extremal", "certifier", "harness")


class Tracer:
    def __init__(self, keep_spans: bool = False):
        self.keep_spans = keep_spans
        self.spans: list = []  # (id, parent id, name, start, end, self)
        self.agg: dict = {}  # (name, parent) -> [calls, busy, self]
        self.counters: dict = {}  # "<name>.<counter>" -> int
        self.found: list = []
        self.absent: list = []
        self._stack: list = []  # [name, span id, child busy]
        self._next_id = 0
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        self._stack.append([name, self._next_id, 0.0])
        return perf_counter()

    def _exit(self, start):
        end = perf_counter()
        name, sid, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        own = dur - child
        nested = any(frame[0] == name for frame in self._stack)
        key = (name, parent[0] if parent else None)
        row = self.agg.get(key)
        if row is None:
            row = self.agg[key] = [0, 0.0, 0.0]
        row[0] += 1
        if not nested:  # recursion: busy counts the outermost call only
            row[1] += dur
        row[2] += own
        if self.keep_spans:
            self.spans.append((sid, parent[1] if parent else 0, name, start, end, own))

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name, fn, extra):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    start = tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(start)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(start)
            if extra == "decision":
                decision, est = result
                tracer.count(name + ".iterations", est.iterations)
                if decision is None:
                    tracer.count(name + ".undecided")
            elif extra == "estimate":
                tracer.count(name + ".iterations", result.iterations)
            elif extra == "member" and result is not None:
                tracer.count(name + ".hits")
            return result
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every call site; may be repeated after ``uninstall``."""
        self.found, self.absent = [], []
        for name, places, extra in SITES:
            for module_name, path in places:
                site = f"{module_name}.{path}"
                try:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    self.absent.append(site)
                    continue
                setattr(owner, attr, self._wrap(name, original, extra))
                self._restore.append((owner, attr, original))
                self.found.append(site)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- summaries ------------------------------------------------------------

    def totals(self) -> dict:
        """Per metric name: calls, busy_s, self_s summed over parents."""
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SITE_NAMES}
        for (name, _), (calls, busy, own) in self.agg.items():
            row = out[name]
            row["calls"] += calls
            row["busy_s"] += busy
            row["self_s"] += own
        return out

    def edges(self) -> list:
        """Aggregates by (name, parent), for the trace file."""
        return [
            {"name": name, "parent": parent, "calls": calls, "busy_s": busy, "self_s": own}
            for (name, parent), (calls, busy, own) in sorted(
                self.agg.items(), key=lambda kv: -kv[1][1])
        ]
