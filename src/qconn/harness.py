"""Verification campaigns, corpus streaming, and JSON reports.

Campaigns are deterministic: the random seed fully determines randomized
runs, enumerations walk a fixed order, and when sharded across workers
the partial results are merged in task order, so two runs with the same
config produce byte-identical reports apart from the timing block.

Violations always carry the offending graph in graph6 form so they can be
replayed through the ``certify-one`` mode (or the CLI ``certify`` verb).
The sweeps' batched kernels live in ``qconn.graphs``; only their policy is here.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, List, Optional

import numpy as np

from . import certifier
from .connectivity import density_parameter_failures, density_rhs, is_k_connected, is_k_connected_small
from .extremal import ExtremalParams, classify_membership, family_members, threshold_F
from .graphs import (
    MAX_ORDER,
    Graph,
    Graph6Error,
    complete,
    count_labeled_graphs,
    is_connected,
    iter_labeled_graphs,  # unused here; perfbench's tracer counts its calls on this module
    parse_graph6,
    write_graph6,
    _ENUMERATION_BLOCK,
    _ENUMERATION_MAX_N,
    _block_graphs,
    _density_block,
    _graph_from_bool,
    _labeled_block,
    _rows_and_degrees,
)
from .spectral import _edge_bound_rungs, decide_q_gt, q_upper_bound_edges

SCHEMA_VERSION = 1


class CampaignError(ValueError):
    pass


class RandomGraphError(RuntimeError):
    """Rejection sampling budget exhausted without an admissible graph."""


@dataclass
class CampaignConfig:
    """One campaign's parameters; ``mode`` names a ``RUNNERS`` entry.

    ``workers`` shards only ``lemma22``, ``lemma23`` and ``counterexample``
    across processes; the other modes run serially and ignore it.  No
    field is a tolerance: every verdict a campaign counts is exact, and
    the family checks read each member's one estimate.
    """

    mode: str
    k: int = 3
    delta: int = 3
    n: Optional[int] = None
    n_min: int = 2
    n_max: int = 7
    seed: int = 0
    count: int = 10_000
    edge_probability: float = 0.5
    min_degree_floor: Optional[int] = None
    complement_budget: Optional[int] = None
    input_path: Optional[str] = None
    output_path: Optional[str] = None
    workers: int = 1

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    """A campaign's tally, and the one type that carries partial results.

    ``record`` counts one tested case and, given a detail, keeps it as a
    violation.  A sharded campaign fills one partial ``Report`` per task
    (mode and config left empty; it pickles across the process pool), and
    ``merge`` folds the partials into the campaign's report in task order.
    """

    mode: str = ""
    config: dict = field(default_factory=dict)
    tested: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    undecided: int = 0
    violations: List[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    items: List[dict] = field(default_factory=list)
    wall_clock_s: float = 0.0

    def record(self, ok: Optional[bool], g: Optional[Graph] = None,
               detail: Optional[str] = None, **extra) -> None:
        """Count one case: True passed, False failed, None undecided.  A
        ``detail`` also records the violation ``{"graph6", "detail",
        **extra}``, with graph6 "" when there is no graph."""
        self.tested += 1
        if ok is None:
            self.undecided += 1
        elif ok:
            self.passed += 1
        else:
            self.failed += 1
        if detail is not None:
            self.violations.append({"graph6": "" if g is None else write_graph6(g),
                                    "detail": detail, **extra})

    def skip(self) -> None:
        """Count one case that could not be tested."""
        self.tested += 1
        self.skipped += 1

    def merge(self, part: "Report") -> None:
        """Add a partial report: counters and numbers in ``details`` are
        summed, lists extended, and dict tallies summed key by key."""
        for name in ("tested", "passed", "failed", "skipped", "undecided"):
            setattr(self, name, getattr(self, name) + getattr(part, name))
        self.violations.extend(part.violations)
        self.items.extend(part.items)
        for key, val in part.details.items():
            if isinstance(val, dict):
                tally = self.details.setdefault(key, {})
                for name, count in val.items():
                    tally[name] = tally.get(name, 0) + count
            else:
                self.details[key] = self.details.get(key, 0) + val

    def counters_consistent(self) -> bool:
        return self.tested == self.passed + self.failed + self.skipped + self.undecided

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "mode": self.mode,
            "config": self.config,
            "tested": self.tested,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "undecided": self.undecided,
            "violations": self.violations,
            "details": self.details,
            "items": self.items,
        }
        if include_timing:
            out["timing"] = {"wall_clock_s": self.wall_clock_s}
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=2)

    def canonical_json(self) -> str:
        """Byte-reproducible serialization (timing excluded)."""
        return json.dumps(self.to_dict(include_timing=False), sort_keys=True)


# -- deterministic random graphs ------------------------------------------------

_RANDOM_GRAPH_TRIES = 200  # draws before ``random_graph`` gives up


def random_graph(n: int, edge_probability: float, min_degree_floor: int = 0,
                 seed=None) -> Graph:
    """Seeded uniform edge sampling, rejected until connected with the
    requested minimum degree, at most ``_RANDOM_GRAPH_TRIES`` draws.  Fully
    deterministic per seed."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    # row-major strict upper triangle: the itertools.combinations pair order
    upper = ~np.tri(n, dtype=bool)
    for _ in range(_RANDOM_GRAPH_TRIES):
        a = np.zeros((n, n), dtype=bool)
        a[upper] = rng.random(n * (n - 1) // 2) < edge_probability
        a |= a.T
        g = _graph_from_bool(a)
        if min(g.degrees(), default=0) >= min_degree_floor and is_connected(g):
            return g
    raise RandomGraphError(
        f"no connected graph with min degree >= {min_degree_floor} "
        f"in {_RANDOM_GRAPH_TRIES} draws (n={n}, p={edge_probability})"
    )


# -- corpus streaming ------------------------------------------------------------


class CorpusError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def read_corpus(source: str) -> Iterator[Graph]:
    """Yield the graphs of a newline-separated graph6 corpus in order.

    ``source`` is a path, or ``"-"`` for standard input (left open).  Lines
    are read and parsed one at a time, blank lines are skipped, and a
    malformed line raises ``CorpusError`` with its line number.
    """
    with nullcontext(sys.stdin.buffer) if source == "-" else open(source, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                g = parse_graph6(line)
            except Graph6Error as exc:
                raise CorpusError(str(exc), lineno) from exc
            yield g


def stream_corpus(path: str, consumer: Callable[[Graph], None]) -> int:
    """Deliver each graph of a graph6 corpus to ``consumer`` in order and
    return how many were delivered; a malformed line raises ``CorpusError``."""
    delivered = 0
    for g in read_corpus(path):
        consumer(g)
        delivered += 1
    return delivered


# -- campaign internals -----------------------------------------------------------


def _run_tasks(report: Report, tasks: list, fn: Callable[[tuple], Report], workers: int) -> None:
    """Run ``fn`` on each task, across ``workers`` processes when more than
    one, and merge the partial reports into ``report`` in task order."""
    if workers <= 1 or len(tasks) <= 1:
        parts = map(fn, tasks)
    else:
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(fn, tasks))
    for part in parts:
        report.merge(part)


_LEMMA22_SLACK = 1e-9  # added to the edge bound before the strict test q > bound
# every this-many-th edge mask of an order also takes the scalar decision
_LEMMA22_STRIDE = 10_000
# orders up to this one (43 connected graphs in all) take it on every graph
_LEMMA22_SCALAR_N = 4


def _lemma22_chunk(task: tuple) -> Report:
    """Edge masks ``lo..hi-1`` of the edge-bound sweep at order n, in mask
    order, built in blocks of ``_ENUMERATION_BLOCK`` masks.

    ``spectral._edge_bound_rungs`` settles the connected graphs of each
    ``_labeled_block`` by exact rungs (2 max degree, v0 = d + 1, v1 = Q v0),
    each proving q <= B = (2m + (n - 1)(n - 2)) / (n - 1), which is at most
    the float bound plus ``_LEMMA22_SLACK`` (the float bound rounds B by a
    few ulps).  So every inequality a rung proves at B holds strictly at the
    scalar threshold, where ``decide_q_gt`` tries the same vectors in the
    same order, and answers False on every graph the batch settles.  Graphs
    no rung settles, every ``_LEMMA22_STRIDE``-th mask however the batch
    settled it, and every graph of an order up to ``_LEMMA22_SCALAR_N``
    take that scalar decision in mask order, one ``record`` each, so
    violations come from the scalar path only and the report's bytes are
    those of a per-graph sweep.
    """
    n, lo, hi = task
    part = Report(details={"enumerated": hi - lo})
    for start in range(lo, hi, _ENUMERATION_BLOCK):
        words, connected = _labeled_block(n, start, min(start + _ENUMERATION_BLOCK, hi))
        kept = np.flatnonzero(connected)
        rows, degs = _rows_and_degrees(words[kept], n)
        rung = _edge_bound_rungs(rows, degs, n)
        scalar = (rung == 0) | ((start + kept + 1) % _LEMMA22_STRIDE == 0) | (n <= _LEMMA22_SCALAR_N)
        settled = len(kept) - int(scalar.sum())
        part.passed += settled
        part.tested += settled
        for g in _block_graphs(rows[scalar], degs[scalar], itertools.repeat(True)):  # all connected
            bound = q_upper_bound_edges(g)
            verdict, est = decide_q_gt(g, bound + _LEMMA22_SLACK)
            if verdict is False:
                part.record(True)
                continue
            bracket = f"[{est.lower:.12g}, {est.upper:.12g}]"
            part.record(None if verdict is None else False, g,
                        f"q in {bracket} exceeds bound {bound:.12g}" if verdict
                        else f"undecided: bracket {bracket} vs bound {bound:.12g}")
    return part


def _run_lemma22(config: CampaignConfig, report: Report) -> None:
    if config.n_max > _ENUMERATION_MAX_N:
        raise CampaignError(f"edge-bound sweep is exhaustive only up to n={_ENUMERATION_MAX_N}")
    n_min = max(2, config.n_min)  # the edge bound divides by n - 1
    if n_min > config.n_max:
        raise CampaignError(f"n_max={config.n_max} is below 2, the smallest order the sweep tests"
                            if config.n_max < 2 else f"n_min={config.n_min} exceeds n_max={config.n_max}")
    tasks = []
    chunk = 1 << 16
    for n in range(n_min, config.n_max + 1):
        total = count_labeled_graphs(n)
        for lo in range(0, total, chunk):
            tasks.append((n, lo, min(lo + chunk, total)))
    _run_tasks(report, tasks, _lemma22_chunk, config.workers)
    report.details["n_range"] = [n_min, config.n_max]
    report.details["slack"] = _LEMMA22_SLACK
    by_order: dict = {}
    for violation in report.violations:
        n = parse_graph6(violation["graph6"]).n
        by_order[str(n)] = by_order.get(str(n), 0) + 1
    # empirical hypothesis domain: orders with no recorded violation
    report.details["violations_by_order"] = by_order


# graphs per lemma23 task: bounds a task's arrays and balances the workers
_LEMMA23_BLOCK = 1 << 16
# every this-many-th graph of a complement size takes the scalar checks too
_LEMMA23_STRIDE = 100_000


def _lemma23_chunk(task: tuple) -> Report:
    """Ranks ``lo..hi-1`` of the complement subsets of one size in the
    density-condition sweep, in ``itertools.combinations`` order.

    ``graphs._density_block`` skips the graphs of minimum degree below
    delta and settles the rest by the batched k-connectivity test.  No
    admitted graph is disconnected: one with minimum degree at least delta
    misses at least (delta+1)(n-delta-1) edges, more than any size
    ``_run_lemma23`` sweeps.  Graphs the batch rejects, and every
    ``_LEMMA23_STRIDE``-th graph of the size however the batch settled it,
    take the scalar path in rank order, one ``record`` each: the batch,
    ``is_k_connected_small`` and max flow must agree, and a graph that is
    not k-connected must be a member of the extremal construction.
    """
    n, k, delta, size, lo, hi = task
    m = n * (n - 1) // 2 - size
    count = hi - lo
    part = Report(details={"enumerated": count, "exceptional": 0, "crosschecked": 0})
    kept, kernel_ok, rows, degs = _density_block(n, k, delta, size, lo, hi)
    scalar = ~kernel_ok | ((lo + kept + 1) % _LEMMA23_STRIDE == 0)  # 1-based position within the size
    part.skipped = count - len(kept)
    part.passed = len(kept) - int(scalar.sum())
    part.tested = part.skipped + part.passed
    picked = kept[scalar]
    for g, batch_ok in zip(_block_graphs(rows[picked], degs[picked], itertools.repeat(False)),
                           kernel_ok[scalar].tolist()):
        subset_ok, _ = is_k_connected_small(g, k)
        flow_ok, _ = is_k_connected(g, k)
        part.details["crosschecked"] += 1
        if not batch_ok == subset_ok == flow_ok:
            part.record(False, g, f"connectivity checks disagree: batched {batch_ok}, "
                                  f"subset {subset_ok}, max-flow {flow_ok}")
        elif batch_ok:
            part.record(True)
        elif classify_membership(g, k, delta, permissive=True) is None:
            part.record(False, g, f"density condition met (m={m} > {density_rhs(n, k, delta)}) but "
                                  f"neither {k}-connected nor a subgraph of the extremal construction")
        else:
            part.details["exceptional"] += 1
            part.record(True)
    return part


def _run_lemma23(config: CampaignConfig, report: Report) -> None:
    n = config.n if config.n is not None else 8
    k, delta = config.k, config.delta
    if n > 8:
        raise CampaignError("density sweep is exhaustive only up to n=8")
    failures = density_parameter_failures(n, k, delta)
    if failures:
        raise CampaignError("density sweep outside the lemma's hypotheses: " + "; ".join(failures))
    npairs = n * (n - 1) // 2
    # m > density_rhs means the complement has at most this many edges
    limit = npairs - density_rhs(n, k, delta) - 1
    budget = limit if config.complement_budget is None else config.complement_budget
    if not 0 <= budget <= limit:
        raise CampaignError(f"complement budget {budget} outside [0, {limit}]: a larger "
                            f"complement fails the density condition m > rhs")
    tasks = []
    for size in range(budget + 1):
        total = math.comb(npairs, size)
        for lo in range(0, total, _LEMMA23_BLOCK):
            tasks.append((n, k, delta, size, lo, min(lo + _LEMMA23_BLOCK, total)))
    _run_tasks(report, tasks, _lemma23_chunk, config.workers)
    report.details["n"] = n
    report.details["complement_budget"] = budget
    report.details["universe"] = sum(math.comb(npairs, c) for c in range(budget + 1))


def _counterexample_chunk(task: tuple) -> Report:
    lo, hi, seed, n, k, p, floor = task
    part = Report(details={"outcomes": {}})
    outcomes = part.details["outcomes"]
    for idx in range(lo, hi):
        try:
            g = random_graph(n, p, min_degree_floor=floor, seed=(seed, idx))
        except RandomGraphError:
            part.skip()
            continue
        verdict = certifier.certify(g, k)
        outcomes[verdict.outcome] = outcomes.get(verdict.outcome, 0) + 1
        if verdict.theorem_violation:
            part.record(False, g, f"theorem violation at index {idx}", outcome=verdict.outcome)
        else:
            part.record(None if verdict.outcome == certifier.UNDECIDED_NUMERIC else True)
    return part


def _run_counterexample(config: CampaignConfig, report: Report) -> None:
    n = config.n if config.n is not None else 103
    floor = config.min_degree_floor if config.min_degree_floor is not None else config.delta
    chunk = max(1, math.ceil(config.count / (config.workers * 4)))
    tasks = []
    for lo in range(0, config.count, chunk):
        tasks.append((lo, min(lo + chunk, config.count), config.seed, n,
                      config.k, config.edge_probability, floor))
    _run_tasks(report, tasks, _counterexample_chunk, config.workers)
    report.details["outcomes"] = dict(sorted(report.details.get("outcomes", {}).items()))
    report.details["n"] = n
    report.details["min_degree_floor"] = floor


def _run_theorem15(config: CampaignConfig, report: Report) -> None:
    n, k, delta = config.n if config.n is not None else 103, config.k, config.delta
    if k < 3:  # F(k, delta) is defined for k >= 3 only
        raise CampaignError(f"theorem15 outside the theorem's hypotheses: k >= 3 fails (k={k})")
    params = ExtremalParams(n, k, delta)
    floor = threshold_F(k, delta)
    if n < floor:
        raise CampaignError(f"theorem15 outside the theorem's hypotheses: n >= F(k, delta) fails "
                            f"(n={n}, F({k}, {delta}) = {floor})")
    expected = [("K_n", complete(params.n), certifier.K_CONNECTED_CERTIFIED)]
    for size in range(params.eprime_bound + 2):
        a1 = size <= params.eprime_bound
        label = f"A1 size {size}" if a1 else "A2"
        want = certifier.EXCEPTIONAL_FAMILY if a1 else certifier.CONDITION_NOT_MET
        expected += [(f"{label} {list(member.removed_edges)}", member.graph, want)
                     for member in family_members(params, size) if member.hypothesis_ok]
    for label, g, want in expected:
        verdict = certifier.certify(g, config.k)
        report.items.append({"label": label, "outcome": verdict.outcome, "expected": want})
        if verdict.theorem_violation:
            report.record(False, g, f"violation on {label}")
        elif verdict.outcome == want:
            report.record(True)
        else:
            report.record(False, g, f"{label}: outcome {verdict.outcome}, expected {want}")
    chain = certifier.verify_theorem_proof_chain(params)
    holds = chain.chain_holds and chain.identity_ok and chain.order_ge_F
    report.record(holds, detail=None if holds else "proof chain failed")
    report.details["proof_chain"] = chain.to_dict()


def _run_family_sweep(config: CampaignConfig, report: Report) -> None:
    params = ExtremalParams(config.n if config.n is not None else 103, config.k, config.delta)
    reports = [certifier.check_lemma_3_1(member)
               for size in range(params.eprime_bound + 1) for member in family_members(params, size)]
    a2 = family_members(params, params.eprime_bound + 1)  # built once, each estimate run once
    for member in a2:
        if not member.hypothesis_ok:
            report.skip()
            continue
        reports.append(certifier.check_lemma_3_2(member))
        reports.append(certifier.check_lemma_3_3(member))
    maximizer, scanned = certifier.select_max_member(a2)
    note = f"empirical over {len(scanned)} representatives"
    for checker in (certifier.check_orderings, certifier.check_lemma_3_7):
        rep = checker(maximizer, is_maximizer=True)
        rep.details["maximizer"] = note
        reports.append(rep)
    reports.append(certifier.check_lemma_3_8(a2))
    for rep in reports:
        report.record(rep.passed, detail=None if rep.passed else f"lemma {rep.lemma} failed")
        report.items.append(rep.to_dict())


def _run_certify_one(config: CampaignConfig, report: Report) -> None:
    if not config.input_path:
        raise CampaignError("certify-one needs an input corpus path")

    def certify_one(g: Graph) -> None:
        verdict = certifier.certify(g, config.k)
        report.items.append({"graph6": write_graph6(g), **verdict.to_dict()})
        if verdict.theorem_violation:
            report.record(False, g, "theorem violation")
        else:
            report.record(None if verdict.outcome == certifier.UNDECIDED_NUMERIC else True)

    stream_corpus(config.input_path, certify_one)


# the one mode table: ``CampaignConfig.mode`` and ``qconn sweep --mode`` name its keys
RUNNERS = {
    "lemma22": _run_lemma22,
    "lemma23": _run_lemma23,
    "theorem15": _run_theorem15,
    "family-sweep": _run_family_sweep,
    "counterexample": _run_counterexample,
    "certify-one": _run_certify_one,
}


def run_campaign(config: CampaignConfig) -> Report:
    if config.mode not in RUNNERS:
        raise CampaignError(f"unknown mode {config.mode!r}; choose from {tuple(RUNNERS)}")
    if config.workers < 1:
        raise CampaignError(f"workers must be at least 1, got {config.workers}")
    if config.count < 0:
        raise CampaignError(f"count must be nonnegative, got {config.count}")
    if config.n is not None and config.n > MAX_ORDER:  # before a graph of that order is built
        raise CampaignError(f"n={config.n} exceeds the codec limit {MAX_ORDER}")
    report = Report(mode=config.mode, config=config.to_dict())
    start = time.perf_counter()
    RUNNERS[config.mode](config, report)
    report.wall_clock_s = time.perf_counter() - start
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    return report
