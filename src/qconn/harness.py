"""Verification campaigns, corpus streaming, and JSON reports.

Campaigns are deterministic: the random seed fully determines randomized
runs, enumerations walk a fixed order, and when sharded across workers
the partial results are merged in task order, so two runs with the same
config produce byte-identical reports apart from the timing block.

Violations always carry the offending graph in graph6 form so they can be
replayed through the ``certify-one`` mode (or the CLI ``certify`` verb).
"""

from __future__ import annotations

import itertools
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, List, Optional

import numpy as np

from . import certifier
from .connectivity import is_k_connected, is_k_connected_small
from .extremal import (
    ExtremalParams,
    build_A,
    classify_membership,
    enumerate_Eprime_orbits,
    make_member,
    q_threshold,
)
from .graphs import (
    Graph,
    Graph6Error,
    complete,
    count_labeled_graphs,
    is_connected,
    iter_labeled_graphs,
    parse_graph6,
    write_graph6,
    _graph_from_bool,
    _reach_mask,
)
from .spectral import decide_q_gt, q_upper_bound_edges

SCHEMA_VERSION = 1

MODES = ("lemma22", "lemma23", "theorem15", "family-sweep", "counterexample", "certify-one")


class CampaignError(ValueError):
    pass


class RandomGraphError(RuntimeError):
    """Rejection sampling budget exhausted without an admissible graph."""


@dataclass
class CampaignConfig:
    mode: str
    k: int = 3
    delta: int = 3
    n: Optional[int] = None
    n_min: int = 2
    n_max: int = 7
    tolerance: float = 1e-9
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
    mode: str
    config: dict
    tested: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    undecided: int = 0
    violations: List[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    items: List[dict] = field(default_factory=list)
    wall_clock_s: float = 0.0

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


def random_graph(
    n: int,
    edge_probability: float,
    min_degree_floor: int = 0,
    seed=None,
    max_tries: int = 200,
) -> Graph:
    """Seeded uniform edge sampling, rejected until connected with the
    requested minimum degree.  Fully deterministic per seed."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    # row-major strict upper triangle: the itertools.combinations pair order
    upper = ~np.tri(n, dtype=bool)
    for _ in range(max_tries):
        a = np.zeros((n, n), dtype=bool)
        a[upper] = rng.random(n * (n - 1) // 2) < edge_probability
        a |= a.T
        g = _graph_from_bool(a)
        if min(g.degrees(), default=0) >= min_degree_floor and is_connected(g):
            return g
    raise RandomGraphError(
        f"no connected graph with min degree >= {min_degree_floor} "
        f"in {max_tries} draws (n={n}, p={edge_probability})"
    )


# -- corpus streaming ------------------------------------------------------------


class CorpusError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def stream_corpus(
    path: str,
    consumer: Callable[[Graph], None],
    lenient: bool = False,
    on_error: Optional[Callable[[int, str], None]] = None,
) -> int:
    """Parse a file of newline-separated graph6, delivering each graph in
    order.  Returns the number delivered; malformed lines abort unless
    ``lenient``, in which case they are reported and skipped."""
    delivered = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                g = parse_graph6(line)
            except Graph6Error as exc:
                if not lenient:
                    raise CorpusError(str(exc), lineno) from exc
                if on_error is not None:
                    on_error(lineno, str(exc))
                continue
            consumer(g)
            delivered += 1
    return delivered


# -- campaign internals -----------------------------------------------------------


def _merge_partials(report: Report, partials: Iterable[dict]) -> None:
    for part in partials:
        report.tested += part["tested"]
        report.passed += part["passed"]
        report.failed += part["failed"]
        report.skipped += part["skipped"]
        report.undecided += part["undecided"]
        report.violations.extend(part["violations"])
        for key, val in part.get("extras", {}).items():
            if isinstance(val, (int, float)):
                report.details[key] = report.details.get(key, 0) + val
            else:
                report.details.setdefault(key, []).extend(val)


def _run_tasks(tasks: list, fn: Callable[[tuple], dict], workers: int) -> List[dict]:
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _lemma22_chunk(task: tuple) -> dict:
    """One mask interval of the edge-bound sweep at a fixed order."""
    n, lo, hi, tolerance = task
    part = {"tested": 0, "passed": 0, "failed": 0, "skipped": 0, "undecided": 0,
            "violations": [], "extras": {"enumerated": 0}}
    slack = 1e-9
    for g in iter_labeled_graphs(n, mask_range=(lo, hi)):
        part["extras"]["enumerated"] += 1
        if not is_connected(g) or g.n < 2:
            continue
        part["tested"] += 1
        bound = q_upper_bound_edges(g)
        verdict, est = decide_q_gt(g, bound + slack, tolerance)
        if verdict is False:
            part["passed"] += 1
        elif verdict is True:
            part["failed"] += 1
            part["violations"].append({
                "graph6": write_graph6(g),
                "detail": f"q in [{est.lower:.12g}, {est.upper:.12g}] exceeds bound {bound:.12g}",
            })
        else:
            part["undecided"] += 1
            part["violations"].append({
                "graph6": write_graph6(g),
                "detail": f"undecided: bracket [{est.lower:.12g}, {est.upper:.12g}] vs bound {bound:.12g}",
            })
    return part


def _run_lemma22(config: CampaignConfig, report: Report) -> None:
    tasks = []
    chunk = 1 << 16
    for n in range(max(2, config.n_min), config.n_max + 1):
        total = count_labeled_graphs(n)
        for lo in range(0, total, chunk):
            tasks.append((n, lo, min(lo + chunk, total), config.tolerance))
    partials = _run_tasks(tasks, _lemma22_chunk, config.workers)
    _merge_partials(report, partials)
    report.details["n_range"] = [max(2, config.n_min), config.n_max]
    report.details["slack"] = 1e-9
    by_order: dict = {}
    for violation in report.violations:
        n = parse_graph6(violation["graph6"]).n
        by_order[str(n)] = by_order.get(str(n), 0) + 1
    # empirical hypothesis domain: orders with no recorded violation
    report.details["violations_by_order"] = by_order


def _lemma23_chunk(task: tuple) -> dict:
    """All complement subsets of one size in the density-condition sweep.

    Works directly on bit rows for throughput; every 100000th tested graph
    is cross-checked against the max-flow connectivity path.
    """
    n, k, delta, size, crosscheck_stride = task
    pairs = list(itertools.combinations(range(n), 2))
    full_rows = [((1 << n) - 1) & ~(1 << i) for i in range(n)]
    full_mask = (1 << n) - 1
    rhs = n * (n - 1) // 2 - (delta - k + 3) * (n - delta - 2)
    max_cdeg = n - 1 - delta
    part = {"tested": 0, "passed": 0, "failed": 0, "skipped": 0, "undecided": 0,
            "violations": [], "extras": {"enumerated": 0, "exceptional": 0, "crosschecked": 0}}
    npairs = len(pairs)
    for sub in itertools.combinations(range(npairs), size):
        part["extras"]["enumerated"] += 1
        part["tested"] += 1
        rows = full_rows[:]
        cdeg = [0] * n
        ok = True
        for e in sub:
            i, j = pairs[e]
            rows[i] &= ~(1 << j)
            rows[j] &= ~(1 << i)
            cdeg[i] += 1
            cdeg[j] += 1
            if cdeg[i] > max_cdeg or cdeg[j] > max_cdeg:
                ok = False
        if not ok:  # min degree below delta
            part["skipped"] += 1
            continue
        if _reach_mask(rows, 0, full_mask) != full_mask:
            part["skipped"] += 1
            continue
        m = n * (n - 1) // 2 - size
        if not m > rhs:
            part["skipped"] += 1
            continue
        g = Graph.from_rows(rows, validate=False)
        conn_ok, _ = is_k_connected_small(g, k)
        if crosscheck_stride and part["tested"] % crosscheck_stride == 0:
            flow_ok, _ = is_k_connected(g, k)
            part["extras"]["crosschecked"] += 1
            if flow_ok != conn_ok:
                part["failed"] += 1
                part["violations"].append({
                    "graph6": write_graph6(g),
                    "detail": "max-flow and subset connectivity checks disagree",
                })
                continue
        if conn_ok:
            part["passed"] += 1
            continue
        member = classify_membership(g, k, delta, permissive=True)
        if member is not None:
            flow_ok, _ = is_k_connected(g, k)  # exceptions are rare: verify both routes
            part["extras"]["crosschecked"] += 1
            if flow_ok:
                part["failed"] += 1
                part["violations"].append({
                    "graph6": write_graph6(g),
                    "detail": "subset check found a cut the max-flow path rejects",
                })
                continue
            part["extras"]["exceptional"] += 1
            part["passed"] += 1
        else:
            part["failed"] += 1
            part["violations"].append({
                "graph6": write_graph6(g),
                "detail": f"density condition met (m={m} > {rhs}) but neither "
                          f"{k}-connected nor a subgraph of the extremal construction",
            })
    return part


def _run_lemma23(config: CampaignConfig, report: Report) -> None:
    n = config.n if config.n is not None else 8
    k, delta = config.k, config.delta
    if n > 8:
        raise CampaignError("density sweep is exhaustive only up to n=8")
    budget = config.complement_budget
    if budget is None:
        # m > n(n-1)/2 - (delta-k+3)(n-delta-2) means the complement has
        # strictly fewer than (delta-k+3)(n-delta-2) edges
        budget = (delta - k + 3) * (n - delta - 2) - 1
    tasks = [(n, k, delta, size, 100_000) for size in range(budget + 1)]
    partials = _run_tasks(tasks, _lemma23_chunk, config.workers)
    _merge_partials(report, partials)
    report.details["n"] = n
    report.details["complement_budget"] = budget
    report.details["universe"] = count_labeled_graphs(n, complement_budget=budget)


def _counterexample_chunk(task: tuple) -> dict:
    lo, hi, seed, n, k, p, floor, tolerance = task
    part = {"tested": 0, "passed": 0, "failed": 0, "skipped": 0, "undecided": 0,
            "violations": [], "extras": {"outcomes": []}}
    outcomes: dict = {}
    for idx in range(lo, hi):
        try:
            g = random_graph(n, p, min_degree_floor=floor, seed=(seed, idx))
        except RandomGraphError:
            part["skipped"] += 1
            part["tested"] += 1
            continue
        verdict = certifier.certify(g, k, tolerance=tolerance)
        outcomes[verdict.outcome] = outcomes.get(verdict.outcome, 0) + 1
        part["tested"] += 1
        if verdict.theorem_violation:
            part["failed"] += 1
            part["violations"].append({
                "graph6": write_graph6(g),
                "detail": f"theorem violation at index {idx}",
                "outcome": verdict.outcome,
            })
        elif verdict.outcome == certifier.UNDECIDED_NUMERIC:
            part["undecided"] += 1
        else:
            part["passed"] += 1
    part["extras"]["outcomes"] = [outcomes]
    return part


def _run_counterexample(config: CampaignConfig, report: Report) -> None:
    n = config.n if config.n is not None else 103
    floor = config.min_degree_floor if config.min_degree_floor is not None else config.delta
    chunk = max(1, math.ceil(config.count / max(1, config.workers * 4)))
    tasks = []
    for lo in range(0, config.count, chunk):
        tasks.append((lo, min(lo + chunk, config.count), config.seed, n,
                      config.k, config.edge_probability, floor, config.tolerance))
    partials = _run_tasks(tasks, _counterexample_chunk, config.workers)
    merged_outcomes: dict = {}
    for part in partials:
        for hist in part["extras"].pop("outcomes"):
            for key, val in hist.items():
                merged_outcomes[key] = merged_outcomes.get(key, 0) + val
    _merge_partials(report, partials)
    report.details["outcomes"] = dict(sorted(merged_outcomes.items()))
    report.details["n"] = n
    report.details["min_degree_floor"] = floor


def _run_theorem15(config: CampaignConfig, report: Report) -> None:
    params = ExtremalParams(config.n if config.n is not None else 103, config.k, config.delta)
    expected = []
    kn = complete(params.n)
    expected.append(("K_n", kn, certifier.K_CONNECTED_CERTIFIED))
    for size in range(params.eprime_bound + 1):
        for rep in enumerate_Eprime_orbits(params, size):
            member = make_member(params, rep)
            if member.hypothesis_ok:
                expected.append((f"A1 size {size} {list(rep)}", member.graph,
                                 certifier.EXCEPTIONAL_FAMILY))
    for rep in enumerate_Eprime_orbits(params, params.eprime_bound + 1):
        member = make_member(params, rep)
        if member.hypothesis_ok:
            expected.append((f"A2 {list(rep)}", member.graph, certifier.CONDITION_NOT_MET))
    for label, g, want in expected:
        verdict = certifier.certify(g, config.k, tolerance=config.tolerance)
        report.tested += 1
        item = {"label": label, "outcome": verdict.outcome, "expected": want}
        report.items.append(item)
        if verdict.theorem_violation:
            report.failed += 1
            report.violations.append({"graph6": write_graph6(g), "detail": f"violation on {label}"})
        elif verdict.outcome == want:
            report.passed += 1
        else:
            report.failed += 1
            report.violations.append({
                "graph6": write_graph6(g),
                "detail": f"{label}: outcome {verdict.outcome}, expected {want}",
            })
    chain = certifier.verify_theorem_proof_chain(params)
    report.tested += 1
    if chain.chain_holds and chain.identity_ok and chain.order_ge_F:
        report.passed += 1
    else:
        report.failed += 1
        report.violations.append({"graph6": "", "detail": "proof chain failed"})
    report.details["proof_chain"] = chain.to_dict()


def _run_family_sweep(config: CampaignConfig, report: Report) -> None:
    params = ExtremalParams(config.n if config.n is not None else 103, config.k, config.delta)
    reports = []
    for size in range(params.eprime_bound + 1):
        for rep in enumerate_Eprime_orbits(params, size):
            reports.append(certifier.check_lemma_3_1(params, rep, config.tolerance))
    for rep in enumerate_Eprime_orbits(params, params.eprime_bound + 1):
        member = make_member(params, rep)
        if not member.hypothesis_ok:
            report.skipped += 1
            report.tested += 1
            continue
        reports.append(certifier.check_lemma_3_2(params, rep, config.tolerance))
        reports.append(certifier.check_lemma_3_3(member))
    maximizer, _, scanned = certifier.select_max_member(params, params.eprime_bound + 1)
    note = f"empirical over {len(scanned)} representatives"
    for checker in (certifier.check_orderings, certifier.check_lemma_3_7):
        rep = checker(maximizer, is_maximizer=True)
        rep.details["maximizer"] = note
        reports.append(rep)
    reports.append(certifier.check_lemma_3_8(params, config.tolerance))
    for rep in reports:
        report.tested += 1
        if rep.passed:
            report.passed += 1
        else:
            report.failed += 1
            report.violations.append({"graph6": "", "detail": f"lemma {rep.lemma} failed"})
        report.items.append(rep.to_dict())


def _run_certify_one(config: CampaignConfig, report: Report) -> None:
    if not config.input_path:
        raise CampaignError("certify-one needs an input corpus path")

    def certify_one(g: Graph) -> None:
        verdict = certifier.certify(g, config.k, tolerance=config.tolerance)
        report.tested += 1
        report.items.append({"graph6": write_graph6(g), **verdict.to_dict()})
        if verdict.theorem_violation:
            report.failed += 1
            report.violations.append({"graph6": write_graph6(g), "detail": "theorem violation"})
        elif verdict.outcome == certifier.UNDECIDED_NUMERIC:
            report.undecided += 1
        else:
            report.passed += 1

    stream_corpus(config.input_path, certify_one)


_RUNNERS = {
    "lemma22": _run_lemma22,
    "lemma23": _run_lemma23,
    "theorem15": _run_theorem15,
    "family-sweep": _run_family_sweep,
    "counterexample": _run_counterexample,
    "certify-one": _run_certify_one,
}


def run_campaign(config: CampaignConfig) -> Report:
    if config.mode not in _RUNNERS:
        raise CampaignError(f"unknown mode {config.mode!r}; choose from {MODES}")
    report = Report(mode=config.mode, config=config.to_dict())
    start = time.time()
    _RUNNERS[config.mode](config, report)
    report.wall_clock_s = time.time() - start
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    return report
