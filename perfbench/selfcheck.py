"""Fast self-check of the benchmark's own code: ``python3 perfbench/selfcheck.py``.

1. The oracles catch planted faults: a wrong outcome, a bracket that misses
   q, a theorem violation, an exception, a missing graph, wrong sweep
   counters or details, and canonical JSON that changes between passes.
2. The benchmark's graph6 encoder and E' orbit census agree with qconn's
   parser and orbit enumeration, and the tracer survives a call site that
   the program no longer has.
3. Every workload runs at toy size with ``--trace 0`` and ``--trace 1``,
   checks clean, prints every metric the README names, and ends with a JSON
   line holding exactly the metrics BENCHMARK.json lists.
4. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
import run

PRINTED = ("setup_s", "graphs_per_s", "peak_rss_mb", "failed_ratio")
PRINTED_CERTIFY = ("verdict_ms_p50", "verdict_ms_tail")
BRANCHES = {
    "certify-sparse": ("rejected_ms_p50", "hypothesis_failed_ms_p50"),
    "certify-dense": ("rejected_ms_p50", "certified_ms_p50", "exceptional_ms_p50"),
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def clean_certify_pass(expected) -> dict:
    return {
        "outcomes": [e.outcome for e in expected],
        "q_lower": [e.q - 1e-9 for e in expected],
        "q_upper": [e.q + 1e-9 for e in expected],
        "theorem_violation": [False] * len(expected),
        "errors": {},
    }


def check_planted_faults() -> None:
    corpus = inputs.certify_sparse(7, 8, 2)
    expected = corpus.expected
    good = clean_certify_pass(expected)
    expect(run.check_certify([good], expected)[1] == 0, "clean certify pass has no failures")
    plants = {
        "wrong outcome": lambda p: p["outcomes"].__setitem__(0, inputs.K_CONNECTED_CERTIFIED),
        "bracket above q": lambda p: p["q_lower"].__setitem__(1, expected[1].q + 1e-6),
        "bracket below q": lambda p: p["q_upper"].__setitem__(2, expected[2].q - 1e-6),
        "theorem violation": lambda p: p["theorem_violation"].__setitem__(3, True),
        "undecided outcome": lambda p: p["outcomes"].__setitem__(4, inputs.UNDECIDED_NUMERIC),
        "exception": lambda p: (p["outcomes"].__setitem__(5, None),
                                p["errors"].__setitem__("5", "RuntimeError()")),
        "missing graph": lambda p: [p[key].pop() for key in
                                    ("outcomes", "q_lower", "q_upper", "theorem_violation")],
    }
    for what, plant in plants.items():
        bad = copy.deepcopy(good)
        plant(bad)
        expect(run.check_certify([good, bad], expected)[1] == 1, f"certify oracle catches: {what}")

    want = inputs.lemma23_expected(8, 3, 3, 2)
    sweep = {"counters": dict(want["counters"]), "details": dict(want["details"]),
             "violations": 0, "canonical_sha256": "a", "errors": {}}
    expect(run.check_sweep([sweep, sweep], want)[1] == 0, "clean sweep passes have no failures")
    plants = {
        "counter off by one": lambda p: p["counters"].__setitem__("passed", p["counters"]["passed"] - 1),
        "detail changed": lambda p: p["details"].__setitem__("crosschecked", 1),
        "violation recorded": lambda p: p.__setitem__("violations", 1),
        "campaign exception": lambda p: p["errors"].__setitem__("campaign", "RuntimeError()"),
    }
    for what, plant in plants.items():
        bad = copy.deepcopy(sweep)
        plant(bad)
        expect(run.check_sweep([sweep, bad], want)[1] == 1, f"sweep oracle catches: {what}")
    drift = dict(sweep, canonical_sha256="b")
    expect(run.check_sweep([sweep, drift], want)[1] == 2,
           "sweep oracle catches: canonical JSON drift between passes")


def check_against_qconn() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from qconn import ExtremalParams, enumerate_Eprime_orbits, parse_graph6

    for adj in (inputs.family_graph(185, 3, 4, [(0, 5), (5, 6)]),
                inputs.gnp(np.random.default_rng(3), 103, 0.04, lambda a: True),
                inputs.gnp(np.random.default_rng(3), 9, 0.5, lambda a: True)):
        g = parse_graph6(inputs.graph6_line(adj))
        edges = {(int(u), int(v)) for u, v in zip(*np.nonzero(adj)) if u < v}
        expect(g.n == adj.shape[0] and set(g.edges()) == edges,
               f"graph6 encoder round-trips through qconn.parse_graph6 at n={g.n}")
    for n, k, delta in inputs.FAMILY_SCALES:
        params = ExtremalParams(n, k, delta)
        for size in range(params.eprime_bound + 2):
            ours = len(inputs.eprime_orbits(k, delta, size))
            theirs = len(enumerate_Eprime_orbits(params, size))
            expect(ours == theirs, f"orbit census ({n},{k},{delta}) size {size}: {ours} orbits")


def check_tracer_absent_site() -> None:
    """A call site a refactor removed reads as absent with zero calls."""
    import tracer as tracing
    from qconn import CampaignConfig, graphs, harness

    removed = graphs.Graph.subgraph
    del graphs.Graph.subgraph
    try:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            report = harness.run_campaign(CampaignConfig(mode="lemma22", n_min=2, n_max=4))
        finally:
            tracer.uninstall()
    finally:
        graphs.Graph.subgraph = removed
    totals = tracer.totals()
    expect(tracer.absent == ["qconn.graphs.Graph.subgraph"]
           and totals["graphs.Graph.subgraph"]["calls"] == 0,
           "tracer lists a removed call site as absent with 0 calls")
    expect(totals["spectral.decide_q_gt"]["calls"] == report.tested
           and totals["harness.run_campaign"]["calls"] == 1,
           "tracer counts the remaining call sites")


def run_toy(workload: str, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def check_toy_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json names the four workloads")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = run_toy(workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{tag} exits 0 ({proc.stderr.strip()[-200:]})")
            lines = proc.stdout.strip().splitlines()
            line = json.loads(lines[-1])
            expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{tag} result keys")
            expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                   f"{tag} checks clean")
            listed = spec["per_layer" if trace else "end_to_end"]
            expect(list(line["metrics"]) == [m["name"] for m in listed],
                   f"{tag} JSON line holds exactly the listed metrics")
            printed = {text.split()[0] for text in lines[1:-1] if text.startswith("  ")}
            names = PRINTED + (PRINTED_CERTIFY + BRANCHES[workload] if workload in BRANCHES else ())
            expect(set(names) <= printed, f"{tag} prints {', '.join(names)}")
            if trace:
                report_path = run.ROOT / lines[-2].split("report: ", 1)[1]
                report = json.loads(report_path.read_text())
                expect(not report["trace_sites_absent"], f"{tag} finds every traced call site")


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_toy("sweep-edge-bound-n6", 0, cwd=bare)
        expect(proc.returncode != 0 and "{" not in proc.stdout,
               "without the program the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    check_planted_faults()
    check_against_qconn()
    check_tracer_absent_site()
    check_bare_directory()
    check_toy_runs()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
