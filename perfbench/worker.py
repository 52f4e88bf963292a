"""One workload in a fresh interpreter: ``worker.py JOB [probe]``.

The job file (written by run.py) names the repository root, the workload
kind and its program-facing inputs: a graph6 corpus path or a campaign
config.  The worker imports qconn from ``<root>/src``, prepares the inputs
and notes the moment it is ready for the first timed call; a ``probe``
stops there and prints that moment, which run.py turns into a set-up
sample.  Otherwise it runs whole passes in a closed loop (one call after
another, single process, ``workers=1``) until the time is up; with
tracing on, untraced and traced passes take turns.  Raw outputs go to
the result file; run.py checks them against its oracles.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time


def load_qconn(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import qconn

    if not Path(qconn.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"qconn imported from {qconn.__file__}, not from {src}")
    return qconn


class CertifyRunner:
    """Streams the corpus through harness.stream_corpus into certify(g, 3);
    a graph is done when its verdict is serialised with to_dict()."""

    def __init__(self, corpus: str):
        from qconn import certifier, harness

        self.certifier = certifier
        self.harness = harness
        self.corpus = corpus
        self.tracer = None

    def one_pass(self) -> dict:
        certifier = self.certifier
        tracer = self.tracer
        outcomes, lower, upper, ms, violation, errors, spans = [], [], [], [], [], {}, []

        def consume(g):
            first_span = len(tracer.spans) if tracer else 0
            t0 = perf_counter()
            try:
                verdict = certifier.certify(g, 3).to_dict()
            except Exception as exc:  # recorded as a failed graph, run continues
                verdict = None
                errors[len(outcomes)] = repr(exc)
            ms.append((perf_counter() - t0) * 1e3)
            if verdict is None:
                outcomes.append(None)
                lower.append(None)
                upper.append(None)
                violation.append(False)
            else:
                outcomes.append(verdict["outcome"])
                lower.append(verdict["q_lower"])
                upper.append(verdict["q_upper"])
                violation.append(verdict["theorem_violation"])
            if tracer:
                spans.append((first_span, len(tracer.spans)))

        t0, c0 = perf_counter(), process_time()
        try:
            self.harness.stream_corpus(self.corpus, consume)
        except Exception as exc:  # a broken stream fails the rest of the pass
            errors["stream"] = repr(exc)
        seconds, cpu_seconds = perf_counter() - t0, process_time() - c0
        return {"seconds": seconds, "cpu_seconds": cpu_seconds,
                "graphs": sum(o is not None for o in outcomes),
                "outcomes": outcomes, "q_lower": lower, "q_upper": upper, "ms": ms,
                "theorem_violation": violation, "errors": errors, "span_ranges": spans}


class SweepRunner:
    """One run_campaign call per pass; its graphs are the report's tested."""

    def __init__(self, config: dict):
        from qconn import harness

        self.harness = harness
        self.config = harness.CampaignConfig(**config)
        self.tracer = None

    def one_pass(self) -> dict:
        t0, c0 = perf_counter(), process_time()
        try:
            report = self.harness.run_campaign(self.config)
            canonical = report.canonical_json()
        except Exception as exc:  # recorded as a failed pass
            return {"seconds": perf_counter() - t0, "cpu_seconds": process_time() - c0,
                    "graphs": 0, "errors": {"campaign": repr(exc)}}
        seconds, cpu_seconds = perf_counter() - t0, process_time() - c0
        return {
            "seconds": seconds,
            "cpu_seconds": cpu_seconds,
            "graphs": report.tested,
            "counters": {key: getattr(report, key)
                         for key in ("tested", "passed", "failed", "skipped", "undecided")},
            "violations": len(report.violations),
            "details": report.details,
            "canonical_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "errors": {},
        }


MIN_PASSES = 3


def run_passes(step, seconds) -> list:
    """Results of ``step()``, called until ``seconds`` have elapsed and at
    least MIN_PASSES calls are done.

    Successive calls run on successive CPUs of the process's affinity set:
    on a shared host each CPU is slowed by its own neighbours, so the
    rate should not depend on the one CPU the scheduler picked."""
    cpus = sorted(os.sched_getaffinity(0))
    done = []
    start = perf_counter()
    try:
        while len(done) < MIN_PASSES or perf_counter() - start < seconds:
            os.sched_setaffinity(0, {cpus[len(done) % len(cpus)]})
            done.append(step())
        return done
    finally:
        os.sched_setaffinity(0, cpus)


def traced_pair(runner, tracer) -> tuple:
    """An untraced pass, then a traced one on the same CPU, so that both
    see the same stretch of a shared host and their ratio is the overhead."""
    plain = runner.one_pass()
    tracer.install()
    runner.tracer = tracer
    try:
        return plain, runner.one_pass()
    finally:
        tracer.uninstall()
        runner.tracer = None


def branch_layers(passes: list, tracer) -> dict:
    """Per certify outcome: graphs, certify busy time and self time by layer,
    from the spans each certify call produced."""
    out: dict = {}
    for one in passes:
        for outcome, (lo, hi) in zip(one["outcomes"], one["span_ranges"]):
            row = out.setdefault(str(outcome), {"graphs": 0, "certify_s": 0.0, "self_s": {}})
            row["graphs"] += 1
            for _, _, name, start, end, own in tracer.spans[lo:hi]:
                layer = name.split(".")[0]
                row["self_s"][layer] = row["self_s"].get(layer, 0.0) + own
                if name == "certifier.certify":
                    row["certify_s"] += end - start
    return out


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text())
    probe = len(argv) > 2 and argv[2] == "probe"
    load_qconn(Path(job["root"]))
    if job["kind"] == "certify":
        runner = CertifyRunner(job["corpus"])
    else:
        runner = SweepRunner(job["config"])
    ready = perf_counter()
    if probe:
        print(json.dumps({"ready": ready}))
        return 0

    result = {"ready": ready}
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(keep_spans=job["kind"] == "certify")
        pairs = run_passes(lambda: traced_pair(runner, tracer), job["seconds"])
        result["untraced"] = [plain for plain, _ in pairs]
        result["traced"] = [traced for _, traced in pairs]
    else:
        result["untraced"] = run_passes(runner.one_pass, job["seconds"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if job["trace"]:
        result["trace"] = {
            "found": tracer.found,
            "absent": tracer.absent,
            "totals": tracer.totals(),
            "counters": tracer.counters,
            "branches": branch_layers(result["traced"], tracer) if tracer.keep_spans else {},
        }
        trace_file = {**result["trace"], "facts": job["facts"], "edges": tracer.edges(),
                      "span_fields": ["id", "parent", "name", "start", "end", "self"],
                      "spans": tracer.spans}
        Path(job["trace_path"]).write_text(json.dumps(trace_file))
    for one in result["untraced"] + result.get("traced", []):
        one.pop("span_ranges", None)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
