"""qconn benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, from the root of a checkout.

Builds the workload's inputs from the seed and computes their oracles (not
timed), measures set-up in fresh interpreters, runs the workload in a fresh
worker interpreter for S seconds of whole passes, checks every output
against the oracles, prints every metric by name with its unit, and ends
with one JSON line holding the metrics BENCHMARK.json lists: the
end-to-end ones with ``--trace 0``, the per-layer ones with ``--trace 1``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 6  # fresh interpreters per run; the worker adds one more sample
DEADLINE_S = 170.0  # whole run, below the 180 s a run may take
# one BLAS thread: the workloads are single-process and each pass is pinned
# to one CPU, where more BLAS threads would only contend with the pass
CHILD_ENV = {**os.environ, **{name: "1" for name in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


class BenchError(RuntimeError):
    pass


# -- workloads ------------------------------------------------------------------


def _sweep(config: dict, expected) -> dict:
    return {"kind": "sweep", "config": {**config, "workers": 1}, "expected": expected}


def build_workload(name: str, seed: int, toy: bool) -> dict:
    """Program-facing inputs plus oracles.  ``toy`` shrinks every workload
    for the self-check."""
    if name == "certify-sparse":
        corpus = inputs.certify_sparse(seed, *((16, 4) if toy else ()))
        return {"kind": "certify", "corpus": corpus}
    if name == "certify-dense":
        if toy:
            corpus = inputs.certify_dense(seed, 4, 1, inputs.FAMILY_SCALES[:1])
        else:
            corpus = inputs.certify_dense(seed)
        return {"kind": "certify", "corpus": corpus}
    if name == "sweep-density-n8":
        budget = 2 if toy else 4
        return _sweep(dict(mode="lemma23", n=8, k=3, delta=3, complement_budget=budget),
                      inputs.lemma23_expected(8, 3, 3, budget))
    if name == "sweep-edge-bound-n6":
        n_max = 4 if toy else 6
        return _sweep(dict(mode="lemma22", n_min=2, n_max=n_max),
                      inputs.lemma22_expected(2, n_max))
    raise BenchError(f"unknown workload {name!r}")


WORKLOADS = ("certify-sparse", "certify-dense", "sweep-density-n8", "sweep-edge-bound-n6")


# -- machine facts ------------------------------------------------------------


def machine_facts() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- processes ----------------------------------------------------------------


def run_child(args: list, deadline: float, cpu=None) -> str:
    """Run a child interpreter to completion, on one CPU if ``cpu`` is
    given; it is killed at the deadline or when this process is stopped."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("run deadline passed")
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=CHILD_ENV,
                            preexec_fn=pin)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(args[1:])} exceeded the run deadline")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[1:])} exited with {proc.returncode}")
    return out


def setup_samples(job_path: Path, deadline: float, count: int) -> list:
    """Seconds from spawning a fresh interpreter to its first timed call
    (perf_counter is the system-wide monotonic clock on Linux), one probe
    per CPU in turn so that no single CPU's neighbours set the median."""
    cpus = sorted(os.sched_getaffinity(0))
    samples = []
    for i in range(count):
        t0 = perf_counter()
        out = run_child([sys.executable, str(HERE / "worker.py"), str(job_path), "probe"],
                        deadline, cpus[i % len(cpus)])
        samples.append(json.loads(out.strip().splitlines()[-1])["ready"] - t0)
    return samples


# -- checking ---------------------------------------------------------------------


def check_certify(passes: list, expected: list) -> tuple:
    """(attempted, failed, notes): every graph of every pass against the
    oracle's outcome and q, plus exceptions and missing graphs."""
    attempted = failed = 0
    notes = []
    for p, one in enumerate(passes):
        attempted += len(expected)
        failed += max(0, len(expected) - len(one["outcomes"]))
        if "stream" in one["errors"]:
            notes.append(f"pass {p}: {one['errors']['stream']}")
        for i, (want, outcome, lo, up, viol) in enumerate(zip(
                expected, one["outcomes"], one["q_lower"], one["q_upper"],
                one["theorem_violation"])):
            problem = None
            if outcome is None:
                problem = one["errors"].get(str(i), "exception")
            elif viol or outcome == inputs.THEOREM_VIOLATION:
                problem = "theorem violation"
            elif outcome != want.outcome:
                problem = f"outcome {outcome}, oracle {want.outcome}"
            elif lo is None or up is None:
                problem = "no q bracket"
            elif not lo - want.slack <= want.q <= up + want.slack:
                problem = f"q bracket [{lo!r}, {up!r}] misses oracle q {want.q!r}"
            if problem:
                failed += 1
                if len(notes) < 20:
                    notes.append(f"pass {p} graph {i}: {problem}")
    return attempted, failed, notes


def check_sweep(passes: list, expected: dict) -> tuple:
    """(attempted, failed, notes): each pass's counters and details against
    the oracle, and one canonical JSON digest across all passes."""
    failed = 0
    notes = []
    digests = {one.get("canonical_sha256") for one in passes}
    for p, one in enumerate(passes):
        problems = list(one["errors"].values())
        if not problems:
            if one["counters"] != expected["counters"]:
                problems.append(f"counters {one['counters']}, oracle {expected['counters']}")
            for key, want in expected["details"].items():
                if one["details"].get(key) != want:
                    problems.append(f"details[{key}] {one['details'].get(key)!r}, oracle {want!r}")
            if one["violations"]:
                problems.append(f"{one['violations']} violations")
            if len(digests) != 1:
                problems.append("canonical JSON differs between passes")
        if problems:
            failed += 1
            notes.append(f"pass {p}: " + "; ".join(problems))
    return len(passes), failed, notes


# -- metrics -----------------------------------------------------------------------

# outcome -> name of its per-branch cost metric
BRANCH_METRICS = {
    inputs.CONDITION_NOT_MET: "rejected_ms_p50",
    inputs.HYPOTHESIS_FAILED: "hypothesis_failed_ms_p50",
    inputs.K_CONNECTED_CERTIFIED: "certified_ms_p50",
    inputs.EXCEPTIONAL_FAMILY: "exceptional_ms_p50",
}


def percentile_tail(samples) -> tuple:
    """Highest of a fixed ladder of percentiles with at least ten samples
    beyond it: (percentile, value), or (None, None) below 20 samples."""
    count = len(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct, float(np.percentile(samples, pct))
    return None, None


def end_to_end(result: dict, setups: list, workload: dict) -> tuple:
    """(metrics for the JSON line, extra figures printed only).

    ``graphs_per_s`` is every graph the untraced passes completed over the
    CPU time of the worker process during those passes.  The workload is
    one single-threaded process, so on an idle machine that is its wall
    time; on a shared host it leaves out the time the hypervisor gives the
    CPU to other tenants.  Those tenants slow the CPU for tens of seconds,
    longer than a pass, so a minimum or median over passes would pick one
    stretch; the mean over the whole timed phase averages all of them.  The
    wall-clock rate, the verdict and the branch medians are printed; the
    medians use every sample of every untraced pass.
    """
    passes = result["untraced"]
    graphs = sum(one["graphs"] for one in passes)
    rate = graphs / sum(one["cpu_seconds"] for one in passes)
    extra = {"graphs_per_wall_s": (graphs / sum(one["seconds"] for one in passes), "1/s")}
    if workload["kind"] == "certify":
        ms = np.concatenate([one["ms"] for one in passes])
        outcomes = np.concatenate([[str(o) for o in one["outcomes"]] for one in passes])
        pct, tail = percentile_tail(ms)
        extra["verdict_ms_p50"] = (float(np.median(ms)), "ms")
        if pct is not None:
            extra["verdict_ms_tail"] = (tail, "ms", f"p{pct:g} of {len(ms)} samples")
        for outcome, name in BRANCH_METRICS.items():
            samples = ms[outcomes == outcome]
            if len(samples) >= 10:
                extra[name] = (float(np.median(samples)), "ms", f"{len(samples)} samples")
    metrics = {
        "setup_s": (float(np.median(setups)), "s"),
        "graphs_per_s": (float(rate), "1/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    return metrics, extra


def per_layer(result: dict, outcomes_per_pass: dict) -> dict:
    """Per-pass figures from the traced passes, by <module>.<function>.<stat>."""
    trace = result["trace"]
    npasses = len(result["traced"])
    metrics = {}
    layer_self = {layer: 0.0 for layer in tracing.LAYERS}
    for name in tracing.SITE_NAMES:
        row = trace["totals"][name]
        metrics[f"{name}.calls"] = (row["calls"] / npasses, "count")
        metrics[f"{name}.busy_s"] = (row["busy_s"] / npasses, "s")
        metrics[f"{name}.self_s"] = (row["self_s"] / npasses, "s")
        layer_self[name.split(".")[0]] += row["self_s"] / npasses
    for layer, value in layer_self.items():
        metrics[f"layer.{layer}.self_s"] = (value, "s")
    counters = trace["counters"]
    for key in ("spectral.decide_q_ge.iterations", "spectral.decide_q_ge.undecided",
                "spectral.q_index.iterations", "spectral.decide_q_gt.iterations",
                "extremal.classify_membership.hits"):
        metrics[key] = (counters.get(key, 0) / npasses, "count")
    calls = trace["totals"]["extremal.classify_membership"]["calls"]
    hits = counters.get("extremal.classify_membership.hits", 0)
    metrics["extremal.classify_membership.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    for outcome in inputs.OUTCOMES:
        metrics[f"certifier.outcome.{outcome}"] = (outcomes_per_pass.get(outcome, 0), "count")
    untraced = sum(one["cpu_seconds"] for one in result["untraced"])
    traced = sum(one["cpu_seconds"] for one in result["traced"])
    metrics["trace.overhead_pct"] = (float(100.0 * (traced / untraced - 1.0)), "%")
    return metrics


def shares(result: dict, kind: str) -> list:
    """Human-readable shares: per certify branch, self time by layer over
    certify time; per sweep, busy time of each call site over run_campaign."""
    trace = result["trace"]
    lines = []
    if kind == "certify":
        for outcome, row in sorted(trace["branches"].items()):
            total = row["certify_s"] or float("nan")
            parts = ", ".join(f"{layer} {own / total:.1%}" for layer, own in
                              sorted(row["self_s"].items(), key=lambda kv: -kv[1]))
            lines.append(f"  {outcome} ({row['graphs']} graphs, {total:.3f} s in certify): {parts}")
    else:
        root = trace["totals"]["harness.run_campaign"]["busy_s"] or float("nan")
        busy = sorted(((row["busy_s"], name) for name, row in trace["totals"].items()
                       if row["calls"] and name != "harness.run_campaign"), reverse=True)
        parts = ", ".join(f"{name} {value / root:.1%}" for value, name in busy)
        lines.append(f"  busy share of harness.run_campaign: {parts}")
    return lines


def select(metrics: dict, listed: list) -> dict:
    """The metrics BENCHMARK.json lists, in its order, with matching units."""
    out = {}
    for entry in listed:
        if entry["name"] not in metrics:
            raise BenchError(f"metric {entry['name']} not computed")
        value, unit = metrics[entry["name"]][:2]
        if unit != entry["unit"]:
            raise BenchError(f"metric {entry['name']} unit {unit}, BENCHMARK.json {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


# -- main ------------------------------------------------------------------------


def run(args) -> dict:
    start = perf_counter()
    deadline = start + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workload = build_workload(args.workload, args.seed, args.toy)
    facts = machine_facts()
    job = {"root": str(ROOT), "kind": workload["kind"], "seconds": args.seconds,
           "trace": args.trace, "facts": facts,
           "result": str(WORK / f"result-{tag}.json"),
           "trace_path": str(WORK / f"trace-{tag}.json")}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy, "facts": facts}
    if workload["kind"] == "certify":
        corpus = workload["corpus"]
        corpus_path = WORK / f"corpus-{tag}.g6"
        corpus_path.write_bytes(corpus.data())
        job["corpus"] = str(corpus_path)
        report["corpus_sha256"] = corpus.sha256()
        report["corpus_graphs"] = len(corpus.lines)
    else:
        job["config"] = workload["config"]
        report["config"] = workload["config"]
        report["expected"] = workload["expected"]
    job_path = WORK / f"job-{tag}.json"
    job_path.write_text(json.dumps(job))
    report["oracle_s"] = perf_counter() - start
    try:
        # probes before and after the timed phase, so that they span it
        setups = setup_samples(job_path, deadline, SETUP_PROBES // 2)
        t0 = perf_counter()
        run_child([sys.executable, str(HERE / "worker.py"), str(job_path)], deadline)
        result = json.loads(Path(job["result"]).read_text())
        setups.append(result["ready"] - t0)
        setups += setup_samples(job_path, deadline, SETUP_PROBES - SETUP_PROBES // 2)
    finally:
        for path in (job_path, Path(job["result"]), WORK / f"corpus-{tag}.g6"):
            path.unlink(missing_ok=True)

    checked = result["untraced"] + result.get("traced", [])
    if workload["kind"] == "certify":
        attempted, failed, notes = check_certify(checked, workload["corpus"].expected)
    else:
        attempted, failed, notes = check_sweep(checked, workload["expected"])
        report["canonical_sha256"] = sorted({one.get("canonical_sha256") for one in checked} - {None})
    report.update(attempted=attempted, failed=failed, failure_notes=notes,
                  passes=len(result["untraced"]), setup_samples_s=setups,
                  pass_seconds=[one["seconds"] for one in result["untraced"]],
                  traced_pass_seconds=[one["seconds"] for one in result.get("traced", [])])

    metrics, extra = end_to_end(result, setups, workload)
    extra["failed_ratio"] = (failed / attempted, "ratio")
    if args.trace:
        outcomes: dict = {}
        for one in result["traced"]:
            for outcome in one.get("outcomes", []):
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
        per_pass = {key: value / len(result["traced"]) for key, value in outcomes.items()}
        layer_metrics = per_layer(result, per_pass)
        report["trace_file"] = str(Path(job["trace_path"]).relative_to(ROOT))
        report["trace_sites_found"] = result["trace"]["found"]
        report["trace_sites_absent"] = result["trace"]["absent"]
        report["shares"] = shares(result, workload["kind"])
        printed = {**metrics, **extra, **layer_metrics}
        chosen = select(layer_metrics, spec["per_layer"])
    else:
        printed = {**metrics, **extra}
        chosen = select(metrics, spec["end_to_end"])
    report["metrics"] = {name: list(value) for name, value in printed.items()}
    report["wall_s"] = perf_counter() - start
    return {"report": report, "printed": printed,
            "line": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                     "metrics": chosen}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for selfcheck.py")
    args = parser.parse_args(argv)
    # a stopped run stops its child interpreters too (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "qconn" / "__init__.py").is_file():
        print(f"perfbench: no qconn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = run(args)
    except (BenchError, inputs.OracleError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report = out["report"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={report['passes']} attempted={report['attempted']} failed={report['failed']}")
    for name, value in out["printed"].items():
        print(f"  {name:48s} {value[0]:.6g} {value[1]}" + (f"  ({value[2]})" if len(value) > 2 else ""))
    for line in report.get("shares", []):
        print(line)
    for note in report["failure_notes"]:
        print(f"  FAILED {note}")
    report_path = WORK / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1))
    print(f"  report: {report_path.relative_to(ROOT)}")
    print(json.dumps(out["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
