"""Command-line surface.

Verbs: compute-q, kappa, certify, construct, verify, sweep, encode, decode.
Graph input is newline-separated graph6, from a file argument or standard
input ("-").  Every verb accepts --json for machine output.  Exit codes:
0 clean, 1 completed with failures/violations, 2 configuration or IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import List, Optional

from . import certifier
from .connectivity import brute_force_connectivity, vertex_connectivity
from .extremal import (
    ExtremalParams,
    enumerate_Eprime_orbits,
    family_members,
    make_member,
)
from .graphs import MAX_ORDER, Graph, Graph6Error, write_graph6
from .harness import RUNNERS, CampaignConfig, CampaignError, CorpusError, read_corpus, run_campaign
from .spectral import (
    ORACLE_MAX_N,
    _oracle_slack,
    decide_q_gt,
    q_index,
    q_index_dense_oracle,
    q_upper_bound_edges,
)


def _emit(payload, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _parse_edge_spec(spec: str):
    edges = []
    if not spec:
        return edges
    for chunk in spec.split(","):
        a, sep, b = chunk.partition("-")
        if not (sep and a.strip().isdecimal() and b.strip().isdecimal()):
            raise ValueError(f"--remove: bad edge {chunk!r}, expected 'u-v' with vertex numbers u, v")
        edges.append((int(a), int(b)))
    return edges


def _cmd_encode(args) -> int:
    with nullcontext(sys.stdin) if args.input == "-" else open(args.input) as fh:
        lines = [(i, ln.split()) for i, ln in enumerate(fh, 1) if ln.strip()]

    def ints(i, fields, what):
        if len(fields) != len(what.split()) or not all(f.isdecimal() for f in fields):
            raise CorpusError(f"expected '{what}', got {' '.join(fields)!r}", i)
        return [int(f) for f in fields]

    if not lines:
        raise CorpusError("expected the vertex count 'n', got no input", 1)
    (n,) = ints(*lines[0], "n")
    if n > MAX_ORDER:  # before a graph of that order is built
        raise CorpusError(f"order n={n} exceeds the codec limit {MAX_ORDER}", lines[0][0])
    first = {}  # edge (low, high) -> the line that gave it
    for i, f in lines[1:]:
        u, v = ints(i, f, "u v")
        if max(u, v) >= n:
            raise CorpusError(f"edge {u} {v} out of range for n={n}", i)
        if u == v:
            raise CorpusError(f"loop at vertex {u}", i)
        edge = (min(u, v), max(u, v))
        if edge in first:
            raise CorpusError(f"repeated edge {u} {v} (first on line {first[edge]})", i)
        first[edge] = i
    print(write_graph6(Graph(n, first)))
    return 0


def _cmd_decode(args) -> int:
    for g in read_corpus(args.input):
        payload = {"n": g.n, "m": g.m, "edges": [list(e) for e in g.edges()]}
        text = f"n={g.n} m={g.m} edges=" + ",".join(f"{u}-{v}" for u, v in g.edges())
        _emit(payload, args.json, text)
    return 0


def _cmd_compute_q(args) -> int:
    worst = 0
    for g in read_corpus(args.input):
        est = q_index(g, args.tol)
        payload = est.to_dict()
        payload["n"] = g.n
        payload["m"] = g.m
        payload["edge_bound"] = q_upper_bound_edges(g) if g.n >= 2 else None
        text = (f"n={g.n} m={g.m} q in [{est.lower:.12g}, {est.upper:.12g}] "
                f"iters={est.iterations} converged={est.converged}")
        if args.oracle and g.n > ORACLE_MAX_N:
            # the check asked for did not run, so the run does not pass
            payload["oracle"] = payload["oracle_inside"] = None
            text += " oracle=None inside=None"
            print(f"oracle skipped: n={g.n} is above the dense oracle's cap "
                  f"n={ORACLE_MAX_N}", file=sys.stderr)
            worst = 1
        elif args.oracle:
            oracle, slack = q_index_dense_oracle(g), _oracle_slack(g)
            inside = est.lower - slack <= oracle <= est.upper + slack
            payload["oracle"] = oracle
            payload["oracle_inside"] = inside
            text += f" oracle={oracle:.12g} inside={inside}"
            if not inside:
                worst = 1
        _emit(payload, args.json, text)
    return worst


def _cmd_kappa(args) -> int:
    for g in read_corpus(args.input):
        res = brute_force_connectivity(g) if args.brute else vertex_connectivity(g)
        text = f"kappa={res.kappa} cut={list(res.cut)} method={res.method}"
        _emit(res.to_dict(), args.json, text)
    return 0


def _cmd_certify(args) -> int:
    worst = 0
    for g in read_corpus(args.input):
        verdict = certifier.certify(g, args.k, delta=args.delta)
        payload = verdict.to_dict()
        text = (f"outcome={verdict.outcome} threshold={verdict.threshold} "
                f"q=[{payload['q_lower']}, {payload['q_upper']}]")
        if verdict.membership is not None:
            text += f" member={verdict.membership.family_class} |E'|={len(verdict.membership.removed_edges)}"
        _emit(payload, args.json, text)
        if verdict.theorem_violation:
            worst = 1
    return worst


def _check_order(n: int) -> None:
    if n > MAX_ORDER:  # before a graph of that order is built
        raise CampaignError(f"--n {n} exceeds the codec limit {MAX_ORDER}")


def _cmd_construct(args) -> int:
    _check_order(args.n)
    if args.delta is None:
        raise CampaignError("construct --family A needs --delta")
    params = ExtremalParams(args.n, args.k, args.delta)
    member = make_member(params, _parse_edge_spec(args.remove))
    text = write_graph6(member.graph)
    payload = member.to_dict()
    payload["graph6"] = text
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    _emit(payload, args.json, text)
    return 0


def _member_for_verify(args, params: ExtremalParams):
    if args.remove:
        return make_member(params, _parse_edge_spec(args.remove))
    size = args.size if args.size is not None else params.eprime_bound + 1
    member, _ = certifier.select_max_member(family_members(params, size))
    return member


def _cmd_verify(args) -> int:
    lemma = args.lemma
    if lemma in ("2.2", "2.3"):
        ok = True
        for g in read_corpus(args.input or "-"):
            if lemma == "2.2":
                bound = q_upper_bound_edges(g)
                # proved, with no slack, by an integer certificate for q <= bound
                decision, est = decide_q_gt(g, Fraction(2 * g.m, g.n - 1) + g.n - 2)
                holds = None if decision is None else not decision  # None: undecided
                payload = {"bound": bound, "q_upper": est.upper, "holds": holds}
                text = "undecided" if holds is None else holds
                _emit(payload, args.json, f"bound={bound:.12g} q_upper={est.upper:.12g} holds={text}")
                ok = ok and holds is not False
            else:
                rep = certifier.check_lemma_2_3(g, args.k, args.delta)
                _emit(rep.to_dict(), args.json,
                      f"lemma 2.3 passed={rep.passed} applicable={rep.applicable}")
                ok = ok and rep.passed
        return 0 if ok else 1

    _check_order(args.n)
    params = ExtremalParams(args.n, args.k, args.delta)
    if lemma in ("3.1", "3.2"):
        # 3.2 defaults to the first A2 representative, 3.1 to the intact A
        removed = (_parse_edge_spec(args.remove) if args.remove or lemma == "3.1"
                   else enumerate_Eprime_orbits(params, params.eprime_bound + 1)[0])
        checker = certifier.check_lemma_3_1 if lemma == "3.1" else certifier.check_lemma_3_2
        rep = checker(make_member(params, removed))
    elif lemma == "3.3":
        rep = certifier.check_lemma_3_3(_member_for_verify(args, params))
    elif lemma in ("orderings", "3.7"):
        # proved for the maximizer only, not for a member named by --remove
        checker = certifier.check_orderings if lemma == "orderings" else certifier.check_lemma_3_7
        rep = checker(_member_for_verify(args, params), is_maximizer=not args.remove)
    elif lemma == "3.8":
        rep = certifier.check_lemma_3_8(family_members(params, params.eprime_bound + 1))
    elif lemma == "chain":
        chain = certifier.verify_theorem_proof_chain(params)
        _emit(chain.to_dict(), args.json,
              f"chain_holds={chain.chain_holds} margin={chain.margin} identity_ok={chain.identity_ok}")
        return 0 if chain.chain_holds and chain.identity_ok else 1
    else:
        raise CampaignError(f"unknown lemma {lemma}")
    _emit(rep.to_dict(), args.json, f"lemma {rep.lemma} passed={rep.passed}")
    return 0 if rep.passed else 1


def _cmd_sweep(args) -> int:
    config = CampaignConfig(
        mode=args.mode,
        k=args.k,
        delta=args.delta,
        n=args.n,
        n_min=args.n_min,
        n_max=args.n_max,
        seed=args.seed,
        count=args.count,
        edge_probability=args.p,
        min_degree_floor=args.floor,
        complement_budget=args.budget,
        input_path=args.input,
        output_path=args.out,
        workers=args.workers,
    )
    report = run_campaign(config)
    summary = (f"mode={report.mode} tested={report.tested} passed={report.passed} "
               f"failed={report.failed} skipped={report.skipped} "
               f"undecided={report.undecided} violations={len(report.violations)} "
               f"wall={report.wall_clock_s:.1f}s")
    if args.json:
        print(report.to_json())
    else:
        print(summary)
        for v in report.violations[:20]:
            print(f"  violation: {v}")
    return 1 if report.failed or report.violations else 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qconn", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", nargs="?", default="-", help="graph6 file or '-' for stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("encode", help="edge list ('n' line then 'u v' lines) to graph6")
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("decode", help="graph6 to edge list")
    add_common(p)
    p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("compute-q", help="certified Q-index bracket")
    add_common(p)
    p.add_argument("--tol", type=float, default=1e-9, help="bracket width at which the run stops")
    p.add_argument("--oracle", action="store_true",
                   help=f"also run the dense eigvalsh oracle (n <= {ORACLE_MAX_N}); exit 1 if "
                        "it lies outside a bracket or a graph is too large for it")
    p.set_defaults(fn=_cmd_compute_q)

    p = sub.add_parser("kappa", help="vertex connectivity with witness cut")
    add_common(p)
    p.add_argument("--brute", action="store_true", help="use the brute-force oracle (n <= 12)")
    p.set_defaults(fn=_cmd_kappa)

    p = sub.add_parser("certify", help="spectral k-connectivity verdict")
    add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, default=None,
                   help="explicit theorem parameter delta (default: largest usable)")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("construct", help="build A(n,k,delta)-E'")
    p.add_argument("--family", choices=("A",), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--remove", default="", help="removed edges 'u-v,u-v' (family A)")
    p.add_argument("--out", default=None, help="also write graph6 to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="run one lemma checker")
    p.add_argument("--lemma", required=True,
                   choices=("2.2", "2.3", "3.1", "3.2", "3.3", "orderings", "3.7", "3.8", "chain"))
    p.add_argument("input", nargs="?", default=None,
                   help="graph6 input (lemmas 2.2/2.3)")
    p.add_argument("--n", type=int, default=103)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--delta", type=int, default=3)
    p.add_argument("--size", type=int, default=None, help="orbit size for maximizer-based checks")
    p.add_argument("--remove", default="", help="explicit removed edges 'u-v,u-v'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sweep", help="run a verification campaign")
    p.add_argument("--mode", required=True, choices=tuple(RUNNERS))
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--delta", type=int, default=3)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10_000)
    p.add_argument("--p", type=float, default=0.5, help="edge probability (counterexample)")
    p.add_argument("--floor", type=int, default=None, help="min-degree rejection floor")
    p.add_argument("--budget", type=int, default=None, help="complement-edge budget (lemma23)")
    p.add_argument("--input", default=None, help="corpus path (certify-one)")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_sweep)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (Graph6Error, CorpusError, CampaignError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
