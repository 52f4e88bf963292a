import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from qconn import (
    CampaignConfig,
    Report,
    build_A,
    complete,
    ExtremalParams,
    parse_graph6,
    random_graph,
    run_campaign,
    stream_corpus,
    write_graph6,
)
from qconn import graphs as qgraphs, harness, spectral
from qconn.cli import main
from qconn.connectivity import density_parameter_failures, density_rhs, dirac_condition, is_k_connected_small
from qconn.graphs import is_connected, iter_labeled_graphs
from qconn.harness import CampaignError, CorpusError, RandomGraphError

from conftest import graph_of_rows, random_graph_mask

# the degree of each byte value, a reference apart from the kernels under test
_POPCOUNT = np.array([bin(x).count("1") for x in range(256)], dtype=np.uint8)


# -- random graphs ----------------------------------------------------------------


def test_random_graph_deterministic():
    a = random_graph(12, 0.4, min_degree_floor=2, seed=99)
    b = random_graph(12, 0.4, min_degree_floor=2, seed=99)
    assert write_graph6(a) == write_graph6(b)
    c = random_graph(12, 0.4, min_degree_floor=2, seed=100)
    assert write_graph6(a) != write_graph6(c)


def test_random_graph_extremes():
    assert random_graph(10, 1.0, min_degree_floor=3, seed=1) == complete(10)
    with pytest.raises(RandomGraphError):
        random_graph(10, 0.0, min_degree_floor=0, seed=1)
    with pytest.raises(ValueError):
        random_graph(5, 1.5, seed=0)


def test_random_graph_respects_floor():
    g = random_graph(30, 0.3, min_degree_floor=4, seed=7)
    assert min(g.degrees()) >= 4


# -- corpus streaming ----------------------------------------------------------------


def test_stream_corpus(tmp_path):
    f = tmp_path / "corpus.g6"
    f.write_text("Bw\nBg\nD??\n")
    got = []
    assert stream_corpus(str(f), got.append) == 3
    assert [g.n for g in got] == [3, 3, 5]
    assert got[0] == parse_graph6("Bw")

    empty_file = tmp_path / "empty.g6"
    empty_file.write_text("")
    assert stream_corpus(str(empty_file), lambda g: None) == 0


def test_stream_corpus_errors(tmp_path):
    f = tmp_path / "bad.g6"
    f.write_text("Bw\n\x1cnope\nBg\n")
    got = []
    with pytest.raises(CorpusError) as err:
        stream_corpus(str(f), got.append)
    assert err.value.line == 2
    assert got == [parse_graph6("Bw")]  # the graph before the bad line was delivered


# -- campaigns --------------------------------------------------------------------------


def test_lemma22_campaign_small():
    config = CampaignConfig(mode="lemma22", n_min=2, n_max=5)
    report = run_campaign(config)
    assert report.counters_consistent()
    # connected labeled graph counts: 1 + 4 + 38 + 728
    assert report.tested == 1 + 4 + 38 + 728
    assert report.failed == 0 and report.undecided == 0
    assert report.violations == []
    assert report.details["enumerated"] == 2 + 8 + 64 + 1024


def test_lemma22_campaign_deterministic():
    config = CampaignConfig(mode="lemma22", n_min=2, n_max=4)
    a = run_campaign(config).canonical_json()
    b = run_campaign(config).canonical_json()
    assert a == b


# canonical-JSON sha256 of the per-graph edge-bound sweep; a batched
# kernel must reproduce these bytes
LEMMA22_PINS = [
    pytest.param(5, 1, "6ba58ef847bbd0445a6ed1942e09a72b38abd1dcd708b1901884fe9b869e2acf", id="n5-w1"),
    pytest.param(5, 2, "6a06bde8714088976d0a7e160c4f31724ef5072bc00d84e7d50dab3925af3faa", id="n5-w2"),
    pytest.param(6, 1, "cc5f1e86babed27b109284f6e119535506b1fc4569898d8c00f701c08c83eb95", id="n6-w1"),
    pytest.param(6, 2, "f6490f13fbbf43587c14ebfefebe24db1974159270da690bc9804249924ecd78", id="n6-w2"),
]


@pytest.mark.parametrize("n_max,workers,digest", LEMMA22_PINS)
def test_lemma22_canonical_json_pinned(n_max, workers, digest):
    report = run_campaign(CampaignConfig(mode="lemma22", n_max=n_max, workers=workers))
    assert hashlib.sha256(report.canonical_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("n_min,n_max", [(6, 8), (2, 9), (5, 4), (0, 1), (1, 1)])
def test_lemma22_rejects_bad_orders_before_sweeping(monkeypatch, n_min, n_max):
    def no_sweep(task):
        raise AssertionError("a task ran before the config was checked")

    monkeypatch.setattr(harness, "_lemma22_chunk", no_sweep)
    start = time.perf_counter()
    with pytest.raises(CampaignError):
        run_campaign(CampaignConfig(mode="lemma22", n_min=n_min, n_max=n_max))
    assert time.perf_counter() - start < 1.0


def test_lemma22_bad_orders_exit_code(capsys):
    start = time.perf_counter()
    assert main(["sweep", "--mode", "lemma22", "--n-min", "6", "--n-max", "8"]) == 2
    assert "exhaustive only up to n=7" in capsys.readouterr().err
    assert main(["sweep", "--mode", "lemma22", "--n-min", "5", "--n-max", "4"]) == 2
    assert "n_min=5 exceeds n_max=4" in capsys.readouterr().err
    assert main(["sweep", "--mode", "lemma22", "--n-min", "0", "--n-max", "1"]) == 2
    assert "n_max=1 is below 2" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


def edge_bound_rung(g):
    """The first rung that proves q <= (2m + (n-1)(n-2)) / (n-1) for the
    connected g, in plain integers: 1 by the ones vector, 2 by v0 = d + 1,
    3 by v1 = Q v0, and 0 when none does."""
    n, degs = g.n, g.degrees()
    p = 2 * g.m + (n - 1) * (n - 2)
    if 2 * max(degs) * (n - 1) <= p:
        return 1
    v = [d + 1 for d in degs]
    for rung in (2, 3):
        qv = [degs[i] * v[i] + sum(v[j] for j in range(n) if g.has_edge(i, j)) for i in range(n)]
        if all((n - 1) * y <= p * x for y, x in zip(qv, v)):
            return rung
        v = qv
    return 0


def test_edge_bound_rungs_match_their_definition_and_decide_q_gt():
    # every connected labeled graph with n <= 6: the batch settles each graph
    # by the rung its definition names, and decide_q_gt answers False on each
    settled = {0: 0, 1: 0, 2: 0, 3: 0}
    for n in range(2, 7):
        graphs = [g for g in iter_labeled_graphs(n) if is_connected(g)]
        rows = np.array([g.rows for g in graphs], dtype=np.uint8)
        got = spectral._edge_bound_rungs(rows, np.array([g.degrees() for g in graphs]), n)
        for g, rung in zip(graphs, got.tolist()):
            assert rung == edge_bound_rung(g), (n, g.rows)
            settled[rung] += 1
            if rung:
                bound = harness.q_upper_bound_edges(g) + harness._LEMMA22_SLACK
                assert harness.decide_q_gt(g, bound)[0] is False, (n, g.rows)
    assert settled == {0: 0, 1: 9_712, 2: 12_165, 3: 5_598}


def test_lemma22_scalar_crosschecks_batch_settled_graphs(monkeypatch):
    # the batch settles every graph at n <= 6; the connected graphs of the
    # orders n <= 4 and the connected stride masks still take the scalar
    # decision, which agrees, so the bytes stay pinned
    monkeypatch.setattr(harness, "_LEMMA22_STRIDE", 97)
    crosschecked = [g for n in range(2, 7) for mask, g in enumerate(iter_labeled_graphs(n))
                    if (n <= 4 or (mask + 1) % 97 == 0) and is_connected(g)]
    verdicts = []
    decide = harness.decide_q_gt

    def spy(g, threshold):
        # the scalar path builds its graphs from the block's rows, with the
        # degree tuple and the single component cached
        assert g._degs == graph_of_rows(g.rows).degrees()
        assert g._comps == (tuple(range(g.n)),)
        result = decide(g, threshold)
        verdicts.append((g, result[0]))
        return result

    monkeypatch.setattr(harness, "decide_q_gt", spy)
    report = run_campaign(CampaignConfig(mode="lemma22", n_max=6))
    assert hashlib.sha256(report.canonical_json().encode()).hexdigest() == LEMMA22_PINS[2].values[2]
    assert verdicts == [(g, False) for g in crosschecked] and len(crosschecked) == 43 + 285
    # a scalar verdict that contradicts the batch is recorded on each of them
    monkeypatch.setattr(harness, "decide_q_gt", lambda g, threshold: (True, decide(g, threshold)[1]))
    report = run_campaign(CampaignConfig(mode="lemma22", n_max=6))
    assert (report.tested, report.failed) == (27_475, 328)
    assert [parse_graph6(v["graph6"]) for v in report.violations] == crosschecked
    # with rungs that settle nothing, every graph takes the scalar decision
    # as a leftover, and the bytes are the same
    verdicts.clear()
    monkeypatch.setattr(harness, "decide_q_gt", spy)
    monkeypatch.setattr(harness, "_edge_bound_rungs", lambda rows, degs, n: np.zeros(len(rows), dtype=np.int8))
    report = run_campaign(CampaignConfig(mode="lemma22", n_max=6))
    assert hashlib.sha256(report.canonical_json().encode()).hexdigest() == LEMMA22_PINS[2].values[2]
    assert len(verdicts) == 27_475 and {v for _, v in verdicts} == {False}


def test_lemma23_campaign_reduced_budget():
    # with at most 2 missing edges every admissible graph is 3-connected
    config = CampaignConfig(mode="lemma23", n=8, k=3, delta=3, complement_budget=2)
    report = run_campaign(config)
    assert report.counters_consistent()
    assert report.details["universe"] == 1 + 28 + math.comb(28, 2)
    assert report.details["enumerated"] == report.details["universe"]
    assert report.failed == 0 and report.violations == []
    assert report.details["exceptional"] == 0
    assert report.passed == report.tested - report.skipped


# canonical-JSON sha256 of the per-graph sweep that preceded the batched kernel
LEMMA23_PINS = [
    pytest.param((8, 3, 3), 3, 1, "ec845aaff1f3d98bcfbf03fa09a7d08136b5d860a4e0a96d2feab93ce711bf70",
                 id="n8-k3-d3-budget3-w1"),
    pytest.param((8, 3, 3), 3, 2, "3ae32adcc39ed90865b26f4af938713ea22ddc8b1eef23b767bdc7df0d64da6c",
                 id="n8-k3-d3-budget3-w2"),
    # budget 5 reaches the skip branch: 168 graphs have minimum degree < 3
    pytest.param((8, 3, 3), 5, 1, "7565257c928bca7fbc6bf46fb5f442df1be3bb274d0c96ed98c8a5b5df7aaac0",
                 id="n8-k3-d3-budget5-w1"),
    pytest.param((8, 3, 3), 5, 2, "e941ffc1d0ca8f6d90cc4035b09668f4e8ccfd5656c6a5caeeec53bbf511b936",
                 id="n8-k3-d3-budget5-w2"),
    # 401,930 graphs: 105 exceptional, 3 stride cross-checks
    pytest.param((7, 2, 2), None, 1, "726dd58f75c70501f4a66502abae593a926df34afa09c955bad1de6bbfb1e715",
                 id="n7-k2-d2-w1"),
    # 11,698,223 graphs: 89,328 skipped, 112 stride cross-checks, none exceptional;
    # the k = 2 subset reach at n = 8 over many rank intervals
    pytest.param((8, 2, 2), 9, 1, "c3e65938f10b1e2d7c2332e2fcc25bd965a745500ceca2108ddf2e56c104e048",
                 id="n8-k2-d2-budget9-w1"),
]


@pytest.mark.parametrize("block", [None, 1000], ids=["block-default", "block-1000"])
@pytest.mark.parametrize("nkd,budget,workers,digest", LEMMA23_PINS)
def test_lemma23_canonical_json_pinned(monkeypatch, block, nkd, budget, workers, digest):
    if block is not None:  # many rank intervals per size
        monkeypatch.setattr(harness, "_LEMMA23_BLOCK", block)
    n, k, delta = nkd
    report = run_campaign(CampaignConfig(mode="lemma23", n=n, k=k, delta=delta,
                                         complement_budget=budget, workers=workers))
    assert hashlib.sha256(report.canonical_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("block,nkd,budget,workers,digest", [
    pytest.param(block, *pin.values, id=f"{pin.id}-block-{block}")
    for block, pin in ((7, LEMMA23_PINS[0]), (7, LEMMA23_PINS[1]), (997, LEMMA23_PINS[2]))])
def test_lemma23_pins_hold_across_leading_pair_boundaries(monkeypatch, block, nkd, budget, workers, digest):
    # odd blocks and word tables of at most 7 words, so that the builder splits
    # intervals that straddle the leading-pair boundaries of each size: block 7
    # crosses every one at budget 3; budget 5, whose report counts the graphs
    # skipped for low degree and so depends on which graphs are built, takes 997
    monkeypatch.setattr(qgraphs, "_WORD_TABLE_MAX", 7)
    test_lemma23_canonical_json_pinned(monkeypatch, block, nkd, budget, workers, digest)


@pytest.mark.parametrize("block,cap", [(1 << 16, None), (7, 7)], ids=["block-default", "block-7-cap-7"])
def test_budget3_graphs_pinned(monkeypatch, block, cap):
    # every K_8 minus at most 3 edges passes, so the budget-3 LEMMA23_PINS
    # count graphs and cannot see which ones were built; this sha256 of the
    # degree sequences, one byte per vertex in rank order, can
    if cap is not None:
        monkeypatch.setattr(qgraphs, "_WORD_TABLE_MAX", cap)
    full = np.bitwise_xor.reduce(qgraphs._pair_words(8))
    digest = hashlib.sha256()
    for size in range(4):
        total = math.comb(28, size)
        for lo in range(0, total, block):
            graphs = qgraphs._complement_words(8, size, lo, min(lo + block, total)) ^ full
            digest.update(_POPCOUNT[graphs.view(np.uint8)].tobytes())
    assert digest.hexdigest() == "041c2f67b118ce8424a5ca30d09164f7356328ad64c474be04b087253c033410"


@pytest.mark.parametrize("overrides", [
    dict(k=0),  # k >= 2
    dict(n=5, k=2, delta=1),  # delta >= k: it recorded 20 false violations
    dict(n=7, k=3, delta=3),  # n >= 2*delta-k+5
    dict(complement_budget=-1),
    dict(complement_budget=9),  # (delta-k+3)(n-delta-2) - 1 = 8
    dict(complement_budget=40),  # 2^28 graphs, every one skipped
])
def test_lemma23_rejects_config_outside_hypotheses(overrides):
    config = CampaignConfig(**{**dict(mode="lemma23", n=8, k=3, delta=3), **overrides})
    with pytest.raises(CampaignError):
        run_campaign(config)


def test_lemma23_bad_config_exit_code(capsys):
    assert main(["sweep", "--mode", "lemma23", "--n", "5", "--k", "2", "--delta", "1"]) == 2
    assert "delta >= k fails (delta=1, k=2)" in capsys.readouterr().err
    assert main(["sweep", "--mode", "lemma23", "--n", "8", "--budget", "40"]) == 2


def test_lemma23_scalar_path_must_agree_with_batch(monkeypatch):
    # a subset check that never finds k-connectivity contradicts the batch
    # on the three stride graphs, which the batch found 2-connected
    monkeypatch.setattr(harness, "is_k_connected_small", lambda g, k: (False, ()))
    report = run_campaign(CampaignConfig(mode="lemma23", n=7, k=2, delta=2))
    assert report.counters_consistent()
    assert report.failed == 3 and report.details["exceptional"] == 105
    assert {v["detail"] for v in report.violations} == {
        "connectivity checks disagree: batched True, subset False, max-flow True"}


def test_lemma23_scalar_path_must_agree_with_max_flow(monkeypatch):
    # a max-flow check that finds every graph k-connected contradicts the
    # batch and the subset check on the 105 exceptional graphs
    monkeypatch.setattr(harness, "is_k_connected", lambda g, k: (True, ()))
    report = run_campaign(CampaignConfig(mode="lemma23", n=7, k=2, delta=2))
    assert report.counters_consistent()
    assert report.failed == 105 and report.details["exceptional"] == 0
    assert {v["detail"] for v in report.violations} == {
        "connectivity checks disagree: batched False, subset False, max-flow True"}


def test_lemma23_cut_graphs_must_be_extremal_members(monkeypatch):
    # a classifier that finds no member fails each of the 105 exceptional graphs
    monkeypatch.setattr(harness, "classify_membership", lambda g, k, delta, permissive: None)
    report = run_campaign(CampaignConfig(mode="lemma23", n=7, k=2, delta=2))
    assert report.counters_consistent()
    assert report.failed == 105 and report.details["exceptional"] == 0
    assert {v["detail"] for v in report.violations} == {
        "density condition met (m=13 > 12) but neither 2-connected nor a subgraph of the extremal construction"}


@pytest.mark.parametrize("nkd,budget", [((8, 3, 3), 5), ((7, 2, 2), None)])
def test_lemma23_batch_tests_only_k_connectivity(monkeypatch, nkd, budget):
    # no admitted graph is disconnected, so no connectivity pass runs; the
    # byte counts the chunk hands over, after its own degree filter read
    # them, are still the degrees of the rows, whole blocks and filtered ones
    seen = set()
    rows_test = qgraphs._k_connected_rows

    def spy(rows, n, k, counts):
        seen.add(k)
        assert np.array_equal(counts, _POPCOUNT[rows].view(np.uint64).ravel())
        return rows_test(rows, n, k, counts)

    monkeypatch.setattr(qgraphs, "_k_connected_rows", spy)
    n, k, delta = nkd
    report = run_campaign(CampaignConfig(mode="lemma23", n=n, k=k, delta=delta,
                                         complement_budget=budget))
    assert report.failed == 0 and seen == {k}


def test_density_budget_admits_only_dense_connected_graphs():
    # every complement size the lemma23 sweep may enumerate meets m > rhs, the
    # next size does not, and a disconnected graph of minimum degree delta
    # misses more edges than that
    cases = 0
    for n in range(41):
        for k in range(n + 1):
            for delta in range(n + 1):
                if density_parameter_failures(n, k, delta):
                    continue
                npairs = n * (n - 1) // 2
                limit = (delta - k + 3) * (n - delta - 2) - 1
                rhs = density_rhs(n, k, delta)
                assert all(npairs - size > rhs for size in range(limit + 1)), (n, k, delta)
                assert not npairs - (limit + 1) > rhs, (n, k, delta)
                assert (delta + 1) * (n - delta - 1) > limit, (n, k, delta)
                cases += 1
    assert cases > 1000


@pytest.mark.parametrize("npairs,size", [(28, 0), (28, 1), (28, 4), (15, 5), (10, 10)])
def test_unrank_combinations_matches_itertools(monkeypatch, npairs, size):
    # the complement words of a rank interval are the XORs of the pair words of
    # the itertools.combinations subsets at those ranks, whether read from the
    # whole tables or split on leading pairs down to tables of at most 3 words
    n = math.isqrt(2 * npairs) + 1
    combos = np.array(list(itertools.combinations(range(npairs), size)), dtype=np.int64)
    want = np.bitwise_xor.reduce(qgraphs._pair_words(n)[combos], axis=1)
    lo, hi = len(want) // 3, len(want) // 3 + len(want) // 2 + 1
    for cap in (qgraphs._WORD_TABLE_MAX, 3):
        monkeypatch.setattr(qgraphs, "_WORD_TABLE_MAX", cap)
        got = qgraphs._complement_words(n, size, 0, len(want))
        assert got.dtype == np.uint64 and np.array_equal(got, want)
        assert np.array_equal(qgraphs._complement_words(n, size, lo, hi), want[lo:hi])


def _k8_minus(combos):
    """Bit rows and graphs of K_8 minus each complement edge set of ``combos``
    (rows of pair indices in ``itertools.combinations(range(8), 2)`` order)."""
    words = qgraphs._pair_words(8)
    graphs = np.bitwise_xor.reduce(words) ^ np.bitwise_xor.reduce(words[combos], axis=1)
    rows = graphs.view(np.uint8).reshape(len(combos), 8)
    return rows, [graph_of_rows(row.tolist()) for row in rows]


def ladder_cases():
    """(n, k, rows, graphs) with minimum degree at least k, k = 1..4: every
    labeled graph on n <= 6 vertices, every K_8 minus at most 3 edges, and a
    seeded sample of 600 K_8 minus 8 edges."""
    corpora = []
    for n in range(1, 7):
        graphs = list(iter_labeled_graphs(n))
        rows = np.zeros((len(graphs), 8), dtype=np.uint8)
        rows[:, :n] = [g.rows for g in graphs]
        corpora.append((n, rows, graphs))
    for size in range(4):
        combos = np.array(list(itertools.combinations(range(28), size)), dtype=np.int64)
        corpora.append((8, *_k8_minus(combos.reshape(math.comb(28, size), size))))
    rng = np.random.default_rng(2303)
    corpora.append((8, *_k8_minus(np.array([rng.choice(28, 8, replace=False) for _ in range(600)]))))
    for n, rows, graphs in corpora:
        mindeg = np.array([min(g.degrees()) for g in graphs])
        for k in range(1, 5):
            admissible = np.flatnonzero(mindeg >= k)
            yield n, k, rows[admissible], [graphs[i] for i in admissible]


def _degree_counts(rows):
    """Each graph's ``_byte_counts``, taken from a copy of its bit rows."""
    graphs = rows.view(np.uint64).ravel()
    return qgraphs._byte_counts(graphs.copy(), np.empty_like(graphs))


def common_neighbours_at_least(g, k):
    rows = g.rows
    return all(bin(rows[u] & rows[v]).count("1") >= k
               for u, v in itertools.combinations(range(g.n), 2) if not rows[u] >> v & 1)


def test_k_connected_rows_matches_subset_check():
    settled = {"dirac": 0, "shared": 0, "reach-yes": 0, "reach-no": 0}
    for n, k, rows, graphs in ladder_cases():
        got = qgraphs._k_connected_rows(rows, n, k, _degree_counts(rows))
        want = [is_k_connected_small(g, k)[0] for g in graphs]
        assert got.tolist() == want, (n, k)
        for g, ok in zip(graphs, want):
            rung = ("dirac" if dirac_condition(g, k) else "shared" if common_neighbours_at_least(g, k)
                    else "reach-yes" if ok else "reach-no")
            settled[rung] += 1
    # every rung settles some of the cases, and the reach finds both verdicts
    assert min(settled.values()) > 0, settled


def test_dirac_rung_matches_dirac_condition(monkeypatch):
    # the common-neighbour rung, stubbed to settle nothing, sees exactly the
    # graphs the Dirac rung left open; the reach then decides them alone
    opened = []

    def spy(rows, n, k):
        opened.append(rows.copy())
        return np.zeros(len(rows), dtype=bool)

    monkeypatch.setattr(qgraphs, "_common_neighbours_at_least", spy)
    for n, k, rows, graphs in ladder_cases():
        opened.clear()
        got = qgraphs._k_connected_rows(rows, n, k, _degree_counts(rows))
        assert got.tolist() == [is_k_connected_small(g, k)[0] for g in graphs], (n, k)
        dirac = np.array([dirac_condition(g, k) for g in graphs], dtype=bool)
        assert len(opened) == int(not dirac.all())
        assert np.array_equal(opened[0] if opened else rows[:0], rows[~dirac]), (n, k)


def test_one_count_serves_the_degree_and_dirac_thresholds():
    # the lemma23 chunk counts each word's bytes once, reads delta off the
    # counts and then the Dirac threshold; every read must equal the read of
    # a fresh count, and the minimum degree, whatever was read before it
    rng = np.random.default_rng(2324)
    for n in range(1, 9):
        graphs = [random_graph_mask(n, rng, p) for p in rng.random(400)]
        rows = np.zeros((len(graphs), 8), dtype=np.uint8)
        rows[:, :n] = [g.rows for g in graphs]
        mindeg = np.array([min(g.degrees()) for g in graphs])
        counts = _degree_counts(rows)
        for t in range(10):
            fresh = qgraphs._min_degree_at_least(_degree_counts(rows), n, t)
            assert np.array_equal(qgraphs._min_degree_at_least(counts, n, t), fresh), (n, t)
            assert np.array_equal(fresh, mindeg >= t), (n, t)
            for dirac in range(10):
                got = qgraphs._min_degree_at_least(counts, n, dirac)
                assert np.array_equal(got, mindeg >= dirac), (n, t, dirac)
        assert np.array_equal(counts, _POPCOUNT[rows].view(np.uint64).ravel()), n


def test_common_neighbour_rung_matches_its_definition():
    for n, k, rows, graphs in ladder_cases():
        got = qgraphs._common_neighbours_at_least(rows, n, k)
        assert got.tolist() == [common_neighbours_at_least(g, k) for g in graphs], (n, k)


def _count_reached(monkeypatch):
    """Spy on the batched reach: graphs per call, keyed by the number of
    surviving vertices."""
    reached = {}
    reach = qgraphs._reach_within

    def spy(graphs, seen, allowed):
        survivors = bin(allowed).count("1")
        reached[survivors] = reached.get(survivors, 0) + len(graphs)
        return reach(graphs, seen, allowed)

    monkeypatch.setattr(qgraphs, "_reach_within", spy)
    return reached


# graphs of K_8 minus at most ``budget`` edges that reach the subset reach at
# (8,3,3) after the Dirac and common-neighbour rungs
@pytest.mark.parametrize("budget,subset_reach", [(4, 0), (8, 2_873_780)])
def test_lemma23_rungs_leave_only_open_graphs_to_the_reach(monkeypatch, budget, subset_reach):
    reached = _count_reached(monkeypatch)
    report = run_campaign(CampaignConfig(mode="lemma23", n=8, k=3, delta=3, complement_budget=budget))
    assert report.failed == 0 and not report.violations
    assert reached == ({6: subset_reach * math.comb(8, 2)} if subset_reach else {})  # G - S per pair S


def test_lemma23_stride_crosschecks_rung_settled_graphs(monkeypatch):
    # at budget 4 the rungs settle every graph, and the stride graphs still
    # take the subset check and max flow, on graphs built from the block's
    # rows with their degree tuple cached
    monkeypatch.setattr(harness, "_LEMMA23_STRIDE", 97)
    reached = _count_reached(monkeypatch)
    calls = {"subset": 0, "flow": 0}

    def counted(name, fn):
        def wrapper(g, k):
            calls[name] += 1
            assert g._degs == graph_of_rows(g.rows).degrees()
            return fn(g, k)
        return wrapper

    monkeypatch.setattr(harness, "is_k_connected_small", counted("subset", harness.is_k_connected_small))
    monkeypatch.setattr(harness, "is_k_connected", counted("flow", harness.is_k_connected))
    report = run_campaign(CampaignConfig(mode="lemma23", n=8, k=3, delta=3, complement_budget=4))
    strided = sum(math.comb(28, size) // 97 for size in range(5))
    assert report.details["crosschecked"] == calls["subset"] == calls["flow"] == strided == 247
    assert report.failed == 0 and not report.violations and report.details["exceptional"] == 0
    assert report.passed == report.tested == 24_158
    assert not reached


def test_theorem15_campaign():
    config = CampaignConfig(mode="theorem15", n=103, k=3, delta=3)
    report = run_campaign(config)
    assert report.counters_consistent()
    # K_n, four A1 representatives (sizes 0 and 1), nine A2, one proof chain
    assert report.tested == 1 + 4 + 9 + 1
    assert report.failed == 0 and report.violations == []
    assert report.details["proof_chain"]["chain_holds"]


@pytest.mark.parametrize("n,k,delta,message", [
    (102, 3, 3, "n >= F(k, delta) fails (n=102, F(3, 3) = 103)"),  # it reported 15 failed cases
    (150, 2, 3, "k >= 3 fails (k=2)"),  # F(k, delta) is undefined; it reported 5 failed cases
])
def test_theorem15_refuses_orders_outside_the_theorem(n, k, delta, message, capsys):
    with pytest.raises(CampaignError, match=re.escape(message)):
        run_campaign(CampaignConfig(mode="theorem15", n=n, k=k, delta=delta))
    assert main(["sweep", "--mode", "theorem15", "--n", str(n), "--k", str(k), "--delta", str(delta)]) == 2
    assert message in capsys.readouterr().err


# canonical-JSON sha256 of outcome-only certify campaigns at paper scale;
# every decision in them must stay what it was
CERTIFY_PINS = [
    pytest.param(dict(mode="theorem15", n=103, k=3, delta=3),
                 "d74fc5d2b06a96a051aef4cc63947f767691be57f0b0cc7350043462272264c3",
                 id="theorem15-103-3-3"),
    pytest.param(dict(mode="theorem15", n=185, k=3, delta=4),
                 "d82c8b98c894214b9578c64464589ccfc2f8a98e68e1a4fb3f7242573f4520a8",
                 id="theorem15-185-3-4"),
    pytest.param(dict(mode="counterexample", n=103, k=3, delta=3, count=200, seed=5),
                 "9d800891118f52998a5d36884e5eea6f037f818fb031494a150b2d3011fdc73a",
                 id="counterexample-103-200-seed5"),
]


@pytest.mark.parametrize("overrides,digest", CERTIFY_PINS)
def test_certify_campaign_canonical_json_pinned(overrides, digest):
    report = run_campaign(CampaignConfig(**overrides))
    assert hashlib.sha256(report.canonical_json().encode()).hexdigest() == digest


# canonical-JSON sha256 of family-sweep at the paper's orders; its items
# carry the members' float brackets, whose last ulps move with the BLAS
# (and its thread count, which sets the summation order of each matvec and
# solve), so the campaign runs in a child interpreter on one BLAS thread
FAMILY_SWEEP_PINS = [
    pytest.param(dict(n=103, k=3, delta=3),
                 "c29452c0177fd071938d5e9fec8769435745375cbabf30200066950cf96f97ba",
                 id="family-sweep-103-3-3"),
    pytest.param(dict(n=185, k=3, delta=4),
                 "c2fe78b629ef8602d9045655fdb5966c005b32bb4f99ca8293b9da9c663ae217",
                 id="family-sweep-185-3-4"),
    pytest.param(dict(n=160, k=4, delta=4),
                 "03f80aa4e565b561094592d3deee30a8ebe104a857ef65915158d8e3404ce70b",
                 id="family-sweep-160-4-4"),
]


_ONE_BLAS_THREAD = {name: "1" for name in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _child_python(script: str) -> str:
    """Standard output of ``script`` run in a fresh interpreter that imports this qconn."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env={**os.environ, **_ONE_BLAS_THREAD, "PYTHONPATH": path})
    assert child.returncode == 0, child.stderr
    return child.stdout


@pytest.mark.parametrize("overrides,digest", FAMILY_SWEEP_PINS)
def test_family_sweep_canonical_json_pinned(overrides, digest):
    out = _child_python("from qconn.harness import CampaignConfig, run_campaign\n"
                        f"config = CampaignConfig(mode='family-sweep', **{overrides!r})\n"
                        "print(run_campaign(config).canonical_json())")
    assert hashlib.sha256(out.rstrip("\n").encode()).hexdigest() == digest


def test_import_loads_no_process_pool():
    # the pool modules load only when a campaign shards across workers
    out = _child_python("import sys, qconn\n"
                        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                        "('multiprocessing', 'concurrent')))")
    assert out == "[]\n"


@pytest.mark.parametrize("nkd,calls", [((103, 3, 3), (13, 13, 9)), ((160, 4, 4), (15, 15, 11))])
def test_family_sweep_builds_and_estimates_each_member_once(monkeypatch, nkd, calls):
    # (make_member, q_index, decide_q_ge): one build and one estimate per
    # member, one exact decision per A2 member
    from qconn import certifier, extremal

    counts = {"make_member": 0, "q_index": 0, "decide_q_ge": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((extremal, "make_member"), (extremal, "q_index"),
                         (certifier, "q_index"), (certifier, "decide_q_ge")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    n, k, delta = nkd
    assert run_campaign(CampaignConfig(mode="family-sweep", n=n, k=k, delta=delta)).failed == 0
    assert tuple(counts.values()) == calls


def test_family_sweep_campaign():
    config = CampaignConfig(mode="family-sweep", n=103, k=3, delta=3)
    report = run_campaign(config)
    assert report.counters_consistent()
    assert report.failed == 0
    lemmas = [item["lemma"] for item in report.items]
    assert lemmas.count("3.1") == 4
    assert lemmas.count("3.2") == 9
    assert lemmas.count("3.3") == 9
    assert "3.4+3.6" in lemmas and "3.7" in lemmas and "3.8" in lemmas


def test_counterexample_campaign_small():
    config = CampaignConfig(mode="counterexample", n=103, k=3, delta=3,
                            count=8, seed=42, edge_probability=0.5)
    report = run_campaign(config)
    assert report.counters_consistent()
    assert report.tested == 8
    assert report.failed == 0 and report.violations == []
    assert set(report.details["outcomes"]) <= {
        "CONDITION_NOT_MET", "K_CONNECTED_CERTIFIED", "EXCEPTIONAL_FAMILY",
        "HYPOTHESIS_FAILED", "UNDECIDED_NUMERIC"}
    again = run_campaign(config)
    assert report.canonical_json() == again.canonical_json()


def test_certify_one_campaign(tmp_path):
    corpus = tmp_path / "in.g6"
    a_graph, _ = build_A(ExtremalParams(103, 3, 3))
    corpus.write_text(write_graph6(complete(103)) + "\n" + write_graph6(a_graph) + "\n")
    out = tmp_path / "report.json"
    config = CampaignConfig(mode="certify-one", k=3, input_path=str(corpus),
                            output_path=str(out))
    report = run_campaign(config)
    assert report.tested == 2 and report.failed == 0
    assert report.items[0]["outcome"] == "K_CONNECTED_CERTIFIED"
    assert report.items[1]["outcome"] == "EXCEPTIONAL_FAMILY"
    saved = json.loads(out.read_text())
    assert saved["schema"] == 1
    assert saved["tested"] == 2


def test_campaign_bad_mode():
    with pytest.raises(CampaignError):
        run_campaign(CampaignConfig(mode="nope"))


@pytest.mark.parametrize("option,value", [("workers", 0), ("workers", -1), ("count", -1)])
def test_campaign_refuses_bad_counts(option, value, capsys):
    with pytest.raises(CampaignError, match=option):
        run_campaign(CampaignConfig(**{"mode": "counterexample", "n": 20, "count": 4, option: value}))
    assert main(["sweep", "--mode", "counterexample", "--n", "20", f"--{option}", str(value)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {option} must be")


def test_campaign_with_count_zero_tests_nothing():
    report = run_campaign(CampaignConfig(mode="counterexample", n=20, count=0))
    assert report.tested == 0 and report.counters_consistent()


def test_report_json_shape():
    report = Report(mode="lemma22", config={})
    payload = report.to_dict()
    assert payload["schema"] == 1
    assert set(payload) >= {"tested", "passed", "failed", "skipped", "undecided",
                            "violations", "details"}
    assert "timing" not in json.loads(report.canonical_json())


def test_wall_clock_is_monotonic_and_kept_out_of_canonical_json(monkeypatch):
    # the system clock can jump; campaign timing reads perf_counter only
    monkeypatch.setattr(harness.time, "time", lambda: pytest.fail("time.time was read"))
    report = run_campaign(CampaignConfig(mode="lemma22", n_max=4))
    assert report.wall_clock_s > 0
    assert json.loads(report.to_json())["timing"] == {"wall_clock_s": report.wall_clock_s}
    assert "timing" not in json.loads(report.canonical_json())


def test_workers_merge_deterministic():
    # the counterexample run also merges an outcome histogram, key by key,
    # from 4 chunks at one worker and 8 at two
    for config in (dict(mode="lemma22", n_min=2, n_max=4),
                   dict(mode="counterexample", n=103, count=40, seed=5, edge_probability=0.98)):
        a = run_campaign(CampaignConfig(**config, workers=1))
        b = run_campaign(CampaignConfig(**config, workers=2))
        # worker count is config echo; the measured content must be identical
        da, db = a.to_dict(include_timing=False), b.to_dict(include_timing=False)
        da.pop("config"), db.pop("config")
        assert da == db
    assert a.details["outcomes"] == {"CONDITION_NOT_MET": 24, "K_CONNECTED_CERTIFIED": 16}


def test_undecided_cases_are_counted_as_undecided(tmp_path, monkeypatch):
    from qconn import certifier, q_index
    undecided = lambda g, threshold: (None, q_index(g))
    monkeypatch.setattr(certifier, "decide_q_ge", undecided)
    corpus = tmp_path / "k103.g6"
    corpus.write_text(write_graph6(complete(103)) + "\n")
    report = run_campaign(CampaignConfig(mode="certify-one", k=3, input_path=str(corpus)))
    assert (report.tested, report.undecided, report.passed) == (1, 1, 0)
    assert report.violations == []
    report = run_campaign(CampaignConfig(mode="counterexample", n=103, count=2, seed=5,
                                         edge_probability=0.98))
    assert (report.tested, report.undecided, report.passed) == (2, 2, 0)
    assert report.details["outcomes"] == {"UNDECIDED_NUMERIC": 2}

    # every connected graph of the orders n <= 4 takes the scalar decision
    monkeypatch.setattr(harness, "decide_q_gt", undecided)
    report = run_campaign(CampaignConfig(mode="lemma22", n_max=3))
    assert report.counters_consistent()
    assert (report.tested, report.undecided, report.passed, report.failed) == (5, 5, 0, 0)
    assert len(report.violations) == 5
    assert all(v["detail"].startswith("undecided:") for v in report.violations)


def test_certify_one_replays_condition_not_met(tmp_path):
    from qconn import make_member
    member = make_member(ExtremalParams(103, 3, 3), [(0, 4), (4, 5)])
    corpus = tmp_path / "a2.g6"
    corpus.write_text(write_graph6(member.graph) + "\n")
    report = run_campaign(CampaignConfig(mode="certify-one", k=3, input_path=str(corpus)))
    assert report.items[0]["outcome"] == "CONDITION_NOT_MET"
    assert report.failed == 0
