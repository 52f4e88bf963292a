import hashlib
import itertools
import json
import math
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
from qconn import harness
from qconn.cli import main
from qconn.connectivity import is_k_connected_small
from qconn.graphs import iter_labeled_graphs
from qconn.harness import CampaignError, CorpusError, RandomGraphError


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
        random_graph(10, 0.0, min_degree_floor=0, seed=1, max_tries=5)
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
    config = CampaignConfig(mode="lemma22", n_min=2, n_max=5, tolerance=1e-9)
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
    pytest.param(5, 1, "40bd97ee4714c35bf49c1f9f1ca70db94d2dcfa031c82342d6503c26f00bc65f", id="n5-w1"),
    pytest.param(5, 2, "a58a56d5e915e722ac3afe6abc54707a8dd3cc9c27b7319a351d545be9655399", id="n5-w2"),
    pytest.param(6, 1, "45c4f0e8b058a77b0855ac627690171baffde3f0d92871f3ac1feb054d6a50ad", id="n6-w1"),
    pytest.param(6, 2, "bbace6b4dbc2d52e15f7589f30e0e9faf52188298463e75865c5cd182c445038", id="n6-w2"),
]


@pytest.mark.parametrize("n_max,workers,digest", LEMMA22_PINS)
def test_lemma22_canonical_json_pinned(n_max, workers, digest):
    report = run_campaign(CampaignConfig(mode="lemma22", n_max=n_max, workers=workers))
    assert hashlib.sha256(report.canonical_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("n_min,n_max", [(6, 8), (2, 9), (5, 4)])
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
    assert time.perf_counter() - start < 1.0


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
    pytest.param((8, 3, 3), 3, 1, "d2445a001cbaca8e97353849e20a55bddfd9e88253cbe02d8eb9466e02411904",
                 id="n8-k3-d3-budget3-w1"),
    pytest.param((8, 3, 3), 3, 2, "9f33d9a97c4aa9778076926bc9ddd93b9734a7e23d30ad01f36c5f3553cf58aa",
                 id="n8-k3-d3-budget3-w2"),
    # budget 5 reaches the skip branch: 168 graphs have minimum degree < 3
    pytest.param((8, 3, 3), 5, 1, "be7bdbf3740fd280935d1157f07474816a906087b1cc80bfb78eab28b71f20bb",
                 id="n8-k3-d3-budget5-w1"),
    pytest.param((8, 3, 3), 5, 2, "059ac883a70e4ddd7e70965cc4813f2c89474be7c98880cce7b64bbc7601fa8b",
                 id="n8-k3-d3-budget5-w2"),
    # 401,930 graphs: 105 exceptional, 3 stride cross-checks
    pytest.param((7, 2, 2), None, 1, "f6e25df04c2ec8131ca36a5f39438f417595c00d71c135f056ceed3918ae78c2",
                 id="n7-k2-d2-w1"),
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
        "batched and subset connectivity checks disagree"}


@pytest.mark.parametrize("npairs,size", [(28, 0), (28, 1), (28, 4), (15, 5), (10, 10)])
def test_unrank_combinations_matches_itertools(npairs, size):
    want = np.array(list(itertools.combinations(range(npairs), size)), dtype=np.int64)
    want = want.reshape(math.comb(npairs, size), size)
    got = harness._unrank_combinations(npairs, size, 0, len(want))
    assert got.dtype == np.int64 and np.array_equal(got, want)
    lo, hi = len(want) // 3, len(want) // 3 + len(want) // 2 + 1
    assert np.array_equal(harness._unrank_combinations(npairs, size, lo, hi), want[lo:hi])


def test_k_connected_rows_matches_subset_check():
    for n in range(1, 7):
        graphs = list(iter_labeled_graphs(n))
        rows = np.zeros((len(graphs), 8), dtype=np.uint8)
        rows[:, :n] = [g.rows for g in graphs]
        mindeg = np.array([min(g.degrees()) for g in graphs])
        for k in range(1, 5):
            admissible = np.flatnonzero(mindeg >= k)
            got = harness._k_connected_rows(rows[admissible], n, k)
            want = [is_k_connected_small(graphs[i], k)[0] for i in admissible]
            assert got.tolist() == want, (n, k)


def test_theorem15_campaign():
    config = CampaignConfig(mode="theorem15", n=103, k=3, delta=3)
    report = run_campaign(config)
    assert report.counters_consistent()
    # K_n, four A1 representatives (sizes 0 and 1), nine A2, one proof chain
    assert report.tested == 1 + 4 + 9 + 1
    assert report.failed == 0 and report.violations == []
    assert report.details["proof_chain"]["chain_holds"]


# canonical-JSON sha256 of outcome-only certify campaigns at paper scale;
# every decision in them must stay what it was
CERTIFY_PINS = [
    pytest.param(dict(mode="theorem15", n=103, k=3, delta=3),
                 "593aa7449d435c405e2bd49fb92fab4c2839b18b93fd487bc3af9370741043f5",
                 id="theorem15-103-3-3"),
    pytest.param(dict(mode="theorem15", n=185, k=3, delta=4),
                 "da3c31f224105c8b2ee15ed99fb12bfdc4835a1b37371cc4689f6668b6a7cd94",
                 id="theorem15-185-3-4"),
    pytest.param(dict(mode="counterexample", n=103, k=3, delta=3, count=200, seed=5),
                 "dcd4313fab95660bde8cf792d39b03e30ebb1d37603bec19dc475e19b14a3c94",
                 id="counterexample-103-200-seed5"),
]


@pytest.mark.parametrize("overrides,digest", CERTIFY_PINS)
def test_certify_campaign_canonical_json_pinned(overrides, digest):
    report = run_campaign(CampaignConfig(**overrides))
    assert hashlib.sha256(report.canonical_json().encode()).hexdigest() == digest


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
    undecided = lambda g, threshold, tol: (None, q_index(g, tol))
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
