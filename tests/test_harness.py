import json
import math

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


def test_theorem15_campaign():
    config = CampaignConfig(mode="theorem15", n=103, k=3, delta=3)
    report = run_campaign(config)
    assert report.counters_consistent()
    # K_n, four A1 representatives (sizes 0 and 1), nine A2, one proof chain
    assert report.tested == 1 + 4 + 9 + 1
    assert report.failed == 0 and report.violations == []
    assert report.details["proof_chain"]["chain_holds"]


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


def test_workers_merge_deterministic():
    base = CampaignConfig(mode="lemma22", n_min=2, n_max=4, workers=1)
    sharded = CampaignConfig(mode="lemma22", n_min=2, n_max=4, workers=2)
    a = run_campaign(base)
    b = run_campaign(sharded)
    # worker count is config echo; the measured content must be identical
    da, db = a.to_dict(include_timing=False), b.to_dict(include_timing=False)
    da.pop("config"), db.pop("config")
    assert da == db


def test_certify_one_replays_condition_not_met(tmp_path):
    from qconn import make_member
    member = make_member(ExtremalParams(103, 3, 3), [(0, 4), (4, 5)])
    corpus = tmp_path / "a2.g6"
    corpus.write_text(write_graph6(member.graph) + "\n")
    report = run_campaign(CampaignConfig(mode="certify-one", k=3, input_path=str(corpus)))
    assert report.items[0]["outcome"] == "CONDITION_NOT_MET"
    assert report.failed == 0
