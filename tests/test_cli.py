import io
import json
import sys

import numpy as np
import pytest

from qconn import (ExtremalParams, build_A, complete, empty, join, parse_graph6, q_index,
                   write_graph6)
from qconn.cli import main
from qconn.graphs import MAX_ORDER


def star(n):
    return join(complete(1), empty(n - 1))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_encode_decode_round_trip(tmp_path, capsys):
    edgelist = tmp_path / "g.txt"
    edgelist.write_text("3\n0 1\n1 2\n")
    code, out = run_cli(capsys, "encode", str(edgelist))
    assert code == 0 and out.strip() == "Bg"

    g6 = tmp_path / "g.g6"
    g6.write_text("Bg\n")
    code, out = run_cli(capsys, "decode", "--json", str(g6))
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 3, "m": 2, "edges": [[0, 1], [1, 2]]}


def test_tol_only_where_it_is_read():
    # decode and kappa run no spectral code; verify's checks, certify's
    # verdicts and every campaign are exact and take no tolerance
    for argv in (["decode", "-"], ["kappa", "-"], ["verify", "--lemma", "chain"],
                 ["certify", "--k", "3", "-"], ["sweep", "--mode", "lemma22"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", "1e-3"])
        assert exc.value.code == 2


def test_compute_q(tmp_path, capsys):
    f = tmp_path / "k4.g6"
    f.write_text(write_graph6(complete(4)) + "\n")
    code, out = run_cli(capsys, "compute-q", "--json", "--oracle", str(f))
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == pytest.approx(6.0, abs=1e-9)
    assert payload["oracle"] == pytest.approx(6.0, abs=1e-8)
    assert payload["converged"] and payload["oracle_inside"] is True


def test_compute_q_oracle_outside_the_bracket_fails(tmp_path, capsys, monkeypatch):
    from qconn import cli
    from qconn.spectral import SpectralEstimate

    f = tmp_path / "k4.g6"
    f.write_text(write_graph6(complete(4)) + "\n")  # q = 6
    for lower, upper, code_want in ((6.0, 6.0, 0), (5.0, 5.9, 1), (6.1, 7.0, 1)):
        monkeypatch.setattr(cli, "q_index", lambda g, tol: SpectralEstimate(
            lower, upper, np.full(g.n, 0.5), 1, True, tol))
        code, out = run_cli(capsys, "compute-q", "--oracle", str(f))
        assert code == code_want, (lower, upper)
        assert f"inside={not code_want}" in out
    # without --oracle nothing is compared
    code, _ = run_cli(capsys, "compute-q", str(f))
    assert code == 0


def test_compute_q_oracle_above_its_cap_fails(tmp_path, capsys):
    from qconn import path
    from qconn.spectral import ORACLE_MAX_N

    f = tmp_path / "paths.g6"
    for n, code_want in ((200, 0), (ORACLE_MAX_N + 1, 1)):
        f.write_text(write_graph6(path(n)) + "\n")
        code = main(["compute-q", "--json", "--oracle", str(f)])
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert code == code_want and payload["n"] == n
        if code_want:  # the check asked for did not run
            assert payload["oracle"] is None and payload["oracle_inside"] is None
            assert err.count("\n") == 1 and f"cap n={ORACLE_MAX_N}" in err
        else:
            assert payload["oracle_inside"] is True and err == ""


def test_kappa(tmp_path, capsys):
    f = tmp_path / "c6.g6"
    f.write_text("EhEG\n")  # placeholder replaced below
    from qconn import cycle
    f.write_text(write_graph6(cycle(6)) + "\n")
    code, out = run_cli(capsys, "kappa", "--json", str(f))
    assert code == 0
    payload = json.loads(out)
    assert payload["kappa"] == 2 and payload["method"] == "maxflow"
    code, out = run_cli(capsys, "kappa", "--json", "--brute", str(f))
    assert json.loads(out)["method"] == "brute-force"


def test_certify_cli(tmp_path, capsys):
    g, _ = build_A(ExtremalParams(103, 3, 3))
    f = tmp_path / "a.g6"
    f.write_text(write_graph6(g) + "\n")
    code, out = run_cli(capsys, "certify", "--k", "3", "--json", str(f))
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "EXCEPTIONAL_FAMILY"
    assert payload["member"]["family_class"] == "A1"


def test_construct_cli(tmp_path, capsys):
    out_file = tmp_path / "a.g6"
    code, out = run_cli(capsys, "construct", "--family", "A", "--n", "10",
                        "--k", "3", "--delta", "4", "--json", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["family_class"] == "A1"
    g = parse_graph6(out_file.read_text().strip())
    assert g.n == 10 and g.m == 30
    code, out = run_cli(capsys, "construct", "--family", "A", "--n", "10",
                        "--k", "3", "--delta", "4", "--remove", "5-6", "--json")
    assert json.loads(out)["removed_edges"] == [[5, 6]]


def test_verify_cli(capsys):
    code, out = run_cli(capsys, "verify", "--lemma", "chain", "--n", "103",
                        "--k", "3", "--delta", "3", "--json")
    assert code == 0
    assert json.loads(out)["chain_holds"]
    code, out = run_cli(capsys, "verify", "--lemma", "3.1", "--n", "103",
                        "--k", "3", "--delta", "3", "--json")
    assert code == 0
    assert json.loads(out)["passed"]
    code, out = run_cli(capsys, "verify", "--lemma", "3.8", "--n", "103",
                        "--k", "3", "--delta", "3", "--json")
    assert code == 0


def test_verify_named_member_is_not_the_maximizer(capsys):
    # 3.4, 3.6 and 3.7 are proved for the maximizer only: on a member named
    # by --remove a broken ordering is a finding, not a failure
    code, out = run_cli(capsys, "verify", "--lemma", "orderings", "--remove", "0-4,1-5", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["passed"] and payload["findings"]
    assert payload["details"]["maximizer"] == "not the maximizer"
    code, out = run_cli(capsys, "verify", "--lemma", "3.7", "--remove", "0-4,1-5", "--json")
    assert code == 0 and json.loads(out)["details"]["maximizer"] == "not the maximizer"
    for lemma in ("orderings", "3.7"):
        code, out = run_cli(capsys, "verify", "--lemma", lemma, "--size", "2", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["passed"] and not payload["findings"]
        assert payload["details"]["maximizer"] == "empirical (best orbit representative)"


def test_verify_lemma22_cli(tmp_path, capsys):
    from qconn import path
    f = tmp_path / "p3.g6"
    f.write_text(write_graph6(path(3)) + "\n")
    code, out = run_cli(capsys, "verify", "--lemma", "2.2", str(f), "--json")
    assert code == 0
    assert json.loads(out)["holds"]
    # an edge-bound tie on the float path: q(K_103) = 204 = 2m/(n-1) + n - 2
    f.write_text(write_graph6(complete(103)) + "\n")
    code, out = run_cli(capsys, "verify", "--lemma", "2.2", str(f), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] and payload["bound"] == 204.0
    assert payload["q_upper"] >= 204  # the outward-rounded certificate bracket
    # the lemma's equality case: q(star_40) = 40 = bound, with a Perron
    # vector (39, 1, ..., 1) that no rounding at scale 2^30 holds exactly
    f.write_text(write_graph6(star(40)) + "\n")
    code, out = run_cli(capsys, "verify", "--lemma", "2.2", str(f), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True and payload["bound"] == 40.0


def test_verify_lemma22_cli_reports_undecided(tmp_path, capsys, monkeypatch):
    from qconn import cli, path
    monkeypatch.setattr(cli, "decide_q_gt", lambda g, t: (None, q_index(g)))
    f = tmp_path / "p3.g6"
    f.write_text(write_graph6(path(3)) + "\n")
    code, out = run_cli(capsys, "verify", "--lemma", "2.2", str(f), "--json")
    assert code == 0  # not a failure of the lemma
    assert json.loads(out)["holds"] is None
    code, out = run_cli(capsys, "verify", "--lemma", "2.2", str(f))
    assert code == 0 and "holds=undecided" in out


def test_sweep_cli(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out = run_cli(capsys, "sweep", "--mode", "lemma22", "--n-min", "2",
                        "--n-max", "4", "--out", str(out_file), "--json")
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["failed"] == 0
    assert payload["tested"] == 1 + 4 + 38


def test_bad_input_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.g6"
    f.write_text("\x10bad\n")
    code, _ = run_cli(capsys, "compute-q", str(f))
    assert code == 2
    code, _ = run_cli(capsys, "construct", "--family", "A", "--n", "4",
                      "--k", "3", "--delta", "3")
    assert code == 2  # n <= delta + 1


def test_input_errors_exit_2_with_their_line(monkeypatch, capsys):
    for data, where in ((b"", "line 1"), (b"3\n0 1 2\n", "line 2"), (b"3\n0 1\n\nx 2\n", "line 4"),
                        (b"3\n0 1\n0 1\n", "line 3: repeated edge 0 1 (first on line 2)"),
                        (b"3\n0 1\n2 1\n\n1 0\n", "line 5: repeated edge 1 0 (first on line 2)"),
                        (b"3\n0 1\n0 5\n", "line 3: edge 0 5 out of range for n=3"),
                        (b"3\n\n1 1\n", "line 3: loop at vertex 1")):
        _patch_stdin(monkeypatch, data)
        assert main(["encode", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err, err
    assert main(["construct", "--family", "A", "--n", "20", "--k", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--delta" in err
    for spec in ("0-", "0-5,x-1", "05"):
        assert main(["construct", "--family", "A", "--n", "20", "--k", "3", "--delta", "3",
                     "--remove", spec]) == 2
        err = capsys.readouterr().err
        bad = spec.split(",")[-1]
        assert err.startswith("error: --remove: ") and repr(bad) in err and "'u-v'" in err, err


def test_orders_above_the_codec_limit_exit_2_before_any_graph_is_built(monkeypatch, capsys):
    from qconn import cli, extremal, harness

    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built")

    for name in ("Graph", "make_member"):
        monkeypatch.setattr(cli, name, no_graph)
    for module, name in ((harness, "complete"), (harness, "random_graph"), (extremal, "build_A")):
        monkeypatch.setattr(module, name, no_graph)
    n = MAX_ORDER + 1
    _patch_stdin(monkeypatch, f"\n{n}\n0 1\n".encode())
    assert main(["encode", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and f"n={n}" in err and str(MAX_ORDER) in err, err
    assert main(["construct", "--family", "A", "--n", str(n), "--k", "3", "--delta", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --n ") and str(MAX_ORDER) in err, err
    for mode in ("theorem15", "family-sweep", "counterexample"):
        assert main(["sweep", "--mode", mode, "--n", str(n), "--count", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: n={n} ") and str(MAX_ORDER) in err, err
    for lemma in ("3.1", "3.2", "3.3", "orderings", "3.7", "3.8", "chain"):
        assert main(["verify", "--lemma", lemma, "--n", str(n)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --n ") and str(MAX_ORDER) in err, err


def test_nan_tolerance_exits_2(tmp_path, capsys):
    f = tmp_path / "k4.g6"
    f.write_text(write_graph6(complete(4)) + "\n")
    assert main(["compute-q", "--tol", "nan", str(f)]) == 2
    assert "tolerance" in capsys.readouterr().err


def _refuse(token):
    raise ValueError(f"not JSON: {token}")


@pytest.mark.parametrize("n,k,delta", [(5, 3, 3), (6, 3, 3), (6, 3, 4), (7, 3, 4), (8, 3, 4), (6, 4, 4)])
def test_lemma_3_8_json_without_hypothesis_members(capsys, n, k, delta):
    # no A2 member meets the hypotheses here: the extremes are null, not +-Infinity
    code, out = run_cli(capsys, "verify", "--lemma", "3.8", "--n", str(n), "--k", str(k),
                        "--delta", str(delta), "--json")
    assert code == 0
    details = json.loads(out, parse_constant=_refuse)["details"]
    assert details["per_representative"] == []
    assert details["max_q_upper"] is None and details["min_gap"] is None


def _patch_stdin(monkeypatch, data: bytes):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))


def test_decode_and_certify_from_stdin(monkeypatch, capsys):
    _patch_stdin(monkeypatch, b"Bg\n\nBw\n")
    code, out = run_cli(capsys, "decode", "--json", "-")
    assert code == 0
    assert [json.loads(ln)["m"] for ln in out.splitlines()] == [2, 3]

    g, _ = build_A(ExtremalParams(103, 3, 3))
    _patch_stdin(monkeypatch, (write_graph6(complete(103)) + "\n" + write_graph6(g) + "\n").encode())
    code, out = run_cli(capsys, "certify", "--k", "3", "--json", "-")
    assert code == 0
    assert [json.loads(ln)["outcome"] for ln in out.splitlines()] == [
        "K_CONNECTED_CERTIFIED", "EXCEPTIONAL_FAMILY"]


def test_malformed_second_line(tmp_path, capsys):
    f = tmp_path / "mixed.g6"
    f.write_text("Bg\n\x10bad\nBw\n")
    code = main(["decode", "--json", str(f)])
    captured = capsys.readouterr()
    assert code == 2
    assert [json.loads(ln)["m"] for ln in captured.out.splitlines()] == [2]
    assert "line 2" in captured.err
