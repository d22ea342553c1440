import json

import pytest

from conftest import TOY_TEXT
from robustmine import PredicateKind, sweep
from robustmine.cli import main
import robustmine.cli as cli


@pytest.fixture()
def toy_path(tmp_path):
    p = tmp_path / "toy.fimi"
    p.write_text(TOY_TEXT)
    return str(p)


@pytest.fixture()
def labels_path(tmp_path):
    p = tmp_path / "toy.labels"
    p.write_text("0\ta\n1\tb\n2\tc\n3\td\n4\te\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mine_ts(capsys, toy_path):
    code, out, err = run(capsys, "mine", "--input", toy_path, "--predicate", "ts",
                         "--alpha", "0.3333333333333333", "--rho", "0.03")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# itemset\tsupport\trobustness"
    assert lines[1].startswith("0\t3\t")
    assert lines[-1] == f"0 3\t2\t{25 / 729:.12g}"
    assert len(lines) == 8


def test_mine_free_row_values(capsys, toy_path):
    code, out, _ = run(capsys, "mine", "--input", toy_path, "--predicate", "free",
                       "--alpha", "0.5")
    assert code == 0
    assert out.splitlines()[1] == "2\t2\t0.9375"
    assert len(out.splitlines()) == 9


def test_mine_rejects_closed(capsys, toy_path):
    code, out, err = run(capsys, "mine", "--input", toy_path, "--predicate", "closed",
                         "--alpha", "0.5")
    assert code == 2
    assert "use the rank command" in err


def test_mine_bad_rho_and_alpha(capsys, toy_path):
    assert run(capsys, "mine", "--input", toy_path, "--predicate", "free",
               "--alpha", "0.5", "--rho", "1.5")[0] == 2
    assert run(capsys, "mine", "--input", toy_path, "--predicate", "free",
               "--alpha", "-0.5")[0] == 2


def test_missing_and_corrupt_input(capsys, tmp_path):
    code, _, err = run(capsys, "mine", "--input", str(tmp_path / "nope.fimi"),
                       "--predicate", "free", "--alpha", "0.5")
    assert code == 1 and "cannot read" in err
    bad = tmp_path / "bad.fimi"
    bad.write_text("0 1\n2 x\n")
    code, _, err = run(capsys, "mine", "--input", str(bad),
                       "--predicate", "free", "--alpha", "0.5")
    assert code == 1 and "line 2" in err


def test_rank_closed_table(capsys, toy_path):
    code, out, _ = run(capsys, "rank", "--input", toy_path, "--predicate", "closed",
                       "--top-k", "4")
    assert code == 0
    assert out.splitlines() == [
        "# rank\titemset\tsupport\tkey\texact",
        "1\t0 1 2 3 4\t2\t0:1\texact",
        "2\t1 3 4\t4\t0:1,2:-1\texact",
        "3\t4\t5\t0:1,1:-1\texact",
        "4\t0\t3\t0:1,1:-1\texact",
    ]


def test_rank_free_with_labels(capsys, toy_path, labels_path):
    code, out, _ = run(capsys, "rank", "--input", toy_path, "--predicate", "free",
                       "--top-k", "3", "--labels", labels_path)
    assert code == 0
    assert out.splitlines() == [
        "# rank\titemset\tsupport\tkey",
        "1\tc\t2\t4",
        "2\ta\t3\t3",
        "3\tb\t4\t2",
    ]


def test_rank_size_window(capsys, toy_path):
    code, out, _ = run(capsys, "rank", "--input", toy_path, "--predicate", "free",
                       "--min-size", "2", "--max-size", "2", "--top-k", "2")
    assert code == 0
    rows = [line.split("\t")[1] for line in out.splitlines()[1:]]
    assert rows == ["0 4", "0 1"]


def test_negative_max_size_exits_2(capsys, toy_path):
    for extra, message in ((("mine", "--alpha", "0.5"), "max size must be >= 0"),
                           (("rank",), "bad size window")):
        code, out, err = run(capsys, *extra, "--input", toy_path, "--predicate", "free",
                             "--max-size", "-1")
        assert code == 2 and out == "" and message in err, extra


def test_rank_json(capsys, toy_path, labels_path):
    code, out, _ = run(capsys, "rank", "--input", toy_path, "--predicate", "closed",
                       "--top-k", "2", "--format", "json", "--labels", labels_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "rank"
    assert doc["parameters"]["predicate"] == "closed"
    assert doc["records"][0] == {"rank": 1, "items": [0, 1, 2, 3, 4], "support": 2,
                                 "key": "0:1", "labels": ["a", "b", "c", "d", "e"],
                                 "exact": True}
    assert doc["records"][1]["items"] == [1, 3, 4]


def test_output_file(capsys, toy_path, tmp_path):
    target = tmp_path / "out.tsv"
    code, out, _ = run(capsys, "rank", "--input", toy_path, "--predicate", "free",
                       "--top-k", "1", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[1] == "1\t2\t2\t4"


def test_verify_exhaustive_pass(capsys, toy_path):
    code, out, _ = run(capsys, "verify", "--input", toy_path, "--itemset", "0 1",
                       "--predicate", "ts", "--alpha", "0.3333333333333333")
    assert code == 0
    lines = dict(line.split("\t", 1) for line in out.splitlines())
    assert lines["analytic"] == lines["exhaustive"]
    assert lines["verdict"].startswith("PASS")


def test_verify_closed_builds_family(capsys, toy_path):
    code, out, _ = run(capsys, "verify", "--input", toy_path, "--itemset", "1 3 4",
                       "--predicate", "closed", "--alpha", "0.5")
    assert code == 0 and "PASS" in out


def test_verify_guard_redirects_to_mc(capsys, tmp_path):
    big = tmp_path / "big.fimi"
    big.write_text("\n".join("0 1" for _ in range(25)) + "\n")
    code, _, err = run(capsys, "verify", "--input", str(big), "--itemset", "0",
                       "--predicate", "free", "--alpha", "0.5")
    assert code == 2 and "--method mc" in err


def test_verify_mc(capsys, toy_path):
    code, out, _ = run(capsys, "verify", "--input", toy_path, "--itemset", "0 1",
                       "--predicate", "free", "--alpha", "1.0",
                       "--method", "mc", "--samples", "10", "--seed", "3")
    assert code == 0
    lines = dict(line.split("\t", 1) for line in out.splitlines())
    assert lines["stderr"] == "0"
    assert lines["difference"] == "0"
    assert lines["verdict"] == "PASS (tolerance 0)"  # an exact match keeps tolerance 0


def test_verify_mc_estimate_of_one_tolerates_float_noise(capsys, tmp_path):
    # item 0 is free unless all 60 transactions without it drop out: the
    # analytic 1 - 0.6**60 sits 5e-14 below the estimate 1, whose binomial
    # stderr is 0; the add-one estimate (n + 1) / (n + 2) sets the tolerance
    path = tmp_path / "near-one.fimi"
    path.write_text("0\n" + "1\n" * 60)
    code, out, _ = run(capsys, "verify", "--input", str(path), "--itemset", "0",
                       "--predicate", "free", "--alpha", "0.4",
                       "--method", "mc", "--samples", "2000", "--seed", "1")
    lines = dict(line.split("\t", 1) for line in out.splitlines())
    assert lines["monte-carlo"] == "1" and lines["stderr"] == "0"
    assert 0 < float(lines["difference"]) < 1e-12
    p = 2001 / 2002
    assert lines["verdict"] == f"PASS (tolerance {5 * (p * (1 - p) / 2000) ** 0.5:.12g})"
    assert code == 0


def test_verify_mc_estimate_of_zero_tolerates_float_noise(capsys, tmp_path):
    # item 0 stays free only if the one transaction without it is kept, which
    # at alpha 1e-14 no sample does; the analytic value is about 1e-14
    path = tmp_path / "near-zero.fimi"
    path.write_text("0\n1\n")
    code, out, _ = run(capsys, "verify", "--input", str(path), "--itemset", "0",
                       "--predicate", "free", "--alpha", "1e-14",
                       "--method", "mc", "--samples", "50", "--seed", "2")
    lines = dict(line.split("\t", 1) for line in out.splitlines())
    assert lines["monte-carlo"] == "0" and lines["stderr"] == "0"
    assert 0 < float(lines["difference"]) < 1e-12
    p = 1 / 52
    assert lines["verdict"] == f"PASS (tolerance {5 * (p * (1 - p) / 50) ** 0.5:.12g})"
    assert code == 0


def test_verify_detects_mismatch(capsys, toy_path, monkeypatch):
    monkeypatch.setattr(cli, "robustness", lambda *a, **k: 0.123)
    code, out, _ = run(capsys, "verify", "--input", toy_path, "--itemset", "0 1",
                       "--predicate", "free", "--alpha", "0.5")
    assert code == 1 and "FAIL" in out


def test_verify_rejects_foreign_item(capsys, toy_path):
    code, _, err = run(capsys, "verify", "--input", toy_path, "--itemset", "9",
                       "--predicate", "free", "--alpha", "0.5")
    assert code == 2 and "universe" in err


def test_verify_on_empty_database_rejects_every_item(capsys, tmp_path):
    empty = tmp_path / "empty.dat"
    empty.write_text("")
    code, out, err = run(capsys, "verify", "--input", str(empty), "--itemset", "0",
                         "--predicate", "free", "--alpha", "0.5")
    assert code == 2 and out == ""
    assert err == ("robustmine: error: item 0 outside the database universe "
                   "(the database has no items)\n")
    # the empty itemset still verifies
    code, out, _ = run(capsys, "verify", "--input", str(empty), "--itemset", "",
                       "--predicate", "ndi", "--alpha", "0.5")
    assert code == 0 and out.splitlines()[-1].startswith("verdict\tPASS")


def test_sweep_matches_library_and_is_deterministic(capsys, toy_path, toy):
    args = ("experiment", "sweep", "--input", toy_path, "--predicate", "free",
            "--alphas", "0.2,0.5,0.8", "--rhos", "0.0,0.5")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    lines = out1.splitlines()
    assert lines[0] == "# alpha\trho\tcount"
    assert len(lines) == 7
    res = sweep(toy, PredicateKind.FREE, (0.2, 0.5, 0.8), (0.0, 0.5))
    want = [f"{a:.12g}\t{r:.12g}\t{c}" for a, r, c in res.rows()]
    assert lines[1:] == want
    code, out2, _ = run(capsys, *args)
    assert out2 == out1


def test_sweep_default_grid_and_threads(capsys, toy_path, monkeypatch):
    code, base, _ = run(capsys, "experiment", "sweep", "--input", toy_path,
                        "--predicate", "ndi")
    assert code == 0
    assert len(base.splitlines()) == 82  # 9 x 9 grid plus header
    monkeypatch.setenv("ROBUST_MINER_THREADS", "4")
    code, threaded, _ = run(capsys, "experiment", "sweep", "--input", toy_path,
                            "--predicate", "ndi")
    assert threaded == base


def test_noise_zero_eta_is_fully_compliant(capsys, toy_path):
    code, out, _ = run(capsys, "experiment", "noise", "--input", toy_path,
                       "--eta", "0.0", "--seed", "11")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert len(rows) == 4
    for i, row in enumerate(rows, start=1):
        assert row[0] == row[2] == str(i)
        assert row[3] == "1"


def test_noise_json_positions(capsys, toy_path):
    code, out, _ = run(capsys, "experiment", "noise", "--input", toy_path,
                       "--eta", "0.3", "--seed", "11", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"]["eta"] == 0.3
    for rec in doc["records"]:
        assert rec["compliance"] <= 1.0
        if rec["noisy_position"] == rec["position"]:
            assert rec["compliance"] == 1.0


def test_rank_distance_command(capsys, toy_path):
    code, out, _ = run(capsys, "experiment", "rank-distance", "--input", toy_path,
                       "--predicate", "free", "--alpha", "0.9")
    assert code == 0
    assert out.splitlines()[1] == "free\t0.9\t0"
    code, out, _ = run(capsys, "experiment", "rank-distance", "--input", toy_path,
                       "--predicate", "closed", "--alpha", "0.9")
    assert code == 0
    assert out.splitlines()[1] == "closed\t0.9\t0"


def test_argparse_errors_exit_2(capsys, toy_path):
    assert run(capsys, "mine", "--input", toy_path, "--predicate", "frequent",
               "--alpha", "0.5")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "rank", "--predicate", "free")[0] == 2
