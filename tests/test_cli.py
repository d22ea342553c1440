import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import TOY_TEXT, random_db
from robustmine import PredicateKind, sweep
from robustmine.cli import main
import robustmine.cli as cli

GOLDEN = Path(__file__).parent / "golden"


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
    # one size-window check serves both commands and every kind they take
    commands = [("mine", "--alpha", "0.5", "--predicate", p) for p in ("free", "ndi", "ts")]
    commands += [("rank", "--predicate", p) for p in ("free", "ndi", "ts", "closed")]
    for command in commands:
        assert run(capsys, *command, "--input", toy_path, "--max-size", "-1") == \
            (2, "", "robustmine: error: max size must be >= 0, got -1\n"), command


def test_rank_empty_size_window_exits_2(capsys, toy_path):
    for window, message in ((("--min-size", "-1"), "min size must be >= 0, got -1"),
                            (("--min-size", "3", "--max-size", "2"),
                             "max size must be >= 3, got 2")):
        for predicate in ("free", "ndi", "ts", "closed"):
            assert run(capsys, "rank", "--input", toy_path, "--predicate", predicate,
                       *window) == (2, "", f"robustmine: error: {message}\n"), window


def test_size_window_is_checked_before_the_input_is_read(capsys, tmp_path):
    # a bad window is a bad argument (exit 2) even when the input cannot be read
    missing = str(tmp_path / "missing.fimi")
    cases = [(("mine", "--predicate", "free", "--alpha", "0.5", "--max-size", "-1"),
              "max size must be >= 0, got -1")]
    cases += [(("rank", "--predicate", p, *window), message) for p in ("free", "closed")
              for window, message in ((("--max-size", "-1"), "max size must be >= 0, got -1"),
                                      (("--min-size", "-1"), "min size must be >= 0, got -1"),
                                      (("--min-size", "3", "--max-size", "2"),
                                       "max size must be >= 3, got 2"))]
    for argv, message in cases:
        assert run(capsys, *argv, "--input", missing) == \
            (2, "", f"robustmine: error: {message}\n"), argv
    assert run(capsys, "rank", "--predicate", "free", "--input", missing)[0] == 1


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


def test_verify_guard_comes_before_the_analytic_score(capsys, tmp_path, monkeypatch):
    # a 20-item ts or ndi score builds a 2**20-cell table: on 30 rows the
    # exhaustive guard refuses first, without computing it
    path = tmp_path / "wide.fimi"
    path.write_text("".join(" ".join(map(str, range(j % 3, 20))) + "\n" for j in range(30)))

    def robustness(*args, **kwargs):
        raise AssertionError("analytic score computed before the exhaustive guard")

    monkeypatch.setattr(cli, "robustness", robustness)
    for predicate in ("ts", "ndi"):
        assert run(capsys, "verify", "--input", str(path), "--itemset",
                   " ".join(map(str, range(20))), "--predicate", predicate,
                   "--alpha", "0.5") == \
            (2, "", "robustmine: error: 30 transactions exceed the exhaustive guard of 24; "
                    "rerun with --method mc\n")


@pytest.mark.parametrize("rows", [4, 24, 30])
def test_verify_over_21_items_hits_the_cell_limit(capsys, tmp_path, rows):
    path = tmp_path / "wide.fimi"
    path.write_text("".join(" ".join(map(str, range(j % 3, 21))) + "\n" for j in range(rows)))
    cell_limit = "robustmine: error: cell table over 21 items exceeds the 20-item limit\n"
    guard = (f"robustmine: error: {rows} transactions exceed the exhaustive guard of 24; "
             "rerun with --method mc\n")
    for predicate in ("ts", "ndi"):
        for method in ("exhaustive", "mc"):
            want = guard if method == "exhaustive" and rows > 24 else cell_limit
            assert run(capsys, "verify", "--input", str(path), "--itemset",
                       " ".join(map(str, range(21))), "--predicate", predicate,
                       "--alpha", "0.5", "--method", method, "--samples", "10") == \
                (2, "", want), (predicate, method)


def test_mine_rank_and_sweep_hit_the_cell_limit(capsys, tmp_path, monkeypatch):
    # the real limit needs 2**19 rows or more to reach (a 21-item ts candidate
    # has every 20-item subset shattered; a 21-item ndi candidate has 20-item
    # ndi subsets, and |X| <= log2|D| + 1), so it is lowered to 2 over the 8
    # value vectors of items 0..2
    monkeypatch.setattr("robustmine.dataset.CELL_WIDTH_LIMIT", 2)
    path = tmp_path / "cube.fimi"
    path.write_text("".join(" ".join(str(i) for i in range(3) if m >> i & 1) + "\n"
                            for m in range(8)))
    want = (2, "", "robustmine: error: cell table over 3 items exceeds the 2-item limit\n")
    for predicate in ("ts", "ndi"):
        for argv in (["mine", "--alpha", "0.5"], ["rank"], ["experiment", "sweep"]):
            assert run(capsys, *argv, "--input", str(path), "--predicate", predicate) == \
                want, (predicate, argv)


@pytest.mark.parametrize("predicate, width", [("free", 21), ("ndi", 12), ("ts", 12)])
def test_verify_wide_itemset_on_four_rows_is_fast(capsys, tmp_path, predicate, width):
    # the oracle tests free without listing the 2**21 subsets of the itemset,
    # and ndi's rules in |X| * 2**|X| steps, not 3**|X|
    path = tmp_path / "wide.fimi"
    path.write_text("".join(" ".join(map(str, range(j % 3, width))) + "\n" for j in range(4)))
    for method in ("exhaustive", "mc"):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--input", str(path), "--itemset",
                             " ".join(map(str, range(width))), "--predicate", predicate,
                             "--alpha", "0.5", "--method", method)
        assert time.perf_counter() - start < 1.0, (predicate, method)
        assert code == 0 and err == "" and "verdict\tPASS" in out, (predicate, method, out)


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


@pytest.mark.parametrize("text", ["", "\n\n  \n\n"], ids=["empty", "blank-lines"])
def test_empty_and_blank_files(capsys, tmp_path, text):
    path = tmp_path / "db.dat"
    path.write_text(text)
    inp = ("--input", str(path))
    headers = {
        ("mine", "--predicate", "free", "--alpha", "0.5"): "# itemset\tsupport\trobustness",
        ("mine", "--predicate", "ndi", "--alpha", "0.5"): "# itemset\tsupport\trobustness",
        ("rank", "--predicate", "closed"): "# rank\titemset\tsupport\tkey\texact",
        ("rank", "--predicate", "ndi"): "# rank\titemset\tsupport\tkey",
        ("experiment", "noise", "--eta", "0.5"):
            "# position\titemset\tnoisy_position\tcompliance",
    }
    for args, header in headers.items():
        assert run(capsys, *args, *inp) == (0, header + "\n", ""), args
    for method in ("exhaustive", "mc"):
        code, out, err = run(capsys, "verify", *inp, "--itemset", "", "--predicate", "free",
                             "--alpha", "0.5", "--method", method, "--samples", "100")
        assert code == 0 and err == "" and out.splitlines()[0] == "analytic\t1"
        assert out.splitlines()[-1].startswith("verdict\tPASS"), method
    code, out, err = run(capsys, "experiment", "sweep", *inp, "--predicate", "free")
    lines = out.splitlines()
    assert code == 0 and err == "" and lines[0] == "# alpha\trho\tcount"
    assert len(lines) == 82 and all(line.endswith("\t0") for line in lines[1:])
    for predicate in ("free", "closed"):
        assert run(capsys, "experiment", "rank-distance", *inp, "--predicate", predicate,
                   "--alpha", "0.5") == \
            (2, "", "robustmine: error: only 0 itemsets pass the filters; "
                    "distance needs at least two\n")


def test_sweep_grid_stops_at_its_stop(capsys, toy_path):
    # the step count used to round up, adding a point past stop
    base = ("experiment", "sweep", "--input", toy_path, "--predicate", "free", "--rhos", "0.5")
    for alphas, last in (("0.1:0.96:0.1", "0.9"), ("0.5:1.06:0.1", "1")):
        code, out, err = run(capsys, *base, "--alphas", alphas)
        assert code == 0 and err == ""
        assert out.splitlines()[-1].split("\t")[0] == last, alphas
    assert cli._grid("0.1:0.96:0.1") == cli._grid("0.1:0.9:0.1")
    assert cli._grid("0.5:1.06:0.1") == (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    assert len(cli._grid("0.1:0.9:0.1")) == 9


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


def test_sweep_default_grid(capsys, toy_path):
    code, base, _ = run(capsys, "experiment", "sweep", "--input", toy_path,
                        "--predicate", "ndi")
    assert code == 0
    assert len(base.splitlines()) == 82  # 9 x 9 grid plus header


def test_sweep_grid_point_limit(capsys, toy_path):
    # the point count is checked before any point is built
    assert len(cli._grid("0:0.999:0.001")) == cli.GRID_POINT_LIMIT
    for grid in ("0:1:1e-6", "0:1:0.001", "0:1e300:1e-300", "0:inf:1"):
        for axis in ("--alphas", "--rhos"):
            assert run(capsys, "experiment", "sweep", "--input", toy_path, "--predicate",
                       "free", axis, grid) == \
                (2, "", f"robustmine: error: range {grid!r} has more than "
                        f"{cli.GRID_POINT_LIMIT} points\n")


def test_noise_zero_eta_is_fully_compliant(capsys, toy_path):
    code, out, _ = run(capsys, "experiment", "noise", "--input", toy_path,
                       "--eta", "0.0", "--seed", "11")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert len(rows) == 4
    for i, row in enumerate(rows, start=1):
        assert row[0] == row[2] == str(i)
        assert row[3] == "1"


def test_noise_top_k_limits_rows_and_rejects_negative(capsys, toy_path):
    base = ["experiment", "noise", "--input", toy_path, "--eta", "0.0", "--seed", "11"]
    code, everything, _ = run(capsys, *base)
    assert code == 0
    code, first_two, _ = run(capsys, *base, "--top-k", "2")
    assert code == 0 and first_two.splitlines() == everything.splitlines()[:3]
    for bad in ("-1", "-2"):
        code, out, err = run(capsys, *base, "--top-k", bad)
        assert code == 2 and out == ""
        assert err == f"robustmine: error: --top-k must be >= 0, got {bad}\n"


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


def test_rank_distance_closed_above_min_support_one(capsys, tmp_path):
    # the members come from the min-support-2 family, but their robustness
    # needs every closed superset: scored from that family alone, one of them
    # fell to -0.057 and the command raised ArithmeticError
    db = random_db(0, 20, 6, 0.5)
    path = tmp_path / "db.fimi"
    path.write_text("".join(" ".join(map(str, db.row_items(j))) + "\n" for j in range(len(db))))
    code, out, err = run(capsys, "experiment", "rank-distance", "--input", str(path),
                         "--predicate", "closed", "--alpha", "0.3", "--min-support", "2")
    assert code == 0 and err == ""
    predicate, alpha, distance = out.splitlines()[1].split("\t")
    assert (predicate, alpha) == ("closed", "0.3")
    assert 0.0 <= float(distance) <= 100.0  # a percentage of discordant pairs


def test_rank_distance_stdout_matches_golden(capsys, tmp_path):
    # closed and free take the same family-key path; these distances were
    # printed when closed ranked and scored its members in a branch of its own
    db = random_db(0, 20, 6, 0.5)
    path = tmp_path / "db.fimi"
    path.write_text("".join(" ".join(map(str, db.row_items(j))) + "\n" for j in range(len(db))))
    for predicate, min_support in (("closed", "1"), ("closed", "2"), ("free", "1")):
        name = f"rank_distance_{predicate}_min{min_support}.tsv"
        assert run(capsys, "experiment", "rank-distance", "--input", str(path), "--predicate",
                   predicate, "--alpha", "0.3", "--min-support", min_support) == \
            (0, (GOLDEN / name).read_text(), ""), name


def test_mine_stdout_matches_golden(capsys, tmp_path):
    # D7 (dense-closed's shape): each level is printed most robust first, so
    # these pin the within-level order of every member, ties included
    db = random_db(7, 200, 14, 0.5)
    path = tmp_path / "d7.fimi"
    path.write_text("".join(" ".join(map(str, db.row_items(j))) + "\n" for j in range(len(db))))
    for predicate in ("free", "ndi", "ts"):
        name = f"mine_d7_{predicate}.tsv"
        assert run(capsys, "mine", "--input", str(path), "--predicate", predicate,
                   "--min-support", "10", "--alpha", "0.5") == \
            (0, (GOLDEN / name).read_text(), ""), name


def test_rank_stdout_matches_golden(capsys, tmp_path):
    # recorded while rank still walked and keyed the whole family before
    # selecting k: the bounded walk prints the same rows; D7's ndi singletons
    # share one key, so support and itemset decide among the top rows
    db = random_db(7, 200, 14, 0.5)
    path = tmp_path / "d7.fimi"
    path.write_text("".join(" ".join(map(str, db.row_items(j))) + "\n" for j in range(len(db))))
    cases = [(f"rank_d7_{p}.tsv", p, ()) for p in ("free", "ndi", "ts")]
    cases.append(("rank_d7_ndi_min2_top25.tsv", "ndi", ("--min-size", "2", "--top-k", "25")))
    for name, predicate, extra in cases:
        assert run(capsys, "rank", "--input", str(path), "--predicate", predicate,
                   "--min-support", "10", *extra) == \
            (0, (GOLDEN / name).read_text(), ""), name


def test_argparse_errors_exit_2(capsys, toy_path):
    assert run(capsys, "mine", "--input", toy_path, "--predicate", "frequent",
               "--alpha", "0.5")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "rank", "--predicate", "free")[0] == 2


def test_one_parser_serves_successive_calls(capsys, toy_path, monkeypatch):
    # main() builds its parser once: calls with other grids and formats, and
    # every --help, print what a fresh parser's run prints
    monkeypatch.setenv("COLUMNS", "100")
    sweep_args = ("experiment", "sweep", "--input", toy_path)
    calls = [(*sweep_args, "--predicate", "free", "--alphas", "0.2,0.5", "--rhos", "0:1:0.5"),
             (*sweep_args, "--predicate", "ts", "--alphas", "0.9", "--format", "json"),
             ("mine", "--input", toy_path, "--predicate", "ndi", "--alpha", "0.5",
              "--format", "json"),
             (*sweep_args, "--predicate", "ndi"),
             ("--help",), ("experiment", "sweep", "--help"), ("rank", "--help")]
    reused = [run(capsys, *argv) for argv in calls]
    assert len({out for _, out, _ in reused}) == len(calls)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert reused == [run(capsys, *argv) for argv in calls]


def test_main_runs_the_command_bound_at_call_time(capsys, toy_path, monkeypatch):
    cli._parser()
    monkeypatch.setattr(cli, "cmd_experiment_sweep", lambda args: print(args.alphas) or 0)
    assert run(capsys, "experiment", "sweep", "--input", toy_path, "--predicate", "free",
               "--alphas", "0.25") == (0, "(0.25,)\n", "")


def test_mine_and_sweep_do_not_import_numpy(toy_path):
    # numpy costs a fresh CLI process tens of milliseconds to import
    import robustmine

    src = os.path.dirname(os.path.dirname(robustmine.__file__))
    code = ("import sys\nimport robustmine.cli as cli\n"
            f"codes = [cli.main(['mine', '--input', {toy_path!r}, '--predicate', 'free', "
            "'--alpha', '0.5']), "
            f"cli.main(['experiment', 'sweep', '--input', {toy_path!r}, '--predicate', 'free'])]\n"
            "print(codes, 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"
