"""Tests of the benchmark itself: run with `python3 -m pytest perfbench/tests`."""

import contextlib
import importlib.util
import io
import json
import os

import pytest

import check
import tracer as tracer_mod
import workloads
from tracer import Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TOY_TEXT = "4\n1 3 4\n0 1 2 3 4\n1 3 4\n0 1 2 3 4\n0\n"  # the README database


def _inputs(name, seed, tmp_path, jobs=1):
    wl = workloads.Workload(name, seed, str(tmp_path))
    out = []
    for job in range(jobs):
        files = wl.files(job)
        cmds = [[os.path.basename(a) if a in files else a for a in argv]
                for argv in wl.commands(job)]
        texts = {os.path.basename(p): open(p, encoding="utf-8").read() for p in files}
        out.append((texts, cmds))
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    jobs = 2 if name == "oracle-verify" else 1
    first = _inputs(name, 3, tmp_path / "a", jobs)
    assert first == _inputs(name, 3, tmp_path / "b", jobs)
    assert first != _inputs(name, 4, tmp_path / "c", jobs)


def test_default_seed_reproduces_w1():
    spec = importlib.util.spec_from_file_location("repo_conftest",
                                                  os.path.join(ROOT, "tests", "conftest.py"))
    repo_conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(repo_conftest)
    db = repo_conftest.random_db(workloads.DEFAULT_SEED, 5000, 30, 0.15)
    rows = workloads.bernoulli_rows(workloads.DEFAULT_SEED, 5000, 30, 0.15)
    assert [db.row_items(i) for i in range(len(db))] == [tuple(r) for r in rows]


def test_dense_family_size_is_on_target():
    rows = workloads.dense_rows(7)
    size = workloads.closed_family_size(rows, 14, workloads.DENSE_MIN_SUPPORT)
    assert abs(size - workloads.DENSE_FAMILY_TARGET) <= \
        workloads.DENSE_FAMILY_TARGET * workloads.DENSE_FAMILY_TOLERANCE
    from robustmine import TransactionDatabase, mine_closed

    assert size == len(mine_closed(TransactionDatabase(rows), workloads.DENSE_MIN_SUPPORT))


def test_oracle_triples_never_repeat(tmp_path):
    wl = workloads.Workload("oracle-verify", 1, str(tmp_path))
    seen = set()
    for job in range(4):
        files = wl.files(job)
        for argv in wl.commands(job):
            if argv[0] == "verify" and "--method" not in argv:
                triple = (str(files[argv[2]]), argv[4], argv[6])
                assert triple not in seen
                seen.add(triple)
    assert len(seen) == 4 * len(workloads.ORACLE_SHAPES) * len(workloads.PREDICATES)


def test_self_time_on_synthetic_span_tree():
    #   root  [0, 10]
    #   ├─ a  [1, 4]      └─ g [2, 3]
    #   ├─ b  [3, 6]      overlaps a: the union [1, 6] is covered once
    #   └─ c  [8, 12]     clipped to its parent's end
    spans = [("root", 0.0, 10.0, -1), ("c", 8.0, 12.0, 0), ("a", 1.0, 4.0, 0),
             ("g", 2.0, 3.0, 2), ("b", 3.0, 6.0, 0)]
    own = self_times([s[1] for s in spans], [s[2] for s in spans], [s[3] for s in spans])
    assert list(own) == pytest.approx([10 - 5 - 2, 4, 3 - 1, 1, 3])


def _toy_outputs(path):
    import robustmine.cli as cli

    outputs = []
    for argv in (["rank", "--input", path, "--predicate", "closed"],
                 ["mine", "--input", path, "--predicate", "ndi", "--alpha", "0.5"],
                 ["verify", "--input", path, "--itemset", "0 1", "--predicate", "free",
                  "--alpha", "0.5"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)  # looked up per call, so a wrapper takes effect
        outputs.append((code, buf.getvalue()))
    return outputs


def test_trace_wrappers_leave_cli_output_identical(tmp_path):
    import robustmine
    import robustmine.cli as cli
    import robustmine.ordering as ordering

    path = tmp_path / "toy.dat"
    path.write_text(TOY_TEXT)
    before = _toy_outputs(str(path))
    original_rank, original_main = ordering.rank, cli.main

    t = Tracer()
    with t:
        assert cli.main is not original_main
        traced = _toy_outputs(str(path))
    assert traced == before
    assert _toy_outputs(str(path)) == before
    assert cli.main is original_main and cli.rank_itemsets is original_rank
    for module, attr in tracer_mod.TRACED + tracer_mod.COUNTED:
        owner, leaf = tracer_mod._resolve(module, attr)
        assert not hasattr(getattr(owner, leaf), "__wrapped__"), (module, attr)
        assert getattr(robustmine, leaf, None) in (None, getattr(owner, leaf))

    names = [t.names[i] for i in t.name]
    assert names.count("cli.main") == 3
    assert "ordering.closed_coefficients" in names and "oracle.exhaustive_robustness" in names
    first_job, counts = t.mark(), dict(t.counts)
    with t:  # a second traced job must not disturb the first one's figures
        _toy_outputs(str(path))
    metrics = tracer_mod.layer_metrics(t, 0, first_job, counts)
    assert metrics["cli.main.calls"] == 3 and metrics["dataset.canon_items.calls"] > 0
    assert metrics["mining.predicate_yield"] > 0
    second = tracer_mod.layer_metrics(t, first_job, t.mark(), t.counts)
    assert {k: v for k, v in second.items() if k.endswith(".calls")} == \
        {k: v for k, v in metrics.items() if k.endswith(".calls")}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted(per_layer) == sorted([*metrics, "trace.overhead_s"])


def test_check_flags_wrong_rows_and_classifies_the_known_defect():
    db = check.Db([[int(t) for t in line.split()] for line in TOY_TEXT.splitlines()])
    argv = ["mine", "--input", "toy", "--predicate", "free", "--alpha", "0.5"]
    good = "# itemset\tsupport\trobustness\n2\t2\t0.9375\n"
    assert check.check_output(argv, 0, good, db) == check.PASS
    assert check.check_output(argv, 0, good.replace("2\t2", "2\t3"), db) != check.PASS
    assert check.check_output(argv, 0, good.replace("0.9375", "0.9"), db) != check.PASS
    mc = ["verify", "--input", "d", "--itemset", "0", "--predicate", "closed",
          "--alpha", "0.5", "--method", "mc"]
    defect = ("analytic\t1\nmonte-carlo\t1\nstderr\t0\ndifference\t1.9e-14\n"
              "verdict\tFAIL (tolerance 0)\n")
    assert check.check_output(mc, 1, defect, db) == check.KNOWN_DEFECT
    assert check.check_output(mc, 1, defect.replace("1.9e-14", "0.2"), db) != check.PASS


def test_check_recomputes_the_verify_analytic_figure(tmp_path):
    import robustmine.cli as cli

    path = tmp_path / "toy.dat"
    path.write_text(TOY_TEXT)
    db = check.Db([[int(t) for t in line.split()] for line in TOY_TEXT.splitlines()])
    argv = ["verify", "--input", str(path), "--itemset", "2", "--predicate", "free",
            "--alpha", "0.5"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out = buf.getvalue()
    assert check.check_output(argv, code, out, db) == check.PASS
    wrong = out.replace("analytic\t0.9375", "analytic\t0.9")
    assert wrong != out and check.check_output(argv, code, wrong, db) != check.PASS


def test_probe_ticks_split_and_scale_a_call():
    import run
    import worker

    # call [0, 1] with ticks [0.2, 0.25] and [0.6, 0.62]; a tick outside is ignored
    ticks = [(0.2, 0.25, 0.004), (0.6, 0.62, 0.007), (1.5, 1.6, 0.1)]
    parts = worker.segments(0.0, 1.0, 0.003, ticks, 0.007)
    assert parts == pytest.approx([(0.2, 0.003, 0.004), (0.35, 0.004, 0.007),
                                   (0.38, 0.007, 0.007)])
    ref = run.PROBE_REF_S
    want = ref * (0.2 * 2 / 0.007 + 0.35 * 2 / 0.011 + 0.38 / 0.007)
    assert run.host_normalised(parts) == pytest.approx(want)
    # on a host where the probe takes exactly the reference, time is unchanged
    assert run.host_normalised([(0.5, ref, ref), (0.25, ref, ref)]) == pytest.approx(0.75)
