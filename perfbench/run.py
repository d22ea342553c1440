"""Benchmark of robustmine's CLI, end to end and per layer.

    python3 perfbench/run.py --workload long-sparse --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Workloads: long-sparse, dense-closed,
oracle-verify (see workloads.py and BENCHMARK.json for why each exists).
The run starts one fresh worker process (single-threaded, without
ROBUST_MINER_THREADS) that generates the seeded inputs and calls
robustmine.cli.main for each command; then several fresh processes that
each time `import robustmine` plus load_fimi of the inputs (setup_s).
Every output is checked (check.py, expected.json). The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones plus the tracing overhead. Full results, with context, go
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 10
DEADLINE_S = 170  # a run must end within 180 s
# End-to-end times are given in seconds of a host on which worker.host_probe
# takes PROBE_REF_S. The worker times the probe before, after and every
# worker.PROBE_PERIOD_S during each command, and splits the command's time
# at those ticks; each stretch is scaled by PROBE_REF_S over the mean of the
# probes at its two ends. The probe shares no code with robustmine, so a
# change to the program moves the figures as it moves wall time, while the
# shared host's speed swings cancel out.
PROBE_REF_S = 0.0035


def host_normalised(segments):
    """Host-normalised seconds of [(seconds, probe before, probe after)]."""
    return sum(sec * PROBE_REF_S * 2 / (before + after) for sec, before, after in segments)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def worker_env(root):
    env = {k: v for k, v in os.environ.items() if k != "ROBUST_MINER_THREADS"}
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def context(root, seed):
    import numpy

    src_lines = 0
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
        commit = proc.stdout.strip() or None
    return {"src_lines": src_lines, "commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "seed": seed}


def measure_setup(env, files, deadline):
    """(wall, host-normalised) times over fresh processes of import robustmine +
    load_fimi of the inputs. The first probe (which may compile bytecode) is
    discarded."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "setup", *files],
                              env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        wall, before, after = map(float, proc.stdout.split())
        times.append((wall, host_normalised([(wall, before, after)])))
    return times[1:]


def main(argv=None) -> int:
    t_begin = time.monotonic()
    deadline = t_begin + DEADLINE_S
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "robustmine", "cli.py")):
        print(f"run.py: no src/robustmine in {root}; run from the root of a robustmine checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r} "
              f"(choices: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = os.path.join(out_dir, f"raw-{tag}.json")
    os.makedirs(out_dir, exist_ok=True)
    env = worker_env(root)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "run", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir, "--out", raw_path],
            env=env, capture_output=True, text=True, timeout=deadline - time.monotonic() - 5)
        if proc.returncode != 0:
            print(f"run.py: worker failed:\n{proc.stdout}{proc.stderr}", file=sys.stderr)
            return 1
        with open(raw_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not args.trace:
            inputs = sorted({r["argv"][r["argv"].index("--input") + 1] for r in raw["jobs"][0]})
            setup_times = measure_setup(env, inputs, deadline)
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded its deadline", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [rec for job in raw["jobs"] for rec in job]
    known_defects = [r for r in records if r["verdict"] == "known-defect"]
    wrong = [r for r in records if r["verdict"] not in ("pass", "known-defect")]
    for rec in wrong:
        print(f"WRONG {' '.join(rec['argv'])}: {rec['verdict']} {rec['stderr'].strip()}")
    for rec in known_defects:
        print(f"FAIL (known mc tolerance defect) {' '.join(rec['argv'])}")
    failed = len(known_defects) + len(wrong)

    per_job = {}
    for job in raw["jobs"]:
        sums = {"mine_s": 0.0, "rank_s": 0.0, "verify_s": 0.0, "sweep_s": 0.0}
        for rec in job:
            sums[rec["metric"]] += rec["seconds"]
        sums["job_s"] = sum(sums.values())
        for name, value in sums.items():
            per_job.setdefault(name, []).append(value)

    ctx = context(root, args.seed)
    if args.trace:
        # every job ran untraced, then traced on the same inputs
        samples = {"traced_job_s": [layer["job_s"] for layer in raw["layers"]],
                   "trace_overhead_s": raw["trace_overhead_s"]}
    else:
        samples = {"setup_s": [wall for wall, _ in setup_times], **per_job}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(raw['jobs'])}  commands {len(records)}")
    print("context " + json.dumps(ctx, sort_keys=True))
    print("  wall time without probe ticks, per job (setup_s: per probe process)")
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:<14} min {min(values):.4f}  median {med:.4f}  q1 {q1:.4f}  "
              f"q3 {q3:.4f}  n {len(values)}")
    print(f"  {'peak_rss_mb':<14} {raw['peak_rss_mb']:.1f}")
    print(f"  {'fail_ratio':<14} {failed / len(records):.4f}  ({failed} of {len(records)} commands)")
    unrecorded = sum(not r["recorded"] for r in records)
    print(f"  {'unrecorded':<14} {unrecorded} of {len(records)} commands have no digest in "
          f"expected.json (checked by check.py only)")

    if args.trace:
        layers = raw["layers"]
        metrics = {}
        for name in layers[0]:
            if name == "job_s":
                continue
            unit = "s" if name.endswith("_s") else "count" if name.endswith(".calls") else "ratio"
            metrics[name] = {"value": statistics.median(l[name] for l in layers), "unit": unit}
        overhead = statistics.median(samples["trace_overhead_s"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"  {'trace overhead':<14} {overhead:.4f} s per job (median over jobs of "
              f"traced minus untraced job_s, same inputs)")
    else:
        # Every job runs the same command slots: a slot repeats the same
        # command, or one of the same shape on freshly drawn data. A command
        # metric sums, over its slots, the slot's median host-normalised time
        # over the run's jobs. setup_s is the median of its probe processes,
        # host-normalised.
        medians = {name: 0.0 for name in per_job}
        for slot in zip(*raw["jobs"]):
            mid = statistics.median(host_normalised(rec["segments"]) for rec in slot)
            medians[slot[0]["metric"]] += mid
            medians["job_s"] += mid
        metrics = {"setup_s": {"value": statistics.median(n for _, n in setup_times),
                               "unit": "s"},
                   **{name: {"value": value, "unit": "s"} for name, value in medians.items()},
                   "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"}}
        probes = [p for rec in records for seg in rec["segments"] for p in seg[1:]]
        print(f"  host probe     median {statistics.median(probes):.4f} s  "
              f"(reference {PROBE_REF_S} s), n {len(probes)}")
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"context": ctx, "samples": samples, "metrics": metrics,
                   "failed": failed, "attempted": len(records)}, fh, indent=1)
    print(json.dumps({"correct": not wrong, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
