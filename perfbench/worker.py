"""One measuring process of the benchmark; run.py starts it, never a user.

    worker.py setup FILE...     time `import robustmine` plus load_fimi of
                                each file, in this fresh process, between
                                two host probes
    worker.py run --workload W --seed N --seconds S --trace 0|1 --workdir D --out F

`run` generates the workload's inputs under D, imports robustmine from the
checkout's src/ and calls robustmine.cli.main(argv) for each command of a
job, one job after another (a closed loop with one client), timing every
call from outside and capturing its stdout. It runs at least MIN_JOBS jobs,
and starts another only while the mean job so far still fits in S seconds.
Without --trace it samples the host probe while each command runs (see
ProbeSampler). With --trace 1 it samples nothing, runs each job untraced and
then again traced, and records the difference of the pair. Results, one record per command, go to F as JSON.
"""

import random
import signal
import sys
import time

import workloads

# A run's metrics take each command slot's median over jobs, so every run has
# at least this many jobs.
MIN_JOBS = 2
# A traced run times each job untraced and then traced; a pair takes 20-40 s.
TRACE_MIN_PAIRS = 1

# Untimed warm-up on the README database: first-call set-up inside the
# program (numpy's generator, lazy imports) would otherwise land in job 0 only.
WARMUP_DB = "4\n1 3 4\n0 1 2 3 4\n1 3 4\n0 1 2 3 4\n0\n"
WARMUP = (
    ["mine", "--input", "TOY", "--predicate", "ndi", "--alpha", "0.5"],
    ["rank", "--input", "TOY", "--predicate", "closed"],
    ["experiment", "sweep", "--input", "TOY", "--predicate", "free"],
    ["verify", "--input", "TOY", "--itemset", "0 1", "--predicate", "ts", "--alpha", "0.5"],
    ["verify", "--input", "TOY", "--itemset", "0 1", "--predicate", "free", "--alpha", "0.5",
     "--method", "mc", "--samples", "100"],
)


# Host-speed probe: fixed pure-Python work that shares no code with
# robustmine, about 5 ms, in four parts of about equal time, one of each kind
# of work the program does: masked-equality scans of bit rows, products of
# survival probabilities, tuple-keyed dict bookkeeping with a sort, and closed
# sets by tidset intersection. Kinds of work slow down by different amounts
# when the host is busy; the mix tracks the program better than any one
# kind. On a shared host the speed of the same code swings by 2x in spells of
# one second to minutes, so the probe is timed right before and after every
# command and, from a SIGALRM handler, every PROBE_PERIOD_S while it runs;
# run.py scales each stretch of the command's time by the probe times at its
# two ends.
_rng = random.Random("host-probe")
PROBE_ROWS = workloads.nonempty_rows(_rng, 30, 12, 0.5)
PROBE_SCAN = tuple(sum(1 << i for i in range(30) if _rng.random() < 0.15) for _ in range(3000))
PROBE_MASKS = tuple(sum(1 << i for i in _rng.sample(range(30), 2)) for _ in range(9))
PROBE_COUNTS = tuple(_rng.randrange(1, 60) for _ in range(16000))
PROBE_SETS = tuple(tuple(sorted(_rng.sample(range(30), 3))) for _ in range(1200))
PROBE_PERIOD_S = 0.1


def host_probe():
    t0 = time.perf_counter()
    hits = 0
    for m in PROBE_MASKS:
        hits += sum(1 for r in PROBE_SCAN if r & m == m)
    p = 1.0
    for c in PROBE_COUNTS:
        p *= 1.0 - 0.5 ** c
    table = {}
    for items in PROBE_SETS:
        table[items] = table.get(items[:2], 0) + len(items)
    sorted(table, key=lambda items: (-table[items], items))
    workloads.closed_family_size(PROBE_ROWS, 12, 3)
    return time.perf_counter() - t0


class ProbeSampler:
    """Runs host_probe every PROBE_PERIOD_S of wall time while active.

    samples holds (start, end, probe seconds) per tick. The handler runs in
    the main thread between bytecodes, so a tick's whole span [start, end]
    is time the program did not run, and is taken out of its measured time.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe = host_probe()
        self.samples.append((t0, time.perf_counter(), probe))

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def segments(t0, t1, before, samples, after):
    """Split the call [t0, t1] at the probe ticks inside it into stretches
    of program time: [(seconds, probe at its start, probe at its end)]."""
    inside = [s for s in samples if t0 <= s[0] and s[1] <= t1]
    starts = [t0] + [end for _, end, _ in inside]
    ends = [start for start, _, _ in inside] + [t1]
    probes = [before] + [p for _, _, p in inside] + [after]
    return [(e - s, probes[i], probes[i + 1]) for i, (s, e) in enumerate(zip(starts, ends))]


def setup(files):
    before = host_probe()
    t0 = time.perf_counter()
    from robustmine.dataset import load_fimi

    for path in files:
        load_fimi(path)
    elapsed = time.perf_counter() - t0
    print(repr(elapsed), repr(before), repr(host_probe()))


def run(args):
    import contextlib
    import gc
    import io
    import json
    import os
    import resource

    import check
    from tracer import Tracer, layer_metrics

    wl = workloads.Workload(args.workload, args.seed, args.workdir)
    wl.job(0)

    import numpy  # noqa: F401  (oracle imports it lazily; keep that out of job 0's verify_s)
    import robustmine.cli
    import robustmine.oracle

    expected = check.load_expected()
    toy = os.path.join(args.workdir, "warmup.dat")
    with open(toy, "w", encoding="utf-8") as fh:
        fh.write(WARMUP_DB)
    for argv in WARMUP:
        with contextlib.redirect_stdout(io.StringIO()):
            robustmine.cli.main([toy if a == "TOY" else a for a in argv])

    sampler = ProbeSampler() if not args.trace else None

    def run_job(job):
        files = wl.files(job)
        records = []
        before = host_probe()
        for argv in wl.commands(job):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    (sampler or contextlib.nullcontext()):
                t0 = time.perf_counter()
                code = robustmine.cli.main(list(argv))
                t1 = time.perf_counter()
            after = host_probe()
            parts = segments(t0, t1, before, sampler.samples if sampler else [], after)
            before = after
            text = out.getvalue()
            records.append({"job": job, "argv": argv, "metric": workloads.command_metric(argv),
                            "seconds": sum(s for s, _, _ in parts), "segments": parts,
                            "code": code, "stdout": text, "stderr": err.getvalue(),
                            "digest": check.digest(text),
                            "db": files[argv[argv.index("--input") + 1]]})
        return records

    def timed_job(job):
        gc.collect()
        t0 = time.perf_counter()
        records = run_job(job)
        return records, time.perf_counter() - t0

    tracer = Tracer() if args.trace else None
    jobs, layers, overhead = [], [], []
    t_start = time.perf_counter()
    job = 0
    while True:
        records, job_s = timed_job(job)
        jobs.append(records)
        if job == 0:
            # high-water mark of the first job, so it does not depend on how
            # many jobs fit in the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            # the same job again, traced; with the oracle's cache cleared it
            # repeats the untraced job's work, so the difference is the tracer's
            robustmine.oracle._satisfied_by_size.cache_clear()
            lo = tracer.mark()
            with tracer:
                records, traced_s = timed_job(job)
            jobs.append(records)
            layers.append((lo, tracer.mark(), dict(tracer.counts), traced_s))
            overhead.append(traced_s - job_s)
        job += 1
        elapsed = time.perf_counter() - t_start
        if (job >= (TRACE_MIN_PAIRS if tracer else MIN_JOBS)
                and elapsed * (job + 1) / job > args.seconds):
            break
        wl.job(job)

    # Checks run after the timed loop. Jobs with identical inputs must agree.
    verdicts = {}
    for records in jobs:
        for rec in records:
            key = check.content_key(rec["argv"])
            rec["key"] = key
            if (key, rec["digest"]) not in verdicts:
                verdict = check.check_output(rec["argv"], rec["code"], rec["stdout"],
                                             check.Db(rec["db"]))
                want = expected.get(args.workload, {}).get(key)
                if want is not None and [rec["code"], rec["digest"]] != want:
                    verdict = f"exit {rec['code']} digest {rec['digest'][:16]}, recorded {want}"
                verdicts[(key, rec["digest"])] = verdict, want is not None
            rec["verdict"], rec["recorded"] = verdicts[(key, rec["digest"])]
    digests = {}
    for records in jobs:
        for rec in records:
            first = digests.setdefault(rec["key"], rec["digest"])
            if first != rec["digest"]:
                rec["verdict"] = "output differs from an earlier job with the same inputs"

    result = {"jobs": [[{k: rec[k] for k in ("job", "argv", "metric", "seconds", "code",
                                            "digest", "key", "verdict", "recorded",
                                            "stderr", "segments")}
                        for rec in records] for records in jobs],
              "peak_rss_mb": peak_rss_mb, "trace_overhead_s": overhead}
    if tracer is not None:
        result["layers"] = [dict(layer_metrics(tracer, lo, hi, counts), job_s=job_s)
                            for lo, hi, counts, job_s in layers]
        tracer.save(os.path.join(os.path.dirname(args.out), f"spans-{args.workload}.npz"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv):
    if argv and argv[0] == "setup":
        setup(argv[1:])
        return 0
    import argparse

    p = argparse.ArgumentParser(prog="worker.py")
    p.add_argument("mode", choices=("run",))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    run(p.parse_args(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
