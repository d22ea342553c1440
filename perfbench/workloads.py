"""Seeded workload inputs and the CLI commands each workload runs.

Every input is a pure function of the seed. The program under test only
ever sees the FIMI files written here. Each workload runs all four CLI
commands (mine, rank, verify, experiment sweep), so every end-to-end metric
exists on every workload: the commands a workload is built around carry its
cost, and one light companion of each other command keeps the rest defined.
"""

from __future__ import annotations

import os
import random

DEFAULT_SEED = 1
WORKLOADS = ("long-sparse", "dense-closed", "oracle-verify")

# dense-closed: closed family size at min support 10 that the accepted
# database must have, within DENSE_FAMILY_TOLERANCE (the rank cost is
# quadratic in it, so an unconstrained draw would swing run time 3x by seed).
DENSE_FAMILY_TARGET = 1382
DENSE_FAMILY_TOLERANCE = 0.01
DENSE_MIN_SUPPORT = 10

# oracle-verify: (transactions, items, density) of the tiny databases each job
# draws; 2**transactions subsets are enumerated per exhaustive verify.
ORACLE_SHAPES = ((14, 6, 0.2), (15, 7, 0.5), (16, 8, 0.8))
PREDICATES = ("free", "ndi", "ts", "closed")
# rows in the per-job sample that long-sparse and dense-closed verify exhaustively
SAMPLE_ROWS = 15


def bernoulli_rows(seed, n_rows, n_items, density):
    """Bernoulli(density) rows in the draw order of tests/conftest.random_db."""
    rng = random.Random(seed)
    return [[i for i in range(n_items) if rng.random() < density] for _ in range(n_rows)]


def nonempty_rows(rng, n_rows, n_items, density):
    """Bernoulli rows, each redrawn until it holds an item (the FIMI parser
    skips blank lines, so an empty row would silently shrink the database)."""
    rows = []
    while len(rows) < n_rows:
        row = [i for i in range(n_items) if rng.random() < density]
        if row:
            rows.append(row)
    return rows


def fimi_text(rows) -> str:
    """One line per non-empty row; an empty transaction cannot be written."""
    return "".join(" ".join(map(str, r)) + "\n" for r in rows if r)


def tidsets(rows, n_items):
    """Per-item bitsets over row positions: bit t of tids[i] set when row t holds i."""
    tids = [0] * n_items
    for t, row in enumerate(rows):
        for i in row:
            tids[i] |= 1 << t
    return tids


def closed_family_size(rows, n_items, min_support) -> int:
    """Nonempty closed itemsets with support >= min_support, by depth-first
    tidset intersection (independent of the program's miner)."""
    tids = tidsets(rows, n_items)
    count = 0
    stack = [((), (1 << len(rows)) - 1)]
    while stack:
        items, tid = stack.pop()
        start = items[-1] + 1 if items else 0
        for i in range(start, n_items):
            t = tid & tids[i]
            supp = t.bit_count()
            if supp < min_support:
                continue
            ext = items + (i,)
            if all((t & tids[y]).bit_count() != supp for y in range(n_items) if y not in ext):
                count += 1
            stack.append((ext, t))
    return count


def dense_rows(seed):
    """200 x 14 rows at density 0.5 whose closed family at min support 10 is
    within tolerance of the target size: the first such draw of a seeded stream."""
    rng = random.Random(f"dense-closed/{seed}")
    lo = DENSE_FAMILY_TARGET * (1 - DENSE_FAMILY_TOLERANCE)
    hi = DENSE_FAMILY_TARGET * (1 + DENSE_FAMILY_TOLERANCE)
    while True:
        rows = nonempty_rows(rng, 200, 14, 0.5)
        if lo <= closed_family_size(rows, 14, DENSE_MIN_SUPPORT) <= hi:
            return rows


class Workload:
    """Inputs and commands of one workload for one seed.

    files(job) writes the job's inputs under workdir and returns
    {path: rows}; commands(job) returns the argv lists, in order.
    """

    def __init__(self, name, seed, workdir):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r} (choices: {', '.join(WORKLOADS)})")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.rng = random.Random(f"{name}/{seed}/itemsets")
        self._written = {}
        self._seen_triples = set()
        self._jobs = {}
        if name == "long-sparse":
            self.main_rows = bernoulli_rows(seed, 5000, 30, 0.15)
        else:
            self.main_rows = dense_rows(seed)
        self.pair = self._pair(self.main_rows, self.rng)

    @staticmethod
    def _pair(rows, rng):
        present = sorted({i for r in rows for i in r})
        return " ".join(map(str, sorted(rng.sample(present, 2))))

    def _sample_verify(self, job, predicate):
        """Exhaustive verify on a seeded sample of the main database's rows,
        a fresh triple per job so that the oracle cache never hits."""
        rng = random.Random(f"{self.name}/{self.seed}/{job}")
        rows = [r for r in self.main_rows if r]
        while True:
            sample = [rows[i] for i in sorted(rng.sample(range(len(rows)), SAMPLE_ROWS))]
            pair = self._pair(sample, rng)
            if (fimi_text(sample), pair, predicate) not in self._seen_triples:
                self._seen_triples.add((fimi_text(sample), pair, predicate))
                break
        path = self._write(f"sample-{job}", sample)
        return path, ["verify", "--input", path, "--itemset", pair, "--predicate", predicate,
                      "--alpha", "0.5"]

    def _write(self, stem, rows) -> str:
        path = os.path.join(self.workdir, stem + ".dat")
        if path not in self._written:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(fimi_text(rows))
            self._written[path] = [r for r in rows if r]
        return path

    def job(self, job):
        """(files, commands) for one job; cached so repeated calls agree."""
        if job not in self._jobs:
            self._jobs[job] = getattr(self, "_" + self.name.replace("-", "_"))(job)
        return self._jobs[job]

    def files(self, job):
        return {p: self._written[p] for p in self.job(job)[0]}

    def commands(self, job):
        return self.job(job)[1]

    def _long_sparse(self, job):
        # Row scans (support, cell_table, one_zero_cells) and length-|D|+1 ndi
        # keys dominate; closed_coefficients is a small share.
        db = self._write("long-sparse", self.main_rows)
        part, sample_verify = self._sample_verify(job, "ndi")
        return [db, part], [
            ["mine", "--input", db, "--predicate", "ndi", "--alpha", "0.5",
             "--rho", "0.1", "--min-support", "50"],
            ["rank", "--input", db, "--predicate", "closed", "--min-support", "50"],
            ["experiment", "sweep", "--input", db, "--predicate", "free",
             "--min-support", "50"],
            # companions; at this alpha the pair's one-zero cells (about 640
            # rows each) survive with probability near 0.7, so the estimate is
            # strictly inside (0, 1) and the comparison informative
            ["verify", "--input", db, "--itemset", self.pair, "--predicate", "free",
             "--alpha", "0.002", "--method", "mc", "--samples", "5000"],
            sample_verify,
        ]

    def _dense_closed(self, job):
        # The closed-family walk (closed_coefficients, canon_items) is
        # quadratic in the family size; row scans over 200 rows are cheap and
        # ndi keys are short.
        db = self._write("dense-closed", self.main_rows)
        part, sample_verify = self._sample_verify(job, "free")
        return [db, part], [
            ["rank", "--input", db, "--predicate", "closed", "--min-support", "10"],
            ["rank", "--input", db, "--predicate", "ndi", "--min-support", "10"],
            # companions
            ["mine", "--input", db, "--predicate", "free", "--alpha", "0.5",
             "--rho", "0.1", "--min-support", "10"],
            ["experiment", "sweep", "--input", db, "--predicate", "free",
             "--min-support", "10"],
            # four cells of about 50 rows: robustness near 0.5 at this alpha;
            # enough samples that the call lasts about half a second, so that
            # its time is not mostly timer and probe jitter
            ["verify", "--input", db, "--itemset", self.pair, "--predicate", "ts",
             "--alpha", "0.04", "--method", "mc", "--samples", "40000"],
            sample_verify,
        ]

    def _oracle_verify(self, job):
        # Many tiny sub-databases built through TransactionDatabase.subset.
        # Every job draws a fresh corpus and no (database, itemset, predicate)
        # triple repeats within a run, so oracle._satisfied_by_size's cache
        # never hits, as for a CLI user.
        rng = random.Random(f"oracle-verify/{self.seed}/{job}")
        paths, cmds = [], []
        for n, k, density in ORACLE_SHAPES:
            rows = nonempty_rows(rng, n, k, density)
            path = self._write(f"tiny-{job}-{n}", rows)
            paths.append(path)
            text = fimi_text(rows)
            universe = max(max(r) for r in rows) + 1
            for p, pred in enumerate(PREDICATES):
                # the itemset size is fixed per slot, so that a slot costs the
                # same in every job (run.py takes each slot's fastest invocation)
                size = 1 + (p + n) % 3
                while True:
                    items = " ".join(map(str, sorted(rng.sample(range(universe), size))))
                    if (text, items, pred) not in self._seen_triples:
                        self._seen_triples.add((text, items, pred))
                        break
                cmds.append(["verify", "--input", path, "--itemset", items, "--predicate", pred,
                             "--alpha", "0.5"])
        dense = self._write("dense-closed", self.main_rows)
        paths.append(dense)
        for pred in PREDICATES:
            cmds.append(["verify", "--input", dense, "--itemset", "0", "--predicate", pred,
                         "--alpha", "0.5", "--method", "mc", "--samples", "2000"])
        # companions
        cmds += [
            ["mine", "--input", dense, "--predicate", "ndi", "--alpha", "0.5",
             "--rho", "0.1", "--min-support", "10"],
            ["rank", "--input", dense, "--predicate", "ndi", "--min-support", "10"],
            ["experiment", "sweep", "--input", dense, "--predicate", "free",
             "--min-support", "10"],
        ]
        return paths, cmds


def command_metric(argv) -> str:
    """End-to-end metric a command's time is summed into."""
    return "sweep_s" if argv[0] == "experiment" else argv[0] + "_s"
