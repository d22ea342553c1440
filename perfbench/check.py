"""Correctness of each command's output, independent of the program's code.

Every row a command prints is re-derived from the generated transactions
with per-item tidsets (bitsets over rows): supports, predicate truth and,
for free / ts / ndi, the closed-form robustness (of mine rows and of
verify's analytic figure). Sweep grids must be monotone. A verify verdict
must be PASS, with one known defect classified
separately: `verify --method mc` sets its tolerance to 5 * stderr, which is 0
when the estimate is exactly 0 or 1, so a float-level difference reads FAIL.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os

from workloads import tidsets

PASS, KNOWN_DEFECT = "pass", "known-defect"
# {workload: {content_key: [exit code, stdout digest]}}, written by record.py
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:32]


def content_key(argv) -> str:
    """Identity of a command and its input files, wherever the files live."""
    parts = []
    for a in argv:
        if os.path.isfile(a):
            with open(a, "rb") as fh:
                a = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
        parts.append(a)
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:32]


class Db:
    """The transactions of one input file, as the program sees them."""

    def __init__(self, rows):
        self.n = len(rows)
        self.n_items = max((max(r) for r in rows if r), default=-1) + 1
        self.all = (1 << self.n) - 1
        self.tids = tidsets(rows, self.n_items)

    def tid(self, items):
        t = self.all
        for i in items:
            t &= self.tids[i]
        return t

    def cells(self, items):
        """{value vector: count} over all 2**|X| vectors."""
        out = {}
        for v in itertools.product((0, 1), repeat=len(items)):
            t = self.all
            for i, bit in zip(items, v):
                t &= self.tids[i] if bit else self.all ^ self.tids[i]
            out[v] = t.bit_count()
        return out

    def classes(self, items, pred):
        """Cell classes whose joint survival keeps the predicate (closed: None)."""
        cells = self.cells(items)
        if pred == "free":
            m = len(items)
            return [[cells[tuple(0 if j == k else 1 for j in range(m))] for k in range(m)]]
        if pred == "ts":
            return [list(cells.values())]
        if pred == "ndi":
            if not items:
                return None
            odd = [c for v, c in cells.items() if sum(v) % 2]
            even = [c for v, c in cells.items() if not sum(v) % 2]
            return [odd, even]
        return None

    def holds(self, items, pred) -> bool:
        if pred == "closed":
            s = self.tid(items).bit_count()
            t = self.tid(items)
            return all((t & self.tids[y]).bit_count() != s
                       for y in range(self.n_items) if y not in items)
        if pred == "ndi" and not items:
            return True
        return any(all(c > 0 for c in cls) for cls in self.classes(items, pred))

    def robustness(self, items, pred, alpha):
        """Closed form: free / ts, every cell survives; ndi, the odd or the even class does."""
        def alive(cells):
            p = 1.0
            for c in cells:
                p *= 1.0 - (1.0 - alpha) ** c
            return p

        cls = self.classes(items, pred)
        if pred in ("free", "ts"):
            return alive(cls[0])
        odd, even = cls
        return alive(odd) + alive(even) - alive(odd + even)


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _items(field):
    return tuple(int(t) for t in field.split())


def _min_support(argv):
    return int(_opt(argv, "--min-support", "1"))


def check_output(argv, code, out, db):
    """PASS, KNOWN_DEFECT, or a message saying what is wrong."""
    try:
        if argv[0] == "mine":
            return _check_mine(argv, code, out, db)
        if argv[0] == "rank":
            return _check_rank(argv, code, out, db)
        if argv[0] == "verify":
            return _check_verify(argv, code, out, db)
        return _check_sweep(argv, code, out)
    except (ValueError, IndexError, KeyError) as e:
        return f"unparsable output: {e!r}"


def _rows(out, header):
    lines = out.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]!r}")
    return [line.split("\t") for line in lines[1:]]


def _check_mine(argv, code, out, db):
    if code != 0:
        return f"exit code {code}"
    pred = _opt(argv, "--predicate")
    alpha, rho = float(_opt(argv, "--alpha")), float(_opt(argv, "--rho", "0"))
    tau = _min_support(argv)
    seen = set()
    for items_f, supp_f, rob_f in _rows(out, "# itemset\tsupport\trobustness"):
        items = _items(items_f)
        if items in seen:
            return f"{items} listed twice"
        seen.add(items)
        supp = db.tid(items).bit_count()
        if int(supp_f) != supp or supp < tau:
            return f"{items}: support {supp_f}, counted {supp}, threshold {tau}"
        if not db.holds(items, pred):
            return f"{items} is not {pred}"
        r = float(rob_f)
        want = db.robustness(items, pred, alpha)
        if not rho <= r <= 1.0 or abs(r - want) > 1e-9:
            return f"{items}: robustness {rob_f}, expected {want:.12g}"
    return PASS


def _check_rank(argv, code, out, db):
    if code != 0:
        return f"exit code {code}"
    pred = _opt(argv, "--predicate")
    tau = _min_support(argv)
    header = "# rank\titemset\tsupport\tkey" + ("\texact" if pred == "closed" else "")
    rows = _rows(out, header)
    if not 1 <= len(rows) <= int(_opt(argv, "--top-k", "10")):
        return f"{len(rows)} rows"
    for pos, row in enumerate(rows, start=1):
        items = _items(row[1])
        supp = db.tid(items).bit_count()
        if int(row[0]) != pos or int(row[2]) != supp or supp < tau:
            return f"row {pos}: {row[:3]}, counted support {supp}"
        if not db.holds(items, pred):
            return f"{items} is not {pred}"
    return PASS


def _check_sweep(argv, code, out):
    if code != 0:
        return f"exit code {code}"
    counts = {}
    for a, r, c in _rows(out, "# alpha\trho\tcount"):
        counts[(float(a), float(r))] = int(c)
    alphas = sorted({a for a, _ in counts})
    rhos = sorted({r for _, r in counts})
    if len(counts) != 81 or len(alphas) != 9 or len(rhos) != 9:
        return f"grid of {len(counts)} points"
    for a, r in counts:
        # robustness grows with alpha, so counts grow with alpha and drop with rho
        if a != alphas[-1] and counts[(a, r)] > counts[(alphas[alphas.index(a) + 1], r)]:
            return f"count falls from alpha {a} to the next alpha at rho {r}"
        if r != rhos[-1] and counts[(a, r)] < counts[(a, rhos[rhos.index(r) + 1])]:
            return f"count rises from rho {r} to the next rho at alpha {a}"
    return PASS


def _check_verify(argv, code, out, db):
    fields = dict(line.split("\t", 1) for line in out.splitlines())
    verdict = fields["verdict"]
    analytic = float(fields["analytic"])
    reference = float(fields.get("exhaustive", fields.get("monte-carlo")))
    if not 0.0 <= analytic <= 1.0:
        return f"analytic {analytic} outside [0, 1]"
    pred = _opt(argv, "--predicate")
    if pred != "closed":
        items = _items(_opt(argv, "--itemset"))
        want = db.robustness(items, pred, float(_opt(argv, "--alpha")))
        if abs(analytic - want) > 1e-9:
            return f"analytic {analytic}, expected {want:.12g}"
    if verdict.startswith("PASS") and code == 0:
        return PASS
    if (verdict == "FAIL (tolerance 0)" and code == 1 and "monte-carlo" in fields
            and reference in (0.0, 1.0) and abs(analytic - reference) < 1e-9):
        return KNOWN_DEFECT
    return f"verdict {verdict!r}, exit code {code}"
