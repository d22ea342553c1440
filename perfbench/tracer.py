"""Spans around robustmine's public functions, recorded from outside the program.

install() replaces every attribute in the loaded robustmine.* modules that is
the same object as a traced function (modules import functions by name, e.g.
cli imports rank as rank_itemsets), so internal calls are traced too.
remove() puts every original back. Spans (name, start, end, parent) are kept
in compact arrays and written out at the end; a span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

# (module, attribute path) of every traced function, in layer order.
TRACED = (
    ("cli", "main"),
    ("dataset", "load_fimi"),
    ("dataset", "support"),
    ("dataset", "one_zero_cells"),
    ("dataset", "cell_table"),
    ("dataset", "TransactionDatabase.subset"),
    ("predicates", "evaluate_predicate"),
    ("predicates", "is_closed"),
    ("robustness", "robustness"),
    ("robustness", "survival_probability"),
    ("ordering", "order_key"),
    ("ordering", "ndi_polynomial"),
    ("ordering", "expand"),
    ("ordering", "compare_keys"),
    ("ordering", "closed_coefficients"),
    ("mining", "mine_robust"),
    ("mining", "mine_closed"),
    ("mining", "top_k"),
    ("oracle", "exhaustive_robustness"),
    ("oracle", "monte_carlo_robustness"),
    ("experiments", "sweep"),
)
# Counted but not timed: about 2M calls per dense-closed job, where a span
# each would distort the run.
COUNTED = (("dataset", "canon_items"),)


def span_name(module, attr):
    return f"{module}.{attr}"


def _resolve(module, attr):
    owner = sys.modules["robustmine." + module]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Records spans and counts while installed; one instance per traced run."""

    def __init__(self):
        self.names = [span_name(module, attr) for module, attr in TRACED]
        self.ids = {label: nid for nid, label in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.notes: dict[int, int] = {}  # span index -> emitted itemsets or samples
        self._restore: list[tuple[object, str, object]] = []

    def _timed(self, fn, label, note=None):
        nid = self.ids[label]
        name_a, parent_a, start_a, end_a = self.name, self.parent, self.start, self.end
        stack, notes, clock = self.stack, self.notes, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1])
            end_a.append(0.0)
            stack.append(idx)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(fn, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, label):
        counts = self.counts
        counts[label] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the traced functions; counted calls restart at zero."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, attr in TRACED + COUNTED:
            owner, leaf = _resolve(module, attr)
            fn = getattr(owner, leaf)
            label = span_name(module, attr)
            if (module, attr) in COUNTED:
                wrappers[id(fn)] = (fn, self._counted(fn, label))
            else:
                wrappers[id(fn)] = (fn, self._timed(fn, label, _NOTES.get(label)))
            self._replace(owner, leaf, fn, wrappers[id(fn)][1])
        # every other binding of the same objects in robustmine.*
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "robustmine" or mod_name.startswith("robustmine.")):
                continue
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(mod, key, value, hit[1])

    def _replace(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def remove(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def mark(self) -> int:
        """Index of the next span; spans between two marks belong to one job."""
        return len(self.start)

    def save(self, path):
        """Write all spans as a numpy .npz (names, name, parent, start, end)."""
        import numpy as np

        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.uint16),
                 parent=np.frombuffer(self.parent, np.int64 if self.parent.itemsize == 8 else np.int32),
                 start=np.frombuffer(self.start, np.float64), end=np.frombuffer(self.end, np.float64))


def _mc_samples(fn, args, kwargs, result):
    return int(inspect.signature(fn).bind(*args, **kwargs).arguments["n_samples"])


def _emitted(fn, args, kwargs, result):
    return len(result)


_NOTES = {"mining.mine_robust": _emitted, "oracle.monte_carlo_robustness": _mc_samples}


def self_times(start, end, parent):
    """Self time of each span: its duration minus the union of the intervals
    its child spans cover inside it. parent[i] is an index into the same
    sequences, or -1 for a root."""
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = array("d", [float("-inf")]) * n
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        s = max(start[i], start[p], reach[p])
        e = min(end[i], end[p])
        if e > s:
            covered[p] += e - s
            reach[p] = e
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))


def layer_metrics(tracer, lo, hi, counts):
    """Per-layer metrics of spans lo..hi (one job), with the calls counted
    during it."""
    name = tracer.name[lo:hi]
    # parent indices are absolute; rebase them to the slice
    parent = array("l", (p - lo if p >= lo else -1 for p in tracer.parent[lo:hi]))
    own = self_times(tracer.start[lo:hi], tracer.end[lo:hi], parent)
    calls = [0] * len(tracer.names)
    self_s = [0.0] * len(tracer.names)
    for nid, t in zip(name, own):
        calls[nid] += 1
        self_s[nid] += t
    out = {}
    for nid, label in enumerate(tracer.names):
        out[label + ".calls"] = calls[nid]
        out[label + ".self_s"] = self_s[nid]
    for module, attr in COUNTED:
        label = span_name(module, attr)
        out[label + ".calls"] = counts.get(label, 0)

    # evaluate_predicate calls under the nearest enclosing miner / mc oracle
    ids = tracer.ids
    miner, mc = ids["mining.mine_robust"], ids["oracle.monte_carlo_robustness"]
    pred = ids["predicates.evaluate_predicate"]
    under = array("l", [-1]) * len(name)
    pred_under = {miner: 0, mc: 0}
    noted = {miner: 0, mc: 0}
    for i, nid in enumerate(name):
        p = parent[i]
        inherited = under[p] if p >= 0 else -1
        if nid in noted:
            noted[nid] += tracer.notes.get(i + lo, 0)
            under[i] = nid
        else:
            under[i] = inherited
            if nid == pred and inherited >= 0:
                pred_under[inherited] += 1
    samples = noted[mc]
    out["oracle.mc_unique_ratio"] = pred_under[mc] / samples if samples else 0.0
    evaluated = pred_under[miner]
    out["mining.predicate_yield"] = noted[miner] / evaluated if evaluated else 0.0
    return out
