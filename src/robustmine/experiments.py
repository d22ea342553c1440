"""Experiment harness: parameter sweeps, noise injection, rank stability.

Everything here is deterministic given its seed and returns plain data;
serialization for the command line lives in the cli module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .dataset import TransactionDatabase, canon_items
from .mining import MiningConfig, levelwise
from .ordering import ClosedFamilyIndex, rank
from .predicates import PredicateKind
from .robustness import check_probability, robustness, survival


@dataclass(frozen=True)
class SweepResult:
    kind: PredicateKind
    alphas: tuple[float, ...]
    rhos: tuple[float, ...]
    counts: dict  # (alpha, rho) -> number of mined itemsets

    def rows(self):
        for a in self.alphas:
            for r in self.rhos:
                yield a, r, self.counts[(a, r)]


def sweep(db: TransactionDatabase, kind: PredicateKind, alphas, rhos,
          min_support=1) -> SweepResult:
    """Mined-itemset counts over the (alpha, rho) grid.

    The predicate family is independent of alpha, so it is walked once at
    alpha = 1, each member's survival classes are counted once, and the grid
    only re-thresholds robustness values. Counts equal a literal mine_robust
    run at every grid point.
    """
    alphas = tuple(check_probability(a) for a in alphas)
    rhos = tuple(check_probability(r, "rho") for r in rhos)
    classes = [c for *_, c in levelwise(db, MiningConfig(kind, 1.0, min_support=min_support))]
    counts = {}
    for a in alphas:
        values = [survival(c, a) for c in classes]
        for r in rhos:
            counts[(a, r)] = sum(1 for v in values if v >= r)
    return SweepResult(kind, alphas, rhos, counts)


def noise_mix(db: TransactionDatabase, eta: float, seed: int) -> TransactionDatabase:
    """Mix each matrix entry, independently with probability eta, with a
    synthetic database of independent columns matching the original column
    frequencies. eta = 0 returns an identical database; eta = 1 is fully
    synthetic. Deterministic given the seed."""
    import numpy as np

    eta = check_probability(eta, "eta")
    m = db.to_matrix()
    if m.size == 0:
        return db
    rng = np.random.Generator(np.random.Philox(seed))
    margins = m.mean(axis=0)
    synthetic = rng.random(m.shape) < margins
    use_synthetic = rng.random(m.shape) < eta
    mixed = np.where(use_synthetic, synthetic, m.astype(bool))
    return TransactionDatabase.from_matrix(mixed.astype(np.uint8), tids=db.tids)


def compliance(original_order, noisy_order) -> list[float]:
    """Positional agreement per itemset of the original ranking.

    An itemset at original position i found at noisy position j scores
    1 / (|i - j| + 1); itemsets missing from the noisy ranking score 0.
    """
    original = [canon_items(x) for x in original_order]
    noisy_pos = {canon_items(x): j for j, x in enumerate(noisy_order, start=1)}
    out = []
    for i, x in enumerate(original, start=1):
        j = noisy_pos.get(x)
        out.append(0.0 if j is None else 1.0 / (abs(i - j) + 1))
    return out


def _as_buckets(ranking) -> list[list[tuple[int, ...]]]:
    buckets = []
    for entry in ranking:
        entry = list(entry)
        if all(isinstance(e, int) for e in entry):
            buckets.append([canon_items(entry)])  # a bare itemset
        else:
            buckets.append(sorted(canon_items(x) for x in entry))
    return buckets


def rank_distance(bucketed, other) -> float:
    """Discordant-pair distance between a (possibly tied) ranking and another.

    Both arguments are rankings over the same itemsets, given either as flat
    itemset lists or as lists of tie buckets. A pair is discordant when the
    rankings order it strictly oppositely; pairs tied in the first ranking
    are excluded from the pair budget
    b = N(N-1)/2 - sum B(B-1)/2 over its buckets. Returns 100 * discordant / b.
    """
    b1 = _as_buckets(bucketed)
    b2 = _as_buckets(other)
    pos1 = {x: i for i, bucket in enumerate(b1) for x in bucket}
    pos2 = {x: i for i, bucket in enumerate(b2) for x in bucket}
    if len(pos1) != sum(len(b) for b in b1) or len(pos2) != sum(len(b) for b in b2):
        raise ValueError("rankings must not repeat itemsets")
    if set(pos1) != set(pos2):
        raise ValueError("rankings cover different itemsets")
    n = len(pos1)
    budget = n * (n - 1) // 2 - sum(len(b) * (len(b) - 1) // 2 for b in b1)
    if budget == 0:
        raise ValueError("distance undefined: every pair is tied in the first ranking")
    discordant = sum(1 for x, y in combinations(sorted(pos1), 2)
                     if (pos1[x] - pos1[y]) * (pos2[x] - pos2[y]) < 0)
    return 100.0 * discordant / budget


def robustness_bucket_order(db: TransactionDatabase, itemsets, kind: PredicateKind,
                            alpha: float, closed_family=None) -> list[list[tuple[int, ...]]]:
    """Itemsets grouped by numeric robustness at one alpha, most robust first;
    equal values share a bucket."""
    if kind is PredicateKind.CLOSED and closed_family is not None:
        closed_family = ClosedFamilyIndex(closed_family, db.n_items)
    scored: dict[float, list] = {}
    for it in itemsets:
        it = canon_items(it)
        r = robustness(db, it, kind, alpha, closed_family=closed_family)
        scored.setdefault(r, []).append(it)
    return [sorted(scored[r]) for r in sorted(scored, reverse=True)]


def parameter_free_order(db: TransactionDatabase, itemsets, kind: PredicateKind,
                         closed_family=None) -> list:
    """Flat most-robust-first ranking from the parameter-free keys."""
    return [items for items, _ in rank(db, itemsets, kind, closed_family=closed_family)]
