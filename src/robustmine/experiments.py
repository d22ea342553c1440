"""Experiment harness: parameter sweeps, noise injection, rank stability.

Everything here is deterministic given its seed and returns plain data;
serialization for the command line lives in the cli module.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_left, bisect_right, insort
from itertools import compress, groupby
from operator import itemgetter

from .dataset import TransactionDatabase, canon_items
from .mining import family_keys, levelwise, mine_closed, resolve_min_support
from .ordering import ClosedFamilyIndex, check_probability, rank, score, sort_keys, values_at
from .predicates import PredicateKind


@dataclass(frozen=True)
class SweepResult:
    kind: PredicateKind
    alphas: tuple[float, ...]
    rhos: tuple[float, ...]
    counts: dict  # (alpha, rho) -> number of mined itemsets

    def rows(self):
        return ((a, r, self.counts[(a, r)]) for a in self.alphas for r in self.rhos)


def sweep(db: TransactionDatabase, kind: PredicateKind, alphas, rhos,
          min_support=1) -> SweepResult:
    """Mined-itemset counts over the (alpha, rho) grid.

    The predicate family is independent of alpha, so it is walked once, each
    member's score is built once, and the grid only re-thresholds its values:
    one values_at batch per alpha, sorted, and the count at rho is the number
    of values >= rho, one bisection. Counts equal a literal mine_robust run
    at every grid point.
    """
    alphas = tuple(check_probability(a) for a in alphas)
    rhos = tuple(check_probability(r, "rho") for r in rhos)
    scores = [sc for _, _, sc in levelwise(db, kind, min_support)]
    counts = {}
    for a in alphas:
        values = sorted(values_at(scores, a))
        for r in rhos:
            counts[(a, r)] = len(values) - bisect_left(values, r)
    return SweepResult(kind, alphas, rhos, counts)


def noise_mix(db: TransactionDatabase, eta: float, seed: int) -> TransactionDatabase:
    """Mix each entry, independently with probability eta, with a synthetic
    database of independent columns matching the original column frequencies.
    Only the items some row holds take part: an absent item has frequency 0
    and stays absent. eta = 0 returns an identical database; eta = 1 is fully
    synthetic. Deterministic given the seed."""
    import numpy as np

    eta = check_probability(eta, "eta")
    rows = [db.row_items(j) for j in range(len(db))]
    items = sorted(set().union(*rows))
    if not items:
        return db
    column = {i: k for k, i in enumerate(items)}
    m = np.zeros((len(rows), len(items)), dtype=bool)
    for j, row in enumerate(rows):
        m[j, [column[i] for i in row]] = True
    rng = np.random.Generator(np.random.Philox(seed))
    synthetic = rng.random(m.shape) < m.mean(axis=0)
    mixed = np.where(rng.random(m.shape) < eta, synthetic, m)
    return TransactionDatabase((list(compress(items, row)) for row in mixed),
                               db.n_items, db.tids)


def compliance(original_order, noisy_order) -> list[float]:
    """Positional agreement per itemset of the original ranking.

    An itemset at original position i found at noisy position j scores
    1 / (|i - j| + 1); itemsets missing from the noisy ranking score 0.
    """
    original = [canon_items(x) for x in original_order]
    noisy_pos = {canon_items(x): j for j, x in enumerate(noisy_order, start=1)}
    return [0.0 if (j := noisy_pos.get(x)) is None else 1.0 / (abs(i - j) + 1)
            for i, x in enumerate(original, start=1)]


def _as_buckets(ranking) -> list[list[tuple[int, ...]]]:
    # a bare itemset is a bucket of its own
    return [[canon_items(entry)] if all(isinstance(e, int) for e in entry)
            else sorted(map(canon_items, entry)) for entry in map(list, ranking)]


def rank_distance(bucketed, other) -> float:
    """Discordant-pair distance between a (possibly tied) ranking and another.

    Both arguments are rankings over the same itemsets, given either as flat
    itemset lists or as lists of tie buckets. A pair is discordant when the
    rankings order it strictly oppositely; pairs tied in the first ranking
    are excluded from the pair budget
    b = N(N-1)/2 - sum B(B-1)/2 over its buckets. Returns 100 * discordant / b.
    """
    b1, b2 = _as_buckets(bucketed), _as_buckets(other)
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
    discordant, seen = 0, []  # seen: the earlier buckets' places in the second ranking, sorted
    for later in ([pos2[x] for x in bucket] for bucket in b1):
        discordant += sum(len(seen) - bisect_right(seen, p) for p in later)
        for p in later:
            insort(seen, p)
    return 100.0 * discordant / budget


def robustness_bucket_order(db: TransactionDatabase, itemsets, kind: PredicateKind,
                            alpha: float, closed_family=None) -> list[list[tuple[int, ...]]]:
    """Itemsets grouped by numeric robustness at one alpha, most robust first;
    equal values share a bucket. The scores are valued in one batch."""
    if kind is PredicateKind.CLOSED and closed_family is not None:
        closed_family = ClosedFamilyIndex.of(closed_family, db.n_items)
    itemsets = list(map(canon_items, itemsets))
    scores = [score(db, it, kind, closed_family) for it in itemsets]
    return _buckets(zip(itemsets, values_at(scores, alpha)))


def _buckets(scored) -> list[list[tuple[int, ...]]]:
    ranked = sorted(scored, key=lambda pair: -pair[1])
    return [sorted(it for it, _ in group) for _, group in groupby(ranked, key=itemgetter(1))]


def parameter_free_order(db: TransactionDatabase, itemsets, kind: PredicateKind,
                         closed_family=None) -> list:
    """Flat most-robust-first ranking from the parameter-free keys."""
    return [items for items, _ in rank(db, itemsets, kind, closed_family=closed_family)]


def walk_orders(db: TransactionDatabase, kind: PredicateKind, alpha: float, min_support=1,
                include_empty: bool = False):
    """(robustness_bucket_order, parameter_free_order) of a kind's family from
    its family_keys, each member scored once and the scores valued at alpha in
    one batch. Closed values need every closed superset, so above min
    support 1 the members are scored again over the threshold-1 family."""
    keys = family_keys(db, kind, min_support, include_empty=include_empty)
    scores = [key.payload for key in keys]
    if kind is PredicateKind.CLOSED and resolve_min_support(min_support, len(db)) > 1:
        complete = ClosedFamilyIndex(mine_closed(db, 1), db.n_items)
        scores = [score(db, key.items, kind, complete) for key in keys]
    buckets = _buckets(zip((key.items for key in keys), values_at(scores, alpha)))
    return buckets, [key.items for key in sort_keys(keys)]
