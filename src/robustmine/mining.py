"""Levelwise mining of robust itemsets, and closed itemsets by closure extension.

Freeness, non-derivability and total shattering are downward closed and
their robustness only drops when items are added, so the classic
candidate-join / subset-prune loop applies to the robustness filter too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, groupby
from operator import itemgetter

from .dataset import TransactionDatabase, canon_items, support
from .ordering import OrderKey, _key_payload, rank
from .predicates import PredicateKind, evaluate_predicate, survival_classes
from .robustness import check_probability, survival


def resolve_min_support(min_support, n_transactions: int) -> int:
    """Absolute count, or fraction of |D| rounded up when strictly in (0, 1)."""
    if isinstance(min_support, float) and not min_support.is_integer():
        if not 0.0 < min_support < 1.0:
            raise ValueError(f"fractional min support must be in (0, 1), got {min_support}")
        return math.ceil(min_support * n_transactions)
    ms = int(min_support)
    if ms < 0:
        raise ValueError(f"min support must be >= 0, got {min_support}")
    return ms


@dataclass(frozen=True)
class MiningConfig:
    kind: PredicateKind
    alpha: float
    rho: float = 0.0
    min_support: float | int = 1
    max_size: int | None = None
    include_empty: bool = False


@dataclass(frozen=True)
class MinedItemset:
    items: tuple[int, ...]
    support: int
    robustness: float


def levelwise(db: TransactionDatabase, config: MiningConfig):
    """The Apriori walk behind every non-closed miner. A candidate survives
    when its support reaches min_support, the predicate holds and its
    robustness at alpha reaches rho, scored from one survival-class count.
    Members are yielded as (items, support, robustness, classes), level by
    level in lexicographic itemset order, the empty itemset first when
    include_empty is set and it survives; the walk keeps only their
    itemsets, for the join. Level 1 holds every id at min_support 0 (an
    absent item can qualify there) and only the items present otherwise.
    A negative max_size is rejected."""
    kind = config.kind
    if kind is PredicateKind.CLOSED:
        raise ValueError("closedness is not downward closed; use mine_closed or top_k")
    alpha = check_probability(config.alpha)
    rho = check_probability(config.rho, "rho")
    tau = resolve_min_support(config.min_support, len(db))
    max_size = config.max_size
    if max_size is not None and max_size < 0:
        raise ValueError(f"max size must be >= 0, got {max_size}")

    def keep(items):
        s = support(db, items)
        # the reference test, not classes_hold on the classes below: perfbench's
        # mining.predicate_yield counts evaluate_predicate calls under the miner
        if s < tau or not evaluate_predicate(db, items, kind):
            return None
        classes = survival_classes(db, items, kind)
        r = survival(classes, alpha)
        if r < rho:
            return None
        return items, s, r, classes

    if config.include_empty and (empty := keep(())):
        yield empty
    seeds = range(db.n_items) if tau < 1 else sorted(i for i, _ in db.columns())
    level = [(i,) for i in seeds]
    k = 1
    while level and (max_size is None or k <= max_size):
        survivors = []
        for member in filter(None, map(keep, level)):
            survivors.append(member[0])
            yield member
        # survivors keep the level's lexicographic order, so itemsets sharing
        # all but their last item are adjacent
        alive = set(survivors)
        nxt = []
        for _, group in groupby(survivors, key=lambda it: it[:-1]):
            for a, b in combinations(group, 2):
                cand = a + (b[-1],)
                if all(cand[:j] + cand[j + 1:] in alive for j in range(len(cand))):
                    nxt.append(cand)
        level = sorted(nxt)
        k += 1


def mine_robust(db: TransactionDatabase, config: MiningConfig) -> list[MinedItemset]:
    """All itemsets holding the predicate with support >= min_support and
    robustness(alpha) >= rho. Output grouped by size, most robust first
    within each size."""
    # classes are dropped as members arrive, so one level's keys are alive at
    # a time; a level sorts by key alone, as comparing pairs would first test
    # keys for equality
    dlen = len(db)
    scored = ((OrderKey(config.kind, _key_payload(classes, dlen), s, items), r)
              for items, s, r, classes in levelwise(db, config))
    return [MinedItemset(key.items, key.support, r)
            for _, level in groupby(scored, key=lambda pair: len(pair[0].items))
            for key, r in sorted(level, key=itemgetter(0))]


def mine_closed(db: TransactionDatabase, min_support=1) -> list[tuple[tuple[int, ...], int]]:
    """All nonempty closed itemsets with support >= min_support (>= 1), as
    (itemset, support) pairs in (size, lexicographic) order.

    Prefix-preserving closure extension (LCM, Uno, Kiyomi & Arimura 2004)
    over the columns present, closure(t) being the items whose tidset
    contains t: from closed P, an item i past the one that made P gives
    closure(tid(P u {i})), kept when it adds no item below i, so each closed
    set is reached once. The walk starts at the empty itemset, so its
    closure is reached as the extension by the smallest item it holds.
    """
    tau = resolve_min_support(min_support, len(db))
    if tau < 1:
        raise ValueError(f"closed mining needs min support >= 1, got {min_support}")
    every = db.tidset(())
    items, cols = [], []
    for i, col in sorted(db.columns()):
        if col & every:
            items.append(i)
            cols.append(col & every)
    out = []
    stack = [(every, 0, -1)]  # (tidset, closed set as a mask of item ranks, rank that made it)
    while stack:
        t, closed, core = stack.pop()
        for i in range(core + 1, len(cols)):
            u = t & cols[i]
            if closed >> i & 1 or u.bit_count() < tau:
                continue
            grown = closed | 1 << i
            for j, col in enumerate(cols):
                if not grown >> j & 1 and col & u == u:
                    if j < i:
                        break
                    grown |= 1 << j
            else:
                out.append((tuple(it for j, it in enumerate(items) if grown >> j & 1),
                            u.bit_count()))
                stack.append((u, grown, i))
    out.sort(key=lambda pair: (len(pair[0]), pair[0]))
    return out


def complete_closed_family(db: TransactionDatabase) -> list[tuple[tuple[int, ...], int]]:
    """Every nonempty closed itemset with its support (threshold-1 mining)."""
    return mine_closed(db, 1)


@dataclass(frozen=True)
class RankedPattern:
    position: int
    items: tuple[int, ...]
    support: int
    key: OrderKey


def top_k(db: TransactionDatabase, kind: PredicateKind, k: int, min_support=1,
          min_size: int = 0, max_size: int | None = None, include_empty: bool = True,
          closed_family=None) -> list[RankedPattern]:
    """The k most robust members of the predicate family.

    Closed: the family is mined at min_support (or taken from closed_family)
    and ranked by its inclusion-exclusion keys. Other kinds: the predicate
    family with support >= min_support, ranked by margin vector or
    polynomial. The empty itemset participates when include_empty is set,
    min_size is 0 and it passes the filters.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if min_size < 0 or (max_size is not None and max_size < min_size):
        raise ValueError(f"bad size window [{min_size}, {max_size}]")
    tau = resolve_min_support(min_support, len(db))
    if kind is PredicateKind.CLOSED:
        family = list(closed_family) if closed_family is not None else mine_closed(db, max(tau, 1))
        members = [it for it in (canon_items(f) for f, _ in family)
                   if min_size <= len(it) and (max_size is None or len(it) <= max_size)]
        keys = [key for _, key in rank(db, members, kind, closed_family=family,
                                       closed_min_support=max(tau, 1))]
    else:
        walk = levelwise(db, MiningConfig(kind, 1.0, min_support=tau, max_size=max_size,
                                          include_empty=include_empty))
        keys = sorted(OrderKey(kind, _key_payload(classes, len(db)), s, items)
                      for items, s, _, classes in walk if len(items) >= min_size)
    return [RankedPattern(pos, key.items, key.support, key)
            for pos, key in enumerate(keys[:k], start=1)]
