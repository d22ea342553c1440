"""Levelwise mining of robust itemsets, and closed itemsets by closure extension.

Freeness, non-derivability and total shattering are downward closed and
their robustness only drops when items are added, so the classic
candidate-join / subset-prune loop applies to the robustness filter too, and
top_k cuts the same walk once per level by the k-th ranking key held.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from itertools import combinations, groupby

from .dataset import TransactionDatabase
from .ordering import (LESS, ClosedFamilyIndex, OrderKey, check_probability, compare_keys,
                       order_key, score_of, sort_keys, values_at)
from .predicates import PredicateKind, evaluate_predicate, survival_classes


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


def check_size_window(min_size: int, max_size: int | None) -> None:
    """The one check of an itemset size window [min_size, max_size] (max_size
    None: unbounded), for mine, rank and every kind."""
    if min_size < 0:
        raise ValueError(f"min size must be >= 0, got {min_size}")
    if max_size is not None and max_size < min_size:
        raise ValueError(f"max size must be >= {min_size}, got {max_size}")


def levelwise(db: TransactionDatabase, kind: PredicateKind, min_support=1,
              max_size: int | None = None, include_empty: bool = False, select=None):
    """The Apriori walk behind every non-closed miner. A candidate is a member
    when its support reaches min_support and the predicate holds. Members are
    yielded as (items, support, score), level by level in lexicographic itemset
    order, the empty itemset first (level 0) when include_empty is set and it
    holds. Level 1 holds every id at min_support 0 (an absent item can qualify
    there, but joins nothing: a superset of it has an empty cell in every
    class) and only the items present otherwise. A negative max_size is
    rejected.

    Each candidate is counted once, from the level above (Zaki's vertical
    walk): every proper subset of it is a member there. Its tidset is one AND
    of its prefix parent's tidset with its last item's column, and is tested
    against min_support first. A free candidate's cells are supp(X - x) -
    supp(X), read from the supports of the level above; an ndi or ts
    candidate counts its one cell table. evaluate_predicate then tests those
    classes, and the score is built from them (score_of). Only the supports
    and tidsets of one level's members are kept, for the next level's join.

    select(level), when given, is the walk's one filter, an anti-monotone
    constraint (Pei, Han & Lakshmanan, ICDE 2001): called once per level with
    its members in order, it returns those to keep. A dropped member is not
    yielded and never joins, so none of its supersets is generated.
    """
    if kind is PredicateKind.CLOSED:
        raise ValueError("closedness is not downward closed; use mine_closed or top_k")
    tau = resolve_min_support(min_support, len(db))
    check_size_window(0, max_size)
    cols, dlen = dict(db.columns()), len(db)

    def members(candidates, supports):
        """(member, tidset) of the (items, tidset) candidates kept."""
        found, tids = [], {}
        for items, t in candidates:
            s = t.bit_count()
            if s < tau:
                continue
            if kind is PredicateKind.FREE:  # each X - x is a member one level up
                classes = (tuple(supports[items[:j] + items[j + 1:]] - s
                                 for j in range(len(items))),)
            else:
                classes = survival_classes(db, items, kind)
            if evaluate_predicate(db, items, kind, classes):
                found.append((items, s, score_of(classes, dlen)))
                tids[items] = t
        kept = found if select is None else select(found)
        return [(member, tids[member[0]]) for member in kept]

    # the level above: its members' supports (the free cells and the subset
    # prune) and tidsets (each candidate's prefix parent); the empty itemset
    # is level 1's one parent
    supports, tidsets = {(): len(db)}, {(): db.tidset(())}
    if include_empty:
        yield from (member for member, _ in members([((), tidsets[()])], supports))
    seeds = range(db.n_items) if tau < 1 else sorted(cols)
    level = [(i,) for i in seeds]
    k = 1
    while level and (max_size is None or k <= max_size):
        found = members(((items, tidsets[items[:-1]] & cols.get(items[-1], 0))
                         for items in level), supports)
        supports, tidsets = {}, {}
        for member, t in found:
            if k > 1 or member[1]:
                supports[member[0]], tidsets[member[0]] = member[1], t
            yield member
        # members keep the level's lexicographic order, so itemsets sharing
        # all but their last item are adjacent and the candidates come out
        # sorted; dropping either of a candidate's last two items gives a or b
        level = []
        for _, group in groupby(supports, key=lambda it: it[:-1]):
            for a, b in combinations(group, 2):
                cand = a + (b[-1],)
                if all(cand[:j] + cand[j + 1:] in supports for j in range(len(cand) - 2)):
                    level.append(cand)
        k += 1


def mine_robust(db: TransactionDatabase, config: MiningConfig) -> list[MinedItemset]:
    """All itemsets holding the predicate with support >= min_support and
    robustness(alpha) >= rho, selected level by level from one values_at
    batch each. Output grouped by size, most robust first within each size."""
    alpha = check_probability(config.alpha)
    rho = check_probability(config.rho, "rho")
    value = {}  # the robustness of each member selected and not yet yielded

    def robust(level):
        values = values_at([sc for _, _, sc in level], alpha)
        value.update((items, r) for (items, _, _), r in zip(level, values) if r >= rho)
        return [member for member in level if member[0] in value]

    walk = levelwise(db, config.kind, config.min_support, config.max_size,
                     config.include_empty, robust)
    # one level's keys are alive at a time, sorted by their exact prefixes:
    # only keys whose prefixes tie are compared in Python (sort_keys)
    keys = (OrderKey(config.kind, sc, s, items) for items, s, sc in walk)
    return [MinedItemset(key.items, key.support, value.pop(key.items))
            for _, level in groupby(keys, key=lambda key: len(key.items))
            for key in sort_keys(level)]


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


def _closed_keys(db: TransactionDatabase, min_support, min_size: int, max_size: int | None,
                 k: int | None = None) -> list[OrderKey]:
    """Keys of the closed members of min_size to max_size items, mined at min_support
    (at least 1), over their index: all, or for k below their number those whose lead
    (ClosedFamilyIndex.lead) is at most the k-th, as a lead after k leads is a key after
    k keys. Leads are read full itemset first, then by support s descending: as g <= s,
    once ((0, 0, -1), (2, -s)) sorts after the k-th lead the rest cannot place."""
    tau = max(resolve_min_support(min_support, len(db)), 1)
    family = mine_closed(db, tau)
    index = ClosedFamilyIndex(family, db.n_items, min_support=tau)
    window = [(it, s) for it, s in family
              if min_size <= len(it) and (max_size is None or len(it) <= max_size)]
    if k is not None and k < len(window):
        leads = []  # (lead, itemset, support), ascending
        for it, s in sorted(window, key=lambda m: (len(m[0]) < db.n_items, -m[1])):
            if len(leads) >= k and ((0, 0, -1), (2, -s)) > leads[k - 1][0]:
                break
            insort(leads, (index.lead(it), it, s))
        window = [(it, s) for lead, it, s in leads if lead <= leads[k - 1][0]]
    return [order_key(db, it, PredicateKind.CLOSED, index) for it, _ in window]


def family_keys(db: TransactionDatabase, kind: PredicateKind, min_support=1,
                max_size: int | None = None, include_empty: bool = False,
                min_size: int = 0) -> list[OrderKey]:
    """The ranking keys of a kind's whole family, members of min_size to
    max_size items with support >= min_support, in mining order: closed
    mined at min_support (at least 1) and keyed over the index of that
    family; every other kind walked levelwise, unselected, keyed by the scores
    the walk built. The empty itemset takes part for non-closed kinds when
    include_empty is set, min_size is 0 and it passes the filters. walk_orders
    reads every member; top_k keys only those that can place, and this stays
    its unbounded reference."""
    if kind is PredicateKind.CLOSED:
        return _closed_keys(db, min_support, min_size, max_size)
    walk = levelwise(db, kind, min_support, max_size, include_empty)
    return [OrderKey(kind, sc, s, items) for items, s, sc in walk if len(items) >= min_size]


@dataclass(frozen=True)
class RankedPattern:
    position: int
    items: tuple[int, ...]
    support: int
    key: OrderKey


def top_k(db: TransactionDatabase, kind: PredicateKind, k: int, min_support=1,
          min_size: int = 0, max_size: int | None = None,
          include_empty: bool = True) -> list[RankedPattern]:
    """The k most robust members of the predicate family, ranked as
    sort_keys(family_keys(...))[:k] ranks them, keying only members that can place.
    Closed keys those whose leads reach the k-th lead (_closed_keys). Free, ndi and
    ts walk under a select that cuts once per level (TFP's rising threshold on the
    key order): it drops each member whose key is strictly LESS than the k-th key
    held, holds the rest's keys of at least min_size items, cuts them to the k best
    by sort_keys once k are held, and drops again by the new k-th. An EQUAL key
    stays, as the support and itemset tie-breaks are not monotone.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_size_window(min_size, max_size)
    if kind is PredicateKind.CLOSED:
        keys = _closed_keys(db, min_support, min_size, max_size, k)
    else:
        keys = []  # the best keys held: the k best, sorted, once k are held

        def placing(level):
            if len(keys) < k:  # an uncut list has no k-th key
                return level
            return [key for key in level if compare_keys(key, keys[-1]) != LESS]

        def select(level):
            level = placing([OrderKey(kind, sc, s, items) for items, s, sc in level])
            keys.extend(key for key in level if len(key.items) >= min_size)
            if len(keys) >= k:
                keys[:] = sort_keys(keys)[:k]
            return [(key.items, key.support, key.payload) for key in placing(level)]

        for _ in levelwise(db, kind, min_support, max_size, include_empty, select):
            pass  # the members that can place are in keys
    return [RankedPattern(pos, key.items, key.support, key)
            for pos, key in enumerate(sort_keys(keys)[:k], start=1)]
