"""Structural itemset predicates: closed, free, non-derivable, totally shattered.

These are the alpha = 1 ground truths for the robustness scores and the inner
test of the exhaustive oracle. All four are evaluated exactly from integer
counts.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

from .dataset import (CELL_WIDTH_LIMIT, TransactionDatabase, canon_items,
                      cell_table, one_zero_cells, support)


class PredicateKind(enum.Enum):
    CLOSED = "closed"
    FREE = "free"
    NON_DERIVABLE = "ndi"
    TOTALLY_SHATTERED = "ts"

    @classmethod
    def parse(cls, name: str) -> "PredicateKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            choices = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown predicate {name!r} (choices: {choices})") from None


def is_closed(db: TransactionDatabase, items) -> bool:
    """No item outside X holds every transaction that holds X (no extension keeps its support)."""
    items = canon_items(items)
    t = db.tidset(items)
    if not t:  # every extension has support 0 too
        return len(items) == db.n_items
    return not any(t & col == t for y, col in db.columns() if y not in items)


def is_free(db: TransactionDatabase, items) -> bool:
    """No single-item removal keeps the support unchanged. The empty itemset
    is free by convention (it has no proper subsets)."""
    return all(c > 0 for c in one_zero_cells(db, items))


def is_totally_shattered(db: TransactionDatabase, items, limit: int = CELL_WIDTH_LIMIT) -> bool:
    """Every one of the 2**|X| value vectors occurs in some transaction."""
    table = cell_table(db, items, limit)
    return all(c > 0 for c in table.counts.values())


def is_non_derivable(db: TransactionDatabase, items, limit: int = CELL_WIDTH_LIMIT) -> bool:
    """Support is not pinned by inclusion-exclusion bounds on proper subsets.

    An itemset is derivable exactly when both parity classes of its value
    vectors contain an empty cell; the empty itemset has no applicable cells
    and counts as non-derivable.
    """
    items = canon_items(items)
    if not items:
        return True
    odd, even = cell_table(db, items, limit).parity_split()
    return not (min(odd) == 0 and min(even) == 0)


def derivability_bounds(db: TransactionDatabase, items, limit: int = CELL_WIDTH_LIMIT) -> tuple[int, int]:
    """Tightest (lower, upper) inclusion-exclusion support bounds from proper subsets.

    lower = supp(X) - min cell over vectors with an even number of zeros,
    upper = supp(X) + min cell over vectors with an odd number of zeros.
    The itemset is derivable iff lower == upper.
    """
    items = canon_items(items)
    if not items:
        raise ValueError("bounds are defined for nonempty itemsets only")
    odd, even = cell_table(db, items, limit).parity_split()
    if len(items) % 2:  # zeros = |X| - ones, so odd |X| swaps the parity classes
        odd, even = even, odd
    s = support(db, items)
    return s - min(even), s + min(odd)


def evaluate_predicate(db: TransactionDatabase, items, kind: PredicateKind,
                       limit: int = CELL_WIDTH_LIMIT) -> bool:
    """Exact truth of the predicate on the full database."""
    if kind is PredicateKind.CLOSED:
        return is_closed(db, items)
    if kind is PredicateKind.FREE:
        return is_free(db, items)
    if kind is PredicateKind.NON_DERIVABLE:
        return is_non_derivable(db, items, limit)
    if kind is PredicateKind.TOTALLY_SHATTERED:
        return is_totally_shattered(db, items, limit)
    raise ValueError(f"unknown predicate kind {kind!r}")
