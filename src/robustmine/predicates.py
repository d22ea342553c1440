"""Structural itemset predicates: closed, free, non-derivable, totally shattered.

These are the alpha = 1 ground truths for the robustness scores and the inner
test of the exhaustive oracle. All four are evaluated exactly from integer
counts.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from typing import NamedTuple

from .dataset import TransactionDatabase, canon_items, cell_table, one_zero_cells, support


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


def is_totally_shattered(db: TransactionDatabase, items) -> bool:
    """Every one of the 2**|X| value vectors occurs in some transaction."""
    table = cell_table(db, items)
    return all(c > 0 for c in table.counts.values())


def is_non_derivable(db: TransactionDatabase, items) -> bool:
    """Support is not pinned by inclusion-exclusion bounds on proper subsets.

    An itemset is derivable exactly when both parity classes of its value
    vectors contain an empty cell; the empty itemset has no applicable cells
    and counts as non-derivable.
    """
    items = canon_items(items)
    if not items:
        return True
    odd, even = cell_table(db, items).parity_split()
    return not (min(odd) == 0 and min(even) == 0)


def derivability_bounds(db: TransactionDatabase, items) -> tuple[int, int]:
    """Tightest (lower, upper) inclusion-exclusion support bounds from proper subsets.

    lower = supp(X) - min cell over vectors with an even number of zeros,
    upper = supp(X) + min cell over vectors with an odd number of zeros.
    The itemset is derivable iff lower == upper.
    """
    items = canon_items(items)
    if not items:
        raise ValueError("bounds are defined for nonempty itemsets only")
    odd, even = cell_table(db, items).parity_split()
    if len(items) % 2:  # zeros = |X| - ones, so odd |X| swaps the parity classes
        odd, even = even, odd
    s = support(db, items)
    return s - min(even), s + min(odd)


def evaluate_predicate(db: TransactionDatabase, items, kind: PredicateKind) -> bool:
    """Exact truth of the predicate on the full database: the reference the
    oracles use, independent of the survival-class table below."""
    if kind is PredicateKind.CLOSED:
        return is_closed(db, items)
    if kind is PredicateKind.FREE:
        return is_free(db, items)
    if kind is PredicateKind.NON_DERIVABLE:
        return is_non_derivable(db, items)
    if kind is PredicateKind.TOTALLY_SHATTERED:
        return is_totally_shattered(db, items)
    raise ValueError(f"unknown predicate kind {kind!r}")


class SurvivalClasses(NamedTuple):
    """A non-closed predicate as classes of cells: it holds exactly when some
    class keeps every one of its cells non-empty.

    cells(db, items) lists the classes' cell counts for a canonical itemset;
    size(|X|) is the number of cells of a one-class kind (alpha_bound's N)
    and is None for kinds with more than one class.
    """

    cells: Callable[[TransactionDatabase, tuple[int, ...]], tuple[Sequence[int], ...]]
    size: Callable[[int], int] | None


SURVIVAL_CLASSES = {
    # free: the |X| cells with exactly one absent item
    PredicateKind.FREE: SurvivalClasses(lambda db, x: (one_zero_cells(db, x),), lambda m: m),
    # totally shattered: all 2**|X| cells
    PredicateKind.TOTALLY_SHATTERED: SurvivalClasses(
        lambda db, x: (tuple(cell_table(db, x).counts.values()),), lambda m: 2 ** m),
    # non-derivable: the odd- and even-parity cells (Calders & Goethals, PKDD 2002)
    PredicateKind.NON_DERIVABLE: SurvivalClasses(
        lambda db, x: cell_table(db, x).parity_split(), None),
}


def survival_classes(db: TransactionDatabase, items, kind: PredicateKind) -> tuple[Sequence[int], ...]:
    """Cell counts of each survival class of the itemset, for a non-closed kind."""
    spec = SURVIVAL_CLASSES.get(kind)
    if spec is None:
        if kind is PredicateKind.CLOSED:
            raise ValueError("closedness has no survival classes")
        raise ValueError(f"unknown predicate kind {kind!r}")
    return spec.cells(db, canon_items(items))


def classes_hold(classes) -> bool:
    """Truth at alpha = 1: some class has no empty cell (an empty class counts)."""
    return any(all(c) for c in classes)
