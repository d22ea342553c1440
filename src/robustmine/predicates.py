"""Structural itemset predicates: closed, free, non-derivable, totally shattered.

These are the alpha = 1 ground truths for the robustness scores. Closedness
is tested by its extensions; every other kind by its survival classes, the
one description of it that the robustness, margin vectors and ranking keys
read too. All four are evaluated exactly from integer counts.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from functools import cache
from operator import itemgetter
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
    return classes_hold(survival_classes(db, items, PredicateKind.FREE))


def is_totally_shattered(db: TransactionDatabase, items) -> bool:
    """Every one of the 2**|X| value vectors occurs in some transaction."""
    return classes_hold(survival_classes(db, items, PredicateKind.TOTALLY_SHATTERED))


def is_non_derivable(db: TransactionDatabase, items) -> bool:
    """Support is not pinned by inclusion-exclusion bounds on proper subsets.

    An itemset is derivable exactly when both parity classes of its value
    vectors contain an empty cell; the empty itemset has no applicable cells
    and counts as non-derivable.
    """
    return classes_hold(survival_classes(db, items, PredicateKind.NON_DERIVABLE))


def derivability_bounds(db: TransactionDatabase, items) -> tuple[int, int]:
    """Tightest (lower, upper) inclusion-exclusion support bounds from proper subsets.

    lower = supp(X) - min cell over vectors with an even number of zeros,
    upper = supp(X) + min cell over vectors with an odd number of zeros.
    The itemset is derivable iff lower == upper.
    """
    items = canon_items(items)
    if not items:
        raise ValueError("bounds are defined for nonempty itemsets only")
    odd, even = survival_classes(db, items, PredicateKind.NON_DERIVABLE)
    if len(items) % 2:  # zeros = |X| - ones, so odd |X| swaps the parity classes
        odd, even = even, odd
    s = support(db, items)
    return s - min(even), s + min(odd)


def evaluate_predicate(db: TransactionDatabase, items, kind: PredicateKind,
                       classes=None) -> bool:
    """Exact truth of the predicate on the full database: closedness by its
    extensions, every other kind as classes_hold of its survival classes
    below. classes, when given, are the itemset's survival classes as already
    counted (the levelwise walk passes its own); they are tested in place of a
    recount. The oracles check it against definitions of their own."""
    if kind is PredicateKind.CLOSED:
        if classes is not None:
            raise ValueError("closedness has no survival classes")
        return is_closed(db, items)
    return classes_hold(survival_classes(db, items, kind) if classes is None else classes)


class SurvivalClasses(NamedTuple):
    """A non-closed predicate as classes of cells: it holds exactly when some
    class keeps every one of its cells non-empty.

    cells(db, items) lists the classes' cell counts of an itemset (the cell
    readers canonicalise it);
    size(|X|) is the number of cells of a one-class kind (alpha_bound's N)
    and is None for kinds with more than one class.
    """

    cells: Callable[[TransactionDatabase, tuple[int, ...]], tuple[Sequence[int], ...]]
    size: Callable[[int], int] | None


@cache
def _parity_getters(size: int) -> tuple[Callable, Callable]:
    """The getters of a size-cell table's cells whose masks have an odd / even
    number of ones, each returning a tuple in mask order."""
    def getter(idx):  # itemgetter returns a tuple for two or more indices only
        return itemgetter(*idx) if len(idx) > 1 else lambda cells: tuple(cells[i] for i in idx)
    return tuple(getter([i for i in range(size) if i.bit_count() & 1 == p]) for p in (1, 0))


def _parity_split(cells: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    # tables of up to 2**12 cells keep their getters, as an NDI has at most
    # log2|D| + 1 items (Calders & Goethals); a wider table's are built per call
    getters = _parity_getters if len(cells) <= 1 << 12 else _parity_getters.__wrapped__
    return tuple(get(cells) for get in getters(len(cells)))


SURVIVAL_CLASSES = {
    # free: the |X| cells with exactly one absent item
    PredicateKind.FREE: SurvivalClasses(lambda db, x: (one_zero_cells(db, x),), lambda m: m),
    # totally shattered: all 2**|X| cells
    PredicateKind.TOTALLY_SHATTERED: SurvivalClasses(
        lambda db, x: (cell_table(db, x),), lambda m: 2 ** m),
    # non-derivable: the odd- and even-parity cells (Calders & Goethals, PKDD 2002)
    PredicateKind.NON_DERIVABLE: SurvivalClasses(
        lambda db, x: _parity_split(cell_table(db, x)), None),
}


def survival_classes(db: TransactionDatabase, items, kind: PredicateKind) -> tuple[Sequence[int], ...]:
    """Cell counts of each survival class of the itemset, for a non-closed kind."""
    spec = SURVIVAL_CLASSES.get(kind)
    if spec is None:
        if kind is PredicateKind.CLOSED:
            raise ValueError("closedness has no survival classes")
        raise ValueError(f"unknown predicate kind {kind!r}")
    return spec.cells(db, items)


def classes_hold(classes) -> bool:
    """Truth at alpha = 1: some class has no empty cell (an empty class counts)."""
    return any(map(all, classes))
