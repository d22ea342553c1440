"""Exact robustness of itemset properties under random transaction deletion.

The subsample keeps each transaction independently with probability alpha.
Robustness is the probability that the property still holds; every formula
here is closed-form and exact up to float rounding.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import reduce

from .dataset import TransactionDatabase, canon_items, support
from .ordering import closed_coefficients, evaluate_poly
from .predicates import PredicateKind, survival_classes

_SLACK = 1e-12


def check_probability(x: float, name: str = "alpha") -> float:
    """x as a float; ValueError when it lies outside [0, 1]."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {x}")
    return x


def _checked(r: float) -> float:
    if not -_SLACK <= r <= 1.0 + _SLACK:
        raise ArithmeticError(f"robustness {r} outside [0, 1]")
    return min(1.0, max(0.0, r))


def survival_probability(cells: Sequence[int], alpha: float) -> float:
    """Probability that every listed cell keeps at least one transaction.

    Each factor is 1 - (1-alpha)**count; an empty cell contributes 0
    ((1-alpha)**0 == 1 even at alpha = 1), an empty list gives 1.
    """
    beta = 1.0 - check_probability(alpha)
    prod = 1.0
    for c in sorted(cells, reverse=True):
        if c < 0:
            raise ValueError(f"negative cell count {c}")
        prod *= 1.0 - beta ** c
    return _checked(prod)


def survival(classes, alpha: float) -> float:
    """Probability that some class keeps every cell non-empty.

    The classes hold disjoint cells, so they fail independently: the left fold
    r = 1 - (1 - r)(1 - o) over the classes' survival probabilities o. One
    class gives its o unchanged.
    """
    return _checked(reduce(lambda r, o: 1.0 - (1.0 - r) * (1.0 - o),
                           (survival_probability(c, alpha) for c in classes)))


def robustness_free(db: TransactionDatabase, items, alpha: float) -> float:
    """Probability the itemset stays free: all one-absent-item cells survive."""
    return robustness(db, items, PredicateKind.FREE, alpha)


def robustness_totally_shattered(db: TransactionDatabase, items, alpha: float) -> float:
    """Probability every value vector keeps at least one transaction."""
    return robustness(db, items, PredicateKind.TOTALLY_SHATTERED, alpha)


def robustness_non_derivable(db: TransactionDatabase, items, alpha: float) -> float:
    """Probability the itemset stays non-derivable: 1 - (1 - o(odd))(1 - o(even)),
    with o(C) the survival probability of a parity class. The empty itemset
    has an empty odd class and scores 1.
    """
    return robustness(db, items, PredicateKind.NON_DERIVABLE, alpha)


def robustness_closed_exact(db: TransactionDatabase, items, alpha: float,
                            closed_family=None) -> float:
    """Probability the itemset stays closed, by inclusion-exclusion over its
    closed supersets.

    closed_family, as pairs or as a threshold-1 ClosedFamilyIndex, must
    contain every nonempty closed superset of the itemset with its support,
    as the threshold-1 family does; the full and empty itemsets are supplied
    automatically when they belong in it. When it is omitted, the closed
    sets of the itemset's conditional database (the transactions holding it)
    are mined: they are exactly its nonempty closed supersets, with the same
    supports.
    """
    items = canon_items(items)
    alpha = check_probability(alpha)
    if closed_family is None:
        from .mining import mine_closed  # imported here: mining imports this module
        closed_family = mine_closed(db.holding(items), 1)
    poly = closed_coefficients(items, closed_family, support(db, items), db.n_items, min_support=1)
    return _checked(evaluate_poly(poly.coeffs, 1.0 - alpha))


def robustness(db: TransactionDatabase, items, kind: PredicateKind, alpha: float,
               closed_family=None) -> float:
    """Analytic robustness: closed from its closed supersets (closed_family,
    or the itemset's own conditional family when omitted), every other kind
    from its survival classes."""
    if kind is PredicateKind.CLOSED:
        return robustness_closed_exact(db, items, alpha, closed_family)
    return survival(survival_classes(db, items, kind), alpha)
