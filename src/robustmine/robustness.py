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
    alpha = check_probability(alpha)
    beta = 1.0 - alpha
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
                            closed_family) -> float:
    """Probability the itemset stays closed, from the complete closed family.

    closed_family must contain every nonempty closed itemset with its support
    (threshold-1 mining); the full and empty itemsets are supplied
    automatically when they belong in it.
    """
    items = canon_items(items)
    alpha = check_probability(alpha)
    poly = closed_coefficients(items, closed_family, support(db, items), n_items=db.n_items)
    return _checked(evaluate_poly(poly.coeffs, 1.0 - alpha))


def robustness(db: TransactionDatabase, items, kind: PredicateKind, alpha: float,
               closed_family=None) -> float:
    """Analytic robustness: closed from its family, every other kind from its
    survival classes."""
    if kind is PredicateKind.CLOSED:
        if closed_family is None:
            raise ValueError("closed robustness requires the complete closed family")
        return robustness_closed_exact(db, items, alpha, closed_family)
    return survival(survival_classes(db, items, kind), alpha)
