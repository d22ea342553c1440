"""Exact robustness of itemset properties under random transaction deletion.

The subsample keeps each transaction independently with probability alpha.
Robustness is the probability that the property still holds; every formula
here is closed-form and exact up to float rounding.
"""

from __future__ import annotations

from collections.abc import Sequence

from .dataset import (CELL_WIDTH_LIMIT, TransactionDatabase, canon_items,
                      cell_table, one_zero_cells, support)
from .ordering import closed_coefficients, evaluate_poly
from .predicates import PredicateKind

_SLACK = 1e-12


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha


def _checked(r: float) -> float:
    if not -_SLACK <= r <= 1.0 + _SLACK:
        raise ArithmeticError(f"robustness {r} outside [0, 1]")
    return min(1.0, max(0.0, r))


def survival_probability(cells: Sequence[int], alpha: float) -> float:
    """Probability that every listed cell keeps at least one transaction.

    Each factor is 1 - (1-alpha)**count; an empty cell contributes 0
    ((1-alpha)**0 == 1 even at alpha = 1), an empty list gives 1.
    """
    alpha = _check_alpha(alpha)
    beta = 1.0 - alpha
    prod = 1.0
    for c in sorted(cells, reverse=True):
        if c < 0:
            raise ValueError(f"negative cell count {c}")
        prod *= 1.0 - beta ** c
    return _checked(prod)


def robustness_free(db: TransactionDatabase, items, alpha: float) -> float:
    """Probability the itemset stays free: all one-absent-item cells survive."""
    return survival_probability(one_zero_cells(db, items), alpha)


def robustness_totally_shattered(db: TransactionDatabase, items, alpha: float,
                                 limit: int = CELL_WIDTH_LIMIT) -> float:
    """Probability every value vector keeps at least one transaction."""
    return survival_probability(cell_table(db, items, limit).counts.values(), alpha)


def robustness_non_derivable(db: TransactionDatabase, items, alpha: float,
                             limit: int = CELL_WIDTH_LIMIT) -> float:
    """Probability the itemset stays non-derivable.

    With o(C) the survival probability of a parity class, the chance that at
    least one class keeps all its cells is 1 - (1 - o(odd))(1 - o(even)).
    The empty itemset has no applicable cells and scores 1.
    """
    items = canon_items(items)
    alpha = _check_alpha(alpha)
    if not items:
        return 1.0
    odd, even = cell_table(db, items, limit).parity_split()
    o_odd = survival_probability(odd, alpha)
    o_even = survival_probability(even, alpha)
    return _checked(1.0 - (1.0 - o_odd) * (1.0 - o_even))


def robustness_closed_exact(db: TransactionDatabase, items, alpha: float,
                            closed_family) -> float:
    """Probability the itemset stays closed, from the complete closed family.

    closed_family must contain every nonempty closed itemset with its support
    (threshold-1 mining); the full and empty itemsets are supplied
    automatically when they belong in it.
    """
    items = canon_items(items)
    alpha = _check_alpha(alpha)
    poly = closed_coefficients(items, closed_family, support(db, items), n_items=db.n_items)
    return _checked(evaluate_poly(poly.coeffs, 1.0 - alpha))


def robustness(db: TransactionDatabase, items, kind: PredicateKind, alpha: float,
               closed_family=None, limit: int = CELL_WIDTH_LIMIT) -> float:
    """Dispatch to the analytic robustness for the given predicate kind."""
    if kind is PredicateKind.FREE:
        return robustness_free(db, items, alpha)
    if kind is PredicateKind.TOTALLY_SHATTERED:
        return robustness_totally_shattered(db, items, alpha, limit)
    if kind is PredicateKind.NON_DERIVABLE:
        return robustness_non_derivable(db, items, alpha, limit)
    if kind is PredicateKind.CLOSED:
        if closed_family is None:
            raise ValueError("closed robustness requires the complete closed family")
        return robustness_closed_exact(db, items, alpha, closed_family)
    raise ValueError(f"unknown predicate kind {kind!r}")
