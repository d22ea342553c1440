"""Exact robustness of itemset properties under random transaction deletion.

The subsample keeps each transaction independently with probability alpha.
Robustness is the probability that the property still holds; it is the value
at alpha of the itemset's score, whose formulas are closed-form and exact up
to float rounding.
"""

from __future__ import annotations

from .dataset import TransactionDatabase
# survival_probability is read from here too: by the package and by perfbench's tracer
from .ordering import score, survival_probability
from .predicates import PredicateKind


def robustness(db: TransactionDatabase, items, kind: PredicateKind, alpha: float,
               closed_family=None) -> float:
    """Analytic robustness, score(db, items, kind, closed_family).value(alpha):
    closed from its closed supersets (closed_family, or the itemset's own
    conditional family when omitted), every other kind from its survival
    classes. Free and ts score the survival probability of their one class;
    ndi scores 1 - (1 - o(odd))(1 - o(even)) over its parity classes (the
    empty itemset has an empty odd class and scores 1); closed evaluates its
    inclusion-exclusion coefficients."""
    return score(db, items, kind, closed_family).value(alpha)
