"""Parameter-free ordering of itemsets by robustness near alpha = 1.

Robustness, as a function of the deletion rate, is a polynomial in
beta = 1 - alpha with integer coefficients. Two itemsets are compared by the
first coefficient where those polynomials differ; for the free and
totally-shattered properties the comparison collapses to an ordering of
sorted cell-count sequences (margin vectors) that never expands a polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cmp_to_key
from collections.abc import Sequence
from itertools import chain, compress, count, repeat
from operator import ne

from .dataset import (CELL_WIDTH_LIMIT, TransactionDatabase, canon_items,
                      cell_table, one_zero_cells, support)
from .predicates import PredicateKind

LESS, EQUAL, GREATER = -1, 0, 1


def margin_vector(db: TransactionDatabase, items, kind: PredicateKind,
                  limit: int = CELL_WIDTH_LIMIT) -> tuple[int, ...]:
    """Sorted cell counts whose joint survival keeps the predicate alive.

    Free: the |X| cells with exactly one absent item. Totally shattered:
    all 2**|X| cells. Other kinds have no margin vector.
    """
    if kind is PredicateKind.FREE:
        cells = one_zero_cells(db, items)
    elif kind is PredicateKind.TOTALLY_SHATTERED:
        cells = tuple(cell_table(db, items, limit).counts.values())
    else:
        raise ValueError(f"margin vectors are defined for free/ts, not {kind.value}")
    return tuple(sorted(cells))


def compare_sequences(s: Sequence[int], t: Sequence[int]) -> int:
    """Order margin vectors: LESS means the first argument is less robust.

    At the first differing position the smaller entry loses; if one sequence
    is a proper prefix of the other, the longer one loses (extra cells are
    extra ways to fail).
    """
    for a, b in zip(s, t):
        if a != b:
            return LESS if a < b else GREATER
    if len(s) == len(t):
        return EQUAL
    return LESS if len(s) > len(t) else GREATER


def seq_diff(s: Sequence[int], t: Sequence[int]) -> float:
    """Gap at the first strictly differing position of s <= t; infinity when
    t is a prefix of s (including s == t). Raises if s > t."""
    for n, (a, b) in enumerate(zip(s, t)):
        if a != b:
            if a > b:
                raise ValueError("seq_diff requires the first sequence to be <=")
            return t[n] - s[n]
    if len(t) > len(s):
        raise ValueError("seq_diff requires the first sequence to be <=")
    return math.inf


def alpha_bound(x_items, y_items, d, kind: PredicateKind) -> float:
    """Survival rate above which the margin-vector order is numerically safe.

    For margin vectors with gap d at the first difference, r(X) <= r(Y) is
    guaranteed for alpha >= 1 - (N+1)**(-1/d) where N is |Y| (free) or
    2**|Y| (totally shattered). Gap infinity (prefix case) holds everywhere.
    """
    if d == math.inf:
        return 0.0
    if d < 1:
        raise ValueError(f"gap must be >= 1, got {d}")
    y = canon_items(y_items)
    if kind is PredicateKind.FREE:
        n = len(y)
    elif kind is PredicateKind.TOTALLY_SHATTERED:
        n = 2 ** len(y)
    else:
        raise ValueError(f"alpha_bound is defined for free/ts, not {kind.value}")
    return 1.0 - (n + 1) ** (-1.0 / d)


def expand(cells: Sequence[int], max_degree: int) -> list[int]:
    """Integer coefficients of prod(1 - beta**s for s in cells), degrees 0..max_degree.

    Shift-and-subtract per factor; exact arbitrary-precision arithmetic.
    """
    coeffs = [0] * (max_degree + 1)
    coeffs[0] = 1
    for s in cells:
        if s < 0:
            raise ValueError(f"negative cell count {s}")
        for i in range(max_degree, s - 1, -1):
            coeffs[i] -= coeffs[i - s]
    return coeffs


def evaluate_poly(coeffs, beta: float) -> float:
    """Evaluate a dense list or sparse {degree: coeff} polynomial at beta."""
    if isinstance(coeffs, dict):
        return float(sum(c * beta ** k for k, c in sorted(coeffs.items())))
    acc = 0.0
    for c in reversed(list(coeffs)):
        acc = acc * beta + c
    return acc


def ndi_polynomial(db: TransactionDatabase, items, limit: int = CELL_WIDTH_LIMIT) -> list[int]:
    """Coefficients (in beta = 1 - alpha) of the non-derivability robustness.

    r = o(odd) + o(even) - o(all), each o expanded exactly over the cell
    counts of the corresponding parity class. Dense list of length |D| + 1.
    """
    items = canon_items(items)
    dlen = len(db)
    table = cell_table(db, items, limit)
    odd, even = table.parity_split()
    p_odd = expand(odd, dlen)
    p_even = expand(even, dlen)
    p_all = expand(list(table.counts.values()), dlen)
    return [a + b - c for a, b, c in zip(p_odd, p_even, p_all)]


@dataclass(frozen=True)
class ClosedCoefficients:
    """Sparse robustness polynomial for the closed property.

    coeffs maps degree k -> integer coefficient; contributions maps each
    participating closed superset to its signed multiplier. A coefficient is
    exact when every superset at its support level was in the mined family:
    supp - k >= the family's mining threshold, or the threshold was 1
    (support-0 closed itemsets other than the always-added full itemset do
    not exist, so a threshold-1 family is complete).
    """

    coeffs: dict
    supp: int
    min_support: int = 1
    contributions: dict = field(default_factory=dict, compare=False, repr=False)

    def is_exact(self, k: int) -> bool:
        return self.min_support <= 1 or self.supp - k >= self.min_support


def closed_coefficients(items, family, supp_x: int, n_items: int | None = None,
                        min_support: int = 1) -> ClosedCoefficients:
    """Inclusion-exclusion coefficients of closedness robustness from a closed family.

    family: (itemset, support) pairs, the closed itemsets mined at
    min_support. The full itemset is added with support 0 when missing; the
    family is filtered to supersets of X and walked in subset order, each
    superset Y receiving multiplier e(Y) = -sum of e over processed proper
    subsets (e(X) = 1 when X itself is in the family). Coefficient k collects
    the multipliers of supersets with support supp_x - k.
    """
    x = canon_items(items)
    fam = {}
    for f_items, f_supp in family:
        fi = canon_items(f_items)
        f_supp = int(f_supp)
        if fi in fam and fam[fi] != f_supp:
            raise ValueError(f"family lists {fi} twice with different supports")
        fam[fi] = f_supp
    if n_items is None:
        widest = max((it[-1] for it in list(fam) + [x] if it), default=-1)
        n_items = widest + 1
    full = tuple(range(n_items))
    if x and x[-1] >= n_items:
        raise ValueError(f"itemset {x} outside the {n_items}-item universe")
    fam.setdefault(full, 0)
    # mined families list nonempty itemsets only; the empty itemset is closed
    # exactly when nothing else reaches its support (no full column)
    if not x and () not in fam and all(s < supp_x for s in fam.values()):
        fam[()] = supp_x

    xmask = 0
    for i in x:
        xmask |= 1 << i
    supers = []
    for fi, fs in fam.items():
        mask = 0
        for i in fi:
            mask |= 1 << i
        if mask & xmask == xmask:
            if fs > supp_x:
                raise ValueError(f"superset {fi} has support {fs} > supp(X) = {supp_x}")
            supers.append((len(fi), fi, mask, fs))
    supers.sort(key=lambda rec: (rec[0], rec[1]))

    e_vals: dict[tuple[int, ...], int] = {}
    masks: list[tuple[int, int]] = []  # (mask, e) in processed order
    coeffs: dict[int, int] = {}
    for _, fi, mask, fs in supers:
        if fi == x:
            e = 1
        else:
            e = -sum(ez for mz, ez in masks if mz != mask and mz & mask == mz)
        e_vals[fi] = e
        masks.append((mask, e))
        k = supp_x - fs
        coeffs[k] = coeffs.get(k, 0) + e
    if len(supers) >= 2 and sum(e_vals.values()) != 0:
        raise ArithmeticError("closed-family multipliers must cancel")
    coeffs = {k: c for k, c in sorted(coeffs.items()) if c != 0}
    return ClosedCoefficients(coeffs, supp_x, min_support, e_vals)


def compare_polynomials(p, q) -> int:
    """First-differing-coefficient order: LESS means p is less robust near alpha = 1."""
    d = _first_difference(p, q)
    return EQUAL if d is None else LESS if d[1] < d[2] else GREATER


def _first_difference(p, q) -> tuple[int, int, int] | None:
    """(degree, p's coefficient, q's coefficient) at the lowest degree where
    they differ, or None. Two dense lists are walked in step, a missing tail
    reading as zeros, so dense ndi keys are never re-sparsified."""
    if isinstance(p, list) and isinstance(q, list):
        n = max(len(p), len(q))
        pairs = map(ne, chain(p, repeat(0, n - len(p))), chain(q, repeat(0, n - len(q))))
        k = next(compress(count(), pairs), None)
        return None if k is None else (k, p[k] if k < len(p) else 0, q[k] if k < len(q) else 0)
    dp, dq = _as_sparse(p), _as_sparse(q)
    k = next((k for k in sorted(set(dp) | set(dq)) if dp.get(k, 0) != dq.get(k, 0)), None)
    return None if k is None else (k, dp.get(k, 0), dq.get(k, 0))


def _as_sparse(p) -> dict:
    if isinstance(p, ClosedCoefficients):
        return p.coeffs
    if isinstance(p, dict):
        return {k: c for k, c in p.items() if c != 0}
    return {k: c for k, c in enumerate(p) if c != 0}


@dataclass(frozen=True)
class OrderKey:
    """Comparison key for one itemset: margin vector or polynomial plus tie-breaks."""

    kind: PredicateKind
    payload: object
    support: int
    items: tuple[int, ...]

    def describe(self) -> str:
        """Stable, human-readable key descriptor."""
        if self.kind in (PredicateKind.FREE, PredicateKind.TOTALLY_SHATTERED):
            return ",".join(str(c) for c in self.payload)
        sparse = _as_sparse(self.payload)
        if not sparse:
            return "0"
        return ",".join(f"{k}:{c}" for k, c in sorted(sparse.items()))


def compare_keys(a: OrderKey, b: OrderKey) -> int:
    """LESS means a is less robust than b near alpha = 1 (ties not broken)."""
    if a.kind is not b.kind:
        raise ValueError("keys of different kinds are not comparable")
    if a.kind in (PredicateKind.FREE, PredicateKind.TOTALLY_SHATTERED):
        return compare_sequences(a.payload, b.payload)
    return compare_polynomials(a.payload, b.payload)


def _rank_cmp(a: OrderKey, b: OrderKey) -> int:
    c = compare_keys(a, b)
    if c != EQUAL:
        return -c  # more robust first
    if a.support != b.support:
        return -1 if a.support > b.support else 1
    if a.items != b.items:
        return -1 if a.items < b.items else 1
    return 0


def order_key(db: TransactionDatabase, items, kind: PredicateKind,
              closed_family=None, closed_min_support: int = 1,
              limit: int = CELL_WIDTH_LIMIT) -> OrderKey:
    """Build the ranking key for one itemset."""
    items = canon_items(items)
    if kind in (PredicateKind.FREE, PredicateKind.TOTALLY_SHATTERED):
        payload = margin_vector(db, items, kind, limit)
    elif kind is PredicateKind.NON_DERIVABLE:
        payload = ndi_polynomial(db, items, limit)
    elif kind is PredicateKind.CLOSED:
        if closed_family is None:
            raise ValueError("ranking closed itemsets requires a closed family")
        payload = closed_coefficients(items, closed_family, support(db, items),
                                      n_items=db.n_items, min_support=closed_min_support)
    else:
        raise ValueError(f"unknown predicate kind {kind!r}")
    return OrderKey(kind, payload, support(db, items), items)


def rank(db: TransactionDatabase, itemsets, kind: PredicateKind,
         closed_family=None, closed_min_support: int = 1,
         limit: int = CELL_WIDTH_LIMIT) -> list[tuple[tuple[int, ...], OrderKey]]:
    """Sort itemsets most-robust-first; ties fall back to larger support,
    then lexicographic itemset. Deterministic for identical inputs."""
    keys = [order_key(db, it, kind, closed_family, closed_min_support, limit)
            for it in itemsets]
    keys.sort(key=cmp_to_key(_rank_cmp))
    return [(k.items, k) for k in keys]


def comparison_exact(a: OrderKey, b: OrderKey) -> bool:
    """Whether the deciding coefficient of a closed-key comparison was computed
    from fully mined support levels. Non-closed keys always compare exactly."""
    if a.kind is not PredicateKind.CLOSED or b.kind is not PredicateKind.CLOSED:
        return True
    d = _first_difference(a.payload, b.payload)
    return d is None or (a.payload.is_exact(d[0]) and b.payload.is_exact(d[0]))
