"""Parameter-free ordering of itemsets by robustness near alpha = 1.

Robustness, as a function of the deletion rate, is a polynomial in
beta = 1 - alpha with integer coefficients. Two itemsets are compared by the
first coefficient where those polynomials differ; for the free and
totally-shattered properties the comparison collapses to an ordering of
sorted cell-count sequences (margin vectors) that never expands a polynomial,
and non-derivability keys expand only as far as their first difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Sequence
from itertools import chain, compress, count
from operator import ne

from .dataset import TransactionDatabase, canon_items, support
from .predicates import SURVIVAL_CLASSES, PredicateKind, survival_classes

LESS, EQUAL, GREATER = -1, 0, 1


def _one_class(kind: PredicateKind, what: str):
    spec = SURVIVAL_CLASSES.get(kind)
    if spec is None or spec.size is None:
        raise ValueError(f"{what} defined for free/ts, not {kind.value}")
    return spec


def margin_vector(db: TransactionDatabase, items, kind: PredicateKind) -> tuple[int, ...]:
    """Sorted cell counts whose joint survival keeps the predicate alive: the
    single survival class of a one-class kind (free: the |X| cells with
    exactly one absent item; totally shattered: all 2**|X| cells). Other kinds
    have no margin vector.
    """
    (cells,) = _one_class(kind, "margin vectors are").cells(db, canon_items(items))
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
    n = _one_class(kind, "alpha_bound is").size(len(canon_items(y_items)))
    return 1.0 - (n + 1) ** (-1.0 / d)


def expand(cells: Sequence[int], max_degree: int) -> list[int]:
    """Integer coefficients of prod(1 - beta**s for s in cells), degrees
    0..max_degree: the dense form of the sparse expansion ndi keys use."""
    terms = _expand_terms(cells, max_degree)
    return [terms.get(k, 0) for k in range(max_degree + 1)]


def _expand_terms(cells: Sequence[int], max_degree: int, start=None) -> dict[int, int]:
    """{degree: coefficient} of start (1 by default) times prod(1 - beta**s for s
    in cells) up to max_degree, exactly. Each factor shifts only the terms so
    far: the work grows with the terms (<= 2**len(cells)), not max_degree."""
    terms = dict(start or {0: 1})
    for s in sorted(cells):
        if s < 0:
            raise ValueError(f"negative cell count {s}")
        if s > max_degree:
            break
        for k, c in list(terms.items()):
            if c and k + s <= max_degree:
                terms[k + s] = terms.get(k + s, 0) - c
    return terms


def evaluate_poly(coeffs, beta: float) -> float:
    """Evaluate a dense list or sparse {degree: coeff} polynomial at beta."""
    if isinstance(coeffs, dict):
        return float(sum(c * beta ** k for k, c in sorted(coeffs.items())))
    acc = 0.0
    for c in reversed(list(coeffs)):
        acc = acc * beta + c
    return acc


def ndi_polynomial(db: TransactionDatabase, items) -> list[int]:
    """Coefficients (in beta = 1 - alpha) of the non-derivability robustness:
    the full expansion of its NdiPolynomial, a dense list of length |D| + 1."""
    return NdiPolynomial(survival_classes(db, items, PredicateKind.NON_DERIVABLE), len(db)).dense()


class NdiPolynomial:
    """The non-derivability robustness r = 1 - (1 - o(A))(1 - o(B)) as an exact,
    lazily expanded integer polynomial in beta = 1 - alpha of degree at most
    `degree` (|D|). A and B are the parity classes, whose disjoint cells fail
    independently, and o(C) = prod(1 - beta**s) over a class's cell counts.

    1 - o(C) starts at degree min(C) with a positive coefficient, so r is 1 at
    degree 0, 0 at degrees 1..lo-1 for lo = min(A) + min(B), and negative at
    lo. At lo = 0 both classes hold an empty cell and r = 0; a class with no
    cells never fails, so r = 1 and lo lies past the degree. Only the degrees
    lo..d are expanded, d being the highest a comparison has needed.
    """

    def __init__(self, classes: tuple[Sequence[int], Sequence[int]], degree: int):
        self.classes, self.degree, self._window = classes, degree, []
        a, b = classes
        self.lo = min(a) + min(b) if len(a) and len(b) else degree + 1

    def window(self, d: int) -> list[int]:
        """Exact coefficients of degrees lo, lo + 1, ..., at least up to d."""
        lo = self.lo
        if lo + len(self._window) <= d:
            a, b = self.classes
            p = {k: -c for k, c in _expand_terms(a, d).items()}
            p[0] += 1  # P = 1 - o(A), and r = 1 - P + P o(B), truncated at d
            r = _expand_terms(b, d, p)
            r[0] += 1
            self._window = [0] * (d - lo + 1)
            for k, c in r.items():
                if k >= lo:
                    self._window[k - lo] = c - p.get(k, 0)
        return self._window

    def dense(self) -> list[int]:
        """Every coefficient, degrees 0..degree."""
        lo, n = self.lo, self.degree
        return ([1] + [0] * (min(lo, n + 1) - 1) if lo else []) + self.window(n)[:n - lo + 1]

    def compare(self, other: "NdiPolynomial") -> int:
        """First-differing-coefficient order, exact. The lower lo is less robust:
        its coefficient there is negative (or r = 0) where the other's is 0 (or
        1). On equal lo the windows are compared up to lo + 1, then twice as far
        above lo on each tie; equal windows up to the degree prove equality."""
        if self.lo != other.lo:
            return LESS if self.lo < other.lo else GREATER
        top, width = max(self.degree, other.degree), 1
        while True:
            d = min(self.lo + width, top)
            x, y = self.window(d), other.window(d)  # each exact as far as it reaches
            k = next(compress(count(), map(ne, x, y)), None)
            if k is not None:
                return LESS if x[k] < y[k] else GREATER
            if d >= top:
                return EQUAL
            width *= 2

    def __eq__(self, other) -> bool:
        return isinstance(other, NdiPolynomial) and self.compare(other) == EQUAL


def _key_payload(classes, dlen: int):
    """Ranking payload from survival classes: one class gives its sorted margin
    vector, the two ndi classes their lazy NdiPolynomial."""
    if len(classes) == 1:
        return tuple(sorted(classes[0]))
    return NdiPolynomial(classes, dlen)


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


class ClosedFamilyIndex:
    """A closed family indexed once for many closed_coefficients queries:
    canonical members in (size, lexicographic) order, the full itemset over
    n_items added with support 0 when missing, their supports and masks, and
    per item the bitset of the member positions (the full one aside) holding
    it. n_items defaults to one past the widest item of the family or cover.
    """

    def __init__(self, family, n_items: int | None = None, cover=()):
        fam = {}
        for f_items, f_supp in family:
            fi = canon_items(f_items)
            f_supp = int(f_supp)
            if fi in fam and fam[fi] != f_supp:
                raise ValueError(f"family lists {fi} twice with different supports")
            fam[fi] = f_supp
        if n_items is None:
            n_items = max((it[-1] for it in chain(fam, [tuple(cover)]) if it), default=-1) + 1
        self.n_items = n_items
        full = tuple(range(n_items))
        fam.setdefault(full, 0)
        self.members = sorted(fam, key=lambda it: (len(it), it))
        self.supports = [fam[it] for it in self.members]
        self.masks, self.holders = [], {}
        for p, it in enumerate(self.members):
            if it == full:
                mask, self.full_bit = (1 << n_items) - 1, 1 << p
            else:
                mask = 0
                for i in it:
                    mask |= 1 << i
                    self.holders[i] = self.holders.get(i, 0) | 1 << p
            self.masks.append(mask)

    def supersets(self, x: tuple[int, ...]) -> list[int]:
        """Positions of the members containing x, in member order: a walk over
        the set bits alone, as x has few closed supersets in a large family."""
        sup = (1 << len(self.members)) - 1
        for i in x:
            sup &= self.holders.get(i, 0)
        sup |= self.full_bit
        out = []
        while sup:
            low = sup & -sup
            out.append(low.bit_length() - 1)
            sup ^= low
        return out


def closed_coefficients(items, family, supp_x: int, n_items: int | None = None,
                        min_support: int = 1) -> ClosedCoefficients:
    """Inclusion-exclusion coefficients of closedness robustness from a closed family.

    family: a ClosedFamilyIndex, or (itemset, support) pairs, the closed
    itemsets mined at min_support, which are indexed first (n_items then
    sets the index width). The full itemset is present with support 0 when
    the family lacks it; the supersets of X are walked in subset order, each
    superset Y receiving multiplier e(Y) = -sum of e over processed proper
    subsets (e(X) = 1 when X itself is in the family). Coefficient k
    collects the multipliers of supersets with support supp_x - k.
    """
    x = canon_items(items)
    if not isinstance(family, ClosedFamilyIndex):
        family = ClosedFamilyIndex(family, n_items, x)
    elif n_items is not None and n_items != family.n_items:
        raise ValueError(f"n_items={n_items} differs from the index's {family.n_items}")
    if x and x[-1] >= family.n_items:
        raise ValueError(f"itemset {x} outside the {family.n_items}-item universe")
    supers = [(family.members[p], family.masks[p], family.supports[p])
              for p in family.supersets(x)]
    # mined families list nonempty itemsets only; the empty itemset is closed
    # exactly when nothing else reaches its support (no full column)
    if not x and family.members[0] != () and max(family.supports) < supp_x:
        supers.insert(0, ((), 0, supp_x))

    e_vals: dict[tuple[int, ...], int] = {}
    masks: list[tuple[int, int]] = []  # (mask, e) in processed order
    coeffs: dict[int, int] = {}
    for fi, mask, fs in supers:
        if fs > supp_x:
            raise ValueError(f"superset {fi} has support {fs} > supp(X) = {supp_x}")
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
    they differ, or None."""
    dp, dq = _as_sparse(p), _as_sparse(q)
    k = next((k for k in sorted(set(dp) | set(dq)) if dp.get(k, 0) != dq.get(k, 0)), None)
    return None if k is None else (k, dp.get(k, 0), dq.get(k, 0))


def _as_sparse(p) -> dict:
    if isinstance(p, ClosedCoefficients):
        return p.coeffs
    if isinstance(p, dict):
        return {k: c for k, c in p.items() if c != 0}
    if isinstance(p, NdiPolynomial):
        p = p.dense()
    return {k: c for k, c in enumerate(p) if c != 0}


@dataclass(frozen=True)
class OrderKey:
    """Comparison key for one itemset plus tie-breaks. The payload is a margin
    vector (free, ts), an NdiPolynomial (ndi) or ClosedCoefficients (closed)."""

    kind: PredicateKind
    payload: object
    support: int
    items: tuple[int, ...]

    def describe(self) -> str:
        """Stable, human-readable key descriptor."""
        if isinstance(self.payload, tuple):  # a margin vector
            return ",".join(str(c) for c in self.payload)
        sparse = _as_sparse(self.payload)
        if not sparse:
            return "0"
        return ",".join(f"{k}:{c}" for k, c in sorted(sparse.items()))

    def __lt__(self, other: "OrderKey") -> bool:
        """Ranking order: a key sorts first when it is more robust near
        alpha = 1, then when its support is larger, then by itemset."""
        c = compare_keys(self, other)
        if c != EQUAL:
            return c == GREATER
        return (-self.support, self.items) < (-other.support, other.items)


def compare_keys(a: OrderKey, b: OrderKey) -> int:
    """LESS means a is less robust than b near alpha = 1 (ties not broken).
    ndi keys expand no further than their first difference (in full only
    when equal), through NdiPolynomial.compare."""
    if a.kind is not b.kind:
        raise ValueError("keys of different kinds are not comparable")
    if isinstance(a.payload, tuple):  # margin vectors
        return compare_sequences(a.payload, b.payload)
    if isinstance(a.payload, NdiPolynomial):
        return a.payload.compare(b.payload)
    return compare_polynomials(a.payload, b.payload)


def order_key(db: TransactionDatabase, items, kind: PredicateKind,
              closed_family=None, closed_min_support: int = 1) -> OrderKey:
    """Build the ranking key for one itemset; closed_family may be a
    ClosedFamilyIndex, as rank passes it."""
    items = canon_items(items)
    if kind is PredicateKind.CLOSED:
        if closed_family is None:
            raise ValueError("ranking closed itemsets requires a closed family")
        payload = closed_coefficients(items, closed_family, support(db, items),
                                      n_items=db.n_items, min_support=closed_min_support)
    else:
        payload = _key_payload(survival_classes(db, items, kind), len(db))
    return OrderKey(kind, payload, support(db, items), items)


def rank(db: TransactionDatabase, itemsets, kind: PredicateKind,
         closed_family=None, closed_min_support: int = 1) -> list[tuple[tuple[int, ...], OrderKey]]:
    """Sort itemsets most-robust-first; ties fall back to larger support,
    then lexicographic itemset. Deterministic for identical inputs."""
    if kind is PredicateKind.CLOSED and closed_family is not None:
        closed_family = ClosedFamilyIndex(closed_family, db.n_items)
    keys = sorted(order_key(db, it, kind, closed_family, closed_min_support)
                  for it in itemsets)
    return [(k.items, k) for k in keys]


def comparison_exact(a: OrderKey, b: OrderKey) -> bool:
    """Whether the deciding coefficient of a closed-key comparison was computed
    from fully mined support levels. Non-closed keys always compare exactly."""
    if a.kind is not PredicateKind.CLOSED or b.kind is not PredicateKind.CLOSED:
        return True
    d = _first_difference(a.payload, b.payload)
    return d is None or (a.payload.is_exact(d[0]) and b.payload.is_exact(d[0]))
