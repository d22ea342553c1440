"""Scores of itemsets, and their parameter-free ordering near alpha = 1.

Robustness, as a function of the deletion rate, is a polynomial in
beta = 1 - alpha with integer coefficients. Each itemset and kind has one
score object holding it: its value at alpha is the robustness, and two
itemsets are compared by the first coefficient where their polynomials
differ. For the free and totally-shattered properties the score is a margin
vector, sorted cell counts whose order never expands a polynomial, and
non-derivability scores include only the cells below their first difference.
A full sort compares each score's exact prefix (prefix(width)) first, in C,
and compares in Python only the pairs whose prefixes tie (sort_keys).
values_at reads a batch's values from one table, built per call, of the survival
factors 1 - beta**c, one per distinct cell count: bit for bit as lone values.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat, zip_longest
from operator import le

from .dataset import TransactionDatabase, canon_items, support
from .predicates import SURVIVAL_CLASSES, PredicateKind, survival_classes

LESS, EQUAL, GREATER = -1, 0, 1
# bits of sub(Y) bitsets one ClosedFamilyIndex caches (8 MiB) before it starts over
SUBSET_CACHE_BITS = 1 << 26
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


class _Factors(dict):
    """The survival factors of one batch at one alpha: 1 - beta**c per cell
    count c, each computed on first use; a negative count is rejected."""

    def __init__(self, alpha: float):
        self.beta = 1.0 - check_probability(alpha)

    def __missing__(self, c: int) -> float:
        if c < 0:
            raise ValueError(f"negative cell count {c}")
        f = self[c] = 1.0 - self.beta ** c
        return f


def values_at(scores, alpha: float) -> list[float]:
    """Each score's value at alpha, in order, from one factor table (_Factors):
    a Margin is the product of its cells' factors, largest cell first; an
    NdiPolynomial 1 - (1 - o(A))(1 - o(B)), each class product o taken
    largest cell first; a closed score gives its own value. Each value is
    _checked; a batch inside [0, 1] (NaN fails the test) is one check."""
    factor = _Factors(alpha).__getitem__
    values = []
    for sc in scores:
        if type(sc) is Margin:
            values.append(math.prod(map(factor, sc[::-1]), start=1.0))
        elif type(sc) is NdiPolynomial:
            a, b = (math.prod(map(factor, c), start=1.0) for c in sc.classes)
            values.append(1.0 - (1.0 - a) * (1.0 - b))
        else:
            values.append(sc.value(alpha))
    if all(map(le, repeat(0.0), values)) and all(map(le, values, repeat(1.0))):
        return values
    return list(map(_checked, values))


def survival_probability(cells: Sequence[int], alpha: float) -> float:
    """Probability that every listed cell keeps at least one transaction.

    Each factor is 1 - (1-alpha)**count; an empty cell contributes 0
    ((1-alpha)**0 == 1 even at alpha = 1), an empty list gives 1.
    """
    return values_at((Margin(sorted(cells)),), alpha)[0]


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
    return Margin(sorted(cells))


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


class Margin(tuple):
    """The score of a one-class kind (free, ts): its sorted cell counts, a
    margin vector. Its robustness is their survival probability; it compares
    by compare_sequences and equals the plain tuple of its cells."""

    __slots__ = ()
    compare = compare_sequences
    pack_width = 0

    def value(self, alpha: float) -> float:
        return values_at((self,), alpha)[0]

    def prefix(self, width: int) -> tuple[int, ...]:
        """The negated cells: complete, a shorter vector sorting first."""
        return tuple(-c for c in self)

    def describe(self) -> str:
        return ",".join(map(str, self))


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
    0..max_degree: packed as NdiPolynomial packs it, and decoded once."""
    cells = sorted(cells)
    width, packed = len(cells) + 4, 1
    for s in cells:
        if s < 0:
            raise ValueError(f"negative cell count {s}")
        if s > max_degree:
            break
        packed -= packed << s * width
    return list(map(_terms(packed, width, max_degree + 1).get, range(max_degree + 1), repeat(0)))


def _terms(packed: int, width: int, n: int) -> dict[int, int]:
    """Nonzero coefficients of degrees 0..n-1 of a packed polynomial, ascending: with
    2**(width-1) added, every digit is non-negative, and XOR that bias flags the nonzero."""
    half, bits = 1 << width - 1, n * width
    bias = half * (((1 << bits) - 1) // ((1 << width) - 1))
    biased = (packed + bias) & ((1 << bits) - 1)
    flags, text = format(biased ^ bias, "b")[::-1], format(biased, "b")[::-1]  # char p: bit p
    terms, p = {}, flags.find("1")
    while p >= 0:
        k = p // width
        terms[k] = int(text[k * width:(k + 1) * width][::-1], 2) - half
        p = flags.find("1", (k + 1) * width)
    return terms


def evaluate_poly(coeffs: dict, beta: float) -> float:
    """Evaluate a sparse {degree: coeff} polynomial at beta."""
    return float(sum(c * beta ** k for k, c in sorted(coeffs.items())))


def _describe_terms(terms: dict) -> str:
    return ",".join(f"{k}:{c}" for k, c in terms.items()) or "0"


def ndi_polynomial(db: TransactionDatabase, items) -> list[int]:
    """Coefficients (in beta = 1 - alpha) of the non-derivability robustness:
    the full expansion of its NdiPolynomial, a dense list of length |D| + 1."""
    return NdiPolynomial(survival_classes(db, items, PredicateKind.NON_DERIVABLE), len(db)).dense()


class NdiPolynomial:
    """The non-derivability robustness r = o(A) + o(B) - o(A u B), an exact
    integer polynomial in beta = 1 - alpha of degree at most `degree` (|D|,
    the cells' sum at most), over the parity classes A and B, whose disjoint
    cells fail independently; o(C) = prod(1 - beta**s) over C's cells. r is 1
    at degree 0, 0 up to lo - 1 for lo = min(A) + min(B), and negative at lo
    (r = 0 at lo = 0; an empty class never fails: r = 1, lo is infinite).
    `classes` holds each class sorted once, largest cell first, the order
    values_at multiplies in.

    Products are packed integers (Kronecker substitution): coefficient k is
    the signed digit at bits k*width, width = cells + 4 (pack_width), as n
    factors' coefficients sum to at most 2**n in magnitude. Cells are included in
    ascending order as comparisons need, `v -= v << s*width` on a class's
    product and A u B's, per width in `states`: width -> [cells included,
    o(A), o(B), o(A u B), r]. r is exact below the smallest cell left out
    (its horizon), everywhere with none."""

    def __init__(self, classes: tuple[Sequence[int], Sequence[int]], degree: int):
        a, b = self.classes = tuple(sorted(c, reverse=True) for c in classes)
        self.degree, self.states = degree, {}
        self.lo = a[-1] + b[-1] if a and b else math.inf

    @cached_property
    def cells(self) -> list[int]:
        """Each cell as one int, count << 1 | class (A 0, B 1), ascending; checked on first use."""
        (a, b), degree = self.classes, self.degree
        if min(chain(a, b), default=0) < 0 or sum(a) + sum(b) > degree:
            raise ValueError(f"cell counts must be non-negative and sum to at most {degree}")
        return sorted([s << 1 for s in a] + [s << 1 | 1 for s in b])

    @property
    def pack_width(self) -> int:
        return len(self.cells) + 4

    def include(self, width: int, upto) -> tuple[int, float]:
        """Include the cells of count <= upto at width; return r there and its horizon."""
        state = self.states.setdefault(width, [0, 1, 1, 1, 1])
        (n, *o, _), cells = state, self.cells
        while n < len(cells) and cells[n] >> 1 <= upto:
            s, side = cells[n] >> 1, cells[n] & 1
            o[side] -= o[side] << s * width
            o[2] -= o[2] << s * width
            n += 1
        if n > state[0]:  # a complete state keeps r alone
            state[:] = n, *(o if n < len(cells) else (0, 0, 0)), o[0] + o[1] - o[2]
        return state[4], (cells[n] >> 1) - 1 if n < len(cells) else math.inf

    def terms(self) -> dict[int, int]:
        """The nonzero coefficients, in ascending degree order."""
        width = self.pack_width
        return _terms(self.include(width, math.inf)[0], width, self.degree + 1)

    def dense(self) -> list[int]:
        """Every coefficient, degrees 0..degree."""
        return list(map(self.terms().get, range(self.degree + 1), repeat(0)))

    def compare(self, other: "NdiPolynomial") -> int:
        """First-differing-coefficient order, exact. The lower lo is less robust
        (its r there is negative, or 0, against 0, or 1). Else both include their
        cells up to lo at the wider width; the lowest set bit of x - y names the
        first differing digit, whose sign bit decides within both horizons, else
        the cells one past the smaller horizon are included. Equal in full: EQUAL."""
        if self.lo != other.lo:
            return LESS if self.lo < other.lo else GREATER
        width, upto = max(self.pack_width, other.pack_width), self.lo
        while True:
            (x, hx), (y, hy) = self.include(width, upto), other.include(width, upto)
            z, horizon = x - y, min(hx, hy)
            if z:
                k = ((z & -z).bit_length() - 1) // width
                if k <= horizon:
                    return LESS if z >> (k * width + width - 1) & 1 else GREATER
            elif horizon == math.inf:
                return EQUAL
            upto = horizon + 1

    def prefix(self, width: int) -> tuple:
        """(-lo, -R), R being r's coefficients of degrees 0..2*lo as one
        integer at width (at least pack_width), degree 0 its highest digit:
        integer order is their lexicographic order. Each product is packed
        downwards from bit top*width, top one past min(2*lo, degree),
        `v -= v >> s*width` per cell below top. A shift's floor errs by less
        than 1 in the degree-top digit, and the cells' errors stay far below
        half a digit, so rounding that digit off leaves every degree kept
        exact; the zeros above the degree are shifted in, so that keys of
        any degree compare. An empty class (lo infinite) gives a constant."""
        if self.lo == math.inf:
            return -math.inf, 0
        top = min(2 * self.lo, self.degree) + 1
        o = [1 << top * width] * 3
        for cell in self.cells:
            s, side = cell >> 1, cell & 1
            if s >= top:
                break
            o[side] -= o[side] >> s * width
            o[2] -= o[2] >> s * width
        r = (o[0] + o[1] - o[2] + (1 << width - 1)) >> width
        return -self.lo, -r << (2 * self.lo + 1 - top) * width

    def __eq__(self, other) -> bool:
        return type(other) is NdiPolynomial and self.compare(other) == EQUAL

    def value(self, alpha: float) -> float:
        """r at alpha, as 1 - (1 - o(A))(1 - o(B)) of the classes' survival probabilities."""
        return values_at((self,), alpha)[0]

    def describe(self) -> str:
        return _describe_terms(self.terms())


def score_of(classes, dlen: int):
    """The score of a non-closed kind from its survival classes, over a
    database of dlen transactions: one class gives its Margin, the two ndi
    classes their lazy NdiPolynomial."""
    return Margin(sorted(classes[0])) if len(classes) == 1 else NdiPolynomial(classes, dlen)


@dataclass(frozen=True)
class ClosedCoefficients:
    """Sparse robustness polynomial for the closed property.

    coeffs maps degree k -> integer coefficient, kept as its nonzero terms in
    ascending degree order; contributions, built when read from the walk kept
    (the index, X's superset positions, their multipliers mu, that of an
    inserted empty itemset and X), maps each participating closed superset to its
    multiplier. A coefficient is exact when every superset at its support level
    was mined: supp - k >= min_support, the index's, or that is 1 (support-0
    closed itemsets other than the always-added full itemset do not exist).
    """

    coeffs: dict
    supp: int
    min_support: int = 1
    index: ClosedFamilyIndex | None = field(default=None, compare=False, repr=False)
    positions: tuple[int, ...] = field(default=(), compare=False, repr=False)
    mu: tuple[int, ...] = field(default=(), compare=False, repr=False)
    empty: int = field(default=0, compare=False, repr=False)
    items: tuple[int, ...] = field(default=(), compare=False, repr=False)
    pack_width = 0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", {k: c for k, c in sorted(self.coeffs.items()) if c})

    @property
    def contributions(self) -> dict:
        out = {(): self.empty} if self.empty else {}
        if self.index is not None:
            out.update(zip(map(self.index.itemset, self.positions), self.mu))
        return out

    def is_exact(self, k: int) -> bool:
        return self.min_support <= 1 or self.supp - k >= self.min_support

    def value(self, alpha: float) -> float:
        """The robustness at alpha, which needs every closed superset: the
        index must be complete (min_support 1)."""
        beta = 1.0 - check_probability(alpha)
        if self.min_support != 1:
            raise ValueError(f"min_support=1 differs from the index's {self.min_support}")
        return _checked(evaluate_poly(self.coeffs, beta))

    def compare(self, other: "ClosedCoefficients") -> int:
        return _compare_terms(self.coeffs, other.coeffs)

    def prefix(self, width: int) -> tuple[tuple[int, ...], ...]:
        """One tuple per nonzero term (k, c), (0, k, -c) when c > 0 and
        (2, -k, -c) when c < 0, then the end (1,): complete."""
        return (*((0, k, -c) if c > 0 else (2, -k, -c) for k, c in self.coeffs.items()), (1,))

    def describe(self) -> str:
        return _describe_terms(self.coeffs)


def _digit_sums(bitsets) -> list[int]:
    """Bit-parallel counts: bit p of digits[j] is bit j of the number of the
    bitsets that hold position p, one carry-save addition per bitset."""
    digits = []
    for carry in bitsets:
        for j, d in enumerate(digits):
            digits[j], carry = d ^ carry, d & carry
            if not carry:
                break
        if carry:
            digits.append(carry)
    return digits


class ClosedFamilyIndex:
    """A closed family mined at min_support (1: complete), indexed once for many queries.

    Positions follow the canonical members in (size, lexicographic) order.
    The last is the full itemset over n_items; when the family lacks it, it
    is added with support 0 as that position alone, its items never listed.
    Per item present, holders is the bitset of the positions below the full
    itemset's whose members hold the item; size_bits[j] is the bitset of
    those whose size has bit j set. n_items defaults to one past the widest
    item of the family or cover; a member outside it is an error. Only the
    members containing cover are indexed, after the whole family is checked.
    """

    @classmethod
    def of(cls, family, n_items: int | None = None, cover=(), min_support: int | None = None):
        """The index of (itemset, support) pairs mined at min_support (1 when omitted),
        or an index once any n_items and min_support given agree with its own."""
        if not isinstance(family, cls):
            return cls(family, n_items, cover, 1 if min_support is None else min_support)
        for name, given in (("n_items", n_items), ("min_support", min_support)):
            if given is not None and given != (own := getattr(family, name)):
                raise ValueError(f"{name}={given} differs from the index's {own}")
        return family

    def __init__(self, family, n_items: int | None = None, cover=(), min_support: int = 1):
        fam = {}
        for f_items, f_supp in family:
            fi, f_supp = canon_items(f_items), int(f_supp)
            if fi in fam and fam[fi] != f_supp:
                raise ValueError(f"family lists {fi} twice with different supports")
            fam[fi] = f_supp
        if n_items is None:
            n_items = max((it[-1] for it in chain(fam, [tuple(cover)]) if it), default=-1) + 1
        outside = next((it for it in fam if it and it[-1] >= n_items), None)
        if outside is not None:
            raise ValueError(f"family itemset {outside} outside the {n_items}-item universe")
        self.n_items, self.min_support = n_items, min_support
        self.members = sorted(filter(set(cover).issubset, fam), key=lambda it: (len(it), it))
        self.supports = [fam[it] for it in self.members]
        if not self.members or len(self.members[-1]) < n_items:
            self.supports.append(0)
        self.top = len(self.supports) - 1
        self.below_top = (1 << self.top) - 1
        # the members below the top read as transactions; a size counts its holders
        self.holders = dict(TransactionDatabase(self.members[:self.top], n_items).columns())
        self.size_bits = _digit_sums(self.holders.values())
        self._subsets: dict[int, int] = {}
        self._cached_bits = 0

    def size(self, p: int) -> int:
        """Number of items of the member at position p."""
        return len(self.members[p]) if p < len(self.members) else self.n_items

    def itemset(self, p: int) -> tuple[int, ...]:
        """The member at position p; only here is an unlisted full itemset built."""
        return self.members[p] if p < len(self.members) else tuple(range(self.n_items))

    def supersets(self, x: tuple[int, ...]) -> tuple[int, ...]:
        """Positions of the members containing x, in member order: a walk over
        the set bits alone, as x has few closed supersets in a large family."""
        sup = self.below_top
        for i in x:
            sup &= self.holders.get(i, 0)
        sup |= 1 << self.top
        out = []
        while sup:
            low = sup & -sup
            out.append(low.bit_length() - 1)
            sup ^= low
        return tuple(out)

    def lead(self, x: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Member x's prefix's first two tuples, from its supersets alone: (0, 0, -1) for
        x, then (2, -g, c) for the c covers (mu = -1) at the largest proper superset
        support, supp(x) - g, or the end (1,) when x is the full itemset."""
        own, *rest = self.supersets(x)
        supports = [self.supports[p] for p in rest]
        top = max(supports, default=0)
        return (0, 0, -1), (2, top - self.supports[own], supports.count(top)) if rest else (1,)

    def subsets(self, p: int) -> int:
        """Bitset of the positions whose members are subsets of the member Y
        at p, p included: the positions up to p that hold as many of Y's items
        as they have items. Those counts are summed bit-parallel, one bitset
        per binary digit, so the cost follows |Y|, not the items present.
        Cached until SUBSET_CACHE_BITS are held, then the cache starts over."""
        sub = self._subsets.get(p)
        if sub is None:
            if p == self.top:
                sub = self.below_top | 1 << p
            else:
                upto = (2 << p) - 1  # subsets precede their supersets
                digits = _digit_sums([self.holders[i] & upto for i in self.members[p]])
                sub = upto
                for d, s in zip(digits, self.size_bits):
                    sub &= ~(d ^ s)
            if self._cached_bits > SUBSET_CACHE_BITS:
                self._subsets.clear()
                self._cached_bits = 0
            self._subsets[p] = sub
            self._cached_bits += sub.bit_length()
        return sub


def closed_coefficients(items, family, supp_x: int, n_items: int | None = None,
                        min_support: int | None = None) -> ClosedCoefficients:
    """Inclusion-exclusion coefficients of closedness robustness from a closed family.

    family: a ClosedFamilyIndex, or (itemset, support) pairs mined at
    min_support, as ClosedFamilyIndex.of takes them. The full itemset is
    present with support 0 when the family lacks it. The supersets Y of X
    are walked in subset order, each receiving the Moebius multiplier
    e(Y) = mu(X, Y) of the closed lattice: e(X) = 1 when X itself is in the
    family, otherwise minus the sum of e over the processed proper subsets
    of Y. That sum is read from bitsets, as sum of v * |G_v & sub(Y)| over
    the processed positions G_v with multiplier v and the positions sub(Y)
    of Y's subsets, so it costs one AND per distinct multiplier, not one
    subset test per superset. Coefficient k collects the multipliers of
    supersets with support supp_x - k.
    """
    x = canon_items(items)
    family = ClosedFamilyIndex.of(family, n_items, x, min_support)
    if x and x[-1] >= family.n_items:
        raise ValueError(f"itemset {x} outside the {family.n_items}-item universe")
    # mined families list nonempty itemsets only; the empty itemset is closed
    # exactly when nothing else reaches its support (no full column). It has
    # no position: as a subset of every Y, its multiplier 1 is a constant
    base = int(not x and family.size(0) != 0 and max(family.supports) < supp_x)
    positions = family.supersets(x)
    x_pos = positions[0] if family.size(positions[0]) == len(x) else None
    supports, subsets = family.supports, family.subsets
    groups: dict[int, int] = {}  # nonzero multiplier v -> G_v
    coeffs = {0: 1} if base else {}
    es = []
    for p in positions:
        fs = supports[p]
        if fs > supp_x:
            raise ValueError(f"superset {family.itemset(p)} has support {fs} > supp(X) = {supp_x}")
        if p == x_pos:
            e = 1
        else:
            sub, e = subsets(p), -base
            for v, g in groups.items():
                e -= v * (g & sub).bit_count()
        if e:
            groups[e] = groups.get(e, 0) | 1 << p
        es.append(e)
        coeffs[supp_x - fs] = coeffs.get(supp_x - fs, 0) + e
    if base + len(es) >= 2 and base + sum(es) != 0:
        raise ArithmeticError("closed-family multipliers must cancel")
    return ClosedCoefficients(coeffs, supp_x, family.min_support, family, positions,
                              tuple(es), base, x)


def compare_polynomials(p, q) -> int:
    """First-differing-coefficient order of two dense lists or sparse
    {degree: coeff} dicts: LESS means p is less robust near alpha = 1."""
    return _compare_terms(_as_sparse(p), _as_sparse(q))


def _as_sparse(p) -> dict:
    """The nonzero coefficients of a dense list or a dict, in ascending degree order."""
    terms = sorted(p.items()) if isinstance(p, dict) else enumerate(p)
    return {k: c for k, c in terms if c != 0}


def _compare_terms(p: dict, q: dict) -> int:
    d = _first_difference(p, q)
    return EQUAL if d is None else LESS if d[1] < d[2] else GREATER


def _first_difference(p: dict, q: dict) -> tuple[int, int, int] | None:
    """(degree, p's coefficient, q's coefficient) at the lowest degree where
    two ascending nonzero-term dicts differ, or None: walked in step."""
    end = (math.inf, 0)
    for (kp, cp), (kq, cq) in zip_longest(p.items(), q.items(), fillvalue=end):
        if kp != kq or cp != cq:
            k = min(kp, kq)
            return k, cp if kp == k else 0, cq if kq == k else 0
    return None


def score(db: TransactionDatabase, items, kind: PredicateKind, closed_family=None):
    """The one score of an itemset for a kind: a Margin (free, ts), an
    NdiPolynomial (ndi) or ClosedCoefficients (closed), each with
    value(alpha), compare(other) and describe(). A closed score reads its
    closed supersets from closed_family (pairs or a ClosedFamilyIndex, whose
    min_support it takes; value needs a complete one) or, when omitted, from
    the itemset's conditional database (the transactions holding it), whose
    closed sets are exactly its nonempty closed supersets, same supports."""
    if kind is not PredicateKind.CLOSED:
        return score_of(survival_classes(db, items, kind), len(db))
    if closed_family is None:
        from .mining import mine_closed  # imported here: mining imports this module
        closed_family = mine_closed(db.holding(items := canon_items(items)), 1)
    # read twice: by support, then by closed_coefficients, which canonicalises it
    items = tuple(items)
    return closed_coefficients(items, closed_family, support(db, items), db.n_items)


@dataclass(frozen=True)
class OrderKey:
    """Comparison key for one itemset plus tie-breaks. The payload is the
    itemset's score (Margin, NdiPolynomial or ClosedCoefficients)."""

    kind: PredicateKind
    payload: object
    support: int
    items: tuple[int, ...]

    def describe(self) -> str:
        """Stable, human-readable key descriptor."""
        return self.payload.describe()

    def __lt__(self, other: "OrderKey") -> bool:
        """Ranking order: a key sorts first when it is more robust near
        alpha = 1, then when its support is larger, then by itemset."""
        c = compare_keys(self, other)
        if c != EQUAL:
            return c == GREATER
        return (-self.support, self.items) < (-other.support, other.items)


class _Tied:
    """An OrderKey as the last element of a sort key: its equality is
    identity, so tuple comparison reaches its order only on a tie before it."""

    __slots__ = ("key",)

    def __init__(self, key: OrderKey):
        self.key = key

    def __lt__(self, other: "_Tied") -> bool:
        return self.key < other.key


def sort_keys(entries, key=None) -> list:
    """Entries in ranking order of their OrderKeys (key(entry), or the entries
    themselves), as sorted() would give them. Each entry sorts by its score's
    exact prefix at one width for all, the most any score needs, compared in
    C; only entries whose prefixes tie reach OrderKey.__lt__, that is compare
    and the tie-breaks."""
    get = key or (lambda entry: entry)
    entries = list(entries)
    width = max((get(entry).payload.pack_width for entry in entries), default=0)
    entries.sort(key=lambda entry: (get(entry).payload.prefix(width), _Tied(get(entry))))
    return entries


def compare_keys(a: OrderKey, b: OrderKey) -> int:
    """LESS means a is less robust than b near alpha = 1 (ties not broken).
    ndi keys include no cell above their first difference (all of them only
    when equal), through NdiPolynomial.compare."""
    if a.kind is not b.kind:
        raise ValueError("keys of different kinds are not comparable")
    return a.payload.compare(b.payload)


def order_key(db: TransactionDatabase, items, kind: PredicateKind,
              closed_family=None) -> OrderKey:
    """Build the ranking key for one itemset; closed_family may be a
    ClosedFamilyIndex, whose min_support the closed key takes."""
    if kind is not PredicateKind.CLOSED:
        items = canon_items(items)
        return OrderKey(kind, score(db, items, kind), support(db, items), items)
    if closed_family is None:
        raise ValueError("ranking closed itemsets requires a closed family")
    payload = score(db, items, kind, closed_family)
    return OrderKey(kind, payload, payload.supp, payload.items)


def rank(db: TransactionDatabase, itemsets, kind: PredicateKind,
         closed_family=None) -> list[tuple[tuple[int, ...], OrderKey]]:
    """Sort itemsets most-robust-first; ties fall back to larger support,
    then lexicographic itemset. Deterministic for identical inputs."""
    if kind is PredicateKind.CLOSED and closed_family is not None:
        closed_family = ClosedFamilyIndex.of(closed_family, db.n_items)
    keys = sort_keys(order_key(db, it, kind, closed_family) for it in itemsets)
    return [(k.items, k) for k in keys]


def comparison_exact(a: OrderKey, b: OrderKey) -> bool:
    """Whether the deciding coefficient of a closed-key comparison was computed
    from fully mined support levels. Non-closed keys always compare exactly."""
    if a.kind is not PredicateKind.CLOSED or b.kind is not PredicateKind.CLOSED:
        return True
    d = _first_difference(a.payload.coeffs, b.payload.coeffs)
    return d is None or (a.payload.is_exact(d[0]) and b.payload.is_exact(d[0]))
