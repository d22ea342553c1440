"""Full sorts compare exact prefixes first: sort_keys gives sorted()'s order
on every kind, an ndi prefix is its polynomial's coefficients up to twice
lo, and only keys whose prefixes tie are compared in Python."""

import math
from itertools import combinations, combinations_with_replacement

from hypothesis import given, settings, strategies as st

from conftest import databases, random_db
from robustmine import (EQUAL, GREATER, LESS, MiningConfig, OrderKey, PredicateKind,
                        TransactionDatabase, compare_keys, mine_robust, order_key, top_k)
from robustmine.mining import family_keys
from robustmine.ordering import NdiPolynomial, sort_keys

NDI = PredicateKind.NON_DERIVABLE


def digits(packed: int, width: int) -> list[int]:
    """The signed base-2**width digits of packed, highest first, each in
    [-2**(width-1), 2**(width-1))."""
    out = []
    while packed:
        d = packed & (1 << width) - 1
        d -= (d >> width - 1) << width
        out.append(d)
        packed = (packed - d) >> width
    return out[::-1]


def assert_ndi_prefix_is_truncated_expansion(poly: NdiPolynomial, width: int):
    """An ndi prefix is (-lo, -R), R's digits r's coefficients of degrees
    0..2*lo, degree 0 first; a constant when lo is infinite."""
    lo, r = poly.prefix(width)
    if poly.lo == math.inf:
        assert (lo, r) == (-math.inf, 0)
        return
    kept = (poly.dense() + [0] * poly.lo)[:2 * poly.lo + 1]
    assert lo == -poly.lo
    # r is 1 at degree 0, or 0 everywhere when lo is 0
    assert digits(-r, width) == (kept if any(kept) else []), poly.classes


@settings(max_examples=60, deadline=None)
@given(databases(), st.booleans(), st.integers(0, 3))
def test_prefix_sort_is_sorted_order(case, include_empty, min_support):
    db = TransactionDatabase(*case)
    for kind in PredicateKind:
        keys = family_keys(db, kind, min_support, include_empty=include_empty)
        want = [key.items for key in sorted(keys)]
        assert [key.items for key in sort_keys(keys)] == want, kind
        assert [p.items for p in top_k(db, kind, 1 << 30, min_support,
                                       include_empty=include_empty)] == want, kind
        width = max((key.payload.pack_width for key in keys), default=0)
        prefixes = [key.payload.prefix(width) for key in keys]
        for (x, px), (y, py) in combinations(zip(keys, prefixes), 2):
            c = compare_keys(x, y)
            if px != py:  # a prefix that differs decides as compare does
                assert c == (GREATER if px < py else LESS), (kind, x.items, y.items)
            elif kind is not NDI:  # margin and closed prefixes are complete
                assert c == EQUAL, (kind, x.items, y.items)
        if kind is NDI:
            for key in keys:
                assert_ndi_prefix_is_truncated_expansion(key.payload, width)


def test_ndi_prefix_is_exact_at_any_wider_width():
    db = random_db(1, 5000, 30, 0.15)
    for items in ((), (0,), (3, 7), (1, 2, 5)):
        poly = order_key(db, items, NDI).payload
        for width in (poly.pack_width, poly.pack_width + 1, 3 * poly.pack_width):
            assert_ndi_prefix_is_truncated_expansion(poly, width)


def test_small_cells_sort_at_the_widest_width():
    # cells of 1 to 3 give nonzero coefficients at most degrees from lo on,
    # some of them binomial-sized; keys of 2 to 8 cells, each over a database
    # of its cells' sum (2*lo above it for some), share one sort
    polys = [NdiPolynomial((a, b), sum(a) + sum(b))
             for n in range(1, 6) for a in combinations_with_replacement((1, 2, 3), n)
             for m in range(1, 4) for b in combinations_with_replacement((1, 2, 3), m)]
    keys = [OrderKey(NDI, poly, 0, (i,)) for i, poly in enumerate(polys)]
    assert [key.items for key in sort_keys(keys)] == [key.items for key in sorted(keys)]


def test_keys_first_differing_above_twice_lo_fall_back_to_compare():
    # pair (0, 1) has cells 11: 100, 10: 300, 01: 750, 00: 850 and pair (2, 3)
    # 11: 100, 10: 300, 01: 850, 00: 750: both start at lo = 400 and agree
    # through degree 800 = 2 lo, so their prefixes tie and compare decides
    def row(t, cuts):
        return [(1, 1), (1, 0), (0, 1), (0, 0)][sum(t >= c for c in cuts)]

    rows = []
    for t in range(2000):
        a, b = row(t, (100, 400, 1150))
        c, d = row((t * 7) % 2000, (100, 400, 1250))
        rows.append([i for i, bit in enumerate((a, b, c, d)) if bit])
    db = TransactionDatabase(rows, n_items=4)
    x, y = (order_key(db, it, NDI) for it in ((0, 1), (2, 3)))
    assert x.payload.lo == y.payload.lo == 400
    px, py = x.payload.dense(), y.payload.dense()
    first = next(k for k, (a, b) in enumerate(zip(px, py)) if a != b)
    assert first == 850
    width = max(x.payload.pack_width, y.payload.pack_width)
    assert x.payload.prefix(width) == y.payload.prefix(width)
    assert compare_keys(x, y) != EQUAL
    want = sorted([x, y])
    assert sort_keys([x, y]) == sort_keys([y, x]) == want
    assert want[0] is (x if px[first] > py[first] else y)


def test_mine_compares_only_keys_whose_prefixes_tie(monkeypatch):
    db = random_db(1, 5000, 30, 0.15)
    compare, pairs = NdiPolynomial.compare, []

    def traced_compare(self, other):
        pairs.append((self, other))
        return compare(self, other)

    monkeypatch.setattr(NdiPolynomial, "compare", traced_compare)
    mined = mine_robust(db, MiningConfig(NDI, alpha=0.5, rho=0.1, min_support=50))
    monkeypatch.undo()
    assert len(mined) == 465
    assert pairs  # W1's singletons tie exactly
    for x, y in pairs:
        width = max(x.pack_width, y.pack_width)
        assert x.prefix(width) == y.prefix(width), (x.classes, y.classes)
