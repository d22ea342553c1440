import itertools

import pytest
from hypothesis import given, settings

from conftest import TOY_TEXT, all_itemsets, databases, random_db, small_corpus
from robustmine import (
    CapacityError,
    FimiParseError,
    PredicateKind,
    TransactionDatabase,
    cell_table,
    generalized_support,
    one_zero_cells,
    parse_fimi,
    parse_labels,
    support,
)
from robustmine.predicates import survival_classes


def test_parse_toy(toy):
    assert len(toy) == 6
    assert toy.n_items == 5
    assert toy.tids == (0, 1, 2, 3, 4, 5)
    assert [toy.row_items(t) for t in toy.tids] == [
        (4,),
        (1, 3, 4),
        (0, 1, 2, 3, 4),
        (1, 3, 4),
        (0, 1, 2, 3, 4),
        (0,),
    ]


def test_parse_skips_blank_lines_and_dedups():
    db = parse_fimi("1 1 3\n\n  \n0\n")
    assert len(db) == 2
    assert db.row_items(0) == (1, 3)
    assert db.row_items(1) == (0,)


def test_parse_empty_text():
    db = parse_fimi("")
    assert len(db) == 0
    assert db.n_items == 0


def test_parse_rejects_garbage():
    with pytest.raises(FimiParseError) as err:
        parse_fimi("0 1\n2 x 3\n")
    assert err.value.lineno == 2
    with pytest.raises(FimiParseError):
        parse_fimi("0 -1\n")


def test_support_values(toy):
    assert support(toy, ()) == 6
    assert support(toy, (0, 1)) == 2
    assert support(toy, (4,)) == 5
    assert support(toy, (0, 1, 2, 3, 4)) == 2
    with pytest.raises(ValueError):
        support(toy, (9,))


def test_generalized_support(toy):
    assert generalized_support(toy, (0, 1), (1, 0)) == 1
    assert generalized_support(toy, (0, 1), (1, 1)) == 2
    assert generalized_support(toy, (), ()) == 6
    with pytest.raises(ValueError):
        generalized_support(toy, (0,), (2,))
    with pytest.raises(ValueError):
        generalized_support(toy, (0, 1), (1,))


def test_generalized_support_matches_row_scan():
    for db in small_corpus(8):
        for items in all_itemsets(db.n_items, 3):
            for vec in itertools.product((0, 1), repeat=len(items)):
                want = sum(
                    1
                    for t in db.tids
                    if all(
                        (i in db.row_items(t)) == bool(v)
                        for i, v in zip(items, vec)
                    )
                )
                assert generalized_support(db, items, vec) == want


def _mask(values):
    """The cell table index of a value vector: entry pos is bit pos."""
    return sum(v << pos for pos, v in enumerate(values))


def test_cell_table_toy(toy):
    table = cell_table(toy, (0, 2))
    assert {v: table[_mask(v)] for v in [(0, 0), (1, 0), (0, 1), (1, 1)]} == \
        {(0, 0): 3, (1, 0): 1, (0, 1): 0, (1, 1): 2}
    assert table == (3, 1, 0, 2)
    assert sum(table) == 6
    odd, even = survival_classes(toy, (0, 2), PredicateKind.NON_DERIVABLE)
    assert sorted(odd) == [0, 1]
    assert sorted(even) == [2, 3]


def test_cell_table_empty_itemset(toy):
    assert cell_table(toy, ()) == (6,)


def test_cell_table_capacity():
    # one item past CELL_WIDTH_LIMIT: refused before any cell is split
    db = random_db(3, 5, 21, 0.5)
    with pytest.raises(CapacityError, match="over 21 items exceeds the 20-item limit"):
        cell_table(db, range(21))


def test_one_zero_cells(toy):
    # entry order follows the itemset: missing 0 (but 4 present), missing 4
    assert one_zero_cells(toy, (0, 4)) == (3, 1)
    assert one_zero_cells(toy, ()) == ()


def test_subset_preserves_tids(toy):
    sub = toy.subset([1, 4])
    assert sub.tids == (1, 4)
    assert sub.n_items == 5
    assert sub.row_items(0) == (1, 3, 4)
    assert sub.row_items(1) == (0, 1, 2, 3, 4)
    assert support(sub, (0,)) == 1


def test_db_is_immutable_and_hashable(toy):
    with pytest.raises(AttributeError):
        toy.n_items = 0
    other = parse_fimi(TOY_TEXT)
    assert toy == other
    assert hash(toy) == hash(other)
    assert toy != toy.subset([0, 1])


def test_rejects_bad_items():
    with pytest.raises(ValueError):
        TransactionDatabase([[0, -2]], n_items=3)
    with pytest.raises(ValueError):
        TransactionDatabase([[5]], n_items=3)


def test_parse_labels():
    labels = parse_labels("0\tmilk\n2\tbread\n")
    assert labels == {0: "milk", 2: "bread"}
    with pytest.raises(ValueError):
        parse_labels("0 milk\n")


@settings(max_examples=60, deadline=None)
@given(databases())
def test_cell_table_cells_are_indexed_by_mask(case):
    db = TransactionDatabase(*case)
    for items in all_itemsets(db.n_items, 4):
        table = cell_table(db, items)
        m = len(items)
        vectors = [tuple(idx >> pos & 1 for pos in range(m)) for idx in range(1 << m)]
        want = {v: generalized_support(db, items, v) for v in vectors}
        assert table == tuple(want.values())
        assert all(table[_mask(v)] == c for v, c in want.items())
        assert sum(table) == sum(want.values()) == len(db)
        assert len(table) == len(want) == 2 ** m
        assert survival_classes(db, items, PredicateKind.NON_DERIVABLE) == (
            tuple(c for v, c in want.items() if sum(v) % 2),
            tuple(c for v, c in want.items() if not sum(v) % 2))
