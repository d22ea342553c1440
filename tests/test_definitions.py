"""The oracle's predicates, written from their definitions, against the
survival classes that predicates, robustness and ranking read.

The oracle shares no code with the cell counts: a cell table that miscounts
moves the analytic scores but not the oracles, and oracle.py does not even
name the functions that count cells.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import robustmine.oracle as oracle
import robustmine.predicates as predicates
from conftest import TOY_TEXT, all_itemsets, databases, row_items
from plain_oracle import plain_counts, plain_robustness
from robustmine import (CapacityError, PredicateKind, TransactionDatabase, canon_items,
                        evaluate_predicate, exhaustive_robustness, parse_fimi, robustness)
from robustmine.oracle import definition


def holds_on_every_row(db, items, kind):
    """The definition with each transaction as its own row, every row kept."""
    return definition(row_items(db), canon_items(items), db.n_items, kind)((1 << len(db)) - 1)


@settings(max_examples=80, deadline=None)
@given(databases())
@example(([], 0))
@example(([], 3))
@example(([[0], [0, 1], [1], []], 5))  # n_items past the widest id
@example(([[0, 1], [1, 2]], 3))  # (0, 2) held by no row: not the full itemset
@example(([[2]], 3))  # (0, 1, 2) held by no row: the full itemset is closed
def test_definitions_agree_with_evaluate_predicate(case):
    db = TransactionDatabase(*case)
    for items in all_itemsets(db.n_items, 4):
        for kind in PredicateKind:
            assert holds_on_every_row(db, items, kind) == evaluate_predicate(db, items, kind), \
                (row_items(db), items, kind)


def test_ndi_definition_refuses_wide_itemsets():
    with pytest.raises(CapacityError, match="over 21 items exceed the 20-item limit"):
        definition([tuple(range(21))], tuple(range(21)), 21, PredicateKind.NON_DERIVABLE)


def _first_nonzero_reads_zero(counts):
    counts = list(counts)
    hit = next((j for j, c in enumerate(counts) if c), None)
    if hit is not None:
        counts[hit] = 0
    return counts


def test_a_miscounting_cell_table_is_caught(monkeypatch):
    """One nonzero cell read as 0 by the class table moves the analytic
    scores; both oracles, which read no cells, keep agreeing."""
    cell_table, one_zero_cells = predicates.cell_table, predicates.one_zero_cells

    def miscounted_table(db, items):
        return tuple(_first_nonzero_reads_zero(cell_table(db, items)))

    def miscounted_one_zero(db, items):
        return tuple(_first_nonzero_reads_zero(one_zero_cells(db, items)))

    oracle._satisfied_by_size.cache_clear()
    plain_counts.cache_clear()
    monkeypatch.setattr(predicates, "cell_table", miscounted_table)
    monkeypatch.setattr(predicates, "one_zero_cells", miscounted_one_zero)
    try:
        toy = parse_fimi(TOY_TEXT)
        for kind, items in [(PredicateKind.FREE, (0, 1)), (PredicateKind.FREE, (3,)),
                            (PredicateKind.NON_DERIVABLE, (0, 1)),
                            (PredicateKind.NON_DERIVABLE, (1, 3)),
                            (PredicateKind.TOTALLY_SHATTERED, (0,)),
                            (PredicateKind.TOTALLY_SHATTERED, (0, 3))]:
            exhaustive = exhaustive_robustness(toy, items, kind, 0.5)
            assert exhaustive > 0, (kind, items)
            assert robustness(toy, items, kind, 0.5) != exhaustive, (kind, items)
            assert plain_robustness(toy, items, kind, 0.5) == pytest.approx(exhaustive,
                                                                            abs=1e-12)
    finally:
        oracle._satisfied_by_size.cache_clear()
        plain_counts.cache_clear()


FORBIDDEN = {"cell_table", "one_zero_cells", "SURVIVAL_CLASSES", "survival_classes",
             "classes_hold", "evaluate_predicate", "subset_mask"}


def test_oracle_imports_nothing_that_counts_cells():
    modules = {"predicates", "robustness", "ordering"}
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            module = (getattr(node, "module", None) or "").rsplit(".", 1)[-1]
            if module == "predicates":
                assert imported == ["PredicateKind"], ast.dump(node)
            else:
                assert module not in modules and not modules & set(imported), ast.dump(node)
        names = {getattr(node, attr, None) for attr in ("id", "attr", "name", "arg")}
        assert not names & FORBIDDEN, ast.dump(node)


def test_no_module_imports_a_private_name_of_another():
    # an underscore name is its module's own: another module that needs it
    # asks for a public name
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "robustmine"):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, (path.name, ast.dump(node))


SCORE_TYPES = {"tuple", "Margin", "NdiPolynomial", "ClosedCoefficients"}


def test_no_module_tells_the_scores_apart_by_type():
    # each score answers value, compare and describe itself: no module picks
    # a margin vector, an ndi polynomial or closed coefficients by isinstance
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                types = node.args[1]
                named = {getattr(t, "id", getattr(t, "attr", None))
                         for t in (types.elts if isinstance(types, ast.Tuple) else [types])}
                assert not named & SCORE_TYPES, (path.name, node.lineno)
