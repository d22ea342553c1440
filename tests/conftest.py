import itertools
import random

import pytest
from hypothesis import strategies as st

from robustmine import TransactionDatabase, parse_fimi

# Six transactions over items 0..4, used throughout the unit tests because
# every interesting structural case (ties, zero cells, derivable sets) shows
# up in it at a size where values can be checked by hand.
TOY_TEXT = "4\n1 3 4\n0 1 2 3 4\n1 3 4\n0 1 2 3 4\n0\n"


@pytest.fixture(scope="session")
def toy():
    return parse_fimi(TOY_TEXT)


def random_db(seed, n_rows, n_items, density):
    """Bernoulli(density) transaction matrix with a fixed seed."""
    rng = random.Random(seed)
    rows = [
        [i for i in range(n_items) if rng.random() < density]
        for _ in range(n_rows)
    ]
    return TransactionDatabase(rows, n_items=n_items)


def row_items(db):
    """Every transaction's sorted items, in database order."""
    return [db.row_items(j) for j in range(len(db))]


def small_corpus(count, base_seed=0, max_rows=10, max_items=6):
    """Deterministic stream of small databases with mixed shape and density."""
    densities = [0.2, 0.5, 0.8]
    out = []
    for i in range(count):
        n = 4 + (base_seed + i) % (max_rows - 3)
        k = 3 + (base_seed + i) % (max_items - 2)
        out.append(random_db(base_seed + i, n, k, densities[i % 3]))
    return out


@st.composite
def databases(draw):
    """(transactions, n_items): ids 0..5, n_items sometimes above the highest id
    present, the empty database and empty transactions included."""
    transactions = draw(st.lists(st.lists(st.integers(0, 5), max_size=5), max_size=9))
    widest = max((i for t in transactions for i in t), default=-1)
    return transactions, widest + 1 + draw(st.integers(0, 2))


def all_itemsets(n_items, max_size=None):
    top = n_items if max_size is None else min(max_size, n_items)
    return [
        tuple(c)
        for size in range(top + 1)
        for c in itertools.combinations(range(n_items), size)
    ]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance per-criterion verdicts at the end of the run."""
    import sys

    mod = sys.modules.get("test_acceptance")
    if mod is None or not getattr(mod, "RESULTS", None):
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(mod.RESULTS):
        terminalreporter.write_line(
            f"criterion {num} [{mod.CRITERIA[num]}]: {mod.RESULTS[num]}")
