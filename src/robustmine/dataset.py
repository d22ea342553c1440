"""Binary transaction databases stored by item, with exact support counting.

Each item present has one tidset: a Python int whose bit p is set when the
transaction at position p holds the item (Zaki's vertical layout). Every
count is an AND of tidsets and an ``int.bit_count()``, an exact integer. A
sub-database shares its parent's tidsets under a keep-mask of positions.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import product

# Cell tables enumerate 2**|X| value vectors; refuse wider queries by default.
CELL_WIDTH_LIMIT = 20


class FimiParseError(ValueError):
    """Malformed transaction file. Carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class CapacityError(ValueError):
    """The operation would enumerate more cells or subsets than its guard allows."""


def canon_items(items: Iterable[int]) -> tuple[int, ...]:
    """Canonical itemset: strictly increasing tuple, duplicates collapsed."""
    out = tuple(sorted({int(i) for i in items}))
    if out and out[0] < 0:
        raise ValueError(f"negative item id {out[0]}")
    return out


def _bits(positions: Sequence[int]) -> int:
    """The int whose set bits are the given non-negative positions, in linear time."""
    if not positions:
        return 0
    digits = bytearray(b"0") * (max(positions) + 1)
    for p in positions:
        digits[p] = 49  # "1"
    digits.reverse()
    return int(digits, 2)


def _ones(x: int) -> list[int]:
    """Positions of the set bits of a non-negative int, ascending."""
    return [p for p, d in enumerate(bin(x)[:1:-1]) if d == "1"]


class TransactionDatabase:
    """Immutable sequence of (tid, itemset) transactions over items 0..n_items-1:
    one tidset per item present (shared with sub-databases) and a keep-mask of
    the column positions this database holds, in position order."""

    def __init__(self, transactions: Iterable[Iterable[int]], n_items: int | None = None,
                 tids: Sequence[int] | None = None):
        # every constructor ends here: positions grouped by item, then one int per item
        positions = defaultdict(list)
        n = 0
        for n, items in enumerate(transactions, start=1):
            for i in items:
                positions[i].append(n - 1)
        cols: dict[int, int] = {}
        for key, ps in positions.items():
            i = int(key)
            if i < 0:
                raise ValueError(f"negative item id {i}")
            cols[i] = cols.get(i, 0) | _bits(ps)
        widest = max(cols, default=-1)
        if n_items is None:
            n_items = widest + 1
        elif n_items <= widest:
            raise ValueError(f"n_items={n_items} too small for item id {widest}")
        tids = tuple(range(n)) if tids is None else tuple(int(t) for t in tids)
        if len(tids) != n:
            raise ValueError("tids length does not match transaction count")
        self._share(cols, (1 << n) - 1, int(n_items), tids)

    def _share(self, cols, keep, n_items, all_tids) -> "TransactionDatabase":
        vars(self).update(_cols=cols, _keep=keep, _len=keep.bit_count(), n_items=n_items,
                          _all_tids=all_tids)
        return self

    @classmethod
    def from_matrix(cls, matrix, tids=None) -> "TransactionDatabase":
        """Build from a 0/1 matrix (rows = transactions, columns = items)."""
        shape = getattr(matrix, "shape", None)
        matrix = [list(row) for row in matrix]
        if matrix:
            n_items = len(matrix[0])
        else:
            n_items = int(shape[1]) if shape is not None and len(shape) == 2 else 0
        if any(len(row) != n_items for row in matrix):
            raise ValueError("ragged matrix")
        bad = [v for row in matrix for v in row if v not in (0, 1, True, False)]
        if bad:
            raise ValueError(f"matrix entry {bad[0]!r} is not binary")
        return cls([[j for j, v in enumerate(row) if v] for row in matrix], n_items, tids)

    def __setattr__(self, name, value):
        raise AttributeError("TransactionDatabase is immutable")

    def __len__(self) -> int:
        return self._len

    # views derived on first use; cached_property writes the instance dict directly
    @cached_property
    def _positions(self) -> Sequence[int]:
        """Column position of each transaction, in order."""
        keep = self._keep
        return _ones(keep) if keep & (keep + 1) else range(self._len)

    @cached_property
    def tids(self) -> tuple[int, ...]:
        if self._len == len(self._all_tids):
            return self._all_tids
        return tuple(self._all_tids[p] for p in self._positions)

    @cached_property
    def _row_items(self) -> tuple[tuple[int, ...], ...]:
        slot = {p: j for j, p in enumerate(self._positions)}
        out = [[] for _ in slot]
        for i in sorted(self._cols):
            for p in _ones(self._cols[i] & self._keep):
                out[slot[p]].append(i)
        return tuple(map(tuple, out))

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Per-transaction bit rows (bit i set = item i present)."""
        return tuple(_bits(r) for r in self._row_items)

    @cached_property
    def _hash(self) -> int:
        return hash((self.n_items, self.tids, self._row_items))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransactionDatabase):
            return NotImplemented
        return ((self.n_items, self.tids, self._row_items) ==
                (other.n_items, other.tids, other._row_items))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"TransactionDatabase({len(self)} transactions, {self.n_items} items)"

    def row_items(self, idx: int) -> tuple[int, ...]:
        """Items of one transaction as a sorted tuple."""
        return self._row_items[idx]

    def subset(self, keep: Iterable[int]) -> "TransactionDatabase":
        """Sub-database of the given transaction indices, kept in database
        order; indices must lie in 0..len-1 and must not repeat."""
        keep = list(keep)
        if keep and not 0 <= min(keep) <= max(keep) < self._len:
            raise IndexError(f"transaction indices outside 0..{self._len - 1}")
        mask = _bits(keep)
        if mask.bit_count() != len(keep):
            raise ValueError("subset indices must not repeat")
        return self.subset_mask(mask)

    def subset_mask(self, mask: int) -> "TransactionDatabase":
        """Sub-database of the transactions whose bit is set in mask (bit j =
        transaction j). Tids and width are preserved; the tidsets are shared."""
        if mask < 0 or mask >> self._len:
            raise ValueError(f"keep-mask selects transactions outside 0..{self._len - 1}")
        if self._keep & (self._keep + 1):  # bit j moves to transaction j's column position
            mask = _bits([self._positions[j] for j in _ones(mask)])
        return TransactionDatabase.__new__(TransactionDatabase)._share(
            self._cols, mask, self.n_items, self._all_tids)

    def to_matrix(self):
        """Dense 0/1 numpy matrix of shape (len(self), n_items)."""
        import numpy as np

        m = np.zeros((len(self), self.n_items), dtype=np.uint8)
        for j, items in enumerate(self._row_items):
            m[j, list(items)] = 1
        return m

    def _item(self, i: int) -> int:
        if not 0 <= i < self.n_items:
            raise ValueError(f"item {i} outside 0..{self.n_items - 1}")
        return i

    def tidset(self, items: Iterable[int], absent: Iterable[int] = ()) -> int:
        """The counting primitive: the transactions holding every item of items and
        none of absent, as bits at column positions shared with sub-databases."""
        cols, t = self._cols, self._keep
        for i in items:
            t &= cols.get(self._item(i), 0)
        for i in absent:
            t &= ~cols.get(self._item(i), 0)
        return t

    def columns(self):
        """(item, tidset) pairs of the shared columns, one per item present."""
        return self._cols.items()


def parse_fimi(text: str) -> TransactionDatabase:
    """Parse whitespace-separated item-id lines (one transaction per line).

    Repeated items within a line collapse to one; blank lines are skipped.
    The item universe is 0..max_id seen anywhere in the file.
    """
    lines = text.splitlines()
    try:  # tokens stay strings until grouped: each distinct one is converted once
        return TransactionDatabase(toks for toks in map(str.split, lines) if toks)
    except ValueError as err:
        for lineno, line in enumerate(lines, start=1):  # report the first bad token
            for tok in line.split():
                try:
                    i = int(tok)
                except ValueError:
                    raise FimiParseError(lineno, f"non-integer item token {tok!r}") from None
                if i < 0:
                    raise FimiParseError(lineno, f"negative item id {i}") from None
        raise err


def load_fimi(path) -> TransactionDatabase:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_fimi(fh.read())


def parse_labels(text: str) -> dict[int, str]:
    """Parse an ``id<TAB>label`` sidecar into a dict."""
    labels = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t", 1)
        if len(parts) != 2:
            raise FimiParseError(lineno, "expected 'id<TAB>label'")
        try:
            idx = int(parts[0])
        except ValueError:
            raise FimiParseError(lineno, f"non-integer item id {parts[0]!r}") from None
        labels[idx] = parts[1].strip()
    return labels


def load_labels(path) -> dict[int, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_labels(fh.read())


def support(db: TransactionDatabase, items: Iterable[int]) -> int:
    """Number of transactions containing every item of the itemset."""
    return db.tidset(items).bit_count()


def generalized_support(db: TransactionDatabase, items: Sequence[int], values: Sequence[int]) -> int:
    """Number of transactions whose restriction to the itemset equals the 0/1 vector."""
    items = tuple(items)
    if len(values) != len(items):
        raise ValueError(f"value vector length {len(values)} != itemset size {len(items)}")
    if any(v not in (0, 1) for v in values):
        raise ValueError(f"value vector {tuple(values)!r} is not 0/1")
    return db.tidset([i for i, v in zip(items, values) if v],
                     [i for i, v in zip(items, values) if not v]).bit_count()


def one_zero_cells(db: TransactionDatabase, items: Sequence[int]) -> tuple[int, ...]:
    """For each item x of the itemset: count of transactions containing all the
    other items but not x. Entry order follows the (sorted) itemset."""
    items = canon_items(items)
    return tuple(db.tidset(items[:k] + items[k + 1:], (x,)).bit_count()
                 for k, x in enumerate(items))


class CellTable:
    """Counts of every 0/1 value vector over an itemset. Sums to |D|."""

    __slots__ = ("items", "counts")

    def __init__(self, items: tuple[int, ...], counts: dict[tuple[int, ...], int]):
        self.items = items
        self.counts = counts

    def __getitem__(self, values) -> int:
        return self.counts[tuple(values)]

    def __len__(self) -> int:
        return len(self.counts)

    def total(self) -> int:
        return sum(self.counts.values())

    def parity_split(self) -> tuple[list[int], list[int]]:
        """Cell counts split by parity of ones in the value vector: (odd, even)."""
        odd, even = [], []
        for v, c in self.counts.items():
            (odd if sum(v) % 2 else even).append(c)
        return odd, even


def cell_table(db: TransactionDatabase, items: Sequence[int],
               limit: int = CELL_WIDTH_LIMIT) -> CellTable:
    """Full table of generalized supports over all 2**|X| value vectors: the
    tidset split by each item's column in turn. CapacityError guards |X| > limit."""
    items = canon_items(items)
    m = len(items)
    if m > limit:
        raise CapacityError(f"cell table over {m} items exceeds the {limit}-item limit")
    cells = [db.tidset(())]
    for x in items:
        col = db.tidset((x,))
        cells = [c & ~col for c in cells] + [c & col for c in cells]
    # cell idx holds the vector with entry pos = bit pos of idx: reversed product()
    vectors = map(tuple, map(reversed, product((0, 1), repeat=m)))
    return CellTable(items, dict(zip(vectors, map(int.bit_count, cells))))
