"""Binary transaction databases stored by item, with exact support counting.

Each item present has one tidset: a Python int whose bit p is set when the
transaction at position p holds the item (Zaki's vertical layout). Every
count is an AND of tidsets and an ``int.bit_count()``, an exact integer. A
sub-database shares its parent's tidsets under a keep-mask of positions.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from collections.abc import Iterable, Sequence
from functools import cached_property

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
    """Positions of the set bits of a non-negative int, ascending. After one
    bin() the walk steps from one set bit to the next, so its Python work
    follows the ones, not the width."""
    digits = bin(x)[:1:-1]  # digit p is bit p
    out = []
    p = digits.find("1")
    while p >= 0:
        out.append(p)
        p = digits.find("1", p + 1)
    return out


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
        out = [[] for _ in range(self._len)]
        for i in sorted(self._cols):
            for j in self.indices(self._cols[i] & self._keep):
                out[j].append(i)
        return tuple(map(tuple, out))

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

    def holding(self, items: Iterable[int]) -> "TransactionDatabase":
        """Sub-database of the transactions holding every item of items: the
        conditional database of the itemset, tidsets shared."""
        return TransactionDatabase.__new__(TransactionDatabase)._share(
            self._cols, self.tidset(items), self.n_items, self._all_tids)

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

    def indices(self, bits: int) -> list[int]:
        """Transaction indices, ascending, of the set bits of a tidset of this database."""
        ones, keep = _ones(bits), self._keep
        return [bisect_left(self._positions, p) for p in ones] if keep & (keep + 1) else ones

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


def cell_table(db: TransactionDatabase, items: Sequence[int]) -> tuple[int, ...]:
    """Generalized supports of all 2**|X| value vectors over the sorted itemset,
    indexed by mask: entry idx counts the vector whose entry pos is bit pos of
    idx, and the entries sum to |D|. The tidset is split by each item's column
    in turn. CapacityError guards |X| > CELL_WIDTH_LIMIT."""
    items = canon_items(items)
    m = len(items)
    if m > CELL_WIDTH_LIMIT:
        raise CapacityError(
            f"cell table over {m} items exceeds the {CELL_WIDTH_LIMIT}-item limit")
    cells = [db.tidset(())]
    for x in items:
        col = db.tidset((x,))
        cells = [c & ~col for c in cells] + [c & col for c in cells]
    return tuple(map(int.bit_count, cells))
