"""
A first look at the toy database
================================

Six transactions over items 0..4. We walk through supports, generalized
supports, and the four structural predicates on this little database.
"""

from robustmine import (
    PredicateKind,
    cell_table,
    derivability_bounds,
    generalized_support,
    is_closed,
    is_free,
    is_non_derivable,
    is_totally_shattered,
    mine_closed,
    parse_fimi,
    support,
)

# FIMI format: one transaction per line, items separated by spaces
TOY = """\
4
1 3 4
0 1 2 3 4
1 3 4
0 1 2 3 4
0
"""

db = parse_fimi(TOY)
print(f"{len(db)} transactions over {db.n_items} items")
for i in range(len(db)):
    print(" ", db.row_items(i))

# plain support counts transactions containing every listed item
print()
print("support of {0}:", support(db, (0,)))
print("support of {0,4}:", support(db, (0, 4)))

# generalized support fixes a 1/0 pattern over the itemset: the vector
# (1, 0) below counts transactions containing item 0 but not item 4
print("transactions with 0 but not 4:", generalized_support(db, (0, 4), (1, 0)))

# the cell table collects all 2^|X| generalized supports at once, indexed
# by mask: bit 0 is item 0's value, bit 1 item 4's
cells = cell_table(db, (0, 4))
print("cell table for {0,4}:", {(m & 1, m >> 1): c for m, c in enumerate(cells)})

# a free itemset has no redundant item: dropping any single item
# changes the support
print()
print("is {0,4} free?", is_free(db, (0, 4)))
print("is {1,3} free?", is_free(db, (1, 3)))  # 1 and 3 always co-occur

# a closed itemset cannot be extended without losing support
print("closed itemsets:", mine_closed(db))
print("is {1,3,4} closed?", is_closed(db, (1, 3, 4)))

# derivability bounds come from inclusion-exclusion over subsets;
# when the bounds pin the support exactly the itemset is derivable
lo, hi = derivability_bounds(db, (0, 2))
print()
print("bounds on supp({0,2}):", (lo, hi), "actual", support(db, (0, 2)))
print("is {0,2} non-derivable?", is_non_derivable(db, (0, 2)))
lo, hi = derivability_bounds(db, (0, 1, 2))
print("bounds on supp({0,1,2}):", (lo, hi), "-> derivable")

# totally shattered means every one of the 2^|X| cells is hit
print()
print("is {0,4} totally shattered?", is_totally_shattered(db, (0, 4)))
print("is {0,2} totally shattered?", is_totally_shattered(db, (0, 2)))

# the closed family with supports is the input the closed-robustness
# computations need later on
print()
print("closed family with supports:")
for items, supp in mine_closed(db, 1):
    print(" ", items, supp)
