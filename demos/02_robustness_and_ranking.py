"""
Robustness under transaction deletion, and the parameter-free ranking
=====================================================================

Keep each transaction independently with probability alpha and ask: what is
the probability the structural property still holds? Everything here is a
closed form, no sampling involved.
"""

from robustmine import (
    PredicateKind,
    alpha_bound,
    margin_vector,
    mine_closed,
    mine_robust,
    MiningConfig,
    parse_fimi,
    rank,
    robustness,
    seq_diff,
    top_k,
)

TOY = """\
4
1 3 4
0 1 2 3 4
1 3 4
0 1 2 3 4
0
"""

db = parse_fimi(TOY)

# robustness of freeness for {0,1} across the alpha range
print("alpha   r(free {0,1})   r(free {0,3})")
for i in range(0, 11):
    a = i / 10
    print(f" {a:.1f}      {robustness(db, (0, 1), PredicateKind.FREE, a):.4f}"
          f"          {robustness(db, (0, 3), PredicateKind.FREE, a):.4f}")

# the margin vector is the sorted list of cell counts that protect the
# property; fewer / smaller margins mean the property dies sooner
print()
print("margin of {0,1}:", margin_vector(db, (0, 1), PredicateKind.FREE))
print("margin of {0,3}:", margin_vector(db, (0, 3), PredicateKind.FREE))

# margins order itemsets without fixing alpha: compare lexicographically,
# smallest margin first. seq_diff says at which position they part ways
# and alpha_bound gives an alpha above which the order is provably stable.
d = seq_diff(margin_vector(db, (0, 1), PredicateKind.FREE),
             margin_vector(db, (0, 4), PredicateKind.FREE))
print("first differing margin position:", d)
print("order certified for alpha >", alpha_bound((0, 1), (0, 4), d, PredicateKind.FREE))

# rank the whole free family without choosing any alpha at all
free_sets = [m.items for m in mine_robust(db, MiningConfig(PredicateKind.FREE, 1.0))]
print()
print("free itemsets, most robust first:")
for items, key in rank(db, free_sets, PredicateKind.FREE):
    print(" ", items, " margins", key.describe())

# closed itemsets use inclusion-exclusion coefficients over the closed
# family instead of margins; the same rank() call handles it
fam = mine_closed(db)
print()
print("closed itemsets, most robust first:")
for items, key in rank(db, [x for x, _ in fam], PredicateKind.CLOSED,
                       closed_family=fam):
    print(" ", items, " coeffs", key.describe())

# mining with a robustness threshold: alpha = 1/3, keep whatever survives
# with probability at least 0.03
mined = mine_robust(db, MiningConfig(PredicateKind.TOTALLY_SHATTERED,
                                     alpha=1 / 3, rho=0.03))
print()
print("totally shattered at alpha=1/3 with r >= 0.03:")
for m in mined:
    print(f"  {m.items}  supp={m.support}  r={m.robustness:.6f}")

# or skip thresholds entirely and ask for the top k
print()
print("top 3 free itemsets:")
for p in top_k(db, PredicateKind.FREE, 3):
    print(f"  #{p.position} {p.items} supp={p.support}")
