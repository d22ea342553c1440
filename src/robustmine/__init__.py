"""Robustness of itemset structure under random transaction deletion.

Mine free / closed / non-derivable / totally shattered itemsets from binary
transaction data, score exactly how well each property survives when every
transaction is kept independently with probability alpha, and rank itemsets
without fixing alpha at all.
"""

from .dataset import (CELL_WIDTH_LIMIT, CapacityError, FimiParseError, TransactionDatabase,
                      canon_items, cell_table, generalized_support, load_fimi, load_labels,
                      one_zero_cells, parse_fimi, parse_labels, support)
from .experiments import (SweepResult, compliance, noise_mix, parameter_free_order,
                          rank_distance, robustness_bucket_order, sweep)
from .mining import (MinedItemset, MiningConfig, RankedPattern, mine_closed, mine_robust,
                     resolve_min_support, top_k)
from .oracle import (EXHAUSTIVE_LIMIT, breakdown_vector, exhaustive_robustness,
                     monte_carlo_robustness)
from .ordering import (EQUAL, GREATER, LESS, ClosedCoefficients, OrderKey, alpha_bound,
                       closed_coefficients, compare_keys, compare_polynomials,
                       compare_sequences, comparison_exact, evaluate_poly, expand,
                       margin_vector, ndi_polynomial, order_key, rank, score, seq_diff)
from .predicates import (PredicateKind, derivability_bounds, evaluate_predicate,
                         is_closed, is_free, is_non_derivable, is_totally_shattered)
from .robustness import robustness, survival_probability

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
