"""The public API, pinned by name: adding or removing an export or a
TransactionDatabase attribute changes one line here, on purpose."""

import robustmine
from robustmine import TransactionDatabase

EXPORTS = [
    "CELL_WIDTH_LIMIT", "CapacityError", "ClosedCoefficients", "EQUAL",
    "EXHAUSTIVE_LIMIT", "FimiParseError", "GREATER", "LESS", "MinedItemset", "MiningConfig",
    "OrderKey", "PredicateKind", "RankedPattern", "SweepResult", "TransactionDatabase",
    "alpha_bound", "breakdown_vector", "canon_items", "cell_table", "closed_coefficients",
    "compare_keys", "compare_polynomials", "compare_sequences", "comparison_exact",
    "compliance", "dataset", "derivability_bounds", "evaluate_poly", "evaluate_predicate",
    "exhaustive_robustness", "expand", "experiments",
    "generalized_support", "is_closed", "is_free", "is_non_derivable", "is_totally_shattered",
    "load_fimi", "load_labels", "margin_vector", "mine_closed", "mine_robust", "mining",
    "monte_carlo_robustness", "ndi_polynomial", "noise_mix", "one_zero_cells", "oracle",
    "order_key", "ordering", "parameter_free_order", "parse_fimi", "parse_labels",
    "predicates", "rank", "rank_distance", "resolve_min_support", "robustness",
    "robustness_bucket_order", "score", "seq_diff", "support", "survival_probability",
    "sweep", "top_k",
]

DATABASE_ATTRIBUTES = [
    "columns", "holding", "indices", "n_items", "row_items", "subset", "subset_mask", "tids",
    "tidset",
]


def test_package_exports():
    assert sorted(robustmine.__all__) == EXPORTS


def test_transaction_database_attributes():
    db = TransactionDatabase([[0, 1], [2]])
    assert sorted(n for n in dir(db) if not n.startswith("_")) == DATABASE_ATTRIBUTES

