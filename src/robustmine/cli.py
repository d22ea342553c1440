"""Command line: mine, rank, verify, experiment.

Exit codes: 0 success, 1 input/verification failures, 2 bad arguments.
Output is TSV (tab-separated columns, itemsets as space-separated item ids)
or JSON carrying "schema_version": 1. Identical flags and seeds produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .dataset import FimiParseError, TransactionDatabase, load_fimi, load_labels
from .experiments import (compliance, noise_mix, parameter_free_order, rank_distance,
                          robustness_bucket_order, sweep)
from .mining import (MiningConfig, complete_closed_family, mine_closed, mine_robust,
                     resolve_min_support, top_k)
from .oracle import EXHAUSTIVE_LIMIT, exhaustive_robustness, monte_carlo_robustness
from .ordering import comparison_exact
# unused here, but perfbench's tracer test checks that this binding is restored
from .ordering import rank as rank_itemsets  # noqa: F401
from .predicates import PredicateKind
from .robustness import robustness

SCHEMA_VERSION = 1


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _min_support(text: str):
    """Absolute count, or (when strictly between 0 and 1) a fraction of |D|
    that is rounded up at mining time."""
    try:
        if any(ch in text for ch in ".eE"):
            return float(text)
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad min-support {text!r}") from None


def _grid(text: str) -> tuple[float, ...]:
    """Parse 'start:stop:step' or a comma-separated list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"bad range {text!r}, want start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise argparse.ArgumentTypeError(f"bad range {text!r}")
        n = round((stop - start) / step)
        return tuple(round(start + i * step, 12) for i in range(n + 1))
    return tuple(float(p) for p in text.split(","))


def _itemset(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad itemset {text!r}, want e.g. '0 3 4'") from None


def _alpha_in_range(args) -> float:
    if not 0.0 <= args.alpha <= 1.0:
        raise CliError(2, f"--alpha must be in [0, 1], got {args.alpha}")
    return args.alpha


def _load_db(args) -> TransactionDatabase:
    try:
        return load_fimi(args.input)
    except FimiParseError as e:
        raise CliError(1, f"cannot parse {args.input}: {e}") from None
    except OSError as e:
        raise CliError(1, f"cannot read {args.input}: {e}") from None


def _emit(args, text: str) -> None:
    if getattr(args, "output", None) and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_records(args, command: str, params: dict, records, header: str, tsv_row) -> None:
    """A JSON document of the records, or a TSV header line and tsv_row(r) per record."""
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": command,
               "parameters": params, "records": records}
        _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        _emit(args, "\n".join([header] + [tsv_row(r) for r in records]) + "\n")


def _items_str(items, labels=None) -> str:
    if labels:
        return " ".join(labels.get(i, str(i)) for i in items)
    return " ".join(str(i) for i in items)


def cmd_mine(args) -> int:
    kind = PredicateKind.parse(args.predicate)
    if kind is PredicateKind.CLOSED:
        raise CliError(2, "closed mining is not robustness-thresholded; use the rank command")
    alpha = _alpha_in_range(args)
    if not 0.0 <= args.rho <= 1.0:
        raise CliError(2, f"--rho must be in [0, 1], got {args.rho}")
    db = _load_db(args)
    config = MiningConfig(kind, alpha=alpha, rho=args.rho, min_support=args.min_support,
                          max_size=args.max_size, include_empty=args.include_empty)
    records = [{"items": list(m.items), "support": m.support, "robustness": m.robustness}
               for m in mine_robust(db, config)]
    _emit_records(args, "mine", {"predicate": kind.value, "alpha": alpha, "rho": args.rho,
                                 "min_support": resolve_min_support(args.min_support, len(db)),
                                 "input": str(args.input)}, records,
                  "# itemset\tsupport\trobustness",
                  lambda r: f"{_items_str(r['items'])}\t{r['support']}\t{_fmt(r['robustness'])}")
    return 0


def cmd_rank(args) -> int:
    kind = PredicateKind.parse(args.predicate)
    if args.top_k < 1:
        raise CliError(2, f"--top-k must be >= 1, got {args.top_k}")
    db = _load_db(args)
    labels = None
    if args.labels:
        try:
            labels = load_labels(args.labels)
        except (FimiParseError, OSError) as e:
            raise CliError(1, f"cannot read labels {args.labels}: {e}") from None
    ranked = top_k(db, kind, args.top_k, min_support=args.min_support,
                   min_size=args.min_size, max_size=args.max_size,
                   include_empty=args.include_empty)
    closed = kind is PredicateKind.CLOSED
    records = []
    for i, rec in enumerate(ranked):
        row = {"rank": rec.position, "items": list(rec.items),
               "support": rec.support, "key": rec.key.describe()}
        if labels:
            row["labels"] = [labels.get(j, str(j)) for j in rec.items]
        if closed:
            # a row is exact unless the comparison placing it below its predecessor
            # hinged on a coefficient outside the mined support range
            row["exact"] = i == 0 or comparison_exact(ranked[i - 1].key, rec.key)
        records.append(row)

    def tsv_row(r) -> str:
        row = f"{r['rank']}\t{_items_str(r['items'], labels)}\t{r['support']}\t{r['key']}"
        return row + ("\t" + ("exact" if r["exact"] else "estimated") if closed else "")

    _emit_records(args, "rank", {"predicate": kind.value, "top_k": args.top_k,
                                 "min_support": resolve_min_support(args.min_support, len(db)),
                                 "input": str(args.input)}, records,
                  "# rank\titemset\tsupport\tkey" + ("\texact" if closed else ""), tsv_row)
    return 0


def cmd_verify(args) -> int:
    kind = PredicateKind.parse(args.predicate)
    alpha = _alpha_in_range(args)
    db = _load_db(args)
    items = args.itemset
    for i in items:
        if not 0 <= i < db.n_items:
            universe = f"0..{db.n_items - 1}" if db.n_items else "(the database has no items)"
            raise CliError(2, f"item {i} outside the database universe {universe}")
    family = complete_closed_family(db) if kind is PredicateKind.CLOSED else None
    analytic = robustness(db, items, kind, alpha, closed_family=family)
    lines = [f"analytic\t{_fmt(analytic)}"]
    if args.method == "exhaustive":
        if len(db) > EXHAUSTIVE_LIMIT:
            raise CliError(2, f"{len(db)} transactions exceed the exhaustive guard of "
                              f"{EXHAUSTIVE_LIMIT}; rerun with --method mc")
        reference = exhaustive_robustness(db, items, kind, alpha)
        tolerance = 1e-9
        lines.append(f"exhaustive\t{_fmt(reference)}")
    else:
        reference, stderr = monte_carlo_robustness(db, items, kind, alpha,
                                                   args.samples, args.seed)
        tolerance = 5.0 * stderr
        if not stderr and analytic != reference:
            # an estimate of exactly 0 or 1 has stderr 0, which fails on float
            # noise: use the spread of the add-one estimate (hits + 1) / (n + 2)
            p = (reference * args.samples + 1.0) / (args.samples + 2.0)
            tolerance = 5.0 * math.sqrt(p * (1.0 - p) / args.samples)
        lines.append(f"monte-carlo\t{_fmt(reference)}")
        lines.append(f"stderr\t{_fmt(stderr)}")
    diff = abs(analytic - reference)
    ok = diff <= tolerance
    lines.append(f"difference\t{_fmt(diff)}")
    lines.append(f"verdict\t{'PASS' if ok else 'FAIL'} (tolerance {_fmt(tolerance)})")
    _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 1


def cmd_experiment_sweep(args) -> int:
    kind = PredicateKind.parse(args.predicate)
    db = _load_db(args)
    try:
        result = sweep(db, kind, args.alphas, args.rhos, min_support=args.min_support)
    except ValueError as e:
        raise CliError(2, str(e)) from None
    _emit_records(args, "experiment sweep",
                  {"predicate": kind.value, "alphas": list(result.alphas),
                   "rhos": list(result.rhos), "input": str(args.input)},
                  [{"alpha": a, "rho": r, "count": c} for a, r, c in result.rows()],
                  "# alpha\trho\tcount",
                  lambda r: f"{_fmt(r['alpha'])}\t{_fmt(r['rho'])}\t{r['count']}")
    return 0


def cmd_experiment_noise(args) -> int:
    if not 0.0 <= args.eta <= 1.0:
        raise CliError(2, f"--eta must be in [0, 1], got {args.eta}")
    db = _load_db(args)
    tau = max(1, resolve_min_support(args.min_support, len(db)))
    original = [rec.items for rec in
                top_k(db, PredicateKind.CLOSED, 1 << 30, min_support=tau)][: args.top_k or None]
    noisy = [rec.items for rec in
             top_k(noise_mix(db, args.eta, args.seed), PredicateKind.CLOSED, 1 << 30,
                   min_support=tau)]
    scores = compliance(original, noisy)
    noisy_pos = {items: j for j, items in enumerate(noisy, start=1)}
    records = [{"position": i, "items": list(items),
                "noisy_position": noisy_pos.get(items), "compliance": s}
               for i, (items, s) in enumerate(zip(original, scores), start=1)]
    _emit_records(args, "experiment noise", {"eta": args.eta, "seed": args.seed,
                                             "min_support": tau, "input": str(args.input)},
                  records, "# position\titemset\tnoisy_position\tcompliance",
                  lambda r: f"{r['position']}\t{_items_str(r['items'])}\t"
                            f"{r['noisy_position'] or '-'}\t{_fmt(r['compliance'])}")
    return 0


def cmd_experiment_rank_distance(args) -> int:
    kind = PredicateKind.parse(args.predicate)
    alpha = _alpha_in_range(args)
    db = _load_db(args)
    tau = resolve_min_support(args.min_support, len(db))
    family = None
    if kind is PredicateKind.CLOSED:
        family = mine_closed(db, max(tau, 1))
        members = [items for items, _ in family]
    else:
        members = [rec.items for rec in top_k(db, kind, k=1 << 30, min_support=tau,
                                              include_empty=args.include_empty)]
    if len(members) < 2:
        raise CliError(2, f"only {len(members)} itemsets pass the filters; "
                          "distance needs at least two")
    buckets = robustness_bucket_order(db, members, kind, alpha, closed_family=family)
    order = parameter_free_order(db, members, kind, closed_family=family)
    try:
        dist = rank_distance(buckets, order)
    except ValueError as e:
        raise CliError(2, str(e)) from None
    _emit_records(args, "experiment rank-distance",
                  {"predicate": kind.value, "alpha": alpha, "min_support": tau,
                   "itemsets": len(members), "input": str(args.input)},
                  [{"distance": dist}], "# predicate\talpha\tdistance",
                  lambda r: f"{kind.value}\t{_fmt(alpha)}\t{_fmt(r['distance'])}")
    return 0


def _add_common(p, with_format=True):
    p.add_argument("--input", required=True, help="transaction file, one line per transaction")
    if with_format:
        p.add_argument("--format", choices=("tsv", "json"), default="tsv",
                       help="output format (default tsv)")
        p.add_argument("--output", default="-", help="output path, '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="robustmine",
        description="Mine itemsets from binary transaction data and score how "
                    "robust their structural properties are when transactions "
                    "are deleted at random.")
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("mine", help="mine itemsets passing support and robustness thresholds")
    _add_common(m)
    m.add_argument("--predicate", required=True, choices=("free", "ndi", "ts", "closed"),
                   help="property to mine (closed is rejected: use the rank command)")
    m.add_argument("--alpha", type=float, required=True,
                   help="per-transaction keep probability in [0, 1]")
    m.add_argument("--rho", type=float, default=0.0,
                   help="minimum robustness in [0, 1] (default 0: the whole family)")
    m.add_argument("--min-support", type=_min_support, default=1, metavar="N|F",
                   help="absolute count, or fraction of |D| (0 < F < 1) rounded up")
    m.add_argument("--max-size", type=int, default=None, help="largest itemset size")
    m.add_argument("--include-empty", action="store_true",
                   help="also report the empty itemset when it qualifies")
    m.set_defaults(func=cmd_mine)

    r = sub.add_parser("rank", help="rank a predicate family, most robust first, without alpha")
    _add_common(r)
    r.add_argument("--predicate", required=True, choices=("free", "ndi", "ts", "closed"))
    r.add_argument("--top-k", type=int, default=10, help="rows to report (default 10)")
    r.add_argument("--min-support", type=_min_support, default=1, metavar="N|F",
                   help="absolute count, or fraction of |D| (0 < F < 1) rounded up")
    r.add_argument("--min-size", type=int, default=0, help="smallest itemset size")
    r.add_argument("--max-size", type=int, default=None, help="largest itemset size")
    r.add_argument("--include-empty", action="store_true",
                   help="let the empty itemset compete (free/ndi/ts)")
    r.add_argument("--labels", default=None, help="optional 'id<TAB>label' sidecar")
    r.set_defaults(func=cmd_rank)

    v = sub.add_parser("verify", help="check one analytic score against an oracle")
    _add_common(v, with_format=False)
    v.add_argument("--itemset", type=_itemset, required=True, help="e.g. '0 3 4'")
    v.add_argument("--predicate", required=True, choices=("free", "ndi", "ts", "closed"))
    v.add_argument("--alpha", type=float, required=True)
    v.add_argument("--method", choices=("exhaustive", "mc"), default="exhaustive")
    v.add_argument("--samples", type=int, default=100000, help="mc sample count")
    v.add_argument("--seed", type=int, default=0, help="mc seed")
    v.add_argument("--output", default="-", help="output path, '-' for stdout")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("experiment", help="reproducible experiment protocols")
    esub = e.add_subparsers(dest="experiment", required=True)

    s = esub.add_parser("sweep", help="mined-itemset counts over an (alpha, rho) grid")
    _add_common(s)
    s.add_argument("--predicate", required=True, choices=("free", "ndi", "ts"))
    s.add_argument("--alphas", type=_grid, default=_grid("0.1:0.9:0.1"),
                   metavar="A:B:STEP|LIST", help="alpha grid (default 0.1:0.9:0.1)")
    s.add_argument("--rhos", type=_grid, default=_grid("0.1:0.9:0.1"),
                   metavar="A:B:STEP|LIST", help="rho grid (default 0.1:0.9:0.1)")
    s.add_argument("--min-support", type=_min_support, default=1, metavar="N|F")
    s.set_defaults(func=cmd_experiment_sweep)

    nz = esub.add_parser("noise", help="closed-ranking stability under synthetic noise")
    _add_common(nz)
    nz.add_argument("--eta", type=float, required=True,
                    help="per-entry mixing probability in [0, 1]")
    nz.add_argument("--seed", type=int, default=0)
    nz.add_argument("--min-support", type=_min_support, default=1, metavar="N|F")
    nz.add_argument("--top-k", type=int, default=0,
                    help="limit compliance report to the first K rows (0 = all)")
    nz.set_defaults(func=cmd_experiment_noise)

    rd = esub.add_parser("rank-distance",
                         help="discordance between alpha-based and parameter-free rankings")
    _add_common(rd)
    rd.add_argument("--predicate", required=True, choices=("free", "ndi", "ts", "closed"))
    rd.add_argument("--alpha", type=float, required=True)
    rd.add_argument("--min-support", type=_min_support, default=1, metavar="N|F")
    rd.add_argument("--include-empty", action="store_true")
    rd.set_defaults(func=cmd_experiment_rank_distance)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (CliError, OSError, ValueError) as e:
        print(f"robustmine: error: {e}", file=sys.stderr)
        if isinstance(e, CliError):
            return e.code
        # unreadable or malformed input exits 1; capacity and other bad values exit 2
        return 1 if isinstance(e, (FimiParseError, OSError)) else 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
