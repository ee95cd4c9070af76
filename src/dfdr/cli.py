"""Command-line front end: analyze real data, run simulations, reproduce
the reference analysis of the public ALL/AML leukemia dataset.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
All randomness flows from --seed; repeated runs with identical flags and seed
produce byte-identical output files.

Every output file prints a float with 12 significant digits (``%.12g``),
infinities as ``inf``/``-inf`` and NaN as ``nan``; integers print bare and
booleans as ``true``/``false``. ``tests.csv`` and ``curve.csv`` are formatted
a whole row at a time, from the same ``NUMBER`` spec as every other value.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from dfdr import __version__
from dfdr.data import DataMatrix, load_matrix, preprocess
from dfdr.decision import (
    DecisionResult,
    Subset,
    SubsetPartition,
    common_threshold_weighted,
    control_dfdr,
    control_dfdr_pvalues,
    maximize_desirability,
    maximize_desirability_pvalues,
    per_subset_optimize,
)
from dfdr.errors import (
    DfdrError,
    ParseError,
    UsageError,
    ValidationError,
)
from dfdr.estimators import (
    CostBenefit,
    Pi0Estimate,
    estimate_pi0_from_pvalues,
    p_to_cost_ratio,
    resolve_pi0,
)
from dfdr.resampling import PermutationPlan, build_statistic_set, check_null_fits
from dfdr.simulation import (
    DesirabilityRule,
    DfdrControlRule,
    SimulationConfig,
    boundary_offset,
    measure_error_rates,
    measure_local_dfdr,
    worker_count,
)
from dfdr.stats import validate_pvalues

GOLUB_GUIDANCE = """\
The reference reproduction needs the public Golub et al. (1999) ALL/AML
leukemia microarray data, which is not bundled here. To run it:
  1. Download the raw "average difference" expression table (7129 genes,
     train + independent subjects) from the Broad Institute's public
     cancer-program data page for the 1999 molecular classification study.
  2. Convert it to a tab-separated matrix: header row of subject ids, one
     leading feature-id column, one numeric cell per gene x subject.
  3. Write a two-column labels file (subject id <TAB> group tag) using tags
     ALL / AML, plus TALL for the T-lineage ALL subjects if you want the
     two-comparison example (--group-t TALL).
Then re-run: dfdr reproduce --matrix <matrix.tsv> --labels <labels.tsv> ...
"""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# The one float format of every output file; the row templates and _fmt are
# built from it so they cannot drift apart. It prints every NaN as "nan".
NUMBER = "%.12g"
TESTS_ROW = f"%s,{NUMBER},%d\n"
CURVE_ROW = f"{NUMBER},{NUMBER},{NUMBER},%d\n"
COMPARISON_ROW = f"%s,%s,{NUMBER},{NUMBER},{NUMBER}\n"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return NUMBER % x
    return str(x)


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _table(header: str, row_format: str, columns) -> str:
    """The header line, then ``row_format % row`` for each row of the zipped columns."""
    return header + "\n" + "".join(map(row_format.__mod__, zip(*columns)))


def build_parser() -> _Parser:
    parser = _Parser(prog="dfdr", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"dfdr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="threshold selection on real data")
    pa.add_argument("--matrix", help="tab-separated feature x subject matrix")
    pa.add_argument("--labels", help="two-column subject/group labels file")
    pa.add_argument("--group-a", help="first group tag")
    pa.add_argument("--group-b", help="second group tag")
    pa.add_argument("--pvalues", help="one-column p-value file (alternative input)")
    pa.add_argument("--mode", choices=("maximize", "control"), default="maximize")
    pa.add_argument("--cost-ratio", type=float, help="cost of a false discovery per unit benefit")
    pa.add_argument("--p-threshold", type=float, help="probability threshold; implies cost ratio 1/p - 1")
    pa.add_argument("--alpha", type=float, help="dFDR bound for control mode (default 0.05)")
    pa.add_argument("--permutations", type=int, default=1000, help="label permutations (default 1000)")
    pa.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    pa.add_argument("--pi0", default="estimate", help='"estimate", "one", or a number in [0, 1]')
    pa.add_argument("--preprocess", action="store_true", help="median-normalize and log-transform first")
    pa.add_argument("--subsets", help="per-subset comparisons/costs file (maximize mode)")
    pa.add_argument("--min-subset-size", type=int, default=50,
                    help="smallest subset usable for estimation (default 50)")
    pa.add_argument("--weights", help="per-test benefit/cost file for a common weighted threshold")
    pa.add_argument("--out", required=True, help="output directory")

    ps = sub.add_parser("simulate", help="measure realized error rates on synthetic data")
    ps.add_argument("--m", type=int, default=2000, help="number of tests (default 2000)")
    ps.add_argument("--pi0-true", type=float, default=0.8, help="true null proportion (default 0.8)")
    ps.add_argument("--delta", type=float, default=2.0, help="alternative mean shift (default 2)")
    ps.add_argument("--n-a", type=int, default=10)
    ps.add_argument("--n-b", type=int, default=10)
    ps.add_argument("--replicates", type=int, default=200)
    ps.add_argument("--permutations", type=int, default=25)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--truth-mode", choices=("fixed", "random"), default="fixed")
    ps.add_argument("--block-size", type=int, default=1, help="equicorrelated block size (1 = independent)")
    ps.add_argument("--block-rho", type=float, default=0.0, help="within-block correlation")
    ps.add_argument("--mode", choices=("maximize", "control"), default="maximize")
    ps.add_argument("--cost-ratio", type=float)
    ps.add_argument("--p-threshold", type=float)
    ps.add_argument("--alpha", type=float)
    ps.add_argument("--pi0", default="estimate")
    ps.add_argument("--boundary-fraction", type=float, default=0.05,
                    help="share of rejections in the boundary bin (default 0.05)")
    ps.add_argument("--out", required=True)

    pr = sub.add_parser("reproduce", help="reference ALL/AML analysis, all four configurations")
    pr.add_argument("--matrix", required=True)
    pr.add_argument("--labels", required=True)
    pr.add_argument("--group-a", default="ALL")
    pr.add_argument("--group-b", default="AML")
    pr.add_argument("--group-t", help="third group tag for the two-comparison example")
    pr.add_argument("--permutations", type=int, default=1000)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", required=True)
    return parser


def _parse_pi0_mode(text: str):
    if text in ("estimate", "one"):
        return text
    try:
        return float(text)
    except ValueError:
        raise UsageError(
            f'--pi0 must be "estimate", "one", or a number, got {text!r}'
        ) from None


# analyze flags of the matrix route, which --pvalues replaces
MATRIX_FLAGS = ("matrix", "labels", "group_a", "group_b", "subsets", "weights", "preprocess")
# The range of each numeric flag, checked wherever the flag is given.
RANGES = {
    "cost_ratio": (lambda v: 0.0 <= v < math.inf, "must be nonnegative and finite"),
    "p_threshold": (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    "alpha": (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "replicates": (lambda v: v >= 1, "must be >= 1"),
    "boundary_fraction": (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
}


def _opt(name: str) -> str:
    return "--" + name.replace("_", "-")


def _check_flags(args) -> None:
    """Raise the UsageError of the first rule in the table that the flags break.

    One table of flag rules for analyze and simulate, checked before any
    input is read or output written. A flag is given unless it is None, or
    False for a switch.
    """
    given = {k for k, v in vars(args).items() if v is not None and v is not False}
    matrix_route = args.command == "analyze" and "pvalues" not in given
    table = "subsets" if "subsets" in given else "weights"
    costs = {"cost_ratio", "p_threshold"}
    rules = [
        *((f in given and "pvalues" in given, f"{_opt(f)} cannot be combined with --pvalues")
          for f in MATRIX_FLAGS),
        (matrix_route and not {"matrix", "labels"} <= given,
         "analyze needs --matrix and --labels (or --pvalues)"),
        (matrix_route and not {"group_a", "group_b"} <= given,
         "analyze needs --group-a and --group-b"),
        ({"subsets", "weights"} <= given, "give only one of --subsets and --weights"),
        (matrix_route and args.permutations < 1, "--permutations must be >= 1"),
        (table in given and args.mode != "maximize", f"--{table} supports maximize mode only"),
        (table in given and given & (costs | {"alpha"}),
         f"--{table} takes costs and benefits from the {table} file"),
        (args.mode == "control" and given & costs,
         "--cost-ratio/--p-threshold apply to maximize mode only"),
        (args.mode == "maximize" and "alpha" in given, "--alpha applies to control mode only"),
        (costs <= given, "give only one of --cost-ratio and --p-threshold"),
        *((f in given and not ok(getattr(args, f)), f"{_opt(f)} {why}")
          for f, (ok, why) in RANGES.items()),
    ]
    for broken, message in rules:
        if broken:
            raise UsageError(message)


def _rule_from_args(args) -> tuple[float, list[tuple[str, object]]]:
    """The decision rule's parameter, with its summary field.

    Maximize: the cost ratio, --cost-ratio or 1/p - 1 for --p-threshold p
    (default p = 0.05). Control: the dFDR bound --alpha (default 0.05).
    """
    if args.mode == "control":
        alpha = 0.05 if args.alpha is None else args.alpha
        return alpha, [("alpha", alpha)]
    ratio = args.cost_ratio
    if ratio is None:
        ratio = p_to_cost_ratio(0.05 if args.p_threshold is None else args.p_threshold)
    return ratio, [("cost_ratio", ratio)]


def _write_decision_outputs(
    outdir: Path,
    ids: list[str],
    values: np.ndarray,
    result: DecisionResult,
    fields: list[tuple[str, object]],
    stem: str = "",
) -> None:
    """tests, curve and summary of one decision; ``fields`` open the summary."""
    suffix = f"_{stem}" if stem else ""
    flags = np.zeros(len(ids), dtype=np.int8)
    flags[np.fromiter(result.rejected, dtype=np.intp, count=len(result.rejected))] = 1
    tests = (ids, values.tolist(), flags.tolist())
    c = result.curve
    curve = [a.tolist() for a in (c.tau, c.desirability, c.dfdr, c.discoveries)]
    _write_atomic(
        outdir / f"tests{suffix}.csv", _table("feature_id,statistic,rejected", TESTS_ROW, tests)
    )
    _write_atomic(
        outdir / f"curve{suffix}.csv", _table("tau,desirability,dfdr,discoveries", CURVE_ROW, curve)
    )
    pi0 = result.pi0
    fields = fields + [
        ("pi0_mode", pi0.mode),
        ("lambda", pi0.lam),
        ("pi0", pi0.value),
        ("tau", result.tau),
        ("discoveries", result.n_rejected),
        ("dfdr", result.dfdr),
        ("desirability", result.desirability),
    ]
    _write_atomic(outdir / f"summary{suffix}.txt", "".join(f"{k}\t{_fmt(v)}\n" for k, v in fields))


def _read_table(path, header: list[str]) -> list[tuple[int, list[str]]]:
    """(row number, fields) for each row of a tab-separated file after its header."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    expected = "<TAB>".join(header)
    if not lines:
        raise ParseError(f"{path}: empty file, expected the header {expected!r}")
    if [c.strip() for c in lines[0].split("\t")] != header:
        raise ParseError(f"{path}: header must be {expected!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = [c.strip() for c in line.split("\t")]
        if len(fields) != len(header):
            raise ParseError(
                f"{path}: row {lineno}: expected {len(header)} fields, got {len(fields)}"
            )
        rows.append((lineno, fields))
    return rows


def _load_subsets(path, matrix: DataMatrix, min_size: int) -> SubsetPartition:
    """Subsets file: feature_id, subset, group_a, group_b, benefit, cost."""
    rows: dict[str, dict] = {}
    feature_index = {fid: i for i, fid in enumerate(matrix.feature_ids)}
    header = ["feature_id", "subset", "group_a", "group_b", "benefit", "cost"]
    for lineno, (fid, name, ga, gb, b, c) in _read_table(path, header):
        if fid not in feature_index:
            raise ValidationError(f"{path}: row {lineno}: unknown feature id {fid!r}")
        try:
            b, c = float(b), float(c)
        except ValueError:
            raise ParseError(f"{path}: row {lineno}: non-numeric benefit or cost") from None
        entry = rows.setdefault(name, {"params": (ga, gb, b, c), "features": []})
        if entry["params"] != (ga, gb, b, c):
            raise ValidationError(
                f"{path}: subset {name!r} has inconsistent groups or costs"
            )
        entry["features"].append(feature_index[fid])
    subsets = tuple(
        Subset(name, tuple(entry["features"]), *entry["params"]) for name, entry in rows.items()
    )
    return SubsetPartition(subsets=subsets, min_size=min_size)


def _load_weights(path, matrix: DataMatrix) -> CostBenefit:
    """Weights file: feature_id, benefit, cost (tab-separated, one header row)."""
    by_id: dict[str, tuple[int, float, float]] = {}
    for lineno, (fid, b, c) in _read_table(path, ["feature_id", "benefit", "cost"]):
        if fid in by_id:
            raise ParseError(f"{path}: rows {by_id[fid][0]} and {lineno} both give feature {fid!r}")
        try:
            by_id[fid] = (lineno, float(b), float(c))
        except ValueError:
            raise ParseError(f"{path}: row {lineno}: non-numeric benefit or cost") from None
    missing = [fid for fid in matrix.feature_ids if fid not in by_id]
    if missing:
        raise ValidationError(f"{path}: no weights for feature {missing[0]!r}")
    benefits = np.array([by_id[fid][1] for fid in matrix.feature_ids])
    costs = np.array([by_id[fid][2] for fid in matrix.feature_ids])
    return CostBenefit(benefits, costs)


def run_analyze(args) -> int:
    _check_flags(args)
    pi0_mode = _parse_pi0_mode(args.pi0)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.pvalues is not None:
        return _analyze_pvalues(args, outdir, pi0_mode)

    matrix = load_matrix(args.matrix, args.labels)
    if args.preprocess:
        matrix = preprocess(matrix)
    plan = PermutationPlan(n_permutations=args.permutations, seed=args.seed)

    base_fields = [
        ("command", "analyze"),
        ("mode", args.mode),
        ("m", matrix.n_features),
        ("permutations", args.permutations),
        ("seed", args.seed),
        ("preprocess", args.preprocess),
    ]

    if args.subsets is not None:
        partition = _load_subsets(args.subsets, matrix, args.min_subset_size)
        check_null_fits(matrix.values.shape, args.permutations)
        decisions = per_subset_optimize(partition, matrix, plan, pi0_mode)
        for sd in decisions:
            subset, result = sd.subset, sd.result
            sub_ids = [matrix.feature_ids[i] for i in subset.feature_indices]
            fields = base_fields + [
                ("subset", subset.name),
                ("group_a", subset.group_a),
                ("group_b", subset.group_b),
                ("benefit", subset.benefit),
                ("cost", subset.cost),
            ]
            _write_decision_outputs(outdir, sub_ids, sd.observed, result, fields, stem=subset.name)
        return 0

    # the weights before the null, whose summary holds their sums
    cb = None if args.weights is None else _load_weights(args.weights, matrix)
    weights = None if cb is None else cb.weights
    check_null_fits(matrix.values.shape, args.permutations)
    stats = build_statistic_set(matrix, args.group_a, args.group_b, plan, weights)
    base_fields += [("group_a", args.group_a), ("group_b", args.group_b)]

    if cb is not None:
        pi0 = resolve_pi0(stats, pi0_mode, weights)
        result = common_threshold_weighted(stats, weights, cb.benefits, pi0)
        fields = base_fields + [("weighted", True)]
    else:
        pi0 = resolve_pi0(stats, pi0_mode)
        value, rule_fields = _rule_from_args(args)
        if args.mode == "maximize":
            result = maximize_desirability(stats, pi0, CostBenefit.from_ratio(value))
        else:
            result = control_dfdr(stats, pi0, value)
        fields = base_fields + rule_fields
    _write_decision_outputs(outdir, list(matrix.feature_ids), stats.observed, result, fields)
    return 0


def _read_pvalues(path) -> list[float]:
    """The values of the non-blank lines; row numbers in errors count every line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    try:
        return list(map(float, filter(str.strip, lines)))
    except ValueError:
        # name the first non-blank line that float() rejects
        for lineno, line in enumerate(lines, start=1):
            if line.strip():
                try:
                    float(line)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {lineno}: non-numeric p-value {line.strip()!r}"
                    ) from None
        raise


def _analyze_pvalues(args, outdir: Path, pi0_mode) -> int:
    pvals = validate_pvalues(_read_pvalues(args.pvalues))
    if pi0_mode == "estimate":
        pi0 = estimate_pi0_from_pvalues(pvals)
    else:
        pi0 = resolve_pi0(pvals, pi0_mode)
    value, rule_fields = _rule_from_args(args)
    if args.mode == "maximize":
        result = maximize_desirability_pvalues(pvals, pi0, CostBenefit.from_ratio(value))
    else:
        result = control_dfdr_pvalues(pvals, pi0, value)
    fields = [
        ("command", "analyze"),
        ("mode", args.mode),
        ("input", "pvalues"),
        ("m", pvals.n_tests),
        ("seed", args.seed),
    ]
    digits = len(str(pvals.n_tests))
    ids = list(map(f"p%0{digits}d".__mod__, range(pvals.n_tests)))
    _write_decision_outputs(outdir, ids, pvals.pvalues, result, fields + rule_fields)
    return 0


def run_simulate(args) -> int:
    _check_flags(args)
    pi0_mode = _parse_pi0_mode(args.pi0)

    config = SimulationConfig(
        n_tests=args.m,
        pi0=args.pi0_true,
        n_a=args.n_a,
        n_b=args.n_b,
        effect=args.delta,
        n_permutations=args.permutations,
        replicates=args.replicates,
        seed=args.seed,
        truth_mode=args.truth_mode,
        block_size=args.block_size,
        block_rho=args.block_rho,
    )
    # one replicate's matrix and permutations in each process at a time
    check_null_fits(
        (config.n_tests, config.n_a + config.n_b),
        config.n_permutations,
        at_once=worker_count(config.replicates),
    )
    value, rule_fields = _rule_from_args(args)
    if args.mode == "maximize":
        bound = 1.0 / (1.0 + value)
        rule = DesirabilityRule(cost_ratio=value, pi0_mode=pi0_mode)
    else:
        bound = value
        rule = DfdrControlRule(alpha=value, pi0_mode=pi0_mode)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report = measure_error_rates(config, rule)

    lines: list[tuple[str, object]] = [
        ("command", "simulate"),
        ("m", config.n_tests),
        ("pi0_true", config.pi0),
        ("delta", config.effect),
        ("n_a", config.n_a),
        ("n_b", config.n_b),
        ("replicates", config.replicates),
        ("permutations", config.n_permutations),
        ("seed", config.seed),
        ("truth_mode", config.truth_mode),
        ("block_size", config.block_size),
        ("block_rho", config.block_rho),
    ]
    lines += [("rule", args.mode), *rule_fields, ("bound", bound)]
    lines += [
        ("fdr", report.fdr),
        ("fdr_se", report.fdr_se),
        ("pfdr", "undefined" if report.pfdr is None else report.pfdr),
        ("pfp", "undefined" if report.pfp is None else report.pfp),
        ("dfdr", report.dfdr),
        ("conditional_prob", "undefined" if report.conditional_prob is None else report.conditional_prob),
        ("total_rejections", report.total_rejections),
        ("total_false_rejections", report.total_false_rejections),
        ("replicates_with_rejections", report.replicates_with_rejections),
    ]

    # (check, realized rate, rejections behind it): a rate passes within three
    # binomial standard errors of the bound; with no rejection the rate is 0
    checks = [("pooled_bound", report.dfdr, report.total_rejections)]
    if report.total_rejections > 0:
        try:
            h = boundary_offset(report.outcomes, args.boundary_fraction)
        except ValidationError:
            # every rejection sits exactly at its threshold: no boundary bin
            # narrower than the whole region exists
            h = None
        if h is not None:
            boundary = measure_local_dfdr(report.outcomes, [h])[0]
            lines += [
                ("boundary_offset", h),
                ("boundary_rejections", boundary.rejections),
                ("boundary_rate", boundary.rate),
            ]
            if boundary.rejections > 0:
                checks.append(("boundary_bound", boundary.rate, boundary.rejections))

    text = "".join(f"{k}\t{_fmt(v)}\n" for k, v in lines)
    for name, actual, n in checks:
        limit = bound + 3.0 * math.sqrt(bound * (1.0 - bound) / n) if n else bound
        verdict = "PASS" if actual <= limit else "FAIL"
        text += f"check\t{name}\t{verdict}\tactual={_fmt(actual)}\tlimit={_fmt(limit)}\n"
    _write_atomic(outdir / "report.txt", text)
    print(text, end="")
    return 0


REFERENCE_RESULTS = {
    ("maximize", "estimate"): {"tau": 3.14, "discoveries": 910, "dfdr": 0.0125},
    ("maximize", "one"): {"tau": 3.37, "discoveries": 768, "dfdr": 0.0124},
    ("control", "estimate"): {"tau": 2.44, "discoveries": 1496, "dfdr": 0.0500},
    ("control", "one"): {"tau": 2.73, "discoveries": 1212, "dfdr": 0.0499},
}
REFERENCE_PI0 = 0.59
REFERENCE_SECOND = {"tau": 3.64, "discoveries": 350, "dfdr": 0.0418}


def run_reproduce(args) -> int:
    for path in (args.matrix, args.labels):
        if not Path(path).exists():
            raise ValidationError(f"input file {path!r} not found.\n\n{GOLUB_GUIDANCE}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    matrix = preprocess(load_matrix(args.matrix, args.labels))
    plan = PermutationPlan(n_permutations=args.permutations, seed=args.seed)
    check_null_fits(matrix.values.shape, args.permutations)
    stats = build_statistic_set(matrix, args.group_a, args.group_b, plan)

    pi0_by_mode = {"estimate": resolve_pi0(stats, "estimate"), "one": Pi0Estimate.fixed_one()}
    pi0 = pi0_by_mode["estimate"].value
    rows: list[tuple] = [("pi0", "pi0", pi0, REFERENCE_PI0, pi0 - REFERENCE_PI0)]

    def compare(name: str, result: DecisionResult, reference: dict) -> None:
        actuals = (("tau", result.tau), ("discoveries", result.n_rejected), ("dfdr", result.dfdr))
        for metric, actual in actuals:
            rows.append((name, metric, actual, reference[metric], actual - reference[metric]))

    for mode in ("maximize", "control"):
        for pi0_mode in ("estimate", "one"):
            pi0 = pi0_by_mode[pi0_mode]
            if mode == "maximize":
                result = maximize_desirability(stats, pi0, CostBenefit.from_ratio(19.0))
            else:
                result = control_dfdr(stats, pi0, 0.05)
            compare(f"{mode}/pi0={pi0_mode}", result, REFERENCE_RESULTS[(mode, pi0_mode)])
    del stats  # its permutations go before the second comparison's are drawn

    if args.group_t is not None:
        # Per-subset thresholds for two comparisons: the first (benefit 1,
        # cost 19) is maximize/pi0=estimate above, so only the second needs
        # its own null, pi0 and threshold.
        rows_all = tuple(range(matrix.n_features))
        partition = SubsetPartition(
            subsets=(Subset("second", rows_all, args.group_a, args.group_t, 2.0, 19.0),)
        )
        second = per_subset_optimize(partition, matrix, plan, "estimate")[0].result
        compare("second-comparison", second, REFERENCE_SECOND)

    header = ["configuration", "metric", "actual", "reference", "deviation"]
    _write_atomic(outdir / "comparison.csv", _table(",".join(header), COMPARISON_ROW, zip(*rows)))
    widths = [24, 12, 14, 12, 12]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(_fmt(cell).ljust(w) for cell, w in zip(row, widths)))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze":
            return run_analyze(args)
        if args.command == "simulate":
            return run_simulate(args)
        return run_reproduce(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DfdrError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
