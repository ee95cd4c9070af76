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
    weighted_pi0_for,
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


def _write_rows(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")


def _table(header: str, row_format: str, columns) -> str:
    """The header line, then ``row_format % row`` for each row of the zipped columns."""
    return header + "\n" + "".join(map(row_format.__mod__, zip(*columns)))


def _write_summary(path: Path, items: list[tuple[str, object]]) -> None:
    _write_atomic(path, "".join(f"{k}\t{_fmt(v)}\n" for k, v in items))


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


def _cost_benefit_from_args(args) -> CostBenefit:
    if args.mode == "control":
        if args.cost_ratio is not None or args.p_threshold is not None:
            raise UsageError("--cost-ratio/--p-threshold apply to maximize mode only")
        return CostBenefit.from_probability(args.alpha if args.alpha is not None else 0.05)
    if args.alpha is not None:
        raise UsageError("--alpha applies to control mode only")
    if args.cost_ratio is not None and args.p_threshold is not None:
        raise UsageError("give only one of --cost-ratio and --p-threshold")
    if args.cost_ratio is not None:
        if args.cost_ratio < 0:
            raise UsageError("--cost-ratio must be nonnegative")
        return CostBenefit.from_ratio(args.cost_ratio)
    p = args.p_threshold if args.p_threshold is not None else 0.05
    if not 0.0 < p <= 1.0:
        raise UsageError("--p-threshold must lie in (0, 1]")
    return CostBenefit.from_probability(p)


def _alpha_from_args(args) -> float:
    alpha = args.alpha if args.alpha is not None else 0.05
    if not 0.0 < alpha < 1.0:
        raise UsageError("--alpha must lie in (0, 1)")
    return alpha


def _summary_common(args, mode_fields: list[tuple[str, object]], result: DecisionResult):
    pi0 = result.pi0
    return mode_fields + [
        ("pi0_mode", pi0.mode),
        ("lambda", pi0.lam),
        ("pi0", pi0.value),
        ("tau", result.tau),
        ("discoveries", result.n_rejected),
        ("dfdr", result.dfdr),
        ("desirability", result.desirability),
    ]


def _write_decision_outputs(
    outdir: Path,
    ids: list[str],
    values: np.ndarray,
    result: DecisionResult,
    summary_fields: list[tuple[str, object]],
    stem: str = "",
) -> None:
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
    _write_summary(outdir / f"summary{suffix}.txt", summary_fields)


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
    return CostBenefit.per_test(benefits, costs)


def run_analyze(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    pi0_mode = _parse_pi0_mode(args.pi0)

    if args.pvalues is not None:
        for flag, name in (
            (args.matrix, "--matrix"),
            (args.labels, "--labels"),
            (args.group_a, "--group-a"),
            (args.group_b, "--group-b"),
            (args.subsets, "--subsets"),
            (args.weights, "--weights"),
        ):
            if flag is not None:
                raise UsageError(f"{name} cannot be combined with --pvalues")
        if args.preprocess:
            raise UsageError("--preprocess cannot be combined with --pvalues")
        return _analyze_pvalues(args, outdir, pi0_mode)

    if args.matrix is None or args.labels is None:
        raise UsageError("analyze needs --matrix and --labels (or --pvalues)")
    if args.group_a is None or args.group_b is None:
        raise UsageError("analyze needs --group-a and --group-b")
    if args.subsets is not None and args.weights is not None:
        raise UsageError("give only one of --subsets and --weights")
    if args.permutations < 1:
        raise UsageError("--permutations must be >= 1")

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
        if args.mode != "maximize":
            raise UsageError("--subsets supports maximize mode only")
        if args.cost_ratio is not None or args.p_threshold is not None or args.alpha is not None:
            raise UsageError("--subsets takes costs and benefits from the subsets file")
        partition = _load_subsets(args.subsets, matrix, args.min_subset_size)
        # one null per comparison, plus one subset's slice and its sort
        comparisons = {(s.group_a, s.group_b) for s in partition.subsets}
        check_null_fits(matrix, plan, len(comparisons) + 2)
        decisions = per_subset_optimize(partition, matrix, plan, pi0_mode)
        for sd in decisions:
            subset, result = sd.subset, sd.result
            sub_ids = [matrix.feature_ids[i] for i in subset.feature_indices]
            fields = _summary_common(
                args,
                base_fields
                + [
                    ("subset", subset.name),
                    ("group_a", subset.group_a),
                    ("group_b", subset.group_b),
                    ("benefit", subset.benefit),
                    ("cost", subset.cost),
                ],
                result,
            )
            _write_decision_outputs(outdir, sub_ids, sd.observed, result, fields, stem=subset.name)
        return 0

    # the null and its sort; with weights, the null and the copy choose_lambda
    # partitions (the weight sums need one block at a time)
    check_null_fits(matrix, plan, 2)
    stats = build_statistic_set(matrix, args.group_a, args.group_b, plan)
    group_fields = [("group_a", args.group_a), ("group_b", args.group_b)]

    if args.weights is not None:
        if args.mode != "maximize":
            raise UsageError("--weights supports maximize mode only")
        if args.cost_ratio is not None or args.p_threshold is not None or args.alpha is not None:
            raise UsageError("--weights takes costs and benefits from the weights file")
        cb = _load_weights(args.weights, matrix)
        weights = cb.weights
        if pi0_mode == "estimate":
            pi0 = weighted_pi0_for(stats, weights)
        else:
            pi0 = resolve_pi0(stats, pi0_mode)
        result = common_threshold_weighted(stats, weights, cb.benefits, pi0)
        fields = _summary_common(args, base_fields + group_fields + [("weighted", True)], result)
        _write_decision_outputs(outdir, list(matrix.feature_ids), stats.observed, result, fields)
        return 0

    pi0 = resolve_pi0(stats, pi0_mode)
    if args.mode == "maximize":
        cb = _cost_benefit_from_args(args)
        result = maximize_desirability(stats, pi0, cb)
        mode_fields = base_fields + group_fields + [("cost_ratio", cb.homogeneous()[1])]
    else:
        _cost_benefit_from_args(args)  # flag validation only
        alpha = _alpha_from_args(args)
        result = control_dfdr(stats, pi0, alpha)
        mode_fields = base_fields + group_fields + [("alpha", alpha)]
    fields = _summary_common(args, mode_fields, result)
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
    elif pi0_mode == "one":
        pi0 = Pi0Estimate.fixed_one()
    else:
        pi0 = Pi0Estimate.user(pi0_mode)

    base_fields = [
        ("command", "analyze"),
        ("mode", args.mode),
        ("input", "pvalues"),
        ("m", pvals.n_tests),
        ("seed", args.seed),
    ]
    if args.mode == "maximize":
        cb = _cost_benefit_from_args(args)
        result = maximize_desirability_pvalues(pvals, pi0, cb)
        fields = base_fields + [("cost_ratio", cb.homogeneous()[1])]
    else:
        _cost_benefit_from_args(args)
        alpha = _alpha_from_args(args)
        result = control_dfdr_pvalues(pvals, pi0, alpha)
        fields = base_fields + [("alpha", alpha)]

    digits = len(str(pvals.n_tests))
    ids = list(map(f"p%0{digits}d".__mod__, range(pvals.n_tests)))
    _write_decision_outputs(
        outdir, ids, pvals.pvalues, result, _summary_common(args, fields, result)
    )
    return 0


def run_simulate(args) -> int:
    if args.replicates < 1:
        raise UsageError("--replicates must be >= 1")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
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
    if args.mode == "maximize":
        cb = _cost_benefit_from_args(args)
        _, ratio = cb.homogeneous()
        bound = cb.probability
        rule = DesirabilityRule(cost_ratio=ratio, pi0_mode=pi0_mode)
        rule_fields = [("rule", "maximize"), ("cost_ratio", ratio), ("bound", bound)]
    else:
        _cost_benefit_from_args(args)
        bound = _alpha_from_args(args)
        rule = DfdrControlRule(alpha=bound, pi0_mode=pi0_mode)
        rule_fields = [("rule", "control"), ("alpha", bound), ("bound", bound)]

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
    lines += rule_fields
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

    checks: list[tuple[str, float, float, bool]] = []
    if report.total_rejections > 0:
        se = math.sqrt(bound * (1.0 - bound) / report.total_rejections)
        limit = bound + 3.0 * se
        checks.append(("pooled_bound", report.dfdr, limit, report.dfdr <= limit))
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
                se_b = math.sqrt(bound * (1.0 - bound) / boundary.rejections)
                limit_b = bound + 3.0 * se_b
                checks.append(("boundary_bound", boundary.rate, limit_b, boundary.rate <= limit_b))
    else:
        checks.append(("pooled_bound", 0.0, bound, True))

    text = "".join(f"{k}\t{_fmt(v)}\n" for k, v in lines)
    for name, actual, limit, ok in checks:
        verdict = "PASS" if ok else "FAIL"
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
    # the null and its sort, kept while --group-t builds one more null with
    # its slice and the slice's sort
    check_null_fits(matrix, plan, 2 if args.group_t is None else 5)
    stats = build_statistic_set(matrix, args.group_a, args.group_b, plan)

    rows: list[tuple] = []

    def compare(config_name: str, metric: str, actual: float, reference: float):
        rows.append((config_name, metric, actual, reference, actual - reference))

    pi0_by_mode = {"estimate": resolve_pi0(stats, "estimate"), "one": Pi0Estimate.fixed_one()}
    compare("pi0", "pi0", pi0_by_mode["estimate"].value, REFERENCE_PI0)

    for mode in ("maximize", "control"):
        for pi0_mode in ("estimate", "one"):
            pi0 = pi0_by_mode[pi0_mode]
            if mode == "maximize":
                result = maximize_desirability(stats, pi0, CostBenefit.from_ratio(19.0))
            else:
                result = control_dfdr(stats, pi0, 0.05)
            name = f"{mode}/pi0={pi0_mode}"
            ref = REFERENCE_RESULTS[(mode, pi0_mode)]
            compare(name, "tau", result.tau, ref["tau"])
            compare(name, "discoveries", result.n_rejected, ref["discoveries"])
            compare(name, "dfdr", result.dfdr, ref["dfdr"])

    if args.group_t is not None:
        # Per-subset thresholds for two comparisons: the first (benefit 1,
        # cost 19) is maximize/pi0=estimate above, so only the second needs
        # its own null, pi0 and threshold.
        rows_all = tuple(range(matrix.n_features))
        partition = SubsetPartition(
            subsets=(Subset("second", rows_all, args.group_a, args.group_t, 2.0, 19.0),)
        )
        second = per_subset_optimize(partition, matrix, plan, "estimate")[0].result
        compare("second-comparison", "tau", second.tau, REFERENCE_SECOND["tau"])
        compare("second-comparison", "discoveries", second.n_rejected, REFERENCE_SECOND["discoveries"])
        compare("second-comparison", "dfdr", second.dfdr, REFERENCE_SECOND["dfdr"])

    header = ["configuration", "metric", "actual", "reference", "deviation"]
    _write_rows(outdir / "comparison.csv", header, rows)
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
