"""Command-line front end: analyze real data, run simulations, reproduce
the reference analysis of the public ALL/AML leukemia dataset.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
All randomness flows from --seed; repeated runs with identical flags and seed
produce byte-identical output files.

Every output file prints a float as ``NUMBER`` (``%.12g``), NaN as ``nan``;
integers bare, booleans as ``true``/``false``. The tables are built ``BLOCK`` rows
at a time in numpy, in the same bytes: a float's digits are m = rint(s),
s = |x| 10^(11-e), e = floor(log10 |x|), 10^(11-e) a correctly rounded double,
so s is within 2.3e-4 of exact and m is %.12g's rounding where s is more than
5e-4 from a half. m = 10^12 carries into e, which then picks %g's notation.
Python formats the rest: 0, nan, inf, |e| > E_MAX, those near-ties, s beyond
0.01 outside [10^11, 10^12] (log10 off by over an ulp), ints < 0 or > int64.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load_numpy_on_one_blas_thread() -> None:
    """Imports numpy with BLAS set to one thread, then puts the caller's
    settings back, so every BLAS call of the CLI runs on the thread that
    makes it (README "Command line")."""
    caller = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(caller, "1"))
    try:
        import numpy  # noqa: F401
    finally:
        for var, value in caller.items():
            if value is None:
                del os.environ[var]
            else:
                os.environ[var] = value


if "numpy" not in sys.modules:
    _load_numpy_on_one_blas_thread()

import numpy as np

from dfdr import __version__
from dfdr.data import DataMatrix, load_matrix, preprocess, read_table
from dfdr.decision import (
    DecisionResult,
    Subset,
    SubsetPartition,
    common_threshold_weighted,
    per_subset_optimize,
)
from dfdr.errors import (
    DfdrError,
    ParseError,
    UndefinedEstimateError,
    UsageError,
    ValidationError,
)
from dfdr.estimators import (
    MAX_RATIO,
    CostBenefit,
    p_to_cost_ratio,
    resolve_pi0,
)
from dfdr.resampling import PermutationPlan, build_statistic_set, check_null_fits, worker_count
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


NUMBER = "%.12g"  # the float format of every output file
BLOCK = 4096  # rows that the table writer formats and writes at a time
PAD = b"\xff"  # fills the bytes a table cell leaves unused; never in UTF-8
E_MAX = 297  # |x| beyond 10^+-E_MAX goes to NUMBER


def _padded(texts: list[bytes], words: int = 1) -> np.ndarray:
    """The texts as table cells: rows of at least ``words`` uint64 words, the text, then PAD."""
    words = max(words, max(map(len, texts), default=0) // 8 + 1)
    return np.frombuffer(b"".join(t.ljust(8 * words, PAD) for t in texts), dtype=np.uint64).reshape(-1, words)


def _shape(sign: str, x: int | None, sig: int) -> bytes:
    """The prefix word and the XOR masks that make twelve padded digits the text of a float of
    exponent x (None: exponent notation) and sig significant digits; "0" ^ 0xCF is PAD."""
    point = 1 if x is None else max(x + 1, 0)  # digits before the point
    mask = bytearray(24)
    mask[2 * max(sig, point)::2] = b"\xcf" * (12 - max(sig, point))  # trailing zeros
    if sig > point > 0:
        mask[2 * point - 1] = ord(".") ^ PAD[0]
    return (sign + ("0." + "0" * (-x - 1) if x is not None and x < 0 else "")).encode().ljust(8, PAD) + mask


@functools.cache
def _float_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of ``_float_cells``, made on the first table write (simulate writes none)."""
    pow10 = np.array([float(f"1e{k}") for k in range(11 - E_MAX, 12 + E_MAX)])  # 10^(11 - e) at E_MAX - e
    # By a pair of digits: the two, each followed by PAD (where a point can go), in the low and the
    # high half of a word; and, for pair k of twelve digits, 1 + the place of its last nonzero digit.
    low = np.frombuffer(b"".join(b"%d\xff%d\xff\0\0\0\0" % divmod(p, 10) for p in range(100)), dtype=np.uint64)
    high = np.frombuffer(b"".join(b"\0\0\0\0%d\xff%d\xff" % divmod(p, 10) for p in range(100)), dtype=np.uint64)
    last = np.array([[p and 2 * k + 2 - (p % 10 == 0) for p in range(100)] for k in range(6)])
    # rows by word; columns by (x < 0) * 204 + (x + 4 where -4 <= x < 12, else 16) * 12 + sig - 1
    shapes = np.frombuffer(b"".join(_shape(sign, x, sig) for sign in ("", "-") for x in [*range(-4, 12), None]
                                    for sig in range(1, 13)), dtype=np.uint64).reshape(-1, 4).T.copy()
    # by e + E_MAX + 1: the column of e's notation in shapes less sig, and the exponent word
    notation = np.array([(e + 4 if -4 <= e < 12 else 16) * 12 - 1 for e in range(-E_MAX - 1, E_MAX + 2)])
    exponents = _padded([b"" if -4 <= e < 12 else b"e%+03d" % e for e in range(-E_MAX - 1, E_MAX + 2)])[:, 0]
    return pow10, low, high, last, shapes, notation, exponents


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The table cells of NUMBER % x (see the module docstring)."""
    pow10, low, high, last, shapes, notation, exponent_words = _float_tables()
    with np.errstate(all="ignore"):  # log10 of 0, and s where the fast path does not apply
        a = np.abs(x)
        e = np.floor(np.log10(a)).astype(np.intp).clip(-E_MAX, E_MAX)
        s = a * pow10.take(E_MAX - e)
        m = np.rint(s)
        fast = (np.abs(s - m) < 0.4995) & (np.abs(s - 5.5e11) < 4.5e11 + 0.01)
    m = np.where(fast, m, 1e11).astype(np.int64)
    e += (carry := m == 10**12)
    m[carry] = 10**11
    pairs, sig = [], 0
    for k in range(5, -1, -1):  # the pairs of digits, from the last
        q = m // 100
        pairs.insert(0, m - 100 * q)
        sig, m = np.maximum(sig, last[k].take(pairs[0])), q
    code = notation.take(e + E_MAX + 1) + sig + 204 * (x < 0)
    exponents = exponent_words.take(e + E_MAX + 1)
    cells = np.empty((len(x), 4 + (exponents != exponent_words[E_MAX + 1]).any()), dtype=np.uint64)
    cells[:, 0] = shapes[0].take(code)
    for k in range(3):
        cells[:, k + 1] = shapes[k + 1].take(code) ^ low.take(pairs[2 * k]) ^ high.take(pairs[2 * k + 1])
    cells[:, 4:] = exponents[:, None]
    cells[~fast] = _padded([(NUMBER % v).encode() for v in x[~fast].tolist()], cells.shape[1])
    return cells


def _digit_cells(v: np.ndarray, width: int, lead: int) -> np.ndarray:
    """Table cells of the byte ``lead`` and ``width`` digits of each v >= 0, leading zeros PAD if lead is."""
    cells = np.full((len(v), (width + 1) // 8 + 1), np.uint64(2**64 - 1))
    text = cells.view(np.uint8)
    text[:, 0] = lead
    for place in range(width):  # 10^place, at byte width - place
        digit = v % 10 + ord("0")
        text[:, width - place] = np.where(v > 0, digit, lead) if lead == PAD[0] and place else digit
        v = v // 10
    return cells


def _cells(column, lo: int) -> np.ndarray:
    """Table cells of rows lo to lo + BLOCK of floats, ints, str, or a range: "p" + zero-padded index."""
    block = column[lo:lo + BLOCK]
    if isinstance(block, range):
        return _digit_cells(np.arange(block.start, block.stop), len(str(len(column))), ord("p"))
    if isinstance(block, np.ndarray) and block.dtype.kind == "f":
        return _float_cells(block)
    if isinstance(block[0], str):
        return _padded([s.encode() for s in block])
    with contextlib.suppress(OverflowError):  # a Python int beyond int64 goes to Python
        if (v := np.asarray(block, dtype=np.int64)).min() >= 0:
            return _digit_cells(v, len(str(v.max())), PAD[0])
    return _padded([b"%d" % i for i in block])


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return NUMBER % x
    return str(x)


def _write_atomic(path: Path, chunks) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.writelines(chunks)
    os.replace(tmp, path)


def _table(header: str, columns):
    """The bytes of the header line, then of each block of BLOCK rows: a row's cells joined
    by ",", then a newline. Each cell ends in a free byte for the separator."""
    yield (header + "\n").encode()
    for lo in range(0, len(columns[0]), BLOCK):
        cells = [_cells(column, lo) for column in columns]
        text = np.concatenate(cells, axis=1).view(np.uint8)
        text[:, 8 * np.cumsum([c.shape[1] for c in cells]) - 1] = ord(",")
        text[:, -1] = ord("\n")
        yield text.tobytes().translate(None, PAD)


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
        if 0.0 <= float(text) <= 1.0:
            return float(text)
    except ValueError:
        pass
    raise UsageError(f'--pi0 must be "estimate", "one", or a number in [0, 1], got {text!r}')


# analyze flags of the matrix route, which --pvalues replaces
MATRIX_FLAGS = ("matrix", "labels", "group_a", "group_b", "subsets", "weights", "preprocess")
# The range of each numeric flag, checked wherever the flag is given.
RANGES = {
    "cost_ratio": (lambda v: 0.0 <= v <= MAX_RATIO, f"must lie in [0, {MAX_RATIO:g}]"),
    "p_threshold": (lambda v: 0.0 < v <= 1.0 and p_to_cost_ratio(v) <= MAX_RATIO,
                    f"must lie in (0, 1], with 1/p - 1 at most {MAX_RATIO:g}"),
    "alpha": (lambda v: 0.0 < v < 1.0 and p_to_cost_ratio(v) <= MAX_RATIO,
              f"must lie in (0, 1), with 1/alpha - 1 at most {MAX_RATIO:g}"),
    "min_subset_size": (lambda v: v >= 1, "must be >= 1"),
    "replicates": (lambda v: v >= 1, "must be >= 1"),
    "boundary_fraction": (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "seed": (lambda v: v >= 0, "must be >= 0"),
    "m": (lambda v: v >= 1, "must be >= 1"),
    "n_a": (lambda v: v >= 2, "must be >= 2"),
    "n_b": (lambda v: v >= 2, "must be >= 2"),
    "block_size": (lambda v: v >= 1, "must be >= 1"),
    "block_rho": (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    "pi0_true": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "delta": (math.isfinite, "must be finite"),
}


def _opt(name: str) -> str:
    return "--" + name.replace("_", "-")


def _check_flags(args) -> None:
    """Raise the UsageError of the first rule in the table that the flags break.

    One table of flag rules for analyze, simulate and reproduce, checked
    before any input is read or output written. A flag is given unless it is
    None, or False for a switch.
    """
    given = {k for k, v in vars(args).items() if v is not None and v is not False}
    mode = vars(args).get("mode")  # reproduce has none
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
        ("pvalues" not in given and args.permutations < 1, "--permutations must be >= 1"),
        (table in given and mode != "maximize", f"--{table} supports maximize mode only"),
        (table in given and given & (costs | {"alpha"}),
         f"--{table} takes costs and benefits from the {table} file"),
        (mode == "control" and given & costs,
         "--cost-ratio/--p-threshold apply to maximize mode only"),
        (mode == "maximize" and "alpha" in given, "--alpha applies to control mode only"),
        (costs <= given, "give only one of --cost-ratio and --p-threshold"),
        *((f in given and not ok(getattr(args, f)), f"{_opt(f)} {why}")
          for f, (ok, why) in RANGES.items()),
    ]
    for broken, message in rules:
        if broken:
            raise UsageError(message)


def _rule_from_args(args, pi0_mode) -> tuple[DesirabilityRule | DfdrControlRule, list[tuple[str, object]]]:
    """The decision rule of the flags, with its summary field.

    Maximize: a DesirabilityRule at the cost ratio --cost-ratio, or 1/p - 1
    for --p-threshold p (default p = 0.05). Control: a DfdrControlRule at the
    dFDR bound --alpha (default 0.05).
    """
    if args.mode == "control":
        alpha = 0.05 if args.alpha is None else args.alpha
        return DfdrControlRule(alpha, pi0_mode), [("alpha", alpha)]
    ratio = args.cost_ratio
    if ratio is None:
        ratio = p_to_cost_ratio(0.05 if args.p_threshold is None else args.p_threshold)
    return DesirabilityRule(ratio, pi0_mode), [("cost_ratio", ratio)]


def _write_decision_outputs(
    outdir: Path,
    ids: list[str] | range,
    values: np.ndarray,
    result: DecisionResult,
    fields: list[tuple[str, object]],
    stem: str = "",
) -> None:
    """tests, curve and summary of one decision; ``fields`` open the summary."""
    suffix = f"_{stem}" if stem else ""
    flags = np.zeros(len(ids), dtype=np.int8)
    flags[result.rejected] = 1
    curve = "tau,desirability,dfdr,discoveries"
    tests_path, curve_path = outdir / f"tests{suffix}.csv", outdir / f"curve{suffix}.csv"
    _write_atomic(tests_path, _table("feature_id,statistic,rejected", (ids, values, flags)))
    _write_atomic(curve_path, _table(curve, [getattr(result.curve, k) for k in curve.split(",")]))
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
    _write_atomic(outdir / f"summary{suffix}.txt", (f"{k}\t{_fmt(v)}\n".encode() for k, v in fields))


def _load_subsets(path, matrix: DataMatrix, min_size: int) -> SubsetPartition:
    """Subsets file: feature_id, subset, group_a, group_b, benefit, cost."""
    rows: dict[str, dict] = {}
    feature_index = {fid: i for i, fid in enumerate(matrix.feature_ids)}
    _, table, values = read_table(path, ["feature_id", "subset", "group_a", "group_b", "benefit", "cost"], 4)
    for (lineno, fid, name, ga, gb), (b, c) in zip(table, values.tolist()):
        if fid not in feature_index:
            raise ValidationError(f"{path}: row {lineno}: unknown feature id {fid!r}")
        params = (ga, gb, b, c)
        entry = rows.get(name)
        if entry is None or entry["params"] != params:  # checked as each subset is met
            longest = f"summary_{name}.txt.tmp"  # of the files named after it, in bytes at most 255
            if name in ("", ".", "..") or "/" in name or "\x00" in name or len(longest.encode()) > 255:
                raise ValidationError(f"{path}: row {lineno}: subset name {name!r} cannot be a file name stem")
            try:
                Subset(name, (), *params)  # its costs
            except ValidationError as exc:
                raise ValidationError(f"{path}: row {lineno}: {exc}") from None
            if entry is not None:
                raise ValidationError(f"{path}: subset {name!r} has inconsistent groups or costs")
            entry = rows[name] = {"params": params, "features": []}
        entry["features"].append(feature_index[fid])
    try:  # each subset's costs against its size
        subsets = tuple(Subset(name, tuple(e["features"]), *e["params"]) for name, e in rows.items())
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return SubsetPartition(subsets=subsets, min_size=min_size)


def _load_weights(path, matrix: DataMatrix) -> CostBenefit:
    """Weights file: feature_id, benefit, cost."""
    _, rows, values = read_table(path, ["feature_id", "benefit", "cost"], 1)
    known, at = set(matrix.feature_ids), {}  # feature id -> its place in rows
    for i, (lineno, fid) in enumerate(rows):
        if fid not in known:
            raise ValidationError(f"{path}: row {lineno}: unknown feature id {fid!r}")
        if fid in at:
            raise ParseError(f"{path}: rows {rows[at[fid]][0]} and {lineno} both give feature {fid!r}")
        at[fid] = i
    missing = [fid for fid in matrix.feature_ids if fid not in at]
    if missing:
        raise ValidationError(f"{path}: no weights for feature {missing[0]!r}")
    benefits, costs = values[[at[fid] for fid in matrix.feature_ids]].T
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

    # the weights before the null, whose set holds their sums
    cb = None if args.weights is None else _load_weights(args.weights, matrix)
    check_null_fits(matrix.values.shape, args.permutations)
    stats = build_statistic_set(matrix, args.group_a, args.group_b, plan, cb and cb.weights)
    base_fields += [("group_a", args.group_a), ("group_b", args.group_b)]
    if cb is not None:
        result = common_threshold_weighted(stats, cb.benefits, resolve_pi0(stats, pi0_mode))
        fields = base_fields + [("weighted", True)]
    else:
        rule, rule_fields = _rule_from_args(args, pi0_mode)
        result = rule(stats)
        fields = base_fields + rule_fields
    _write_decision_outputs(outdir, list(matrix.feature_ids), stats.observed, result, fields)
    return 0


def _analyze_pvalues(args, outdir: Path, pi0_mode) -> int:
    pvals = validate_pvalues(read_table(args.pvalues, 1, 0)[2][:, 0])
    rule, rule_fields = _rule_from_args(args, pi0_mode)
    fields = [
        ("command", "analyze"),
        ("mode", args.mode),
        ("input", "pvalues"),
        ("m", pvals.n_tests),
        ("seed", args.seed),
    ]
    _write_decision_outputs(outdir, range(pvals.n_tests), pvals.pvalues, rule(pvals), fields + rule_fields)
    return 0


def run_simulate(args) -> int:
    _check_flags(args)
    pi0_mode = _parse_pi0_mode(args.pi0)

    # each parameter's flag (its argparse dest, and its name in report.txt,
    # in that file's order) and the SimulationConfig field it sets
    parameters = (
        ("m", "n_tests"), ("pi0_true", "pi0"), ("delta", "effect"), ("n_a", "n_a"), ("n_b", "n_b"),
        ("replicates", "replicates"), ("permutations", "n_permutations"), ("seed", "seed"),
        ("truth_mode", "truth_mode"), ("block_size", "block_size"), ("block_rho", "block_rho"),
    )
    config = SimulationConfig(**{field: getattr(args, flag) for flag, field in parameters})
    # one replicate's matrix and permutations in each process at a time
    check_null_fits(
        (config.n_tests, config.n_a + config.n_b),
        config.n_permutations,
        at_once=worker_count(config.replicates),
    )
    rule, rule_fields = _rule_from_args(args, pi0_mode)
    bound = rule.bound
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report = measure_error_rates(config, rule)

    lines = [("command", "simulate"), *((flag, getattr(config, field)) for flag, field in parameters)]
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
            boundary = measure_local_dfdr(report.outcomes, h)
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
    _write_atomic(outdir / "report.txt", [text.encode()])
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
    _check_flags(args)
    for path in (args.matrix, args.labels):
        if not Path(path).exists():
            raise ValidationError(f"input file {path!r} not found.\n\n{GOLUB_GUIDANCE}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    matrix = preprocess(load_matrix(args.matrix, args.labels))
    plan = PermutationPlan(n_permutations=args.permutations, seed=args.seed)
    check_null_fits(matrix.values.shape, args.permutations)
    stats = build_statistic_set(matrix, args.group_a, args.group_b, plan)

    rules = {"maximize": functools.partial(DesirabilityRule, 19.0),
             "control": functools.partial(DfdrControlRule, 0.05)}
    results = {(mode, pi0_mode): rules[mode](pi0_mode)(stats) for mode, pi0_mode in REFERENCE_RESULTS}
    del stats  # its permutations go before the second comparison's are drawn
    pi0 = results["maximize", "estimate"].pi0.value
    rows: list[tuple] = [("pi0", "pi0", pi0, REFERENCE_PI0, pi0 - REFERENCE_PI0)]

    def compare(name: str, result: DecisionResult, reference: dict) -> None:
        actuals = (("tau", result.tau), ("discoveries", result.n_rejected), ("dfdr", result.dfdr))
        for metric, actual in actuals:
            rows.append((name, metric, actual, reference[metric], actual - reference[metric]))

    for (mode, pi0_mode), result in results.items():
        compare(f"{mode}/pi0={pi0_mode}", result, REFERENCE_RESULTS[mode, pi0_mode])

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
    columns = [list(c) if k < 2 else np.array(c, dtype=float) for k, c in enumerate(zip(*rows))]
    _write_atomic(outdir / "comparison.csv", _table(",".join(header), columns))
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
    except UndefinedEstimateError as exc:
        print(f"data error: {exc} (--pi0 one)", file=sys.stderr)
        return 2
    except (DfdrError, FileExistsError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
