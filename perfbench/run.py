"""End-to-end and per-layer benchmark of `dfdr analyze` and `dfdr simulate`.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload golub_weighted --seed 0 --seconds 40 --trace 0

Writes the workload's inputs from --seed, then repeats one closed-loop
iteration until the iteration end nearest to --seconds: one child process at
a time, never two. With --trace 0 the run starts with three fresh
`python -c "import dfdr.cli"` (set-up time), and an iteration is one
`python -m dfdr.cli ...` invocation, each timed from spawn to exit with
rusage from os.wait4. With --trace 1 an iteration is one
untraced invocation followed by one traced invocation (perfbench/traced.py),
whose spans give the per-layer metrics. Every invocation's outputs are
checked. The last stdout line is the JSON result; the line before it is a
JSON detail record (environment, input and output digests, tail latencies,
failures). See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
# Relative tolerance on tau, dfdr and pi0 against the reference decision. A
# change in summation order (e.g. the null as matrix products) moves t
# statistics by ~1e-8 relative; anything beyond 1e-6 is a different decision.
REL_TOL = 1e-6
# Set-up probes per run, taken before the invocations: enough for a median,
# few enough to leave most of the run to invocations, whose run medians
# spread the most.
SETUP_PROBES = 3
# Untraced runs take at least this many invocations even when that ends a
# little past --seconds: a median of two is a mean and follows one slow
# invocation.
MIN_INVOCATIONS = 3
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# A child still running after this long is killed and counts as failed, so
# a hung program cannot hold a run past its 180 s limit.
CHILD_TIMEOUT_S = 120.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "data.load_matrix_s": "s",
    "data.preprocess_s": "s",
    "data.input_bytes": "bytes",
    "stats.observed_s": "s",
    "stats.validate_pvalues_s": "s",
    "resampling.null_s": "s",
    "resampling.null_calls": "count",
    "resampling.null_values": "count",
    "resampling.ns_per_null_value": "ns",
    "estimators.choose_lambda_s": "s",
    "estimators.choose_lambda_calls": "count",
    "estimators.pi0_s": "s",
    "decision.scan_s": "s",
    "decision.scan_calls": "count",
    "decision.candidates": "count",
    "decision.ns_per_candidate": "ns",
    "simulation.generate_s": "s",
    "simulation.replicate_stats_self_s": "s",
    "simulation.measure_self_s": "s",
    "simulation.report_s": "s",
    "simulation.replicates": "count",
    "trace.overhead_s": "s",
}
# Spans each workload must record; zero calls means the trace lost a layer.
REQUIRED_SPANS = {
    "golub_weighted": (
        "cli.main", "data.load_matrix", "data.preprocess", "stats.build_statistic_set",
        "resampling.permutation_null", "estimators.choose_lambda", "estimators.pi0",
        "decision.scan",
    ),
    "pvalues_1e5": ("cli.main", "stats.validate_pvalues", "estimators.pi0", "decision.scan"),
    "simulate_default": (
        "cli.main", "simulation.measure_error_rates", "simulation.build_replicate_stats",
        "simulation.generate_instance", "stats.build_statistic_set",
        "resampling.permutation_null", "estimators.choose_lambda", "estimators.pi0",
        "decision.scan", "simulation.report",
    ),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (not a failed invocation)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(NPROC) for var in THREAD_VARS})
    return env


def spawn(cmd: list[str], log: Path) -> dict:
    """Run one child to completion; wall time from spawn to exit, rusage."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=out, stderr=out)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "rc": proc.returncode,
    }


def import_probe(log: Path) -> dict:
    return spawn([sys.executable, "-c", "import dfdr.cli"], log)


# ---------------------------------------------------------------- checks


def read_keyed(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("\t")
        out.setdefault(key, value)
    return out


def decision_of(workload: str, outdir: Path) -> dict:
    """The fields the reference pins, read from a run's outputs."""
    if workload == "simulate_default":
        report = read_keyed(outdir / "report.txt")
        return {k: int(report[k]) for k in ("total_rejections", "total_false_rejections")}
    summary = read_keyed(outdir / "summary.txt")
    return {
        "discoveries": int(summary["discoveries"]),
        **{k: float(summary[k]) for k in ("tau", "dfdr", "pi0")},
    }


def check_outputs(workload: str, outdir: Path, rc: int, reference: dict | None) -> list[str]:
    """Problems with one invocation's outputs; empty when it passes."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        problems = []
        if workload == "simulate_default":
            lines = (outdir / "report.txt").read_text(encoding="utf-8").splitlines()
            checks = [ln.split("\t") for ln in lines if ln.startswith("check\t")]
            if not checks:
                problems.append("report.txt has no check lines")
            problems += [f"check {c[1]} is {c[2]}" for c in checks if c[2] != "PASS"]
        else:
            summary = read_keyed(outdir / "summary.txt")
            cut = float(summary["tau"])
            rows = (outdir / "tests.csv").read_text(encoding="utf-8").splitlines()[1:]
            fields = [row.rsplit(",", 2) for row in rows]
            stat = np.array([float(f[1]) for f in fields])
            flags = np.array([f[2] == "1" for f in fields])
            expect = stat <= cut if summary.get("input") == "pvalues" else stat >= cut
            if not np.array_equal(flags, expect):
                problems.append(
                    f"{int(np.sum(flags != expect))} rejected flags disagree with tau={cut!r}"
                )
            if int(flags.sum()) != int(summary["discoveries"]):
                problems.append(
                    f"{int(flags.sum())} rejected rows but discoveries={summary['discoveries']}"
                )
        if reference is not None:
            got = decision_of(workload, outdir)
            for key, want in reference.items():
                if isinstance(want, int):
                    ok = got[key] == want
                else:
                    ok = math.isclose(got[key], want, rel_tol=REL_TOL, abs_tol=0.0)
                if not ok:
                    problems.append(f"{key}={got[key]!r}, reference {want!r}")
        return problems
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"unreadable outputs: {exc!r}"]


# ---------------------------------------------------------------- trace


def layer_metrics(trace: dict, outdir: Path, input_files: dict) -> tuple[dict, dict]:
    """Per-layer metrics and per-span call counts from one traced invocation."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total, self_time, calls, size = {}, {}, {}, {}
    for i, (name, start, end, _, n) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[i])
        calls[name] = calls.get(name, 0) + 1
        size[name] = size.get(name, 0) + max(n, 0)

    def per(num_s: float, count: int) -> float:
        return num_s * 1e9 / count if count else 0.0

    data_files = [p for k, p in input_files.items() if k in ("matrix", "labels")]
    null_s = total.get("resampling.permutation_null", 0.0)
    null_values = size.get("resampling.permutation_null", 0)
    scan_s = total.get("decision.scan", 0.0)
    candidates = size.get("decision.scan", 0)
    return {
        "cli.import_s": trace["import_s"],
        "cli.self_s": self_time.get("cli.main", 0.0),
        "cli.output_bytes": sum(p.stat().st_size for p in outdir.glob("*")),
        "data.load_matrix_s": total.get("data.load_matrix", 0.0),
        "data.preprocess_s": total.get("data.preprocess", 0.0),
        "data.input_bytes": sum(p.stat().st_size for p in data_files),
        "stats.observed_s": self_time.get("stats.build_statistic_set", 0.0),
        "stats.validate_pvalues_s": total.get("stats.validate_pvalues", 0.0),
        "resampling.null_s": null_s,
        "resampling.null_calls": calls.get("resampling.permutation_null", 0),
        "resampling.null_values": null_values,
        "resampling.ns_per_null_value": per(null_s, null_values),
        "estimators.choose_lambda_s": total.get("estimators.choose_lambda", 0.0),
        "estimators.choose_lambda_calls": calls.get("estimators.choose_lambda", 0),
        "estimators.pi0_s": total.get("estimators.pi0", 0.0),
        "decision.scan_s": scan_s,
        "decision.scan_calls": calls.get("decision.scan", 0),
        "decision.candidates": candidates,
        "decision.ns_per_candidate": per(scan_s, candidates),
        "simulation.generate_s": total.get("simulation.generate_instance", 0.0),
        "simulation.replicate_stats_self_s": self_time.get(
            "simulation.build_replicate_stats", 0.0
        ),
        "simulation.measure_self_s": self_time.get("simulation.measure_error_rates", 0.0),
        "simulation.report_s": total.get("simulation.report", 0.0),
        "simulation.replicates": calls.get("simulation.build_replicate_stats", 0),
    }, calls


# ---------------------------------------------------------------- records


def summarize(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n >= 11:
        tail = {"pct": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "tail": tail, "n": n}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_cap": {var: str(NPROC) for var in THREAD_VARS},
        "nproc": NPROC,
        "seed": seed,
        "cli_seed": inputs.cli_seed(seed),
    }


# ---------------------------------------------------------------- runs


def run(workload: str, seed: int, seconds: float, trace: bool, *, toy: bool = False,
        reference: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run. Returns (result, detail)."""
    if not (SRC / "dfdr" / "cli.py").is_file():
        raise BenchError(f"no dfdr source under {SRC}")
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(workload, seed, seconds, trace, toy, reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, toy, reference, work):
    argv, files = inputs.prepare(workload, seed, work / "in", toy=toy)
    outdir = work / "out"
    log = work / "child.log"
    # Untimed warm-up: compiles bytecode and loads numpy/scipy into the page
    # cache, which an installed package has already done for its users.
    if import_probe(log)["rc"] != 0:
        raise BenchError("`import dfdr.cli` failed:\n" + log.read_text(errors="replace"))

    cli_cmd = [sys.executable, "-m", "dfdr.cli", *argv, "--out", str(outdir)]
    traced_cmd = [sys.executable, str(HERE / "traced.py"), str(work / "spans.json"), "--",
                  *argv, "--out", str(outdir)]
    samples = {name: [] for name in END_TO_END}
    traced_walls, layers, failures = [], [], []
    attempted = failed = 0
    last_trace, calls = None, {}

    def invoke(cmd):
        nonlocal attempted, failed
        shutil.rmtree(outdir, ignore_errors=True)
        sample = spawn(cmd, log)
        attempted += 1
        problems = check_outputs(workload, outdir, sample["rc"], reference)
        if problems:
            failed += 1
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            failures.append({"invocation": attempted, "problems": problems, "log": tail})
        return sample

    start = time.perf_counter()
    if not trace:
        samples["setup_s"] = [import_probe(log)["wall_s"] for _ in range(SETUP_PROBES)]
    last = 0.0
    least = 1 if trace else MIN_INVOCATIONS
    # Stop at the iteration end nearest to the budget: a run then lasts
    # --seconds on average and wastes none of it waiting for the end.
    while attempted < least or time.perf_counter() - start + last / 2 <= seconds:
        began = time.perf_counter()
        if trace:
            samples["wall_s"].append(invoke(cli_cmd)["wall_s"])
            traced_walls.append(invoke(traced_cmd)["wall_s"])
            if (work / "spans.json").exists():
                last_trace = json.loads((work / "spans.json").read_text(encoding="utf-8"))
                (work / "spans.json").unlink()
                metrics, calls = layer_metrics(last_trace, outdir, files)
                layers.append(metrics)
        else:
            sample = invoke(cli_cmd)
            for name in ("wall_s", "cpu_s", "peak_rss_mb"):
                samples[name].append(sample[name])
        last = time.perf_counter() - began

    detail = {
        "workload": workload,
        "toy": toy,
        "env": environment(seed),
        "inputs": {name: inputs.sha256(path) for name, path in files.items()},
        "outputs": {
            p.name: inputs.sha256(p) for p in sorted(outdir.glob("*")) if p.is_file()
        } if outdir.exists() else {},
        "decision": decision_of(workload, outdir) if not failures else None,
        "seconds_measured": time.perf_counter() - start,
        "failed_frac": failed / attempted,
        "failures": failures,
        "timings": {k: {**summarize(v), "samples": v} for k, v in samples.items() if v},
    }

    if trace:
        if not layers:
            raise BenchError("traced run wrote no spans:\n" + log.read_text(errors="replace"))
        missing = [s for s in REQUIRED_SPANS[workload] if not calls.get(s)]
        if missing:
            raise BenchError(f"{workload}: traced run recorded no calls to {missing}")
        # Counts repeat exactly; median_low keeps them whole numbers.
        values = {
            k: (statistics.median_low if isinstance(v, int) else statistics.median)(
                [m[k] for m in layers]
            )
            for k, v in layers[0].items()
        }
        values["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(samples["wall_s"])
        )
        units = PER_LAYER
        detail["spans"] = last_trace["spans"]
    else:
        values = {k: statistics.median(v) for k, v in samples.items()}
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return result, detail


def load_reference(workload: str, seed: int) -> dict | None:
    """The committed decision for the default seed; other seeds have none."""
    if seed != 0:
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, detail = run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            reference=load_reference(args.workload, args.seed),
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spans = detail.pop("spans", None)
    record = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({**detail, "result": result, "spans": spans}), encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
