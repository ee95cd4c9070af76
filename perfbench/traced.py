"""Traced in-process run of the dfdr CLI, for per-layer timings.

Usage: python traced.py SPANS_JSON -- DFDR_ARGS...

Imports ``dfdr.cli`` (timed), wraps the public functions of each layer in the
module namespace where their caller looks them up, calls
``dfdr.cli.main(DFDR_ARGS)`` and, when it returns, writes every span as
[name, start, end, parent, size] to SPANS_JSON. ``parent`` is the index of
the enclosing span or -1; ``size`` is the length of the returned null array
or decision curve where one exists, else -1. Nothing inside the program is
changed: spans are taken from outside, around the calls.
"""

import importlib
import json
import sys
import time

# Span name -> (module, attribute) pairs that route to it. A pair whose
# attribute is absent is skipped here; the benchmark then fails any workload
# whose required span records no calls.
TARGETS = {
    "cli.main": [("dfdr.cli", "main")],
    "data.load_matrix": [("dfdr.cli", "load_matrix")],
    "data.preprocess": [("dfdr.cli", "preprocess")],
    "stats.build_statistic_set": [
        ("dfdr.cli", "build_statistic_set"),
        ("dfdr.simulation", "build_statistic_set"),
    ],
    "stats.validate_pvalues": [("dfdr.cli", "validate_pvalues")],
    "resampling.permutation_null": [("dfdr.resampling", "permutation_null")],
    "estimators.choose_lambda": [
        ("dfdr.estimators", "choose_lambda"),
        ("dfdr.decision", "choose_lambda"),
    ],
    "estimators.pi0": [
        ("dfdr.estimators", "estimate_pi0"),
        ("dfdr.decision", "estimate_pi0_weighted"),
        ("dfdr.cli", "estimate_pi0_from_pvalues"),
    ],
    "decision.scan": [
        ("dfdr.cli", "maximize_desirability"),
        ("dfdr.cli", "control_dfdr"),
        ("dfdr.cli", "common_threshold_weighted"),
        ("dfdr.cli", "maximize_desirability_pvalues"),
        ("dfdr.cli", "control_dfdr_pvalues"),
        ("dfdr.simulation", "maximize_desirability"),
        ("dfdr.simulation", "control_dfdr"),
    ],
    "simulation.generate_instance": [("dfdr.simulation", "generate_instance")],
    "simulation.build_replicate_stats": [("dfdr.simulation", "build_replicate_stats")],
    "simulation.measure_error_rates": [("dfdr.cli", "measure_error_rates")],
    "simulation.report": [
        ("dfdr.cli", "boundary_offset"),
        ("dfdr.cli", "measure_local_dfdr"),
    ],
}


def _size(result) -> int:
    curve = getattr(result, "curve", None)
    if curve is not None:
        return len(curve)
    size = getattr(result, "size", None)
    return size if isinstance(size, int) else -1


def install(spans: list, stack: list) -> None:
    clock = time.perf_counter

    def wrap(name, fn):
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            spans[index][4] = _size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    for name, sites in TARGETS.items():
        for module_name, attr in sites:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, wrap(name, getattr(module, attr)))


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    spans_path, argv = sys.argv[1], sys.argv[3:]
    start = time.perf_counter()
    import dfdr.cli

    import_s = time.perf_counter() - start
    spans: list = []
    install(spans, [])
    rc = dfdr.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "rc": rc, "spans": spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
