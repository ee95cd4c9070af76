"""Toy-size self-test of the benchmark.

Usage, from the root of a source checkout: python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that every
metric the benchmark declares is printed with its unit, that the traced run
reaches each workload's layers, and that a reference decision that does not
match the outputs counts every invocation as failed.
"""

import json
import sys
from pathlib import Path

import inputs
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result["attempted"] >= 1, f"{label}: nothing attempted")
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        expect(got is not None, f"{label}: metric {metric['name']} missing")
        expect(got["unit"] == metric["unit"], f"{label}: {metric['name']} unit {got['unit']!r}")
        expect(isinstance(got["value"], (int, float)), f"{label}: {metric['name']} not a number")
    expect(len(result["metrics"]) == len(declared), f"{label}: undeclared metrics printed")


def perturbed(decision: dict) -> dict:
    key = "discoveries" if "discoveries" in decision else "total_rejections"
    return {**decision, key: decision[key] + 1}


def main() -> int:
    expect([w["name"] for w in BENCHMARK["workloads"]] == list(inputs.WORKLOADS),
           "BENCHMARK.json workloads differ from the benchmark's")
    expect(set(run.END_TO_END) == {m["name"] for m in BENCHMARK["end_to_end"]},
           "end_to_end metrics differ from BENCHMARK.json")
    expect(set(run.PER_LAYER) == {m["name"] for m in BENCHMARK["per_layer"]},
           "per_layer metrics differ from BENCHMARK.json")
    for workload in inputs.WORKLOADS:
        result, detail = run.run(workload, 3, 0.0, False, toy=True)
        check_metrics(result, BENCHMARK["end_to_end"], f"{workload} untraced")
        expect(result["correct"] and result["failed"] == 0, f"{workload}: {detail['failures']}")
        reference = detail["decision"]

        result, detail = run.run(workload, 3, 0.0, False, toy=True, reference=reference)
        expect(result["correct"], f"{workload}: own decision rejected: {detail['failures']}")

        result, _ = run.run(workload, 3, 0.0, False, toy=True, reference=perturbed(reference))
        expect(not result["correct"] and result["failed"] == result["attempted"],
               f"{workload}: a mismatched reference was not counted as a failure")

        result, detail = run.run(workload, 3, 0.0, True, toy=True)
        check_metrics(result, BENCHMARK["per_layer"], f"{workload} traced")
        expect(result["correct"], f"{workload} traced: {detail['failures']}")
        print(f"selftest {workload}: ok")
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
