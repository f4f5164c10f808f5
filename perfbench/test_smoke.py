#!/usr/bin/env python3
"""Smoke test of the workload benchmark.

    python3 perfbench/test_smoke.py            # from the repository root

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
fails if a run exits non-zero, reports incorrect output or failed requests,
or leaves out a metric BENCHMARK.json names (or reports it without its
unit). Also checks that the benchmark refuses to run, without printing a
result, from a directory holding only BENCHMARK.json and perfbench/.
Takes about two minutes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"


def run(workload, trace, cwd=ROOT):
    command = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", SECONDS, "--trace", trace]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(spec, workload, trace, out):
    problems = []
    if out.returncode != 0:
        return [f"exit code {out.returncode}: {out.stderr[-800:]}"]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append("output checks failed")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']}")
    if result["failed"] != 0:
        problems.append(f"{result['failed']} failed requests")
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    metrics = result["metrics"]
    for metric in wanted:
        name = metric["name"]
        got = metrics.get(name)
        if got is None:
            problems.append(f"metric {name} missing")
        elif got.get("unit") != metric["unit"]:
            problems.append(f"metric {name} has unit {got.get('unit')!r}, not {metric['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"metric {name} has value {got.get('value')!r}")
        elif trace == "0" and got["value"] <= 0:
            problems.append(f"end-to-end metric {name} is {got['value']}")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    for key in ("nproc", "compiler", "build_type", "git_commit", "seed", "workload"):
        if key not in meta:
            problems.append(f"run metadata lacks {key}")
    return problems


def check_bare_directory():
    """The benchmark alone, without the repository, must fail cleanly."""
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run("serve_wire", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        return [f"bare directory: exit {out.returncode}, stdout {out.stdout[-200:]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            problems = check_result(spec, workload, trace, run(workload, trace))
            status = "ok" if not problems else "FAIL"
            print(f"{status:4s} {workload} --trace {trace}", flush=True)
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    problems = check_bare_directory()
    print(f"{'ok' if not problems else 'FAIL':4s} refuses to run without the repository")
    for p in problems:
        print(f"     {p}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
