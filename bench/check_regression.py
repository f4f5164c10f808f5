#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json perf record against a checked-in baseline.

Usage: check_regression.py <current.json> <baseline.json> [tolerance]

Fails (exit 1) if any record named in the baseline is missing from the
current run or has throughput below baseline * (1 - tolerance); tolerance
defaults to 0.20, i.e. a >20% regression against the baseline numbers.
A baseline record may carry its own "tolerance" field, which overrides the
global one for that record (useful to pin dimensionless ratio records — e.g.
speedup floors — exactly while leaving hardware-dependent throughputs slack).

Records are keyed by (name, params), so groups that reuse one name across a
parameter sweep (BENCH_kernels.json's statevector_forward at 4/6/8 qubits)
gate each point independently. Records present in the current run but not in
the baseline are ignored, so adding benchmarks never requires touching the
gate. The current record's engine_isa, compiler and build_type header is
printed with the verdict, so a ratio failure on a runner that resolves a
narrower replay clone (say x86-64-v3, AVX2 only) says so in the log. See
docs/BENCHMARKS.md for the schema and the baseline-update procedure.
"""

import json
import sys


def load_doc(path):
    """The record file's header fields and its records keyed by (name,
    params)."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "qucad-bench-v1":
        raise SystemExit(f"{path}: unexpected schema {doc.get('schema')!r}")
    records = {}
    for r in doc["records"]:
        key = (r["name"], r.get("params", ""))
        if key in records:
            raise SystemExit(f"{path}: duplicate record {key}")
        records[key] = r
    return doc, records


def header(doc):
    """engine_isa / compiler / build_type of a record file ("?" if absent)."""
    return ", ".join(f"{field} {doc.get(field, '?')}"
                     for field in ("engine_isa", "compiler", "build_type"))


def main(argv):
    if len(argv) not in (3, 4):
        raise SystemExit(__doc__)
    current_doc, current = load_doc(argv[1])
    _, baseline = load_doc(argv[2])
    tolerance = float(argv[3]) if len(argv) == 4 else 0.20

    failures = []
    for key, base in baseline.items():
        name = f"{key[0]}[{key[1]}]" if key[1] else key[0]
        tol = float(base.get("tolerance", tolerance))
        floor = base["throughput"] * (1.0 - tol)
        cur = current.get(key)
        if cur is None:
            failures.append(f"  {name}: missing from current run")
            continue
        status = "ok" if cur["throughput"] >= floor else "REGRESSION"
        print(
            f"  {name}: {cur['throughput']:.3f} {cur['unit']} "
            f"(baseline {base['throughput']:.3f}, floor {floor:.3f}) {status}"
        )
        if cur["throughput"] < floor:
            failures.append(
                f"  {name}: {cur['throughput']:.3f} < floor {floor:.3f} "
                f"(baseline {base['throughput']:.3f} - {tol:.0%})"
            )

    if failures:
        print(f"\n{argv[1]} ({header(current_doc)}): perf regression vs "
              f"{argv[2]}:")
        print("\n".join(failures))
        return 1
    print(f"\n{argv[1]} ({header(current_doc)}): all records within "
          "tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
