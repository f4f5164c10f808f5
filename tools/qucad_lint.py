#!/usr/bin/env python3
"""qucad_lint: repo-specific invariant linter (rules clang-tidy can't say).

Machine-checks the conventions the codebase is built on — see
docs/ARCHITECTURE.md "Correctness tooling":

  no-throw-serving      src/serve/, src/io/ and src/fleet/ are the no-abort
                        serving path: errors travel as Status/StatusOr, so
                        `throw` may not appear there (tests excluded by
                        scope).
  registry-only-backend NoisyExecutor / PureExecutor /
                        StatevectorBackend are constructed only inside
                        src/backend/, src/sim/, src/transpile/ (the engines
                        themselves) — consumers go through
                        BackendRegistry / CompiledEvalCache.
  positional-readout    run_z / run_logits / zne_expectations output is
                        ordered by readout slot, never indexed by qubit
                        id: flags subscripting a z/logit/expectation
                        container with an index whose name says `qubit`.
  banned-call           rand()/srand() (modulo-biased, process-global),
                        strtok (non-reentrant), and std::random_device
                        (non-deterministic seeding) are banned in
                        deterministic paths.

Scope: src/, bench/, examples/ (positional-readout also covers tests/).
Exemptions live in tools/qucad_lint_allow.txt as `<rule-id> <path>` lines,
each with a rationale comment — prefer fixing over allowlisting.

Usage:
  python3 tools/qucad_lint.py              # lint the tree, exit 1 on findings
  python3 tools/qucad_lint.py --self-test  # prove each rule fires, exit 1 on gaps

The implementation is disciplined regex over comment- and string-stripped
source (libclang is not available in every toolchain this repo builds on);
each rule is written to over-approximate rarely and the allowlist absorbs
deliberate exceptions.
"""

import argparse
import pathlib
import re
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "tools" / "qucad_lint_allow.txt"

BACKEND_TYPES = r"(?:NoisyExecutor|PureExecutor|StatevectorBackend)"

# Containers whose subscript must be a slot index (a slot-ordered value or
# the direct result of a slot-ordered call), and index spellings that claim
# to be a qubit id. `readout_qubits[slot]` itself is fine — that maps
# slot -> qubit, which is the direction the contract allows.
SLOT_CONTAINER = (
    r"(?:(?:run_z|run_logits|zne_expectations)\s*\([^)\n]*\)"
    r"|\b\w*(?:logits?|z_values|zne|expectations?)\w*)"
)
QUBIT_INDEX = r"[^\]\n]*qubit[^\]\n]*"


class Rule:
    def __init__(self, rule_id, pattern, message, dirs, suffixes=(".cpp", ".hpp")):
        self.rule_id = rule_id
        self.pattern = re.compile(pattern)
        self.message = message
        self.dirs = dirs
        self.suffixes = suffixes


RULES = [
    Rule(
        "no-throw-serving",
        r"\bthrow\b",
        "src/serve/, src/io/ and src/fleet/ must report errors as "
        "Status/StatusOr, never throw (the serving path's no-abort contract)",
        dirs=("src/serve", "src/io", "src/fleet"),
    ),
    Rule(
        "registry-only-backend",
        r"(?:\bnew\s+" + BACKEND_TYPES + r"\b"
        r"|make_(?:shared|unique)\s*<\s*(?:const\s+)?" + BACKEND_TYPES + r"\b"
        r"|\b" + BACKEND_TYPES + r"\s+\w+\s*[({]"
        r"|\b" + BACKEND_TYPES + r"\s*\()",
        "construct execution engines through BackendRegistry / "
        "CompiledEvalCache, not directly (registry-only backend invariant)",
        dirs=("src", "bench", "examples"),
    ),
    Rule(
        "positional-readout",
        SLOT_CONTAINER + r"\s*\[" + QUBIT_INDEX + r"\]",
        "run_z/run_logits/zne_expectations output is slot-ordered; indexing "
        "it by a qubit id reintroduces the pre-PR-2 misindexing bug",
        dirs=("src", "bench", "examples", "tests"),
    ),
    Rule(
        "banned-call",
        r"(?:(?<![\w:.>])(?:s?rand)\s*\(|\bstrtok\s*\(|std::random_device\b)",
        "rand/srand/strtok/std::random_device are banned: use "
        "common/rng.hpp's seeded generators (determinism contract)",
        dirs=("src", "bench", "examples"),
    ),
]

# registry-only-backend: the engines' own directories may construct freely.
ENGINE_DIRS = ("src/sim", "src/transpile", "src/backend")


def strip_comments_and_strings(text):
    """Blanks out comments, string and char literals, preserving newlines
    and column positions so finding line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":  # line comment
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":  # block comment
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == "R" and nxt == '"':  # raw string literal
            match = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
            if match:
                closer = ")" + match.group(1) + '"'
                end = text.find(closer, i)
                end = (end + len(closer)) if end != -1 else n
                for j in range(i, end):
                    out.append("\n" if text[j] == "\n" else " ")
                i = end
            else:
                out.append(c)
                i += 1
        elif c in "\"'":  # string or char literal
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def load_allowlist(path):
    allow = set()
    if not path.exists():
        return allow
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            print(f"{path}: malformed allowlist line: {raw!r}", file=sys.stderr)
            sys.exit(2)
        allow.add((parts[0], parts[1]))
    return allow


def rule_applies(rule, rel):
    rel_posix = rel.as_posix()
    if rule.rule_id == "registry-only-backend" and any(
        rel_posix.startswith(d + "/") for d in ENGINE_DIRS
    ):
        return False
    return any(rel_posix.startswith(d + "/") for d in rule.dirs)


def lint_tree(root, allow):
    findings = []
    scan_dirs = sorted({d for rule in RULES for d in rule.dirs})
    seen = set()
    for dir_name in scan_dirs:
        base = root / dir_name
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".cpp", ".hpp") or path in seen:
                continue
            seen.add(path)
            rel = path.relative_to(root)
            text = strip_comments_and_strings(path.read_text())
            for rule in RULES:
                if not rule_applies(rule, rel):
                    continue
                if (rule.rule_id, rel.as_posix()) in allow:
                    continue
                for match in rule.pattern.finditer(text):
                    line = text.count("\n", 0, match.start()) + 1
                    findings.append(
                        f"{rel.as_posix()}:{line}: [{rule.rule_id}] {rule.message}"
                    )
    return findings


# --- self-test -------------------------------------------------------------

# Synthetic violations per rule (plus a clean file that must stay clean):
# the self-test proves every rule fires in every directory it claims to
# cover and doesn't over-fire, and that comment/string stripping and the
# allowlist mechanism work.
SELF_TEST_CASES = {
    "no-throw-serving": [
        ("src/serve/bad.cpp",
         "void f() { throw PreconditionError(\"boom\"); }\n"),
        ("src/fleet/bad.cpp",
         "void g() { throw std::runtime_error(\"fleet\"); }\n"),
    ],
    "registry-only-backend": [
        ("src/qnn/bad.cpp",
         "void f() { NoisyExecutor executor(phys, nm); }\n"),
        ("bench/bad.cpp",
         "auto g() { return std::make_shared<const StatevectorBackend>(\n"
         "    executor, theta, {}, 64, 7); }\n"),
    ],
    "positional-readout": [
        ("src/eval/bad.cpp",
         "double g() { return logits[readout_qubits[0]]; }\n"
         "double h(int qubit) { return run_logits(x)[qubit]; }\n"),
    ],
    "banned-call": [
        ("src/data/bad.cpp",
         "int f() { std::random_device rd; return rand() % 6; }\n"),
    ],
}

CLEAN_FILE = (
    "src/serve/good.cpp",
    # Mentions of every banned pattern inside comments and strings, plus the
    # allowed direction of readout indexing: none of these may fire.
    "// a comment may say throw, rand(), or NoisyExecutor executor(x);\n"
    "const char* s = \"throw std::random_device rand()\";\n"
    "int slot_ok(const std::vector<int>& readout_qubits) {\n"
    "  return readout_qubits[0];  // slot -> qubit mapping is the legal way\n"
    "}\n"
    "double positional(const std::vector<double>& logits, int slot) {\n"
    "  return logits[slot];\n"
    "}\n",
)


def self_test():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp_root = pathlib.Path(tmp)
        all_cases = [case for cases in SELF_TEST_CASES.values()
                     for case in cases]
        for rel, content in [*all_cases, CLEAN_FILE]:
            target = tmp_root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content)
        findings = lint_tree(tmp_root, allow=set())
        for rule_id, cases in SELF_TEST_CASES.items():
            for rel, _ in cases:
                hits = [f for f in findings if f"[{rule_id}]" in f and rel in f]
                if not hits:
                    failures.append(f"rule {rule_id} did not fire on {rel}")
        clean_hits = [f for f in findings if CLEAN_FILE[0] in f]
        if clean_hits:
            failures.append(f"clean file produced findings: {clean_hits}")
        # The allowlist must silence exactly the exempted (rule, file) pair.
        rel = SELF_TEST_CASES["no-throw-serving"][0][0]
        allowed = lint_tree(tmp_root, allow={("no-throw-serving", rel)})
        if any(f"[no-throw-serving]" in f and rel in f for f in allowed):
            failures.append("allowlist entry did not suppress its finding")
        if len(allowed) >= len(findings):
            failures.append("allowlist suppressed nothing or grew findings")
    for failure in failures:
        print(f"self-test FAILED: {failure}")
    if not failures:
        print(f"self-test OK: {len(SELF_TEST_CASES)} rules fire, "
              "clean file stays clean, allowlist suppresses")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule fires on a synthetic violation")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    findings = lint_tree(ROOT, load_allowlist(ALLOWLIST))
    for finding in findings:
        print(finding)
    if findings:
        print(f"\n{len(findings)} finding(s). Fix, or exempt in "
              f"{ALLOWLIST.relative_to(ROOT)} with a rationale comment.")
        return 1
    print("qucad_lint: tree is clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
