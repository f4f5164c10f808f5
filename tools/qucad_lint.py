#!/usr/bin/env python3
"""qucad_lint: repo-specific invariant linter (rules clang-tidy can't say).

Machine-checks the conventions the codebase is built on — see
docs/ARCHITECTURE.md "Correctness tooling":

  no-throw-serving      src/serve/, src/io/ and src/fleet/ are the no-abort
                        serving path: errors travel as Status/StatusOr, so
                        `throw` may not appear there (tests excluded by
                        scope).
  registry-only-backend CompiledExecutor (and its NoisyExecutor alias)
                        and the CompiledBackend adapter are constructed
                        only inside src/backend/, src/sim/,
                        src/transpile/ (the engine itself) — consumers go
                        through BackendRegistry / CompiledEvalCache.
  oracle-only           run_density / run_z_reference / run_physical_pure
                        are the gate-by-gate test oracles: src/ and
                        examples/ never call them (only
                        src/transpile/executor.{hpp,cpp}, which declare and
                        define them); tests and benches may.
  positional-readout    run_z / run_logits / zne_expectations output is
                        ordered by readout slot, never indexed by qubit
                        id: flags subscripting a z/logit/expectation
                        container with an index whose name says `qubit`.
  banned-call           rand()/srand() (modulo-biased, process-global),
                        strtok (non-reentrant), and std::random_device
                        (non-deterministic seeding) are banned in
                        deterministic paths.
  thread-outside-try    src/serve/ and src/io/ construct std::thread only
                        inside a `try` block: a failed spawn throws
                        std::system_error, which must become a Status
                        rather than escape the no-throw serving path.
  fp-determinism        the lane replay is bitwise the same on every ISA
                        clone (sim/isa_clones.hpp): no `reduction(` clause
                        on a `#pragma omp simd` under src/sim/ (lanes never
                        combine), and no -ffast-math, -Ofast,
                        -ffp-contract=fast, -march=, -mavx* or -mfma in any
                        CMakeLists.txt (ISA levels come from the clones,
                        and FP contraction stays off).
  clones-beside-kernels QUCAD_ISA_CLONES appears in src/ only in
                        src/sim/batched_state.cpp, beside the lane kernel
                        definitions its `flatten` must see to inline them,
                        and in src/sim/isa_clones.hpp, which defines it.

Scope: src/, bench/, examples/ (positional-readout also covers tests/;
fp-determinism covers src/sim/ sources and every CMakeLists.txt).
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

BACKEND_TYPES = r"(?:CompiledExecutor|NoisyExecutor|CompiledBackend)"

# Containers whose subscript must be a slot index (a slot-ordered value or
# the direct result of a slot-ordered call), and index spellings that claim
# to be a qubit id. `readout_qubits[slot]` itself is fine — that maps
# slot -> qubit, which is the direction the contract allows.
SLOT_CONTAINER = (
    r"(?:(?:run_z|run_logits|zne_expectations)\s*\([^)\n]*\)"
    r"|\b\w*(?:logits?|z_values|zne|expectations?)\w*)"
)
QUBIT_INDEX = r"[^\]\n]*qubit[^\]\n]*"


CMAKE_FILE = "CMakeLists.txt"


class Rule:
    def __init__(self, rule_id, pattern, message, dirs, cmake=False,
                 outside_try=False, exempt=()):
        self.rule_id = rule_id
        self.pattern = re.compile(pattern)
        self.message = message
        self.dirs = dirs
        # Path prefixes under `dirs` the rule does not scan.
        self.exempt = exempt
        # A CMake rule scans every CMakeLists.txt (`dirs` unused); the others
        # scan the C++ sources under `dirs`.
        self.cmake = cmake
        # Only matches outside every `try { ... }` block count.
        self.outside_try = outside_try


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
        # The engines' own directories may construct freely.
        exempt=("src/sim/", "src/transpile/", "src/backend/"),
    ),
    Rule(
        "oracle-only",
        r"\b(?:run_density|run_z_reference|run_physical_pure)\s*\(",
        "run_density/run_z_reference/run_physical_pure are gate-by-gate test "
        "oracles; program code replays the compiled engines instead",
        dirs=("src", "examples"),
        exempt=("src/transpile/executor.hpp", "src/transpile/executor.cpp"),
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
    Rule(
        "thread-outside-try",
        r"\bstd::thread\s*(?:\w+\s*)?[({]",
        "a std::thread construction throws std::system_error when the spawn "
        "fails: construct it inside a try block and return a Status",
        dirs=("src/serve", "src/io"),
        outside_try=True,
    ),
    Rule(
        "fp-determinism",
        r"#\s*pragma\s+omp\s+simd\b[^\n]*\breduction\s*\(",
        "an omp simd reduction may reassociate a sum differently per ISA "
        "clone; lanes must stay independent (bitwise-across-ISA contract)",
        dirs=("src/sim",),
    ),
    Rule(
        "fp-determinism",
        r"(?<![\w-])-(?:ffast-math|Ofast|ffp-contract=fast|march=|mavx|mfma)",
        "fast-math, FP contraction and -march/-mavx/-mfma break the replay's "
        "bitwise-across-ISA contract; ISA levels come from QUCAD_ISA_CLONES",
        dirs=(),
        cmake=True,
    ),
    Rule(
        "clones-beside-kernels",
        r"\bQUCAD_ISA_CLONES\b",
        "QUCAD_ISA_CLONES flattens only the kernels whose bodies it sees: "
        "cloned entry points belong in src/sim/batched_state.cpp, beside the "
        "BatchedStateVector / BatchedDensityMatrix kernel definitions",
        dirs=("src",),
        exempt=("src/sim/batched_state.cpp", "src/sim/isa_clones.hpp"),
    ),
]


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


def strip_cmake_comments(text):
    """Blanks out CMake `#` comments outside quoted arguments, keeping
    newlines and columns."""
    out = []
    for line in text.split("\n"):
        quoted = False
        for i, c in enumerate(line):
            if c == '"' and (i == 0 or line[i - 1] != "\\"):
                quoted = not quoted
            elif c == "#" and not quoted:
                line = line[:i] + " " * (len(line) - i)
                break
        out.append(line)
    return "\n".join(out)


def try_block_spans(text):
    """The [open, close) offsets of every `try { ... }` body in stripped
    source (function-try-blocks included)."""
    spans, stack = [], []
    for match in re.finditer(r"[{}]", text):
        if match.group() == "{":
            j = match.start()
            while j > 0 and text[j - 1].isspace():
                j -= 1
            is_try = (text[max(0, j - 3):j] == "try"
                      and (j < 4 or not (text[j - 4].isalnum()
                                         or text[j - 4] == "_")))
            stack.append((match.start(), is_try))
        elif stack:
            start, is_try = stack.pop()
            if is_try:
                spans.append((start, match.start()))
    return spans


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
    if rule.cmake or rel.name == CMAKE_FILE:
        return rule.cmake and rel.name == CMAKE_FILE
    if rel_posix.startswith(rule.exempt):
        return False
    return any(rel_posix.startswith(d + "/") for d in rule.dirs)


def source_files(root):
    """The C++ sources under the rules' directories, then every
    CMakeLists.txt outside build trees, as (path, stripped text) pairs."""
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
            yield path, strip_comments_and_strings(path.read_text())
    for path in sorted(root.rglob(CMAKE_FILE)):
        rel_parts = path.relative_to(root).parts
        if any(part.startswith(("build", ".")) for part in rel_parts[:-1]):
            continue
        yield path, strip_cmake_comments(path.read_text())


def lint_tree(root, allow):
    findings = []
    for path, text in source_files(root):
        rel = path.relative_to(root)
        for rule in RULES:
            if not rule_applies(rule, rel):
                continue
            if (rule.rule_id, rel.as_posix()) in allow:
                continue
            tries = try_block_spans(text) if rule.outside_try else []
            for match in rule.pattern.finditer(text):
                if any(a < match.start() < b for a, b in tries):
                    continue
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
         "void f() { CompiledExecutor executor(phys, nm); }\n"),
        ("examples/bad.cpp",
         "auto h() { return new NoisyExecutor(phys); }\n"),
        ("bench/bad.cpp",
         "auto g() { return std::make_shared<const CompiledBackend>(\n"
         "    kind, executor, theta, 64, 7); }\n"),
    ],
    "oracle-only": [
        ("src/serve/bad_oracle.cpp",
         "auto f() { return run_z_reference(circuit, noise, x); }\n"),
        ("examples/bad_oracle.cpp",
         "double g() { return run_density(phys, nm, x).trace_real() +\n"
         "    run_physical_pure(phys, x).probabilities()[0]; }\n"),
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
    "thread-outside-try": [
        ("src/serve/bad_thread.cpp",
         "void S::start() { worker_ = std::thread([this] { run(); }); }\n"),
        ("src/io/bad_thread.cpp",
         "void f() {\n  try { g(); } catch (...) {}\n"
         "  std::thread t(work);\n  t.join();\n}\n"),
    ],
    "fp-determinism": [
        ("src/sim/bad.cpp",
         "double f(const double* a) {\n  double s = 0.0;\n"
         "#pragma omp simd reduction(+ : s)\n"
         "  for (int l = 0; l < 8; ++l) s += a[l];\n  return s;\n}\n"),
        ("CMakeLists.txt",
         "target_compile_options(qucad_options INTERFACE -O2 -march=native)\n"),
        ("bench/CMakeLists.txt",
         "set(CMAKE_CXX_FLAGS \"${CMAKE_CXX_FLAGS} -ffast-math -mfma\")\n"),
    ],
    "clones-beside-kernels": [
        ("src/sim/compiled_adjoint.cpp",
         "QUCAD_ISA_CLONES void reverse_sweep(State& ket, State& lam) {\n"
         "  sweep(ket, lam);\n}\n"),
        ("src/qnn/bad_clone.cpp",
         "QUCAD_ISA_CLONES double dot(const double* a, const double* b);\n"),
    ],
}

CLEAN_FILES = [
    ("src/serve/good.cpp",
     # Mentions of every banned pattern inside comments and strings, plus
     # the allowed direction of readout indexing: none of these may fire.
     "// a comment may say throw, rand(), or CompiledExecutor executor(x);\n"
     "const char* s = \"throw std::random_device rand()\";\n"
     "int slot_ok(const std::vector<int>& readout_qubits) {\n"
     "  return readout_qubits[0];  // slot -> qubit mapping is the legal way\n"
     "}\n"
     "double positional(const std::vector<double>& logits, int slot) {\n"
     "  return logits[slot];\n"
     "}\n"),
    ("src/io/good_thread.cpp",
     # Spawns inside try blocks (a function-try-block included) and a
     # member declaration, which constructs nothing that can fail.
     "struct Conn {\n  std::thread thread;\n};\n"
     "Status S::start() {\n  try {\n"
     "    if (ok) { worker_ = std::thread([this] { run(); }); }\n"
     "  } catch (const std::system_error&) {\n    return fail();\n  }\n"
     "  return Status();\n}\n"
     "void h() try { std::thread t{work}; t.join(); } catch (...) {}\n"),
    ("src/transpile/executor.cpp",
     # The oracles' own definitions, calling one another.
     "StateVector run_physical_pure(const PhysicalCircuit& c, X x) {\n"
     "  return run_physical_pure(c, x, {});\n}\n"
     "std::vector<double> run_z_reference(const PhysicalCircuit& c,\n"
     "    const NoiseModel& n, X x) { return run_density(c, n, x).z(); }\n"),
    ("src/sim/good.cpp",
     # A per-lane omp simd loop (no reduction clause) and a reduction named
     # only in a comment.
     "void f(double* acc, const double* a) {\n"
     "#pragma omp simd  // no reduction(+ : acc) across lanes\n"
     "  for (int l = 0; l < 8; ++l) acc[l] += a[l];\n}\n"),
    ("src/sim/batched_state.cpp",
     # The cloned entry points, beside the kernels they flatten in.
     "QUCAD_ISA_CLONES void replay_entry(State& s) { s.apply_cx(0, 1); }\n"),
    ("src/sim/isa_clones.hpp",
     # The macro's definition, and a mention of it in a comment.
     "// QUCAD_ISA_CLONES marks an entry point\n"
     "#define QUCAD_ISA_CLONES __attribute__((flatten))\n"),
    ("src/sim/compiled_ops.hpp",
     # Comments may name the macro anywhere.
     "// cloned per ISA (QUCAD_ISA_CLONES) beside run_pure_lanes\n"
     "struct CompiledProgram;\n"),
    ("examples/CMakeLists.txt",
     # The allowed contraction setting, and banned flags only in a comment.
     "# never -ffast-math or -march=native here\n"
     "target_compile_options(x PRIVATE -ffp-contract=off -fopenmp-simd)\n"),
]


def self_test():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp_root = pathlib.Path(tmp)
        all_cases = [case for cases in SELF_TEST_CASES.values()
                     for case in cases]
        for rel, content in [*all_cases, *CLEAN_FILES]:
            target = tmp_root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content)
        findings = lint_tree(tmp_root, allow=set())
        for rule_id, cases in SELF_TEST_CASES.items():
            for rel, _ in cases:
                hits = [f for f in findings
                        if f"[{rule_id}]" in f and f.startswith(rel + ":")]
                if not hits:
                    failures.append(f"rule {rule_id} did not fire on {rel}")
        for rel, _ in CLEAN_FILES:
            clean_hits = [f for f in findings if f.startswith(rel + ":")]
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
              "clean files stay clean, allowlist suppresses")
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
