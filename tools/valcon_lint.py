#!/usr/bin/env python3
"""valcon-lint: repo-specific determinism linter for the valcon sources.

Every result this repo ships (the pinned golden sweep hashes, the shard and
resume byte-identity checks, the solvability classifications) assumes the
simulator and the sweep engine are bit-deterministic functions of
(configuration, seed).  The C++ type system does not enforce that, so this
linter bans the known ways determinism leaks out of a C++ codebase:

  wall-clock          std::chrono::system_clock, time(), gettimeofday,
                      localtime/gmtime, CLOCK_REALTIME.  Simulated time comes
                      from Context::now(); host timing must use steady_clock
                      and must never feed serialized output.
  raw-rand            std::rand/srand/random_device/drand48.  All randomness
                      flows through sim::Rng, seeded from the scenario.
  unordered-iteration Iterating a std::unordered_{map,set,multimap,multiset}.
                      Hash-order is libstdc++-version- and seed-dependent;
                      any iteration that feeds output, metrics or ordering is
                      a latent golden-hash break.  Membership tests and
                      point lookups are fine; iteration is not.
  pointer-key         A map/set keyed on a raw pointer type.  Pointer values
                      vary run to run (ASLR, allocator), so any iteration or
                      ordering derived from them is nondeterministic.
  build-stamp         __DATE__ / __TIME__ / __TIMESTAMP__ bake the build
                      instant into the binary.
  assert-validation   assert() as the only validation inside a parsing /
                      deserialization function.  Asserts vanish in NDEBUG
                      builds, so external input (checkpoint files, sweep
                      documents, message payloads) must be rejected with a
                      real error path instead.
  payload-type        A concrete sim::Payload subclass must declare its
                      metrics identity with VALCON_PAYLOAD_TYPE (wrapper
                      payloads that forward an inner payload's identity
                      carry an explicit suppression instead).
  cpu-dispatch        Intrinsic headers (<immintrin.h> and kin),
                      __builtin_cpu_supports/_is/_init, and target(...) /
                      target_clones(...) attributes outside
                      src/valcon/crypto/sha256.cpp.  A code path picked by
                      the host CPU stays in that one file, where the SHA-256
                      kernels are tested in lockstep on every host.
  set-tally           std::set<ProcessId> / std::set<int> in protocol code
                      (a consensus/ or bcast/ directory, the scope of
                      protomap's raw-quorum audit).  A distinct-senders
                      tally there is a core::ProcessSet: a tree node per
                      vote is the allocation the dense set removes.
  bad-suppression     A `valcon-lint: allow(...)` comment without a written
                      reason.  Suppressions are part of the audit trail; a
                      bare waiver is itself a finding.

Suppression syntax (same line or the line directly above the finding):

    // valcon-lint: allow(<rule>[, <rule>...]) -- <reason>

The reason is mandatory.  `allow(*)` waives every rule on that line.

Usage:
    tools/valcon_lint.py [paths...]          lint (default: src)
    tools/valcon_lint.py --default-paths     lint the whole repo tree
                                             (src tools bench examples tests,
                                             minus the fixture corpora); this
                                             is the single source of truth the
                                             ctest entry and CI both use
    tools/valcon_lint.py --root DIR          resolve paths relative to DIR
    tools/valcon_lint.py --self-test [dir]   run the fixture corpus
                                             (default: tests/lint_corpus)
    tools/valcon_lint.py --list-rules

Exit status: 0 clean, 1 findings, 2 usage/corpus error.

The linter is dependency-free (stdlib only) and lexical by design: it strips
comments and string literals, then pattern-matches the remaining code.  It
trades soundness for zero build-time cost; the fixture corpus under
tests/lint_corpus pins the behavior of every rule.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

CPP_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".cxx", ".hxx")

# The canonical lint tree for --default-paths: every C++ source the repo
# builds or ships.  The fixture corpora are pruned during the walk — they
# contain deliberate findings and are pinned by their own self-tests
# (valcon_lint.py --self-test, valcon_protomap.py self-test).
DEFAULT_LINT_DIRS = ("src", "tools", "bench", "examples", "tests")
EXCLUDED_DIR_NAMES = frozenset({"lint_corpus", "protomap_corpus"})

ALLOW_RE = re.compile(
    r"//\s*valcon-lint:\s*allow\(([^)]*)\)\s*(?:--\s*(\S.*))?$")
LINT_EXPECT_RE = re.compile(r"//\s*lint-expect:\s*([\w*,\s-]+?)\s*$")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments, string literals and char literals, preserving line
    structure so findings keep their line numbers.  Handles // and /* */
    comments, "..." and '...' literals with escapes.  (Raw strings are not
    used in this codebase and are not handled.)"""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append('"')
                i += 1
            elif c == "'":
                state = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote)
                i += 1
            elif c == "\n":  # unterminated (macro line continuation, etc.)
                state = "code"
                out.append(c)
                i += 1
            else:
                out.append(" ")
                i += 1
    return "".join(out)


# --------------------------------------------------------------------- rules
#
# Each rule is a function (path, code_lines, raw_lines) -> [Finding].
# `code_lines` has comments and literals blanked; `raw_lines` is the original
# text (used only where the finding is about comments themselves).

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"(?<![\w.>])time\s*\(\s*(nullptr|NULL|0|&)"),
     "time()"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday"),
    (re.compile(r"\bclock_gettime\b"), "clock_gettime"),
    (re.compile(r"\bCLOCK_REALTIME\b"), "CLOCK_REALTIME"),
    (re.compile(r"\b(localtime|gmtime|mktime)\s*\("), "calendar time"),
]

RAW_RAND_PATTERNS = [
    (re.compile(r"\bstd::rand\b|(?<![\w.>:])s?rand\s*\(\s*\)"), "rand()"),
    (re.compile(r"(?<![\w.>:])srand\s*\("), "srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\b[de]rand48\b|\blrand48\b"), "rand48 family"),
]

BUILD_STAMP_RE = re.compile(r"__DATE__|__TIME__|__TIMESTAMP__")

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:multi)?(?:map|set)\s*<[^;]*?>\s+(\w+)\s*(?:;|=|\{|,)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;:)]*:\s*([^)]*)\)")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*c?r?begin\s*\(")

POINTER_KEY_RE = re.compile(
    r"\b(?:unordered_)?(?:multi)?(?:map|set)\s*<\s*"
    r"(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*\s*[,>]")

FUNC_DEF_RE = re.compile(
    r"\b(?:[A-Za-z_]\w*::)*~?([A-Za-z_]\w*)\s*\([^;{}()]*\)?\s*"
    r"(?:const\s*)?(?:noexcept\s*)?(?:->\s*[\w:<>&*\s]+)?\{")
PARSE_NAME_RE = re.compile(
    r"(?i)^(parse|deserialize|decode|unpack|load|read|from)(_|$|[A-Z])?")
ASSERT_RE = re.compile(r"(?<!static_)(?<!\w)assert\s*\(")

CPU_DISPATCH_PATTERNS = [
    (re.compile(r"#\s*include\s*<\s*(?:\w*intrin|cpuid|arm_neon)\.h\s*>"),
     "intrinsics header"),
    (re.compile(r"\b__builtin_cpu_(?:supports|is|init)\b"),
     "CPU feature probe"),
    (re.compile(r"(?:\b__attribute__\s*\(\([^;{]*?|\bgnu::)"
                r"\btarget(?:_clones)?\s*\("),
     "target attribute"),
]
# The one file allowed to hold CPU-dependent code (matched as a path suffix).
CPU_DISPATCH_HOME = "src/valcon/crypto/sha256.cpp"

SET_TALLY_RE = re.compile(
    r"(?<![\w:])(?:std::)?set\s*<\s*(?:(?:valcon::)?ProcessId|int)\s*>")
# Protocol-code directories (any path component), as in valcon_protomap.py.
SET_TALLY_DIRS = frozenset({"consensus", "bcast"})

PAYLOAD_SUBCLASS_RE = re.compile(
    r"\b(?:struct|class)\s+([\w:]+)\s*(?:final\s*)?:"
    r"[^;{]*?\b(?:public\s+)?(?:[\w:]+::)?Payload\b")


def rule_simple_patterns(path, code_lines, _raw, patterns, rule, message):
    findings = []
    for idx, line in enumerate(code_lines):
        for pattern, what in patterns:
            if pattern.search(line):
                findings.append(Finding(path, idx + 1, rule,
                                        f"{what}: {message}"))
                break
    return findings


def rule_wall_clock(path, code_lines, raw_lines):
    return rule_simple_patterns(
        path, code_lines, raw_lines, WALL_CLOCK_PATTERNS, "wall-clock",
        "wall-clock time is nondeterministic; simulated time comes from "
        "Context::now(), host timing from steady_clock (and must never "
        "feed serialized output)")


def rule_raw_rand(path, code_lines, raw_lines):
    return rule_simple_patterns(
        path, code_lines, raw_lines, RAW_RAND_PATTERNS, "raw-rand",
        "unseeded/system randomness breaks (config, seed) determinism; "
        "draw from sim::Rng instead")


def rule_build_stamp(path, code_lines, _raw):
    findings = []
    for idx, line in enumerate(code_lines):
        if BUILD_STAMP_RE.search(line):
            findings.append(Finding(
                path, idx + 1, "build-stamp",
                "__DATE__/__TIME__ bake the build instant into the binary; "
                "outputs must depend only on inputs"))
    return findings


def rule_unordered_iteration(path, code_lines, _raw):
    """Flags iteration over variables declared with an unordered container
    type in the same file (range-for over the variable, or .begin() on it)
    and range-for directly over an unordered-typed expression."""
    unordered_vars = set()
    for line in code_lines:
        for m in UNORDERED_DECL_RE.finditer(line):
            unordered_vars.add(m.group(1))
    findings = []
    message = ("hash-order iteration is libstdc++-version- and seed-"
               "dependent; iterate a sorted copy or an ordered container")
    for idx, line in enumerate(code_lines):
        flagged = False
        for m in RANGE_FOR_RE.finditer(line):
            expr = m.group(1)
            if "unordered_" in expr or any(
                    re.search(rf"\b{re.escape(v)}\b", expr)
                    for v in unordered_vars):
                findings.append(Finding(path, idx + 1, "unordered-iteration",
                                        message))
                flagged = True
                break
        if flagged:
            continue
        for m in BEGIN_CALL_RE.finditer(line):
            if m.group(1) in unordered_vars:
                findings.append(Finding(path, idx + 1, "unordered-iteration",
                                        message))
                break
    return findings


def rule_pointer_key(path, code_lines, _raw):
    findings = []
    for idx, line in enumerate(code_lines):
        if POINTER_KEY_RE.search(line):
            findings.append(Finding(
                path, idx + 1, "pointer-key",
                "pointer values vary run to run (ASLR, allocator); key maps "
                "and orderings on stable ids instead"))
    return findings


def rule_assert_validation(path, code_lines, _raw):
    """Flags assert() inside functions whose name marks them as consuming
    external input (parse/deserialize/decode/unpack/load/read/from_*).
    Asserts compile out under NDEBUG, so they cannot be the validation."""
    findings = []
    current_fn = None
    fn_depth = 0
    depth = 0
    for idx, line in enumerate(code_lines):
        m = FUNC_DEF_RE.search(line)
        if m is not None and m.group(1) not in (
                "if", "for", "while", "switch", "catch", "return"):
            current_fn = m.group(1)
            fn_depth = depth  # depth *before* this line's braces
        if current_fn is not None and PARSE_NAME_RE.match(current_fn) \
                and ASSERT_RE.search(line):
            findings.append(Finding(
                path, idx + 1, "assert-validation",
                f"assert() in '{current_fn}' vanishes under NDEBUG; "
                "external input needs a real error path (throw or "
                "std::nullopt)"))
        depth += line.count("{") - line.count("}")
        if current_fn is not None and depth <= fn_depth:
            current_fn = None
    return findings


def rule_cpu_dispatch(path, code_lines, raw_lines):
    if path.replace(os.sep, "/").endswith(CPU_DISPATCH_HOME):
        return []
    return rule_simple_patterns(
        path, code_lines, raw_lines, CPU_DISPATCH_PATTERNS, "cpu-dispatch",
        f"CPU-dependent code paths live only in {CPU_DISPATCH_HOME}, where "
        "both SHA-256 kernels run in lockstep tests; call through it")


def rule_set_tally(path, code_lines, _raw):
    if not SET_TALLY_DIRS.intersection(path.replace(os.sep, "/")
                                       .split("/")[:-1]):
        return []
    findings = []
    for idx, line in enumerate(code_lines):
        if SET_TALLY_RE.search(line):
            findings.append(Finding(
                path, idx + 1, "set-tally",
                "a std::set of process ids allocates a node per vote; "
                "tally distinct senders in a core::ProcessSet "
                "(core/process_set.hpp)"))
    return findings


def rule_payload_type(path, code_lines, _raw):
    """Every concrete Payload subclass must declare VALCON_PAYLOAD_TYPE in
    its body, so its metrics identity is interned and cached.  Wrapper
    payloads forwarding an inner identity suppress with a reason."""
    text = "\n".join(code_lines)
    findings = []
    for m in PAYLOAD_SUBCLASS_RE.finditer(text):
        brace = text.find("{", m.end() - 1)
        if brace < 0:
            continue
        depth = 0
        end = brace
        for i in range(brace, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        body = text[brace:end]
        if "VALCON_PAYLOAD_TYPE" not in body:
            line = text.count("\n", 0, m.start()) + 1
            findings.append(Finding(
                path, line, "payload-type",
                f"'{m.group(1)}' subclasses Payload without "
                "VALCON_PAYLOAD_TYPE; metrics identity must be declared "
                "(wrappers forwarding an inner payload's identity add an "
                "explicit suppression)"))
    return findings


RULES = {
    "wall-clock": rule_wall_clock,
    "raw-rand": rule_raw_rand,
    "build-stamp": rule_build_stamp,
    "unordered-iteration": rule_unordered_iteration,
    "pointer-key": rule_pointer_key,
    "assert-validation": rule_assert_validation,
    "payload-type": rule_payload_type,
    "cpu-dispatch": rule_cpu_dispatch,
    "set-tally": rule_set_tally,
}


# --------------------------------------------------------- suppression logic


def parse_allows(raw_lines):
    """Returns ({line: set(rules)}, [Finding for bare allows]).  Line numbers
    are 1-based.  An allow with no reason is itself a finding."""
    allows = {}
    findings = []
    for idx, line in enumerate(raw_lines):
        m = ALLOW_RE.search(line)
        if m is None:
            if "valcon-lint:" in line and "allow" in line:
                findings.append(Finding(
                    "", idx + 1, "bad-suppression",
                    "malformed suppression; expected "
                    "`// valcon-lint: allow(<rule>) -- <reason>`"))
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        reason = m.group(2)
        if not rules or reason is None or not reason.strip():
            findings.append(Finding(
                "", idx + 1, "bad-suppression",
                "suppression without a written reason; use "
                "`// valcon-lint: allow(<rule>) -- <reason>`"))
            continue
        unknown = {r for r in rules if r != "*" and r not in RULES}
        if unknown:
            findings.append(Finding(
                "", idx + 1, "bad-suppression",
                f"suppression names unknown rule(s): {', '.join(sorted(unknown))}"))
            continue
        allows[idx + 1] = rules
    return allows, findings


def lint_file(path: str) -> list[Finding]:
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [Finding(path, 0, "io-error", str(e))]
    raw_lines = text.split("\n")
    code_lines = strip_comments_and_strings(text).split("\n")
    allows, bad = parse_allows(raw_lines)
    findings = []
    for f in bad:
        f.path = path
        findings.append(f)
    for rule_fn in RULES.values():
        for f in rule_fn(path, code_lines, raw_lines):
            waived = allows.get(f.line, set()) | allows.get(f.line - 1, set())
            if f.rule in waived or "*" in waived:
                continue
            findings.append(f)
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def collect_files(paths):
    files = []
    for path in paths:
        if os.path.isfile(path):
            # Only C++ sources carry the determinism rules.  Data files ride
            # along in linted trees — most prominently the committed
            # adversary-search corpus (tests/corpus/*.json), whose cells are
            # machine-generated wire format, not source — and are exempt
            # even when named explicitly.
            if path.endswith(CPP_EXTENSIONS):
                files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d not in EXCLUDED_DIR_NAMES)
                for name in sorted(names):
                    if name.endswith(CPP_EXTENSIONS):
                        files.append(os.path.join(root, name))
        else:
            print(f"valcon-lint: no such path: {path}", file=sys.stderr)
            sys.exit(2)
    return files


# ------------------------------------------------------------------ selftest


def self_test(corpus_dir: str) -> int:
    """Runs the corpus: files under good/ must produce zero findings; files
    under bad/ must produce exactly the findings named by their
    `// lint-expect: <rule>` markers (on the flagged line)."""
    good_dir = os.path.join(corpus_dir, "good")
    bad_dir = os.path.join(corpus_dir, "bad")
    if not os.path.isdir(good_dir) or not os.path.isdir(bad_dir):
        print(f"valcon-lint: corpus {corpus_dir} needs good/ and bad/",
              file=sys.stderr)
        return 2
    failures = 0
    checked = 0
    covered_rules = set()
    for path in collect_files([good_dir]):
        checked += 1
        for f in lint_file(path):
            print(f"SELF-TEST FAIL (good file flagged): {f.format()}")
            failures += 1
    for path in collect_files([bad_dir]):
        checked += 1
        with open(path, encoding="utf-8") as fh:
            raw_lines = fh.read().split("\n")
        expected = set()
        for idx, line in enumerate(raw_lines):
            m = LINT_EXPECT_RE.search(line)
            if m is not None:
                for rule in m.group(1).split(","):
                    rule = rule.strip()
                    if rule not in RULES and rule != "bad-suppression":
                        print(f"SELF-TEST FAIL: {path}:{idx + 1} expects "
                              f"unknown rule '{rule}'")
                        failures += 1
                        continue
                    expected.add((idx + 1, rule))
        actual = {(f.line, f.rule) for f in lint_file(path)}
        for line_no, rule in sorted(expected - actual):
            print(f"SELF-TEST FAIL (missed): {path}:{line_no} "
                  f"expected [{rule}], not reported")
            failures += 1
        for line_no, rule in sorted(actual - expected):
            print(f"SELF-TEST FAIL (spurious): {path}:{line_no} "
                  f"reported [{rule}], not expected")
            failures += 1
        covered_rules.update(rule for _, rule in expected)
    uncovered = set(RULES) - covered_rules
    if uncovered:
        print("SELF-TEST FAIL: corpus has no bad-case coverage for: "
              + ", ".join(sorted(uncovered)))
        failures += 1
    if failures:
        print(f"self-test: {failures} failure(s) over {checked} files")
        return 1
    print(f"self-test: OK ({checked} corpus files, "
          f"{len(covered_rules)} rules covered)")
    return 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="valcon_lint.py", add_help=True)
    parser.add_argument("paths", nargs="*", default=None)
    parser.add_argument("--self-test", nargs="?", const="tests/lint_corpus",
                        default=None, metavar="CORPUS_DIR")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--default-paths", action="store_true",
                        help="lint the canonical repo tree: "
                             + " ".join(DEFAULT_LINT_DIRS))
    parser.add_argument("--root", default=".", metavar="DIR",
                        help="directory the default paths are resolved "
                             "against (default: .)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            print(name)
        print("bad-suppression")
        return 0
    if args.self_test is not None:
        return self_test(args.self_test)

    if args.default_paths:
        if args.paths:
            print("valcon-lint: --default-paths takes no positional paths",
                  file=sys.stderr)
            return 2
        paths = [os.path.join(args.root, d) for d in DEFAULT_LINT_DIRS
                 if os.path.isdir(os.path.join(args.root, d))]
        if not paths:
            print(f"valcon-lint: no lintable directories under {args.root}",
                  file=sys.stderr)
            return 2
    else:
        paths = args.paths or ["src"]
    findings = []
    files = collect_files(paths)
    for path in files:
        findings.extend(lint_file(path))
    for f in findings:
        print(f.format())
    if findings:
        print(f"valcon-lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"valcon-lint: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
