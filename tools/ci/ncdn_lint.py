#!/usr/bin/env python3
"""ncdn determinism linter.

The simulator's headline contract is byte-identical sweep output for a
fixed seed, across worker counts and standard-library releases.  clang-tidy cannot see contract-level hazards, so this linter
bans the constructs that historically break that contract:

  random-device    std::random_device — nondeterministic entropy source.
  libc-rand        rand()/srand() — hidden global state, libc-dependent.
  wall-clock       time()/clock()/chrono clocks — results depend on when
                   and where the run happens.  Allowed under bench/ (the
                   timer harness) and in tools/; annotate elsewhere.
  unordered-container
                   std::unordered_{map,set,...} in src/ — iteration order
                   is a standard-library private detail.  Convert to an
                   ordered container or to the fixed-hash lookup table
                   src/core/pair_index.hpp, or annotate a provably
                   lookup-only use.
  ptr-key-container
                   std::map/std::set keyed on a pointer — iteration order
                   follows the allocator, not the data.
  float-metrics    float/double in the metrics/JSON serialization path
                   (src/runner/, src/core/stats.*) — annotate with the
                   IEEE-754 determinism argument for the operations used.

Findings are suppressed by an annotation carrying a justification:

  ... banned construct ...  // ncdn-lint: allow(<rule>): <why it is safe>

either on the offending line or in the contiguous comment block directly
above it.  `ncdn-lint: allow-file(<rule>): <why>` anywhere in a file
silences the rule for that whole file (for e.g. the JSON number emitter,
which is floating-point by design).

The file set is taken from compile_commands.json when present (plus all
headers under the scanned roots), so generated or abandoned sources do
not rot into the lint baseline; without it, every C++ file under the
roots is scanned.  Exit status: 0 clean, 1 findings, 2 usage error.

Run the bundled corpus check with --self-test (exact-match against
lint_fixtures/expected_findings.txt); CI runs both modes as a CTest case.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

CPP_SUFFIXES = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h")

# Directories scanned relative to the repo root.  bench/ is included so
# the non-clock rules still apply there.
SCAN_ROOTS = ("src", "tools", "bench", "tests", "examples")


@dataclass(frozen=True)
class Rule:
    """One banned construct: where it applies and how to recognize it."""

    rule_id: str
    pattern: re.Pattern[str]
    message: str
    # Path prefixes (repo-relative, '/'-separated) the rule applies to;
    # empty means everywhere under SCAN_ROOTS.
    only_under: tuple[str, ...] = ()
    # Path prefixes exempt without any annotation.
    exempt_under: tuple[str, ...] = ()


RULES: tuple[Rule, ...] = (
    Rule(
        rule_id="random-device",
        pattern=re.compile(r"\bstd\s*::\s*random_device\b"),
        message="std::random_device is a nondeterministic entropy source; "
        "derive streams from the run seed (core/rng.hpp)",
    ),
    Rule(
        rule_id="libc-rand",
        pattern=re.compile(r"\b(?:std\s*::\s*)?s?rand\s*\("),
        message="rand()/srand() use hidden libc-dependent global state; "
        "use ncdn::rng",
    ),
    Rule(
        rule_id="wall-clock",
        pattern=re.compile(
            r"\bstd\s*::\s*time\s*\(|\bstd\s*::\s*clock\s*\(|"
            r"\bgettimeofday\s*\(|\bclock_gettime\s*\(|"
            r"\bchrono\s*::\s*(?:system|steady|high_resolution)_clock\b"
        ),
        message="wall-clock reads make output depend on when the run "
        "happens; timing belongs in bench/ or on stderr",
        exempt_under=("bench/", "tools/"),
    ),
    Rule(
        rule_id="unordered-container",
        pattern=re.compile(
            r"\bunordered_(?:flat_)?(?:map|set|multimap|multiset)\b"
        ),
        message="unordered-container iteration order is a standard-library "
        "private detail; use an ordered container or a pair_index "
        "(src/core/pair_index.hpp), or annotate a lookup-only use",
        only_under=("src/",),
    ),
    Rule(
        rule_id="ptr-key-container",
        pattern=re.compile(
            r"\bstd\s*::\s*(?:multi)?(?:map|set)\s*<\s*"
            r"(?:const\s+)?[A-Za-z_][\w:]*\s*\*"
        ),
        message="pointer-keyed ordered containers iterate in allocation "
        "order; key on a stable id instead",
    ),
    Rule(
        rule_id="float-metrics",
        pattern=re.compile(r"\b(?:float|double)\b"),
        message="floating point in the metrics/JSON path needs an IEEE-754 "
        "determinism argument for the operations used (allow-file "
        "with justification)",
        only_under=("src/runner/", "src/core/stats."),
    ),
)

RULE_IDS = frozenset(r.rule_id for r in RULES)

ANNOTATION = re.compile(r"ncdn-lint:\s*allow(-file)?\(([a-z-]+)\)")


@dataclass(frozen=True)
class Finding:
    path: str  # repo-relative, '/'-separated
    line: int  # 1-based
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule_id}] {self.message}"


@dataclass(frozen=True)
class SourceFile:
    """A scanned file, split into lint-relevant layers."""

    path: str
    # Source lines with comment text and string-literal contents blanked
    # out (line structure preserved) — what the rule patterns run over.
    code_lines: list[str]
    # Comment text per line — where annotations are read from.
    comment_lines: list[str]
    # True for lines that contain only comments/whitespace (a contiguous
    # run of these directly above a finding can carry its annotation).
    comment_only: list[bool]


def split_layers(text: str) -> tuple[list[str], list[str]]:
    """Separates code from comments, blanking string-literal contents.

    Returns (code_lines, comment_lines).  A tiny scanner rather than a
    real lexer: handles //, /* */, "..." and '...' with escapes, which
    covers this codebase (no raw strings in lint-sensitive positions).
    """
    code: list[str] = []
    comments: list[str] = []
    cur_code: list[str] = []
    cur_comment: list[str] = []
    state = "code"  # code | line-comment | block-comment | dquote | squote
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            code.append("".join(cur_code))
            comments.append("".join(cur_comment))
            cur_code, cur_comment = [], []
            if state == "line-comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line-comment"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block-comment"
                i += 2
                continue
            if ch == '"':
                state = "dquote"
                cur_code.append('"')
                i += 1
                continue
            if ch == "'":
                state = "squote"
                cur_code.append("'")
                i += 1
                continue
            cur_code.append(ch)
        elif state in ("dquote", "squote"):
            quote = '"' if state == "dquote" else "'"
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                state = "code"
                cur_code.append(quote)
            i += 1
            continue
        elif state == "line-comment":
            cur_comment.append(ch)
        elif state == "block-comment":
            if ch == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            cur_comment.append(ch)
        i += 1
    if cur_code or cur_comment or text.endswith("\n") is False:
        code.append("".join(cur_code))
        comments.append("".join(cur_comment))
    return code, comments


def load_source(repo_root: Path, rel_path: str) -> SourceFile | None:
    try:
        text = (repo_root / rel_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    code_lines, comment_lines = split_layers(text)
    comment_only = [
        code.strip() == "" and comment.strip() != ""
        for code, comment in zip(code_lines, comment_lines)
    ]
    return SourceFile(rel_path, code_lines, comment_lines, comment_only)


def annotations_of(src: SourceFile) -> tuple[set[str], dict[int, set[str]]]:
    """Returns (file-level allowed rules, per-line allowed rules).

    Per-line grants attach to the annotation's own line and propagate
    downward through a contiguous comment-only block onto the first code
    line after it (so a justification written above the construct counts).
    """
    file_allowed: set[str] = set()
    line_allowed: dict[int, set[str]] = {}
    for idx, comment in enumerate(src.comment_lines):
        for m in ANNOTATION.finditer(comment):
            is_file = m.group(1) == "-file"
            rule_id = m.group(2)
            if rule_id not in RULE_IDS:
                print(
                    f"{src.path}:{idx + 1}: unknown lint rule "
                    f"'{rule_id}' in annotation",
                    file=sys.stderr,
                )
                raise SystemExit(2)
            if is_file:
                file_allowed.add(rule_id)
            else:
                line_allowed.setdefault(idx, set()).add(rule_id)
    # Propagate comment-block annotations onto the code line below.
    propagated: dict[int, set[str]] = {}
    for idx, rules in line_allowed.items():
        target = idx
        if src.comment_only[idx]:
            while target + 1 < len(src.code_lines) and src.comment_only[
                target + 1
            ]:
                target += 1
            target += 1  # first non-comment-only line after the block
        propagated.setdefault(target, set()).update(rules)
    return file_allowed, propagated


def applies_to(rule: Rule, rel_path: str) -> bool:
    if rule.only_under and not rel_path.startswith(rule.only_under):
        return False
    return not rel_path.startswith(rule.exempt_under)


def lint_file(src: SourceFile) -> list[Finding]:
    file_allowed, line_allowed = annotations_of(src)
    findings: list[Finding] = []
    for rule in RULES:
        if not applies_to(rule, src.path):
            continue
        if rule.rule_id in file_allowed:
            continue
        for idx, code in enumerate(src.code_lines):
            if not rule.pattern.search(code):
                continue
            if rule.rule_id in line_allowed.get(idx, set()):
                continue
            findings.append(
                Finding(src.path, idx + 1, rule.rule_id, rule.message)
            )
    return findings


def compiled_files(repo_root: Path, compile_commands: Path) -> set[str] | None:
    """Repo-relative paths of translation units CMake actually compiles."""
    try:
        entries = json.loads(compile_commands.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(entries, list):
        return None
    out: set[str] = set()
    for entry in entries:
        if not isinstance(entry, dict):
            continue
        file_field = entry.get("file")
        if not isinstance(file_field, str):
            continue
        path = Path(file_field)
        if not path.is_absolute():
            directory = entry.get("directory")
            if not isinstance(directory, str):
                continue
            path = Path(directory) / path
        try:
            out.add(path.resolve().relative_to(repo_root).as_posix())
        except ValueError:
            continue  # outside the repo (e.g. fetched third-party code)
    return out or None


def collect_files(
    repo_root: Path, compile_commands: Path | None
) -> list[str]:
    """The scan set: compiled TUs (when known) plus every header."""
    tus: set[str] | None = None
    if compile_commands is not None and compile_commands.exists():
        tus = compiled_files(repo_root, compile_commands)
    out: set[str] = set()
    for root in SCAN_ROOTS:
        base = repo_root / root
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CPP_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(repo_root).as_posix()
            if "lint_fixtures" in rel:
                continue
            is_header = path.suffix in (".hpp", ".hh", ".h")
            if tus is not None and not is_header and rel not in tus:
                continue
            out.add(rel)
    return sorted(out)


def run_lint(repo_root: Path, files: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    for rel in files:
        src = load_source(repo_root, rel)
        if src is not None:
            findings.extend(lint_file(src))
    findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return findings


def self_test(repo_root: Path) -> int:
    """Exact-match the fixture corpus against its expected findings.

    Fixtures mirror the repo layout (lint_fixtures/src/..., .../bench/...)
    and are linted relative to the corpus root, so the path-scoped rules
    fire exactly as they would on real sources at those locations.
    """
    fixtures = repo_root / "tools" / "ci" / "lint_fixtures"
    expected_path = fixtures / "expected_findings.txt"
    if not expected_path.exists():
        print(f"ncdn_lint: missing {expected_path}", file=sys.stderr)
        return 2
    files = [
        p.relative_to(fixtures).as_posix()
        for p in sorted(fixtures.rglob("*"))
        if p.suffix in CPP_SUFFIXES and p.is_file()
    ]
    got = [f.render() for f in run_lint(fixtures, files)]
    expected = [
        line
        for line in expected_path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    if got == expected:
        print(
            f"ncdn_lint self-test: {len(files)} fixtures, "
            f"{len(got)} findings, all as expected"
        )
        return 0
    print("ncdn_lint self-test FAILED", file=sys.stderr)
    for line in got:
        marker = " " if line in expected else "+"
        print(f"{marker} {line}", file=sys.stderr)
    for line in expected:
        if line not in got:
            print(f"- {line}", file=sys.stderr)
    return 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="ncdn_lint.py",
        description="determinism linter for the ncdn codebase",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parents[2],
        help="repository root (default: two levels above this script)",
    )
    parser.add_argument(
        "--compile-commands",
        type=Path,
        default=None,
        help="compile_commands.json restricting the scan to compiled TUs "
        "(default: <root>/build/compile_commands.json when present)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="lint the bundled fixture corpus instead of the repo and "
        "compare against expected_findings.txt",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="repo-relative files to lint (default: the full scan set)",
    )
    args = parser.parse_args(argv)
    repo_root = args.root.resolve()
    if not repo_root.is_dir():
        print(f"ncdn_lint: no such root: {repo_root}", file=sys.stderr)
        return 2

    if args.self_test:
        return self_test(repo_root)

    compile_commands: Path | None = args.compile_commands
    if compile_commands is None:
        compile_commands = repo_root / "build" / "compile_commands.json"
    if args.paths:
        files = [str(p) for p in args.paths]
    else:
        files = collect_files(repo_root, compile_commands)
    if not files:
        print("ncdn_lint: nothing to lint", file=sys.stderr)
        return 2

    findings = run_lint(repo_root, files)
    for finding in findings:
        print(finding.render())
    if findings:
        print(
            f"ncdn_lint: {len(findings)} finding(s) in {len(files)} "
            "file(s); convert the construct or add 'ncdn-lint: "
            "allow(<rule>): <justification>'",
            file=sys.stderr,
        )
        return 1
    print(f"ncdn_lint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
