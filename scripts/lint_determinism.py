#!/usr/bin/env python3
"""Determinism lint wall.

The repo's core contract is bit-identical output for fixed inputs: every
bench text summary and BENCH_*.json diffs byte-for-byte against committed
goldens, and the hazard checker's reports must be stable across runs. Two
classes of C++ constructs silently break that contract:

  1. ambient-entropy sources — wall-clock reads (``std::time``, ``clock()``,
     ``gettimeofday``, the ``<chrono>`` wall clocks) and unseeded randomness
     (``rand()``/``srand()``, ``std::random_device``). Simulated time comes
     from sim::SimTime and randomness from explicitly seeded engines; and

  2. iteration over unordered containers feeding output — hash-map walk
     order is implementation-defined and (for pointer keys) run-dependent,
     so a range-for over ``std::unordered_map``/``std::unordered_set`` that
     reaches any output path is a latent golden-file flake.

This linter rejects both. A finding is waived by the comment

    // determinism-ok: <reason>

on the flagged line or the line directly above it — the reason is
mandatory and should say why the construct is deterministic anyway (e.g.
"sorted below", "membership only"). CI runs this over src/ tests/ bench/
examples/ in both the build-test and sanitizer jobs; it is also wired as
the ``determinism_lint`` CTest.

Usage: lint_determinism.py [ROOT_DIR]
Exit status: 0 clean, 1 findings, 2 usage error.
"""

import re
import sys
from pathlib import Path

SCAN_DIRS = ("src", "tests", "bench", "examples")
EXTENSIONS = {".cpp", ".hpp", ".cc", ".hh", ".h"}

WAIVER = re.compile(r"//\s*determinism-ok\s*:\s*\S")

# Each banned construct: (regex, message). Patterns run against the code
# portion of a line (comments and string literals stripped), so prose like
# "event time (0 when empty)" never trips the wall-clock rule.
BANNED = [
    (re.compile(r"\bstd::time\s*\(|\btime\s*\(\s*(NULL|nullptr|0)\s*\)"),
     "wall-clock read (std::time); simulated time must come from sim::SimTime"),
    (re.compile(r"\bgettimeofday\s*\(|\bclock_gettime\s*\(|\bclock\s*\(\s*\)"),
     "wall-clock read; simulated time must come from sim::SimTime"),
    (re.compile(r"\b(?:std::chrono::)?(?:system_clock|steady_clock|"
                r"high_resolution_clock)\b"),
     "chrono wall clock; simulated time must come from sim::SimTime"),
    (re.compile(r"\brand\s*\(\s*\)|\bsrand\s*\("),
     "unseeded C randomness; draw from an explicitly seeded dgnn::Rng"),
    (re.compile(r"\bstd::random_device\b|\brandom_device\b"),
     "std::random_device is nondeterministic; derive seeds from config"),
]

UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s+(\w+)\s*[;{=(]")
RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*:\s*(?:\w+\.)*(\w+)\s*\)")

STRING_LITERAL = re.compile(r'"(?:[^"\\]|\\.)*"')
LINE_COMMENT = re.compile(r"//.*$")


def strip_noise(line: str) -> str:
    """Removes string literals and // comments so patterns see only code.

    Block comments are handled coarsely (leading '* ' doc lines dropped);
    the repo's style keeps /* */ to Doxygen blocks where that suffices.
    """
    stripped = line.lstrip()
    if stripped.startswith(("*", "/*")):
        return ""
    line = STRING_LITERAL.sub('""', line)
    return LINE_COMMENT.sub("", line)


def waived(lines: list[str], index: int) -> bool:
    if WAIVER.search(lines[index]):
        return True
    return index > 0 and WAIVER.search(lines[index - 1]) is not None


def lint_file(path: Path) -> list[str]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as err:
        return [f"{path}: unreadable ({err})"]

    findings = []
    # Pass 1: names declared as unordered containers anywhere in the file
    # (member or local; one namespace per file keeps collisions unlikely).
    unordered_names = set()
    for line in lines:
        code = strip_noise(line)
        for match in UNORDERED_DECL.finditer(code):
            unordered_names.add(match.group(1))

    # Pass 2: banned constructs and unordered iteration.
    for index, line in enumerate(lines):
        code = strip_noise(line)
        if not code:
            continue
        for pattern, message in BANNED:
            if pattern.search(code) and not waived(lines, index):
                findings.append(f"{path}:{index + 1}: {message}")
        for match in RANGE_FOR.finditer(code):
            if match.group(1) in unordered_names and not waived(lines, index):
                findings.append(
                    f"{path}:{index + 1}: range-for over unordered container "
                    f"'{match.group(1)}' — iteration order is "
                    "implementation-defined; sort first or waive with "
                    "'// determinism-ok: <reason>'")
    return findings


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[1]) if len(argv) == 2 else Path(__file__).resolve().parent.parent
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2

    findings = []
    scanned = 0
    for sub in SCAN_DIRS:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in EXTENSIONS and path.is_file():
                scanned += 1
                findings.extend(lint_file(path))

    for finding in findings:
        print(finding)
    print(f"determinism lint: {scanned} files scanned, "
          f"{len(findings)} finding(s)",
          file=sys.stderr if findings else sys.stdout)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
