"""Comparison-flip mutation probe.

Flips one comparison at a time in the chosen modules of src/geomis
(< and <=, > and >=, == and !=, and operator.le and operator.lt where
they are passed to a call) and runs the tests on each mutant with -x.
A mutant that passes them survives: either the tests miss a boundary
or the flip changes nothing.  Survivors listed in
tools/mutate_equivalent.txt are accepted; any other survivor makes the
exit status 1.

Every mutant is written into a temporary copy of src/, tests/, README.md
and pyproject.toml, so the checkout is never edited.  Mutants run one
after another, each in one pytest process of the whole suite.  The
unmutated suite runs first and sets the limit: a mutant that runs past
TIMEOUT_FACTOR times its time, or past TIMEOUT_FLOOR if that is longer
(a flip can make a loop never end), counts as killed.

    python tools/mutate.py
    python tools/mutate.py --modules oracle.py geometry.py
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENT = Path(__file__).resolve().with_name("mutate_equivalent.txt")
FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
FUNCTION_FLIPS = {"le": "lt", "lt": "le"}
COPIED = ("src", "tests", "README.md", "pyproject.toml")
TIMEOUT_FACTOR = 3.0  # a mutant's limit, in unmutated suite runs
TIMEOUT_FLOOR = 60.0  # seconds: the least limit a mutant gets
SKIPPED = (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT)


@dataclass(frozen=True)
class Mutant:
    module: str
    row: int
    col: int
    old: str
    new: str
    key: str


def mutants(module: str, source: str) -> list[Mutant]:
    """Every flip site in source, keyed by module, stripped line and
    flip, with @n for the n-th repeat of that flip on one line."""
    lines = source.splitlines()
    found: list[Mutant] = []
    seen: dict[str, int] = {}
    previous = None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        new = None
        if tok.type == tokenize.OP and tok.string in FLIPS:
            new = FLIPS[tok.string]
        elif tok.type == tokenize.NAME and tok.string in FUNCTION_FLIPS and previous == "(":
            new = FUNCTION_FLIPS[tok.string]
        if tok.type not in SKIPPED:
            previous = tok.string
        if new is None:
            continue
        row, col = tok.start
        key = f"{module}: {lines[row - 1].strip()}  [{tok.string} -> {new}]"
        n = seen.get(key, 0)
        seen[key] = n + 1
        if n:
            key = f"{key} @{n}"
        found.append(Mutant(module, row, col, tok.string, new, key))
    return found


def apply(source: str, m: Mutant) -> str:
    lines = source.splitlines(keepends=True)
    line = lines[m.row - 1]
    assert line[m.col:m.col + len(m.old)] == m.old, m
    lines[m.row - 1] = line[:m.col] + m.new + line[m.col + len(m.old):]
    return "".join(lines)


def accepted_keys() -> set[str]:
    """Keys of the accepted survivors: every line of the list that is
    neither blank nor a # comment."""
    text = EQUIVALENT.read_text(encoding="utf-8")
    return {line.strip() for line in text.splitlines() if line.strip() and not line.startswith("#")}


def run_tests(copy: Path, timeout: float | None) -> str:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    # pytest exits 0 when all pass, 1 when a test fails; anything else
    # (collection or usage errors) also stops the mutant.
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--modules", nargs="+", default=["algorithms.py", "lattice.py"])
    args = parser.parse_args(argv)

    accepted = accepted_keys()
    survivors: list[str] = []
    with tempfile.TemporaryDirectory(prefix="geomis-mutate-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        start = time.perf_counter()
        if run_tests(copy, None) != "survived":
            print("error: the tests fail on the unmutated copy", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - start
        timeout = max(TIMEOUT_FLOOR, TIMEOUT_FACTOR * elapsed)
        print(f"unmutated suite {elapsed:.1f}s; limit per mutant {timeout:.1f}s", flush=True)
        total = 0
        for module in args.modules:
            path = copy / "src" / "geomis" / module
            source = path.read_text(encoding="utf-8")
            for m in mutants(module, source):
                total += 1
                path.write_text(apply(source, m), encoding="utf-8")
                start = time.perf_counter()
                outcome = run_tests(copy, timeout)
                path.write_text(source, encoding="utf-8")
                if outcome == "survived":
                    if m.key in accepted:
                        outcome = "survived (accepted)"
                    else:
                        survivors.append(m.key)
                print(f"{outcome:18} {time.perf_counter() - start:6.1f}s  {m.key}", flush=True)
    print(f"{total} mutants, {len(survivors)} unaccepted survivors")
    for key in survivors:
        print(f"  {key}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
