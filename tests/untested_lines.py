"""Fail unless the lines of src/facetkit that no tier-1 test runs are the
entries of untested_lines.txt, each ``file: function: stripped line`` with
its reason indented below it.  Run from the repository root on Python 3.11,
whose line tables the list follows:

    PYTHONPATH=src python tests/untested_lines.py

One ``sys.settrace`` hook records the lines run in frames of src/facetkit
while pytest runs tier-1 in this process (subprocesses are not traced); a
module's executable lines are the ``co_lines()`` of its code objects.  An
unrun line missing from the list fails, and so does an entry that runs now
or is gone, so the list only shrinks.  A failing test fails first.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "facetkit"
LISTED = Path(__file__).with_name("untested_lines.txt")


def executable_lines(path):
    """{line number: qualified name of the innermost code object holding it}."""
    lines = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update({line: code.co_qualname for _, _, line in code.co_lines() if line})
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def pytest_load_initial_conftests():
    """Turn Hypothesis deadlines off before the conftest loads its profile,
    whose parent is the default one: tracing slows every example."""
    from hypothesis import settings

    settings.register_profile("default", settings.get_profile("default"), deadline=None)


def main():
    ran, wanted = set(), {}

    def local(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        code = frame.f_code
        if code not in wanted:
            wanted[code] = Path(code.co_filename).resolve().parent == SRC
        return local if wanted[code] else None

    sys.settrace(hook)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors"],
                             plugins=[sys.modules[__name__]])
    finally:
        sys.settrace(None)
    if status:
        return status

    ran = {(Path(name).resolve(), line) for name, line in ran}
    unrun = []  # (key, line number)
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        unrun += [(f"{path.name}: {function}: {text[line - 1].strip()}", line)
                  for line, function in sorted(executable_lines(path).items())
                  if (path, line) not in ran]
    entries = [row for row in LISTED.read_text(encoding="utf-8").splitlines()
               if row.strip() and not row.startswith(("#", " "))]
    new = Counter(key for key, _ in unrun) - Counter(entries)
    stale = Counter(entries) - Counter(key for key, _ in unrun)
    for key, line in unrun:
        if key in new:
            print(f"not run by any test and not listed: src/facetkit/"
                  f"{key.split(':')[0]}:{line}: {key}")
    for key in stale.elements():
        print(f"listed but not an unrun line (runs now, or gone): {key}")
    print(f"{len(unrun)} unrun lines of src/facetkit, {len(entries)} listed in {LISTED.name}")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
