"""Every public name of facetkit has a reader outside the tests."""

import ast
from pathlib import Path

import facetkit

ROOT = Path(__file__).resolve().parent.parent

#: The exports that nothing outside the tests reads, each with the reason it
#: stays.  The list only shrinks: a listed name that gains a reader fails the
#: test, and so does an unread export that is not listed.
TEST_ONLY = {
    "ingest_csv_text": "the one ingest for CSV text already held in memory",
    "qwk_vectors": "the one QWK for paired scores already held in memory",
}


def read_names(root):
    """Every name and attribute read in the code of ``root`` outside the
    tests and the package's own ``__init__.py``."""
    paths = [p for p in (root / "src" / "facetkit").glob("*.py") if p.name != "__init__.py"]
    paths += [*(root / "demos").glob("*.py"),
              *(p for p in (root / "bench").rglob("*.py")
                if "tests" not in p.relative_to(root / "bench").parts)]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_export_has_a_reader_outside_the_tests():
    assert sorted(set(facetkit.__all__) - read_names(ROOT)) == sorted(TEST_ONLY)
