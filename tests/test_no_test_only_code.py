"""Every function and class in src/imbcal is used by the program itself.

A name defined in src/imbcal must appear as a Python name somewhere in
src/imbcal/*.py or bench/*.py other than its own definition. Comments and
strings do not count, and neither do the tests: code that only tests call
is dead weight in the program unless it is an oracle.
"""

import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = sorted((ROOT / "src" / "imbcal").glob("*.py"))
USERS = PROGRAM + sorted((ROOT / "bench").glob("*.py"))

ALLOWED = {
    "brute_force_breaks",  # the enumeration oracle of fisher_jenks
}


def _defined_names():
    names = set()
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names.add(node.name)
    return names


def _referenced_names():
    """NAME tokens of every user file, minus the name right after def or class."""
    names = set()
    for path in USERS:
        with tokenize.open(path) as fh:
            previous = None
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type == tokenize.NAME and previous not in ("def", "class"):
                    names.add(tok.string)
                if tok.type == tokenize.NAME:
                    previous = tok.string
    return names


def test_every_definition_has_a_user_outside_the_tests():
    unused = sorted(_defined_names() - _referenced_names() - ALLOWED)
    assert unused == [], f"defined in src/imbcal but used only by tests, if at all: {unused}"
