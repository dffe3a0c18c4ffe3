"""Rules the package source keeps."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bbibranch"


def test_no_assert_statements():
    # ``python -O`` strips asserts, and a failing one ends in a traceback
    # rather than the exit-5 report: theorem checks raise TheoremViolation.
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) > 1
    assert found == []
