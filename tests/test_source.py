import ast
from pathlib import Path

import brim

SRC = Path(brim.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    """Invariants raise InternalError: ``python -O`` strips ``assert``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SRC.name == "brim" and len(list(SRC.glob("*.py"))) > 5
    assert found == []
