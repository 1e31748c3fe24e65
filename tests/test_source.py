import ast
import importlib.util
import re
from pathlib import Path

import brim

SRC = Path(brim.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def test_every_traced_name_resolves():
    """The benchmark's tracer wraps these names where brim looks them up; a
    rename fails here instead of only in a traced benchmark run."""
    path = PERFBENCH / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for owner_path, attr, *_ in tracing.SPANNED + tracing.COUNTED:
        try:
            owner = tracing._resolve(owner_path)
        except (ImportError, AttributeError):
            missing.append(owner_path)
            continue
        # patched in the owner's own dict: an inherited attribute does not count
        if attr not in vars(owner):
            missing.append(f"{owner_path}.{attr}")
    assert len(tracing.SPANNED) > 40 and tracing.COUNTED
    assert missing == []


def test_the_package_imports_no_thread_machinery():
    """The computation is single-threaded: no locks, no pools."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] in ("threading", "concurrent")
            ]
    assert SRC.name == "brim" and len(list(SRC.glob("*.py"))) > 5
    assert found == []


def test_every_public_name_is_used_outside_the_tests():
    """A top-level public function or class must be named in the package
    outside its own definition and ``__init__.py``, or in the benchmark.
    What only tests call belongs in tests/oracles.py.  In the package a name
    counts where the code reads it (a name or an attribute), so docstrings
    and comments do not; the benchmark counts by text, since its tracer
    names what it wraps in strings."""
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    reads = [
        (path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    bench = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            if any(
                name == node.name
                and not (where == path and node.lineno <= line <= node.end_lineno)
                for where, line, name in reads
            ) or re.search(rf"\b{node.name}\b", bench):
                continue
            unused.append(f"{path.name}:{node.name}")
    assert len(trees) > 5 and bench
    assert unused == []
