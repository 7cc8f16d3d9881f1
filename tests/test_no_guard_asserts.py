"""No validation is done by `assert`: `python -O` strips every assert, so a
guard written as one vanishes.  The asserts allowed below check invariants
that no input can reach; any other assert in the package fails this test.
"""
import ast
from collections import Counter
from pathlib import Path

import belle_paire

PACKAGE = Path(belle_paire.__file__).resolve().parent

# (module file, enclosing function) -> number of invariant asserts there
ALLOWED = {
    ("random_endo.py", "_factor_through"): 1,      # g . rep = h on the window
    ("realization.py", "assemble_realization"): 2,  # the split's own identity
}


def _asserts(path: Path) -> Counter:
    """Asserts of one module, counted by innermost enclosing function."""
    found: Counter = Counter()

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                found[(path.name, func)] += 1
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)
            walk(child, inner)

    walk(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_only_invariant_asserts_remain():
    found: Counter = Counter()
    for path in sorted(PACKAGE.rglob("*.py")):
        found += _asserts(path)
    extra = {site: n for site, n in found.items() if n > ALLOWED.get(site, 0)}
    assert not extra, f"guarding asserts (raise ValueError instead): {extra}"


def test_asserts_are_counted_by_innermost_function(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("assert a\n"
                    "def outer():\n"
                    "    def inner():\n"
                    "        assert b\n"
                    "    assert c\n"
                    "    assert d\n"
                    "class K:\n"
                    "    def m(self):\n"
                    "        if e:\n"
                    "            assert f\n")
    assert _asserts(path) == Counter({("probe.py", None): 1,
                                      ("probe.py", "inner"): 1,
                                      ("probe.py", "outer"): 2,
                                      ("probe.py", "m"): 1})
