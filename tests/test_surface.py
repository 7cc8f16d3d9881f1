"""Every exported name is used by the package itself or documented.

A name of `belle_paire.__all__` counts as used when a top-level definition
of some module reads it (as a name or an attribute), other than its own
definition and other than a definition that is itself an unused export;
`__init__`'s imports and `__all__` strings do not count.  A name nothing
uses must be named in the README, as the checks kept for the tests are.
"""
import ast
from pathlib import Path

import belle_paire

PACKAGE = Path(belle_paire.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


def _readers() -> dict:
    """name -> the top-level definitions (None: module code) that read it."""
    found: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(node, "name", None)
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name) else
                        sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None and name != owner:
                    found.setdefault(name, set()).add(owner)
    return found


def _unused_exports() -> set:
    """Exports no live definition reads, to a fixed point: a name read only
    by unused exports is unused too."""
    readers = _readers()
    unused: set = set()
    while True:
        more = {n for n in belle_paire.__all__
                if not readers.get(n, set()) - unused} - unused
        if not more:
            return unused
        unused |= more


def test_every_export_is_used_or_documented():
    readme = README.read_text()
    undocumented = sorted(n for n in _unused_exports()
                          if f"`{n}`" not in readme)
    assert not undocumented, f"exported, unused and not in README: {undocumented}"


def test_checks_kept_for_the_tests_count_as_unused():
    # so the README exemption above is what keeps them, and the scan is
    # not vacuous
    assert {"brute_force_dist_to_image", "endos_agree_on_window",
            "min_k_violations"} <= _unused_exports()
