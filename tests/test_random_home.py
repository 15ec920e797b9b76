"""Every random stream of the package comes from rng.py.

rng builds each generator from a bare Philox key (`rng._philox`), so no
SeedSequence is drawn from OS entropy per call and every stream is keyed by
what the caller names. Parsing keeps docstring prose out of the check: only
an `np.random` attribute or an import from `numpy.random` counts.
"""

import ast
from pathlib import Path

import dpplab


def _draws_outside_rng(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "random" and isinstance(node.value, ast.Name) \
            and node.value.id in ("np", "numpy")
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.random")
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.random") for a in node.names)
    return False


def test_only_rng_builds_a_generator():
    found = []
    for path in sorted(Path(dpplab.__file__).parent.glob("*.py")):
        if path.name == "rng.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if _draws_outside_rng(node):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
