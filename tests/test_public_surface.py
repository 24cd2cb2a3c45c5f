"""Ratchet on the public surface: every name in a module's ``__all__`` has a
reader in the package itself, apart from an explicit list of exceptions."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heavytail"

# Names without a reader in the package.  The first eight are looked up by
# name in bench/tracer.py; they go together with their tracer lines.
# cluster_windows waits for the cluster-size law of the extremal index.
UNCALLED = {
    "restricted_norm_bound",
    "threshold_sweep",
    "seq_identity_check",
    "pushforward_constant",
    "TransformedSpectral",
    "time_change_rhs",
    "limit_measure_mass",
    "read_path_csv",
    "cluster_windows",
}


def _exports_and_references():
    """Every ``__all__`` entry, and every name read as a
    variable or attribute in a module other than the re-exporting ``__init__``.
    Definitions (def/class statements) and ``__all__`` strings are not reads."""
    exports, reads = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exports += [e.value for e in node.value.elts]
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    return exports, reads


def test_every_public_name_has_a_reader():
    exports, reads = _exports_and_references()
    assert len(exports) > 50  # the scan found the package's __all__ lists
    uncalled = {name for name in exports if name not in reads}
    assert uncalled - UNCALLED == set(), "public names without a reader in the package"
    assert UNCALLED - uncalled == set(), "exceptions that are read now, or gone: drop them"
