"""The package runs on every numpy its pyproject.toml admits.

pyproject.toml declares numpy>=1.23.  np.bitwise_count (popcount) exists
only from numpy 2.0, so a call to it would break the declared floor while
every test still passes on a newer numpy; this test reads the source
instead of running it.
"""

import ast
from pathlib import Path

import specgap

SOURCES = sorted(Path(specgap.__file__).parent.glob("*.py"))


def test_no_module_calls_bitwise_count():
    assert SOURCES
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        names = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert "bitwise_count" not in names, path.name
