"""`tests/reference.py` imports nothing from `pseudosym`.

Its routes are the other side of the tests' checks; an import from the
package would let a shared defect make both sides agree.
"""

import ast
from pathlib import Path

import pytest


def package_imports(source: str) -> list[str]:
    """The modules of `pseudosym` that `source` imports, at any depth of the tree."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] == "pseudosym"]
    return found


def test_reference_imports_nothing_from_the_package():
    source = Path(__file__).with_name("reference.py").read_text(encoding="utf-8")
    assert package_imports(source) == []


@pytest.mark.parametrize("source", [
    "import pseudosym",
    "import math, pseudosym.poly as poly",
    "from pseudosym.hilbert import second_series",
    "def f():\n    from pseudosym import hilbert\n",
])
def test_every_import_form_is_seen(source):
    assert package_imports(source)
