"""The oracles pin the package from outside, so they import only the stdlib."""

import ast
import sys
from pathlib import Path


def test_oracles_import_only_the_standard_library():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            modules.add(node.module)
    top_level = {name.split(".")[0] for name in modules}
    assert top_level and top_level <= sys.stdlib_module_names
