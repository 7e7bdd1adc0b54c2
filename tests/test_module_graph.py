import ast
from pathlib import Path

import slopewatch

PACKAGE_DIR = Path(slopewatch.__file__).resolve().parent


def test_no_function_local_imports():
    """Every import sits at module level, so the module graph is visible."""
    local = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    local.append(f"{path.name}:{node.lineno} in {fn.name}")
    assert local == []
