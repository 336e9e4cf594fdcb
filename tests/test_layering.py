import ast
from pathlib import Path

import autbound


def test_no_private_names_imported_across_modules():
    """A leading-underscore name stays inside the autbound module that defines it."""
    offenders = []
    for path in sorted(Path(autbound.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("autbound"):
                continue
            offenders += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert offenders == []
