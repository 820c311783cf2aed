"""Layering of the package, read from its source with ``ast``: nothing runs."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "conecompress"


def imports(path):
    """The (level, module) of every import statement in one source file;
    level 0 is absolute, level 1 is from this package."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.level, node.module or ""


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for level, module in imports(path):
            if level == 0:
                top = module.partition(".")[0]
                assert top in sys.stdlib_module_names, (path.name, module)


def test_generate_imports_only_errors_and_model():
    package = {module for level, module in imports(PACKAGE / "generate.py") if level}
    assert package == {"errors", "model"}
