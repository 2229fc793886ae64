import ast
import pathlib

import chevlab

SRC = pathlib.Path(chevlab.__file__).parent


def test_no_assert_statements_in_package():
    """`python -O` strips assert statements, so every check in the package
    must raise an error of the exit-code contract instead."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("{}:{}".format(path.name, node.lineno))
    assert not found, "assert statements in chevlab: {}".format(", ".join(found))
