import ast
import pathlib

import chevlab

SRC = pathlib.Path(chevlab.__file__).parent
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def test_no_environment_reads_in_package():
    """chevlab reads no environment variable, so no setting outside argv can
    change a report or select a second code path."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append("{}:{}".format(path.name, node.lineno))
            elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                  and any(alias.name in ENV_NAMES for alias in node.names)):
                found.append("{}:{}".format(path.name, node.lineno))
    assert not found, "environment reads in chevlab: {}".format(", ".join(found))
