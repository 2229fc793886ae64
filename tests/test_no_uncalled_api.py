import ast
import pathlib

import chevlab

SRC = pathlib.Path(chevlab.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"

# Reached from outside the package only: the [project.scripts] entry point.
EXEMPT = {"cli.main"}


def _public_defs(tree):
    """(qualified name, def node) of each public module-level function or
    class and each public method; dunder methods start with "_" too."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield node.name + "." + sub.name, sub


def _references(tree):
    """(name, line) of each ast.Name and ast.Attribute in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _module_references(tree):
    """(module, name, line) of each `module.name` attribute and each
    `from .module import name` (or `from chevlab.module import name`)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name):
                yield owner.id, node.attr, node.lineno
            elif isinstance(owner, ast.Attribute):
                yield owner.attr, node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.module.rsplit(".", 1)[-1], alias.name, node.lineno


def test_every_public_definition_has_a_caller():
    """A public function, class or method that nothing in the package or the
    benchmark refers to is dead API: its checks can never fail `verify`.  A
    module-level definition counts as referred to only through `module.name`,
    `from .module import name` or its bare name in its own module; a method
    through any attribute of its name.  A reference inside the definition's
    own body (recursion) does not count."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))}
    attr_refs = [(name, path, line) for path, tree in trees.items()
                 for name, line in _references(tree)]
    module_refs = {(module, name) for tree in trees.values()
                   for module, name, _ in _module_references(tree)}
    uncalled = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        bare = [(node.id, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Name)]
        for qualname, node in _public_defs(tree):
            name = qualname.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)
            if "." in qualname:
                if any(n == name and not (p == path and line in own) for n, p, line in attr_refs):
                    continue
            elif (path.stem, name) in module_refs or any(
                    n == name and line not in own for n, line in bare):
                continue
            if "{}.{}".format(path.stem, qualname) not in EXEMPT:
                uncalled.append("{}.{}".format(path.stem, qualname))
    assert not uncalled, "public API with no caller in chevlab or perfbench: {}".format(
        ", ".join(uncalled))
