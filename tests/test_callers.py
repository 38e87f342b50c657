"""Every public function of the package has a caller in the package."""

import ast
import pathlib

import normetry

PACKAGE = pathlib.Path(normetry.__file__).parent


def _docstrings(tree: ast.Module) -> set:
    """The ids of the docstring nodes of a module and its classes and defs."""
    owners = [tree, *(node for node in ast.walk(tree)
                      if isinstance(node, (ast.ClassDef, ast.FunctionDef)))]
    return {id(owner.body[0].value) for owner in owners
            if owner.body and isinstance(owner.body[0], ast.Expr)
            and isinstance(owner.body[0].value, ast.Constant)
            and isinstance(owner.body[0].value.value, str)}


def _names(node: ast.AST, skip: set) -> set:
    """The names ``node`` refers to: as a name, an attribute, or a string
    constant (the hypothesis predicates are named by string)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and id(sub) not in skip:
            out.add(sub.value)
    return out


def _is_checker(node: ast.FunctionDef) -> bool:
    """Declared by ``@_check``: the check registry calls it."""
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_check"
               for d in node.decorator_list)


def test_every_public_function_has_a_caller_outside_its_own_def():
    defs = []  # (module, name)
    referenced: dict = {}  # name -> the modules and defs that name it
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = _docstrings(tree)
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            if own and not own.startswith("_") and not _is_checker(stmt):
                defs.append((path.stem, own))
            for name in _names(stmt, skip):
                referenced.setdefault(name, set()).add((path.stem, own))
    uncalled = [f"{module}.{name}" for module, name in defs
                if not referenced.get(name, set()) - {(module, name)}]
    assert len(defs) > 50
    assert uncalled == []
