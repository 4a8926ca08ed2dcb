"""Source hygiene: no module imports a name it never uses, the package
defines nothing, not even a method, that only tests name, only the checker
and its callers handle a type error, and every error class is caught by
name somewhere.

The checks read the AST, so they need no linter.  An imported name counts
as used when it is loaded anywhere in the module, appears in a string
annotation, or is listed in the module's ``__all__``; ``from __future__``
imports are exempt.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "cateff").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for field in ("annotation", "returns"):
            ann = getattr(node, field, None)
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


def test_no_unused_imports():
    assert FILES
    unused = []
    for path in FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for line, name in _imported(tree) if name not in used]
    assert unused == []


def _defined(stmt):
    """The top-level function, class or upper-case constant ``stmt`` defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
            and isinstance(stmt.targets[0], ast.Name) \
            and stmt.targets[0].id.isupper():
        return stmt.targets[0].id
    return None


def _named(node):
    """Every name ``node`` mentions: loaded, imported, an attribute, or an
    identifier-shaped string (the benchmark patches functions by name)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            names.add(sub.value)
    return names


def _attributes(node):
    """Every attribute ``node`` reads or writes (``x.name``)."""
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _methods(stmt):
    """The non-dunder methods of the class ``stmt`` defines, if it is one."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [node for node in stmt.body if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_no_dead_definitions():
    # tests are not users: a definition stays only if the package itself or
    # the benchmark names it outside the definition; a method or property
    # counts as used only where it is read as an attribute, so a function of
    # the same name does not keep it
    readers = [*PACKAGE, *(ROOT / "perfbench").glob("*.py")]
    statements = [(path, stmt) for path in readers
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    named = [_named(stmt) for _, stmt in statements]
    attributes = [_attributes(stmt) for _, stmt in statements]
    dead = []
    for i, (path, stmt) in enumerate(statements):
        if path not in PACKAGE:
            continue
        defined = [(stmt, _defined(stmt),
                    [names for j, names in enumerate(named) if j != i])]
        read = [attrs for j, attrs in enumerate(attributes) if j != i]
        for method in _methods(stmt):
            siblings = [_attributes(node) for node in stmt.body
                        if node is not method]
            defined.append((method, method.name, read + siblings))
        dead += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                 for node, name, others in defined
                 if name and not any(name in names for names in others)]
    assert dead == []


def test_only_the_checker_and_its_callers_handle_type_errors():
    # a checked program raises no type error at run time, so the step
    # engine and the denotation have none to translate
    allowed = {"typecheck.py", "conformance.py", "cli.py"}
    handlers = []
    for path in PACKAGE:
        if path.name in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None \
                    and "CateffTypeError" in _named(node.type):
                handlers.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert handlers == []


def test_every_exception_class_is_caught_by_name():
    # an error class that no caller catches by name tells callers nothing
    # its base class does not; Stuck goes with the weakening shapes it
    # blocks on, once they have step rules (ROADMAP item 8)
    readers = [*PACKAGE, *(ROOT / "perfbench").glob("*.py")]
    caught = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _named(node.type)
    classes = [stmt for path in PACKAGE
               for stmt in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(stmt, ast.ClassDef)]
    errors, size = {"Exception"}, 0
    while len(errors) != size:
        size = len(errors)
        errors |= {cls.name for cls in classes
                   if any(_named(base) & errors for base in cls.bases)}
    assert sorted(errors - caught - {"Exception", "Stuck"}) == []
