"""Every engine callable has a caller outside the tests.

A function or method defined in `src/wmha` that nothing in `src/` or
`bench/` refers to is API that only the tests keep alive; it is deleted
and the tests call the engine's own primitives instead.  A callable
counts as used when an `ast.Name` or `ast.Attribute` in `src/wmha` or
`bench/` carries its name, when a string constant in `bench/` names it
by its dotted path (the per-layer trace wraps callables that way), or
when it is exported in `wmha.__all__`.  Dunder methods are called by
the language and are not scanned.

Every parameter is read: a parameter that no body reads is a value no
caller can change the result with, and it is deleted with its
arguments.

No method but `__init__` sets an attribute of its object, except the two
listed in SELF_ASSIGNMENTS: derived values live in the run store."""

import ast
from pathlib import Path

import wmha

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wmha"
BENCH = ROOT / "bench"


def _trees(directory):
    return {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in sorted(directory.glob("*.py"))}


def _definitions(module, tree):
    """(dotted name, simple name) of every function and method in tree,
    nested ones included, dotted as module.Class.function."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((f"{prefix}.{child.name}", child.name))
                visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(tree, module)
    return out


def _referenced_names(trees):
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _dotted_strings(trees):
    return {node.value for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "." in node.value}


def test_every_engine_callable_has_a_caller_outside_the_tests():
    src = _trees(SRC)
    bench = _trees(BENCH)
    referenced = _referenced_names([*src.values(), *bench.values()])
    dotted = _dotted_strings(bench.values())
    exported = set(wmha.__all__)
    unused = sorted(
        dotted_name
        for path, tree in src.items()
        for dotted_name, name in _definitions(path.stem, tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in referenced and dotted_name not in dotted
        and name not in exported)
    assert not unused, "engine callables with no caller in src/ or bench/: " + ", ".join(unused)


def _unread_parameters(module, tree):
    """module.function(parameter) for every parameter of a function or
    lambda in tree that its body never loads; self and cls are exempt."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out.extend(f"{module}.{name}({p})" for p in params
                   if p not in ("self", "cls") and p not in read)
    return out


def test_every_engine_parameter_is_read():
    unread = sorted(entry for path, tree in _trees(SRC).items()
                    for entry in _unread_parameters(path.stem, tree))
    assert not unread, "parameters that no body reads: " + ", ".join(unread)


def _flag_checks(module, tree):
    """module:line of every check(id, status, pass, fail) call that reads
    a failure flag: status is `<name> is None`, alone or in an `and`, and
    the failure detail is `<name> or ...`.  Such a flag is the first
    failure of a walk kept by hand; a walk yields its failures and
    `report._first_failures` keeps the first."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "check" and len(node.args) == 4):
            continue
        status, detail = node.args[1], node.args[3]
        terms = status.values if isinstance(status, ast.BoolOp) and isinstance(status.op, ast.And) \
            else [status]
        flags = {t.left.id for t in terms
                 if isinstance(t, ast.Compare) and isinstance(t.left, ast.Name)
                 and len(t.ops) == 1 and isinstance(t.ops[0], ast.Is)
                 and isinstance(t.comparators[0], ast.Constant) and t.comparators[0].value is None}
        if isinstance(detail, ast.BoolOp) and isinstance(detail.op, ast.Or) \
                and isinstance(detail.values[0], ast.Name) and detail.values[0].id in flags:
            out.append(f"{module}:{node.lineno}")
    return out


def test_no_check_reads_a_failure_flag():
    flagged = sorted(entry for path, tree in _trees(SRC).items()
                     for entry in _flag_checks(path.stem, tree))
    assert not flagged, "checks that keep a walk's first failure in a flag: " + ", ".join(flagged)


def _exception_classes(tree):
    """The names of the exception classes a module defines: classes whose
    base is Exception or another class defined before them in it."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and (b.id == "Exception" or b.id in names)
                for b in node.bases):
            names.add(node.name)
    return names


def _caught(tree):
    """The class names each `except` clause of tree names, one set per
    clause; `mod.Name` counts as Name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            yield {t.attr if isinstance(t, ast.Attribute) else t.id for t in types}


def test_no_two_engine_exceptions_are_always_caught_together():
    # a class that every except clause naming it catches with another is a
    # distinction no caller makes: the two are one class
    src = _trees(SRC)
    defined = set().union(*map(_exception_classes, src.values()))
    clauses = [names & defined for tree in src.values() for names in _caught(tree)]
    together = sorted(f"{a} (always with {b})" for a in defined for b in defined - {a}
                      if any(a in names for names in clauses)
                      and all(b in names for names in clauses if a in names))
    assert not together, "exception classes no caller tells apart: " + ", ".join(together)


# the per-object memos that stay beside the run store: the echelon's own
# row count while it is built, and the mirror presentation, which
# delta_right reads on every call
SELF_ASSIGNMENTS = {"linalg.Echelon.insert._nrows_in", "coproducts.CoproductData.mirror._mirror"}


def _self_assignments(module, tree):
    """module.Class.method.attribute for every assignment to an attribute of
    self in a method other than __init__."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or method.name == "__init__":
                continue
            for node in ast.walk(method):
                targets = node.targets if isinstance(node, ast.Assign) else \
                    [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
                for target in targets:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) \
                                and t.value.id == "self" and isinstance(t.ctx, ast.Store):
                            out.append(f"{module}.{cls.name}.{method.name}.{t.attr}")
    return out


def test_no_method_keeps_a_memo_on_its_object():
    # what a run derives is kept in coproducts.RunCache, keyed by content;
    # an attribute set after construction is a memo beside it
    found = sorted(entry for path, tree in _trees(SRC).items()
                   for entry in _self_assignments(path.stem, tree))
    assert found == sorted(SELF_ASSIGNMENTS), \
        "methods that assign an attribute of self: " + ", ".join(
            sorted(set(found) - SELF_ASSIGNMENTS))
