"""Rules on the library's source text that no runtime test can see."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "trilam"

# module-level names defined in src/trilam that no library, benchmark or
# script code reads
UNREACHED_ALLOWED = {
    "above_diameter": "imported by test_acceptance.py",
    "contains_closed": "imported by test_acceptance.py",
    "image": "imported by test_acceptance.py",
    "majors": "imported by test_acceptance.py",
    "linked": "the Fraction crossing oracle of the invariance tests",
    "psi": "the public per-point psi, tested by test_quadgap.py; project reads psi_values",
}

# names a src/trilam module imports only for other modules to read from it
REEXPORTED = {
    ("lamination", "LeafBudgetError"): "read by cli as lamination.LeafBudgetError",
}


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so no check may rest on one
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _module_reads(tree):
    """The names a file reads bare (Load context), and the (module, name)
    pairs it reads as an attribute of an expression ending in the module's
    name, as in `lamination.dumps` or `t.lamination.dumps`."""
    bare, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name):
                attrs.add((owner.id, node.attr))
            elif isinstance(owner, ast.Attribute):
                attrs.add((owner.attr, node.attr))
    return bare, attrs


def _imported(tree):
    """(module, name, bound name) for each `from ... import name as bound`
    in a file; the module is the last part of the dotted path, so
    `trilam.lamination` and `.lamination` are both `lamination`."""
    return {((node.module or "").rpartition(".")[2], alias.name, alias.asname or alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_every_src_definition_is_read():
    # a module-level def or class is read when its own module reads it as a
    # bare name, when a file that imports it (under any alias) reads it as a
    # bare name, or when some file reads it as an attribute of an expression
    # ending in its module's name.  A method or nested def is read when its
    # name is read anywhere.  An import line (as in __init__.py) is not a
    # read, and neither is a look-alike local variable or field.
    src = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(SRC.glob("*.py"))}
    program = list(src.values()) + [
        ast.parse(path.read_text(), str(path))
        for pattern in ("benchmark/*.py", "scripts/*.py")
        for path in sorted(ROOT.glob(pattern))]
    reads = [(_imported(tree), *_module_reads(tree)) for tree in program]
    own = {module: bare for module, (_, bare, _) in zip(src, reads)}

    def read_at_module_level(module, name):
        if name in own[module]:
            return True
        for imported, bare, attrs in reads:
            if (module, name) in attrs:
                return True
            # `from trilam import name` reads the package's re-export
            if any(m in (module, "trilam") and n == name and bound in bare
                   for m, n, bound in imported):
                return True
        return False

    any_read = {node.id if isinstance(node, ast.Name) else node.attr
                for tree in program for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute))}
    unread = set()
    for module, tree in src.items():
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or (
                    node.name.startswith("__") and node.name.endswith("__")):
                continue
            if id(node) in top:
                if not read_at_module_level(module, node.name):
                    unread.add(node.name)
            elif node.name not in any_read:
                unread.add(node.name)
    # the allow-list holds exactly the defined names that are never read
    assert sorted(unread) == sorted(UNREACHED_ALLOWED)


def test_every_src_import_is_read():
    # a name a module imports (other than __init__.py's re-exports and
    # __future__ features) is read as a bare name in that module, so a
    # deletion leaves no stale import behind
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        bare, _ = _module_reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread.update((path.stem, name) for name in bound if name not in bare)
    assert sorted(unread) == sorted(REEXPORTED)
