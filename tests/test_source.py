"""Rules on the library's source text that no runtime test can see."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "trilam"

# names defined in src/trilam that no library, benchmark or script code reads
UNREACHED_ALLOWED = {
    "above_diameter": "imported by test_acceptance.py",
    "contains_closed": "imported by test_acceptance.py",
    "write_lamination": "wrapped by benchmark/tracing.py",
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


def test_every_src_definition_is_read():
    # a def or class is reached when some library, benchmark or script code
    # reads its name; an import line (as in __init__.py) is not a read
    def parse(pattern):
        return [ast.parse(path.read_text(), str(path)) for path in sorted(ROOT.glob(pattern))]

    src = parse("src/trilam/*.py")
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in src + parse("benchmark/*.py") + parse("scripts/*.py")
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    defined = {node.name for tree in src for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    # the allow-list holds exactly the defined names that are never read
    assert sorted(defined - read) == sorted(UNREACHED_ALLOWED)
