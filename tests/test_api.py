"""The public surface of the package: every public top-level function and
class in src/maxlin is reached by other package code or by the benchmark,
so API that only the tests reach does not build up in src/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "maxlin").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# Public names that neither the package nor the benchmark calls, and why
# they stay.
KEPT = (
    ("chain_product", "acceptance criterion 11: states as ideals of P x chain"),
    ("state_to_ideal", "acceptance criterion 11: the order-reversing bijection"),
    ("conditional_probability", "the checked per-vertex factor of the max-of-parents rule"),
)


def statement_names(stmt: ast.stmt) -> set[str]:
    """Every name a statement loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_reached_outside_the_tests():
    definitions = {}  # name -> (path, statement index)
    references = []  # ((path, statement index), names)
    for path in PACKAGE + BENCH:
        body = ast.parse(path.read_text(encoding="utf-8")).body
        # A bench file's own top-level function or class shadows the package's.
        own = {s.name for s in body if isinstance(s, (ast.FunctionDef, ast.ClassDef))}
        if path in PACKAGE:
            own = set()
        for index, stmt in enumerate(body):
            references.append(((path, index), statement_names(stmt) - own))
            public = isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
            if path in PACKAGE and public:
                definitions[stmt.name] = (path, index)
    assert len(definitions) > 50  # the scan sees the package
    unreached = {
        name
        for name, where in definitions.items()
        if not any(name in names for place, names in references if place != where)
    }
    assert unreached == {name for name, _ in KEPT}
