"""The public surface of the package: every public top-level function and
class in src/maxlin is reached by other package code or by the benchmark,
so API that only the tests reach does not build up in src/; and only the
size guard reads the environment."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "maxlin").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
MODULES = {path.stem for path in PACKAGE}

# Public names that neither the package nor the benchmark calls, and why
# they stay.
KEPT = (
    ("chain_product", "acceptance criterion 11: states as ideals of P x chain"),
    ("state_to_ideal", "acceptance criterion 11: the order-reversing bijection"),
    ("conditional_probability", "the checked per-vertex factor of the max-of-parents rule"),
)


def module_names(tree: ast.Module) -> set[str]:
    """The expressions, as source text, by which a file names package
    modules: `algebra` after `from maxlin import algebra`, `maxlin.cli`
    after `import maxlin.cli`, `model` after `import maxlin.model as model`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "maxlin":
            names.update(a.asname or a.name for a in node.names if a.name in MODULES)
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name for a in node.names if a.name.startswith("maxlin."))
    return names


def statement_names(stmt: ast.stmt, modules: set[str]) -> set[str]:
    """Every name a statement loads or imports, and every attribute it reads
    off a package module (`algebra.buchberger_check`, not `poly.substitute`)."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules:
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_reached_outside_the_tests():
    definitions = {}  # name -> (path, statement index)
    references = []  # ((path, statement index), names)
    for path in PACKAGE + BENCH:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        body, modules = tree.body, module_names(tree)
        # A bench file's own top-level function or class shadows the package's.
        own = {s.name for s in body if isinstance(s, (ast.FunctionDef, ast.ClassDef))}
        if path in PACKAGE:
            own = set()
        for index, stmt in enumerate(body):
            references.append(((path, index), statement_names(stmt, modules) - own))
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


def test_only_check_size_reads_the_environment():
    """Every size guard reads its variable through `errors.check_size`, so
    a new guard is one call there and no parameter or second reader."""
    environment = {"environ", "environb", "getenv", "getenvb"}
    readers = set()
    for path in PACKAGE:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
                if name in environment:
                    readers.add((path.name, getattr(stmt, "name", None)))
    assert readers == {("errors.py", "check_size")}
