"""The public surface of the package: every public top-level function and
class in src/maxlin is reached by other package code or by the benchmark,
and so is every public method, property and classmethod of its classes, so
API that only the tests reach does not build up in src/; only the closure
builds a `Poset`; only the size guard reads the environment; no module reads
another's private attributes; every module of the package and of the
tests uses each name it imports; each package module imports only modules
earlier in the pipeline; every function the benchmark's tracer wraps
still exists; the joints take no `product` argument; and README's library
example runs."""

import ast
import collections
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "maxlin").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
MODULES = {path.stem for path in PACKAGE}


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
    off a package module (`algebra.buchberger_check`, not `poly.evaluate`)."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules:
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def attribute_reads(tree: ast.AST) -> collections.Counter:
    """How often each attribute name is read (`x.name` loaded) in a tree."""
    return collections.Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


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
    assert unreached == set()


def test_every_public_method_is_read_outside_its_definition():
    """A public method, property or classmethod of a package class is read
    by name as an attribute (`poset.relation`, `ParamTable.random`) in the
    package or the benchmark, outside its own body. The scan goes by name
    only, so a method is reached when any attribute of its name is read;
    dunders are exempt."""
    reads = collections.Counter()  # attribute name -> reads in src/ and bench/
    methods = []  # (Class.method, node)
    for path in PACKAGE + BENCH:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads.update(attribute_reads(tree))
        if path not in PACKAGE:
            continue
        for cls in (s for s in tree.body if isinstance(s, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    methods.append((f"{cls.name}.{node.name}", node))
    assert len(methods) > 25  # the scan sees the classes
    unreached = {
        name
        for name, node in methods
        if reads[node.name] == attribute_reads(node)[node.name]
    }
    assert unreached == set()


def test_only_the_factor_tuples_define_arithmetic():
    """The public-method scan exempts dunders, so this one lists the package
    classes that define an arithmetic operator. Only the symbolic checks'
    factor tuples and their unfactored sum do; polynomials are data in
    src/, and their ring is the tests' reference (`RingPolynomial`)."""
    operators = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__", "__pow__"}
    defining = set()
    for path in PACKAGE:
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
            names.update(
                target.id
                for node in cls.body
                if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Name)
            )
            if names & operators:
                defining.add(cls.name)
    assert defining == {"_Factors", "_Unfactored"}


def test_every_imported_name_is_used():
    """A module of the package or of the tests imports no name it does not
    use; `from __future__` imports are exempt."""
    unused = set()
    for path in PACKAGE + TESTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            elif isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            else:
                continue
            unused.update((path.name, name) for name in bound if name not in used)
    assert unused == set()


def test_only_the_closure_builds_a_poset():
    """`dag.transitive_closure` is the package's one producer of a `Poset`:
    no other code calls the class. The checking constructor is the tests'
    reference (`checked_poset`)."""
    callers = set()
    for path in PACKAGE:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("Poset"):
                    callers.add((path.name, getattr(stmt, "name", None)))
    assert callers == {("dag.py", "transitive_closure")}


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


def test_no_module_reads_a_private_attribute_it_does_not_define():
    """A package module reads an underscore attribute (`dag._parents`) only
    when it defines that name itself: as a function, class, field or other
    assignment, or through `object.__setattr__`. Another module's private
    state is read through its public names (`Dag.parents`). Dunders are
    exempt."""
    foreign = set()
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined, reads = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("__setattr__"):
                defined.update(a.value for a in node.args if isinstance(a, ast.Constant))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if node.attr.startswith("_") and not node.attr.startswith("__"):
                    reads.add(node.attr)
        foreign.update((path.name, name) for name in reads - defined)
    assert foreign == set()


# The package's modules in the order of the pipeline, DAG -> poset -> lattice
# -> joint -> zeta coordinates -> binomials and certificates -> command line;
# `__init__` holds only the version.
PIPELINE = ("__init__", "errors", "report", "poset", "dag", "model", "transforms", "algebra", "cli")


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, at any depth: `from .poset
    import State` names poset, `from . import __version__` names `__init__`,
    and `import maxlin.model` names model."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("maxlin")):
            module = (node.module or "").removeprefix("maxlin").lstrip(".")
            imported.add(module or "__init__")
            imported.update(a.name for a in node.names if not module and a.name in MODULES)
        elif isinstance(node, ast.Import):
            imported.update(a.name.removeprefix("maxlin.") for a in node.names
                            if a.name.startswith("maxlin."))
    return imported


def test_each_module_imports_only_earlier_modules():
    """A module imports only modules before it in `PIPELINE`, so the model
    and the coordinate change never reach for the polynomial layer, and
    `algebra` can read the model without a cycle."""
    assert set(PIPELINE) == MODULES
    later = set()
    for path in PACKAGE:
        imported = package_imports(ast.parse(path.read_text(encoding="utf-8")))
        earlier = PIPELINE[: PIPELINE.index(path.stem)]
        later.update((path.stem, module) for module in imported - set(earlier))
    assert later == set()


def test_model_and_transforms_import_nothing_from_algebra():
    for name in ("model", "transforms"):
        tree = ast.parse((ROOT / "src" / "maxlin" / f"{name}.py").read_text(encoding="utf-8"))
        assert "algebra" not in package_imports(tree), name


def test_the_level_table_carries_its_own_product():
    """The joints and the eq5 check take no `product` argument, since each
    table carries its own (`ParamTable.product`), and no package module
    imports the level table's factor tuples from the model."""
    model = importlib.import_module("maxlin.model")
    transforms = importlib.import_module("maxlin.transforms")
    for function in (model.full_distribution, model.cbn_distribution,
                     transforms.zeta_factorization_check):
        assert list(inspect.signature(function).parameters)[1:] == ["theta", "lattice"]
    importers = set()
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and any(a.name == "_Factors" for a in node.names):
                importers.add(path.name)
    assert importers == set()


def test_readme_library_example_runs():
    """The fenced block under README's "## Library" runs as it is, in
    process, so an API change cannot leave the example stale."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(example, {"__name__": "readme_library_example"})


def test_every_tracer_target_is_defined_in_the_package():
    """Each function the benchmark's tracer wraps (`TARGETS` in
    bench/tracing.py) is still a maxlin function in one of the modules it
    scans (`MODULES` there), so a refactor that renames or removes a target
    cannot silently zero its per-layer timer. The one exception is
    `incomparable_pairs`, which left src/ and reads 0 until the benchmark's
    next change replaces it. The tracer counts the zeta and Moebius walks'
    pairs from their `lattice` argument, read as args[1], so both walks
    still take it second."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    constants = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    names = {ast.literal_eval(key) for key in constants["TARGETS"].keys}
    modules = [importlib.import_module(f"maxlin.{m}") for m in ast.literal_eval(constants["MODULES"])]
    assert len(names) > 10 and len(modules) > 5
    missing = {
        name
        for name in names
        if not any(
            getattr(getattr(module, name, None), "__module__", "").startswith("maxlin.")
            for module in modules
        )
    }
    assert missing == {"incomparable_pairs"}
    transforms = importlib.import_module("maxlin.transforms")
    for walk in (transforms.zeta_transform, transforms.moebius_inverse):
        assert list(inspect.signature(walk).parameters)[1] == "lattice", walk.__name__
