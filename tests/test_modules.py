"""Module boundaries inside the package."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tropigon"
TESTS = ROOT / "tests"


def test_no_module_imports_a_private_name_of_another():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("tropigon"):
                continue
            found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


def test_every_imported_name_is_used():
    # __init__.py imports only to re-export
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            a.asname or a.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for a in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}: {name}" for name in imported if name not in used]
    assert found == []


def _is_field_d(node) -> bool:
    # matches <expr>.field.d
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "d"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "field"
    )


def test_field_checks_go_through_same_field():
    # quadfield.same_field is the one place where two values' fields are compared
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "quadfield.py":
            (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "same_field"]
            allowed = set(ast.walk(fn))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and node not in allowed
            and sum(map(_is_field_d, [node.left, *node.comparators])) >= 2
        ]
    assert found == []


def test_fractions_only_in_views_and_at_the_wire():
    # the kernels, generators and readers work on integers over a denominator
    allowed = {"quadfield.py", "polygeom.py", "envelope.py", "wire.py"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "fractions" in names and path.name not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_branch_on_field_case():
    # every ring formula comes from omega's minimal polynomial, so field.case
    # is read only as the denominator of the affix, never compared
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(
                isinstance(x, ast.Attribute) and x.attr == "case" for x in [node.left, *node.comparators]
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_branch_on_d_in_a_tuple():
    # the unit group is read through Field.units and Field.sigma, so outside
    # quadfield no `.d` is tested against a literal list of fields
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "quadfield.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Attribute)
                and node.left.attr == "d"
                and any(
                    isinstance(op, (ast.In, ast.NotIn)) and isinstance(c, ast.Tuple)
                    for op, c in zip(node.ops, node.comparators)
                )
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_subscript_of_a_hull_view():
    # a polygon stores its lower chain, so a reader of half a polygon reads
    # `.lower`; `.hull` is the whole hull, read only whole
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) and node.value.attr == "hull":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_top_level_name_defined_twice():
    # a second definition silently rebinds the first, so whatever called the
    # first runs the second; bench/ is read, never edited
    found = []
    for path in sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")):
        lines = {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            for name in names:
                lines.setdefault(name, []).append(node.lineno)
        found += [f"{path.relative_to(ROOT)}:{n}" for ns in lines.values() if len(ns) > 1 for n in ns]
    assert found == []


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_the_reference_imports_only_the_standard_library():
    # tests/reference.py is the oracle of the geometry kernels, so it shares no code with them
    found = [m for m in _imported_modules(TESTS / "reference.py") if m.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_no_test_module_imports_another():
    # each test module checks the package against its own oracles or tests/reference.py
    tests = {p.stem for p in TESTS.glob("test_*.py")}
    found = []
    for path in sorted(TESTS.glob("*.py")):
        found += [f"{path.name}: {m}" for m in _imported_modules(path) if m.split(".")[0] in tests]
    assert found == []
