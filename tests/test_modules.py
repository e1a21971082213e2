"""Module boundaries inside the package, the modules each request loads, and
the mutation list kept applicable."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    # __init__.py too: it re-exports through its module __getattr__, with no import
    found = []
    for path in sorted(SRC.glob("*.py")):
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


def test_no_dataclasses_in_the_package():
    # the value types are slotted classes written out (quadfield.Value), so no
    # request pays for importing dataclasses and what it imports
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_package_imports_no_submodule_at_module_level():
    # `import tropigon` loads nothing more; its names are resolved on first use
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    inside = {n for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) for n in ast.walk(f)}
    found = [
        node.lineno
        for node in ast.walk(tree)
        if node not in inside
        and (isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("tropigon")))
        or (isinstance(node, ast.Import) and any(a.name.startswith("tropigon") for a in node.names))
    ]
    assert found == []


SUBMODULES = {f"tropigon.{p.stem}" for p in SRC.glob("*.py") if p.stem != "__init__"}
TENSOR = {"pairs": [[{"lines": [[0, 1, 1, 1]]}, {"lines": [[1, 2, 0, 1]]}]]}
MODULE = {"op": "module", "vector": {"exps": [[{"p": 2, "gen": [1, 1], "kind": "ramified"}, 1]]}}


@pytest.mark.parametrize(
    "argv, payload, needed, absent",
    [
        (None, None, set(), SUBMODULES),
        (
            ["field-info", "--field", "7"],
            None,
            {"tropigon.quadfield"},
            {"tropigon.adelic", "tropigon.tensorlab", "tropigon.envelope", "tropigon.render", "tropigon.selftest",
             "dataclasses"},
        ),
        (["tensor", "normalize"], TENSOR, {"tropigon.tensorlab"}, {"tropigon.adelic"}),
        (
            ["adele", "--field", "1"],
            MODULE,
            {"tropigon.adelic"},
            {"tropigon.tensorlab", "tropigon.envelope", "tropigon.render"},
        ),
    ],
    ids=["import", "field-info", "tensor-normalize", "adele"],
)
def test_a_request_loads_only_the_modules_it_runs(argv, payload, needed, absent):
    # a fresh interpreter imports the package and, given argv, answers one
    # request through cli.main; sys.modules is read after it
    script = "import sys\nimport tropigon\ncode = 0\n"
    if argv is not None:
        script += f"from tropigon import cli\ncode = cli.main({argv!r})\n"
    script += "print(' '.join(sorted(sys.modules)))\nsys.exit(code)\n"
    stdin = json.dumps(payload) if payload is not None else ""
    p = subprocess.run([sys.executable, "-c", script], input=stdin, capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    loaded = set(p.stdout.splitlines()[-1].split())
    assert needed <= loaded
    assert loaded & absent == set()


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


def _functions(tree, name):
    return [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]


def test_caps_are_assigned_only_in_errors():
    # errors.py declares every cap beside its table of checks
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [f"{path.name}:{node.lineno}" for t in targets for n in ast.walk(t)
                          if isinstance(n, ast.Name) and n.id.startswith("MAX_")]
    assert found == []


def test_out_of_budget_is_raised_only_by_the_cap_check():
    # errors.within is the one check of a cap; cli._emit refuses an answer past
    # Python's int-to-str limit, which is not a cap of ours
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {"errors.py": "within", "cli.py": "_emit"}.get(path.name)
        skip = {n for fn in _functions(tree, allowed) for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node not in skip and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "OutOfBudget":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_caps_are_imported_only_from_errors():
    found = []
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "") not in ("errors", "tropigon.errors"):
                found += [f"{path.name}: {a.name} from {node.module}" for a in node.names if a.name.startswith("MAX_")]
    assert found == []


def test_every_mutation_still_applies():
    # tests/mutants.py runs each mutation's tests, which takes many minutes; this
    # applies none, and checks only that each old text occurs once in its file
    # and that each test it names is defined in its module
    found = []
    for m in json.loads((TESTS / "data" / "mutations.json").read_text(encoding="utf-8")):
        if (ROOT / m["file"]).read_text(encoding="utf-8").count(m["old"]) != 1:
            found.append(f"{m['name']}: old text")
        for node_id in m["tests"]:
            path, name = node_id.split("::")
            if not _functions(ast.parse((ROOT / path).read_text(encoding="utf-8")), name.split("[")[0]):
                found.append(f"{m['name']}: {node_id}")
    assert found == []
