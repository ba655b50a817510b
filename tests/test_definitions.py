"""Every top-level function and class of the package is named by the program.

A definition counts as named when a module of src/hedgehog, tests or
perfbench reads its name: as a variable, an attribute, a string (the
benchmark probes functions by name) or an import (``from m import x as y``
names x).  Package __init__ files only re-export and do not count, and a
definition does not name itself.  A definition that only tests name is
code kept for its tests, and is allowed only with a reason in TEST_ONLY.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hedgehog"
TESTS = ROOT / "tests"

# definitions that only tests name, each with the reason it stays
TEST_ONLY = {
    "fundamental_solution": "pointwise reference of the kernel sums' tests",
    "double_layer_kernel": "pointwise reference of the kernel sums' tests",
    "point_triangle_sqdist": "brute-force reference of the triangle screens' tests",
    "constant_boundary_condition": "public API: the boundary data of a constant field",
    "plate_embedding": "public API: the embedding of a flat parallelogram",
    "evaluate_solution": "public API: the solved potential at arbitrary targets",
    "quadrature_error_heuristic": "waits for ROADMAP item 7, the error-driven refinement",
}


def _sources():
    return {
        p: p.read_text()
        for base in (PACKAGE, TESTS, ROOT / "perfbench")
        for p in sorted(base.rglob("*.py"))
    }


def _names(tree) -> set[str]:
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
        elif isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
    return named


def unreferenced(sources: dict, package: Path, tests: Path) -> tuple[list, list]:
    """'module:name' of each top-level definition under package that no
    non-__init__ module outside tests names: (those tests name, the rest)."""
    program, tested = set(), set()
    defined = []
    for path, source in sources.items():
        tree = ast.parse(source)
        if Path(path).is_relative_to(package):
            defined += [
                (path, node.name)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            ]
        if Path(path).name == "__init__.py":
            continue
        (tested if Path(path).is_relative_to(tests) else program).update(_names(tree))
    unused = [(path, name) for path, name in defined if name not in program]
    return (
        [f"{Path(path).stem}:{name}" for path, name in unused if name in tested],
        [f"{Path(path).stem}:{name}" for path, name in unused if name not in tested],
    )


def test_scan_finds_a_planted_definition():
    pkg, tests = Path("pkg"), Path("tests")
    sources = {
        pkg / "__init__.py": "from .a import planted\n__all__ = ['planted']\n",
        pkg / "a.py": (
            "def used():\n    pass\n\n\ndef planted():\n    pass\n\n\n"
            "def checked():\n    pass\n\n\ndef aliased():\n    pass\n\n\nclass Probed:\n    pass\n"
        ),
        pkg / "b.py": "from pkg.a import used\n\nused()\n",
        tests / "test_a.py": "from pkg.a import checked\n\nchecked()\n",
        Path("bench.py"): (
            "import pkg.a\nfrom pkg.a import aliased as other\n\n"
            "probe = (pkg.a, 'Probed', other)\n"
        ),
    }
    assert unreferenced(sources, pkg, tests) == (["a:checked"], ["a:planted"])


def test_every_package_definition_is_named():
    assert unreferenced(_sources(), PACKAGE, TESTS)[1] == []


def test_only_listed_definitions_are_named_by_tests_alone():
    test_only = unreferenced(_sources(), PACKAGE, TESTS)[0]
    assert sorted(entry.split(":")[1] for entry in test_only) == sorted(TEST_ONLY)
