"""Every top-level function and class of the package is named somewhere.

A definition counts as named when a module of src/hedgehog, tests or
perfbench reads its name: as a variable, an attribute or a string (the
benchmark probes functions by name).  Package __init__ files only re-export
and do not count, and a definition does not name itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hedgehog"


def _sources():
    return {
        p: p.read_text()
        for base in (PACKAGE, ROOT / "tests", ROOT / "perfbench")
        for p in sorted(base.rglob("*.py"))
    }


def unreferenced(sources: dict, package: Path) -> list[str]:
    """'module:name' of each top-level definition under package that no
    non-__init__ module names."""
    named = set()
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
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return [f"{Path(path).stem}:{name}" for path, name in defined if name not in named]


def test_scan_finds_a_planted_definition():
    pkg = Path("pkg")
    sources = {
        pkg / "__init__.py": "from .a import planted\n__all__ = ['planted']\n",
        pkg / "a.py": "def used():\n    pass\n\n\ndef planted():\n    pass\n\n\nclass Probed:\n    pass\n",
        pkg / "b.py": "from pkg.a import used\n\nused()\n",
        Path("bench.py"): "import pkg.a\n\nprobe = (pkg.a, 'Probed')\n",
    }
    assert unreferenced(sources, pkg) == ["a:planted"]


def test_every_package_definition_is_named():
    assert unreferenced(_sources(), PACKAGE) == []
