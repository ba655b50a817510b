"""Every module imports only names it uses, and the library needs numpy only.

No linter is part of the toolchain, so this scans the syntax tree: a name
bound by an import must appear as a name somewhere in the module.  Package
__init__ files re-export their imports and are exempt.  scipy is a test
dependency: no module of the library imports it, and importing the library
and solving a system loads none of it.  The point-triangle, point-box,
triangulation and node-ranking kernels and the triangle-proxy model live in
spatial.py alone: no other library module names a kernel or defines a name
of the proxy model, whose functions it may call.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "hedgehog").rglob("*.py"))
MODULES = sorted(
    p
    for base in (ROOT / "src" / "hedgehog", ROOT / "tests")
    for p in base.rglob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nprint(np, e)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_packages(source: str) -> set[str]:
    """Top-level packages a module imports (relative imports excluded)."""
    tree = ast.parse(source)
    packages = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            packages.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_scan_finds_an_imported_package():
    source = "import os.path\nfrom scipy.linalg import lu\nfrom . import kernels\n"
    assert imported_packages(source) == {"os", "scipy"}


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_library_module_does_not_import_scipy(path):
    assert "scipy" not in imported_packages(path.read_text())


def test_import_and_solve_load_no_scipy_module():
    script = """
import sys
import numpy as np
import hedgehog
from hedgehog.evaluation import EvalOptions
from hedgehog.geometry import sphere_mesh
from hedgehog.geometry.embeddings import constant_boundary_condition
from hedgehog.refinement import AdmissibilityConfig
from hedgehog.solver import BVProblem, solve
problem = BVProblem(
    kernel=hedgehog.LAPLACE,
    geometry=sphere_mesh(0.8, per_face=1),
    boundary_condition=constant_boundary_condition(np.ones(1)),
    admissibility=AdmissibilityConfig(eps_geometry=1e-2, eps_boundary=1e-1, b=0.2, a=0.2 / 6, q=4),
    options=EvalOptions(p=6, b=0.2, q=4),
    uniform_levels=1,
)
density, report = solve(problem)
assert report.converged, report
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


GEOMETRY_KERNELS = {"pair_sqdist", "box_sqdist", "grid_triangles", "nearest_nodes"}
PROXY_MODEL = {
    "Proxies", "patch_proxies", "vertex_distance", "triangles_within", "nearest_proxy_triangle",
}


def spatial_trespass(source: str) -> list[str]:
    """Geometry kernels the module names and proxy-model names it defines."""
    tree = ast.parse(source)
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            named.update(a.name for a in node.names)
    defined = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    return sorted((named & GEOMETRY_KERNELS) | (defined & PROXY_MODEL))


def test_scan_finds_a_geometry_kernel_outside_spatial():
    source = (
        "from .spatial import box_sqdist as gap, patch_proxies\n"
        "from . import spatial\n"
        "prox = patch_proxies(None, [])\n"
        "d = spatial.pair_sqdist(1, 2)\n"
        "def vertex_distance():\n    pass\n"
    )
    assert spatial_trespass(source) == ["box_sqdist", "pair_sqdist", "vertex_distance"]


@pytest.mark.parametrize(
    "path", [p for p in LIBRARY if p.name != "spatial.py"], ids=lambda p: str(p.relative_to(ROOT))
)
def test_geometry_kernels_stay_in_spatial(path):
    assert spatial_trespass(path.read_text()) == []
