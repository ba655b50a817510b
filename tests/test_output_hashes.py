"""tools/output_hashes.py runs on every benchmark workload and prints one line each,
and compares a checkout's outputs with those it saved from another."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "output_hashes.py"
HASH = "[0-9a-f]{16}"


def _run(*flags):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--seeds", "1", *flags],
        capture_output=True, text=True, check=True, cwd=ROOT,
    ).stdout.splitlines()


def test_output_hashes_prints_one_line_per_workload(tmp_path):
    """One line of hashes per workload; with --save the compared outputs go
    to one file per workload, and --against those files, in the same
    checkout, prints after each line of hashes one line of zero changes
    and the saved failed count and max_rel_error."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    lines = _run("--save", str(tmp_path))
    assert [ln.split()[0] for ln in lines] == list(WORKLOADS)
    solve = f"coarse={HASH} fine={HASH} operator={HASH} density={HASH}"
    targets = f"coarse={HASH} fine={HASH} nodes={HASH} labels={HASH} values={HASH}"
    for line in lines:
        name = line.split()[0]
        fields = targets if name == "targets" else solve
        match = re.fullmatch(rf"{name} seed=1 {fields} failed=\d+ error=(\S+)", line)
        assert match, line
        assert float(match.group(1)) >= 0.0, line
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{w}_seed1.npz" for w in WORKLOADS)
    again = _run("--against", str(tmp_path))
    assert again[::2] == lines
    for hashes, against in zip(lines, again[1::2]):
        name = hashes.split()[0]
        arrays = ("values",) if name == "targets" else ("operator", "density")
        changes = " ".join(f"{a}=0.000e+00" for a in arrays)
        failed = re.search(r"failed=(\d+)", hashes).group(1)
        error = re.search(r"error=(\S+)", hashes).group(1)
        assert against == (
            f"{name} seed=1 against {changes} failed={failed} saved_failed={failed} "
            f"error={error} saved_error={error}"
        )


def _tool():
    spec = importlib.util.spec_from_file_location("output_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_against_reports_the_largest_relative_change(tmp_path):
    tool = _tool()
    rng = np.random.default_rng(3)
    op, density = rng.normal(size=(6, 6)), rng.normal(size=(6, 1))
    tool.save({"operator": op, "density": density, "failed": 2, "error": 0.25}, tmp_path / "a.npz")
    moved = op.copy()
    moved.flat[np.abs(op).argmax()] *= 1.0 + 1e-9
    line = tool.against_line(
        {"operator": moved, "density": density[:3], "failed": 1, "error": 0.125}, tmp_path / "a.npz"
    )
    operator, density_change, *rest = line.split()
    assert float(operator.split("=")[1]) == pytest.approx(1e-9, rel=1e-3)
    assert density_change == "density=inf"  # the shapes differ
    assert rest == ["failed=1", "saved_failed=2", "error=0.125", "saved_error=0.25"]


def test_save_and_against_exclude_each_other(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--save", str(tmp_path), "--against", str(tmp_path)],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 2 and "not allowed with argument" in proc.stderr
