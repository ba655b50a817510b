"""tools/output_hashes.py runs on every benchmark workload and prints one line each."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "output_hashes.py"
HASH = "[0-9a-f]{16}"


def test_output_hashes_prints_one_line_per_workload():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--seeds", "1"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    lines = proc.stdout.splitlines()
    assert [ln.split()[0] for ln in lines] == list(WORKLOADS)
    solve = f"coarse={HASH} fine={HASH} operator={HASH} density={HASH}"
    targets = f"coarse={HASH} fine={HASH} nodes={HASH} labels={HASH} values={HASH}"
    for line in lines:
        name = line.split()[0]
        fields = targets if name == "targets" else solve
        match = re.fullmatch(rf"{name} seed=1 {fields} failed=\d+ error=(\S+)", line)
        assert match, line
        assert float(match.group(1)) >= 0.0, line
