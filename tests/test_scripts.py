"""Each script under scripts/ that reproduces a result runs to exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/sediment_demo.py"],
    ["scripts/reproduce_table.py"],
    ["scripts/sharpness_sweep.py", "--grids", "256", "--q-factor", "1"],
], ids=lambda argv: Path(argv[0]).stem)
def test_script_exits_0(argv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / argv[0]), *argv[1:]], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
