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
    proc = _run(argv, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _run(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / argv[0]), *argv[1:]], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def test_sweep_rows_give_seconds_and_peak_rss(tmp_path):
    proc = _run(["scripts/sharpness_sweep.py", "--grids", "256,512", "--q-factor", "1",
                 "--out", "sweep.csv"], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert proc.stdout.splitlines() == lines
    assert lines[0] == "n,G_continuum,G_discrete,G_rational,seconds,peak_rss_mb"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == [256, 512]
    for row in rows:
        assert 0.0 < row[4] < 300.0 and 1.0 < row[5] < 1e5
    assert rows[1][5] >= rows[0][5]  # the peak of the process so far
