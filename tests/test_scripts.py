"""The scripts under scripts/ run end to end against the current package."""

import os
import subprocess
import sys
from pathlib import Path

from poroscat import cli

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


def test_make_scenarios_writes_loadable_scenarios(tmp_path):
    done = run_script("make_scenarios.py", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    written = sorted(tmp_path.glob("*.json"))
    assert len(written) == 4
    for path in written:
        cli.load_scenario(path)


def test_imaging_demo_writes_all_maps(tmp_path):
    # both methods on clean and noisy data, through the trial-pattern kernel
    done = run_script("run_imaging_demo.py", "--resolution", "6", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    expected = {
        f"map_{method}_{data}.{ext}"
        for method in ("lsm", "glsm")
        for data in ("clean", "noisy")
        for ext in ("csv", "pgm")
    }
    assert {p.name for p in tmp_path.iterdir()} == expected
