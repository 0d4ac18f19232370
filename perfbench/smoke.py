"""Smoke check of the benchmark: every workload once, on a shrunken scene.

Runs ``run.py --smoke`` (acceptance criterion 8's scene: 5x5 grid, 6
samples per segment, [4, 1] cells) for each workload, untraced and traced.
Asserts that the result line carries exactly the metrics BENCHMARK.json
declares, each with its unit, and that the report lines carry every
end-to-end metric that applies to the workload.  Exits 1 on the first
mismatch.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ALL = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}
MAP = {"trials_per_s": "1/s", "contrast": "ratio", "peak_offset_cells": "cells",
       "degenerate_frac": "ratio"}
REPORTED = {
    "desk-image": {**ALL, **MAP, "lambda_per_s": "1/s"},
    "network-forward": {**ALL, "lambda_per_s": "1/s"},
    "fine-grid-fixed": {**ALL, **MAP},
}
LINE = re.compile(r"^e2e (\S+) (\S+) = (\S+) (\S+)$")


def check(workload: str, trace: int, declared: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        errors.append(f"result metrics {got} != declared {declared}")
    if trace == 0:
        reported = {}
        for line in lines:
            match = LINE.match(line)
            if match and match.group(1) == workload:
                reported[match.group(2)] = match.group(4)
        for name, unit in REPORTED[workload].items():
            if reported.get(name) != unit:
                errors.append(f"report line for {name} [{unit}]: {reported.get(name)!r}")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            errors = check(workload, trace, declared[trace])
            print(f"{workload} trace={trace}: {'ok' if not errors else 'FAIL'}")
            for e in errors:
                print(f"  {e}")
            status |= bool(errors)
    return status


if __name__ == "__main__":
    sys.exit(main())
