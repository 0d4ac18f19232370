"""The benchmark's workloads: scenario documents, iterations and output checks.

Every workload drives the public CLI entry point ``poroscat.cli.main``
in-process with scenario files generated here from the desk-scale
preset.  The workload seed becomes the scenario's noise seed; the program
sees nothing but the files.  ``--threads`` is never passed, so the maps
run with the default worker count users get.

* desk-image: forward, then invert --method lsm, then invert --method
  glsm, per-candidate alpha.  Time goes to the Morozov roots.
* network-forward: forward alone on 320 interacting cells.  Time goes to
  the dislocation kernels and the LU of the coupled system.
* fine-grid-fixed: invert --method glsm with a fixed alpha on an 80x80
  grid, from a matrix written once during set-up.  Time goes to the trial
  patterns; the Morozov roots run only at the grid centre.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from poroscat import cli
from poroscat import forward as fw
from poroscat import inversion as inv
from poroscat.material import solve_dispersion
from poroscat.presets import desk_scale_scenario

TARGET_DELTA = 0.05
# acceptance criterion 6: localization under noise
PEAK_MAX_CELLS = 2.0
CONTRAST_MIN = 2.0


def scenario_doc(workload: str, seed: int, smoke: bool = False) -> dict:
    """Scenario document of a workload; ``smoke`` shrinks it to criterion 8's scene."""
    if workload == "desk-image":
        doc = desk_scale_scenario(target_delta=TARGET_DELTA, seed=seed)
    elif workload == "network-forward":
        doc = desk_scale_scenario(target_delta=TARGET_DELTA, seed=seed, mode="interacting")
        doc["forward"]["cutoff"] = None
        for frac in doc["scene"]["fractures"]:
            frac["cells"] = [40, 4]
    elif workload == "fine-grid-fixed":
        doc = desk_scale_scenario(
            method="glsm", target_delta=TARGET_DELTA, seed=seed, resolution=(80, 80)
        )
        doc["inversion"]["alpha_policy"] = "fixed"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if smoke:
        doc["scene"]["sampling"]["resolution"] = [5, 5]
        doc["scene"]["sampling"]["n_dir"] = 2
        for well in doc["scene"]["wells"]:
            well["samples_per_segment"] = 6
        for frac in doc["scene"]["fractures"]:
            frac["cells"] = [4, 1]
    return doc


# sub-commands run once during set-up, and once per iteration
SETUP_OPS = {"fine-grid-fixed": (("forward",),)}
ITERATION_OPS = {
    "desk-image": (("forward",), ("invert", "--method", "lsm"), ("invert", "--method", "glsm")),
    "network-forward": (("forward",),),
    "fine-grid-fixed": (("invert", "--method", "glsm"),),
}


def first_blas(scenario) -> None:
    """The BLAS products inject_noise makes, on a matrix of the scenario's size:
    a complex matmul and a spectral norm.  The first call in a process is cold."""
    n = scenario.scene.grid.count * len(scenario.scene.channels)
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    float(np.linalg.norm(a @ a, 2))


@dataclass
class OpResult:
    """One sub-command call: its exit code and the problems its output checks found."""

    argv: tuple
    code: int | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


def run_cli(argv: list[str]) -> tuple[int | None, str]:
    """Call ``cli.main`` in-process; return the exit code (None on an exception) and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an escaped exception is a failed operation
        return None, f"{err.getvalue()}{type(exc).__name__}: {exc}"
    return code, err.getvalue()


@dataclass
class MapStats:
    contrast: float
    peak_offset_cells: float
    degenerate: int
    points: int


class Workload:
    """A workload bound to its scenario file and output directory."""

    def __init__(self, name: str, scenario_path: Path, out_dir: Path, smoke: bool):
        self.scenario_path = scenario_path
        self.out_dir = out_dir
        self.check_quality = not smoke  # criterion 6 applies to the desk-scale scenes
        self.scenario = cli.load_scenario(scenario_path)
        self.wave = solve_dispersion(self.scenario.params, self.scenario.omega)
        self.ops = ITERATION_OPS[name]

    def argv(self, op: tuple) -> list[str]:
        return [op[0], "--scenario", str(self.scenario_path), "--out", str(self.out_dir), *op[1:]]

    @property
    def trials(self) -> int:
        """Computed: sampling points x candidates of one map."""
        return self.scenario.scene.sampling.trial_count

    @property
    def maps_per_iteration(self) -> int:
        return sum(op[0] == "invert" for op in self.ops)

    @property
    def forwards_per_iteration(self) -> int:
        return sum(op[0] == "forward" for op in self.ops)

    def outputs(self, op: tuple) -> list[Path]:
        if op[0] == "forward":
            names = ["lambda.csv", "lambda_noisy.csv", "forward_meta.json"]
        else:
            names = [f"map_{op[2]}.csv", f"map_{op[2]}.pgm", "invert_meta.json"]
        return [self.out_dir / n for n in names]

    def clear_outputs(self) -> None:
        """Remove what an iteration writes, so a stale file cannot pass a check."""
        for op in self.ops:
            for path in self.outputs(op):
                path.unlink(missing_ok=True)

    def check(self, op: tuple) -> tuple[list[str], MapStats | None]:
        if op[0] == "forward":
            return self._check_forward(), None
        return self._check_map(op[2])

    def _check_forward(self) -> list[str]:
        problems = []
        meta = json.loads((self.out_dir / "forward_meta.json").read_text(encoding="utf-8"))
        if abs(meta["achieved_delta"] - TARGET_DELTA) > 1e-10:
            problems.append(f"achieved delta {meta['achieved_delta']!r} != {TARGET_DELTA}")
        for name in ("lambda.csv", "lambda_noisy.csv"):
            if not np.all(np.isfinite(fw.load_matrix(self.out_dir / name).data)):
                problems.append(f"{name} has non-finite entries")
        noisy_path = self.out_dir / "lambda_noisy.csv"
        again = self.out_dir / "roundtrip.csv"
        fw.save_matrix(fw.load_matrix(noisy_path), again)
        if again.read_bytes() != noisy_path.read_bytes():
            problems.append("lambda_noisy.csv load/save round trip is not byte-identical")
        again.unlink()
        return problems

    def _check_map(self, method: str) -> tuple[list[str], MapStats]:
        problems = []
        imap = inv.load_indicator_map(self.out_dir / f"map_{method}.csv")
        sampling = self.scenario.scene.sampling
        nx, ny = sampling.resolution
        pgm = (self.out_dir / f"map_{method}.pgm").read_text(encoding="ascii").split("\n", 3)
        if pgm[:3] != ["P2", f"{nx} {ny}", "255"]:
            problems.append(f"map_{method}.pgm header {pgm[:3]!r}")
        stats = map_stats(imap.normalized, self.scenario.scene, self.wave)
        if self.check_quality:
            if not stats.peak_offset_cells <= PEAK_MAX_CELLS:
                problems.append(f"{method} peak {stats.peak_offset_cells:.3f} cells from a fracture")
            if not stats.contrast >= CONTRAST_MIN:
                problems.append(f"{method} contrast {stats.contrast:.3f}")
        return problems, stats


def map_stats(normalized: np.ndarray, scene, wave) -> MapStats:
    """Peak offset and on/off-fracture contrast as acceptance criteria 5 and 6 define them."""
    pts = scene.sampling.points()
    dist = scene.distance_to_fractures(pts)
    finite = np.isfinite(normalized)
    xs, _ = scene.sampling.axes()
    dx = xs[1] - xs[0]
    if finite.any():
        peak = float(dist[int(np.nanargmax(normalized))] / dx)
    else:
        peak = math.inf
    on = (dist <= math.hypot(dx, dx) / 2) & finite
    off = (dist > wave.shear_wavelength / 2) & finite
    if on.any() and off.any():
        contrast = float(np.mean(normalized[on]) / np.mean(normalized[off]))
    else:
        contrast = math.nan
    return MapStats(
        contrast=contrast,
        peak_offset_cells=peak,
        degenerate=int((~finite).sum()),
        points=int(normalized.size),
    )
