"""Time-to-image benchmark of poroscat.

Runs one workload in a closed loop from one process: the next iteration
starts only after the last one has finished, and its sub-commands go
through ``poroscat.cli.main`` in-process.  Set-up (a fresh process up to
ready) is measured in separate probe processes before timing starts.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from the traced run.  The lines before it list every
metric with its unit, the machine and run facts, and the output checks.

    python3 perfbench/run.py --workload desk-image --seed 1 --seconds 30 --trace 0

Run from the root of a poroscat source tree; the package is imported from
its ``src/`` directory.  Scratch files go to ``.perfbench_run/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
PROBES = 5  # set-up probes per run; setup_s is their median
WORKLOADS = ("desk-image", "network-forward", "fine-grid-fixed")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="poroscat time-to-image benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="shrink the scene to acceptance criterion 8's (5x5 grid, 6 samples "
        "per segment, [4, 1] cells) and probe set-up once",
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# machine and run facts
# ---------------------------------------------------------------------------
def _git_commit() -> str:
    """HEAD of the source tree, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_runtime(package) -> dict:
    """Version string and thread count of the OpenBLAS a package loaded."""
    import ctypes

    libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for lib_path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        out = {"library": lib_path.name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                nth = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if cfg is not None and nth is not None:
                    cfg.restype = ctypes.c_char_p
                    nth.restype = ctypes.c_int
                    out.update(config=cfg().decode(), threads=nth())
                    return out
        return out
    return {}


def speed_reference() -> dict:
    """Seconds of fixed pure-Python and BLAS work, median of 3.

    The host's speed drifts; this gauge, taken at the start of each run,
    tells a slower machine apart from a slower program.
    """
    import numpy

    a = numpy.random.default_rng(0).uniform(size=(300, 300))
    python_s, blas_s = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        sum(i * i for i in range(300_000))
        t1 = time.perf_counter()
        for _ in range(10):
            a @ a
        python_s.append(t1 - t0)
        blas_s.append(time.perf_counter() - t1)
    return {"python_s": statistics.median(python_s), "blas_s": statistics.median(blas_s)}


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {"name": blas.get("name"), "version": blas.get("version"),
                       "runtime": _blas_runtime(numpy)},
        "scipy_blas": {"name": scipy_blas.get("name"), "version": scipy_blas.get("version"),
                       "runtime": _blas_runtime(scipy)},
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        )},
        "speed_reference": speed_reference(),
        "seed": seed,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------
def probe_setup(scenario: Path, out: Path, setup_ops, trace: bool) -> tuple[float, list]:
    """Seconds from spawning a fresh process to its ``ready`` line, and its spans."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--scenario", str(scenario), "--out", str(out)]
    for op in setup_ops:
        cmd += ["--setup-op", op[0]]
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = None
        for line in proc.stdout:
            if line.strip() == "ready":
                ready = time.perf_counter() - t0
                break
        rest = proc.stdout.read()
        code = proc.wait(timeout=120)
    if ready is None or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return ready, json.loads(rest.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 95, 99):
        if len(samples) * (1 - p / 100) >= 10:
            best = (f"p{p}", statistics.quantiles(samples, n=100, method="inclusive")[p - 1])
    return best


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------
def run(args, work: Path) -> dict:
    import workloads as wl
    from tracing import Tracer

    t_start = time.perf_counter()
    traced = args.trace == 1
    scenario_path = work / "scenario.json"
    out = work / "out"
    out.mkdir(parents=True)
    scenario_path.write_text(
        json.dumps(wl.scenario_doc(args.workload, args.seed, args.smoke), indent=2) + "\n",
        encoding="utf-8",
    )
    facts = machine_facts(args.seed)
    print("facts " + json.dumps(facts, sort_keys=True))

    setup_ops = wl.SETUP_OPS.get(args.workload, ())
    tracer = Tracer()
    setup_s, setup_spans = [], []
    for k in range(1 if args.smoke else PROBES):
        seconds, spans = probe_setup(scenario_path, work / f"probe{k}", setup_ops, traced)
        setup_s.append(seconds)
        base = len(tracer.spans)
        for s in spans:
            s["iteration"] = f"setup{k}"
            if s["parent"] is not None:
                s["parent"] += base
        tracer.spans.extend(spans)
        setup_spans.append(f"setup{k}")

    # this process pays the same set-up, untimed, before the loop
    w = wl.Workload(args.workload, scenario_path, out, args.smoke)
    wl.first_blas(w.scenario)
    attempted = failed = 0
    problems: list[str] = []
    for op in setup_ops:
        attempted += 1
        code, err = wl.run_cli(w.argv(op))
        found = [f"exit {code}: {err.strip()}"] if code != 0 else w.check(op)[0]
        if found:
            failed += 1
            problems += [f"set-up {op[0]}: {p}" for p in found]

    walls: list[float] = []        # successful iterations
    all_walls: list[float] = []
    rss: list[float] = []          # ru_maxrss in MB after each iteration
    untraced_walls, traced_walls = [], []
    invert_rates, forward_rates = [], []
    stats = []
    traced_iters: list[dict] = []
    loop_start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - loop_start
        if i > 0 and elapsed >= args.seconds and (not traced or i >= 2):
            break
        trace_this = traced and i % 2 == 1
        w.clear_outputs()
        results, op_times = [], []
        if trace_this:
            tracer.iteration = f"it{i}"
            n_calls = len(tracer.calls)
            tracer.install()
        t0 = time.perf_counter()
        for op in w.ops:
            o0 = time.perf_counter()
            if trace_this:
                with tracer.span("cli.main"):
                    code, err = wl.run_cli(w.argv(op))
            else:
                code, err = wl.run_cli(w.argv(op))
            op_times.append(time.perf_counter() - o0)
            results.append(wl.OpResult(op, code, [] if code == 0 else [f"exit {code}: {err.strip()}"]))
        wall = time.perf_counter() - t0
        if trace_this:
            tracer.uninstall()
            tracer.iteration = None
        for res in results:
            if res.code == 0:
                found, st = w.check(res.argv)
                res.problems += found
                if st is not None:
                    stats.append(st)
        attempted += len(results)
        bad = [r for r in results if r.failed]
        failed += len(bad)
        problems += [f"it{i} {' '.join(r.argv)}: {p}" for r in bad for p in r.problems]
        all_walls.append(wall)
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if not bad:
            walls.append(wall)
            (traced_walls if trace_this else untraced_walls).append(wall)
            t_inv = sum(t for op, t in zip(w.ops, op_times) if op[0] == "invert")
            t_fwd = sum(t for op, t in zip(w.ops, op_times) if op[0] == "forward")
            if t_inv:
                invert_rates.append(w.trials * w.maps_per_iteration / t_inv)
            if t_fwd:
                forward_rates.append(w.forwards_per_iteration / t_fwd)
            if trace_this:
                traced_iters.append({
                    "id": f"it{i}",
                    "calls": tracer.calls[n_calls:],
                    "matrix_bytes": sum(
                        (out / name).stat().st_size for name in ("lambda.csv", "lambda_noisy.csv")
                    ) if w.forwards_per_iteration else 0,
                })
        i += 1

    print("setup probes_s " + json.dumps(setup_s))
    print("iteration walls_s " + json.dumps(all_walls))
    print("iteration peak_rss_mb " + json.dumps(rss))
    for p in problems:
        print(f"check failed: {p}")
    if not walls:
        walls = all_walls  # nothing succeeded; report what was timed, marked incorrect

    e2e = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        # after the first iteration: on desk-image the default worker pool
        # grows the heap with every map, so a later reading would depend
        # on how many iterations fit into --seconds
        "peak_rss_mb": metric(rss[0], "MB"),
    }
    report = dict(e2e)
    p = tail(walls)
    report["wall_s.samples"] = metric(len(walls), "count")
    if p is not None:
        report[f"wall_s.{p[0]}"] = metric(p[1], "s")
    if invert_rates:
        report["trials_per_s"] = metric(statistics.median(invert_rates), "1/s")
    if forward_rates:
        report["lambda_per_s"] = metric(statistics.median(forward_rates), "1/s")
    if stats:
        report["contrast"] = metric(min(s.contrast for s in stats), "ratio")
        report["peak_offset_cells"] = metric(max(s.peak_offset_cells for s in stats), "cells")
        report["degenerate_frac"] = metric(
            sum(s.degenerate for s in stats) / sum(s.points for s in stats), "ratio"
        )
    report["failed_frac"] = metric(failed / attempted, "ratio")

    if not traced:
        for name, m in report.items():
            print(f"e2e {args.workload} {name} = {m['value']!r} {m['unit']}")
        metrics = e2e
    else:
        metrics = per_layer(tracer, w, traced_iters, setup_spans, traced_walls, untraced_walls)
        for name, m in metrics.items():
            print(f"layer {args.workload} {name} = {m['value']!r} {m['unit']}")
        spans_path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    print(f"run took {time.perf_counter() - t_start:.1f} s, {len(all_walls)} iteration(s)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer(tracer, w, traced_iters, setup_ids, traced_walls, untraced_walls) -> dict:
    """Per-layer metrics from the spans of the traced iterations and set-up probes."""
    import layers
    from tracing import LAYERS, self_times, totals

    def med(values) -> float:
        return statistics.median(values) if values else 0.0

    setup = [totals(tracer.spans, k) for k in setup_ids]
    iters = [totals(tracer.spans, it["id"]) for it in traced_iters]
    selfs = [self_times(tracer.spans, it["id"]) for it in traced_iters]

    def per_iter(name: str) -> float:
        return med([t.get(name, 0.0) for t in iters])

    def at_setup(*names: str) -> float:
        return med([sum(t.get(n, 0.0) for n in names) for t in setup])

    # replay the sub-steps of the first traced iteration
    tracer.iteration = "replay"
    rep = Counter()  # summed over the iteration's maps; absent keys read 0
    coupling = 0.0
    for call in traced_iters[0]["calls"] if traced_iters else []:
        if call[0]["name"] == "inversion.indicator_map":
            rep.update(layers.replay_map(tracer, call))
        elif call[0]["name"] == "forward.assemble_lambda":
            coupling += layers.replay_coupling(tracer, call)
    tracer.iteration = "kernels"
    trace_us, disl_us = layers.kernel_call_us(tracer, w.scenario.scene, w.wave, w.scenario.params)
    tracer.iteration = None

    sub_steps = sum(rep[k] for k in ("svd_s", "lambda_sharp_s", "pencil_s", "trial_patterns_s", "morozov_s"))
    m = {
        "cli.load_scenario_s": metric(at_setup("cli.load_scenario"), "s"),
        "cli.forward_s": metric(per_iter("cli.forward"), "s"),
        "cli.invert_s": metric(per_iter("cli.invert"), "s"),
        "cli.write_pgm_s": metric(per_iter("cli.write_pgm"), "s"),
        "material.solve_dispersion_s": metric(at_setup("material.solve_dispersion"), "s"),
        "scene.build_s": metric(at_setup(
            "scene.build_sensing_grid", "scene.build_fracture_patch", "scene.build_sampling_grid"
        ), "s"),
        "scene.trials": metric(w.trials, "count"),
        "greens.trace_kernel_us": metric(trace_us, "us"),
        "greens.dislocation_kernel_us": metric(disl_us, "us"),
        "forward.assemble_s": metric(per_iter("forward.assemble_lambda"), "s"),
        "forward.coupling_s": metric(coupling, "s"),
        "forward.inject_noise_s": metric(per_iter("forward.inject_noise"), "s"),
        "forward.first_blas_s": metric(at_setup("forward.first_blas"), "s"),
        "forward.save_matrix_s": metric(per_iter("forward.save_matrix"), "s"),
        "forward.matrix_bytes": metric(med([it["matrix_bytes"] for it in traced_iters]), "B"),
        "forward.load_matrix_s": metric(per_iter("forward.load_matrix"), "s"),
        "inversion.svd_s": metric(rep["svd_s"], "s"),
        "inversion.lambda_sharp_s": metric(rep["lambda_sharp_s"], "s"),
        "inversion.pencil_s": metric(rep["pencil_s"], "s"),
        "inversion.trial_patterns_s": metric(rep["trial_patterns_s"], "s"),
        "inversion.trial_pairs_per_s": metric(
            rep["trial_pairs"] / rep["trial_patterns_s"] if rep["trial_patterns_s"] else 0.0, "1/s"
        ),
        "inversion.morozov_calls": metric(rep["morozov_calls"], "count"),
        "inversion.morozov_s": metric(rep["morozov_s"], "s"),
        "inversion.morozov_us_per_root": metric(
            rep["morozov_s"] / rep["morozov_calls"] * 1e6 if rep["morozov_calls"] else 0.0, "us"
        ),
        "inversion.morozov_bracketed_frac": metric(
            rep["morozov_bracketed"] / rep["morozov_calls"] if rep["morozov_calls"] else 0.0, "ratio"
        ),
        "inversion.map_s": metric(rep["map_s"], "s"),
        "inversion.map_self_s": metric(rep["map_s"] - sub_steps, "s"),
        "inversion.degenerate_points": metric(rep["degenerate_points"], "count"),
        "inversion.save_map_s": metric(per_iter("inversion.save_indicator_map"), "s"),
    }
    for layer in LAYERS:
        if layer != "greens":  # greens is reached only through private calls; see README
            m[f"{layer}.self_s"] = metric(med([s.get(layer, 0.0) for s in selfs]), "s")
    m["trace.overhead_s"] = metric(med(traced_walls) - med(untraced_walls), "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "poroscat" / "__init__.py").is_file():
        print(f"error: no poroscat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = RUN_DIR / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
