"""Set-up probe: one fresh process taken from start to ready.

Run by run.py, which times this process from spawn until it prints
``ready``.  The steps are those a user's first call pays: imports,
``load_scenario`` (which builds the scene), the dispersion solve and the
first BLAS call, plus any one-time sub-command of the workload.  After
``ready`` the probe prints its spans as one JSON line and exits.

    python3 perfbench/probe.py --scenario <json> --out <dir> [--setup-op forward] [--trace]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-op", action="append", default=[])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    tracer = Tracer()
    tracer.iteration = "setup"
    with tracer.span("setup.import"):
        import workloads as wl
        from poroscat import cli
    if args.trace:
        tracer.install()
    scenario = cli.load_scenario(args.scenario)
    cli.solve_dispersion(scenario.params, scenario.omega)
    with tracer.span("forward.first_blas"):
        wl.first_blas(scenario)
    for op in args.setup_op:
        with tracer.span("cli.main"):
            code = cli.main([op, "--scenario", args.scenario, "--out", args.out])
        if code != 0:
            return 1
    tracer.uninstall()
    print("ready", flush=True)
    print(json.dumps(tracer.spans), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
