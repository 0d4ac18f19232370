"""Spans around the calls the benchmark makes into poroscat's modules.

A span is a name, a start, an end, the index of its parent span and the
iteration it belongs to.  Spans are kept in memory and written out when
the benchmark ends.  The recorder wraps the public functions the CLI
reaches through module attributes, so nothing inside ``src/`` changes;
time spent in private helpers stays in the self time of the public call
that made it.

Span names are ``<layer>.<function>``; the layer is the poroscat module.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "material", "scene", "greens", "forward", "inversion")


class Tracer:
    """In-memory span recorder with installable wrappers."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: list[tuple[dict, tuple, dict, object]] = []
        self.iteration = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "iteration": self.iteration,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; return (result, seconds)."""
        with self.span(name) as rec:
            result = fn(*args, **kwargs)
        return result, duration(rec)

    def _wrap(self, owner, attr: str, name: str, keep: bool) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
            if keep:
                self.calls.append((rec, args, kwargs, result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap the layer boundaries the CLI pipeline crosses."""
        from poroscat import cli
        from poroscat import forward as fw
        from poroscat import inversion as inv

        # cli.main looks these names up in the cli module, and the cli
        # module reaches forward/inversion through their module objects
        for owner, attr, name, keep in (
            (cli, "load_scenario", "cli.load_scenario", False),
            (cli, "run_forward", "cli.forward", False),
            (cli, "run_invert", "cli.invert", False),
            (cli, "write_pgm", "cli.write_pgm", False),
            (cli, "solve_dispersion", "material.solve_dispersion", False),
            (cli, "build_sensing_grid", "scene.build_sensing_grid", False),
            (cli, "build_fracture_patch", "scene.build_fracture_patch", False),
            (cli, "build_sampling_grid", "scene.build_sampling_grid", False),
            (fw, "assemble_lambda", "forward.assemble_lambda", True),
            (fw, "inject_noise", "forward.inject_noise", False),
            (fw, "save_matrix", "forward.save_matrix", False),
            (fw, "load_matrix", "forward.load_matrix", False),
            (inv, "indicator_map", "inversion.indicator_map", True),
            (inv, "save_indicator_map", "inversion.save_indicator_map", False),
        ):
            self._wrap(owner, attr, name, keep)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def totals(spans: list[dict], iteration) -> dict[str, float]:
    """Summed duration per span name within one iteration."""
    out: dict[str, float] = {}
    for s in spans:
        if s["iteration"] == iteration:
            out[s["name"]] = out.get(s["name"], 0.0) + duration(s)
    return out


def self_times(spans: list[dict], iteration) -> dict[str, float]:
    """Self time per layer: span durations minus the time of their children.

    Children of one span run one after another, so the part of the
    parent's interval they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["iteration"] == iteration and s["parent"] is not None:
            child[s["parent"]] += duration(s)
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        if s["iteration"] == iteration:
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + duration(s) - child[i]
    return out
