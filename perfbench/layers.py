"""Per-layer numbers for the traced run.

``indicator_map`` has no public sub-step API, so its parts are timed by
replaying the same public calls on the same inputs after the traced
iteration: ``SvdOperator``, ``lambda_sharp``, ``GlsmPencil``,
``trial_pattern_block`` on each 64-point block and ``morozov_eta`` on each
column the map solves a root for.  The replay runs on one thread, while
the map itself runs its blocks on the default worker pool.  The greens
numbers time the public single-pair kernels on pairs from the scene.
"""

from __future__ import annotations

import statistics
from collections import Counter

import numpy as np

from poroscat import forward as fw
from poroscat import greens
from poroscat import inversion as inv
from tracing import duration

BLOCK = 64  # points per trial_pattern_block call, as in indicator_map
KERNEL_CALLS = 200  # timed calls per single-pair kernel


def replay_map(tracer, call) -> Counter:
    """Time the public sub-steps of one traced ``indicator_map`` call."""
    rec, args, kwargs, imap = call
    scene, matrix, method, wave, params = args[:5]
    per_candidate = kwargs.get("alpha_policy", "per-candidate") == "per-candidate"
    delta = imap.delta
    out = Counter()

    op, out["svd_s"] = tracer.timed("inversion.SvdOperator", inv.SvdOperator, matrix)
    if method == "glsm":
        sharp, out["lambda_sharp_s"] = tracer.timed(
            "inversion.lambda_sharp", inv.lambda_sharp, op.matrix
        )
        _, out["pencil_s"] = tracer.timed(
            "inversion.GlsmPencil", inv.GlsmPencil, op.matrix, sharp, delta
        )
    sampling = scene.sampling
    pts, cands = sampling.points(), sampling.candidates()
    gpts, channels = scene.grid.points, scene.channels

    def roots(columns) -> None:
        with tracer.span("inversion.morozov_eta") as span:
            for phi in columns:
                if np.any(phi):  # the map skips all-zero columns
                    out["morozov_calls"] += 1
                    out["morozov_bracketed"] += inv.morozov_eta(op, phi, delta).bracketed
        out["morozov_s"] += duration(span)

    if method == "glsm" and not per_candidate and kwargs.get("fixed_alpha") is None:
        # the fixed policy takes alpha from the roots at the grid centre
        center = pts[len(pts) // 2]
        phis = []
        for normal, iota in cands:
            pat, t = tracer.timed(
                "inversion.trial_pattern", inv.trial_pattern,
                center, normal, iota, gpts, wave, params, channels,
            )
            phis.append(pat.vector)
            out["trial_patterns_s"] += t
            out["trial_pairs"] += 1
        roots(phis)
    for start in range(0, len(pts), BLOCK):
        block = pts[start:start + BLOCK]
        Phi, t = tracer.timed(
            "inversion.trial_pattern_block", inv.trial_pattern_block,
            block, cands, gpts, wave, params, channels,
        )
        out["trial_patterns_s"] += t
        out["trial_pairs"] += Phi.shape[1]
        if method == "lsm" or per_candidate:
            roots(Phi.T)
    out["map_s"] = duration(rec)
    out["degenerate_points"] = imap.degenerate_count
    return out


def replay_coupling(tracer, call) -> float:
    """Interacting minus local ``assemble_lambda`` on the traced call's scene."""
    rec, args, kwargs, _ = call
    if kwargs.get("mode", "local") != "interacting":
        return 0.0
    scene, wave, params = args[:3]
    _, t_local = tracer.timed(
        "forward.assemble_lambda", fw.assemble_lambda,
        scene, wave, params, mode="local", cutoff=kwargs.get("cutoff"),
    )
    return duration(rec) - t_local


def kernel_call_us(tracer, scene, wave, params) -> tuple[float, float]:
    """Median microseconds per call of ``trace_kernel`` and ``dislocation_trace_kernel``."""
    gpts = scene.grid.points
    spts = scene.sampling.points()
    normals = scene.sampling.normals
    trace = []
    for k in range(KERNEL_CALLS):
        _, t = tracer.timed(
            "greens.trace_kernel", greens.trace_kernel,
            gpts[k % len(gpts)], spts[(7 * k) % len(spts)], normals[k % len(normals)],
            wave, params,
        )
        trace.append(t)
    disl = []
    if len(scene.patches) >= 2:
        src, trc = scene.patches[0], scene.patches[1]
        src_c, _ = src.cells()
        trc_c, _ = trc.cells()
        for k in range(KERNEL_CALLS):
            _, t = tracer.timed(
                "greens.dislocation_trace_kernel", greens.dislocation_trace_kernel,
                src_c[k % len(src_c)], src.normal, trc_c[(3 * k) % len(trc_c)], trc.normal,
                wave, params,
            )
            disl.append(t)
    return statistics.median(trace) * 1e6, statistics.median(disl) * 1e6 if disl else 0.0
