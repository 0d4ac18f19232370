"""Scenario ingestion and pipeline orchestration.

Subcommands
-----------
forward   assemble the clean and noisy scattering matrices of a scenario
invert    compute an indicator map from previously written matrices
map       forward followed by invert
check     run the property suite against the scenario and report pass/fail

Common flags: --scenario <path>, --out <dir>, --seed <u64>,
--method lsm|glsm, --mode local|interacting.

Exit codes: 0 success; 2 validation/argument failures; 3 numerical
failures; 4 I/O failures.  Identical scenario and seed produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import forward as fw
from . import inversion as inv
from .errors import (
    DomainError,
    NumericalError,
    PoroscatError,
    ValidationError,
)
from .greens import _green_matrix, green_tensor
from .material import (
    DimensionalMaterial,
    MaterialParams,
    ReferenceScales,
    WaveState,
    nondimensionalize,
    solve_dispersion,
)
from .scene import (
    ContactParams,
    Scene,
    build_fracture_patch,
    build_sampling_grid,
    build_sensing_grid,
    resolve_channels,
)

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# modal speeds of the reference background at omega = 3.91, used by the
# dispersion entry of the check suite when the scenario matches it
_REFERENCE_SPEEDS = {
    "c_s": 0.66 + 8.8e-6j,
    "c_p1": 1.26 + 3.0e-7j,
    "c_p2": 5.8e-3 + 5.8e-3j,
}


# ---------------------------------------------------------------------------
# scenario schema
# ---------------------------------------------------------------------------
def _reject_unknown(d: dict, allowed: set[str], path: str) -> None:
    for key in d:
        if key not in allowed:
            raise ValidationError(f"{path}: unknown key {key!r}")


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ValidationError(f"{path}: missing required key {key!r}")
    return d[key]


@dataclass(frozen=True)
class Scenario:
    """Validated experiment description with defaults resolved."""

    params: MaterialParams
    omega: float
    scene: Scene
    forward_mode: str
    forward_cutoff: float | None
    noise_epsilon: float | None
    noise_target_delta: float | None
    seed: int
    method: str
    alpha_policy: str
    fixed_alpha: float | None
    inversion_delta: float | None
    resolved: dict


def _parse_material(doc: dict) -> tuple[MaterialParams, dict]:
    _reject_unknown(doc, {"dimensionless", "dimensional", "scales"}, "material")
    if "dimensionless" in doc:
        block = doc["dimensionless"]
        names = {"lam", "mu", "M", "rho", "rho_f", "rho_a", "kappa", "phi", "alpha"}
        _reject_unknown(block, names, "material.dimensionless")
        try:
            params = MaterialParams(**{k: float(_need(block, k, "material.dimensionless")) for k in names})
        except DomainError as exc:
            raise ValidationError(f"material.dimensionless: {exc}") from None
        return params, {"dimensionless": {k: getattr(params, k) for k in sorted(names)}}
    if "dimensional" not in doc or "scales" not in doc:
        raise ValidationError(
            "material: needs either 'dimensionless' or 'dimensional' + 'scales'"
        )
    dim = doc["dimensional"]
    names = {"lam", "mu", "M", "rho", "rho_f", "rho_a", "kappa", "phi", "alpha"}
    _reject_unknown(dim, names, "material.dimensional")
    sc = doc["scales"]
    _reject_unknown(sc, {"mu_r", "rho_r", "ell_r"}, "material.scales")
    try:
        dimat = DimensionalMaterial(**{k: float(_need(dim, k, "material.dimensional")) for k in names})
        scales = ReferenceScales(
            mu_r=float(_need(sc, "mu_r", "material.scales")),
            rho_r=float(_need(sc, "rho_r", "material.scales")),
            ell_r=float(_need(sc, "ell_r", "material.scales")),
        )
    except DomainError as exc:
        raise ValidationError(f"material: {exc}") from None
    return dimat, scales  # resolved later with the frequency


def _parse_fracture(doc: dict, default_contact: ContactParams | None, path: str):
    allowed = {
        "center", "length", "angle_rad", "width", "cells", "contact",
        "e1", "e2", "half_lengths",
    }
    _reject_unknown(doc, allowed, path)
    contact_doc = doc.get("contact")
    if contact_doc is not None:
        contact = ContactParams.from_dict(contact_doc)
    elif default_contact is not None:
        contact = default_contact
    else:
        raise ValidationError(f"{path}: no contact given and no scene default")
    cells = doc.get("cells", [8, 2])
    center = list(_need(doc, "center", path))
    if "angle_rad" in doc or "length" in doc:
        if len(center) == 2:
            center = [center[0], center[1], 0.0]
        length = float(_need(doc, "length", path))
        width = float(doc.get("width", 1.0))
        return build_fracture_patch(
            center=center,
            strike_rad=float(_need(doc, "angle_rad", path)),
            half_lengths=(length / 2.0, width / 2.0),
            subdivisions=tuple(int(c) for c in cells),
            contact=contact,
        )
    return build_fracture_patch(
        center=center,
        frame=(_need(doc, "e1", path), _need(doc, "e2", path)),
        half_lengths=tuple(float(v) for v in _need(doc, "half_lengths", path)),
        subdivisions=tuple(int(c) for c in cells),
        contact=contact,
    )


def _parse_scene(doc: dict) -> Scene:
    _reject_unknown(
        doc, {"wells", "fractures", "contact", "sampling", "channels"}, "scene"
    )
    wells_doc = _need(doc, "wells", "scene")
    polylines, counts = [], []
    for i, w in enumerate(wells_doc):
        _reject_unknown(w, {"points", "samples_per_segment"}, f"scene.wells[{i}]")
        polylines.append(_need(w, "points", f"scene.wells[{i}]"))
        counts.append(int(w.get("samples_per_segment", 10)))
    if len(set(counts)) > 1:
        raise ValidationError("scene.wells: samples_per_segment must agree across wells")
    grid = build_sensing_grid(polylines, counts[0] if counts else 10)

    default_contact = None
    if "contact" in doc:
        default_contact = ContactParams.from_dict(doc["contact"])
    patches = tuple(
        _parse_fracture(f, default_contact, f"scene.fractures[{i}]")
        for i, f in enumerate(doc.get("fractures", []))
    )

    s = _need(doc, "sampling", "scene")
    _reject_unknown(
        s, {"region", "resolution", "n_dir", "iotas", "plane_z"}, "scene.sampling"
    )
    sampling = build_sampling_grid(
        region=tuple(float(v) for v in _need(s, "region", "scene.sampling")),
        resolution=tuple(int(v) for v in _need(s, "resolution", "scene.sampling")),
        n_dir=int(s.get("n_dir", 8)),
        iotas=tuple(int(i) for i in s.get("iotas", [0, 1])),
        plane_z=float(s.get("plane_z", 0.0)),
    )
    channels = resolve_channels(doc.get("channels", "in-plane"))
    return Scene(grid=grid, patches=patches, sampling=sampling, channels=channels)


def parse_scenario(doc: dict) -> Scenario:
    """Validate a scenario document; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise ValidationError("scenario root must be an object")
    _reject_unknown(
        doc,
        {"material", "frequency", "scene", "forward", "noise", "inversion"},
        "scenario",
    )
    mat = _parse_material(_need(doc, "material", "scenario"))
    freq = _need(doc, "frequency", "scenario")
    _reject_unknown(freq, {"omega", "omega_prime"}, "frequency")
    if isinstance(mat[0], MaterialParams):
        params = mat[0]
        if "omega" not in freq:
            raise ValidationError("frequency: dimensionless material needs 'omega'")
        omega = float(freq["omega"])
    else:
        dimat, scales = mat
        if "omega_prime" not in freq:
            raise ValidationError("frequency: dimensional material needs 'omega_prime'")
        params, omega = nondimensionalize(dimat, scales, float(freq["omega_prime"]))
    if not omega > 0:
        raise ValidationError(f"frequency: omega must be positive, got {omega}")

    scene = _parse_scene(_need(doc, "scene", "scenario"))

    fwd = doc.get("forward", {})
    _reject_unknown(fwd, {"mode", "cutoff"}, "forward")
    mode = fwd.get("mode", "local")
    if mode not in ("local", "interacting"):
        raise ValidationError(f"forward.mode must be local|interacting, got {mode!r}")
    cutoff = fwd.get("cutoff")
    cutoff = None if cutoff is None else float(cutoff)

    noise = doc.get("noise", {})
    _reject_unknown(noise, {"epsilon", "target_delta", "seed"}, "noise")
    if "epsilon" in noise and "target_delta" in noise:
        raise ValidationError("noise: give only one of epsilon or target_delta")
    epsilon = float(noise["epsilon"]) if "epsilon" in noise else None
    target_delta = float(noise["target_delta"]) if "target_delta" in noise else None
    if epsilon is None and target_delta is None:
        epsilon = 0.0
    seed = int(noise.get("seed", 0))

    inv_doc = doc.get("inversion", {})
    _reject_unknown(
        inv_doc, {"method", "alpha_policy", "fixed_alpha", "delta"}, "inversion"
    )
    method = inv_doc.get("method", "lsm")
    if method not in ("lsm", "glsm"):
        raise ValidationError(f"inversion.method must be lsm|glsm, got {method!r}")
    alpha_policy = inv_doc.get("alpha_policy", "per-candidate")
    if alpha_policy not in ("per-candidate", "fixed"):
        raise ValidationError(
            f"inversion.alpha_policy must be per-candidate|fixed, got {alpha_policy!r}"
        )
    fixed_alpha = inv_doc.get("fixed_alpha")
    fixed_alpha = None if fixed_alpha is None else float(fixed_alpha)
    inv_delta = inv_doc.get("delta")
    inv_delta = None if inv_delta is None else float(inv_delta)

    resolved = {
        "material": {
            "dimensionless": {
                k: getattr(params, k)
                for k in ("lam", "mu", "M", "rho", "rho_f", "rho_a", "kappa", "phi", "alpha")
            }
        },
        "frequency": {"omega": omega},
        "scene": scene.to_dict(),
        "forward": {"mode": mode, "cutoff": cutoff},
        "noise": {"epsilon": epsilon, "target_delta": target_delta, "seed": seed},
        "inversion": {
            "method": method,
            "alpha_policy": alpha_policy,
            "fixed_alpha": fixed_alpha,
            "delta": inv_delta,
        },
    }
    return Scenario(
        params=params,
        omega=omega,
        scene=scene,
        forward_mode=mode,
        forward_cutoff=cutoff,
        noise_epsilon=epsilon,
        noise_target_delta=target_delta,
        seed=seed,
        method=method,
        alpha_policy=alpha_policy,
        fixed_alpha=fixed_alpha,
        inversion_delta=inv_delta,
        resolved=resolved,
    )


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file (strict JSON schema)."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"scenario file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{p}: not valid JSON ({exc})") from None
    return parse_scenario(doc)


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------
def _dump_json(obj, path: Path) -> None:
    path.write_text(
        json.dumps(obj, indent=2, sort_keys=True, allow_nan=True) + "\n",
        encoding="utf-8",
    )


def run_forward(
    scenario: Scenario,
    out_dir,
    seed: int | None = None,
    mode: str | None = None,
) -> dict:
    """Assemble and write lambda.csv and lambda_noisy.csv plus metadata."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    wave = solve_dispersion(scenario.params, scenario.omega)
    mode = mode or scenario.forward_mode
    seed = scenario.seed if seed is None else seed

    t0 = time.perf_counter()
    lam = fw.assemble_lambda(
        scenario.scene, wave, scenario.params, mode=mode, cutoff=scenario.forward_cutoff
    )
    t_assemble = time.perf_counter() - t0

    t0 = time.perf_counter()
    if scenario.noise_target_delta is not None:
        noisy = fw.inject_noise(lam, target_delta=scenario.noise_target_delta, seed=seed)
    else:
        noisy = fw.inject_noise(lam, epsilon=scenario.noise_epsilon or 0.0, seed=seed)
    t_noise = time.perf_counter() - t0

    fw.save_matrix(lam, out / "lambda.csv")
    fw.save_matrix(noisy, out / "lambda_noisy.csv")
    resolved = dict(scenario.resolved)
    resolved["noise"] = dict(resolved["noise"], seed=seed)
    _dump_json(resolved, out / "resolved_scenario.json")
    meta = {
        "n_points": lam.n_points,
        "channels": list(lam.channels),
        "matrix_size": lam.size,
        "omega": wave.omega,
        "mode": mode,
        "seed": seed,
        "epsilon": noisy.epsilon,
        "achieved_delta": noisy.delta,
        "norm_lambda": float(np.linalg.norm(lam.data, 2)),
        "timings_s": {"assemble": t_assemble, "noise": t_noise},
    }
    _dump_json(meta, out / "forward_meta.json")
    return meta


def write_pgm(imap: inv.IndicatorMap, path) -> None:
    """8-bit P2 heatmap of the normalized map; top row is max y."""
    nx, ny = imap.grid.resolution
    vals = imap.normalized.reshape(ny, nx)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"P2\n{nx} {ny}\n255\n")
        for iy in range(ny - 1, -1, -1):
            row = vals[iy]
            pix = np.where(np.isfinite(row), np.round(row * 255.0), 0.0)
            pix = np.clip(pix, 0, 255).astype(int)
            fh.write(" ".join(str(v) for v in pix) + "\n")


def run_invert(
    scenario: Scenario,
    out_dir,
    matrices_dir=None,
    method: str | None = None,
) -> dict:
    """Compute the indicator map from written matrices; write CSV and PGM."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    src = Path(matrices_dir) if matrices_dir is not None else out
    noisy_path = src / "lambda_noisy.csv"
    if not noisy_path.exists():
        raise ValidationError(f"matrix file not found: {noisy_path} (run forward first)")
    noisy = fw.load_matrix(noisy_path)
    scene = scenario.scene
    method = method or scenario.method
    wave = solve_dispersion(scenario.params, scenario.omega)

    t0 = time.perf_counter()
    imap = inv.indicator_map(
        scene,
        noisy,
        method,
        wave,
        scenario.params,
        delta=scenario.inversion_delta,
        alpha_policy=scenario.alpha_policy,
        fixed_alpha=scenario.fixed_alpha,
    )
    t_map = time.perf_counter() - t0

    inv.save_indicator_map(imap, out / f"map_{method}.csv")
    write_pgm(imap, out / f"map_{method}.pgm")
    meta = {
        "method": method,
        "delta": imap.delta,
        "raw_max": imap.raw_max,
        "degenerate_points": imap.degenerate_count,
        "trial_triplets": scene.sampling.trial_count,
        "morozov_roots": imap.morozov.roots,
        "morozov_unbracketed_low": imap.morozov.unbracketed_low,
        "morozov_unbracketed_high": imap.morozov.unbracketed_high,
        "timings_s": {"map": t_map},
    }
    _dump_json(meta, out / "invert_meta.json")
    return meta


# ---------------------------------------------------------------------------
# property-suite runner
# ---------------------------------------------------------------------------
def _check_dispersion(params: MaterialParams, wave: WaveState) -> dict:
    from .presets import pecos_sandstone, PECOS_OMEGA

    ref = pecos_sandstone()
    same = all(
        math.isclose(getattr(params, k), getattr(ref, k), rel_tol=1e-9)
        for k in ("lam", "mu", "M", "rho", "rho_f", "rho_a", "kappa", "phi", "alpha")
    ) and math.isclose(wave.omega, PECOS_OMEGA, rel_tol=1e-9)
    if not same:
        return {
            "name": "dispersion_reference_speeds",
            "status": "skip",
            "detail": "scenario background is not the reference sandstone",
        }
    cs, cp1, cp2 = wave.modal_speeds()
    ok = True
    details = []
    for c, key in ((cs, "c_s"), (cp1, "c_p1"), (cp2, "c_p2")):
        ref_c = _REFERENCE_SPEEDS[key]
        rel = abs(c.real - ref_c.real) / abs(ref_c.real)
        ratio = abs(c.imag) / abs(ref_c.imag)
        good = rel <= 0.05 and 0.5 <= ratio <= 2.0
        ok &= good
        details.append(f"{key}: re rel {rel:.3g}, |im| ratio {ratio:.3g}")
    return {
        "name": "dispersion_reference_speeds",
        "status": "pass" if ok else "fail",
        "detail": "; ".join(details),
    }


def _check_pde_residual(params, wave, rng) -> dict:
    worst = 0.0
    y = np.zeros(3)
    for _ in range(4):
        xi = rng.normal(size=3)
        xi *= rng.uniform(0.6, 1.5) / np.linalg.norm(xi)
        res = _biot_residual(y, xi, wave, params)
        worst = max(worst, res)
    return {
        "name": "fundamental_solution_pde_residual",
        "status": "pass" if worst < 1e-4 else "fail",
        "detail": f"max relative residual {worst:.3e}",
    }


def _biot_residual(y, xi, wave, params, h: float = 1e-3) -> float:
    """Central-difference residual of the governing system, worst column."""
    gamma, omega = wave.gamma, wave.omega
    m = params.rho - params.rho_f**2 / gamma
    beta = params.alpha - params.rho_f / gamma
    lam, mu = params.lam, params.mu

    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    offs = np.array([-2, -1, 0, 1, 2])
    eye = np.eye(3)

    stencil = xi[None, None, :] + offs[None, :, None] * h * eye[:, None, :]
    G = _green_matrix(y, stencil.reshape(-1, 3), wave, params).reshape(3, 5, 4, 4)
    G0 = _green_matrix(y, xi, wave, params)

    worst = 0.0
    for col in range(4):
        u0, p0 = G0[:3, col], G0[3, col]
        lap_u = np.einsum("s,ksi->i", c2, G[:, :, :3, col])
        lap_p = np.einsum("s,ks->", c2, G[:, :, 3, col])
        J = np.einsum("s,ksi->ki", c1, G[:, :, :3, col])  # J[k, i] = d u_i / d xi_k
        grad_p = np.einsum("s,ks->k", c1, G[:, :, 3, col])
        div_u = np.trace(J)
        # grad(div u) via nested central differences of the divergence
        graddiv = np.zeros(3, dtype=complex)
        for k in range(3):
            pts = xi[None, :] + offs[:, None] * h * eye[k]
            divs = np.zeros(5, dtype=complex)
            for s, pt in enumerate(pts):
                sub = pt[None, None, :] + offs[None, :, None] * h * eye[:, None, :]
                Gsub = _green_matrix(y, sub.reshape(-1, 3), wave, params).reshape(3, 5, 4, 4)
                divs[s] = sum(
                    np.einsum("s,s->", c1, Gsub[k2, :, k2, col]) for k2 in range(3)
                )
            graddiv[k] = c1 @ divs
        L1 = (lam + mu) * graddiv + mu * lap_u - beta * grad_p + omega**2 * m * u0
        L2 = lap_p / (gamma * omega**2) + p0 / params.M + beta * div_u
        s1 = (
            abs(omega**2 * m) * np.linalg.norm(u0)
            + abs(beta) * np.linalg.norm(grad_p)
            + abs(mu) * np.linalg.norm(lap_u)
        )
        s2 = abs(p0 / params.M) + abs(lap_p / (gamma * omega**2)) + abs(beta * div_u)
        worst = max(worst, np.linalg.norm(L1) / s1, abs(L2) / s2)
    return float(worst)


def run_check(scenario: Scenario, out_dir=None) -> list[dict]:
    """Execute the invariant suite; failures are report entries, not errors."""
    results: list[dict] = []
    rng = np.random.default_rng(2024)
    params = scenario.params
    wave = solve_dispersion(params, scenario.omega)
    scene = scenario.scene

    results.append(_check_dispersion(params, wave))
    results.append(_check_pde_residual(params, wave, rng))

    # kernel identities at a random pair
    xi = np.array([0.9, 0.4, -0.3])
    g = green_tensor(np.zeros(3), xi, wave, params)
    uf_err = float(np.abs(g.fluid_displacement + g.force_pressure).max())
    a_err = abs(wave.A1 + wave.A2 - 1.0)
    results.append(
        {
            "name": "kernel_identities",
            "status": "pass" if (uf_err == 0.0 and a_err < 1e-12) else "fail",
            "detail": f"u_f + p_s deviation {uf_err:.3e}, A1+A2-1 = {a_err:.3e}",
        }
    )

    S = fw._trace_operator(scene, wave, params)
    R = fw._radiation_operator(scene, wave, params)
    if S.shape[0] > 0:
        cells = fw._collect_cells(scene.patches)
        w = np.repeat(cells.areas, 5)
        gv = rng.normal(size=S.shape[1]) + 1j * rng.normal(size=S.shape[1])
        av = rng.normal(size=S.shape[0]) + 1j * rng.normal(size=S.shape[0])
        lhs = np.vdot(av, w * (S @ gv))
        rhs = np.vdot(np.conj(R) @ av, gv)
        adj = abs(lhs - rhs) / abs(lhs)
        results.append(
            {
                "name": "adjoint_identity",
                "status": "pass" if adj < 1e-8 else "fail",
                "detail": f"relative mismatch {adj:.3e}",
            }
        )
    else:
        results.append(
            {"name": "adjoint_identity", "status": "skip", "detail": "no fractures"}
        )

    lam = fw.assemble_lambda(scene, wave, params, mode="local")
    nc = S.shape[0] // 5
    if nc > 0:
        T = fw._local_transfer(scene.patches, wave.omega)
        prod = R @ np.einsum("cij,cjk->cik", T, S.reshape(nc, 5, -1)).reshape(5 * nc, -1)
        fac = np.linalg.norm(lam.data - prod) / max(np.linalg.norm(prod), 1e-300)
        status = "pass" if fac < 1e-12 else "fail"
    else:
        fac, status = 0.0, "pass"  # zero operators agree trivially
    results.append(
        {
            "name": "factorization_consistency",
            "status": status,
            "detail": f"relative deviation {fac:.3e}",
        }
    )

    sharp = inv.lambda_sharp(lam.data)
    herm = float(np.abs(sharp - sharp.conj().T).max())
    eigs = np.linalg.eigvalsh(sharp)
    scale = max(float(np.abs(eigs).max()), 1e-300)
    psd_ok = herm <= 1e-12 * scale and eigs.min() >= -1e-12 * scale
    results.append(
        {
            "name": "lambda_sharp_psd",
            "status": "pass" if psd_ok else "fail",
            "detail": f"hermitian dev {herm:.3e}, min eig {eigs.min():.3e}",
        }
    )

    res = inv.morozov_eta(np.eye(3, dtype=complex), np.array([1.0, 0, 0]), 0.05)
    moro_ok = res.bracketed and abs(res.eta - 0.05) <= 1e-12
    results.append(
        {
            "name": "morozov_closed_form",
            "status": "pass" if moro_ok else "fail",
            "detail": f"eta = {res.eta!r} for delta = 0.05",
        }
    )

    worst = None
    for i, patch in enumerate(scene.patches):
        rep = fw.check_admissibility(patch.contact, wave, trials=2000, seed=11 + i)
        if worst is None or rep.worst_imag > worst[1]:
            worst = (rep.admissible, rep.worst_imag)
    if worst is None:
        results.append(
            {"name": "contact_admissibility", "status": "skip", "detail": "no fractures"}
        )
    else:
        results.append(
            {
                "name": "contact_admissibility",
                "status": "pass" if worst[0] else "fail",
                "detail": f"max Im<P phi, phi> = {worst[1]:.3e}",
            }
        )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _dump_json(results, out / "check_report.json")
    return results


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poroscat",
        description="Poroelastic scattering synthesis and fracture imaging",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("forward", "assemble clean and noisy scattering matrices"),
        ("invert", "compute an indicator map from written matrices"),
        ("map", "forward followed by invert"),
        ("check", "run the scenario property suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="noise seed override")
        p.add_argument(
            "--method", choices=("lsm", "glsm"), default=None, help="indicator override"
        )
        p.add_argument(
            "--mode",
            choices=("local", "interacting"),
            default=None,
            help="forward closure override",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.command == "forward":
            meta = run_forward(scenario, args.out, seed=args.seed, mode=args.mode)
            print(f"forward: {meta['matrix_size']}x{meta['matrix_size']} matrix, "
                  f"delta = {meta['achieved_delta']:.6g}")
        elif args.command == "invert":
            meta = run_invert(scenario, args.out, method=args.method)
            print(f"invert: {meta['method']} map, raw max {meta['raw_max']:.6g}, "
                  f"{meta['degenerate_points']} degenerate point(s)")
        elif args.command == "map":
            run_forward(scenario, args.out, seed=args.seed, mode=args.mode)
            meta = run_invert(scenario, args.out, method=args.method)
            print(f"map: {meta['method']} map written, raw max {meta['raw_max']:.6g}")
        elif args.command == "check":
            results = run_check(scenario, args.out)
            for entry in results:
                print(f"CHECK {entry['name']}: {entry['status'].upper()} ({entry['detail']})")
            # failures are report entries; the command itself succeeded
        return 0
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PoroscatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
