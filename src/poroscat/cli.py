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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import forward as fw
from . import inversion as inv
from . import ledger
from .errors import (
    DomainError,
    NumericalError,
    PoroscatError,
    ValidationError,
)
from .greens import _dislocation_trace_matrix, biot_residual, green_tensor
from .material import (
    DimensionalMaterial,
    MaterialParams,
    ReferenceScales,
    WaveState,
    nondimensionalize,
    solve_dispersion,
)
from .scene import (
    FINITE_PERMEABILITY,
    HIGH_PERMEABILITY,
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
_MATERIAL_KEYS = ("lam", "mu", "M", "rho", "rho_f", "rho_a", "kappa", "phi", "alpha")


def _show(value) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _reject_unknown(d: dict, allowed, path: str) -> None:
    for key in d:
        if key not in allowed:
            raise ValidationError(f"{path}: unknown key {key!r}")


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ValidationError(f"{path}: missing required key {key!r}")
    return d[key]


# typed readers: each returns the value at ``path`` as the named type or
# raises ValidationError naming the path
def _object(value, path: str, allowed) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{path} must be an object, got {_show(value)}")
    _reject_unknown(value, allowed, path)
    return value


def _array(value, path: str, sizes=None, min_size: int = 0) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{path} must be an array, got {_show(value)}")
    if (sizes is not None and len(value) not in sizes) or len(value) < min_size:
        want = " or ".join(map(str, sizes)) if sizes else f"at least {min_size}"
        raise ValidationError(f"{path} must hold {want} entries, got {len(value)}")
    return list(value)


def _number(value, path: str) -> float:
    """A finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path} must be a number, got {_show(value)}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond double range
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{path} must be finite, got {_show(value)}")
    return x


def _optional_number(value, path: str) -> float | None:
    return None if value is None else _number(value, path)


def _integer(value, path: str, limit: int = 2**31) -> int:
    """A JSON integer of magnitude below ``limit`` (sizes and counts are
    32-bit)."""
    if isinstance(value, bool) or not isinstance(value, int) or not abs(value) < limit:
        raise ValidationError(
            f"{path} must be an integer of magnitude below {limit}, got {_show(value)}"
        )
    return value


def _numbers(value, path: str, sizes, read=_number) -> list[float]:
    return [read(v, f"{path}[{i}]") for i, v in enumerate(_array(value, path, sizes))]


# scene coordinates and lengths stay below this magnitude, so that squared
# distances between scene points stay in double range
_COORDINATE_LIMIT = 1e150


def _coordinate(value, path: str) -> float:
    """A finite number of magnitude below _COORDINATE_LIMIT."""
    x = _number(value, path)
    if not abs(x) < _COORDINATE_LIMIT:
        raise ValidationError(
            f"{path} must be of magnitude below {_COORDINATE_LIMIT:g}, got {_show(value)}"
        )
    return x


def _integers(value, path: str, sizes=None) -> list[int]:
    return [_integer(v, f"{path}[{i}]") for i, v in enumerate(_array(value, path, sizes))]


def _choice(value, path: str, choices) -> str:
    if not (isinstance(value, str) and value in choices):
        raise ValidationError(f"{path} must be {'|'.join(choices)}, got {_show(value)}")
    return value


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


def _parse_material(doc) -> tuple:
    doc = _object(doc, "material", {"dimensionless", "dimensional", "scales"})

    def constants(key):
        path = f"material.{key}"
        block = _object(_need(doc, key, "material"), path, _MATERIAL_KEYS)
        return {k: _number(_need(block, k, path), f"{path}.{k}") for k in _MATERIAL_KEYS}

    if "dimensionless" in doc:
        try:
            params = MaterialParams(**constants("dimensionless"))
        except DomainError as exc:
            raise ValidationError(f"material.dimensionless: {exc}") from None
        return params, {"dimensionless": {k: getattr(params, k) for k in sorted(_MATERIAL_KEYS)}}
    if "dimensional" not in doc or "scales" not in doc:
        raise ValidationError(
            "material: needs either 'dimensionless' or 'dimensional' + 'scales'"
        )
    dim = constants("dimensional")
    sc = _object(doc["scales"], "material.scales", {"mu_r", "rho_r", "ell_r"})
    try:
        dimat = DimensionalMaterial(**dim)
        scales = ReferenceScales(
            **{k: _number(_need(sc, k, "material.scales"), f"material.scales.{k}")
               for k in ("mu_r", "rho_r", "ell_r")}
        )
    except DomainError as exc:
        raise ValidationError(f"material: {exc}") from None
    return dimat, scales  # resolved later with the frequency


def _parse_contact(doc, path: str) -> ContactParams:
    doc = _object(doc, path, {"k_t", "k_n", "kappa_f", "alpha_f", "beta_f", "Pi", "model"})

    def stiffness(key):
        value = _need(doc, key, path)
        if isinstance(value, (list, tuple)):
            return complex(*_numbers(value, f"{path}.{key}", (2,)))
        return complex(_number(value, f"{path}.{key}"))

    return ContactParams(
        k_t=stiffness("k_t"),
        k_n=stiffness("k_n"),
        kappa_f=_number(doc.get("kappa_f", 1.0), f"{path}.kappa_f"),
        alpha_f=_number(doc.get("alpha_f", 0.85), f"{path}.alpha_f"),
        beta_f=_number(doc.get("beta_f", 0.3), f"{path}.beta_f"),
        Pi=_number(doc.get("Pi", 1.0), f"{path}.Pi"),
        model=_choice(
            doc.get("model", FINITE_PERMEABILITY), f"{path}.model",
            (FINITE_PERMEABILITY, HIGH_PERMEABILITY),
        ),
    )


def _parse_fracture(doc, default_contact: ContactParams | None, path: str):
    """The patch of a fracture entry, and the entry in the form it was
    given with its defaults and contact filled in."""
    allowed = {
        "center", "length", "angle_rad", "width", "cells", "contact",
        "e1", "e2", "half_lengths",
    }
    doc = _object(doc, path, allowed)
    if doc.get("contact") is not None:
        contact = _parse_contact(doc["contact"], f"{path}.contact")
    elif default_contact is not None:
        contact = default_contact
    else:
        raise ValidationError(f"{path}: no contact given and no scene default")
    cells = _integers(doc.get("cells", [8, 2]), f"{path}.cells", (2,))
    strike = "angle_rad" in doc or "length" in doc
    for key in ("e1", "e2", "half_lengths") if strike else ("width",):
        if key in doc:
            form = "strike (length, angle_rad)" if strike else "frame (e1, e2, half_lengths)"
            raise ValidationError(f"{path}.{key} is not a key of a {form} fracture")
    center = _numbers(
        _need(doc, "center", path), f"{path}.center", (2, 3) if strike else (3,), _coordinate
    )
    if strike:
        if len(center) == 2:
            center = [center[0], center[1], 0.0]
        echo = {
            "center": center,
            "length": _coordinate(_need(doc, "length", path), f"{path}.length"),
            "angle_rad": _number(_need(doc, "angle_rad", path), f"{path}.angle_rad"),
            "width": _coordinate(doc.get("width", 1.0), f"{path}.width"),
        }
        patch = build_fracture_patch(
            center=center,
            strike_rad=echo["angle_rad"],
            half_lengths=(echo["length"] / 2.0, echo["width"] / 2.0),
            subdivisions=cells,
            contact=contact,
        )
    else:
        echo = {"center": center}
        for key, size in (("e1", 3), ("e2", 3), ("half_lengths", 2)):
            echo[key] = _numbers(_need(doc, key, path), f"{path}.{key}", (size,), _coordinate)
        patch = build_fracture_patch(
            center=center,
            frame=(echo["e1"], echo["e2"]),
            half_lengths=tuple(echo["half_lengths"]),
            subdivisions=cells,
            contact=contact,
        )
    return patch, dict(echo, cells=cells, contact=contact.to_dict())


def _parse_scene(doc) -> tuple[Scene, dict]:
    """The scene, and its document with every default filled in."""
    doc = _object(doc, "scene", {"wells", "fractures", "contact", "sampling", "channels"})
    wells = []
    for i, w in enumerate(_array(_need(doc, "wells", "scene"), "scene.wells", min_size=1)):
        path = f"scene.wells[{i}]"
        w = _object(w, path, {"points", "samples_per_segment"})
        points = _array(_need(w, "points", path), f"{path}.points", min_size=2)
        wells.append({
            "points": [
                _numbers(v, f"{path}.points[{j}]", (3,), _coordinate) for j, v in enumerate(points)
            ],
            "samples_per_segment": _integer(
                w.get("samples_per_segment", 10), f"{path}.samples_per_segment"
            ),
        })
    if len({w["samples_per_segment"] for w in wells}) > 1:
        raise ValidationError("scene.wells: samples_per_segment must agree across wells")
    grid = build_sensing_grid([w["points"] for w in wells], wells[0]["samples_per_segment"])

    default_contact = None
    if "contact" in doc:
        default_contact = _parse_contact(doc["contact"], "scene.contact")
    fractures = [
        _parse_fracture(f, default_contact, f"scene.fractures[{i}]")
        for i, f in enumerate(_array(doc.get("fractures", []), "scene.fractures"))
    ]

    path = "scene.sampling"
    s = _object(
        _need(doc, "sampling", "scene"), path, {"region", "resolution", "n_dir", "iotas", "plane_z"}
    )
    sampling = {
        "region": _numbers(_need(s, "region", path), f"{path}.region", (4,), _coordinate),
        "resolution": _integers(_need(s, "resolution", path), f"{path}.resolution", (2,)),
        "n_dir": _integer(s.get("n_dir", 8), f"{path}.n_dir"),
        "iotas": _integers(s.get("iotas", [0, 1]), f"{path}.iotas"),
        "plane_z": _coordinate(s.get("plane_z", 0.0), f"{path}.plane_z"),
    }
    channels = doc.get("channels", "in-plane")
    if not isinstance(channels, str):
        channels = _array(channels, "scene.channels")
        if not all(isinstance(c, str) for c in channels):
            raise ValidationError(f"scene.channels must name channels, got {_show(channels)}")
    scene = Scene(
        grid=grid,
        patches=tuple(patch for patch, _ in fractures),
        sampling=build_sampling_grid(**sampling),
        channels=resolve_channels(channels),
    )
    echo = {
        "wells": wells,
        "fractures": [f for _, f in fractures],
        "sampling": sampling,
        "channels": list(scene.channels),
    }
    return scene, echo


def parse_scenario(doc: dict) -> Scenario:
    """Validate a scenario document; unknown keys and values of the wrong
    type are rejected with a ValidationError that names their path."""
    doc = _object(
        doc, "scenario", {"material", "frequency", "scene", "forward", "noise", "inversion"}
    )
    mat = _parse_material(_need(doc, "material", "scenario"))
    freq = _object(_need(doc, "frequency", "scenario"), "frequency", {"omega", "omega_prime"})
    if isinstance(mat[0], MaterialParams):
        params = mat[0]
        if "omega" not in freq:
            raise ValidationError("frequency: dimensionless material needs 'omega'")
        omega = _number(freq["omega"], "frequency.omega")
    else:
        dimat, scales = mat
        if "omega_prime" not in freq:
            raise ValidationError("frequency: dimensional material needs 'omega_prime'")
        omega_prime = _number(freq["omega_prime"], "frequency.omega_prime")
        params, omega = nondimensionalize(dimat, scales, omega_prime)
    if not omega > 0:
        raise ValidationError(f"frequency: omega must be positive, got {omega}")

    scene, scene_doc = _parse_scene(_need(doc, "scene", "scenario"))

    fwd = _object(doc.get("forward", {}), "forward", {"mode", "cutoff"})
    mode = _choice(fwd.get("mode", "local"), "forward.mode", ("local", "interacting"))
    cutoff = _optional_number(fwd.get("cutoff"), "forward.cutoff")

    noise = _object(doc.get("noise", {}), "noise", {"epsilon", "target_delta", "seed"})
    if "epsilon" in noise and "target_delta" in noise:
        raise ValidationError("noise: give only one of epsilon or target_delta")
    epsilon = _optional_number(noise.get("epsilon"), "noise.epsilon")
    target_delta = _optional_number(noise.get("target_delta"), "noise.target_delta")
    if epsilon is None and target_delta is None:
        epsilon = 0.0
    seed = _integer(noise.get("seed", 0), "noise.seed", limit=2**64)

    inv_doc = _object(
        doc.get("inversion", {}), "inversion", {"method", "alpha_policy", "fixed_alpha", "delta"}
    )
    method = _choice(inv_doc.get("method", "lsm"), "inversion.method", ("lsm", "glsm"))
    alpha_policy = _choice(
        inv_doc.get("alpha_policy", "per-candidate"), "inversion.alpha_policy",
        ("per-candidate", "fixed"),
    )
    fixed_alpha = _optional_number(inv_doc.get("fixed_alpha"), "inversion.fixed_alpha")
    if fixed_alpha is not None and not (fixed_alpha > 0.0 and alpha_policy == "fixed"):
        raise ValidationError(
            f"inversion.fixed_alpha must be positive and needs alpha_policy 'fixed', got "
            f"{fixed_alpha!r} under {alpha_policy!r}"
        )
    inv_delta = _optional_number(inv_doc.get("delta"), "inversion.delta")

    resolved = {
        "material": {"dimensionless": {k: getattr(params, k) for k in _MATERIAL_KEYS}},
        "frequency": {"omega": omega},
        "scene": scene_doc,
        "forward": {"mode": mode, "cutoff": cutoff},
        "noise": (
            {"epsilon": epsilon, "seed": seed} if target_delta is None
            else {"target_delta": target_delta, "seed": seed}
        ),
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
    """Assemble and write lambda.csv and lambda_noisy.csv plus metadata;
    the stage seconds and health facts come from the run's ledger record."""
    seed = scenario.seed if seed is None else _integer(seed, "--seed", limit=2**64)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    wave = solve_dispersion(scenario.params, scenario.omega)
    mode = mode or scenario.forward_mode

    with ledger.record() as rec:
        with ledger.stage("assemble"):
            lam = fw.assemble_lambda(
                scenario.scene, wave, scenario.params, mode=mode, cutoff=scenario.forward_cutoff
            )
        with ledger.stage("noise"):
            if scenario.noise_target_delta is not None:
                noisy = fw.inject_noise(lam, target_delta=scenario.noise_target_delta, seed=seed)
            else:
                noisy = fw.inject_noise(lam, epsilon=scenario.noise_epsilon or 0.0, seed=seed)
        with ledger.stage("write"):
            fw.save_matrix(lam, out / "lambda.csv")
            fw.save_matrix(noisy, out / "lambda_noisy.csv")
            resolved = dict(scenario.resolved)
            resolved["noise"] = dict(resolved["noise"], seed=seed)
            resolved["forward"] = dict(resolved["forward"], mode=mode)
            _dump_json(resolved, out / "resolved_scenario.json")
    norm = float(np.linalg.norm(lam.data, 2))
    meta = {
        "n_points": lam.n_points,
        "channels": list(lam.channels),
        "matrix_size": lam.size,
        "omega": wave.omega,
        "mode": mode,
        "seed": seed,
        "epsilon": noisy.epsilon,
        "achieved_delta": noisy.delta,
        "norm_lambda": norm,
        "relative_delta": noisy.delta / norm if norm > 0.0 else None,
        "coupled_residual": None,  # both are an interacting assembly's
        "closure_gap": None,
        **rec,
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


def run_invert(scenario: Scenario, out_dir, method: str | None = None) -> dict:
    """Compute the indicator map from the matrices written to ``out_dir``;
    write CSV and PGM.  The stage seconds, root counts and spectrum
    summary come from the run's ledger record."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    noisy_path = out / "lambda_noisy.csv"
    if not noisy_path.exists():
        raise ValidationError(f"matrix file not found: {noisy_path} (run forward first)")
    scene = scenario.scene
    method = method or scenario.method
    wave = solve_dispersion(scenario.params, scenario.omega)

    with ledger.record() as rec:
        with ledger.stage("load"):
            noisy = fw.load_matrix(noisy_path)
        with ledger.stage("map"):
            imap = inv.indicator_map(
                scene, noisy, method, wave, scenario.params, delta=scenario.inversion_delta,
                alpha_policy=scenario.alpha_policy, fixed_alpha=scenario.fixed_alpha,
            )
        with ledger.stage("write"):
            inv.save_indicator_map(imap, out / f"map_{method}.csv")
            write_pgm(imap, out / f"map_{method}.pgm")
    # a map of a zero L, or with no sampling point off the sensing points, stages no block
    rec["timings_s"] = {**dict.fromkeys(("patterns", "roots", "solve"), 0.0), **rec["timings_s"]}
    meta = {
        "method": method,
        "delta": imap.delta,
        "raw_max": imap.raw_max,
        "degenerate_points": imap.degenerate_count,
        "trial_triplets": scene.sampling.trial_count,
        "morozov_roots": 0,
        "morozov_unbracketed_low": 0,
        "morozov_unbracketed_high": 0,
        "pencil_rank": None,  # GLSM's
        **rec,
        "relative_delta": imap.delta / rec["sigma_max"] if rec["sigma_max"] > 0.0 else None,
    }
    _dump_json(meta, out / "invert_meta.json")
    return meta


# ---------------------------------------------------------------------------
# property-suite runner
# ---------------------------------------------------------------------------
def _entry(name: str, ok: bool | None, detail: str) -> dict:
    """A check report entry; ok is None for a skipped check."""
    return {"name": name, "status": "skip" if ok is None else "pass" if ok else "fail",
            "detail": detail}


def _check_dispersion(params: MaterialParams, wave: WaveState) -> dict:
    from .presets import pecos_sandstone, PECOS_OMEGA

    ref = pecos_sandstone()
    same = all(
        math.isclose(getattr(params, k), getattr(ref, k), rel_tol=1e-9) for k in _MATERIAL_KEYS
    ) and math.isclose(wave.omega, PECOS_OMEGA, rel_tol=1e-9)
    if not same:
        return _entry("dispersion_reference_speeds", None,
                      "scenario background is not the reference sandstone")
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
    return _entry("dispersion_reference_speeds", ok, "; ".join(details))


def _check_pde_residual(params, wave, rng) -> dict:
    worst = 0.0
    y = np.zeros(3)
    for _ in range(4):
        xi = rng.normal(size=3)
        xi *= rng.uniform(0.6, 1.5) / np.linalg.norm(xi)
        worst = max(worst, *(biot_residual(y, xi, col, wave, params) for col in range(4)))
    return _entry("fundamental_solution_pde_residual", worst < 1e-4,
                  f"max relative residual {worst:.3e}")


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
    results.append(_entry("kernel_identities", uf_err == 0.0 and a_err < 1e-12,
                          f"u_f + p_s deviation {uf_err:.3e}, A1+A2-1 = {a_err:.3e}"))

    # one set of factors for every check below
    factors = fw._factors(scene, wave, params)
    S, R, cells = factors.S, factors.R, factors.interface.cells
    if S.shape[0] > 0:
        w = np.repeat(cells.areas, 5)
        gv = rng.normal(size=S.shape[1]) + 1j * rng.normal(size=S.shape[1])
        av = rng.normal(size=S.shape[0]) + 1j * rng.normal(size=S.shape[0])
        lhs = np.vdot(av, w * (S @ gv))
        rhs = np.vdot(np.conj(R) @ av, gv)
        adj = abs(lhs - rhs) / abs(lhs)
        results.append(_entry("adjoint_identity", adj < 1e-8, f"relative mismatch {adj:.3e}"))
    else:
        results.append(_entry("adjoint_identity", None, "no fractures"))

    lam = fw._scattering_data(factors)
    nc = cells.count
    if nc > 0:
        # L = R T S against R J, where J solves each cell's contact conditions
        # D J = E S directly rather than through the transfer T = D^-1 E
        D, E = factors.interface.D, factors.interface.E
        J = np.linalg.solve(D, E @ S.reshape(nc, 5, -1)).reshape(5 * nc, -1)
        prod = R @ J
        fac = np.linalg.norm(lam - prod) / max(np.linalg.norm(prod), 1e-300)
    else:
        fac = 0.0  # zero operators agree trivially
    results.append(_entry("factorization_consistency", fac < 1e-12,
                          f"relative deviation {fac:.3e}"))

    # L is complex symmetric under both closures (reciprocity of the Biot system)
    coupling = (wave, params, scenario.forward_cutoff)
    inter = fw._scattering_data(factors, coupling)
    asym = {}
    for mode, L in (("local", lam), ("interacting", inter)):
        scale = np.linalg.norm(L)
        asym[mode] = float(np.linalg.norm(L - L.T) / scale) if scale > 0.0 else 0.0
    results.append(_entry(
        "operator_reciprocity", max(asym.values()) < 1e-10,
        "||L - L^T||/||L||: " + ", ".join(f"{k} {v:.3e}" for k, v in asym.items()),
    ))

    # the coupling kernel is reciprocal, B(z_i <- y_j) = B(y_j <- z_i)^T, which
    # lets the interacting assembly evaluate each off-patch cell pair once
    if len(scene.patches) < 2:
        results.append(_entry("dislocation_reciprocity", None, "fewer than two patches"))
    else:
        i, j = np.nonzero(cells.patch_index[:, None] < cells.patch_index[None, :])
        pick = rng.choice(i.size, size=min(64, i.size), replace=False)
        i, j = i[pick], j[pick]
        c, n = cells.centers, cells.normals
        B = _dislocation_trace_matrix(c[j], n[j], c[i], n[i], wave, params)
        swapped = _dislocation_trace_matrix(c[i], n[i], c[j], n[j], wave, params)
        dev = np.linalg.norm(B - np.swapaxes(swapped, 1, 2), axis=(1, 2))
        swap = float(np.max(dev / np.linalg.norm(B, axis=(1, 2))))
        results.append(_entry(
            "dislocation_reciprocity", swap < 1e-10,
            f"max ||B(z<-y) - B(y<-z)^T||/||B|| over {i.size} pairs: {swap:.3e}",
        ))

    sharp = inv.lambda_sharp(lam)
    herm = float(np.abs(sharp - sharp.conj().T).max())
    eigs = np.linalg.eigvalsh(sharp)
    scale = max(float(np.abs(eigs).max()), 1e-300)
    psd_ok = herm <= 1e-12 * scale and eigs.min() >= -1e-12 * scale
    results.append(_entry("lambda_sharp_psd", psd_ok,
                          f"hermitian dev {herm:.3e}, min eig {eigs.min():.3e}"))

    res = inv.morozov_eta(np.eye(3, dtype=complex), np.array([1.0, 0, 0]), 0.05)
    moro_ok = res.bracketed and abs(res.eta - 0.05) <= 1e-12
    results.append(_entry("morozov_closed_form", moro_ok, f"eta = {res.eta!r} for delta = 0.05"))

    worst = None
    for patch in scene.patches:
        rep = fw.check_admissibility(patch.contact, wave)
        if worst is None or rep.worst_imag > worst[1]:
            worst = (rep.admissible, rep.worst_imag)
    results.append(
        _entry("contact_admissibility", None, "no fractures") if worst is None
        else _entry("contact_admissibility", worst[0], f"max Im<P phi, phi> = {worst[1]:.3e}")
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
