"""Scenario ingestion and pipeline orchestration.

Subcommands
-----------
forward   assemble the clean and noisy scattering matrices of a scenario
invert    compute an indicator map from previously written matrices
map       forward followed by invert
check     run the property suite against the scenario and report pass/fail

Exit codes: 0 success; 2 validation/argument failures; 3 numerical
failures; 4 I/O failures.  Identical scenario and seed produce
byte-identical output files.  The resolved scenario's forward, noise
and inversion sections, with the flags applied, are the runs' arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
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

# ---------------------------------------------------------------------------
# scenario schema
# ---------------------------------------------------------------------------
_MATERIAL_KEYS = tuple(f.name for f in fields(MaterialParams))


def _show(value) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


@contextmanager
def _at(path: str):
    """Turn a DomainError raised while the object at ``path`` is built into
    a ValidationError that names the path."""
    try:
        yield
    except DomainError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ValidationError(f"{path}: missing required key {key!r}")
    return d[key]


# typed readers: each returns the value at ``path`` as the named type or
# raises ValidationError naming the path
def _object(value, path: str, allowed) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{path} must be an object, got {_show(value)}")
    for key in value:
        if key not in allowed:
            raise ValidationError(f"{path}: unknown key {key!r}")
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


def _optional_number(value, path: str, low: float = -math.inf) -> float | None:
    x = None if value is None else _number(value, path)
    if x is not None and x < low:
        raise ValidationError(f"{path} must be at least {low:g}, got {_show(value)}")
    return x


def _integer(value, path: str, limit: int = 2**31, low: float = -math.inf) -> int:
    """A JSON integer of magnitude below ``limit`` (sizes and counts are
    32-bit) and at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, int) or not abs(value) < limit:
        raise ValidationError(
            f"{path} must be an integer of magnitude below {limit}, got {_show(value)}"
        )
    if value < low:
        raise ValidationError(f"{path} must be at least {low:g}, got {value}")
    return value


def _numbers(value, path: str, sizes, read=_number) -> list:
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


def _choice(value, path: str, choices) -> str:
    if not (isinstance(value, str) and value in choices):
        raise ValidationError(f"{path} must be {'|'.join(choices)}, got {_show(value)}")
    return value


@dataclass(frozen=True)
class Scenario:
    """Validated experiment description: the material, frequency and scene
    built from it, and the document with every default filled in, whose
    forward, noise and inversion sections are the runs' arguments."""

    params: MaterialParams
    omega: float
    scene: Scene
    resolved: dict


def _parse_material(doc) -> MaterialParams | tuple[DimensionalMaterial, ReferenceScales]:
    doc = _object(doc, "material", {"dimensionless", "dimensional", "scales"})

    def constants(key):
        path = f"material.{key}"
        block = _object(_need(doc, key, "material"), path, _MATERIAL_KEYS)
        return {k: _number(_need(block, k, path), f"{path}.{k}") for k in _MATERIAL_KEYS}

    if "dimensionless" in doc:
        if doc.keys() & {"dimensional", "scales"}:
            raise ValidationError("material: give dimensionless or dimensional + scales, not both")
        with _at("material.dimensionless"):
            return MaterialParams(**constants("dimensionless"))
    if "dimensional" not in doc or "scales" not in doc:
        raise ValidationError(
            "material: needs either 'dimensionless' or 'dimensional' + 'scales'"
        )
    with _at("material.dimensional"):
        dimat = DimensionalMaterial(**constants("dimensional"))
    sc = _object(doc["scales"], "material.scales", {"mu_r", "rho_r", "ell_r"})
    with _at("material.scales"):
        scales = ReferenceScales(
            **{k: _number(_need(sc, k, "material.scales"), f"material.scales.{k}")
               for k in ("mu_r", "rho_r", "ell_r")}
        )
    return dimat, scales  # resolved later with the frequency


def _parse_contact(doc, path: str) -> ContactParams:
    doc = _object(doc, path, {"k_t", "k_n", "kappa_f", "alpha_f", "beta_f", "Pi", "model"})

    def stiffness(key):
        value = _need(doc, key, path)
        if isinstance(value, (list, tuple)):
            return complex(*_numbers(value, f"{path}.{key}", (2,)))
        return complex(_number(value, f"{path}.{key}"))

    given = {key: stiffness(key) for key in ("k_t", "k_n")}
    for key in ("kappa_f", "alpha_f", "beta_f", "Pi"):
        if key in doc:
            given[key] = _number(doc[key], f"{path}.{key}")
    if "model" in doc:
        given["model"] = _choice(
            doc["model"], f"{path}.model", (FINITE_PERMEABILITY, HIGH_PERMEABILITY)
        )
    with _at(path):
        return ContactParams(**given)


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
    cells = _numbers(doc.get("cells", [8, 2]), f"{path}.cells", (2,), _integer)
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
        geometry = {
            "strike_rad": echo["angle_rad"],
            "half_lengths": (echo["length"] / 2.0, echo["width"] / 2.0),
        }
    else:
        echo = {"center": center}
        for key, size in (("e1", 3), ("e2", 3), ("half_lengths", 2)):
            echo[key] = _numbers(_need(doc, key, path), f"{path}.{key}", (size,), _coordinate)
        geometry = {
            "frame": (echo["e1"], echo["e2"]), "half_lengths": tuple(echo["half_lengths"])
        }
    with _at(path):
        patch = build_fracture_patch(center=center, subdivisions=cells, contact=contact, **geometry)
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
    with _at("scene.wells"):
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
        "resolution": _numbers(_need(s, "resolution", path), f"{path}.resolution", (2,), _integer),
        "n_dir": _integer(s.get("n_dir", 8), f"{path}.n_dir"),
        "iotas": _numbers(s.get("iotas", [0, 1]), f"{path}.iotas", None, _integer),
        "plane_z": _coordinate(s.get("plane_z", 0.0), f"{path}.plane_z"),
    }
    with _at(path):
        trials = build_sampling_grid(**sampling)
    channels = doc.get("channels", "in-plane")
    if not isinstance(channels, str):
        channels = _array(channels, "scene.channels")
        if not all(isinstance(c, str) for c in channels):
            raise ValidationError(f"scene.channels must name channels, got {_show(channels)}")
    with _at("scene.channels"):
        channels = resolve_channels(channels)
    with _at("scene"):
        scene = Scene(
            grid=grid,
            patches=tuple(patch for patch, _ in fractures),
            sampling=trials,
            channels=channels,
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
    if "omega" in freq and "omega_prime" in freq:
        raise ValidationError("frequency: give only one of omega or omega_prime")
    if isinstance(mat, MaterialParams):
        params = mat
        if "omega" not in freq:
            raise ValidationError("frequency: dimensionless material needs 'omega'")
        omega = _number(freq["omega"], "frequency.omega")
    else:
        dimat, scales = mat
        if "omega_prime" not in freq:
            raise ValidationError("frequency: dimensional material needs 'omega_prime'")
        omega_prime = _number(freq["omega_prime"], "frequency.omega_prime")
        with _at("frequency"):
            params, omega = nondimensionalize(dimat, scales, omega_prime)
    if not omega > 0:
        raise ValidationError(f"frequency: omega must be positive, got {omega}")

    scene, scene_doc = _parse_scene(_need(doc, "scene", "scenario"))

    fwd = _object(doc.get("forward", {}), "forward", {"mode", "cutoff"})
    forward = {
        "mode": _choice(fwd.get("mode", "local"), "forward.mode", ("local", "interacting")),
        "cutoff": _optional_number(fwd.get("cutoff"), "forward.cutoff", low=0.0),
    }

    noise_doc = _object(doc.get("noise", {}), "noise", {"epsilon", "target_delta", "seed"})
    if "epsilon" in noise_doc and "target_delta" in noise_doc:
        raise ValidationError("noise: give only one of epsilon or target_delta")
    epsilon = _optional_number(noise_doc.get("epsilon"), "noise.epsilon", low=0.0)
    target_delta = _optional_number(noise_doc.get("target_delta"), "noise.target_delta", low=0.0)
    if epsilon is None and target_delta is None:
        epsilon = 0.0
    level = {"epsilon": epsilon} if target_delta is None else {"target_delta": target_delta}
    noise = {**level, "seed": _integer(noise_doc.get("seed", 0), "noise.seed", limit=2**64, low=0)}

    inv_doc = _object(doc.get("inversion", {}), "inversion", {"method", "alpha_policy"})
    inversion = {
        "method": _choice(inv_doc.get("method", "lsm"), "inversion.method", ("lsm", "glsm")),
        "alpha_policy": _choice(
            inv_doc.get("alpha_policy", "per-candidate"), "inversion.alpha_policy",
            ("per-candidate", "fixed"),
        ),
    }
    resolved = {
        "material": {"dimensionless": {k: getattr(params, k) for k in _MATERIAL_KEYS}},
        "frequency": {"omega": omega},
        "scene": scene_doc,
        "forward": forward,
        "noise": noise,
        "inversion": inversion,
    }
    return Scenario(params=params, omega=omega, scene=scene, resolved=resolved)


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
    the stage seconds and health facts come from the run's ledger record.
    The echo, with the overrides applied, holds the calls' arguments."""
    resolved = dict(scenario.resolved)
    if seed is not None:
        seed = _integer(seed, "--seed", limit=2**64, low=0)
        resolved["noise"] = dict(resolved["noise"], seed=seed)
    if mode is not None:
        resolved["forward"] = dict(resolved["forward"], mode=mode)
    wave = solve_dispersion(scenario.params, scenario.omega)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with ledger.record() as rec:
        with ledger.stage("assemble"):
            lam = fw.assemble_lambda(scenario.scene, wave, scenario.params, **resolved["forward"])
        with ledger.stage("noise"):
            noisy = fw.inject_noise(lam, **resolved["noise"])
        with ledger.stage("write"):
            fw.save_matrix(lam, out / "lambda.csv")
            fw.save_matrix(noisy, out / "lambda_noisy.csv")
            _dump_json(resolved, out / "resolved_scenario.json")
    norm = float(np.linalg.norm(lam.data, 2))
    meta = {
        "n_points": lam.n_points,
        "channels": list(lam.channels),
        "matrix_size": lam.size,
        "omega": wave.omega,
        "mode": lam.mode,
        "seed": noisy.seed,
        "epsilon": noisy.epsilon,
        "achieved_delta": noisy.delta,
        "norm_lambda": norm,
        "relative_delta": noisy.delta / norm if norm > 0.0 else None,
        "coupled_residual": None,  # these four are an interacting assembly's
        "closure_gap": None,
        "coupled_blocks": None,
        "kernel_pairs": None,
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
    noisy_path = out / "lambda_noisy.csv"
    if not noisy_path.exists():
        raise ValidationError(f"matrix file not found: {noisy_path} (run forward first)")
    scene = scenario.scene
    inversion = scenario.resolved["inversion"]
    method = method or inversion["method"]
    wave = solve_dispersion(scenario.params, scenario.omega)

    with ledger.record() as rec:
        with ledger.stage("load"):
            noisy = fw.load_matrix(noisy_path)
        with ledger.stage("map"):
            imap = inv.indicator_map(
                scene, noisy, method, wave, scenario.params, alpha_policy=inversion["alpha_policy"]
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
        "fixed_alpha": None,  # the fixed alpha policy's
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
    from .presets import PECOS_OMEGA, PECOS_SPEEDS, pecos_sandstone

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
        ref_c = PECOS_SPEEDS[key]
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
    S, cells = factors.S, factors.interface.cells
    R = fw._radiation(S, cells.areas)
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
    coupling = (wave, params, scenario.resolved["forward"]["cutoff"])
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
    overrides = {
        "--seed": {"type": int, "help": "noise seed override"},
        "--method": {"choices": ("lsm", "glsm"), "help": "indicator override"},
        "--mode": {"choices": ("local", "interacting"), "help": "forward closure override"},
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags, helptext in (
        ("forward", ("--seed", "--mode"), "assemble clean and noisy scattering matrices"),
        ("invert", ("--method",), "compute an indicator map from written matrices"),
        ("map", ("--seed", "--method", "--mode"), "forward followed by invert"),
        ("check", (), "run the scenario property suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default="out", help="output directory")
        for flag in flags:
            p.add_argument(flag, **overrides[flag])
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
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PoroscatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
