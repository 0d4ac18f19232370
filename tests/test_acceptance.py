"""Acceptance suite: one pass/fail line per criterion (run with -s to see
the lines on success).  The desk-scale artifacts are built once per
session and shared by the localization criteria."""

import json
import warnings

import numpy as np
import pytest

from poroscat import cli
from poroscat import forward as fw
from poroscat import inversion as inv
from poroscat.greens import green_tensor
from poroscat.presets import desk_scale_scenario, desk_scale_scene
from tests.test_greens import biot_residual

NOISE_SEED = 20240613


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def desk(params, wave):
    scene = desk_scale_scene()
    lam = fw.assemble_lambda(scene, wave, params, mode="local")
    noisy = fw.inject_noise(lam, target_delta=0.05, seed=NOISE_SEED)
    fluid_scene = desk_scale_scene(channels="fluid")
    fluid_lam = fw.assemble_lambda(fluid_scene, wave, params, mode="local")

    def build_map(sc, mat, method):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return inv.indicator_map(sc, mat, method, wave, params)

    maps = {
        ("lsm", "clean"): build_map(scene, lam, "lsm"),
        ("lsm", "noisy"): build_map(scene, noisy, "lsm"),
        ("glsm", "clean"): build_map(scene, lam, "glsm"),
        ("glsm", "noisy"): build_map(scene, noisy, "glsm"),
        ("lsm", "fluid"): build_map(fluid_scene, fluid_lam, "lsm"),
        ("glsm", "fluid"): build_map(fluid_scene, fluid_lam, "glsm"),
    }
    return {
        "scene": scene,
        "fluid_scene": fluid_scene,
        "lam": lam,
        "noisy": noisy,
        "fluid_lam": fluid_lam,
        "maps": maps,
    }


def map_stats(imap, scene, wave):
    pts = scene.sampling.points()
    dist = scene.distance_to_fractures(pts)
    vals = imap.normalized
    finite = np.isfinite(vals)
    xs, _ = scene.sampling.axes()
    dx = xs[1] - xs[0]
    peak = int(np.nanargmax(vals))
    on = (dist <= np.hypot(dx, dx) / 2) & finite
    off = (dist > wave.shear_wavelength / 2) & finite
    return {
        "peak_cells": float(dist[peak] / dx),
        "ratio": float(np.nanmean(vals[on]) / np.nanmean(vals[off])),
        "on": on,
        "off": off,
    }


def test_criterion_1_dispersion(params, wave):
    refs = {"c_s": 0.66 + 8.8e-6j, "c_p1": 1.26 + 3e-7j, "c_p2": 5.8e-3 + 5.8e-3j}
    speeds = dict(zip(refs, wave.modal_speeds()))
    ok = True
    parts = []
    for key, ref in refs.items():
        c = speeds[key]
        rel = abs(c.real - ref.real) / abs(ref.real)
        ratio = abs(c.imag) / abs(ref.imag)
        ok &= rel <= 0.05 and 0.5 <= ratio <= 2.0
        parts.append(f"{key}={c.real:.4g}{abs(c.imag):+.2g}i")
    report(1, "dispersion reproduction", ok, "; ".join(parts))


def test_criterion_2_fundamental_solution(params, wave, rng):
    worst = 0.0
    for _ in range(20):
        xi = rng.normal(size=3)
        xi *= rng.uniform(0.5, 3.0) / np.linalg.norm(xi)
        for col in range(4):
            worst = max(worst, biot_residual(np.zeros(3), xi, col, wave, params))
    g = green_tensor(np.zeros(3), np.array([0.7, -0.4, 0.5]), wave, params)
    uf_exact = np.array_equal(g.fluid_displacement, -g.force_pressure)
    a_id = abs(wave.A1 + wave.A2 - 1.0) <= 1e-12
    ok = worst < 1e-4 and uf_exact and a_id
    report(
        2, "fundamental-solution correctness", ok,
        f"max residual {worst:.2e}, u_f = -p_s exact: {uf_exact}, A1+A2 ok: {a_id}",
    )


def test_criterion_3_operator_identities(desk, params, wave, rng):
    scene = desk["scene"]
    S = fw._trace_operator(scene, wave, params)
    R = fw._radiation_operator(scene, wave, params)
    cells = fw._collect_cells(scene.patches)
    w = np.repeat(cells.areas, 5)
    g = rng.normal(size=S.shape[1]) + 1j * rng.normal(size=S.shape[1])
    a = rng.normal(size=S.shape[0]) + 1j * rng.normal(size=S.shape[0])
    adj = abs(np.vdot(a, w * (S @ g)) - np.vdot(np.conj(R) @ a, g)) / abs(
        np.vdot(a, w * (S @ g))
    )

    T = fw._local_transfer(scene.patches, wave.omega)
    nc = S.shape[0] // 5
    prod = R @ np.einsum("cij,cjk->cik", T, S.reshape(nc, 5, -1)).reshape(5 * nc, -1)
    fac = np.linalg.norm(desk["lam"].data - prod) / np.linalg.norm(prod)

    psd_ok = True
    for mat in (desk["lam"], desk["noisy"], desk["fluid_lam"]):
        sharp = inv.lambda_sharp(mat.data)
        scale = np.linalg.norm(sharp, 2)
        psd_ok &= np.abs(sharp - sharp.conj().T).max() <= 1e-12 * scale
        psd_ok &= np.linalg.eigvalsh(sharp).min() >= -1e-12 * scale

    ok = adj < 1e-8 and fac <= 1e-12 and psd_ok
    report(
        3, "operator identities", ok,
        f"adjoint {adj:.2e}, factorization {fac:.2e}, sharp PSD: {psd_ok}",
    )


def test_criterion_4_regularization_contracts(rng):
    A = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    phi = rng.normal(size=7) + 1j * rng.normal(size=7)
    g = inv.tikhonov_solve(A, phi, 0.2)
    tik = np.linalg.norm(
        A.conj().T @ (A @ g) + 0.2 * g - A.conj().T @ phi
    ) / np.linalg.norm(A.conj().T @ phi)

    res = inv.morozov_eta(A, phi, 0.08)
    g_eta = inv.tikhonov_solve(A, phi, res.eta)
    moro = abs(
        np.linalg.norm(A @ g_eta - phi) - 0.08 * np.linalg.norm(g_eta)
    ) / (0.08 * np.linalg.norm(g_eta))

    sharp = inv.lambda_sharp(A)
    gg = inv.glsm_solve(A, sharp, phi, 0.3, 0.05)
    half = inv.sqrt_psd(sharp)
    glsm = np.linalg.norm(
        A.conj().T @ (A @ gg - phi) + 0.3 * (half.conj().T @ (half @ gg) + 0.05 * gg)
    ) / np.linalg.norm(A.conj().T @ phi)

    eta_id = inv.morozov_eta(np.eye(2, dtype=complex), np.array([1.0, 0]), 0.05).eta
    closed_eta = abs(eta_id - 0.05) <= 1e-14 * 0.05
    g_unit = inv.glsm_solve(
        np.eye(2, dtype=complex), np.eye(2, dtype=complex), np.array([1.0, 0]), 1.0, 0.0
    )
    closed_g = np.abs(g_unit - np.array([0.5, 0.0])).max() <= 1e-14

    ok = tik < 1e-10 and moro <= 1e-6 and glsm < 1e-10 and closed_eta and closed_g
    report(
        4, "regularization contracts", ok,
        f"tikhonov {tik:.2e}, morozov {moro:.2e}, glsm {glsm:.2e}, "
        f"closed forms: {closed_eta and closed_g}",
    )


def test_criterion_5_desk_scale_localization(desk, wave):
    ok = True
    parts = []
    for method in ("lsm", "glsm"):
        imap = desk["maps"][(method, "clean")]
        st = map_stats(imap, desk["scene"], wave)
        good = st["peak_cells"] <= 1.0 and st["ratio"] > 3.0
        ok &= good
        parts.append(f"{method}: peak {st['peak_cells']:.2f} cells, contrast {st['ratio']:.2f}")
        # solution-norm dichotomy: on-fracture densities stay small
        g_norm = 1.0 / imap.raw
        mean_on = np.nanmean(g_norm[st["on"]])
        mean_off = np.nanmean(g_norm[st["off"]])
        ok &= mean_on < mean_off
        parts.append(f"|g| on/off {mean_on / mean_off:.3f}")
    report(5, "desk-scale localization", ok, "; ".join(parts))


def test_criterion_6_noise_robustness(desk, wave):
    ok = True
    parts = []
    achieved = desk["noisy"].delta
    ok &= abs(achieved - 0.05) <= 1e-10
    for method in ("lsm", "glsm"):
        st = map_stats(desk["maps"][(method, "noisy")], desk["scene"], wave)
        good = st["peak_cells"] <= 2.0 and st["ratio"] >= 2.0
        ok &= good
        parts.append(f"{method}: peak {st['peak_cells']:.2f} cells, contrast {st['ratio']:.2f}")
    report(6, "noise robustness at delta = 0.05", ok, "; ".join(parts))


def test_criterion_7_fluid_only_imaging(desk, wave):
    ok = True
    parts = []
    for method in ("lsm", "glsm"):
        st = map_stats(desk["maps"][(method, "fluid")], desk["fluid_scene"], wave)
        ok &= st["ratio"] >= 2.0
        parts.append(f"{method}: contrast {st['ratio']:.2f}")
    report(7, "fluid-source/pressure-only imaging", ok, "; ".join(parts))


def test_criterion_8_determinism_and_roundtrips(tmp_path):
    doc = desk_scale_scenario(resolution=(5, 5), n_dir=2, target_delta=0.05)
    for well in doc["scene"]["wells"]:
        well["samples_per_segment"] = 6
    for frac in doc["scene"]["fractures"]:
        frac["cells"] = [4, 1]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    scenario = cli.load_scenario(path)
    for sub in ("a", "b"):
        cli.run_forward(scenario, tmp_path / sub)
        cli.run_invert(scenario, tmp_path / sub)
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("lambda.csv", "lambda_noisy.csv", "map_lsm.csv", "map_lsm.pgm")
    )
    noisy = fw.load_matrix(tmp_path / "a" / "lambda_noisy.csv")
    fw.save_matrix(noisy, tmp_path / "again.csv")
    roundtrip = (tmp_path / "a" / "lambda_noisy.csv").read_bytes() == (
        tmp_path / "again.csv"
    ).read_bytes()
    ok = identical and roundtrip
    report(
        8, "determinism and format round-trips", ok,
        f"reruns identical: {identical}, matrix round-trip: {roundtrip}",
    )
