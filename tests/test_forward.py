import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poroscat import forward as fw
from poroscat import inversion as inv
from poroscat import ledger
from poroscat.cli import parse_scenario
from poroscat.errors import (
    CompatibilityError,
    ConditioningError,
    DegenerateContactError,
    DomainError,
    GeometryError,
)
from poroscat.greens import dislocation_trace_kernel, green_tensor, trace_kernel
from poroscat.material import MaterialParams, solve_dispersion
from poroscat.presets import default_contact, desk_scale_scenario, desk_scale_scene
from poroscat.scene import (
    ContactParams,
    HIGH_PERMEABILITY,
    Scene,
    SensingGrid,
    build_fracture_patch,
    build_sampling_grid,
    build_sensing_grid,
    channel_indices,
)

from oracles import (
    dislocation_trace_oracle,
    interacting_lambda_oracle,
    interface_response_oracle,
    parity_blocks_oracle,
)


def contact(k=1.0, kappa_f=1e-3, model="finite-permeability"):
    return ContactParams(
        k_t=k, k_n=k, kappa_f=kappa_f, alpha_f=0.85, beta_f=0.3, Pi=1.0, model=model
    )


@pytest.fixture(scope="module")
def small_scene(params):
    patches = (
        build_fracture_patch(
            center=[0.5, 0.3, 0.0], strike_rad=0.4 * np.pi,
            half_lengths=(1.2, 0.5), subdivisions=(5, 2), contact=contact(),
        ),
        build_fracture_patch(
            center=[-1.5, -0.5, 0.0], strike_rad=0.1 * np.pi,
            half_lengths=(0.9, 0.5), subdivisions=(4, 2), contact=contact(),
        ),
    )
    grid = build_sensing_grid(
        [[[-3.0, -3.0, 0.0], [3.0, -3.0, 0.0]], [[-3.0, -2.8, 0.0], [-3.0, 3.0, 0.0]]],
        10,
    )
    sampling = build_sampling_grid((-2, 2, -2, 2), (4, 4), 4, (0, 1))
    return Scene(grid=grid, patches=patches, sampling=sampling, channels="in-plane")


@pytest.fixture(scope="module")
def three_patch_scene(small_scene):
    third = build_fracture_patch(
        center=[0.8, -1.6, 0.0], strike_rad=0.75 * np.pi, half_lengths=(0.7, 0.4),
        subdivisions=(3, 2), contact=contact(k=2.0, model=HIGH_PERMEABILITY),
    )
    return Scene(
        grid=small_scene.grid, patches=small_scene.patches + (third,),
        sampling=small_scene.sampling, channels="full",
    )


@pytest.fixture(scope="module")
def three_patch_in_plane_scene(three_patch_scene):
    """three_patch_scene on the in-plane channels: its odd half of rhs is
    rounding (1.4e-17 against an even half of 0.48)."""
    return dataclasses.replace(three_patch_scene, channels="in-plane")


@pytest.fixture(scope="module")
def many_patch_scene(small_scene):
    """40 single-cell patches on a 5 x 8 lattice, alternating contact models:
    every pair of cells is a one-pair patch rectangle."""
    patches = tuple(
        build_fracture_patch(
            center=[0.5 * (k % 5) - 1.0, 0.4 * (k // 5) - 1.5, 0.0], strike_rad=0.3 * k,
            half_lengths=(0.15, 0.1), subdivisions=(1, 1),
            contact=contact(model=HIGH_PERMEABILITY if k % 3 == 0 else "finite-permeability"),
        )
        for k in range(40)
    )
    return dataclasses.replace(small_scene, patches=patches)


@pytest.fixture(scope="module")
def fluid_scene(small_scene):
    return dataclasses.replace(small_scene, channels="fluid")


def interaction_matrix_per_row(patches, wave, params):
    """Reference: the coupled-system matrix built one collocation cell at a
    time, from the tensor-built oracle kernel."""
    iface = fw._interface(patches, wave.omega)
    cells, D, E = iface.cells, iface.D, iface.E
    nc = cells.count
    M = np.zeros((5 * nc, 5 * nc), dtype=complex)
    for i in range(nc):
        M[5 * i : 5 * i + 5, 5 * i : 5 * i + 5] = D[i]
        others = np.nonzero(cells.patch_index != cells.patch_index[i])[0]
        B = dislocation_trace_oracle(
            cells.centers[others], cells.normals[others],
            cells.centers[i][None, :], cells.normals[i][None, :], wave, params,
        )
        coup = np.einsum("rk,oks->ors", E[i], B) * cells.areas[others][:, None, None]
        for o, j in enumerate(others):
            M[5 * i : 5 * i + 5, 5 * j : 5 * j + 5] = -coup[o]
    return M


def traces(y, channel, patches, wave, params):
    """(nc, 5) cell traces (t, q, p) of a unit source of one channel at y."""
    y = np.asarray(y, dtype=float).reshape(1, 3)
    cells = fw._collect_cells(patches)
    return fw._kernel_block(cells, y, channel_indices([channel]), wave, params).reshape(-1, 5)


def jumps(psi, patches, wave, coupling=None):
    """(nc, 5) jump densities ([[u]], [[p]], -[[q]]) of the traces psi."""
    iface = fw._interface(patches, wave.omega)
    coupled = None if coupling is None else fw._coupled(iface, coupling)
    return fw._jumps(iface, np.reshape(psi, (-1, 1)), coupled).reshape(-1, 5)


def radiated(a, patches, points, wave, params):
    """(N, 4) data (u, p) at the points of the jump densities a, and the
    points' near-singular flags."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    cells = fw._collect_cells(patches)
    K = fw._kernel_block(cells, points, [0, 1, 2, 3], wave, params)
    R, near = fw._radiation_block(patches, points, K, cells.areas)
    return (R @ np.ravel(a)).reshape(-1, 4), near


def local_transfer_oracle(patch, omega):
    """5x5 local closure of one cell of a patch, written out from the contact law:

        [[u]]  = K^-1 (t + alpha_f_tilde p n)
        [[p]]  = (i omega Pi / kappa_f) q     (0 for high permeability)
        -[[q]] = (Pi alpha_f / (k_n beta_f)) (p + beta_f t.n)
    """
    c, n = patch.contact, patch.normal
    Kinv = np.linalg.inv(c.stiffness_matrix(patch.e1, patch.e2, n))
    T = np.zeros((5, 5), dtype=complex)
    T[0:3, 0:3] = Kinv
    T[0:3, 4] = Kinv @ (c.alpha_f_tilde * n)
    if c.model != HIGH_PERMEABILITY:
        T[3, 3] = 1j * omega * c.Pi / c.kappa_f
    T[4, 4] = c.Pi * c.alpha_f / (c.k_n * c.beta_f)
    T[4, 0:3] = T[4, 4] * c.beta_f * n
    return T


class TestIncidentTraces:
    def test_fluid_pressure_trace_equals_green_entry(self, small_scene, wave, params):
        y = np.array([0.0, -3.0, 0.0])
        tr = traces(y, "fluid", small_scene.patches, wave, params)
        centers = np.vstack([p.cells()[0] for p in small_scene.patches])
        for c in (0, 3, 11):
            expect = green_tensor(y, centers[c], wave, params).fluid_pressure
            assert tr[c, 4] == expect

    def test_traction_matches_incident_field_differences(self, small_scene, wave, params):
        # finite differences of the incident displacement field against
        # the assembled traction trace
        y = np.array([0.0, -3.0, 0.0])
        tr = traces(y, "fy", small_scene.patches, wave, params)
        patch = small_scene.patches[0]
        centers, _ = patch.cells()
        xi, n = centers[0], patch.normal
        h = 1e-5
        J = np.zeros((3, 3), complex)
        for k in range(3):
            e = np.eye(3)[k]
            gp = green_tensor(y, xi + h * e, wave, params).matrix
            gm = green_tensor(y, xi - h * e, wave, params).matrix
            J[k] = ((gp - gm) / (2 * h))[:3, 1]
        p0 = green_tensor(y, xi, wave, params).matrix[3, 1]
        t_fd = (
            params.lam * n * np.trace(J)
            + params.mu * (n @ J + J @ n)
            - params.alpha * p0 * n
        )
        assert np.linalg.norm(tr[0, 0:3] - t_fd) / np.linalg.norm(t_fd) < 1e-6

    def test_source_on_patch_rejected(self, small_scene):
        # a scene keeps its sensing points off the patches, so no source
        # reaches the trace kernel on a patch
        patch = small_scene.patches[0]
        well = [patch.center, patch.center + 2.0 * patch.normal]
        with pytest.raises(GeometryError, match="patch 0"):
            Scene(grid=build_sensing_grid([well], 3), patches=small_scene.patches,
                  sampling=small_scene.sampling)


class TestLocalJumpSolve:
    def test_zero_traces_zero_jumps(self, small_scene, wave):
        nc = sum(p.cell_count for p in small_scene.patches)
        assert not np.any(jumps(np.zeros(5 * nc, complex), small_scene.patches, wave))

    def test_scalar_stiffness_closure(self, wave, params):
        # K = k I and no incident pressure: [[u]] = t / k
        k = 2.5
        patch = build_fracture_patch(
            center=[0, 0, 0], strike_rad=0.0, half_lengths=(1, 1),
            subdivisions=(1, 1), contact=contact(k=k),
        )
        t = np.array([0.3 + 0.1j, -0.2, 0.7j])
        psi = np.concatenate([t, [0.4 + 0.2j], [0.0]])  # q nonzero, p = 0
        np.testing.assert_allclose(jumps(psi, (patch,), wave)[0, 0:3], t / k, rtol=1e-14)

    def test_closure_residual_in_interface_conditions(self, small_scene, wave, params, rng):
        # substitute the jumps back into the contact conditions with the
        # scattered traces zeroed
        nc = sum(p.cell_count for p in small_scene.patches)
        psi = rng.normal(size=5 * nc) + 1j * rng.normal(size=5 * nc)
        tr = psi.reshape(-1, 5)
        a = jumps(psi, small_scene.patches, wave)
        start = 0
        for patch in small_scene.patches:
            c = patch.contact
            K = c.stiffness_matrix(patch.e1, patch.e2, patch.normal)
            n = patch.normal
            at = c.alpha_f_tilde
            for ci in range(patch.cell_count):
                i = start + ci
                t_i, q_i, p_i = tr[i, 0:3], tr[i, 3], tr[i, 4]
                uj, pj, nqj = a[i, 0:3], a[i, 3], a[i, 4]
                r1 = K @ uj - t_i - at * p_i * n
                r2 = c.k_n * c.beta_f / (c.Pi * c.alpha_f) * nqj - p_i - c.beta_f * (t_i @ n)
                r3 = c.kappa_f / (1j * wave.omega * c.Pi) * pj - q_i
                scale = max(np.abs(psi).max(), 1.0)
                assert np.linalg.norm(r1) < 1e-12 * scale
                assert abs(r2) < 1e-12 * scale
                assert abs(r3) < 1e-12 * scale
            start += patch.cell_count

    def test_high_permeability_zero_pressure_jump(self, wave, params, rng):
        patch = build_fracture_patch(
            center=[0, 0, 0], strike_rad=0.2, half_lengths=(1, 1),
            subdivisions=(2, 2), contact=contact(model=HIGH_PERMEABILITY),
        )
        psi = rng.normal(size=5 * 4) + 1j * rng.normal(size=5 * 4)
        a = jumps(psi, (patch,), wave)
        assert not np.any(a[:, 3])
        assert np.any(a[:, 4])

    def test_degenerate_contact_named(self, wave):
        with pytest.raises(DegenerateContactError, match="kappa_f"):
            patch = build_fracture_patch(
                center=[0, 0, 0], strike_rad=0.0, half_lengths=(1, 1),
                subdivisions=(1, 1), contact=contact(kappa_f=0.0),
            )
            jumps(np.zeros(5, complex), (patch,), wave)


def lossy_pair(cells):
    """A genuinely lossy background and two patches a thousand shear
    wavelengths apart, each split into the given cells."""
    lossy = MaterialParams(
        lam=0.47, mu=1.0, M=1.66, rho=2.27, rho_f=2.0, rho_a=0.117,
        kappa=0.02, phi=0.195, alpha=0.83,
    )
    w = solve_dispersion(lossy, 3.91)
    lam_s = w.shear_wavelength
    near = build_fracture_patch(
        center=[0.0, 1.0, 0.0], strike_rad=1.2, half_lengths=(0.8, 0.5),
        subdivisions=cells, contact=contact(),
    )
    far = build_fracture_patch(
        center=[1000 * lam_s, 0, 0.0], strike_rad=0.3, half_lengths=(0.9, 0.5),
        subdivisions=cells, contact=contact(),
    )
    return w, lossy, (near, far)


class TestInteractingJumpSolve:
    def test_single_cell_identical_to_local(self, wave, params):
        patch = build_fracture_patch(
            center=[0.3, 0.2, 0.0], strike_rad=0.9, half_lengths=(0.5, 0.4),
            subdivisions=(1, 1), contact=contact(),
        )
        tr = traces([0, -2.0, 0], "fluid", (patch,), wave, params)
        jl = jumps(tr, (patch,), wave)
        ji = jumps(tr, (patch,), wave, (wave, params, None))
        np.testing.assert_array_equal(jl, ji)

    def test_far_separation_decouples(self):
        # all three modes die over the thousand-wavelength separation
        w, lossy, patches = lossy_pair((3, 2))
        assert w.min_decay_rate() * 1000 * w.shear_wavelength > 30
        tr = traces([0.0, -1.5, 0.0], "fx", patches, w, lossy)
        jl = jumps(tr, patches, w)
        ji = jumps(tr, patches, w, (w, lossy, None))
        assert np.linalg.norm(ji - jl) / np.linalg.norm(jl) < 1e-6

    def test_cutoff_short_circuits_to_local(self):
        w, lossy, patches = lossy_pair((2, 1))
        tr = traces([0.0, -1.5, 0.0], "fx", patches, w, lossy)
        # separation ~1105 units, slowest decay length ~26: a cutoff of 20
        # declares the patches decoupled and the solve short-circuits
        np.testing.assert_array_equal(
            jumps(tr, patches, w), jumps(tr, patches, w, (w, lossy, 20.0))
        )

    @pytest.mark.parametrize("k", [2e-4, 2e-5])
    def test_compliant_contact_residual(self, k):
        # the interacting desk scene with contact stiffnesses 100 and 1000
        # times below the demo's 0.02, where M's diagonal D is small against
        # its off-patch coupling: the pivoted LU keeps the residual small
        doc = desk_scale_scenario(mode="interacting")
        doc["scene"]["contact"].update(k_t=[k, 0.0], k_n=[k, 0.0])
        sc = parse_scenario(doc)
        wave = solve_dispersion(sc.params, sc.omega)
        with ledger.record() as rec:
            fw.assemble_lambda(sc.scene, wave, sc.params, "interacting", sc.forward_cutoff)
        assert 0.0 < rec["coupled_residual"] <= 1e-9

    def test_system_residual(self, small_scene, wave, params, rng):
        nc = sum(p.cell_count for p in small_scene.patches)
        psi = rng.normal(size=5 * nc) + 1j * rng.normal(size=5 * nc)
        iface = fw._interface(small_scene.patches, wave.omega)
        [M] = fw._interaction_matrix(iface, wave, params)
        rhs = np.einsum("cij,cj->ci", iface.E, psi.reshape(-1, 5)).ravel()
        a = jumps(psi, small_scene.patches, wave, (wave, params, None)).ravel()
        res = np.linalg.norm(M @ a - rhs) / np.linalg.norm(rhs)
        assert res < 1e-10

    @pytest.mark.parametrize("chunk", [None, 3, 7])
    @pytest.mark.parametrize(
        "scene_name", ["small_scene", "three_patch_scene", "many_patch_scene"]
    )
    def test_one_pass_matches_per_row_reference(
        self, scene_name, chunk, request, monkeypatch, wave, params
    ):
        # patch strips are 8, 14 and 6 columns wide (up to 39 on the
        # many-patch scene): chunks of 3 and 7 pairs send one strip row per
        # kernel call, the default chunk whole strips of several rows
        if chunk is not None:
            monkeypatch.setattr(fw, "_PAIR_CHUNK", chunk)
        patches = request.getfixturevalue(scene_name).patches
        [M] = fw._interaction_matrix(fw._interface(patches, wave.omega), wave, params)
        ref = interaction_matrix_per_row(patches, wave, params)
        assert np.linalg.norm(M - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("scene_name", ["small_scene", "three_patch_scene", "fluid_scene"])
    def test_interacting_lambda_matches_per_row_system(
        self, scene_name, request, wave, params
    ):
        # L from the per-row reference M, with the same right-hand side and R
        scene = request.getfixturevalue(scene_name)
        f = fw._factors(scene, wave, params)
        S, nc = f.S, f.interface.cells.count
        rhs = np.einsum("cij,cjk->cik", f.interface.E, S.reshape(nc, 5, -1)).reshape(S.shape)
        ref = f.R @ np.linalg.solve(interaction_matrix_per_row(scene.patches, wave, params), rhs)
        L = fw.assemble_lambda(scene, wave, params, "interacting", cutoff=None).data
        assert np.linalg.norm(L - ref) <= 1e-11 * np.linalg.norm(ref)

    @pytest.mark.parametrize("scene_name", ["small_scene", "three_patch_scene"])
    def test_each_unordered_pair_evaluated_once(
        self, scene_name, request, monkeypatch, wave, params
    ):
        patches = request.getfixturevalue(scene_name).patches
        iface = fw._interface(patches, wave.omega)
        kernel, pairs = fw._dislocation_trace_matrix, []

        def counted(y, *args):
            pairs.append(len(y))
            return kernel(y, *args)

        monkeypatch.setattr(fw, "_dislocation_trace_matrix", counted)
        fw._interaction_matrix(iface, wave, params)
        sizes = np.array([p.cell_count for p in patches])
        assert sum(pairs) == (sizes.sum() ** 2 - (sizes**2).sum()) // 2

    @pytest.fixture()
    def system(self, small_scene, wave, params, rng):
        [M] = fw._interaction_matrix(fw._interface(small_scene.patches, wave.omega), wave, params)
        return M, rng.normal(size=(M.shape[0], 3)) + 1j * rng.normal(size=(M.shape[0], 3))

    @pytest.mark.parametrize("where", ["M", "rhs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_system_is_conditioning_error(self, system, where, bad):
        M, rhs = system
        (M if where == "M" else rhs)[4, 1] = bad
        with pytest.raises(ConditioningError) as info:
            fw._coupled_solve([M], rhs)
        assert info.value.condition_number == math.inf

    def test_singular_system_is_conditioning_error(self, system):
        M, rhs = system
        M[:, 7] = 0.0
        with pytest.raises(ConditioningError, match="singular") as info:
            fw._coupled_solve([M], rhs)
        assert info.value.condition_number > 1e12

    def test_nearby_patches_actually_couple(self, small_scene, wave, params):
        tr = traces([0.0, -3.0, 0.0], "fx", small_scene.patches, wave, params)
        jl = jumps(tr, small_scene.patches, wave)
        ji = jumps(tr, small_scene.patches, wave, (wave, params, None))
        assert np.linalg.norm(ji - jl) / np.linalg.norm(jl) > 1e-6


@pytest.fixture(scope="module")
def network_smoke_scene():
    """The network-forward benchmark scene at smoke size (material and
    frequency those of the params and wave fixtures): the desk scene with
    two one-row patches of four cells on the wells' plane."""
    doc = desk_scale_scenario(target_delta=0.05, mode="interacting")
    for well in doc["scene"]["wells"]:
        well["samples_per_segment"] = 6
    for frac in doc["scene"]["fractures"]:
        frac["cells"] = [4, 1]
    return parse_scenario(doc).scene


@pytest.fixture(scope="module")
def mixed_scene(small_scene):
    """small_scene with three rows of cells across the width: the middle
    row lies on the mirror plane, the outer rows pair up."""
    patches = tuple(
        dataclasses.replace(p, subdivisions=(p.subdivisions[0], 3)) for p in small_scene.patches
    )
    return dataclasses.replace(small_scene, patches=patches)


@pytest.fixture(scope="module")
def lifted_scene(small_scene):
    """small_scene with its second patch centred at z = 0.3: no mirror pairing."""
    first, second = small_scene.patches
    lifted = dataclasses.replace(second, center=second.center + [0.0, 0.0, 0.3])
    return dataclasses.replace(small_scene, patches=(first, lifted))


@pytest.fixture(scope="module")
def mixed_full_scene(mixed_scene):
    """mixed_scene on the "full" channels: odd fz columns beside a row of
    cells on the plane."""
    return dataclasses.replace(mixed_scene, channels="full")


@pytest.fixture(scope="module")
def point_lifted_scene(small_scene):
    """small_scene with its first sensing point lifted to z = 0.1: the cells
    still pair up, but a point lies off their mirror plane."""
    points = small_scene.grid.points.copy()
    points[0, 2] = 0.1
    return dataclasses.replace(small_scene, grid=SensingGrid(points))


# the reflection z -> 2 z0 - z on traces and jumps (Q) and on the four
# point-source types (forces along x, y, z and fluid injection)
Q5 = np.diag([1.0, 1.0, -1.0, 1.0, 1.0])
Q4 = np.diag([1.0, 1.0, -1.0, 1.0])


class TestMirrorParity:
    def test_kernels_are_reflection_covariant(self, wave, params, rng):
        # K(Py, Pz) = Q K(y, z) Q at horizontal normals: the identity that
        # makes M commute with the signed swap of mirrored cells
        z0 = 0.3
        for _ in range(5):
            y, z = rng.uniform(-1.5, 1.5, (2, 3))
            a, b = rng.uniform(0.0, 2.0 * np.pi, 2)
            ny, nz = [np.cos(a), np.sin(a), 0.0], [np.cos(b), np.sin(b), 0.0]
            Py, Pz = y * [1, 1, -1] + [0, 0, 2 * z0], z * [1, 1, -1] + [0, 0, 2 * z0]
            K = dislocation_trace_kernel(y, ny, z, nz, wave, params)
            KP = dislocation_trace_kernel(Py, ny, Pz, nz, wave, params)
            assert np.linalg.norm(KP - Q5 @ K @ Q5) <= 1e-14 * np.linalg.norm(K)
            K = trace_kernel(y, z, nz, wave, params)
            KP = trace_kernel(Py, Pz, nz, wave, params)
            assert np.linalg.norm(KP - Q5 @ K @ Q4) <= 1e-14 * np.linalg.norm(K)

    @pytest.mark.parametrize(
        "scene_name, blocks",
        [
            ("small_scene", [45]),  # 18 cells in 9 mirrored pairs
            ("many_patch_scene", [160]),  # 40 cells on the plane: 4 even components each
            ("network_smoke_scene", [32]),  # 8 cells on the plane
            ("three_patch_scene", [60, 60]),  # "full" channels: both halves of rhs
            ("lifted_scene", [90]),  # no pairing: one LU of M
            ("three_patch_in_plane_scene", [60]),  # odd half at rounding level: not factored
            ("mixed_scene", [81]),  # 9 pairs and 9 cells on the plane: 9 x 5 + 9 x 4
        ],
    )
    def test_split_matches_full_lu(self, scene_name, blocks, request, wave, params):
        scene = request.getfixturevalue(scene_name)
        f = fw._factors(scene, wave, params)
        [M] = fw._interaction_matrix(f.interface, wave, params)
        ref = f.R @ np.linalg.solve(M, fw._blockwise(f.interface.E, f.S))
        with ledger.record() as rec:
            L = fw.assemble_lambda(scene, wave, params, "interacting", cutoff=None).data
        assert rec["coupled_blocks"] == blocks
        paired = fw._mirror_pairs(f.interface, wave, params) is not None
        assert paired == (scene_name != "lifted_scene")
        if scene_name == "lifted_scene":
            np.testing.assert_array_equal(L, ref)
        else:
            assert np.linalg.norm(L - ref) <= 1e-11 * np.linalg.norm(ref)

    @pytest.mark.parametrize(
        "scene_name, pairs",
        [
            ("small_scene", 40),  # U: 5 + 4 paired cells, 5 x (4 + 4)
            ("three_patch_scene", 94),  # U: 5, 4, 3 paired cells, 5 x 14 + 4 x 6
            ("many_patch_scene", 780),  # every cell on the plane: each unordered pair
            ("network_smoke_scene", 16),  # 8 cells on the plane: 4 x 4
            ("mixed_scene", 120),  # U: 10 + 8 cells, 4 of the 8 paired: 10 x (8 + 4)
        ],
    )
    def test_parity_blocks_match_fold(self, scene_name, pairs, request, wave, params):
        # both parity blocks, from one evaluation of each kernel pair, are
        # the fold of the full M, and the jumps solved from the blocks the
        # right-hand side needs meet the residual bound on the full M
        f = fw._factors(request.getfixturevalue(scene_name), wave, params)
        [M] = fw._interaction_matrix(f.interface, wave, params)
        mirror = fw._mirror_pairs(f.interface, wave, params)
        with ledger.record() as rec:
            blocks = fw._interaction_matrix(f.interface, wave, params, mirror, [fw._Q, -fw._Q])
        assert rec["kernel_pairs"] == pairs
        for A, ref in zip(blocks, parity_blocks_oracle(M, mirror, [fw._Q, -fw._Q])):
            assert np.linalg.norm(A - ref) <= 1e-14 * np.linalg.norm(ref)
        rhs = fw._blockwise(f.interface.E, f.S)
        parts = fw._parities(rhs, mirror)
        blocks = parity_blocks_oracle(M, mirror, [w for w, *_ in parts])
        a = fw._coupled_solve(blocks, rhs, mirror, parts)
        assert np.linalg.norm(M @ a - rhs) <= 1e-10 * np.linalg.norm(rhs)

    @staticmethod
    def assemble(scene, monkeypatch, wave, params):
        """L of the interacting closure, the ledger record and the numbers of
        cells the trace kernel's S blocks ran on."""
        block, cells = fw._kernel_block, []

        def counted(c, *args):
            cells.append(c.count)
            return block(c, *args)

        monkeypatch.setattr(fw, "_kernel_block", counted)
        with ledger.record() as rec:
            L = fw.assemble_lambda(scene, wave, params, "interacting", cutoff=None).data
        return L, rec, cells

    @pytest.mark.parametrize(
        "scene_name, cells, blocks",
        [
            ("network_smoke_scene", 8, [32]),  # every cell on the plane
            ("small_scene", 9, [45]),  # 9 pairs
            ("mixed_scene", 18, [81]),  # a row of 9 cells on the plane beside 9 pairs
            ("three_patch_scene", 12, [60, 60]),  # "full": the fz columns are odd
            ("three_patch_in_plane_scene", 12, [60]),  # no fz column: no odd block
            ("mixed_full_scene", 18, [81, 54]),  # odd block: 9 x 5 + the z of 9 on the plane
        ],
    )
    def test_rows_u_assembly_matches_every_cell(
        self, scene_name, cells, blocks, request, monkeypatch, wave, params
    ):
        # with the sensing points on the mirror plane, S, R, the right-hand
        # side and L are built over the cells U alone and each parity
        # solves its own columns: L is the every-cell assembly's
        scene = request.getfixturevalue(scene_name)
        ref = interacting_lambda_oracle(scene, wave, params)
        L, rec, kernel_cells = self.assemble(scene, monkeypatch, wave, params)
        assert kernel_cells == [cells]
        assert rec["coupled_blocks"] == blocks and rec["coupled_residual"] <= 1e-8
        assert np.linalg.norm(L - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize(
        "scene_name", ["lifted_scene", "many_patch_scene", "point_lifted_scene"]
    )
    def test_every_cell_assembly_kept_to_the_bit(
        self, scene_name, request, monkeypatch, wave, params
    ):
        # an unpaired scene and a point off the plane keep the every-cell
        # assembly, and with every cell on the plane U is every cell
        scene = request.getfixturevalue(scene_name)
        ref = interacting_lambda_oracle(scene, wave, params)
        L, _, kernel_cells = self.assemble(scene, monkeypatch, wave, params)
        assert kernel_cells == [sum(p.cell_count for p in scene.patches)]
        np.testing.assert_array_equal(L, ref)

    def test_trace_covariance_miss_takes_every_cell(
        self, small_scene, monkeypatch, wave, params
    ):
        # a trace kernel with a small part odd in z fails the probe of S's
        # reflection: S, R and L are then built over every cell, and the
        # odd part of the right-hand side factors the odd block too
        kernel = fw._trace_matrix

        def odd(y, xi, *args):
            return kernel(y, xi, *args) * (1.0 + 1e-8 * xi[..., 2])[..., None, None]

        monkeypatch.setattr(fw, "_trace_matrix", odd)
        ref = interacting_lambda_oracle(small_scene, wave, params)
        L, rec, kernel_cells = self.assemble(small_scene, monkeypatch, wave, params)
        assert kernel_cells == [18] and rec["coupled_blocks"] == [45, 45]
        np.testing.assert_array_equal(L, ref)

    def test_covariance_miss_takes_full_matrix(self, small_scene, monkeypatch, wave, params):
        # a kernel with a small part odd in z (cells at z = +-0.25 about
        # z0 = 0) still pairs the cells, D and E, but fails the probe: the
        # scene then solves the full M of that kernel by one LU
        kernel = fw._dislocation_trace_matrix

        def odd(y, n_src, z, n_trc, *args):
            scale = 1.0 + 1e-8 * (y[:, 2] + z[:, 2])
            return kernel(y, n_src, z, n_trc, *args) * scale[:, None, None]

        monkeypatch.setattr(fw, "_dislocation_trace_matrix", odd)
        f = fw._factors(small_scene, wave, params)
        assert fw._mirror_pairs(f.interface, wave, params) is None
        [M] = fw._interaction_matrix(f.interface, wave, params)
        ref = f.R @ np.linalg.solve(M, fw._blockwise(f.interface.E, f.S))
        with ledger.record() as rec:
            L = fw.assemble_lambda(small_scene, wave, params, "interacting", cutoff=None).data
        assert rec["coupled_blocks"] == [90]
        assert rec["kernel_pairs"] == 80
        np.testing.assert_array_equal(L, ref)

    @pytest.fixture()
    def paired_system(self, small_scene, wave, params, rng):
        # small_scene's full M, a right-hand side, the pairing and each
        # cell's image; the tests tamper with M and solve from its
        # oracle blocks
        iface = fw._interface(small_scene.patches, wave.omega)
        [M] = fw._interaction_matrix(iface, wave, params)
        rhs = rng.normal(size=(M.shape[0], 3)) + 1j * rng.normal(size=(M.shape[0], 3))
        pairs = fw._mirror_pairs(iface, wave, params)
        mirror = np.arange(iface.cells.count)
        mirror[pairs[0]], mirror[pairs[1]] = pairs[1], pairs[0]
        return M, rhs, pairs, mirror

    @staticmethod
    def solve(M, rhs, pairs):
        parts = fw._parities(rhs, pairs)
        blocks = parity_blocks_oracle(M, pairs, [w for w, *_ in parts])
        return fw._coupled_solve(blocks, rhs, pairs, parts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_paired_system_is_conditioning_error(self, paired_system, bad):
        M, rhs, pairs, _ = paired_system
        M[4, 1] = bad  # a row of cell 0, which is in U
        with pytest.raises(ConditioningError) as info:
            self.solve(M, rhs, pairs)
        assert info.value.condition_number == math.inf

    def test_singular_paired_system_is_conditioning_error(self, paired_system):
        # zeroing a column and its mirror keeps M symmetric and makes both blocks singular
        M, rhs, pairs, mirror = paired_system
        M[:, 7] = M[:, 5 * mirror[1] + 2] = 0.0
        with pytest.raises(ConditioningError, match="singular") as info:
            self.solve(M, rhs, pairs)
        assert info.value.condition_number > 1e12

    def test_singular_block_with_zero_half_is_not_factored(self, paired_system):
        # averaging column 0 and its mirror's keeps M symmetric and zeroes a
        # column of the odd block only; an even rhs never factors that block
        M, rhs, pairs, mirror = paired_system
        k = 5 * mirror[0]
        M[:, [0, k]] = 0.5 * (M[:, [0]] + M[:, [k]])
        unknown = np.arange(M.shape[0])
        image = 5 * mirror[unknown // 5] + unknown % 5
        even = 0.5 * (rhs + Q5.diagonal()[unknown % 5, None] * rhs[image])
        with ledger.record() as rec:
            a = self.solve(M, even, pairs)
        assert rec["coupled_blocks"] == [45]
        assert np.linalg.norm(M @ a - even) <= 1e-8 * np.linalg.norm(even)
        with pytest.raises(ConditioningError, match="singular"):
            self.solve(M, rhs, pairs)


class TestRadiate:
    def test_zero_jumps_zero_field(self, small_scene, wave, params):
        nc = sum(p.cell_count for p in small_scene.patches)
        field, _ = radiated(np.zeros(5 * nc, complex), small_scene.patches, [0, -3, 0], wave, params)
        assert not np.any(field)

    def test_single_cell_is_one_kernel_evaluation(self, wave, params):
        patch = build_fracture_patch(
            center=[0, 0, 0], strike_rad=0.0, half_lengths=(0.5, 0.5),
            subdivisions=(1, 1), contact=contact(),
        )
        n = patch.normal
        a = np.concatenate([n, [0, 0]]).astype(complex)
        obs = np.array([1.5, 1.0, 0.4])
        field, _ = radiated(a, (patch,), obs, wave, params)
        K = trace_kernel(obs, patch.center, n, wave, params)
        expect = K.T @ a * patch.area
        np.testing.assert_allclose(field[0], expect, rtol=1e-14)

    def test_quadrature_refinement_convergence(self, wave, params):
        patch = build_fracture_patch(
            # resolved base: several cells per shear wavelength
            center=[0, 0, 0], strike_rad=0.5, half_lengths=(1.0, 0.5),
            subdivisions=(20, 10), contact=contact(),
        )
        obs = np.array([[2.5, 1.8, 0.0]])  # ~3 wavelengths out

        def field(p):
            a = np.tile([0.3, 0.1, -0.2, 0.05, 0.4], p.cell_count).astype(complex)
            return radiated(a, (p,), obs, wave, params)[0]

        coarse = field(patch)
        fine = field(patch.refined(2))
        assert np.linalg.norm(fine - coarse) / np.linalg.norm(fine) < 0.01

    def test_near_singular_flagged(self, small_scene, wave, params):
        nc = sum(p.cell_count for p in small_scene.patches)
        close = small_scene.patches[0].center + 1e-3 * small_scene.patches[0].normal
        _, near = radiated(np.ones(5 * nc, complex), small_scene.patches, close, wave, params)
        assert near[0]


class TestAssembleLambda:
    def test_empty_scene_zero_matrix(self, wave, params):
        grid = build_sensing_grid([[[-1, 0, 0], [1, 0, 0]]], 5)
        sampling = build_sampling_grid((-1, 1, -1, 1), (2, 2), 2, (1,))
        scene = Scene(grid=grid, patches=(), sampling=sampling, channels="in-plane")
        lam = fw.assemble_lambda(scene, wave, params)
        assert lam.data.shape == (15, 15)
        assert not np.any(lam.data)

    def test_factorization_consistency(self, small_scene, wave, params):
        # L against R T S with T written out cell by cell from the contact law
        lam = fw.assemble_lambda(small_scene, wave, params, mode="local")
        S = fw._trace_operator(small_scene, wave, params)
        R = fw._radiation_operator(small_scene, wave, params)
        T = np.array([
            local_transfer_oracle(p, wave.omega)
            for p in small_scene.patches for _ in range(p.cell_count)
        ])
        nc = S.shape[0] // 5
        prod = R @ np.einsum("cij,cjk->cik", T, S.reshape(nc, 5, -1)).reshape(5 * nc, -1)
        assert np.linalg.norm(lam.data - prod) <= 1e-12 * np.linalg.norm(prod)

    @pytest.mark.parametrize("mode", ["local", "interacting"])
    @pytest.mark.parametrize("scene_name", ["small_scene", "three_patch_scene"])
    def test_columns_match_per_source_path(self, scene_name, mode, request, wave, params):
        scene = request.getfixturevalue(scene_name)
        lam = fw.assemble_lambda(scene, wave, params, mode=mode, cutoff=None)
        cidx = channel_indices(scene.channels)
        pts, patches = scene.grid.points, scene.patches
        C = len(cidx)
        if mode == "local":
            # L[(p, c), (j, c')] = sum over cells of area K(y_p)[:, c].T T K(y_j)[:, c'],
            # with K the single-pair trace kernel at the cell and T its closure
            K, T, area = [], [], []
            for patch in patches:
                for x, a in zip(*patch.cells()):
                    K.append([trace_kernel(y, x, patch.normal, wave, params)[:, cidx]
                              for y in pts])
                    T.append(local_transfer_oracle(patch, wave.omega))
                    area.append(a)
            ref = np.einsum("e,epra,ers,ejsb->pajb", area, K, T, K).reshape(lam.size, lam.size)
            err = np.linalg.norm(ref - lam.data, axis=0)
            assert np.all(err <= 1e-12 * np.linalg.norm(lam.data, axis=0))
            return
        # one source at a time: S column, coupled transfer, then R
        f = fw._factors(scene, wave, params)
        coupled = fw._coupled(f.interface, (wave, params, None))
        for j, y in enumerate(pts):
            for c, src in enumerate(cidx):
                psi = fw._kernel_block(f.interface.cells, y[None, :], [src], wave, params)
                col = f.R @ fw._jumps(f.interface, psi, coupled)
                ref = lam.data[:, j * C + c]
                assert np.linalg.norm(col[:, 0] - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_grid_guards_run_in_assembly(self, small_scene, wave, params, caplog):
        patch = small_scene.patches[0]

        def scene(offset):
            well = [patch.center + offset * patch.normal, patch.center + 2.0 * patch.normal]
            grid = build_sensing_grid([well], 3)
            return Scene(grid=grid, patches=small_scene.patches,
                         sampling=small_scene.sampling, channels="in-plane")

        with pytest.raises(GeometryError, match="too close to patch 0"):
            scene(0.0)
        fw.assemble_lambda(scene(0.05), wave, params)
        assert "1 observation point(s) within the near-singular zone" in caplog.text

    @pytest.mark.parametrize("mode", ["local", "interacting"])
    def test_factors_built_once(self, mode, small_scene, monkeypatch, wave, params):
        # the closure, and the interacting closure's gap, read one set of
        # cells and contact blocks
        calls = []
        for name in ("_collect_cells", "_contact_blocks"):
            def counted(*args, _name=name, _fn=getattr(fw, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(fw, name, counted)
        with ledger.record() as rec:
            fw.assemble_lambda(small_scene, wave, params, mode, cutoff=None)
        assert sorted(calls) == ["_collect_cells", "_contact_blocks"]
        assert ("closure_gap" in rec) == (mode == "interacting")

    def test_near_singular_points_counted(self, small_scene, wave, params):
        # a sensing point within half a cell diagonal of a patch is counted
        # in the assembly's ledger record
        patch = small_scene.patches[0]
        well = [patch.center + 0.05 * patch.normal, patch.center + 2.0 * patch.normal]
        close = Scene(grid=build_sensing_grid([well], 3), patches=small_scene.patches,
                      sampling=small_scene.sampling, channels="in-plane")
        with ledger.record() as rec:
            fw.assemble_lambda(close, wave, params)
        assert rec["near_singular_points"] >= 1
        with ledger.record() as rec:
            fw.assemble_lambda(desk_scale_scene(), wave, params)
        assert rec["near_singular_points"] == 0

    def test_h_well_matrix_shape_and_indexing(self, wave, params):
        wells = [
            [[-5.0, -8.0, 0.0], [-5.0, 8.0, 0.0]],
            [[5.0, -8.0, 0.0], [5.0, 8.0, 0.0]],
            [[-4.9, 0.3, 0.0], [4.9, 0.3, 0.0]],
        ]
        grid = build_sensing_grid(wells, 110)
        patch = build_fracture_patch(
            center=[0, 3.0, 0], strike_rad=0.47 * np.pi, half_lengths=(1.5, 0.5),
            subdivisions=(2, 1), contact=contact(),
        )
        sampling = build_sampling_grid((-5, 5, -5, 5), (2, 2), 2, (1,))
        scene = Scene(grid=grid, patches=(patch,), sampling=sampling, channels="in-plane")
        lam = fw.assemble_lambda(scene, wave, params)
        assert lam.data.shape == (990, 990)
        # point-major: row and column point * 3 + 2 are the fluid channel of the point
        fluid = fw.assemble_lambda(dataclasses.replace(scene, channels="fluid"), wave, params)
        np.testing.assert_allclose(lam.data[2::3, 2::3], fluid.data, rtol=1e-13, atol=0)

    def test_adjoint_identity(self, small_scene, wave, params, rng):
        S = fw._trace_operator(small_scene, wave, params)
        R = fw._radiation_operator(small_scene, wave, params)
        cells = fw._collect_cells(small_scene.patches)
        w = np.repeat(cells.areas, 5)
        g = rng.normal(size=S.shape[1]) + 1j * rng.normal(size=S.shape[1])
        a = rng.normal(size=S.shape[0]) + 1j * rng.normal(size=S.shape[0])
        lhs = np.vdot(a, w * (S @ g))           # <S g, a> with area weights
        rhs = np.vdot(np.conj(R) @ a, g)        # (g, conj(R) a) on the grid
        assert abs(lhs - rhs) / abs(lhs) < 1e-8

    def test_pipeline_additivity(self, small_scene, wave, params, rng):
        lam = fw.assemble_lambda(small_scene, wave, params)
        g1 = rng.normal(size=lam.size) + 1j * rng.normal(size=lam.size)
        g2 = rng.normal(size=lam.size) + 1j * rng.normal(size=lam.size)
        lhs = lam.data @ (g1 + g2)
        rhs = lam.data @ g1 + lam.data @ g2
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)

    def test_data_reciprocity(self, small_scene, wave, params):
        lam = fw.assemble_lambda(small_scene, wave, params, mode="local")
        asym = np.linalg.norm(lam.data - lam.data.T) / np.linalg.norm(lam.data)
        assert asym < 1e-12

    def test_interacting_mode_runs_and_differs(self, small_scene, wave, params):
        loc = fw.assemble_lambda(small_scene, wave, params, mode="local")
        inter = fw.assemble_lambda(
            small_scene, wave, params, mode="interacting", cutoff=None
        )
        rel = np.linalg.norm(inter.data - loc.data) / np.linalg.norm(loc.data)
        # soft permeable contacts scatter strongly; the coupled closure
        # deviates from the Born closure by order one but stays bounded
        assert 1e-8 < rel < 1e2
        assert np.all(np.isfinite(inter.data))


class TestInjectNoise:
    def test_zero_epsilon_identity(self, small_scene, wave, params):
        lam = fw.assemble_lambda(small_scene, wave, params)
        noisy = fw.inject_noise(lam, epsilon=0.0, seed=3)
        np.testing.assert_array_equal(noisy.data, lam.data)
        assert noisy.delta == 0.0

    def test_target_delta_achieved(self, small_scene, wave, params):
        lam = fw.assemble_lambda(small_scene, wave, params)
        noisy = fw.inject_noise(lam, target_delta=0.05, seed=9)
        achieved = np.linalg.norm(noisy.data - lam.data, 2)
        assert abs(achieved - 0.05) <= 1e-10 * 0.05
        assert abs(noisy.delta - achieved) <= 1e-10 * achieved

    def test_same_seed_identical(self, small_scene, wave, params):
        lam = fw.assemble_lambda(small_scene, wave, params)
        a = fw.inject_noise(lam, epsilon=0.01, seed=1234)
        b = fw.inject_noise(lam, epsilon=0.01, seed=1234)
        np.testing.assert_array_equal(a.data, b.data)

    def test_requires_exactly_one_level(self, small_scene, wave, params):
        lam = fw.assemble_lambda(small_scene, wave, params)
        with pytest.raises(DomainError):
            fw.inject_noise(lam, epsilon=0.1, target_delta=0.05, seed=0)
        with pytest.raises(DomainError):
            fw.inject_noise(lam, seed=0)


class TestAdmissibility:
    def test_positive_definite_contact_admissible(self, wave):
        rep = fw.check_admissibility(contact(), wave)
        assert rep.admissible
        assert rep.worst_imag <= rep.tolerance

    def test_default_contact_supremum_is_zero(self, wave):
        # the high-permeability null direction attains Im <P phi, phi> = 0
        rep = fw.check_admissibility(default_contact(), wave)
        assert abs(rep.worst_imag) <= rep.tolerance

    def test_narrow_violation_detected(self, wave):
        # Im k_t > 0 pumps energy in along the tangential jumps alone; random
        # sampling of phi misses a supremum this small
        active = dataclasses.replace(default_contact(), k_t=0.02 + 1e-9j)
        rep = fw.check_admissibility(active, wave)
        assert not rep.admissible
        assert rep.worst_imag == pytest.approx(1e-9, rel=1e-6)

    def test_supremum_bounds_and_is_attained(self, wave, rng):
        c = dataclasses.replace(contact(), k_t=1.0 - 0.3j, kappa_f=2e-3)
        P = fw.interface_response_matrix(c, wave.omega)
        rep = fw.check_admissibility(c, wave)
        phi = rng.normal(size=(2000, 5)) + 1j * rng.normal(size=(2000, 5))
        phi /= np.linalg.norm(phi, axis=1, keepdims=True)
        sampled = np.imag(np.einsum("ts,ts->t", phi.conj(), phi @ P.T))
        assert sampled.max() <= rep.worst_imag + rep.tolerance
        _, vecs = np.linalg.eigh((P - P.conj().T) / 2j)
        top = vecs[:, -1]
        assert np.imag(np.vdot(top, P @ top)) == pytest.approx(rep.worst_imag, abs=rep.tolerance)

    def test_negative_interface_permeability_flagged(self, wave):
        bad = ContactParams(
            k_t=1.0, k_n=1.0, kappa_f=-1e-3, alpha_f=0.85, beta_f=0.3, Pi=1.0
        )
        rep = fw.check_admissibility(bad, wave)
        assert not rep.admissible
        assert rep.worst_imag > 0

    @pytest.mark.parametrize(
        "law",
        [
            contact(),
            default_contact(),
            contact(k=2.0, model=HIGH_PERMEABILITY),
            ContactParams(k_t=1.0 - 0.3j, k_n=0.7 + 0.2j, kappa_f=2e-3, alpha_f=0.85,
                          beta_f=0.3, Pi=1.0),
            ContactParams(k_t=0.5, k_n=0.8, kappa_f=1e-3, alpha_f=0.7, beta_f=0.4, Pi=0.6),
            ContactParams(k_t=0.3 - 0.1j, k_n=0.9, alpha_f=0.6, beta_f=0.5,
                          model=HIGH_PERMEABILITY),
        ],
        ids=["finite", "demo", "high-perm", "complex", "Pi", "high-perm-complex"],
    )
    def test_response_matches_column_oracle(self, law, wave):
        # E^-1 D of the contact law against the conditions solved column by column
        P = fw.interface_response_matrix(law, wave.omega)
        ref = interface_response_oracle(law, wave.omega)
        assert np.linalg.norm(P - ref) <= 1e-14 * np.linalg.norm(ref)
        if law.model == HIGH_PERMEABILITY:
            assert not P[3].any() and not P[:, 3].any()

    def test_quadratic_form_homogeneity(self, wave, rng):
        P = fw.interface_response_matrix(contact(), wave.omega)
        phi = rng.normal(size=5) + 1j * rng.normal(size=5)
        v1 = np.imag(np.vdot(phi, P @ phi).conjugate())
        for c in (2.0, 0.5, 7.0):
            v2 = np.imag(np.vdot(c * phi, P @ (c * phi)).conjugate())
            assert v2 == pytest.approx(c**2 * v1, rel=1e-12)

    def test_complex_stiffness_can_break_admissibility(self, wave):
        # a stiffness with positive imaginary part pumps energy in
        active = ContactParams(
            k_t=1.0 + 0.5j, k_n=1.0 + 0.5j, kappa_f=1e-3,
            alpha_f=0.85, beta_f=0.3, Pi=1.0,
        )
        rep = fw.check_admissibility(active, wave)
        assert not rep.admissible


class TestExchangeFormat:
    def test_bit_exact_roundtrip(self, small_scene, wave, params, tmp_path):
        lam = fw.assemble_lambda(small_scene, wave, params)
        noisy = fw.inject_noise(lam, target_delta=0.031, seed=77)
        path = tmp_path / "lambda.csv"
        fw.save_matrix(noisy, path)
        back = fw.load_matrix(path)
        np.testing.assert_array_equal(back.data, noisy.data)
        assert back.channels == noisy.channels
        assert back.delta == noisy.delta
        assert back.seed == noisy.seed
        assert back.epsilon == noisy.epsilon
        # re-serialization is byte identical
        path2 = tmp_path / "again.csv"
        fw.save_matrix(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_scene_digest_kept_and_round_tripped(self, small_scene, wave, params, tmp_path):
        lam = fw.assemble_lambda(small_scene, wave, params)
        digest = fw._scene_digest(small_scene, params)
        assert re.fullmatch("[0-9a-f]{64}", digest) and lam.scene == digest
        noisy = fw.inject_noise(lam, epsilon=0.01, seed=3)
        assert noisy.scene == digest
        path = tmp_path / "lambda.csv"
        fw.save_matrix(noisy, path)
        assert f"# scene = {digest}\n" in path.read_text(encoding="ascii")
        assert fw.load_matrix(path).scene == digest
        # a matrix built in code, or a file written without the key, records none
        fw.save_matrix(dataclasses.replace(noisy, scene=None), path)
        lines = path.read_text(encoding="ascii").splitlines(keepends=True)
        assert "# scene = none\n" in lines and fw.load_matrix(path).scene is None
        path.write_text("".join(line for line in lines if not line.startswith("# scene")))
        assert fw.load_matrix(path).scene is None

    def test_scene_digest_reads_points_material_and_channels(self, small_scene, params):
        digest = fw._scene_digest(small_scene, params)
        moved = SensingGrid(small_scene.grid.points + [0.7, 0.0, 0.0])
        assert fw._scene_digest(dataclasses.replace(small_scene, grid=moved), params) != digest
        for name in ("mu", "kappa", "alpha"):
            other = dataclasses.replace(params, **{name: 0.5 * getattr(params, name)})
            assert fw._scene_digest(small_scene, other) != digest
        fluid = dataclasses.replace(small_scene, channels="fluid")
        assert fw._scene_digest(fluid, params) != digest
        # the sampling grid is not part of it
        resampled = dataclasses.replace(
            small_scene, sampling=build_sampling_grid((-1.0, 1.0, -1.0, 1.0), (3, 4), 2, (0, 1))
        )
        assert fw._scene_digest(resampled, params) == digest

    def test_size_mismatch_detected(self, small_scene, wave, params, tmp_path):
        lam = fw.assemble_lambda(small_scene, wave, params)
        path = tmp_path / "lambda.csv"
        fw.save_matrix(lam, path)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-2]) + "\n")
        with pytest.raises(CompatibilityError):
            fw.load_matrix(path)

    def test_bulk_and_per_line_reads_agree(self, rng, tmp_path, forward_opens):
        # both files: the written layout takes the one-pass parse, the same
        # file with CR LF line ends the per-line read, and both read the same bits
        parts = np.concatenate([
            rng.normal(size=42) * 10.0 ** rng.integers(-300, 300, 42),
            [0.0, -0.0, 5e-324, -2.2e-308, 1.7976931348623157e308, 3.0, -1.0, 1e-5],
        ])
        data = parts.view(complex).reshape(5, 5)
        matrix = tmp_path / "m.csv"
        fw.save_matrix(fw.ScatteringMatrix(data, channels=("fx",), n_points=5, omega=2.5), matrix)
        raw = parts[:25].copy()
        raw[[3, 7, 8]] = np.nan
        found = np.isfinite(raw)
        imap = inv.IndicatorMap(
            method="glsm", omega=2.5, delta=0.05,
            grid=build_sampling_grid((-1.0, 1.0, -1.0, 1.0), (5, 5), 2, (0, 1)), raw=raw,
            argmin_normal=np.where(found, 1, -1), argmin_iota=np.where(found, 0, -1),
        )
        map_path = tmp_path / "map.csv"
        inv.save_indicator_map(imap, map_path)
        for path, tag, width in [(matrix, fw._FORMAT_TAG, 2), (map_path, inv._MAP_TAG, 6)]:
            crlf = tmp_path / f"crlf_{path.name}"
            crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            reads = []
            for p in (path, crlf):
                forward_opens.clear()
                reads.append(
                    fw._read_table(p, tag, width, "row", "bad", lambda r: np.ones(len(r), bool))
                )
                assert forward_opens == (["rb"] if p == path else ["rb", "r"])
            (header, rows), (per_line_header, per_line_rows) = reads
            assert header == per_line_header
            assert rows.view(np.int64).tolist() == per_line_rows.view(np.int64).tolist()
        back = fw.load_matrix(matrix).data
        assert back.view(np.int64).tolist() == data.view(np.int64).tolist()
        back_raw = inv.load_indicator_map(map_path).raw
        assert back_raw.view(np.int64).tolist() == raw.view(np.int64).tolist()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1.0,abc", "unparsable matrix entry '1.0,abc'"),
            ("1e999,0", "non-finite matrix entry '1e999,0'"),
            ("1,2,3", "unparsable matrix entry '1,2,3'"),
            ("1 2,3", "unparsable matrix entry '1 2,3'"),
            ("1.0,", "unparsable matrix entry '1.0,'"),
            ("inf,0", "non-finite matrix entry 'inf,0'"),
            ("nana,0", "unparsable matrix entry 'nana,0'"),
            ("1.0,\xe9", "not an ASCII text file"),
            ("0,0,1,1,0,0,0", "unparsable map row '0,0,1,1,0,0,0'"),
            ("0,0,1,1,0.5,0", "unparsable map row '0,0,1,1,0.5,0'"),
            ("0,0,nan,nan,0,nan", "unparsable map row '0,0,nan,nan,0,nan'"),
            ("0,0,nana,1,0,0", "unparsable map row '0,0,nana,1,0,0'"),
        ],
    )
    def test_bad_entry_keeps_per_line_message(self, body, message, tmp_path, forward_opens):
        # a matrix or a map (the file the message names, a matrix for the
        # encoding) with its second-to-last row replaced.  Lines a one-pass
        # parse could misread as whole rows: "1,2,3" with "4" and "1 2,3" with
        # ",4" have four numbers on two lines, "1.0," with ",4" has two, and
        # a seven-field map row with a five-field one has twelve; the rest
        # parse in one pass, or keep its separators, and name the row per line
        path = tmp_path / "table.csv"
        if "map row" in message:
            grid = build_sampling_grid((-1.0, 1.0, -1.0, 1.0), (2, 3), 2, (0, 1))
            imap = inv.IndicatorMap("lsm", 3.91, 0.05, grid, np.linspace(0.5, 1.0, 6),
                                    np.zeros(6, dtype=int), np.ones(6, dtype=int))
            inv.save_indicator_map(imap, path)
            load, follow = inv.load_indicator_map, "0,0,1,1,0" if body.count(",") == 6 else None
        else:
            fw.save_matrix(fw.ScatteringMatrix(np.ones((2, 2), complex), ("fx",), 2, 1.0), path)
            load, follow = fw.load_matrix, "4" if body == "1,2,3" else ",4"
        lines = path.read_text(encoding="latin-1").splitlines()
        lines[-2:] = [body, follow or lines[-1]]
        path.write_text("\n".join(lines) + "\n", encoding="latin-1")
        forward_opens.clear()
        with pytest.raises(CompatibilityError, match=re.escape(message)):
            load(path)
        assert forward_opens == ["rb", "r"]  # the per-line read named the row


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eps=st.floats(1e-6, 0.5))
def test_noise_determinism_property(seed, eps):
    data = np.arange(16, dtype=complex).reshape(4, 4) + 1j
    sm = fw.ScatteringMatrix(
        data=data, channels=("fx", "fluid"), n_points=2, omega=1.0
    )
    a = fw.inject_noise(sm, epsilon=eps, seed=seed)
    b = fw.inject_noise(sm, epsilon=eps, seed=seed)
    np.testing.assert_array_equal(a.data, b.data)
    assert a.delta == b.delta
