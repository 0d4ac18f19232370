import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poroscat import forward as fw
from poroscat.errors import (
    CompatibilityError,
    ConditioningError,
    DegenerateContactError,
    DomainError,
    GeometryError,
)
from poroscat.greens import green_tensor, trace_kernel
from poroscat.material import MaterialParams, solve_dispersion
from poroscat.presets import default_contact, desk_scale_scene
from poroscat.scene import (
    ContactParams,
    HIGH_PERMEABILITY,
    Scene,
    build_fracture_patch,
    build_sampling_grid,
    build_sensing_grid,
    channel_indices,
)

from oracles import dislocation_trace_oracle, interface_response_oracle


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
    return fw._jumps(iface, np.reshape(psi, (-1, 1)), coupling)[0].reshape(-1, 5)


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

    def test_system_residual(self, small_scene, wave, params, rng):
        nc = sum(p.cell_count for p in small_scene.patches)
        psi = rng.normal(size=5 * nc) + 1j * rng.normal(size=5 * nc)
        iface = fw._interface(small_scene.patches, wave.omega)
        M = fw._interaction_matrix(iface, wave, params)
        rhs = np.einsum("cij,cj->ci", iface.E, psi.reshape(-1, 5)).ravel()
        a = jumps(psi, small_scene.patches, wave, (wave, params, None)).ravel()
        res = np.linalg.norm(M @ a - rhs) / np.linalg.norm(rhs)
        assert res < 1e-10

    @pytest.mark.parametrize("chunk", [None, 3, 7])
    @pytest.mark.parametrize("scene_name", ["small_scene", "three_patch_scene"])
    def test_one_pass_matches_per_row_reference(
        self, scene_name, chunk, request, monkeypatch, wave, params
    ):
        # patch rectangles have rows of 8 and 6 pairs: chunks of 3 and 7
        # pairs end partway through rows, and some span two rectangles
        if chunk is not None:
            monkeypatch.setattr(fw, "_PAIR_CHUNK", chunk)
        patches = request.getfixturevalue(scene_name).patches
        M = fw._interaction_matrix(fw._interface(patches, wave.omega), wave, params)
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
        M = fw._interaction_matrix(fw._interface(small_scene.patches, wave.omega), wave, params)
        return M, rng.normal(size=(M.shape[0], 3)) + 1j * rng.normal(size=(M.shape[0], 3))

    @pytest.mark.parametrize("where", ["M", "rhs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_system_is_conditioning_error(self, system, where, bad):
        M, rhs = system
        (M if where == "M" else rhs)[4, 1] = bad
        with pytest.raises(ConditioningError) as info:
            fw._coupled_solve(M, rhs)
        assert info.value.condition_number == math.inf

    def test_singular_system_is_conditioning_error(self, system):
        M, rhs = system
        M[:, 7] = 0.0
        with pytest.raises(ConditioningError, match="singular") as info:
            fw._coupled_solve(M, rhs)
        assert info.value.condition_number > 1e12

    def test_nearby_patches_actually_couple(self, small_scene, wave, params):
        tr = traces([0.0, -3.0, 0.0], "fx", small_scene.patches, wave, params)
        jl = jumps(tr, small_scene.patches, wave)
        ji = jumps(tr, small_scene.patches, wave, (wave, params, None))
        assert np.linalg.norm(ji - jl) / np.linalg.norm(jl) > 1e-6


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
        for j, y in enumerate(pts):
            for c, src in enumerate(cidx):
                psi = fw._kernel_block(f.interface.cells, y[None, :], [src], wave, params)
                col = f.R @ fw._jumps(f.interface, psi, (wave, params, None))[0]
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
        lam = fw.assemble_lambda(small_scene, wave, params, mode, cutoff=None)
        assert sorted(calls) == ["_collect_cells", "_contact_blocks"]
        assert (lam.closure_gap is None) == (mode == "local")

    def test_near_singular_points_counted(self, small_scene, wave, params):
        # a sensing point within half a cell diagonal of a patch is counted
        # on the matrix, and the noisy copy keeps the count
        patch = small_scene.patches[0]
        well = [patch.center + 0.05 * patch.normal, patch.center + 2.0 * patch.normal]
        close = Scene(grid=build_sensing_grid([well], 3), patches=small_scene.patches,
                      sampling=small_scene.sampling, channels="in-plane")
        lam = fw.assemble_lambda(close, wave, params)
        assert lam.near_singular_points >= 1
        noisy = fw.inject_noise(lam, target_delta=0.01)
        assert noisy.near_singular_points == lam.near_singular_points
        assert fw.assemble_lambda(desk_scale_scene(), wave, params).near_singular_points == 0

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

    def test_size_mismatch_detected(self, small_scene, wave, params, tmp_path):
        lam = fw.assemble_lambda(small_scene, wave, params)
        path = tmp_path / "lambda.csv"
        fw.save_matrix(lam, path)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-2]) + "\n")
        with pytest.raises(CompatibilityError):
            fw.load_matrix(path)

    def test_bulk_and_per_line_reads_agree(self, rng, tmp_path):
        parts = np.concatenate([
            rng.normal(size=42) * 10.0 ** rng.integers(-300, 300, 42),
            [0.0, -0.0, 5e-324, -2.2e-308, 1.7976931348623157e308, 3.0, -1.0, 1e-5],
        ])
        data = parts.view(complex).reshape(5, 5)
        path = tmp_path / "m.csv"
        fw.save_matrix(fw.ScatteringMatrix(data, channels=("fx",), n_points=5, omega=2.5), path)
        bulk = fw._read_bulk(path)
        assert bulk is not None  # the written layout takes the one-pass parse
        header, values = fw._read_lines(path)
        assert bulk[0] == header
        assert bulk[1].view(np.int64).tolist() == values.view(np.int64).tolist()
        back = fw.load_matrix(path).data
        assert back.view(np.int64).tolist() == data.view(np.int64).tolist()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1.0,abc", "unparsable matrix entry '1.0,abc'"),
            ("1e999,0", "non-finite matrix entry '1e999,0'"),
            ("1,2,3", "unparsable matrix entry '1,2,3'"),
            ("1 2,3", "unparsable matrix entry '1 2,3'"),
            ("1.0,", "unparsable matrix entry '1.0,'"),
        ],
    )
    def test_bad_entry_keeps_per_line_message(self, body, message, tmp_path):
        # lines a one-pass parse could misread as whole entries: "1,2,3"
        # with "4" and "1 2,3" with ",4" have four numbers on two lines,
        # "1.0," with ",4" has two
        path = tmp_path / "m.csv"
        fw.save_matrix(fw.ScatteringMatrix(np.ones((2, 2), complex), ("fx",), 2, 1.0), path)
        lines = path.read_text().splitlines()
        lines[-2:] = [body, "4" if body == "1,2,3" else ",4"]
        path.write_text("\n".join(lines) + "\n")
        assert fw._read_bulk(path) is None
        with pytest.raises(CompatibilityError, match=re.escape(message)):
            fw.load_matrix(path)


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
