import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poroscat import forward as fw
from poroscat.errors import CompatibilityError, DegenerateContactError, DomainError
from poroscat.greens import _dislocation_trace_matrix, green_tensor, trace_kernel
from poroscat.material import MaterialParams, solve_dispersion
from poroscat.scene import (
    ContactParams,
    HIGH_PERMEABILITY,
    Scene,
    build_fracture_patch,
    build_sampling_grid,
    build_sensing_grid,
    channel_indices,
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


def interaction_matrix_per_row(patches, wave, params):
    """Reference: the coupled-system matrix built one collocation cell at a time."""
    cells = fw._collect_cells(patches)
    D, E = fw._contact_blocks(patches, cells.patch_index, wave.omega)
    nc = cells.count
    M = np.zeros((5 * nc, 5 * nc), dtype=complex)
    for i in range(nc):
        M[5 * i : 5 * i + 5, 5 * i : 5 * i + 5] = D[i]
        others = np.nonzero(cells.patch_index != cells.patch_index[i])[0]
        B = _dislocation_trace_matrix(
            cells.centers[others], cells.normals[others],
            cells.centers[i][None, :], cells.normals[i][None, :], wave, params,
        )
        coup = np.einsum("rk,oks->ors", E[i], B) * cells.areas[others][:, None, None]
        for o, j in enumerate(others):
            M[5 * i : 5 * i + 5, 5 * j : 5 * j + 5] = -coup[o]
    return M


class TestIncidentTraces:
    def test_zero_amplitude(self, small_scene, wave, params):
        tr = fw.incident_traces(
            [0.0, -3.0, 0.0], "fx", small_scene.patches, wave, params, amplitude=0.0
        )
        assert not np.any(tr.as_vector())

    def test_amplitude_scaling_exact(self, small_scene, wave, params):
        y = [0.0, -3.0, 0.0]
        t1 = fw.incident_traces(y, "fluid", small_scene.patches, wave, params)
        t2 = fw.incident_traces(
            y, "fluid", small_scene.patches, wave, params, amplitude=2.0
        )
        np.testing.assert_array_equal(t2.as_vector(), 2.0 * t1.as_vector())

    def test_fluid_pressure_trace_equals_green_entry(self, small_scene, wave, params):
        y = np.array([0.0, -3.0, 0.0])
        tr = fw.incident_traces(y, "fluid", small_scene.patches, wave, params)
        centers = np.vstack([p.cells()[0] for p in small_scene.patches])
        for c in (0, 3, 11):
            expect = green_tensor(y, centers[c], wave, params).fluid_pressure
            assert tr.pressure[c] == expect

    def test_traction_matches_incident_field_differences(self, small_scene, wave, params):
        # finite differences of the incident displacement field against
        # the assembled traction trace
        y = np.array([0.0, -3.0, 0.0])
        tr = fw.incident_traces(y, "fy", small_scene.patches, wave, params)
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
        assert np.linalg.norm(tr.traction[0] - t_fd) / np.linalg.norm(t_fd) < 1e-6

    def test_source_on_patch_rejected(self, small_scene, wave, params):
        center = small_scene.patches[0].center
        with pytest.raises(fw.SingularityError):
            fw.incident_traces(center, "fx", small_scene.patches, wave, params)


class TestLocalJumpSolve:
    def test_zero_traces_zero_jumps(self, small_scene, wave):
        nc = sum(p.cell_count for p in small_scene.patches)
        zero = fw.TraceState.from_vector(np.zeros(5 * nc, complex))
        jumps = fw.local_jump_solve(zero, small_scene.patches, wave)
        assert not np.any(jumps.as_vector())

    def test_scalar_stiffness_closure(self, wave, params):
        # K = k I and no incident pressure: [[u]] = t / k
        k = 2.5
        patch = build_fracture_patch(
            center=[0, 0, 0], strike_rad=0.0, half_lengths=(1, 1),
            subdivisions=(1, 1), contact=contact(k=k),
        )
        t = np.array([0.3 + 0.1j, -0.2, 0.7j])
        psi = np.concatenate([t, [0.4 + 0.2j], [0.0]])  # q nonzero, p = 0
        jumps = fw.local_jump_solve(
            fw.TraceState.from_vector(psi), (patch,), wave
        )
        np.testing.assert_allclose(jumps.u_jump[0], t / k, rtol=1e-14)

    def test_closure_residual_in_interface_conditions(self, small_scene, wave, params, rng):
        # substitute the jumps back into the contact conditions with the
        # scattered traces zeroed
        nc = sum(p.cell_count for p in small_scene.patches)
        psi = rng.normal(size=5 * nc) + 1j * rng.normal(size=5 * nc)
        traces = fw.TraceState.from_vector(psi)
        jumps = fw.local_jump_solve(traces, small_scene.patches, wave)
        start = 0
        for patch in small_scene.patches:
            c = patch.contact
            K = c.stiffness_matrix(patch.e1, patch.e2, patch.normal)
            n = patch.normal
            at = c.alpha_f_tilde
            for ci in range(patch.cell_count):
                i = start + ci
                t_i = traces.traction[i]
                q_i, p_i = traces.flow[i], traces.pressure[i]
                uj, pj, nqj = jumps.u_jump[i], jumps.p_jump[i], jumps.neg_q_jump[i]
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
        jumps = fw.local_jump_solve(fw.TraceState.from_vector(psi), (patch,), wave)
        assert not np.any(jumps.p_jump)
        assert np.any(jumps.neg_q_jump)

    def test_degenerate_contact_named(self, wave):
        with pytest.raises(DegenerateContactError, match="kappa_f"):
            patch = build_fracture_patch(
                center=[0, 0, 0], strike_rad=0.0, half_lengths=(1, 1),
                subdivisions=(1, 1), contact=contact(kappa_f=0.0),
            )
            fw.local_jump_solve(
                fw.TraceState.from_vector(np.zeros(5, complex)), (patch,), wave
            )


class TestInteractingJumpSolve:
    def test_single_cell_identical_to_local(self, wave, params):
        patch = build_fracture_patch(
            center=[0.3, 0.2, 0.0], strike_rad=0.9, half_lengths=(0.5, 0.4),
            subdivisions=(1, 1), contact=contact(),
        )
        tr = fw.incident_traces([0, -2.0, 0], "fluid", (patch,), wave, params)
        jl = fw.local_jump_solve(tr, (patch,), wave)
        ji = fw.interacting_jump_solve(tr, (patch,), wave, params, cutoff=None)
        np.testing.assert_array_equal(jl.as_vector(), ji.as_vector())

    def test_far_separation_decouples(self):
        # a genuinely lossy background: all three modes die over the
        # thousand-wavelength separation
        lossy = MaterialParams(
            lam=0.47, mu=1.0, M=1.66, rho=2.27, rho_f=2.0, rho_a=0.117,
            kappa=0.02, phi=0.195, alpha=0.83,
        )
        w = solve_dispersion(lossy, 3.91)
        lam_s = w.shear_wavelength
        assert w.min_decay_rate() * 1000 * lam_s > 30
        near = build_fracture_patch(
            center=[0.0, 1.0, 0.0], strike_rad=1.2, half_lengths=(0.8, 0.5),
            subdivisions=(3, 2), contact=contact(),
        )
        far = build_fracture_patch(
            center=[1000 * lam_s, 0, 0.0], strike_rad=0.3, half_lengths=(0.9, 0.5),
            subdivisions=(3, 2), contact=contact(),
        )
        tr = fw.incident_traces([0.0, -1.5, 0.0], "fx", (near, far), w, lossy)
        jl = fw.local_jump_solve(tr, (near, far), w)
        ji = fw.interacting_jump_solve(tr, (near, far), w, lossy, cutoff=None)
        diff = np.linalg.norm(ji.as_vector() - jl.as_vector())
        assert diff / np.linalg.norm(jl.as_vector()) < 1e-6

    def test_cutoff_short_circuits_to_local(self):
        lossy = MaterialParams(
            lam=0.47, mu=1.0, M=1.66, rho=2.27, rho_f=2.0, rho_a=0.117,
            kappa=0.02, phi=0.195, alpha=0.83,
        )
        w = solve_dispersion(lossy, 3.91)
        lam_s = w.shear_wavelength
        near = build_fracture_patch(
            center=[0.0, 1.0, 0.0], strike_rad=1.2, half_lengths=(0.8, 0.5),
            subdivisions=(2, 1), contact=contact(),
        )
        far = build_fracture_patch(
            center=[1000 * lam_s, 0, 0.0], strike_rad=0.3, half_lengths=(0.9, 0.5),
            subdivisions=(2, 1), contact=contact(),
        )
        tr = fw.incident_traces([0.0, -1.5, 0.0], "fx", (near, far), w, lossy)
        jl = fw.local_jump_solve(tr, (near, far), w)
        # separation ~1105 units, slowest decay length ~26: a cutoff of 20
        # declares the patches decoupled and the solve short-circuits
        ji = fw.interacting_jump_solve(tr, (near, far), w, lossy, cutoff=20.0)
        np.testing.assert_array_equal(jl.as_vector(), ji.as_vector())

    def test_system_residual(self, small_scene, wave, params, rng):
        nc = sum(p.cell_count for p in small_scene.patches)
        psi = rng.normal(size=5 * nc) + 1j * rng.normal(size=5 * nc)
        traces = fw.TraceState.from_vector(psi)
        cells = fw._collect_cells(small_scene.patches)
        D, E = fw._contact_blocks(small_scene.patches, cells.patch_index, wave.omega)
        M = fw._interaction_matrix(cells, D, E, wave, params)
        rhs = np.einsum("cij,cj->ci", E, psi.reshape(-1, 5)).ravel()
        a = fw.interacting_jump_solve(
            traces, small_scene.patches, wave, params, cutoff=None
        ).as_vector()
        res = np.linalg.norm(M @ a - rhs) / np.linalg.norm(rhs)
        assert res < 1e-10

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("scene_name", ["small_scene", "three_patch_scene"])
    def test_one_pass_matches_per_row_reference(
        self, scene_name, chunk, request, monkeypatch, wave, params
    ):
        if chunk is not None:  # pair chunks that split cell rows
            monkeypatch.setattr(fw, "_PAIR_CHUNK", chunk)
        patches = request.getfixturevalue(scene_name).patches
        cells = fw._collect_cells(patches)
        D, E = fw._contact_blocks(patches, cells.patch_index, wave.omega)
        M = fw._interaction_matrix(cells, D, E, wave, params)
        ref = interaction_matrix_per_row(patches, wave, params)
        assert np.linalg.norm(M - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_nearby_patches_actually_couple(self, small_scene, wave, params):
        tr = fw.incident_traces(
            [0.0, -3.0, 0.0], "fx", small_scene.patches, wave, params
        )
        jl = fw.local_jump_solve(tr, small_scene.patches, wave)
        ji = fw.interacting_jump_solve(
            tr, small_scene.patches, wave, params, cutoff=None
        )
        rel = np.linalg.norm(ji.as_vector() - jl.as_vector()) / np.linalg.norm(
            jl.as_vector()
        )
        assert rel > 1e-6


class TestRadiate:
    def test_zero_jumps_zero_field(self, small_scene, wave, params):
        nc = sum(p.cell_count for p in small_scene.patches)
        jumps = fw.JumpState.from_vector(np.zeros(5 * nc, complex))
        out = fw.radiate(jumps, small_scene.patches, [[0, -3, 0]], wave, params)
        assert not np.any(out.values)

    def test_single_cell_is_one_kernel_evaluation(self, wave, params):
        patch = build_fracture_patch(
            center=[0, 0, 0], strike_rad=0.0, half_lengths=(0.5, 0.5),
            subdivisions=(1, 1), contact=contact(),
        )
        n = patch.normal
        a = np.concatenate([n, [0, 0]]).astype(complex)
        jumps = fw.JumpState.from_vector(a)
        obs = np.array([1.5, 1.0, 0.4])
        out = fw.radiate(jumps, (patch,), obs, wave, params)
        K = trace_kernel(obs, patch.center, n, wave, params).matrix
        expect = K.T @ a * patch.area
        np.testing.assert_allclose(out.values[0], expect, rtol=1e-14)

    def test_quadrature_refinement_convergence(self, wave, params):
        patch = build_fracture_patch(
            # resolved base: several cells per shear wavelength
            center=[0, 0, 0], strike_rad=0.5, half_lengths=(1.0, 0.5),
            subdivisions=(20, 10), contact=contact(),
        )
        obs = np.array([[2.5, 1.8, 0.0]])  # ~3 wavelengths out
        rng = np.random.default_rng(5)

        def field(p):
            nc = p.cell_count
            a = np.tile([0.3, 0.1, -0.2, 0.05, 0.4], nc).astype(complex)
            return fw.radiate(fw.JumpState.from_vector(a), (p,), obs, wave, params).values

        coarse = field(patch)
        fine = field(patch.refined(2))
        assert np.linalg.norm(fine - coarse) / np.linalg.norm(fine) < 0.01

    def test_near_singular_flagged(self, small_scene, wave, params):
        nc = sum(p.cell_count for p in small_scene.patches)
        jumps = fw.JumpState.from_vector(np.ones(5 * nc, complex))
        close = small_scene.patches[0].center + 1e-3 * small_scene.patches[0].normal
        out = fw.radiate(jumps, small_scene.patches, close[None, :], wave, params)
        assert out.near_singular[0]


class TestAssembleLambda:
    def test_empty_scene_zero_matrix(self, wave, params):
        grid = build_sensing_grid([[[-1, 0, 0], [1, 0, 0]]], 5)
        sampling = build_sampling_grid((-1, 1, -1, 1), (2, 2), 2, (1,))
        scene = Scene(grid=grid, patches=(), sampling=sampling, channels="in-plane")
        lam = fw.assemble_lambda(scene, wave, params)
        assert lam.data.shape == (15, 15)
        assert not np.any(lam.data)

    def test_factorization_consistency(self, small_scene, wave, params):
        lam = fw.assemble_lambda(small_scene, wave, params, mode="local")
        S = fw._trace_operator(small_scene, wave, params)
        R = fw._radiation_operator(small_scene, wave, params)
        T = fw._local_transfer(small_scene.patches, wave.omega)
        nc = S.shape[0] // 5
        prod = R @ np.einsum("cij,cjk->cik", T, S.reshape(nc, 5, -1)).reshape(5 * nc, -1)
        assert np.linalg.norm(lam.data - prod) <= 1e-12 * np.linalg.norm(prod)

    @pytest.mark.parametrize("mode", ["local", "interacting"])
    @pytest.mark.parametrize("scene_name", ["small_scene", "three_patch_scene"])
    def test_columns_match_per_source_path(self, scene_name, mode, request, wave, params):
        # column (j, c) is radiate(jump_solve(incident_traces(y_j, c)))
        scene = request.getfixturevalue(scene_name)
        lam = fw.assemble_lambda(scene, wave, params, mode=mode, cutoff=None)
        cidx = channel_indices(scene.channels)
        pts = scene.grid.points
        for j, y in enumerate(pts):
            for c, src in enumerate(cidx):
                tr = fw.incident_traces(y, int(src), scene.patches, wave, params)
                if mode == "local":
                    jumps = fw.local_jump_solve(tr, scene.patches, wave)
                else:
                    jumps = fw.interacting_jump_solve(
                        tr, scene.patches, wave, params, cutoff=None
                    )
                field = fw.radiate(jumps, scene.patches, pts, wave, params).values
                col = lam.data[:, lam.index_of(j, scene.channels[c])]
                err = np.linalg.norm(field[:, cidx].ravel() - col)
                assert err <= 1e-12 * np.linalg.norm(col)

    def test_grid_guards_run_in_assembly(self, small_scene, wave, params, caplog):
        patch = small_scene.patches[0]

        def scene(offset, **kw):
            well = [patch.center + offset * patch.normal, patch.center + 2.0 * patch.normal]
            grid = build_sensing_grid([well], 3)
            return Scene(grid=grid, patches=small_scene.patches,
                         sampling=small_scene.sampling, channels="in-plane", **kw)

        with pytest.raises(fw.SingularityError, match="lies on patch 0"):
            fw.assemble_lambda(scene(0.0, min_clearance=-1.0), wave, params)
        fw.assemble_lambda(scene(0.05), wave, params)
        assert "1 observation point(s) within the near-singular zone" in caplog.text

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
        assert lam.index_of(3, "fluid") == 3 * 3 + 2
        assert lam.point_channel(11) == (3, "fluid")

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
        rep = fw.check_admissibility(contact(), wave, trials=10000, seed=0)
        assert rep.admissible
        assert rep.worst_imag <= rep.tolerance

    def test_negative_interface_permeability_flagged(self, wave):
        bad = ContactParams(
            k_t=1.0, k_n=1.0, kappa_f=-1e-3, alpha_f=0.85, beta_f=0.3, Pi=1.0
        )
        rep = fw.check_admissibility(bad, wave, trials=10000, seed=0)
        assert not rep.admissible
        assert rep.worst_imag > 0

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
        rep = fw.check_admissibility(active, wave, trials=10000, seed=0)
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
