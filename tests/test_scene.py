import dataclasses
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poroscat import cli
from poroscat.errors import DegenerateContactError, DomainError, GeometryError
from poroscat.scene import (
    HIGH_PERMEABILITY,
    N_DIR_LIMIT,
    PATCH_CELL_LIMIT,
    SAMPLING_POINT_LIMIT,
    SENSING_POINT_LIMIT,
    ContactParams,
    SamplingGrid,
    Scene,
    build_fracture_patch,
    build_sampling_grid,
    build_sensing_grid,
    resolve_channels,
)
from poroscat.presets import desk_scale_scenario


def contact():
    return ContactParams(k_t=1.0, k_n=1.0, kappa_f=1e-3)


class TestSensingGrid:
    def test_single_segment_two_samples_gives_endpoints(self):
        g = build_sensing_grid([[[0, 0, 0], [1, 0, 0]]], 2)
        np.testing.assert_array_equal(g.points, [[0, 0, 0], [1, 0, 0]])

    def test_h_shape_point_count(self):
        # three straight wells sampled 110 points each
        wells = [
            [[-5.0, -8.0, 0.0], [-5.0, 8.0, 0.0]],
            [[5.0, -8.0, 0.0], [5.0, 8.0, 0.0]],
            [[-4.9, 0.3, 0.0], [4.9, 0.3, 0.0]],
        ]
        g = build_sensing_grid(wells, 110)
        assert g.count == 330

    def test_duplicate_segment_rejected(self):
        wells = [
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        ]
        with pytest.raises(GeometryError, match="duplicate"):
            build_sensing_grid(wells, 3)

    def test_zero_length_segment_rejected(self):
        with pytest.raises(GeometryError, match="zero-length"):
            build_sensing_grid([[[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]], 4)

    def test_polyline_junction_emitted_once(self):
        g = build_sensing_grid([[[0, 0, 0], [1, 0, 0], [1, 1, 0]]], 3)
        assert g.count == 5  # 3 + 3 - shared corner

    @pytest.mark.parametrize("samples, count", [(1, 2), (2048, 4095), (2049, 4097)])
    def test_point_bound_counts_junctions_once(self, samples, count):
        # the bound reads the count the grid would hold, before sampling
        corner = [[[0, 0, 0], [1, 0, 0], [1, 1, 0]]]
        if count <= SENSING_POINT_LIMIT:
            assert build_sensing_grid(corner, samples).count == count
        else:
            bound = f"at most {SENSING_POINT_LIMIT} points, got {count}$"
            with pytest.raises(DomainError, match=bound):
                build_sensing_grid(corner, samples)


class TestFracturePatch:
    def test_strike_orientation(self):
        # long axis at 0.47*pi from the x-axis
        p = build_fracture_patch(
            center=[-5.5, 0.0, 0.0], strike_rad=0.47 * math.pi,
            half_lengths=(1.5, 0.5), subdivisions=(3, 2), contact=contact(),
        )
        assert p.e1 @ np.array([math.cos(0.47 * math.pi), math.sin(0.47 * math.pi), 0]) == pytest.approx(1.0)
        assert p.normal @ p.e1 == pytest.approx(0.0, abs=1e-15)
        assert p.normal[2] == pytest.approx(0.0, abs=1e-15)

    def test_single_cell(self):
        p = build_fracture_patch(
            center=[0, 0, 0], strike_rad=0.0, half_lengths=(2.0, 0.5),
            subdivisions=(1, 1), contact=contact(),
        )
        centers, areas = p.cells()
        np.testing.assert_allclose(centers, [[0, 0, 0]], atol=1e-15)
        assert areas[0] == p.area

    @pytest.mark.parametrize("subdiv", [(1, 1), (3, 2), (7, 5)])
    def test_cells_tile_patch(self, subdiv):
        p = build_fracture_patch(
            center=[1.0, -2.0, 0.5], frame=([1, 1, 0], [0, 0, 1]),
            half_lengths=(1.3, 0.7), subdivisions=subdiv, contact=contact(),
        )
        _, areas = p.cells()
        assert abs(areas.sum() - p.area) <= 1e-12 * p.area

    def test_refinement_is_nested(self):
        p = build_fracture_patch(
            center=[0, 0, 0], strike_rad=0.3, half_lengths=(1.0, 0.5),
            subdivisions=(2, 2), contact=contact(),
        )
        fine = p.refined(2)
        assert fine.subdivisions == (4, 4)
        assert fine.area == p.area
        c0, a0 = p.cells()
        c1, a1 = fine.cells()
        assert a1[0] == pytest.approx(a0[0] / 4.0)
        # the union is unchanged: fine centers average to the same centroid
        # and each coarse center is the mean of its four nearest children
        assert c1.mean(axis=0) == pytest.approx(c0.mean(axis=0))
        for cc in c0:
            nearest = c1[np.argsort(np.linalg.norm(c1 - cc, axis=1))[:4]]
            assert nearest.mean(axis=0) == pytest.approx(cc, abs=1e-12)

    def test_cell_bound(self):
        # a refined(32) desk patch is admitted; twice as fine is refused,
        # before any cell is built
        desk = cli.parse_scenario(desk_scale_scenario()).scene.patches[0]
        assert desk.refined(32).cell_count == 20480 <= PATCH_CELL_LIMIT
        bound = rf"at most {PATCH_CELL_LIMIT} cells, got \(640, 128\)"
        with pytest.raises(GeometryError, match=bound):
            desk.refined(64)

    def test_collinear_frame_rejected(self):
        with pytest.raises(GeometryError, match="collinear"):
            build_fracture_patch(
                center=[0, 0, 0], frame=([1, 0, 0], [2, 0, 0]),
                half_lengths=(1, 1), subdivisions=(1, 1), contact=contact(),
            )

    def test_gram_schmidt_orthonormalizes(self):
        p = build_fracture_patch(
            center=[0, 0, 0], frame=([2, 0, 0], [1, 1, 0]),
            half_lengths=(1, 1), subdivisions=(1, 1), contact=contact(),
        )
        frame = np.stack([p.e1, p.e2, p.normal])
        assert np.abs(frame @ frame.T - np.eye(3)).max() < 1e-12

    def test_distance_to_rectangle(self):
        p = build_fracture_patch(
            center=[0, 0, 0], frame=([1, 0, 0], [0, 1, 0]),
            half_lengths=(1.0, 1.0), subdivisions=(1, 1), contact=contact(),
        )
        d = p.distance_to(np.array([[0.5, 0.5, 2.0], [3.0, 0.0, 0.0]]))
        np.testing.assert_allclose(d, [2.0, 2.0])


class TestContactParams:
    def test_effective_stress_factor(self):
        c = ContactParams(k_t=1.0, k_n=2.0, kappa_f=0.1, alpha_f=0.8, beta_f=0.4, Pi=0.5)
        expect = 0.8 * 0.5 / (1 - 0.8 * 0.4 * 0.5)
        assert c.alpha_f_tilde == pytest.approx(expect, rel=1e-15)

    def test_stiffness_matrix_structure(self):
        c = ContactParams(k_t=2.0, k_n=3.0, kappa_f=0.1, alpha_f=0.8, beta_f=0.4, Pi=1.0)
        e1, e2, n = np.eye(3)
        K = c.stiffness_matrix(e1, e2, n)
        np.testing.assert_allclose(np.diag(K), [2.0, 2.0, 3.0])
        assert np.abs(K - K.T).max() == 0.0

    def test_singular_factor_rejected(self):
        with pytest.raises(DegenerateContactError):
            ContactParams(k_t=1.0, k_n=1.0, kappa_f=0.1, alpha_f=1.0, beta_f=1.0, Pi=0.0)

    @pytest.mark.parametrize(
        "given",
        [{"k_t": 0.0}, {"k_n": 0.0}, {"alpha_f": 0.0}, {"Pi": 0.0}, {"beta_f": 0.0},
         {"kappa_f": 0.0}, {"beta_f": 0.0, "model": HIGH_PERMEABILITY}],
    )
    def test_degenerate_contact_rejected(self, given):
        # every degenerate contact is refused where it is built, before any
        # closure reads it
        key = next(iter(given))
        with pytest.raises(DegenerateContactError, match=f"^{key} must be nonzero"):
            ContactParams(**{"k_t": 1.0, "k_n": 1.0, **given})

    def test_high_permeability_reads_no_kappa_f(self):
        assert ContactParams(k_t=1.0, k_n=1.0, kappa_f=0.0, model=HIGH_PERMEABILITY).kappa_f == 0.0

    def test_roundtrip(self):
        c = ContactParams(k_t=1 + 2j, k_n=3.0, kappa_f=0.2, alpha_f=0.7, beta_f=0.2, Pi=0.9)
        assert cli._parse_contact(c.to_dict(), "contact") == c


class TestSamplingGrid:
    def test_survey_scale_trial_count(self):
        # 100x100 points, 8 undirected normals, both excitation forms:
        # 10000 * 8 * 2 trial triplets
        g = build_sampling_grid((-5, 5, -5, 5), (100, 100), 8, (0, 1))
        assert g.trial_count == 160000

    def test_single_point_grid(self):
        g = build_sampling_grid((-5, 5, -3, 7), (1, 1), 2, (1,))
        np.testing.assert_allclose(g.points(), [[0.0, 2.0, 0.0]])

    def test_two_normals(self):
        g = build_sampling_grid((-1, 1, -1, 1), (2, 2), 2, (0,))
        np.testing.assert_allclose(g.normals[0], [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(g.normals[1], [0, 1, 0], atol=1e-15)

    def test_row_major_x_fastest(self):
        g = build_sampling_grid((0, 1, 0, 2), (2, 3), 1, (1,))
        pts = g.points()
        assert pts[0] == pytest.approx([0, 0, 0])
        assert pts[1] == pytest.approx([1, 0, 0])
        assert pts[2] == pytest.approx([0, 1, 0])

    @pytest.mark.parametrize("region", [(-2, 2, 2, -2), (2, -2, -2, 2)], ids=["y", "x"])
    def test_flipped_region_rejected(self, region):
        # a flipped region would run axes() backwards and flip the map and its PGM
        with pytest.raises(DomainError, match="needs xmin <= xmax, ymin <= ymax"):
            build_sampling_grid(region, (3, 3), 1, (0,))

    def test_empty_iotas_rejected(self):
        with pytest.raises(DomainError):
            build_sampling_grid((-1, 1, -1, 1), (2, 2), 2, ())

    def test_many_normals_build_within_a_second(self):
        # a grid of 1000 normals holds their count; the fan is built when
        # its normals are read
        t0 = time.perf_counter()
        g = build_sampling_grid((-1, 1, -1, 1), (2, 2), 1000, (0, 1))
        assert time.perf_counter() - t0 < 1.0
        assert g.normals.shape == (1000, 3)

    @pytest.mark.parametrize("resolution", [(80, 80), (1024, 1024), (1025, 1024), (2**30, 2**30)])
    def test_point_bound(self, resolution):
        # an 80x80 map is admitted; past the bound the grid is refused at
        # once, though its points are built only when a map asks for them
        t0 = time.perf_counter()
        if resolution[0] * resolution[1] <= SAMPLING_POINT_LIMIT:
            assert build_sampling_grid((-1, 1, -1, 1), resolution, 8, (0, 1)).point_count > 0
        else:
            with pytest.raises(DomainError, match=f"at most {SAMPLING_POINT_LIMIT} points"):
                build_sampling_grid((-1, 1, -1, 1), resolution, 8, (0, 1))
        assert time.perf_counter() - t0 < 0.1

    @pytest.mark.parametrize("n_dir", [0, N_DIR_LIMIT + 1, 20000])
    def test_n_dir_out_of_range_rejected(self, n_dir):
        # refused before any normal is built
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match=f"between 1 and {N_DIR_LIMIT}, got {n_dir}$"):
            build_sampling_grid((-1, 1, -1, 1), (2, 2), n_dir, (0, 1))
        assert time.perf_counter() - t0 < 0.1

    def test_grid_is_its_five_numbers(self):
        # the grid holds the map header's values, no array, and refuses an
        # n_dir out of range itself
        names = [f.name for f in dataclasses.fields(SamplingGrid)]
        assert names == ["region", "resolution", "n_dir", "iotas", "plane_z"]
        g = SamplingGrid((0.0, 1.0, 0.0, 1.0), (2, 2), 3, (0, 1))
        assert g == build_sampling_grid((0, 1, 0, 1), (2, 2), 3, (0, 1))
        with pytest.raises(DomainError, match=f"between 1 and {N_DIR_LIMIT}, got 0$"):
            SamplingGrid((0.0, 1.0, 0.0, 1.0), (2, 2), 0, (0, 1))

    def test_fan_normals_lie_pi_over_n_dir_apart(self):
        # for every admitted n_dir, each normal is an in-plane unit vector
        # and neighbouring normals, the last and the first's reverse too,
        # lie pi/n_dir apart: no two coincide as undirected directions
        for n_dir in range(1, N_DIR_LIMIT + 1):
            normals = build_sampling_grid((0, 1, 0, 1), (1, 1), n_dir, (1,)).normals
            assert normals.shape == (n_dir, 3) and not normals[:, 2].any()
            np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, rtol=1e-15)
            angles = np.arctan2(normals[:, 1], normals[:, 0])
            gaps = np.diff(np.append(angles, angles[0] + np.pi))
            np.testing.assert_allclose(gaps, np.pi / n_dir, rtol=1e-12)

    def test_candidate_order_deterministic(self):
        g = build_sampling_grid((-1, 1, -1, 1), (2, 2), 3, (1, 0))
        cands = g.candidates()
        assert [i for _, i in cands] == [0, 0, 0, 1, 1, 1]


class TestScene:
    def make_scene(self):
        patch = build_fracture_patch(
            center=[0, 0, 0], strike_rad=0.4, half_lengths=(1.0, 0.5),
            subdivisions=(4, 2), contact=contact(),
        )
        grid = build_sensing_grid([[[-3, -3, 0], [3, -3, 0]]], 10)
        sampling = build_sampling_grid((-2, 2, -2, 2), (5, 5), 4, (0, 1))
        return Scene(grid=grid, patches=(patch,), sampling=sampling, channels="in-plane")

    def test_serialization_roundtrip_bit_exact(self):
        # the resolved echo of a scenario is a scenario that rebuilds the
        # same scene, and echoes itself
        doc = desk_scale_scenario(resolution=(5, 4), n_dir=3)
        doc["scene"]["fractures"].append({
            "center": [0.2, 0.1, 0.3], "e1": [1.0, 1.0, 0.0], "e2": [0.0, 0.2, 1.0],
            "half_lengths": [0.4, 0.3], "contact": {"k_t": [0.5, -0.1], "k_n": 0.7},
        })
        doc["scene"]["sampling"]["plane_z"] = 0.25
        scenario = cli.parse_scenario(doc)
        echo = json.loads(json.dumps(scenario.resolved))
        back = cli.parse_scenario(echo)
        assert back.resolved == echo
        scene, again = scenario.scene, back.scene
        np.testing.assert_array_equal(again.grid.points, scene.grid.points)
        assert again.channels == scene.channels
        np.testing.assert_array_equal(again.sampling.points(), scene.sampling.points())
        np.testing.assert_array_equal(again.sampling.normals, scene.sampling.normals)
        assert again.sampling.iotas == scene.sampling.iotas
        assert len(again.patches) == len(scene.patches) == 3
        for p0, p1 in zip(scene.patches, again.patches):
            for name in ("center", "e1", "e2", "normal"):
                np.testing.assert_array_equal(getattr(p0, name), getattr(p1, name))
            assert p0.half_lengths == p1.half_lengths
            assert p0.subdivisions == p1.subdivisions
            assert p0.contact == p1.contact
            for a0, a1 in zip(p0.cells(), p1.cells()):
                np.testing.assert_array_equal(a0, a1)

    def test_grid_point_on_patch_rejected(self):
        patch = build_fracture_patch(
            center=[0, -3, 0], strike_rad=0.0, half_lengths=(1.0, 0.5),
            subdivisions=(1, 1), contact=contact(),
        )
        grid = build_sensing_grid([[[-3, -3, 0], [3, -3, 0]]], 10)
        sampling = build_sampling_grid((-2, 2, -2, 2), (2, 2), 2, (1,))
        with pytest.raises(GeometryError, match="patch"):
            Scene(grid=grid, patches=(patch,), sampling=sampling)

    def test_distance_to_fractures_empty(self):
        scene = self.make_scene()
        empty = Scene(
            grid=scene.grid, patches=(), sampling=scene.sampling, channels="fluid"
        )
        assert np.isinf(empty.distance_to_fractures(np.zeros(3)))

    def test_unknown_channel_set(self):
        with pytest.raises(DomainError):
            resolve_channels("sideways")


@settings(max_examples=30, deadline=None)
@given(
    n1=st.integers(1, 6),
    n2=st.integers(1, 6),
    h1=st.floats(0.1, 3.0),
    h2=st.floats(0.1, 3.0),
)
def test_cell_tiling_property(n1, n2, h1, h2):
    p = build_fracture_patch(
        center=[0.3, -0.4, 0.8], frame=([1, 2, 0], [0, 1, 1]),
        half_lengths=(h1, h2), subdivisions=(n1, n2), contact=contact(),
    )
    centers, areas = p.cells()
    assert centers.shape == (n1 * n2, 3)
    assert abs(areas.sum() - p.area) <= 1e-12 * p.area
    # all cells inside the rectangle
    assert p.distance_to(centers).max() <= 1e-12
