import copy
import dataclasses
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy.optimize import brentq

from poroscat import forward as fw
from poroscat import inversion as inv
from poroscat import ledger
from poroscat.errors import CompatibilityError, ConditioningError, DomainError, NumericalError
from poroscat.greens import green_tensor
from poroscat.material import solve_dispersion
from poroscat.presets import desk_scale_scene
from poroscat.scene import (
    Scene,
    build_sampling_grid,
    build_sensing_grid,
    channel_indices,
    resolve_channels,
)

from oracles import (
    clamp_psd,
    distinct_columns_oracle,
    glsm_indicator_oracle,
    glsm_pencil_oracle,
    trace_matrix_oracle,
)


@pytest.fixture(scope="module")
def scene(params):
    return desk_scale_scene(resolution=(6, 6), n_dir=4)


@pytest.fixture(scope="module")
def lam(scene, wave, params):
    return fw.assemble_lambda(scene, wave, params, mode="local")


def random_operator(rng, n=8):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def full_projection(L, rhs):
    """The whole spectrum of L from its own thin SVD, with |U^H rhs|^2 over
    all min(M, N) singular values and the floor ||rhs - U U^H rhs||^2 (the
    part of rhs outside L's column space): the discrepancy gap without any
    rank cut."""
    U, s, _ = np.linalg.svd(L, full_matrices=False)
    beta = U.conj().T @ rhs
    floor_sq = np.sum(np.abs(rhs - U @ beta) ** 2, axis=0)
    return s, np.abs(beta) ** 2, floor_sq


def brentq_eta(s, beta_sq, floor_sq, delta):
    """Reference discrepancy root of one column on the spectrum s (from
    full_projection): a Brent search on log(eta) over the default bracket.
    Returns (eta, side) as _morozov_roots does."""
    lo, hi = 1e-14 * s[0] ** 2, 1e8 * s[0] ** 2
    s2 = s**2

    def gap(x):
        eta = math.exp(x)
        return float((eta**2 - delta**2 * s2) / (s2 + eta) ** 2 @ beta_sq + floor_sq)

    if gap(math.log(lo)) >= 0.0:
        return lo, -1
    if gap(math.log(hi)) <= 0.0:
        return hi, 1
    return math.exp(brentq(gap, math.log(lo), math.log(hi), xtol=5e-15, maxiter=200)), 0


def brentq_roots(L, rhs, delta):
    """(eta, side) of every column of rhs from brentq_eta on L's full spectrum."""
    s, beta_sq, floor_sq = full_projection(L, rhs)
    ref = np.array([brentq_eta(s, beta_sq[:, j], floor_sq[j], delta) for j in range(rhs.shape[1])])
    return ref[:, 0], ref[:, 1].astype(int)


def with_cut(op, tol):
    """A copy of op that keeps the singular values above tol instead of
    those above its own tolerance; it shares op's full U^H."""
    _, s, Vh = np.linalg.svd(op.matrix)
    r = int(np.count_nonzero(s > tol))
    cut = copy.copy(op)
    cut.s, cut.Vh = s[:r], Vh[:r]
    return cut


def per_normal_patterns(points, cands, grid_points, wave, params, channels):
    """Reference trial_pattern_block: one kernel evaluation per candidate,
    contracted with the candidate's jump amplitude."""
    cidx = channel_indices(channels)
    nb, ncand = len(points), len(cands)
    out = np.empty((len(grid_points) * len(cidx), nb * ncand), dtype=complex)
    for q, (normal, iota) in enumerate(cands):
        K = trace_matrix_oracle(grid_points[None], points[:, None], normal, wave, params)
        amp = np.zeros(5)
        if iota == 1:
            amp[0:3] = normal
        else:
            amp[4] = 1.0
        out[:, q::ncand] = np.einsum("pnrc,r->pnc", K[..., cidx], amp).reshape(nb, -1).T
    return out


class TestTrialPattern:
    def test_fluid_monopole_pressure_rows(self, scene, wave, params):
        # the iota = 0 pattern radiates through the pressure kernels: its
        # pressure rows are the fluid-injection pressure of the point pair
        x0 = np.array([0.3, -0.7, 0.0])
        tp = inv.trial_pattern(
            x0, scene.sampling.normals[0], 0, scene.grid.points, wave, params,
            scene.channels,
        )
        C = len(scene.channels)
        p_rows = tp.vector.reshape(-1, C)[:, scene.channels.index("fluid")]
        for i in (0, 5, 17):
            expect = green_tensor(x0, scene.grid.points[i], wave, params).fluid_pressure
            assert p_rows[i] == pytest.approx(expect, rel=1e-13)

    def test_normal_flip_leaves_dipole_pattern_unchanged(self, scene, wave, params):
        # flipping the trial normal flips both the kernel and the jump
        # amplitude; the physical dislocation (and its pattern) is the same
        x0 = np.array([-0.6, 0.9, 0.0])
        n = scene.sampling.normals[1]
        a = inv.trial_pattern(x0, n, 1, scene.grid.points, wave, params, scene.channels)
        b = inv.trial_pattern(x0, -n, 1, scene.grid.points, wave, params, scene.channels)
        np.testing.assert_allclose(a.vector, b.vector, rtol=1e-13)

    def test_pattern_on_cell_matches_radiation_column(self, scene, wave, params):
        # a trial point on an actual fracture cell reproduces the matching
        # combination of radiation-operator columns (same kernel path)
        patch = scene.patches[0]
        centers, areas = patch.cells()
        cell = 3
        x0 = centers[cell]
        n = patch.normal
        tp = inv.trial_pattern(x0, n, 1, scene.grid.points, wave, params, scene.channels)
        R = fw._radiation_operator(scene, wave, params)
        cols = R[:, 5 * cell : 5 * cell + 3] @ n / areas[cell]
        np.testing.assert_allclose(tp.vector, cols, rtol=1e-12)

    @pytest.mark.parametrize(
        "fan",
        [
            "in-plane", "oblique", "monopole-only", "oblique-full", "fluid", "repeated",
            "off-plane", "reordered",
        ],
    )
    def test_normal_basis_matches_per_normal_kernel(self, scene, wave, params, fan):
        cands = scene.sampling.candidates()
        channels = scene.channels
        pts = scene.sampling.points()[:7]
        if fan in ("oblique", "oblique-full", "off-plane", "reordered"):
            n = np.array([0.3, -0.5, 0.8])
            cands = [(n / np.linalg.norm(n), 1), (np.array([0.0, 0.0, 1.0]), 1)] + cands
        if fan in ("oblique-full", "off-plane", "reordered"):
            # every (j, k) pair of the quadratic form, on all four channels
            m = np.array([-0.2, 0.7, 0.4])
            cands = [(m / np.linalg.norm(m), 1), (m / np.linalg.norm(m), 0)] + cands
            channels = resolve_channels("full")
        if fan == "off-plane":
            # the wells lie in z = 0: a sampling plane above them gives d_z != 0
            g = scene.sampling
            pts = build_sampling_grid(g.region, g.resolution, 4, (0, 1), plane_z=0.37).points()
            pts = pts[::5]
        elif fan == "reordered":
            channels = ("fluid", "fz", "fx")
        elif fan == "monopole-only":
            cands = [(n, iota) for n, iota in cands if iota == 0]
        elif fan == "fluid":
            channels = resolve_channels("fluid")
        elif fan == "repeated":
            cands = cands + [cands[-1], cands[0]]
        args = (pts, cands, scene.grid.points, wave, params, channels)
        np.testing.assert_allclose(
            inv.trial_pattern_block(*args), per_normal_patterns(*args), rtol=1e-13
        )

    def test_block_matches_single(self, scene, wave, params):
        pts = scene.sampling.points()[:3]
        cands = scene.sampling.candidates()
        block = inv.trial_pattern_block(
            pts, cands, scene.grid.points, wave, params, scene.channels
        )
        ncand = len(cands)
        for b in range(3):
            for ci, (n, iota) in enumerate(cands):
                single = inv.trial_pattern(
                    pts[b], n, iota, scene.grid.points, wave, params, scene.channels
                ).vector
                np.testing.assert_allclose(block[:, b * ncand + ci], single, rtol=1e-13)


class TestLambdaSharp:
    def test_one_by_one_rotation(self):
        np.testing.assert_allclose(inv.lambda_sharp(np.array([[1j]])), [[1.0]])

    def test_diagonal_case(self):
        np.testing.assert_allclose(inv.lambda_sharp(np.array([[1.0 + 1j]])), [[2.0]])

    def test_random_hermitian_psd(self, rng):
        L = random_operator(rng, 8)
        S = inv.lambda_sharp(L)
        assert np.abs(S - S.conj().T).max() <= 1e-12 * np.linalg.norm(S, 2)
        assert np.linalg.eigvalsh(S).min() >= -1e-12 * np.linalg.norm(S, 2)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 32))
    def test_hermitian_psd_property(self, seed, n):
        rng = np.random.default_rng(seed)
        S = inv.lambda_sharp(random_operator(rng, n))
        scale = np.linalg.norm(S, 2)
        assert np.abs(S - S.conj().T).max() <= 1e-12 * scale
        assert np.linalg.eigvalsh(S).min() >= -1e-12 * scale

    def test_sqrt_with_clamping(self, rng):
        L = random_operator(rng, 6)
        S = inv.lambda_sharp(L)
        H = inv.sqrt_psd(S)
        np.testing.assert_allclose(H @ H, clamp_psd(S), atol=1e-10 * np.linalg.norm(S, 2))


class TestTikhonov:
    def test_identity_closed_form(self):
        g = inv.tikhonov_solve(np.eye(2, dtype=complex), np.array([1.0, 0.0]), 1.0)
        np.testing.assert_allclose(g, [0.5, 0.0], rtol=1e-15)

    def test_small_eta_limit_inverts(self, rng):
        A = random_operator(rng, 5)
        x = rng.normal(size=5) + 1j * rng.normal(size=5)
        phi = A @ x
        g = inv.tikhonov_solve(A, phi, 1e-13)
        assert np.linalg.norm(g - x) / np.linalg.norm(x) < 1e-8

    def test_normal_equation_residual(self, rng):
        for _ in range(5):
            A = random_operator(rng, 6)
            phi = rng.normal(size=6) + 1j * rng.normal(size=6)
            eta = float(rng.uniform(0.01, 2.0))
            g = inv.tikhonov_solve(A, phi, eta)
            res = A.conj().T @ (A @ g) + eta * g - A.conj().T @ phi
            assert np.linalg.norm(res) / np.linalg.norm(A.conj().T @ phi) < 1e-10

    def test_minimizer_convexity_witness(self, rng):
        A = random_operator(rng, 6)
        phi = rng.normal(size=6) + 1j * rng.normal(size=6)
        eta = 0.3

        def J(g):
            return np.linalg.norm(A @ g - phi) ** 2 + eta * np.linalg.norm(g) ** 2

        g_star = inv.tikhonov_solve(A, phi, eta)
        for _ in range(10):
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            assert J(g_star + 1e-3 * v) > J(g_star)

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(DomainError):
            inv.tikhonov_solve(np.eye(2, dtype=complex), np.ones(2), 0.0)


class TestMorozov:
    def test_identity_closed_form_exact(self):
        for delta in (0.05, 0.4, 3e-4):
            res = inv.morozov_eta(np.eye(2, dtype=complex), np.array([1.0, 0]), delta)
            assert res.bracketed
            assert abs(res.eta - delta) <= 1e-14 * delta

    def test_discrepancy_satisfied(self, rng):
        for _ in range(5):
            A = random_operator(rng, 7)
            phi = rng.normal(size=7) + 1j * rng.normal(size=7)
            delta = float(rng.uniform(0.02, 0.3))
            res = inv.morozov_eta(A, phi, delta)
            assert res.bracketed
            g = inv.tikhonov_solve(A, phi, res.eta)
            lhs = np.linalg.norm(A @ g - phi)
            rhs = delta * np.linalg.norm(g)
            assert abs(lhs - rhs) <= 1e-6 * rhs

    def test_monotone_in_delta(self, rng):
        for _ in range(20):
            A = random_operator(rng, 6)
            phi = rng.normal(size=6) + 1j * rng.normal(size=6)
            e1 = inv.morozov_eta(A, phi, 0.05).eta
            e2 = inv.morozov_eta(A, phi, 0.10).eta
            assert e2 > e1

    def test_zero_rhs_rejected(self):
        with pytest.raises(DomainError):
            inv.morozov_eta(np.eye(3, dtype=complex), np.zeros(3), 0.1)

    def test_unbracketed_ends_returned(self):
        # columns: gap > 0 for every eta (rhs outside the column space),
        # a bracketed root, and gap < 0 for every eta (delta above the
        # bracket's reach)
        A = np.diag([1.0, 1.0, 0.0]).astype(complex)
        op = inv.SvdOperator(A)
        rhs = np.array([[0.0, 1.0], [0.0, 0.5], [1.0, 0.0]], dtype=complex)
        lo, hi = 1e-14, 1e8
        eta, side = inv._morozov_roots(op, *inv._projection(op, rhs), 0.1)
        assert side.tolist() == [-1, 0] and eta[0] == lo
        eta, side = inv._morozov_roots(op, *inv._projection(op, rhs[:, 1:]), 1e9)
        assert side.tolist() == [1] and eta[0] == hi
        low = inv.morozov_eta(A, rhs[:, 0], 0.1)
        high = inv.morozov_eta(A, rhs[:, 1], 1e9)
        assert (low.eta, low.bracketed) == (lo, False)
        assert (high.eta, high.bracketed) == (hi, False)

    def test_unbracketed_flagged(self):
        # a right-hand side orthogonal to the column space keeps the
        # residual above delta*||g|| for every eta
        A = np.diag([1.0, 1.0, 0.0]).astype(complex)
        phi = np.array([0.0, 0.0, 1.0])
        res = inv.morozov_eta(A, phi, 1e-6)
        assert not res.bracketed


@pytest.fixture(scope="module")
def desk_scale(params, wave):
    """The desk-scale scene, its clean operator and a noisy copy (delta 0.05)."""
    scene = desk_scale_scene()
    lam = fw.assemble_lambda(scene, wave, params, mode="local")
    return scene, lam, fw.inject_noise(lam, target_delta=0.05, seed=20240613)


@pytest.fixture(scope="module")
def desk_columns(desk_scale, params, wave):
    """Every (point, candidate) column of the desk-scale maps, and its
    projection on the clean operator and on the noisy one."""
    scene, lam, noisy = desk_scale
    pts, cands = scene.sampling.points(), scene.sampling.candidates()
    Phi = np.hstack([
        inv.trial_pattern_block(
            pts[s:s + 64], cands, scene.grid.points, wave, params, scene.channels
        )
        for s in range(0, len(pts), 64)
    ])
    out = {"Phi": Phi}
    for name, mat in (("clean", lam), ("noisy", noisy)):
        op = inv.SvdOperator(mat)
        out[name] = (op, inv._derive_delta(mat, op), *inv._projection(op, Phi))
    return out


@pytest.mark.parametrize("data", ["clean", "noisy"])
def test_vectorized_root_matches_brentq(desk_columns, data):
    # the oracle searches the gap of L's whole spectrum, with no rank cut
    op, delta, beta_sq, floors = desk_columns[data]
    eta, side = inv._morozov_roots(op, beta_sq, floors, delta)
    ref_eta, ref_side = brentq_roots(op.matrix, desk_columns["Phi"], delta)
    assert eta.size == 25600
    np.testing.assert_array_equal(side, ref_side)
    np.testing.assert_allclose(eta, ref_eta, rtol=1e-10)


class TestNumericalRange:
    """SvdOperator keeps L's numerical range only; the roots must not see
    the cut."""

    @staticmethod
    def rank3_noisy(rng):
        # a rank-3 8x8 operator with singular values 1, 0.5 and 1e-4, under
        # multiplicative noise (I + N) L
        Q1, Q2 = (np.linalg.qr(random_operator(rng, 8))[0] for _ in range(2))
        L = (Q1[:, :3] * [1.0, 0.5, 1e-4]) @ Q2[:, :3].conj().T
        return (np.eye(8) + 0.01 * random_operator(rng, 8)) @ L

    def test_rank_deficient_roots_match_full_spectrum(self, rng):
        A = self.rank3_noisy(rng)
        op = inv.SvdOperator(A)
        assert op.rank == 3 and np.linalg.svd(A, compute_uv=False)[3] < 1e-13 * op.norm2
        # columns in the range, plus a small part outside it
        rhs = A @ random_operator(rng, 8)[:, :6] + 1e-3 * random_operator(rng, 8)[:, :6]
        for delta in (0.05, 0.3, 2.0):
            eta, side = inv._morozov_roots(op, *inv._projection(op, rhs), delta)
            ref_eta, ref_side = brentq_roots(A, rhs, delta)
            np.testing.assert_array_equal(side, ref_side)
            np.testing.assert_allclose(eta, ref_eta, rtol=1e-12)
            assert np.any(side == 0)

    def test_rhs_outside_range_is_low_end(self, rng):
        A = self.rank3_noisy(rng)
        op = inv.SvdOperator(A)
        U = np.linalg.svd(A)[0]
        phi = U[:, 3:] @ random_operator(rng, 5)[:, 0]  # orthogonal to the range
        eta, side = inv._morozov_roots(op, *inv._projection(op, phi[:, None]), 0.1)
        assert side.tolist() == [-1] and eta[0] == 1e-14 * op.norm2**2
        res = inv.morozov_eta(A, phi, 0.1)
        assert (res.eta, res.bracketed) == (eta[0], False)

    def test_unbracketed_ends_keep_side_and_value(self, rng):
        # in one call: u_1 stays below the discrepancy at the high end, u_3
        # is bracketed, and a column outside the range is above it at the
        # low end
        A = self.rank3_noisy(rng)
        op = inv.SvdOperator(A)
        lo, hi = 1e-14 * op.norm2**2, 1e8 * op.norm2**2
        U = np.linalg.svd(A)[0]
        rhs = np.column_stack([U[:, 0], U[:, 2], U[:, 3:] @ random_operator(rng, 5)[:, 0]])
        delta = 1e9 * op.norm2
        eta, side = inv._morozov_roots(op, *inv._projection(op, rhs), delta)
        assert side.tolist() == [1, 0, -1] and (eta[0], eta[2]) == (hi, lo)
        # the full spectrum agrees on the columns in the range; on the third,
        # delta times its rounding singular values would outweigh lo
        ref_eta, ref_side = brentq_roots(A, rhs[:, :2], delta)
        assert ref_side.tolist() == [1, 0] and ref_eta[0] == hi
        assert eta[1] == pytest.approx(ref_eta[1], rel=1e-12)

    def test_zero_operator(self):
        op = inv.SvdOperator(np.zeros((4, 4), dtype=complex))
        assert op.rank == 0 and op.norm2 == 0.0
        res = inv.morozov_eta(op, np.ones(4), 0.1)
        assert res.eta == math.inf and res.bracketed is False

    def test_overflowed_norm_is_rejected(self):
        # ||L|| overflows to inf: the operator keeps its whole spectrum and
        # the bracket check rejects it, instead of a zero operator's eta = inf
        A = np.array([[1.7e308, 1.7e308], [0.0, 1.0]], dtype=complex)
        assert inv.SvdOperator(A).rank == 2
        with pytest.raises(DomainError, match="operator norm"):
            inv.morozov_eta(A, np.ones(2), 0.1)

    @pytest.mark.parametrize(
        "bad, at", [(math.inf, (0, 0)), (math.inf, (2, 0)), (math.nan, (1, 1))],
        ids=["inf-diagonal", "inf-below", "nan"],
    )
    def test_non_finite_operator_is_conditioning_error(self, bad, at):
        # checked before the SVD, which does not return on an infinite entry
        A = np.eye(3, dtype=complex)
        A[at] = bad
        calls = (
            inv.SvdOperator,
            lambda M: inv.morozov_eta(M, np.ones(3), 0.1),
            lambda M: inv.tikhonov_solve(M, np.ones(3), 0.1),
        )
        for call in calls:
            with pytest.raises(ConditioningError, match="non-finite"):
                call(A)

    @pytest.mark.parametrize("factor", [0.1, 10.0])
    def test_cut_sits_in_rounding(self, desk_columns, factor):
        # cutting the noisy desk L a decade either side of the tolerance
        # moves no root: the cut is not a tuning parameter
        op, delta, beta_sq, floors = desk_columns["noisy"]
        tol = max(op.matrix.shape) * np.finfo(float).eps * op.norm2
        cut = with_cut(op, factor * tol)
        assert cut.rank != op.rank
        eta, side = inv._morozov_roots(op, beta_sq, floors, delta)
        cut_proj = inv._projection(cut, desk_columns["Phi"])
        cut_eta, cut_side = inv._morozov_roots(cut, *cut_proj, delta)
        np.testing.assert_array_equal(cut_side, side)
        np.testing.assert_allclose(cut_eta, eta, rtol=1e-12)


class TestGlsm:
    def test_unit_closed_form(self):
        g = inv.glsm_solve(
            np.eye(2, dtype=complex), np.eye(2, dtype=complex),
            np.array([1.0, 0.0]), 1.0, 0.0,
        )
        np.testing.assert_allclose(g, [0.5, 0.0], rtol=1e-14)

    def test_linear_system_residual(self, rng):
        for _ in range(5):
            L = random_operator(rng, 8)
            sharp = inv.lambda_sharp(L)
            phi = rng.normal(size=8) + 1j * rng.normal(size=8)
            alpha, delta = float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.0, 0.2))
            g = inv.glsm_solve(L, sharp, phi, alpha, delta)
            half = inv.sqrt_psd(sharp)
            res = L.conj().T @ (L @ g - phi) + alpha * (
                half.conj().T @ (half @ g) + delta * g
            )
            assert np.linalg.norm(res) / np.linalg.norm(L.conj().T @ phi) < 1e-10

    def test_penalty_dominance(self, rng):
        L = random_operator(rng, 6)
        sharp = inv.lambda_sharp(L)
        phi = rng.normal(size=6) + 1j * rng.normal(size=6)
        norms = [
            np.linalg.norm(inv.glsm_solve(L, sharp, phi, alpha, 0.1))
            for alpha in (1.0, 1e2, 1e4, 1e6)
        ]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-4 * norms[0]

    def test_unitary_data_basis_invariance(self, rng):
        L = random_operator(rng, 6)
        sharp = inv.lambda_sharp(L)
        phi = rng.normal(size=6) + 1j * rng.normal(size=6)
        alpha, delta = 0.3, 0.05
        Q, _ = np.linalg.qr(random_operator(rng, 6))
        g = inv.glsm_solve(L, sharp, phi, alpha, delta)
        gq = inv.glsm_solve(Q @ L @ Q.conj().T, Q @ sharp @ Q.conj().T, Q @ phi, alpha, delta)

        def indicator(gv, sh):
            en = np.real(gv.conj() @ (clamp_psd(sh) @ gv)) + delta * np.linalg.norm(gv) ** 2
            return 1.0 / np.sqrt(en)

        v1 = indicator(g, sharp)
        v2 = indicator(gq, Q @ sharp @ Q.conj().T)
        assert v2 == pytest.approx(v1, rel=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_is_conditioning_error(self, rng, bad):
        L = random_operator(rng, 6)
        L[2, 3] = bad
        with pytest.raises(ConditioningError) as info, np.errstate(invalid="ignore"):
            inv.glsm_solve(L, np.eye(6, dtype=complex), np.ones(6), 0.3, 0.05)
        assert info.value.condition_number == math.inf


class TestGlsmPencil:
    """The SVD of the whitened operator L (L#_psd + delta I)^-1/2 against
    scipy's generalized eigh and sqrtm as oracles."""

    @pytest.mark.parametrize("where", ["L", "sharp"])
    def test_nan_input_is_numerical_error(self, rng, where):
        L, sharp = random_operator(rng, 6), np.eye(6, dtype=complex)
        (L if where == "L" else sharp)[2, 3] = np.nan
        with pytest.raises(NumericalError):
            inv.GlsmPencil(L, inv.lambda_sharp(L) if where == "L" else sharp, 0.05)

    @pytest.fixture(params=["random", "desk"])
    def case(self, request, rng, lam):
        if request.param == "random":
            L = random_operator(rng, 30)
            return L, 1e-3 * np.linalg.norm(L, 2)
        return lam.data, 1e-2 * np.linalg.norm(lam.data, 2)

    def test_joint_diagonalization(self, case):
        # on the kept range: the r largest eigenvalues of the pencil, descending
        L, delta = case
        sharp = inv.lambda_sharp(L)
        pencil = inv.GlsmPencil(L, sharp, delta)
        r = pencil.rank
        B = clamp_psd(sharp) + delta * np.eye(L.shape[1])
        A = L.conj().T @ L
        d_ref = scipy.linalg.eigh(A, B, eigvals_only=True)
        V = pencil.V_r
        scale = d_ref.max()
        assert np.abs(V.conj().T @ B @ V - np.eye(r)).max() <= 1e-10
        assert np.abs(V.conj().T @ A @ V - np.diag(pencil.d_r)).max() <= 1e-10 * scale
        assert np.abs(pencil.d_r - np.maximum(d_ref, 0.0)[::-1][:r]).max() <= 1e-10 * scale
        W = V.conj().T @ L.conj().T
        assert np.abs(pencil.W_r - W).max() <= 1e-10 * np.abs(W).max()

    def test_solves_as_close_to_direct_as_scipy_pencil(self, case, rng):
        L, delta = case
        sharp = inv.lambda_sharp(L)
        pencil = inv.GlsmPencil(L, sharp, delta)
        B = clamp_psd(sharp) + delta * np.eye(L.shape[1])
        A = L.conj().T @ L
        d_ref, V_ref = scipy.linalg.eigh(A, B)
        Phi = rng.normal(size=(L.shape[0], 40)) + 1j * rng.normal(size=(L.shape[0], 40))
        alphas = d_ref.max() * 10.0 ** rng.uniform(-7, -1, 40)
        direct = np.stack(
            [np.linalg.solve(A + a * B, L.conj().T @ Phi[:, j]) for j, a in enumerate(alphas)],
            axis=1,
        )
        oracle = V_ref @ (
            (V_ref.conj().T @ L.conj().T @ Phi) / (np.maximum(d_ref, 0.0)[:, None] + alphas)
        )

        def error(G):
            return (np.linalg.norm(G - direct, axis=0) / np.linalg.norm(direct, axis=0)).max()

        # both sit at the conditioning of A + alpha B; neither is the exact solution
        assert error(pencil.V_r @ pencil.coordinates(Phi, alphas)) <= 2.0 * error(oracle)

    @pytest.fixture(params=["random", "desk"])
    def deficient(self, request, rng, desk_scale):
        """A rank-deficient operator and its delta: random of rank 12 of
        30, or the noisy desk-scale L."""
        if request.param == "random":
            U, s, Vh = np.linalg.svd(random_operator(rng, 30))
            return (U[:, :12] * s[:12]) @ Vh[:12], 1e-3 * s[0]
        return desk_scale[2].data, desk_scale[2].delta

    @pytest.fixture()
    def ranged(self, deficient):
        """A pencil on a rank-deficient operator."""
        L, delta = deficient
        sharp = inv.lambda_sharp(L)
        return inv.GlsmPencil(L, sharp, delta), glsm_pencil_oracle(L, sharp, delta), sharp, delta

    def test_range_norm_through_triangular_factor(self, ranged, rng):
        # the kept range is the full pencil's, cut after its last direction
        pencil, (d, W, V), _, _ = ranged
        assert 0 < pencil.rank < d.size
        np.testing.assert_array_equal(pencil.d_r, d[: pencil.rank])
        np.testing.assert_array_equal(pencil.W_r, W[: pencil.rank])
        np.testing.assert_array_equal(pencil.V_r, V[:, : pencil.rank])
        Y = rng.normal(size=(pencil.rank, 40)) + 1j * rng.normal(size=(pencil.rank, 40))
        np.testing.assert_allclose(
            np.linalg.norm(pencil.T @ Y, axis=0), np.linalg.norm(pencil.V_r @ Y, axis=0),
            rtol=1e-13,
        )

    def test_range_energy_is_coordinate_norm(self, ranged, rng):
        # V_r^H (L#_psd + delta I) V_r = I: the penalty energy of V_r y is ||y||^2
        pencil, _, sharp, delta = ranged
        Y = rng.normal(size=(pencil.rank, 40)) + 1j * rng.normal(size=(pencil.rank, 40))
        np.testing.assert_allclose(
            glsm_indicator_oracle(pencil.V_r @ Y, sharp, delta), 1.0 / np.linalg.norm(Y, axis=0),
            rtol=1e-10,
        )

    def test_is_tikhonov_on_whitened_operator(self, deficient, rng):
        # with g = B h, B = (L#_psd + delta I)^-1/2, the penalized functional
        # is ||L B h - Phi||^2 + alpha ||h||^2: the coordinates y are h on the
        # range, so ||y|| = ||h|| and ||T y|| = ||g|| = ||B h||
        L, delta = deficient
        sharp = inv.lambda_sharp(L)
        pencil = inv.GlsmPencil(L, sharp, delta)
        B_ref = scipy.linalg.inv(scipy.linalg.sqrtm(clamp_psd(sharp) + delta * np.eye(L.shape[1])))
        Phi = rng.normal(size=(L.shape[0], 6)) + 1j * rng.normal(size=(L.shape[0], 6))
        for alpha in pencil.d_r[0] * 10.0 ** np.arange(-7, 0):  # six decades
            y = pencil.coordinates(Phi, alpha)
            h = inv.tikhonov_solve(L @ B_ref, Phi, alpha)
            np.testing.assert_allclose(
                np.linalg.norm(y, axis=0), np.linalg.norm(h, axis=0), rtol=1e-8
            )
            np.testing.assert_allclose(
                np.linalg.norm(pencil.T @ y, axis=0), np.linalg.norm(B_ref @ h, axis=0),
                rtol=1e-8,
            )

    def test_singular_penalty_is_numerical_error(self, rng):
        # delta = 0 with a zero eigenvalue of L#_psd: refused before B divides
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError):
                inv.GlsmPencil(random_operator(rng, 6), np.zeros((6, 6)), 0.0)

    def test_per_candidate_block_matches_full_pencil(self, desk_scale, wave, params):
        # reference: every (point, candidate) solution g on all n pencil
        # directions, its norm and its indicator from L#
        scene, _, noisy = desk_scale
        op = inv.SvdOperator(noisy)
        delta = inv._derive_delta(noisy, op)
        sharp = inv.lambda_sharp(noisy.data)
        pencil = inv.GlsmPencil(noisy.data, sharp, delta)
        pts, cands = scene.sampling.points()[:64], scene.sampling.candidates()
        gpts = scene.grid.points
        plan = inv._pattern_plan(*distinct_columns_oracle(cands), scene.channels)
        block = inv._eval_block(pts, plan, op, delta, gpts, wave, params, pencil)
        Phi = inv.trial_pattern_block(pts, cands, gpts, wave, params, scene.channels)
        etas, _ = inv._morozov_roots(op, *inv._projection(op, Phi), delta)
        alpha = inv.alpha_from_eta(etas, op.norm2, delta)
        d, W, V = glsm_pencil_oracle(noisy.data, sharp, delta)
        G = V @ ((W @ Phi) / (d[:, None] + alpha))
        best = np.argmin(np.linalg.norm(G, axis=0).reshape(len(pts), len(cands)), axis=1)
        win = np.arange(len(pts)) * len(cands) + best
        np.testing.assert_array_equal(block.argmin, best)
        np.testing.assert_allclose(
            block.vals, glsm_indicator_oracle(G[:, win], sharp, delta), rtol=1e-10
        )

    @pytest.mark.parametrize("alpha", [3e-4, 1e-8, 1e2])
    def test_fixed_block_matches_per_candidate_formulas(self, desk_scale, wave, params, alpha):
        # the fixed-alpha operator's block against the per-candidate path's
        # formulas at the same alpha: y from coordinates, ||g|| = ||T y||
        scene, _, noisy = desk_scale
        op = inv.SvdOperator(noisy)
        pencil = inv.GlsmPencil(noisy.data, inv.lambda_sharp(noisy.data), noisy.delta)
        pts, cands = scene.sampling.points()[:64], scene.sampling.candidates()
        gpts = scene.grid.points
        plan = inv._pattern_plan(*distinct_columns_oracle(cands), scene.channels)
        block = inv._eval_block(
            pts, plan, op, noisy.delta, gpts, wave, params, pencil, pencil.operator(alpha),
        )
        Y = pencil.coordinates(
            inv.trial_pattern_block(pts, cands, gpts, wave, params, scene.channels), alpha
        )
        norms = np.linalg.norm(pencil.T @ Y, axis=0).reshape(len(pts), len(cands))
        best = np.argmin(norms, axis=1)
        np.testing.assert_array_equal(block.argmin, best)
        win = np.arange(len(pts)) * len(cands) + best
        np.testing.assert_allclose(block.vals, 1.0 / np.linalg.norm(Y[:, win], axis=0), rtol=1e-12)


class TestGlsmCoincidence:
    def test_identity_penalty_reduces_to_reciprocal_norm(self, rng):
        # with delta = 0 and an identity penalty the indicator collapses
        # to 1/||g||, the plain sampling functional, and so does the
        # pencil's 1/||y||
        L = random_operator(rng, 5)
        phi = rng.normal(size=5) + 1j * rng.normal(size=5)
        g = inv.glsm_solve(L, np.eye(5, dtype=complex), phi, 0.7, 0.0)
        value = glsm_indicator_oracle(g, np.eye(5, dtype=complex), 0.0)
        assert value == pytest.approx(1.0 / np.linalg.norm(g), rel=1e-10)
        y = inv.GlsmPencil(L, np.eye(5, dtype=complex), 0.0).coordinates(phi, 0.7)
        assert 1.0 / np.linalg.norm(y) == pytest.approx(1.0 / np.linalg.norm(g), rel=1e-10)


class TestIndicatorScaling:
    def test_rhs_scaling_scales_solution_not_argmin(self, rng):
        A = random_operator(rng, 6)
        phi = rng.normal(size=6) + 1j * rng.normal(size=6)
        delta = 0.05
        eta1 = inv.morozov_eta(A, phi, delta).eta
        eta2 = inv.morozov_eta(A, 3.0 * phi, delta).eta
        assert eta2 == pytest.approx(eta1, rel=1e-10)
        g1 = inv.tikhonov_solve(A, phi, eta1)
        g2 = inv.tikhonov_solve(A, 3.0 * phi, eta2)
        assert np.linalg.norm(g2) == pytest.approx(3.0 * np.linalg.norm(g1), rel=1e-9)


def indicator_at(x0, cands, L, delta, scene, wave, params, sharp=None):
    """(value, winning candidate index) at one sampling point: the map's block
    evaluator on a one-point block, penalized when the L# operator sharp is given."""
    pencil = None if sharp is None else inv.GlsmPencil(L, sharp, delta)
    (value,), (best,) = inv._eval_block(
        np.reshape(x0, (1, 3)), inv._pattern_plan(*distinct_columns_oracle(cands), scene.channels),
        inv.SvdOperator(L), delta, scene.grid.points, wave, params, pencil=pencil,
    )
    return float(value), int(best)


class TestIndicatorAt:
    def test_single_candidate(self, scene, lam, wave, params):
        x0 = scene.sampling.points()[7]
        cands = [(scene.sampling.normals[0], 1)]
        value, _ = indicator_at(x0, cands, lam.data, 0.01, scene, wave, params)
        phi = inv.trial_pattern(
            x0, cands[0][0], 1, scene.grid.points, wave, params, scene.channels
        ).vector
        eta = inv.morozov_eta(lam.data, phi, 0.01).eta
        g = inv.tikhonov_solve(lam.data, phi, eta)
        assert value == pytest.approx(1.0 / np.linalg.norm(g), rel=1e-12)

    def test_duplicated_candidates_identical(self, scene, lam, wave, params):
        x0 = scene.sampling.points()[11]
        cands = scene.sampling.candidates()
        value1, best1 = indicator_at(x0, cands, lam.data, 0.01, scene, wave, params)
        value2, best2 = indicator_at(x0, cands + cands, lam.data, 0.01, scene, wave, params)
        assert value1 == value2
        assert best1 == best2

    def test_first_of_equal_monopoles_wins(self, scene, lam, wave, params):
        # every iota = 0 candidate has the same pattern, whatever its
        # normal: the tie goes to the first of them
        x0 = scene.sampling.points()[11]
        monopoles = [(n, 0) for n in scene.sampling.normals]
        for sharp in (None, inv.lambda_sharp(lam.data)):
            one, _ = indicator_at(x0, monopoles[:1], lam.data, 0.01, scene, wave, params, sharp)
            value, best = indicator_at(x0, monopoles, lam.data, 0.01, scene, wave, params, sharp)
            assert best == 0
            assert value == one and np.isfinite(value)


class TestIndicatorMap:
    def test_map_matches_per_point_calls(self, scene, lam, wave, params):
        imap = inv.indicator_map(scene, lam, "lsm", wave, params)
        pts = scene.sampling.points()
        cands = scene.sampling.candidates()
        for b in (0, 13, 35):
            value, best = indicator_at(pts[b], cands, lam.data, imap.delta, scene, wave, params)
            assert imap.raw[b] == pytest.approx(value, rel=1e-9)
            assert imap.argmin_iota[b] == cands[best][1]

    @pytest.mark.parametrize("policy", ["per-candidate", "fixed"])
    def test_one_plan_per_map(self, scene, lam, wave, params, monkeypatch, policy):
        # the grid's pattern plan is built once per map, not per block:
        # blocks of 8 points split the 36 into 5, and the fixed policy's
        # centre column reads the same plan
        calls = {"_grid_plan": 0, "_pattern_plan": 0}
        for name in calls:
            def counted(*args, _fn=getattr(inv, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(inv, name, counted)
        monkeypatch.setattr(inv, "_BLOCK", 8)
        imap = inv.indicator_map(scene, lam, "glsm", wave, params, alpha_policy=policy)
        assert np.isfinite(imap.raw).all()
        assert calls == {"_grid_plan": 1, "_pattern_plan": 1}

    @pytest.mark.parametrize("n_dir", [1, 8])
    @pytest.mark.parametrize("iotas", [(0, 1), (0,), (1,), (1, 0)])
    @pytest.mark.parametrize("channels", ["in-plane", "full"])
    def test_grid_plan_matches_distinct_columns(self, n_dir, iotas, channels):
        # the plan built from the grid's structure against the columns that
        # keying every candidate finds: same columns, order and inverse
        grid = build_sampling_grid((-1, 1, -1, 1), (2, 2), n_dir, iotas)
        channels = resolve_channels(channels)
        plan = inv._grid_plan(grid, channels)
        ref = inv._pattern_plan(*distinct_columns_oracle(grid.candidates()), channels)
        np.testing.assert_array_equal(plan.coef, ref.coef)
        assert (plan.pairs, plan.channels) == (ref.pairs, ref.channels)
        np.testing.assert_array_equal(plan.inverse, ref.inverse)
        assert plan.inverse.dtype == ref.inverse.dtype

    @pytest.mark.parametrize("fine", [False, True], ids=["desk", "fine-grid"])
    def test_saved_grid_equals_loaded(self, desk_scale, wave, params, tmp_path, fine):
        # the header holds the grid's five numbers, so a map reloads to an
        # equal grid: the desk LSM map, and the 80x80 fixed-alpha GLSM map
        scene, _, noisy = desk_scale
        method, policy = ("glsm", "fixed") if fine else ("lsm", "per-candidate")
        if fine:
            sampling = dataclasses.replace(scene.sampling, resolution=(80, 80))
            scene = dataclasses.replace(scene, sampling=sampling)
        imap = inv.indicator_map(scene, noisy, method, wave, params, alpha_policy=policy)
        path = tmp_path / "map.csv"
        inv.save_indicator_map(imap, path)
        assert inv.load_indicator_map(path).grid == imap.grid

    @pytest.mark.parametrize("shape", [(73, 576), (73, 64)], ids=["73x576", "73x64"])
    def test_norms_sq_is_einsum_form(self, rng, shape):
        # the squared column norms of the fixed-alpha z (73 x 576 on a
        # 64-point block of 9 distinct columns) and of the winners' y, bit
        # for bit as the sum of products over both float views
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a *= rng.lognormal(0.0, 3.0, size=shape)
        ref = np.einsum("ij,ij->j", a.view(float), a.view(float)).reshape(-1, 2).sum(axis=1)
        np.testing.assert_array_equal(inv._norms_sq(a), ref)
        np.testing.assert_allclose(inv._norms_sq(a), np.linalg.norm(a, axis=0) ** 2, rtol=1e-13)

    def test_matrix_of_other_scene_rejected(self, scene, lam, wave, params):
        # the sensing-point count, channels and omega match; the material does not
        other = dataclasses.replace(params, mu=2.0 * params.mu)
        digest = fw._scene_digest(scene, other)
        with pytest.raises(CompatibilityError, match=f"{lam.scene}.*{digest}"):
            inv.indicator_map(scene, lam, "lsm", wave, other)
        # a matrix that records no scene is not checked
        unbound = dataclasses.replace(lam, scene=None)
        imap = inv.indicator_map(scene, unbound, "lsm", wave, other)
        np.testing.assert_array_equal(imap.raw, inv.indicator_map(scene, lam.data, "lsm", wave, other).raw)

    def test_glsm_map_matches_direct_solves(self, scene, lam, wave, params):
        imap = inv.indicator_map(scene, lam, "glsm", wave, params)
        pts = scene.sampling.points()
        cands = scene.sampling.candidates()
        sharp = inv.lambda_sharp(lam.data)
        for b in (5, 22):
            value, _ = indicator_at(pts[b], cands, lam.data, imap.delta, scene, wave, params, sharp)
            assert imap.raw[b] == pytest.approx(value, rel=1e-5)

    def test_lsm_map_matches_primitives(self, scene, lam, wave, params):
        imap = inv.indicator_map(scene, lam, "lsm", wave, params)
        pts = scene.sampling.points()
        cands = scene.sampling.candidates()
        for b in (2, 19, 30):
            norms = []
            for n, iota in cands:
                phi = inv.trial_pattern(
                    pts[b], n, iota, scene.grid.points, wave, params, scene.channels
                ).vector
                eta = inv.morozov_eta(lam.data, phi, imap.delta).eta
                norms.append(np.linalg.norm(inv.tikhonov_solve(lam.data, phi, eta)))
            best = int(np.argmin(norms))
            assert imap.raw[b] == pytest.approx(1.0 / norms[best], rel=1e-9)
            assert imap.argmin_iota[b] == cands[best][1]

    def test_dipole_normals_compete(self, scene, lam, wave, params):
        # dipoles alone: each point's winner is the normal of least ||g||
        g = scene.sampling
        dipoles = dataclasses.replace(
            scene, sampling=build_sampling_grid(g.region, g.resolution, 4, (1,))
        )
        imap = inv.indicator_map(dipoles, lam, "lsm", wave, params)
        op = inv.SvdOperator(lam)
        Phi = per_normal_patterns(
            g.points(), dipoles.sampling.candidates(), scene.grid.points, wave, params,
            scene.channels,
        )
        norms = [
            np.linalg.norm(inv.tikhonov_solve(op, phi, inv.morozov_eta(op, phi, imap.delta).eta))
            for phi in Phi.T
        ]
        ref = np.argmin(np.reshape(norms, (g.point_count, 4)), axis=1)
        assert len(set(ref)) > 1
        np.testing.assert_array_equal(imap.argmin_normal, ref)

    def test_glsm_map_matches_primitives(self, scene, lam, wave, params):
        # the clean operator (cond L ~ 1e16) at its discrepancy weights too
        noisy = fw.inject_noise(lam, target_delta=0.05, seed=3)
        pts = scene.sampling.points()
        cands = scene.sampling.candidates()
        for data in (noisy, lam):
            imap = inv.indicator_map(scene, data, "glsm", wave, params)
            L, delta = data.data, imap.delta
            sharp = inv.lambda_sharp(L)
            sharp_psd = clamp_psd(sharp)
            norm_l = np.linalg.norm(L, 2)
            for b in (8, 27):
                sols = []
                for n, iota in cands:
                    phi = inv.trial_pattern(
                        pts[b], n, iota, scene.grid.points, wave, params, scene.channels
                    ).vector
                    alpha = inv.morozov_eta(L, phi, delta).eta / (norm_l + delta)
                    sols.append(inv.glsm_solve(L, sharp, phi, alpha, delta))
                g = min(sols, key=np.linalg.norm)
                energy = np.real(g.conj() @ sharp_psd @ g) + delta * np.linalg.norm(g) ** 2
                assert imap.raw[b] == pytest.approx(1.0 / np.sqrt(energy), rel=1e-5)

    def test_empty_scene_degenerate_map(self, wave, params):
        grid = build_sensing_grid([[[-1, -1, 0], [1, -1, 0]]], 5)
        sampling = build_sampling_grid((-1, 1, 0, 1), (3, 2), 2, (0, 1))
        scene0 = Scene(grid=grid, patches=(), sampling=sampling, channels="in-plane")
        lam0 = fw.assemble_lambda(scene0, wave, params)
        imap = inv.indicator_map(scene0, lam0, "lsm", wave, params)
        assert imap.degenerate_count == sampling.point_count

    def test_fixed_alpha_policy_runs(self, scene, lam, wave, params):
        imap = inv.indicator_map(
            scene, lam, "glsm", wave, params, alpha_policy="fixed"
        )
        assert np.isfinite(imap.raw).all()

    @pytest.mark.parametrize(
        "method, kwargs, error, message",
        [("lsm", {"alpha_policy": "fixed"}, DomainError, "applies to glsm only"),
         ("lsm", {"alpha_policy": "fixed", "fixed_alpha": 1e-3}, TypeError, "'fixed_alpha'"),
         ("lsm", {"fixed_alpha": 1e-3}, TypeError, "'fixed_alpha'"),
         ("glsm", {"fixed_alpha": 1e-3}, TypeError, "'fixed_alpha'")],
        ids=["lsm-fixed", "lsm-fixed-alpha", "lsm-alpha-only", "glsm-alpha-only"],
    )
    def test_fixed_alpha_refused_where_unused(
        self, scene, lam, wave, params, method, kwargs, error, message
    ):
        # lsm takes each candidate's alpha from its root, so the fixed policy
        # is refused there; that policy's one alpha comes from the roots at
        # the grid centre, so no alpha is taken in, under either method
        with pytest.raises(error, match=message):
            inv.indicator_map(scene, lam, method, wave, params, **kwargs)

    def test_fixed_alpha_map_matches_pencil_solves(self, scene, lam, wave, params):
        # reference: the pencil's solutions g = V_r y at the map's one alpha,
        # block by block, and their indicators in the L# energy form
        with ledger.record() as rec:
            imap = inv.indicator_map(scene, lam, "glsm", wave, params, alpha_policy="fixed")
        alpha = rec["fixed_alpha"]
        sharp = inv.lambda_sharp(lam.data)
        pencil = inv.GlsmPencil(lam.data, sharp, imap.delta)
        pts, cands = scene.sampling.points(), scene.sampling.candidates()
        ref = []
        for s in range(0, len(pts), 16):
            Phi = inv.trial_pattern_block(
                pts[s:s + 16], cands, scene.grid.points, wave, params, scene.channels
            )
            G = (pencil.V_r @ pencil.coordinates(Phi, alpha)).reshape(Phi.shape[0], -1, len(cands))
            best = np.argmin(np.linalg.norm(G, axis=0), axis=1)
            ref.extend(glsm_indicator_oracle(G[:, np.arange(best.size), best], sharp, imap.delta))
        np.testing.assert_allclose(imap.raw, ref, rtol=1e-10)

    def test_fixed_alpha_from_grid_centre(self, scene, lam, wave, params):
        # the fixed policy's alpha is the median-root alpha at a sampling
        # point nearest the region's centre: on this 6 x 6 grid one of the
        # four around it, not the middle entry of the point list (the left edge)
        with ledger.record() as rec:
            imap = inv.indicator_map(scene, lam, "glsm", wave, params, alpha_policy="fixed")
        alpha = rec["fixed_alpha"]
        pts, cands = scene.sampling.points(), scene.sampling.candidates()
        xmin, xmax, ymin, ymax = scene.sampling.region
        dist = np.hypot(pts[:, 0] - (xmin + xmax) / 2, pts[:, 1] - (ymin + ymax) / 2)
        nearest = np.flatnonzero(np.isclose(dist, dist.min()))
        assert nearest.size == 4 and len(pts) // 2 not in nearest

        def alpha_at(k):
            etas = [
                inv.morozov_eta(lam.data, inv.trial_pattern(
                    pts[k], n, iota, scene.grid.points, wave, params, scene.channels
                ).vector, imap.delta).eta
                for n, iota in cands
            ]
            return inv.alpha_from_eta(np.median(etas), np.linalg.norm(lam.data, 2), imap.delta)

        assert any(alpha == pytest.approx(alpha_at(k), rel=1e-9) for k in nearest)
        assert alpha != pytest.approx(alpha_at(len(pts) // 2), rel=1e-2)

    def test_acceptance_maps_raise_no_floating_point_warning(self, desk_scale, wave, params):
        # the six maps of the acceptance fixture (desk clean and noisy, and
        # the fluid-channel scene, each by LSM and GLSM) with no warning
        # filter: the pytest config turns a numpy overflow, invalid value or
        # division by zero on this path into a failure
        scene, lam, noisy = desk_scale
        fluid = desk_scale_scene(channels="fluid")
        fluid_lam = fw.assemble_lambda(fluid, wave, params, mode="local")
        for sc, mat in ((scene, lam), (scene, noisy), (fluid, fluid_lam)):
            for method in ("lsm", "glsm"):
                imap = inv.indicator_map(sc, mat, method, wave, params)
                assert np.isfinite(imap.raw).all()

    def test_glsm_block_transients_level_with_lsm(self, desk_scale, wave, params):
        # a per-candidate GLSM block works in the pencil's r coordinates and
        # forms no full-size solution block: its tracemalloc peak on 64
        # desk-scale points stays within 1.2 times the LSM block's
        scene, _, noisy = desk_scale
        op = inv.SvdOperator(noisy)
        pencil = inv.GlsmPencil(noisy.data, inv.lambda_sharp(noisy.data), noisy.delta)
        pts, cands = scene.sampling.points()[:64], scene.sampling.candidates()

        def peak(pencil):
            plan = inv._pattern_plan(*distinct_columns_oracle(cands), scene.channels)
            args = (pts, plan, op, noisy.delta, scene.grid.points, wave, params)
            inv._eval_block(*args, pencil)  # warm any per-(wave, params) caches
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                inv._eval_block(*args, pencil)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(pencil) <= 1.2 * peak(None)

    def test_values_nonnegative_and_normalized(self, scene, lam, wave, params):
        imap = inv.indicator_map(scene, lam, "lsm", wave, params)
        finite = np.isfinite(imap.raw)
        assert (imap.raw[finite] >= 0).all()
        assert np.nanmax(imap.normalized) == pytest.approx(1.0)
        assert imap.raw_max == pytest.approx(np.nanmax(imap.raw))

    def test_map_roundtrip(self, scene, lam, wave, params, tmp_path):
        imap = inv.indicator_map(scene, lam, "lsm", wave, params)
        path = tmp_path / "map.csv"
        inv.save_indicator_map(imap, path)
        back = inv.load_indicator_map(path)
        np.testing.assert_array_equal(back.raw, imap.raw)
        np.testing.assert_array_equal(back.normalized, imap.normalized)
        np.testing.assert_array_equal(back.argmin_normal, imap.argmin_normal)
        assert back.method == imap.method
        assert back.delta == imap.delta
        # a map written without plane_z reads at plane 0
        lines = path.read_text(encoding="ascii").splitlines(keepends=True)
        path.write_text("".join(x for x in lines if not x.startswith("# plane_z")))
        flat = inv.load_indicator_map(path)
        assert flat.grid.plane_z == 0.0
        np.testing.assert_array_equal(flat.raw, imap.raw)

    @pytest.mark.parametrize(
        "edit, cause",
        [
            (lambda lines: [x for x in lines if not x.startswith("# region")],
             "missing header field 'region'"),
            (lambda lines: [x.replace("n_dir = 2", "n_dir = two") for x in lines],
             "bad header value n_dir = 'two'"),
            (lambda lines: lines[:-1] + ["0.5,1,0.25"], "unparsable map row '0.5,1,0.25'"),
            (lambda lines: lines[:-1] + ["0.5,1,0.25,1,0,1,7"], "unparsable map row"),
            (lambda lines: lines[:-1] + ["0.5,1,x,1,0,1"], "unparsable map row"),
            (lambda lines: lines[:-1], "5 rows for a grid of 6 points"),
            (lambda lines: lines + lines[-1:], "7 rows for a grid of 6 points"),
            (lambda lines: [x.replace("lsm", "l\xe9m") for x in lines], "not an ASCII text file"),
            (lambda lines: [x.replace("region = -1,1,-1,1", "region = -1,1,1,-1") for x in lines],
             "bad grid header (sampling region"),
            (lambda lines: [x.replace("n_dir = 2", "n_dir = 20000") for x in lines],
             "bad grid header (n_dir must be between 1 and 1024, got 20000)"),
        ],
        ids=["no-region", "bad-n_dir", "short-row", "long-row", "bad-raw", "rows-5", "rows-7",
             "non-ascii", "flipped-region", "n_dir-20000"],
    )
    def test_malformed_map_file_is_compatibility_error(self, tmp_path, edit, cause):
        grid = build_sampling_grid((-1.0, 1.0, -1.0, 1.0), (2, 3), 2, (0, 1))
        imap = inv.IndicatorMap(
            method="lsm", omega=3.91, delta=0.05, grid=grid,
            raw=np.linspace(0.5, 1.0, 6), argmin_normal=np.zeros(6, dtype=int),
            argmin_iota=np.ones(6, dtype=int),
        )
        path = tmp_path / "map.csv"
        inv.save_indicator_map(imap, path)
        lines = path.read_text(encoding="ascii").splitlines()
        np.testing.assert_array_equal(inv.load_indicator_map(path).raw, imap.raw)
        path.write_text("\n".join(edit(lines)) + "\n", encoding="latin-1")
        t0 = time.perf_counter()
        with pytest.raises(CompatibilityError, match=re.escape(cause)):
            inv.load_indicator_map(path)
        assert time.perf_counter() - t0 < 0.1  # 14.8 s at n_dir 20000 without a bound

    def test_map_with_nan_rows_roundtrips_in_one_pass(self, tmp_path, forward_opens):
        # degenerate points write 'nan' rows, which the one-pass parse reads
        # (forward opens the file once, as bytes)
        grid = build_sampling_grid((-1.0, 1.0, -1.0, 1.0), (2, 3), 2, (0, 1))
        raw = np.array([0.5, np.nan, 1.0 / 3.0, np.nan, 1.0, 7e-300])
        found = np.isfinite(raw)
        imap = inv.IndicatorMap(
            method="glsm", omega=3.91, delta=0.05, grid=grid, raw=raw,
            argmin_normal=np.where(found, 1, -1), argmin_iota=np.where(found, 0, -1),
        )
        path = tmp_path / "map.csv"
        inv.save_indicator_map(imap, path)
        forward_opens.clear()
        back = inv.load_indicator_map(path)
        assert forward_opens == ["rb"]
        assert back.raw.view(np.int64).tolist() == raw.view(np.int64).tolist()
        np.testing.assert_array_equal(back.argmin_normal, imap.argmin_normal)
        np.testing.assert_array_equal(back.argmin_iota, imap.argmin_iota)
        assert back.normalized.view(np.int64).tolist() == imap.normalized.view(np.int64).tolist()
        again = tmp_path / "again.csv"
        inv.save_indicator_map(back, again)
        assert again.read_bytes() == path.read_bytes()


class TestSymmetrizedFactorization:
    def test_vanishing_attenuation_limit(self, params, scene):
        # with a very large permeability the coupling coefficient becomes
        # essentially real and the conjugated-coupling radiation operator
        # coincides with the plain transposed one: the assembled operator
        # equals the unconjugated triple product
        big_kappa = dataclasses.replace(params, kappa=1e10)
        w = solve_dispersion(big_kappa, 3.91)
        assert w.gamma.imag < 1e-9 * abs(w.gamma)
        lam = fw.assemble_lambda(scene, w, big_kappa, mode="local")
        S = fw._trace_operator(scene, w, big_kappa)
        cells = fw._collect_cells(scene.patches)
        W = np.repeat(cells.areas, 5)
        T = fw._local_transfer(scene.patches, w.omega)
        nc = S.shape[0] // 5
        TS = np.einsum("cij,cjk->cik", T, S.reshape(nc, 5, -1)).reshape(5 * nc, -1)
        product = (W[:, None] * S).T @ TS  # S^T W T S, no conjugation
        assert np.linalg.norm(lam.data - product) <= 1e-8 * np.linalg.norm(lam.data)
