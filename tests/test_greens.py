import dataclasses
import math

import numpy as np
import pytest

from poroscat.errors import DomainError, SingularityError
from poroscat.greens import (  # biot_residual is also the acceptance suite's oracle
    _dislocation_trace_matrix,
    _radial_stack,
    _trace_matrix,
    biot_residual,
    dislocation_trace_kernel,
    green_tensor,
    trace_kernel,
)
from poroscat.material import solve_dispersion

from oracles import dislocation_trace_oracle, trace_matrix_oracle


def radial(k, r, order=0):
    """order-th radial derivative of exp(ikr)/(4 pi r), from the radial stack."""
    return _radial_stack(complex(k), np.asarray(r, dtype=float), order)[..., order]


class TestHelmholtzKernel:
    def test_direct_substitution(self):
        assert radial(1j, 1.0) == pytest.approx(math.exp(-1.0) / (4 * math.pi), rel=1e-15)

    def test_first_derivative_matches_finite_difference(self):
        k, r, h = 2 + 0.1j, 1.3, 1e-6
        fd = (radial(k, r + h) - radial(k, r - h)) / (2 * h)
        assert abs(fd - radial(k, r, 1)) / abs(fd) < 1e-8

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_higher_derivatives_match_finite_difference(self, order):
        k, r, h = 1.5 + 0.4j, 0.9, 1e-4
        fd = (radial(k, r + h, order - 1) - radial(k, r - h, order - 1)) / (2 * h)
        assert abs(fd - radial(k, r, order)) / abs(fd) < 1e-6

    def test_decay_monotone(self):
        k = 0.8 + 0.5j
        r = np.linspace(2.0 / k.imag, 10.0 / k.imag, 50)
        mags = np.abs(radial(k, r))
        assert np.all(np.diff(mags) < 0)

    def test_singularity_rejected(self, wave, params):
        # the kernels built on the radial stack refuse r = 0
        y = np.array([0.2, -0.1, 0.0])
        with pytest.raises(SingularityError):
            _trace_matrix(y, y, np.array([0.0, 0.0, 1.0]), wave, params)


class TestGreenTensor:
    def test_fluid_displacement_is_negated_force_pressure(self, wave, params, rng):
        for _ in range(5):
            y, xi = rng.normal(size=3), rng.normal(size=3)
            g = green_tensor(y, xi, wave, params)
            assert np.array_equal(g.fluid_displacement, -g.force_pressure)

    def test_reciprocity_of_displacement_block(self, wave, params, rng):
        for _ in range(50):
            y, xi = rng.normal(size=3), rng.normal(size=3)
            a = green_tensor(y, xi, wave, params).force_displacement
            b = green_tensor(xi, y, wave, params).force_displacement
            assert np.abs(a - b.T).max() <= 1e-12 * np.abs(a).max()

    def test_coincident_points_rejected(self, wave, params):
        with pytest.raises(SingularityError):
            green_tensor([1.0, 0, 0], [1.0, 0, 0], wave, params)

    def test_biot_residual_all_columns(self, wave, params, rng):
        worst = 0.0
        for _ in range(20):
            xi = rng.normal(size=3)
            xi *= rng.uniform(0.5, 3.0) / np.linalg.norm(xi)
            for col in range(4):
                worst = max(worst, biot_residual(np.zeros(3), xi, col, wave, params))
        assert worst < 1e-4

    def test_modal_decay_rates(self, wave):
        # far-field decay of each modal kernel matches Im(k) within 2%;
        # the slow compressional mode is skipped when overdamped
        for k in (wave.k_s, wave.k_p1, wave.k_p2):
            if k.imag > k.real:  # overdamped
                continue
            r = np.linspace(5.0 / k.imag, 10.0 / k.imag, 40)
            logs = np.log(np.abs(radial(k, r)) * 4 * np.pi * r)
            slope = np.polyfit(r, logs, 1)[0]
            assert abs(-slope - k.imag) / k.imag < 0.02

    def test_smoothness_away_from_source(self, wave, params):
        # second differences stay bounded over r in [0.5, 3]
        y = np.zeros(3)
        direction = np.array([0.6, 0.64, 0.48])
        h = 1e-3
        for r in np.linspace(0.5, 3.0, 7):
            xi = r * direction
            gp = green_tensor(y, xi + h * direction, wave, params).matrix
            g0 = green_tensor(y, xi, wave, params).matrix
            gm = green_tensor(y, xi - h * direction, wave, params).matrix
            second = np.abs(gp - 2 * g0 + gm).max() / h**2
            assert np.isfinite(second)
            assert second < 1e4 * max(np.abs(g0).max(), 1.0)


class TestTraceKernel:
    @pytest.mark.parametrize("spread", ["near", "far"])
    def test_matches_tensor_oracle(self, spread, wave, params, rng):
        # the rows written from their scalar radial coefficients against the
        # tensor form (Hessians and third derivatives contracted afterwards),
        # at separations from a thousandth of a unit to well past the
        # slow-wave decay length
        lo, hi = (1e-3, 0.5) if spread == "near" else (0.5, 20.0)
        y = rng.uniform(-2.0, 2.0, (300, 3))
        xi = y + _unit(rng.normal(size=y.shape)) * np.exp(
            rng.uniform(math.log(lo), math.log(hi), (300, 1))
        )
        n = _unit(rng.normal(size=y.shape))
        K = _trace_matrix(y, xi, n, wave, params)
        ref = trace_matrix_oracle(y, xi, n, wave, params)
        dev = np.linalg.norm(K - ref, axis=(1, 2))
        assert np.all(dev <= 1e-13 * np.linalg.norm(ref, axis=(1, 2)))

    def test_normal_flip_signs(self, wave, params, rng):
        y, xi = np.array([0.1, -0.2, 0.3]), np.array([1.0, 0.6, -0.4])
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        kp = trace_kernel(y, xi, n, wave, params)
        km = trace_kernel(y, xi, -n, wave, params)
        np.testing.assert_array_equal(km[0:3], -kp[0:3])  # traction rows flip
        np.testing.assert_array_equal(km[3], -kp[3])      # flow row flips
        np.testing.assert_array_equal(km[4], kp[4])       # pressure row unchanged

    def test_traction_matches_finite_difference(self, wave, params, rng):
        y, xi = np.array([0.1, -0.2, 0.3]), np.array([0.9, 0.5, -0.4])
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        K = trace_kernel(y, xi, n, wave, params)
        h = 1e-5
        J = np.zeros((3, 4, 4), complex)
        for k in range(3):
            e = np.eye(3)[k]
            J[k] = (
                green_tensor(y, xi + h * e, wave, params).matrix
                - green_tensor(y, xi - h * e, wave, params).matrix
            ) / (2 * h)
        g0 = green_tensor(y, xi, wave, params).matrix
        for col in range(4):
            gu = J[:, :3, col]
            t_fd = (
                params.lam * n * np.trace(gu)
                + params.mu * (n @ gu + gu @ n)
                - params.alpha * g0[3, col] * n
            )
            err = np.linalg.norm(K[:3, col] - t_fd) / np.linalg.norm(t_fd)
            assert err < 1e-6

    def test_flow_row_matches_finite_difference(self, wave, params, rng):
        # q = (grad p . n - rho_f omega^2 u . n) / (gamma omega^2) for every
        # source column, from central differences of the point-source tensor
        y, xi = np.array([0.1, -0.2, 0.3]), np.array([0.9, 0.5, -0.4])
        n = _unit(rng.normal(size=3))
        K = trace_kernel(y, xi, n, wave, params)
        h = 1e-5
        dp = (
            green_tensor(y, xi + h * n, wave, params).matrix[3]
            - green_tensor(y, xi - h * n, wave, params).matrix[3]
        ) / (2 * h)
        u_n = n @ green_tensor(y, xi, wave, params).matrix[:3]
        q_fd = (dp - params.rho_f * wave.omega**2 * u_n) / (wave.gamma * wave.omega**2)
        np.testing.assert_allclose(K[3], q_fd, rtol=1e-6)

    def test_flow_row_reduction_without_solid_coupling(self, wave, params):
        # alpha = 0 and vanishing rho_f reduce the flow row to grad(p).n;
        # only the fluid column keeps a live pressure field in this limit,
        # and only within the diffusion length of the slow mode
        p0 = dataclasses.replace(params, alpha=0.0, rho_f=1e-30)
        w0 = solve_dispersion(p0, wave.omega)
        y = np.zeros(3)
        xi = np.array([0.8, 0.1, 0.5]) * (0.5 / w0.k_p2.imag) / 0.9434
        n = np.array([0.0, 0.0, 1.0])
        K = trace_kernel(y, xi, n, w0, p0)
        h = 2e-7
        dp = (
            green_tensor(y, xi + h * n, w0, p0).matrix[3, 3]
            - green_tensor(y, xi - h * n, w0, p0).matrix[3, 3]
        ) / (2 * h)
        expect = dp / (w0.gamma * w0.omega**2)
        assert abs(K[3, 3] - expect) / abs(expect) < 1e-6
        # force-source flow entries vanish with the coupling
        assert np.abs(K[3, :3]).max() < 1e-12 * abs(K[3, 3])

    def test_pressure_row_equals_green_pressure(self, wave, params):
        y, xi = np.zeros(3), np.array([0.7, -0.3, 0.2])
        n = np.array([1.0, 0.0, 0.0])
        K = trace_kernel(y, xi, n, wave, params)
        g = green_tensor(y, xi, wave, params).matrix
        np.testing.assert_array_equal(K[4, :3], g[3, :3])
        assert K[4, 3] == g[3, 3]

    def test_non_unit_normal_rejected(self, wave, params):
        with pytest.raises(DomainError):
            trace_kernel(np.zeros(3), np.ones(3), [1.0, 1.0, 0.0], wave, params)


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _separated_pairs(rng, count=400, bound=2.0, gap=0.1):
    y, z = rng.uniform(-bound, bound, (2, count, 3))
    keep = np.linalg.norm(y - z, axis=1) > gap
    return y[keep], z[keep]


def _assert_matches_oracle(y, n, z, nu, wave, params):
    B = _dislocation_trace_matrix(y, n, z, nu, wave, params)
    ref = dislocation_trace_oracle(y, n, z, nu, wave, params)
    dev = np.linalg.norm(B - ref, axis=(1, 2))
    assert np.all(dev <= 1e-13 * np.linalg.norm(ref, axis=(1, 2)))


class TestDislocationKernel:
    @pytest.mark.parametrize("medium", ["pecos", "high-permeability", "fluid-decoupled"])
    def test_matches_tensor_oracle(self, medium, wave, params, rng):
        # the closed-form contractions against the full derivative tensor
        # contracted afterwards, on random separated pairs and normals
        if medium == "high-permeability":  # a propagating slow wave
            params = dataclasses.replace(params, kappa=1e4 * params.kappa)
        elif medium == "fluid-decoupled":  # no solid-fluid coupling
            params = dataclasses.replace(params, alpha=0.0, rho_f=1e-30)
        if medium != "pecos":
            wave = solve_dispersion(params, wave.omega)
        y, z = _separated_pairs(rng)
        n, nu = _unit(rng.normal(size=(2,) + y.shape))
        assert y.shape[0] > 300
        _assert_matches_oracle(y, n, z, nu, wave, params)

    @pytest.mark.parametrize(
        "case", ["n || d", "n || -d", "n perp d", "nu = n", "nu = -n", "nu perp n", "nu || d"]
    )
    def test_matches_tensor_oracle_at_edge_geometries(self, case, wave, params, rng):
        y, z = _separated_pairs(rng, count=40)
        d = _unit(y - z)  # the kernel's direction, from the trace point to the source
        perp = _unit(np.cross(d, rng.normal(size=d.shape)))
        free = _unit(rng.normal(size=d.shape))
        n, nu = {
            "n || d": (d, free),
            "n || -d": (-d, free),
            "n perp d": (perp, free),
            "nu = n": (free, free),
            "nu = -n": (free, -free),
            "nu perp n": (free, _unit(np.cross(free, rng.normal(size=d.shape)))),
            "nu || d": (perp, d),
        }[case]
        _assert_matches_oracle(y, n, z, nu, wave, params)

    def test_swap_identity(self, wave, params, rng):
        # reciprocity of the Biot system: exchanging the dislocation and the
        # trace point (with their normals) transposes the kernel
        y, z = rng.uniform(-2.0, 2.0, (2, 400, 3))
        keep = np.linalg.norm(y - z, axis=1) > 0.1
        y, z = y[keep], z[keep]
        n, nu = rng.normal(size=(2,) + y.shape)
        n /= np.linalg.norm(n, axis=1)[:, None]
        nu /= np.linalg.norm(nu, axis=1)[:, None]
        B = _dislocation_trace_matrix(y, n, z, nu, wave, params)
        swapped = _dislocation_trace_matrix(z, nu, y, n, wave, params)
        dev = np.linalg.norm(B - np.swapaxes(swapped, 1, 2), axis=(1, 2))
        assert y.shape[0] > 300
        assert np.all(dev <= 1e-13 * np.linalg.norm(B, axis=(1, 2)))

    def test_traces_of_radiated_field(self, wave, params, rng):
        # the coupling kernel must agree with finite differences of the
        # radiated dislocation field at a separated trace point
        y = np.array([0.1, -0.2, 0.3])
        z = np.array([-0.6, 0.8, 0.2])
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        nu = rng.normal(size=3)
        nu /= np.linalg.norm(nu)

        def radiated(a, pt):
            K = _trace_matrix(pt, y, n, wave, params)
            return K.T @ a

        B = dislocation_trace_kernel(y, n, z, nu, wave, params)
        h = 1e-5
        gw2 = wave.gamma * wave.omega**2
        for col in range(5):
            a = np.zeros(5)
            a[col] = 1.0
            J = np.zeros((3, 4), complex)
            for k in range(3):
                e = np.eye(3)[k]
                J[k] = (radiated(a, z + h * e) - radiated(a, z - h * e)) / (2 * h)
            f0 = radiated(a, z)
            gu = J[:, :3]
            t_fd = (
                params.lam * nu * np.trace(gu)
                + params.mu * (nu @ gu + gu @ nu)
                - params.alpha * f0[3] * nu
            )
            q_fd = (J[:, 3] @ nu - params.rho_f * wave.omega**2 * (f0[:3] @ nu)) / gw2
            assert np.linalg.norm(B[:3, col] - t_fd) / np.linalg.norm(t_fd) < 1e-6
            assert abs(B[3, col] - q_fd) / abs(q_fd) < 1e-6
            assert abs(B[4, col] - f0[3]) <= 1e-14 * abs(f0[3])
