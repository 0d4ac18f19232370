import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poroscat.errors import DomainError
from poroscat.material import (
    DimensionalMaterial,
    MaterialParams,
    ReferenceScales,
    compute_gamma,
    nondimensionalize,
    solve_dispersion,
)
from poroscat.presets import PECOS_OMEGA, pecos_sandstone

# gamma at the tabulated background entries (kappa = 24.5e-7, omega = 3.91),
# frozen from a 40-digit evaluation of the formula
GAMMA_TABLE = 8.2051282051282051 + 104389.5819197244115j


def pecos_dimensional():
    return DimensionalMaterial(
        lam=2.74e9, mu=5.85e9, M=9.71e9, rho=2270.0, rho_f=1000.0,
        rho_a=117.0, kappa=0.8e-12, phi=0.195, alpha=0.83,
    )


class TestNondimensionalize:
    def test_shear_modulus_maps_to_one(self):
        scales = ReferenceScales(mu_r=5.85e9, rho_r=1000.0, ell_r=0.14)
        p, _ = nondimensionalize(pecos_dimensional(), scales, 2 * math.pi * 12e3)
        assert p.mu == 1.0

    def test_first_lame_parameter(self):
        scales = ReferenceScales(mu_r=5.85e9, rho_r=1000.0, ell_r=0.14)
        p, _ = nondimensionalize(pecos_dimensional(), scales, 2 * math.pi * 12e3)
        assert p.lam == pytest.approx(0.47, abs=0.005)

    def test_identity_scales(self):
        d = pecos_dimensional()
        scales = ReferenceScales(mu_r=1.0, rho_r=1.0, ell_r=1.0)
        p, omega = nondimensionalize(d, scales, 3.5)
        for name in ("lam", "mu", "M", "rho", "rho_f", "rho_a", "kappa", "phi", "alpha"):
            assert getattr(p, name) == getattr(d, name)
        assert omega == 3.5

    def test_full_map(self):
        scales = ReferenceScales(mu_r=5.85e9, rho_r=1000.0, ell_r=0.14)
        d = pecos_dimensional()
        p, omega = nondimensionalize(d, scales, 1.0e4)
        assert p.M == d.M / scales.mu_r
        assert p.rho == d.rho / scales.rho_r
        assert p.rho_a == d.rho_a / scales.rho_r
        assert p.kappa == math.sqrt(scales.mu_r * scales.rho_r) / scales.ell_r * d.kappa
        assert omega == math.sqrt(scales.rho_r / scales.mu_r) * scales.ell_r * 1.0e4

    def test_nonpositive_input_names_field(self):
        with pytest.raises(DomainError, match="mu"):
            DimensionalMaterial(
                lam=1.0, mu=-2.0, M=1.0, rho=1.0, rho_f=0.5, rho_a=0.1,
                kappa=1.0, phi=0.3, alpha=0.5,
            )


_CONSTANTS = dict(lam=0.47, mu=1.0, M=1.66, rho=2.27, rho_f=1.0, rho_a=0.117, kappa=1.0,
                  phi=0.195, alpha=0.83)


class TestMaterialRules:
    @pytest.mark.parametrize("cls", [DimensionalMaterial, MaterialParams])
    @pytest.mark.parametrize(
        "given, message",
        [({"lam": 0.0}, "lam must be strictly positive"),
         ({"kappa": -1.0}, "kappa must be strictly positive"),
         ({"rho_f": 0.0}, "rho_f must be strictly positive"),
         ({"rho_f": 3.0}, "rho must dominate rho_f, got rho=2.27 < rho_f=3.0"),
         ({"phi": 1.0}, "phi must lie in (0, 1)"),
         ({"alpha": 1.5}, "alpha must lie in [0, 1]")],
    )
    def test_shared_rule_refused_by_both(self, cls, given, message):
        # the dimensional and the dimensionless constants hold one set of rules
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            cls(**{**_CONSTANTS, **given})

    def test_rho_a_zero_refused_only_dimensional(self):
        with pytest.raises(DomainError, match="^rho_a must be strictly positive"):
            DimensionalMaterial(**{**_CONSTANTS, "rho_a": 0.0})
        assert MaterialParams(**{**_CONSTANTS, "rho_a": 0.0}).rho_a == 0.0


class TestGamma:
    def test_table_values(self, params):
        table = dataclasses.replace(params, kappa=24.5e-7)
        g = compute_gamma(table, PECOS_OMEGA)
        assert g == pytest.approx(GAMMA_TABLE, rel=1e-12)
        # headline magnitudes: ~8.205 + 1.044e5 i
        assert g.real == pytest.approx(8.205, abs=5e-4)
        assert g.imag == pytest.approx(1.044e5, rel=1e-3)

    def test_coupling_free_limit(self):
        p = MaterialParams(
            lam=1.0, mu=1.0, M=1.0, rho=1.0, rho_f=0.3, rho_a=0.0,
            kappa=1e30, phi=0.3, alpha=0.5,
        )
        g = compute_gamma(p, 2.0)
        assert g.real == pytest.approx(1.0, rel=1e-15)
        assert 0 < g.imag < 1e-15

    def test_doubling_kappa_halves_imaginary_part(self, params):
        g1 = compute_gamma(params, PECOS_OMEGA)
        g2 = compute_gamma(dataclasses.replace(params, kappa=2 * params.kappa), PECOS_OMEGA)
        assert g2.imag == g1.imag / 2.0  # bit exact
        assert g2.real == g1.real

    def test_zero_omega_rejected(self, params):
        with pytest.raises(DomainError, match="omega"):
            compute_gamma(params, 0.0)


class TestDispersion:
    def test_reference_speeds(self, params, wave):
        # real parts to two significant figures, imaginary magnitudes
        # within a factor of two of the reference values
        refs = {"s": 0.66 + 8.8e-6j, "p1": 1.26 + 3e-7j, "p2": 5.8e-3 + 5.8e-3j}
        cs, cp1, cp2 = wave.modal_speeds()
        for c, ref in zip((cs, cp1, cp2), refs.values()):
            assert abs(c.real - ref.real) / abs(ref.real) < 0.05
            assert 0.5 < abs(c.imag) / abs(ref.imag) < 2.0

    def test_tabulated_permeability_entry_is_inconsistent(self, params):
        # the commonly tabulated permeability (24.5e-7) underestimates the
        # attenuation implied by the reference speeds by roughly 2*pi;
        # the preset background carries the speed-consistent value
        table = dataclasses.replace(params, kappa=24.5e-7)
        w = solve_dispersion(table, PECOS_OMEGA)
        cs = w.modal_speeds()[0]
        assert abs(cs.imag) / 8.8e-6 < 0.5  # would fail the factor-2 gate
        assert params.kappa == pytest.approx(2 * math.pi * 24.5e-7, rel=1e-12)

    def test_weight_identity(self, params, wave):
        assert abs(wave.A1 + wave.A2 - 1.0) < 1e-12

    def test_ks_depends_only_on_density_shear_and_gamma(self, params):
        w0 = solve_dispersion(params, PECOS_OMEGA)
        perturbed = dataclasses.replace(params, lam=0.91, M=3.2, alpha=0.1)
        w1 = solve_dispersion(perturbed, PECOS_OMEGA)
        assert w0.k_s == w1.k_s  # bit for bit

    def test_fast_slow_labels(self, wave):
        assert abs(wave.k_p1) < abs(wave.k_p2)
        assert wave.k_p1.real < wave.k_p2.real

    def test_pecos_speeds_order_of_magnitude(self, wave):
        cs, cp1, cp2 = wave.modal_speeds()
        assert cp1.real > cs.real > abs(cp2)  # fast P, shear, diffusive slow P


admissible_params = st.builds(
    MaterialParams,
    lam=st.floats(0.1, 3.0),
    mu=st.floats(0.2, 3.0),
    M=st.floats(0.2, 4.0),
    rho=st.floats(1.5, 4.0),
    rho_f=st.floats(0.2, 1.5),
    rho_a=st.floats(0.0, 0.5),
    kappa=st.floats(1e-7, 1e-1),
    phi=st.floats(0.05, 0.6),
    alpha=st.floats(0.0, 1.0),
)


class TestDispersionProperties:
    @settings(max_examples=60, deadline=None)
    @given(p=admissible_params, omega=st.floats(0.5, 10.0))
    def test_decaying_branches_and_weight_identity(self, p, omega):
        w = solve_dispersion(p, omega)
        assert w.k_s.imag > 0
        assert w.k_p1.imag > 0
        assert w.k_p2.imag > 0
        assert abs(w.A1 + w.A2 - 1.0) <= 1e-12 * max(1.0, abs(w.A1), abs(w.A2))

    @settings(max_examples=40, deadline=None)
    @given(p=admissible_params, omega=st.floats(0.5, 10.0), shrink=st.floats(0.05, 0.9))
    def test_attenuation_monotone_in_permeability(self, p, omega, shrink):
        g_low = compute_gamma(dataclasses.replace(p, kappa=p.kappa * shrink), omega)
        g = compute_gamma(p, omega)
        assert g_low.imag > g.imag


def test_pecos_preset_is_admissible():
    p = pecos_sandstone()
    assert 0 < p.phi < 1 and p.rho >= p.rho_f > 0
