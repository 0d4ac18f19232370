"""Dimensionless poroelastic background state and the dispersion solver.

All downstream computations work on a dimensionless copy of the drained
Biot constants.  Stress, density and length scales (mu_r, rho_r, ell_r)
map a dimensional description onto that copy:

    lambda, mu, M  ->  /mu_r          rho, rho_f, rho_a  ->  /rho_r
    kappa          ->  * sqrt(mu_r*rho_r)/ell_r
    omega          ->  * sqrt(rho_r/mu_r)*ell_r

The frequency-domain solid/fluid coupling is carried by the complex
coefficient

    gamma = rho_a/phi^2 + rho_f/phi + i/(omega*kappa),

whose positive imaginary part encodes viscous attenuation.  Time-harmonic
plane waves split into a transverse mode and two compressional modes; the
transverse wavenumber is

    k_s = omega*sqrt((rho - rho_f^2/gamma)/mu),

and the compressional wavenumbers are the roots (in k^2) of

    (lam+2mu)/(gamma*omega^2) * k^4
      - [(rho - rho_f^2/gamma)/gamma + (lam+2mu)/M + (alpha - rho_f/gamma)^2] * k^2
      + omega^2*(rho - rho_f^2/gamma)/M = 0,

each square-rooted onto the Im(k) >= 0 branch so all modes decay outward.
The faster compressional mode (larger phase speed omega/Re(k)) is labeled
p1.  The modal weights of the point-source tensor are

    A1 = k_p2^2 (k_p1^2 M - gamma w^2) / (gamma w^2 (k_p1^2 - k_p2^2))
    A2 = k_p1^2 (k_p2^2 M - gamma w^2) / (gamma w^2 (k_p2^2 - k_p1^2))

and satisfy A1 + A2 = 1 identically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DispersionDegeneracyError, DomainError

__all__ = [
    "ReferenceScales",
    "DimensionalMaterial",
    "MaterialParams",
    "WaveState",
    "nondimensionalize",
    "compute_gamma",
    "solve_dispersion",
]


def _require_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise DomainError(f"{name} must be strictly positive, got {value!r}")


@dataclass(frozen=True)
class ReferenceScales:
    """Stress, mass-density and length scales used for nondimensionalization.

    Attributes
    ----------
    mu_r : float
        Stress scale [Pa].
    rho_r : float
        Mass-density scale [kg/m^3].
    ell_r : float
        Length scale [m]; conventionally the drained shear wavelength.
    """

    mu_r: float
    rho_r: float
    ell_r: float

    def __post_init__(self) -> None:
        _require_positive("mu_r", self.mu_r)
        _require_positive("rho_r", self.rho_r)
        _require_positive("ell_r", self.ell_r)

    @classmethod
    def from_drained_shear(
        cls,
        mu_r: float,
        rho_r: float,
        mu_prime: float,
        rho_solid_prime: float,
        porosity: float,
        omega_prime: float,
    ) -> "ReferenceScales":
        """Build scales with ell_r set to the drained shear wavelength.

        ell_r = 2*pi*sqrt(mu' / ((1 - phi)*rho_s'*omega'^2)) with rho_s'
        the solid-phase density and omega' the angular frequency [rad/s].
        """
        _require_positive("mu_prime", mu_prime)
        _require_positive("rho_solid_prime", rho_solid_prime)
        _require_positive("omega_prime", omega_prime)
        if not 0.0 < porosity < 1.0:
            raise DomainError(f"porosity must lie in (0, 1), got {porosity!r}")
        ell_r = 2.0 * math.pi * math.sqrt(
            mu_prime / ((1.0 - porosity) * rho_solid_prime * omega_prime**2)
        )
        return cls(mu_r=mu_r, rho_r=rho_r, ell_r=ell_r)


@dataclass(frozen=True)
class DimensionalMaterial:
    """Drained Biot constants in SI units (primed quantities)."""

    lam: float      # first Lame parameter [Pa]
    mu: float       # shear modulus [Pa]
    M: float        # Biot modulus [Pa]
    rho: float      # total density [kg/m^3]
    rho_f: float    # fluid density [kg/m^3]
    rho_a: float    # apparent mass density [kg/m^3]
    kappa: float    # permeability coefficient [m^4/(N s)]
    phi: float      # porosity
    alpha: float    # Biot effective stress coefficient

    def __post_init__(self) -> None:
        for name in ("lam", "mu", "M", "rho", "rho_f", "rho_a", "kappa"):
            _require_positive(name, getattr(self, name))
        if not 0.0 < self.phi < 1.0:
            raise DomainError(f"phi must lie in (0, 1), got {self.phi!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha!r}")


@dataclass(frozen=True)
class MaterialParams:
    """Dimensionless drained Biot constants of the background."""

    lam: float
    mu: float
    M: float
    rho: float
    rho_f: float
    rho_a: float
    kappa: float
    phi: float
    alpha: float

    def __post_init__(self) -> None:
        for name in ("lam", "mu", "M", "kappa"):
            _require_positive(name, getattr(self, name))
        if not self.rho_f > 0.0:
            raise DomainError(f"rho_f must be strictly positive, got {self.rho_f!r}")
        if not self.rho >= self.rho_f:
            raise DomainError(
                f"rho must dominate rho_f, got rho={self.rho!r} < rho_f={self.rho_f!r}"
            )
        if not self.rho_a >= 0.0:
            raise DomainError(f"rho_a must be non-negative, got {self.rho_a!r}")
        if not 0.0 < self.phi < 1.0:
            raise DomainError(f"phi must lie in (0, 1), got {self.phi!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha!r}")

    @property
    def pwave_modulus(self) -> float:
        """Drained P-wave modulus lam + 2*mu."""
        return self.lam + 2.0 * self.mu


def nondimensionalize(
    dimensional: DimensionalMaterial,
    scales: ReferenceScales,
    omega_prime: float,
) -> tuple[MaterialParams, float]:
    """Map dimensional constants and angular frequency onto the dimensionless set.

    Returns (params, omega) with omega = sqrt(rho_r/mu_r)*ell_r*omega'.
    """
    _require_positive("omega_prime", omega_prime)
    d, s = dimensional, scales
    params = MaterialParams(
        lam=d.lam / s.mu_r,
        mu=d.mu / s.mu_r,
        M=d.M / s.mu_r,
        rho=d.rho / s.rho_r,
        rho_f=d.rho_f / s.rho_r,
        rho_a=d.rho_a / s.rho_r,
        kappa=math.sqrt(s.mu_r * s.rho_r) / s.ell_r * d.kappa,
        phi=d.phi,
        alpha=d.alpha,
    )
    omega = math.sqrt(s.rho_r / s.mu_r) * s.ell_r * omega_prime
    return params, omega


def compute_gamma(params: MaterialParams, omega: float) -> complex:
    """Complex solid/fluid coupling coefficient at frequency omega.

    gamma = rho_a/phi^2 + rho_f/phi + i/(omega*kappa).  Raises DomainError
    for omega <= 0 or kappa <= 0 (the drag term would be singular).
    """
    if not omega > 0.0:
        raise DomainError(f"omega must be strictly positive, got {omega!r}")
    if not params.kappa > 0.0:
        raise DomainError(f"kappa must be strictly positive, got {params.kappa!r}")
    return (
        params.rho_a / params.phi**2
        + params.rho_f / params.phi
        + 1j / (omega * params.kappa)
    )


def _upper_branch_sqrt(z: complex) -> complex:
    """Principal square root rotated onto the Im >= 0 half-plane."""
    k = np.sqrt(complex(z))
    if k.imag < 0.0:
        k = -k
    return complex(k)


@dataclass(frozen=True)
class WaveState:
    """Frequency, coupling coefficient, modal wavenumbers and kernel weights."""

    omega: float
    gamma: complex
    k_s: complex
    k_p1: complex
    k_p2: complex
    A1: complex
    A2: complex

    def __post_init__(self) -> None:
        if not self.gamma.imag > 0.0:
            raise DomainError(f"Im(gamma) must be positive, got {self.gamma!r}")
        for name in ("k_s", "k_p1", "k_p2"):
            k = getattr(self, name)
            if k.imag < 0.0:
                raise DomainError(f"{name} lies on the growing branch: {k!r}")
        res = abs(self.A1 + self.A2 - 1.0)
        if res > 1e-12 * max(1.0, abs(self.A1), abs(self.A2)):
            raise DomainError(f"A1 + A2 deviates from 1 by {res:.3e}")
        if not abs(self.k_p1) < abs(self.k_p2):
            raise DomainError(
                f"expected |k_p1| < |k_p2|, got {abs(self.k_p1):.6g} >= {abs(self.k_p2):.6g}"
            )

    @property
    def shear_wavelength(self) -> float:
        """2*pi / Re(k_s)."""
        return 2.0 * math.pi / self.k_s.real

    def modal_speeds(self) -> tuple[complex, complex, complex]:
        """Complex modal speeds (omega/k) ordered (s, p1, p2)."""
        return (
            self.omega / self.k_s,
            self.omega / self.k_p1,
            self.omega / self.k_p2,
        )

    def min_decay_rate(self) -> float:
        """Smallest Im(k) over the three modes (slowest spatial decay)."""
        return min(self.k_s.imag, self.k_p1.imag, self.k_p2.imag)


def solve_dispersion(params: MaterialParams, omega: float) -> WaveState:
    """Solve the plane-wave dispersion problem for the three modal wavenumbers.

    The transverse wavenumber is explicit; the two compressional
    wavenumbers come from the quadratic (in k^2) stated in the module
    docstring.  Raises DispersionDegeneracyError when the compressional
    roots coincide (the modal weights A1, A2 are then undefined), and
    DomainError naming omega when the solution, or the fourth powers of
    the wavenumbers the kernels take, leave double range.
    """
    try:
        wave = _dispersion(params, omega)
        # the kernels take up to the fourth power of each wavenumber
        finite = all(cmath.isfinite(k**4) for k in (wave.k_s, wave.k_p1, wave.k_p2))
        finite = finite and all(cmath.isfinite(a) for a in (wave.A1, wave.A2))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise DomainError(
            f"omega = {omega!r} is out of range for this material: the dispersion "
            "relation or its kernel powers leave double range"
        )
    return wave


def _dispersion(params: MaterialParams, omega: float) -> WaveState:
    gamma = compute_gamma(params, omega)
    m = params.rho - params.rho_f**2 / gamma
    beta = params.alpha - params.rho_f / gamma
    pmod = params.pwave_modulus

    k_s = omega * _upper_branch_sqrt(m / params.mu)

    a = pmod / (gamma * omega**2)
    b = -(m / gamma + pmod / params.M + beta**2)
    c = omega**2 * m / params.M
    disc = np.sqrt(b * b - 4.0 * a * c)
    roots = ((-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a))
    if abs(roots[0] - roots[1]) <= 1e-12 * max(abs(roots[0]), abs(roots[1])):
        raise DispersionDegeneracyError(
            f"compressional roots coincide: k^2 = {roots[0]!r}"
        )
    k_a, k_b = (_upper_branch_sqrt(r) for r in roots)
    # the fast wave is labeled p1: smaller modulus, which coincides with
    # larger phase speed omega/Re(k) whenever both modes propagate
    if abs(k_a) > abs(k_b) or (abs(k_a) == abs(k_b) and k_a.real > k_b.real):
        k_a, k_b = k_b, k_a
    k_p1, k_p2 = k_a, k_b

    gw2 = gamma * omega**2
    A1 = k_p2**2 * (k_p1**2 * params.M - gw2) / (gw2 * (k_p1**2 - k_p2**2))
    A2 = k_p1**2 * (k_p2**2 * params.M - gw2) / (gw2 * (k_p2**2 - k_p1**2))

    return WaveState(
        omega=omega, gamma=gamma, k_s=k_s, k_p1=k_p1, k_p2=k_p2, A1=A1, A2=A2
    )
