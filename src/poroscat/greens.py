"""Full-space poroelastodynamic point-source tensor and its trace kernels.

Conventions used throughout:

* ``y`` is the source point, ``xi`` the evaluation (or trace) point;
  ``r = |xi - y|`` and ``d = (xi - y)/r``.  All Cartesian derivatives are
  taken with respect to the evaluation point.
* Normals always attach to the explicitly passed trace point.  Callers
  that need the "source at the observer" reciprocal arrangement (the
  radiation kernels in :mod:`poroscat.forward`) swap arguments themselves.
* ``G(k, r) = exp(i*k*r)/(4*pi*r)`` is the scalar radiating kernel; its
  radial derivatives are closed-form polynomials in 1/r times G.

The 4x4 point-source tensor is assembled from three scalar modes
(transverse ``s`` and compressional ``p1``, ``p2``):

    U^s_ij = cU * [ (G_s - A1 G_p1 - A2 G_p2)_{,ij} + delta_ij k_s^2 G_s ]
    p^s_j  = cP * (G_p1 - G_p2)_{,j}
    u^f    = -p^s
    p^f    = cf1 * G_p1 + cf2 * G_p2

with cU = 1/(omega^2 (rho - rho_f^2/gamma)), cP = omega^2 (alpha*gamma
- rho_f) / ((lam + 2 mu)(k_p1^2 - k_p2^2)) and cf1/cf2 the weights of the
two-term pressure response to a fluid injection.  Traction rows contract
the displacement gradient with the drained stiffness C = lam I2 (x) I2
+ 2 mu I4 and subtract alpha * pressure * n; flow rows apply
(1/(gamma omega^2)) * (grad p . n - rho_f omega^2 u . n).

Derivatives up to fourth order are produced analytically from the radial
helpers plus direction-cosine tensor algebra (never finite differences);
fourth order is required by the inter-patch coupling kernel, which takes
traces of an already differentiated dislocation field.

Trial patterns read the traction rows along their own normal, n.t(n).
That is a quadratic form n_j n_k M_jk with a symmetric, normal-free M per
source column, built from the same radial combinations as the trace rows
(_radials); _pattern_kernel evaluates M once for every normal of a block,
together with the pressure row, which no normal changes.  biot_residual
checks the point-source tensor against the governing system by finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularityError
from .material import MaterialParams, WaveState

__all__ = [
    "GreenTensor",
    "TraceKernel",
    "helmholtz_kernel",
    "green_tensor",
    "biot_residual",
    "trace_kernel",
    "dislocation_trace_kernel",
]

_EYE3 = np.eye(3)


# ---------------------------------------------------------------------------
# scalar radial machinery
# ---------------------------------------------------------------------------
def _radial_stack(k: complex, r: np.ndarray, nmax: int) -> np.ndarray:
    """Radial derivatives d^m/dr^m of exp(ikr)/(4 pi r), m = 0..nmax.

    Returns an array of shape r.shape + (nmax+1,).
    """
    r = np.asarray(r)
    inv = 1.0 / r
    G = np.exp(1j * k * r) * inv / (4.0 * np.pi)
    out = np.empty(r.shape + (nmax + 1,), dtype=np.complex128)
    out[..., 0] = G
    if nmax >= 1:
        out[..., 1] = G * (1j * k - inv)
    if nmax >= 2:
        out[..., 2] = G * (-(k**2) - 2j * k * inv + 2.0 * inv**2)
    if nmax >= 3:
        out[..., 3] = G * (
            -1j * k**3 + 3.0 * k**2 * inv + 6j * k * inv**2 - 6.0 * inv**3
        )
    if nmax >= 4:
        out[..., 4] = G * (
            k**4
            + 4j * k**3 * inv
            - 12.0 * k**2 * inv**2
            - 24j * k * inv**3
            + 24.0 * inv**4
        )
    return out


def helmholtz_kernel(k: complex, r, order: int = 0):
    """order-th radial derivative of the scalar kernel exp(ikr)/(4 pi r).

    Parameters
    ----------
    k : complex
        Wavenumber (Im(k) >= 0 for a decaying kernel).
    r : float or array
        Source-receiver distance, strictly positive.
    order : int
        Derivative order, 0..4.
    """
    if not 0 <= order <= 4:
        raise DomainError(f"derivative order must be in 0..4, got {order!r}")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0):
        raise SingularityError("helmholtz kernel evaluated at r <= 0")
    stack = _radial_stack(complex(k), r_arr, order)
    out = stack[..., order]
    return out if out.shape else complex(out)


@dataclass(frozen=True)
class _Coeffs:
    """Scalar prefactors of the kernel blocks for one (wave, params) pair."""

    cU: complex
    cP: complex
    cf1: complex
    cf2: complex
    ks2: complex
    gamma_w2: complex  # gamma * omega^2
    rho_f_w2: float    # rho_f * omega^2
    lam: float
    mu: float
    alpha: float


def _coeffs(wave: WaveState, params: MaterialParams) -> _Coeffs:
    g, w = wave.gamma, wave.omega
    m = params.rho - params.rho_f**2 / g
    pmod = params.pwave_modulus
    k1sq, k2sq = wave.k_p1**2, wave.k_p2**2
    cU = 1.0 / (w**2 * m)
    cP = w**2 * (params.alpha * g - params.rho_f) / (pmod * (k1sq - k2sq))
    mw2 = w**2 * m / pmod
    cf1 = -g * w**2 * (k1sq - mw2) / (k2sq - k1sq)
    cf2 = g * w**2 * (k2sq - mw2) / (k2sq - k1sq)
    return _Coeffs(
        cU=cU,
        cP=cP,
        cf1=cf1,
        cf2=cf2,
        ks2=wave.k_s**2,
        gamma_w2=g * w**2,
        rho_f_w2=params.rho_f * w**2,
        lam=params.lam,
        mu=params.mu,
        alpha=params.alpha,
    )


def _geometry(y: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance r and unit direction d = (xi - y)/r, broadcasting over pairs."""
    w = np.asarray(xi, dtype=float) - np.asarray(y, dtype=float)
    r = np.sqrt(np.sum(w * w, axis=-1))
    if np.any(r == 0.0):
        raise SingularityError("kernel evaluation at coincident points")
    return r, w / r[..., None]


class _Stacks:
    """Modal radial-derivative stacks and their standard combinations."""

    def __init__(self, wave: WaveState, r: np.ndarray, nmax: int):
        self.gs = _radial_stack(wave.k_s, r, nmax)
        self.g1 = _radial_stack(wave.k_p1, r, nmax)
        self.g2 = _radial_stack(wave.k_p2, r, nmax)
        # potential of the displacement block and the pressure difference
        self.Phi = self.gs - wave.A1 * self.g1 - wave.A2 * self.g2
        self.Psi = self.g1 - self.g2
        self.k1sq = wave.k_p1**2
        self.k2sq = wave.k_p2**2
        self.A1 = wave.A1
        self.A2 = wave.A2


def _hess(f: np.ndarray, r: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Cartesian Hessian of a radial scalar; f[..., m] holds radial orders."""
    a = (f[..., 2] - f[..., 1] / r)[..., None, None]
    b = (f[..., 1] / r)[..., None, None]
    dd = d[..., :, None] * d[..., None, :]
    return a * dd + b * _EYE3


def _s2_radial(f, r):
    """Radial coefficients (P, Q) of the third Cartesian derivative of a
    radial scalar: n_k f_,kij = P (n.d) d_i d_j + Q (n_i d_j + d_i n_j
    + (n.d) delta_ij)."""
    P = f[..., 3] - 3.0 * f[..., 2] / r + 3.0 * f[..., 1] / r**2
    Q = f[..., 2] / r - f[..., 1] / r**2
    return P, Q


def _s2(f, r, d, n, PQ=None):
    """n_k (third Cartesian derivative)_kij of a radial scalar; symmetric in
    ij.  ``PQ`` passes _s2_radial(f, r) when it is already formed."""
    P, Q = _s2_radial(f, r) if PQ is None else PQ
    nd = np.sum(n * d, axis=-1)
    dd = d[..., :, None] * d[..., None, :]
    ndsym = n[..., :, None] * d[..., None, :] + d[..., :, None] * n[..., None, :]
    return (
        (P * nd)[..., None, None] * dd
        + Q[..., None, None] * (ndsym + nd[..., None, None] * _EYE3)
    )


def _nf4(f, r, d, n):
    """n_k (fourth Cartesian derivative)_kijm of a radial scalar.

    Returns shape (..., 3, 3, 3) indexed [i, j, m]; fully symmetric.
    """
    f1, f2, f3, f4 = f[..., 1], f[..., 2], f[..., 3], f[..., 4]
    D4 = f4 - 6.0 * f3 / r + 15.0 * f2 / r**2 - 15.0 * f1 / r**3
    D2 = f3 / r - 3.0 * f2 / r**2 + 3.0 * f1 / r**3
    D0 = f2 / r**2 - f1 / r**3
    nd = np.sum(n * d, axis=-1)
    ddd = d[..., :, None, None] * d[..., None, :, None] * d[..., None, None, :]
    n_dd = (
        n[..., :, None, None] * d[..., None, :, None] * d[..., None, None, :]
        + d[..., :, None, None] * n[..., None, :, None] * d[..., None, None, :]
        + d[..., :, None, None] * d[..., None, :, None] * n[..., None, None, :]
    )
    eye_d = (
        _EYE3[:, :, None] * d[..., None, None, :]
        + _EYE3[:, None, :] * d[..., None, :, None]
        + _EYE3[None, :, :] * d[..., :, None, None]
    )
    eye_n = (
        _EYE3[:, :, None] * n[..., None, None, :]
        + _EYE3[:, None, :] * n[..., None, :, None]
        + _EYE3[None, :, :] * n[..., :, None, None]
    )
    return (
        (D4 * nd)[..., None, None, None] * ddd
        + D2[..., None, None, None] * (n_dd + nd[..., None, None, None] * eye_d)
        + D0[..., None, None, None] * eye_n
    )


# ---------------------------------------------------------------------------
# point-source tensor
# ---------------------------------------------------------------------------
def _green_matrix(y, xi, wave: WaveState, params: MaterialParams) -> np.ndarray:
    """Batched 4x4 point-source tensor; leading dims broadcast over pairs."""
    r, d = _geometry(y, xi)
    st = _Stacks(wave, r, 2)
    co = _coeffs(wave, params)

    Us = co.cU * (
        _hess(st.Phi, r, d) + (co.ks2 * st.gs[..., 0])[..., None, None] * _EYE3
    )
    ps = co.cP * st.Psi[..., 1, None] * d
    pf = co.cf1 * st.g1[..., 0] + co.cf2 * st.g2[..., 0]

    out = np.empty(r.shape + (4, 4), dtype=np.complex128)
    out[..., :3, :3] = Us
    out[..., :3, 3] = -ps
    out[..., 3, :3] = ps
    out[..., 3, 3] = pf
    return out


@dataclass(frozen=True)
class GreenTensor:
    """4x4 point-source response at one (source, receiver) pair.

    Block layout: [[U^s (3x3), u^f (3x1)], [p^s (1x3), p^f (1x1)]] where
    columns are the source types (three force directions, fluid injection)
    and rows the responses (three displacement components, pore pressure).
    """

    matrix: np.ndarray

    @property
    def force_displacement(self) -> np.ndarray:
        """U^s: displacement (rows) due to unit point forces (columns)."""
        return self.matrix[:3, :3]

    @property
    def fluid_displacement(self) -> np.ndarray:
        """u^f: displacement due to a unit fluid injection."""
        return self.matrix[:3, 3]

    @property
    def force_pressure(self) -> np.ndarray:
        """p^s: pore pressure due to unit point forces."""
        return self.matrix[3, :3]

    @property
    def fluid_pressure(self) -> complex:
        """p^f: pore pressure due to a unit fluid injection."""
        return complex(self.matrix[3, 3])


def green_tensor(y, xi, wave: WaveState, params: MaterialParams) -> GreenTensor:
    """Point-source tensor for a single source/receiver pair (y != xi)."""
    y = np.asarray(y, dtype=float).reshape(3)
    xi = np.asarray(xi, dtype=float).reshape(3)
    return GreenTensor(matrix=_green_matrix(y, xi, wave, params))


def biot_residual(y, xi, col: int, wave: WaveState, params: MaterialParams, h=1e-3) -> float:
    """Relative residual of the governing system for source column ``col``
    of the point-source tensor at xi, from 5-point central differences of
    the closed-form tensor (an independent check of its derivation)."""
    y = np.asarray(y, dtype=float).reshape(3)
    xi = np.asarray(xi, dtype=float).reshape(3)
    gamma, omega = wave.gamma, wave.omega
    m = params.rho - params.rho_f**2 / gamma
    beta = params.alpha - params.rho_f / gamma
    lam, mu = params.lam, params.mu

    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    step = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])[:, None, None] * h * _EYE3  # [s, k, :]
    # the field at xi, at xi + o_s h e_k, and at xi + o_s h e_k + o_t h e_j
    line = xi + step
    cross = line[:, :, None, None, :] + step[None, None]
    pts = np.concatenate([xi[None], line.reshape(-1, 3), cross.reshape(-1, 3)])
    F = _green_matrix(y, pts, wave, params)[:, :, col]
    u0, p0 = F[0, :3], F[0, 3]
    F_line, F_cross = F[1:16].reshape(5, 3, 4), F[16:].reshape(5, 3, 5, 3, 4)

    lap_u = np.einsum("s,ski->i", c2, F_line[..., :3])
    lap_p = np.einsum("s,sk->", c2, F_line[..., 3])
    J = np.einsum("s,ski->ki", c1, F_line[..., :3])  # J[k, i] = d u_i / d xi_k
    grad_p = c1 @ F_line[..., 3]
    # grad(div u): central differences of the divergence along each axis
    graddiv = c1 @ np.einsum("t,sktjj->sk", c1, F_cross[..., :3])

    L1 = (lam + mu) * graddiv + mu * lap_u - beta * grad_p + omega**2 * m * u0
    L2 = lap_p / (gamma * omega**2) + p0 / params.M + beta * np.trace(J)
    s1 = (
        abs(omega**2 * m) * np.linalg.norm(u0)
        + abs(beta) * np.linalg.norm(grad_p)
        + abs(mu) * np.linalg.norm(lap_u)
    )
    s2 = abs(p0 / params.M) + abs(lap_p / (gamma * omega**2)) + abs(beta * np.trace(J))
    return float(max(np.linalg.norm(L1) / s1, abs(L2) / s2))


# ---------------------------------------------------------------------------
# trace kernel (traction / relative flow / pressure rows)
# ---------------------------------------------------------------------------
def _trace_matrix(y, xi, n, wave: WaveState, params: MaterialParams) -> np.ndarray:
    """Batched 5x4 trace kernel: rows (t1,t2,t3,q,p) at xi with normal n,
    columns the 4 source types at y."""
    r, d = _geometry(y, xi)
    st, co = _Stacks(wave, r, 3), _coeffs(wave, params)
    n = np.broadcast_to(np.asarray(n, dtype=float), d.shape)
    return _trace_rows(st, co, _radials(st, co, r), r, d, n)[0]


class _Radials(NamedTuple):
    """Radial combinations of the trace rows, from stacks of order >= 3."""

    PQ: tuple       # _s2_radial of Phi
    Dv1: np.ndarray  # the divergence of the U^s columns is cU * Dv1 * d_j
    Psi1: np.ndarray
    Psi2: np.ndarray
    X0: np.ndarray   # k_p1^2 G_p1 - k_p2^2 G_p2
    pf: np.ndarray   # p^f, the pressure of a unit fluid injection
    gs1: np.ndarray


def _radials(st: _Stacks, co: _Coeffs, r) -> _Radials:
    return _Radials(
        PQ=_s2_radial(st.Phi, r),
        Dv1=st.A1 * st.k1sq * st.g1[..., 1] + st.A2 * st.k2sq * st.g2[..., 1],
        Psi1=st.Psi[..., 1],
        Psi2=st.Psi[..., 2],
        X0=st.k1sq * st.g1[..., 0] - st.k2sq * st.g2[..., 0],
        pf=co.cf1 * st.g1[..., 0] + co.cf2 * st.g2[..., 0],
        gs1=st.gs[..., 1],
    )


def _trace_rows(st: _Stacks, co: _Coeffs, rad: _Radials, r, d, n):
    """Trace-kernel rows from radial stacks of order >= 3 already built.

    Returns the (..., 5, 4) kernel together with n.(third derivative of
    Phi) and the Hessian of Psi, which the dislocation kernel
    differentiates once more.
    """
    nd = np.sum(n * d, axis=-1)
    gs0, gs1, Psi1, Dv1, pf = st.gs[..., 0], rad.gs1, rad.Psi1, rad.Dv1, rad.pf

    S2P = _s2(st.Phi, r, d, n, rad.PQ)
    HPsi = _hess(st.Psi, r, d)
    nHPsi = np.einsum("...k,...kj->...j", n, HPsi)

    ps = co.cP * Psi1[..., None] * d

    n_d = n[..., :, None] * d[..., None, :]
    Ts = (
        co.lam * co.cU * Dv1[..., None, None] * n_d
        + co.mu
        * co.cU
        * (
            2.0 * S2P
            + co.ks2
            * gs1[..., None, None]
            * (nd[..., None, None] * _EYE3 + d[..., :, None] * n[..., None, :])
        )
        - co.alpha * co.cP * Psi1[..., None, None] * n_d
    )

    tf = (
        co.cP * co.lam * rad.X0[..., None] * n
        - 2.0 * co.mu * co.cP * nHPsi
        - co.alpha * pf[..., None] * n
    )

    nU = co.cU * (
        np.einsum("...k,...kj->...j", n, _hess(st.Phi, r, d))
        + (co.ks2 * gs0)[..., None] * n
    )
    qs = (co.cP * nHPsi - co.rho_f_w2 * nU) / co.gamma_w2
    Pf1 = co.cf1 * st.g1[..., 1] + co.cf2 * st.g2[..., 1]
    qf = (Pf1 * nd + co.rho_f_w2 * co.cP * Psi1 * nd) / co.gamma_w2

    out = np.empty(r.shape + (5, 4), dtype=np.complex128)
    out[..., 0:3, 0:3] = Ts
    out[..., 0:3, 3] = tf
    out[..., 3, 0:3] = qs
    out[..., 3, 3] = qf
    out[..., 4, 0:3] = ps
    out[..., 4, 3] = pf
    return out, S2P, HPsi


def _pattern_kernel(y, xi, pairs, wave: WaveState, params: MaterialParams) -> np.ndarray:
    """Normal-free trial-pattern kernel: sources at y, trial point xi.

    The traction rows t(n) of the trace kernel contracted with their own
    normal, n.t(n) = n_j n_k M_jk, form a quadratic form in n with a
    symmetric, normal-free M per source column:

        force column i:  M_jk = a1 d_i delta_jk + a2 d_i d_j d_k
                                + (b/2) (d_j delta_ik + d_k delta_ij)
        fluid column:    M_jk = c1 delta_jk + c2 d_j d_k

    with a1, a2, b, c1, c2 the radial combinations of the trace rows
    (_radials).  Returns (..., len(pairs) + 1, 4): M_jk for each (j, k)
    in ``pairs``, then the pressure row, columns the 4 source types at y.
    """
    r, d = _geometry(y, xi)
    st, co = _Stacks(wave, r, 3), _coeffs(wave, params)
    rad = _radials(st, co, r)
    P, Q = rad.PQ
    mu_u = co.mu * co.cU
    a1 = co.lam * co.cU * rad.Dv1 - co.alpha * co.cP * rad.Psi1 + 2.0 * mu_u * Q
    a2 = 2.0 * mu_u * P
    half_b = mu_u * (2.0 * Q + co.ks2 * rad.gs1)
    Psi1_r = rad.Psi1 / r
    c1 = co.cP * co.lam * rad.X0 - co.alpha * rad.pf - 2.0 * co.mu * co.cP * Psi1_r
    c2 = -2.0 * co.mu * co.cP * (rad.Psi2 - Psi1_r)

    j, k = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    diag = j == k
    dj, dk = d[..., j], d[..., k]
    djk = dj * dk
    out = np.empty(r.shape + (j.size + 1, 4), dtype=np.complex128)
    out[..., :-1, :3] = (
        (a1[..., None] * diag + a2[..., None] * djk)[..., None] * d[..., None, :]
        + half_b[..., None, None] * (dj[..., None] * _EYE3[k] + dk[..., None] * _EYE3[j])
    )
    out[..., :-1, 3] = c1[..., None] * diag + c2[..., None] * djk
    out[..., -1, :3] = co.cP * rad.Psi1[..., None] * d
    out[..., -1, 3] = rad.pf
    return out


@dataclass(frozen=True)
class TraceKernel:
    """5x4 map from the 4 source types at y to the trace triple at xi.

    Rows: traction components t1..t3, relative normal flow q, pressure p.
    Columns: unit forces along the three axes, unit fluid injection.
    """

    matrix: np.ndarray

    @property
    def traction(self) -> np.ndarray:
        return self.matrix[0:3, :]

    @property
    def flow(self) -> np.ndarray:
        return self.matrix[3, :]

    @property
    def pressure(self) -> np.ndarray:
        return self.matrix[4, :]


def _check_unit_normal(n) -> np.ndarray:
    n = np.asarray(n, dtype=float).reshape(3)
    if abs(np.linalg.norm(n) - 1.0) > 1e-10:
        raise DomainError(
            f"normal must be unit length, got |n| = {np.linalg.norm(n)!r}"
        )
    return n


def trace_kernel(y, xi, n, wave: WaveState, params: MaterialParams) -> TraceKernel:
    """Trace kernel at a single pair: traces at xi (unit normal n), sources at y."""
    y = np.asarray(y, dtype=float).reshape(3)
    xi = np.asarray(xi, dtype=float).reshape(3)
    n = _check_unit_normal(n)
    return TraceKernel(matrix=_trace_matrix(y, xi, n, wave, params))


# ---------------------------------------------------------------------------
# dislocation coupling kernel (traces of a radiated jump field)
# ---------------------------------------------------------------------------
def _dislocation_trace_matrix(
    y, n_src, z, n_trc, wave: WaveState, params: MaterialParams
) -> np.ndarray:
    """Batched 5x5 kernel: traces (t, q, p) at z (normal n_trc) of the field
    radiated by unit jump components ([[u]], [[p]], -[[q]]) at y (normal n_src).

    The radiated field is the reciprocal evaluation of the trace kernel
    (source placed at the observer); taking its traces costs one more
    Cartesian derivative, hence the fourth-order radial stacks.
    """
    # w = y - z so that d matches the trace-at-y / source-at-z arrangement
    r, d = _geometry(z, y)
    n = np.broadcast_to(np.asarray(n_src, dtype=float), d.shape)
    nu = np.broadcast_to(np.asarray(n_trc, dtype=float), d.shape)
    st = _Stacks(wave, r, 4)
    co = _coeffs(wave, params)
    rad = _radials(st, co, r)
    # field kernel F[..., row(u1,u2,u3,p), col(au1..3, ap, aq)]: the
    # trace kernel read with rows and columns swapped
    K, S2P, HPsi = _trace_rows(st, co, rad, r, d, n)
    F = np.swapaxes(K, -1, -2)
    nd = np.sum(n * d, axis=-1)

    gs1, gs2 = rad.gs1, st.gs[..., 2]
    Psi1, Psi2, Dv1 = rad.Psi1, rad.Psi2, rad.Dv1
    Dv2 = st.A1 * st.k1sq * st.g1[..., 2] + st.A2 * st.k2sq * st.g2[..., 2]
    X1 = st.k1sq * st.g1[..., 1] - st.k2sq * st.g2[..., 1]
    Pf1 = co.cf1 * st.g1[..., 1] + co.cf2 * st.g2[..., 1]
    Pf2 = co.cf1 * st.g1[..., 2] + co.cf2 * st.g2[..., 2]
    Y = Pf1 + co.rho_f_w2 * co.cP * Psi1

    dd = d[..., :, None] * d[..., None, :]
    S2Psi = _s2(st.Psi, r, d, n)
    nF4 = _nf4(st.Phi, r, d, n)

    def hess_pattern(f1, f2):
        # d/dw_m of f1(r) d_i, given f2 = f1'
        a = (f2 - f1 / r)[..., None, None]
        return a * dd + (f1 / r)[..., None, None] * _EYE3  # [..., i, m]

    # --- gradients of the field kernel with respect to w = y - z ----------
    # dTs[..., j, i, m] = d Ts[j, i] / d w_m
    HDv = hess_pattern(Dv1, Dv2)  # [..., i, m]
    Hgs = hess_pattern(gs1, gs2)  # [..., j, m]
    grad_gs1_nd = (
        (gs2 * nd)[..., None] * d
        + gs1[..., None] * (n - nd[..., None] * d) / r[..., None]
    )  # [..., m]
    term_lam = co.lam * co.cU * n[..., :, None, None] * HDv[..., None, :, :]
    term_alpha = -co.alpha * co.cP * n[..., :, None, None] * HPsi[..., None, :, :]
    # mu-part laid out [..., i, j, m]; nF4 and the delta_ij term are fully
    # symmetric, only the n_i factor breaks the symmetry
    term_mu = (
        co.mu
        * co.cU
        * (
            2.0 * nF4
            + co.ks2
            * (
                _EYE3[:, :, None] * grad_gs1_nd[..., None, None, :]
                + n[..., :, None, None] * Hgs[..., None, :, :]
            )
        )
    )
    dTs = np.swapaxes(term_mu, -3, -2) + term_lam + term_alpha  # [..., j, i, m]

    dqs = (
        co.cP * S2Psi
        - co.rho_f_w2
        * co.cU
        * (S2P + co.ks2 * gs1[..., None, None] * n[..., :, None] * d[..., None, :])
    ) / co.gamma_w2  # [..., i, m]
    dps = co.cP * HPsi  # [..., i, m]

    dtf = (
        co.cP * co.lam * X1[..., None, None] * n[..., :, None] * d[..., None, :]
        - 2.0 * co.mu * co.cP * S2Psi
        - co.alpha * Pf1[..., None, None] * n[..., :, None] * d[..., None, :]
    )  # [..., j, m]
    Yp = Pf2 + co.rho_f_w2 * co.cP * Psi2
    dqf = (
        (Yp * nd)[..., None] * d
        + Y[..., None] * (n - nd[..., None] * d) / r[..., None]
    ) / co.gamma_w2  # [..., m]
    dpf = Pf1[..., None] * d  # [..., m]

    # assemble dF[..., m, row, col] = d F[row, col] / d w_m;
    # F[i, j] = Ts[j, i], hence dF[m, i, j] = dTs[j, i, m]
    dF = np.empty(r.shape + (3, 4, 5), dtype=np.complex128)
    dF[..., :, :3, :3] = np.moveaxis(np.swapaxes(dTs, -3, -2), -1, -3)
    dF[..., :, :3, 3] = np.moveaxis(dqs, -1, -2)
    dF[..., :, :3, 4] = np.moveaxis(dps, -1, -2)
    dF[..., :, 3, :3] = np.moveaxis(dtf, -1, -2)
    dF[..., :, 3, 3] = dqf
    dF[..., :, 3, 4] = dpf

    # --- traces at z; d/dz = -d/dw ----------------------------------------
    J = -dF[..., :, :3, :]  # J[..., m, i, col] = d u_i / d z_m
    gp = -dF[..., :, 3, :]  # gp[..., m, col] = d p / d z_m

    div_u = np.einsum("...mmc->...c", J)
    nuJ_sym = np.einsum("...k,...kic->...ic", nu, J) + np.einsum(
        "...k,...ikc->...ic", nu, J
    )
    t_rows = (
        co.lam * nu[..., :, None] * div_u[..., None, :]
        + co.mu * nuJ_sym
        - co.alpha * nu[..., :, None] * F[..., None, 3, :]
    )
    q_row = (
        np.einsum("...m,...mc->...c", nu, gp)
        - co.rho_f_w2 * np.einsum("...i,...ic->...c", nu, F[..., :3, :])
    ) / co.gamma_w2
    p_row = F[..., 3, :]

    out = np.empty(r.shape + (5, 5), dtype=np.complex128)
    out[..., 0:3, :] = t_rows
    out[..., 3, :] = q_row
    out[..., 4, :] = p_row
    return out


def dislocation_trace_kernel(
    y, n_src, z, n_trc, wave: WaveState, params: MaterialParams
) -> np.ndarray:
    """5x5 coupling kernel for a single pair of interface points.

    Maps unit jump components ([[u]] (3), [[p]], -[[q]]) of a point
    dislocation at ``y`` (normal ``n_src``) to the trace triple
    (traction (3), relative flow, pressure) of its radiated field at
    ``z`` (normal ``n_trc``).
    """
    y = np.asarray(y, dtype=float).reshape(3)
    z = np.asarray(z, dtype=float).reshape(3)
    n_src = _check_unit_normal(n_src)
    n_trc = _check_unit_normal(n_trc)
    return _dislocation_trace_matrix(y, n_src, z, n_trc, wave, params)
